"""Unit tests for configuration validation and defaults."""

import pytest

from repro.core.config import (
    MONITOR_INTERVAL_S,
    ROUTE_REFRESH_INTERVAL_S,
    SERVICE_CHECK_INTERVAL_LOOPS,
    DaemonConfig,
    HandoverConfig,
    RoutingPolicy,
)
from repro.radio.quality import PAPER_LOW_QUALITY_THRESHOLD


def test_routing_policy_paper_defaults():
    policy = RoutingPolicy()
    assert policy.quality_threshold == PAPER_LOW_QUALITY_THRESHOLD == 230
    assert policy.use_quality_threshold
    assert policy.use_mobility
    assert not policy.quality_first


def test_handover_config_paper_defaults():
    config = HandoverConfig()
    assert config.low_quality_threshold == 230  # Fig. 5.8 threshold
    assert config.low_count_limit == 3          # "bigger than three"
    assert MONITOR_INTERVAL_S == 1.0            # 1 unit per second decay
    assert ROUTE_REFRESH_INTERVAL_S == 5.0


def test_handover_config_validation():
    with pytest.raises(ValueError):
        HandoverConfig(low_count_limit=0)
    with pytest.raises(ValueError):
        HandoverConfig(low_quality_threshold=256)


def test_daemon_config_defaults():
    config = DaemonConfig()
    assert config.bridge_enabled
    assert SERVICE_CHECK_INTERVAL_LOOPS == 3    # §3.5 energy saving
    assert isinstance(config.routing, RoutingPolicy)
    assert isinstance(config.handover, HandoverConfig)


def test_daemon_config_validation():
    with pytest.raises(ValueError):
        DaemonConfig(stale_after_loops=0)
    with pytest.raises(ValueError):
        DaemonConfig(bridge_max_connections=-1)


def test_daemon_configs_do_not_share_nested_objects():
    first = DaemonConfig()
    second = DaemonConfig()
    assert first.routing is not second.routing
    assert first.handover is not second.handover
