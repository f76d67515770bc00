"""Unit tests for service records/registry and the wire protocol."""

import pytest

from repro.core.device import DeviceIdentity, MobilityClass
from repro.core.protocol import (
    BridgeRequest,
    ClientParams,
    Command,
    ConnectRequest,
    DataFrame,
    DisconnectFrame,
    DiscoveryResponse,
    NeighbourEntry,
    ReconnectRequest,
)
from repro.core.service import (
    BRIDGE_SERVICE_NAME,
    ServiceRecord,
    ServiceRegistry,
)


# ----------------------------------------------------------------------
# services
# ----------------------------------------------------------------------
def test_service_record_validation():
    with pytest.raises(ValueError):
        ServiceRecord(name="")
    with pytest.raises(ValueError):
        ServiceRecord(name="x", port=-1)


def test_registry_register_and_lookup():
    registry = ServiceRegistry()
    record = registry.register(ServiceRecord(name="echo", port=5000))
    assert registry.lookup("echo") is record
    assert "echo" in registry
    assert len(registry) == 1


def test_registry_auto_assigns_ports():
    registry = ServiceRegistry()
    first = registry.register(ServiceRecord(name="a"))
    second = registry.register(ServiceRecord(name="b"))
    assert first.port != 0
    assert second.port != 0
    assert first.port != second.port


def test_registry_rejects_duplicates():
    registry = ServiceRegistry()
    registry.register(ServiceRecord(name="echo"))
    with pytest.raises(ValueError):
        registry.register(ServiceRecord(name="echo"))


def test_registry_hidden_services_not_visible():
    """The bridge service is registered but not advertised (§4.0)."""
    registry = ServiceRegistry()
    registry.register(ServiceRecord(name=BRIDGE_SERVICE_NAME, port=1,
                                    hidden=True))
    registry.register(ServiceRecord(name="public"))
    visible_names = [s.name for s in registry.visible_services()]
    assert visible_names == ["public"]
    assert registry.lookup(BRIDGE_SERVICE_NAME).hidden   # still registered
    assert len(registry) == 2


# ----------------------------------------------------------------------
# protocol frames
# ----------------------------------------------------------------------
def make_params():
    return ClientParams(address="aa:bb:cc:dd:ee:ff", name="phone",
                        prototype="bluetooth", reply_service="reply",
                        mobility=MobilityClass.DYNAMIC, pid=7)


def test_connect_request_command_and_size():
    request = ConnectRequest(service_name="echo", connection_id=3,
                             client_params=make_params())
    assert request.command is Command.PH_CONNECT
    assert request.wire_size() > 0


def test_bridge_request_defaults():
    request = BridgeRequest(destination="11:22:33:44:55:66",
                            service_name="echo", connection_id=3,
                            client_params=make_params())
    assert request.command is Command.PH_BRIDGE
    assert request.hop_budget == 8
    assert request.reconnect is False


def test_reconnect_request_command():
    request = ReconnectRequest(connection_id=9, client_params=make_params())
    assert request.command is Command.PH_RECONNECT


def test_data_frame_wire_size_tracks_declared_size():
    small = DataFrame(payload="x", declared_size=10)
    large = DataFrame(payload="x", declared_size=10_000)
    assert large.wire_size() - small.wire_size() == 9_990


def test_data_frame_negative_size_rejected():
    frame = DataFrame(payload="x", declared_size=-1)
    with pytest.raises(ValueError):
        frame.wire_size()


def test_disconnect_frame_command():
    assert DisconnectFrame().command is Command.PH_DISCONNECT


def test_neighbour_entry_wire_size_includes_services():
    bare = NeighbourEntry(address="a", name="n", prototype="bluetooth",
                          mobility=MobilityClass.STATIC, jump=0,
                          route_quality_sum=255, route_min_quality=255)
    with_services = NeighbourEntry(
        address="a", name="n", prototype="bluetooth",
        mobility=MobilityClass.STATIC, jump=0,
        route_quality_sum=255, route_min_quality=255,
        services=(ServiceRecord(name="echo", port=1),))
    assert with_services.wire_size() > bare.wire_size()


def test_discovery_response_wire_size_grows_with_neighbourhood():
    identity = DeviceIdentity.create("pc")
    entry = NeighbourEntry(address="a", name="n", prototype="bluetooth",
                           mobility=MobilityClass.STATIC, jump=0,
                           route_quality_sum=255, route_min_quality=255)
    empty = DiscoveryResponse(identity=identity, prototype="bluetooth",
                              services=(), neighbourhood=())
    full = DiscoveryResponse(identity=identity, prototype="bluetooth",
                             services=(), neighbourhood=(entry,) * 5)
    assert full.wire_size() > empty.wire_size()
    assert full.wire_size() - empty.wire_size() == 5 * entry.wire_size()


def test_client_params_wire_size():
    params = make_params()
    assert params.wire_size() > 17
