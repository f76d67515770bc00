"""Ablations of the design choices the thesis argues for (see the
"Benchmarks" paragraph of the README's "Tests and benchmarks" section).

Each ablation flips one knob the thesis argues for and shows the
consequence:

* A1 — Fig. 3.9 per-link quality threshold on/off (route choice);
* A2 — §3.4.3 mobility preference on/off (static-backbone routing);
* A3 — §4.3 connection-attempt repetition on/off (chain success rate);
* A4 — §5.2.1 low-count limit sweep (handover trigger latency);
* A5 — §5.3 sending flag on/off (spurious handovers while idle);
* A6 — jump-first vs quality-first route ranking.
"""

from repro.core.config import (
    DaemonConfig,
    HandoverConfig,
    RoutingPolicy,
)
from repro.core.device import MobilityClass
from repro.core.errors import ConnectionClosedError
from repro.core.handover import HandoverThread
from repro.core.routing import RouteMetrics, is_better_route
from repro.radio.technologies import BLUETOOTH
from repro.scenarios import fig_4_5_bridge_test, fig_5_8_handover
from paperbench import print_table

SETTLE_S = 200.0
S = MobilityClass.STATIC
D = MobilityClass.DYNAMIC


# ----------------------------------------------------------------------
# A1 + A2 + A6: pure routing-policy ablations (fast, rule-level)
# ----------------------------------------------------------------------
def run_policy_ablations():
    clean = RouteMetrics(1, S, 460, 230)       # Fig. 3.9's A-B-D
    tainted = RouteMetrics(1, S, 460, 210)     # Fig. 3.9's A-C-D
    via_static = RouteMetrics(1, S, 400, 240)
    via_dynamic = RouteMetrics(1, D, 480, 240)
    short_weak = RouteMetrics(1, S, 250, 250)
    long_strong = RouteMetrics(3, S, 900, 255)
    return {
        "threshold_on_prefers_clean": is_better_route(
            clean, tainted, RoutingPolicy()),
        "threshold_off_ties": not is_better_route(
            clean, tainted, RoutingPolicy(use_quality_threshold=False)),
        "mobility_on_prefers_static": is_better_route(
            via_static, via_dynamic, RoutingPolicy()),
        "mobility_off_prefers_quality": is_better_route(
            via_dynamic, via_static, RoutingPolicy(use_mobility=False)),
        "jump_first_prefers_short": is_better_route(
            short_weak, long_strong, RoutingPolicy()),
        "quality_first_prefers_strong": is_better_route(
            long_strong, short_weak, RoutingPolicy(quality_first=True)),
    }


def test_ablation_routing_policy(benchmark):
    verdict = benchmark(run_policy_ablations)
    rows = [[name, value] for name, value in verdict.items()]
    print_table("A1/A2/A6: routing-policy ablations", ["check", "holds"],
                rows)
    assert all(verdict.values()), verdict


# ----------------------------------------------------------------------
# A3: §4.3 connection-attempt repetition
# ----------------------------------------------------------------------
def run_retry_ablation(attempts=16):
    results = {}
    for retries in (0, 2):
        failures = 0
        for seed in range(attempts):
            config = DaemonConfig(connect_retries=retries)
            scenario = fig_4_5_bridge_test(seed=seed, config=config)
            server = scenario.node("server")
            client = scenario.node("client")

            def handler(connection):
                return None

            server.library.register_service("probe", handler)
            scenario.start_all()
            scenario.run(until=SETTLE_S)
            if not scenario.wait_for_route("client", "server"):
                failures += 1
                continue

            def run(sim, client=client, server=server, retries=retries):
                try:
                    yield from client.library.connect(
                        server.address, "probe", retries=retries)
                except Exception:
                    return False
                return True

            if not scenario.run_process(run(scenario.sim)):
                failures += 1
        results[retries] = failures / attempts
    return results


def test_ablation_connect_retries(benchmark):
    results = benchmark.pedantic(run_retry_ablation, rounds=1,
                                 iterations=1, warmup_rounds=0)
    rows = [[retries, f"{rate:.0%}"] for retries, rate in results.items()]
    print_table("A3: §4.3 bridge-chain failure rate vs retries",
                ["retries", "failure rate"], rows)
    assert results[2] < results[0], (
        "retrying must reduce chain failures (the §4.3 recommendation): "
        f"{results}")
    benchmark.extra_info["failure_rates"] = {
        str(k): round(v, 3) for k, v in results.items()}


# ----------------------------------------------------------------------
# A4 + A5: handover knobs on the Fig. 5.8 rig
# ----------------------------------------------------------------------
def run_handover_knob(config, sending, seed=5, messages=90):
    scenario = fig_5_8_handover(seed=seed)
    server, client = scenario.node("A"), scenario.node("B")

    def handler(connection):
        def serve(connection=connection):
            while True:
                try:
                    yield from connection.read()
                except ConnectionClosedError:
                    return
        return serve()

    server.library.register_service("print", handler)
    scenario.start_all()
    scenario.run(until=SETTLE_S)
    if not scenario.wait_for_route("B", "A"):
        return None

    def client_run(sim):
        connection = yield from client.library.connect(
            server.address, "print", retries=6)
        decay_start = sim.now
        scenario.world.install_linear_decay(
            "A", "B", BLUETOOTH, initial_quality=240)
        connection.set_sending(sending)
        thread = HandoverThread(client.library, connection,
                                config=config).start()
        for index in range(messages):
            connection.write(f"m{index}", 64)
            yield sim.timeout(1.0)
        thread.stop()
        return decay_start, thread

    decay_start, thread = scenario.run_process(client_run(scenario.sim))
    handover = scenario.trace.first("routing-handover")
    return {
        "fired": thread.handovers_done >= 1,
        "trigger_delay": (handover.time - decay_start
                          if handover else None),
    }


def test_ablation_low_count_limit(benchmark):
    def sweep():
        results = {}
        for limit in (1, 3, 8):
            outcome = run_handover_knob(
                HandoverConfig(low_count_limit=limit), sending=True)
            results[limit] = outcome
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1,
                                 warmup_rounds=0)
    rows = [[limit,
             outcome["fired"],
             f"{outcome['trigger_delay']:.0f} s"
             if outcome and outcome["trigger_delay"] else "-"]
            for limit, outcome in results.items()]
    print_table("A4: handover trigger delay vs low-count limit "
                "(paper uses 3)", ["limit", "fired", "delay after decay"],
                rows)
    assert all(outcome["fired"] for outcome in results.values())
    delays = [results[limit]["trigger_delay"] for limit in (1, 3, 8)]
    assert delays == sorted(delays), (
        f"a stricter limit must delay the trigger: {delays}")
    benchmark.extra_info["delays"] = [round(d, 1) for d in delays]


def test_ablation_sending_flag(benchmark):
    def compare():
        active = run_handover_knob(HandoverConfig(), sending=True)
        idle = run_handover_knob(HandoverConfig(), sending=False)
        return active, idle

    active, idle = benchmark.pedantic(compare, rounds=1, iterations=1,
                                      warmup_rounds=0)
    rows = [
        ["sending=True (streaming)", "handover fires", active["fired"]],
        ["sending=False (waiting for result)", "no handover (§5.3)",
         not idle["fired"]],
    ]
    print_table("A5: the §5.3 sending flag", ["mode", "paper", "holds"],
                rows)
    assert active["fired"]
    assert not idle["fired"]
