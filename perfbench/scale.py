"""scale: a simulated multi-session serving shard, then fluid populations.

One round is one ``repro.perf.loadgen`` shard (240 psk_ke sessions
through one ``MultiSessionServer``, with MPJOINs, eight
mid-transfer failovers and close/reconnect churn), then the three
fluid scenarios (fairness, incast, failover_storm) at 100k flows.  It
covers session set-up and teardown, the connection table and cookie
cache, and the fluid solver; it does no FFDHE and loads no pages.

The seed sets the simulator seeds and moves the shard's per-session
transfer size and each population's flow count and flow size by under
1%, which changes every simulated time without changing the amount of
work.
"""

import random
import time

import checks

IMPORTS = ("repro.perf.loadgen",)
SIMULATED = True
#: ``latency_ms`` is the median simulated transfer latency
LATENCY = "median"

SHARDS = 1
SESSIONS = 240
FAILOVER_SESSIONS = 8
TRANSFER_BYTES = 4096
FLUID_SCENARIOS = ("fairness", "incast", "failover_storm")
FLOWS = 100_000
FLOW_BYTES = 1_000_000


def prepare(seed):
    rng = random.Random(seed)
    shards = [{"sessions": SESSIONS, "failover_sessions": FAILOVER_SESSIONS,
               "seed": rng.randrange(1 << 30), "shard": i,
               "transfer_bytes": TRANSFER_BYTES + rng.randrange(0, 32)}
              for i in range(SHARDS)]
    fluids = [{"scenario": scenario, "seed": rng.randrange(1 << 30),
               "flows": FLOWS - rng.randrange(0, 1000),
               "flow_bytes": FLOW_BYTES - rng.randrange(0, 10_000)}
              for scenario in FLUID_SCENARIOS]
    warm = {"shard": {"sessions": 24, "failover_sessions": 2, "seed": seed,
                      "shard": 0, "transfer_bytes": TRANSFER_BYTES},
            "fluid": {"scenario": "failover_storm", "seed": seed,
                      "flows": 2000, "flow_bytes": FLOW_BYTES}}
    return {"shards": shards, "fluids": fluids, "warmup": warm}


def run_shard(config):
    from repro.perf.loadgen import LoadgenHarness

    harness = LoadgenHarness(**config)
    metrics = harness.run()
    return harness, metrics


def run_fluid(config):
    """Run one population with the benchmark's own probe of rate x RTT
    fairness, taken at the harness's probe instant."""
    from repro.perf.loadgen import FluidScenarioHarness

    harness = FluidScenarioHarness(**config)
    probe = {}

    def fairness_probe():
        probe["jain"] = checks.jain(
            c.rate * c.rtt for c in harness.engine.cohorts if not c.done)

    harness.sim.schedule(harness.t_probe, fairness_probe)
    metrics = harness.run()
    return harness, metrics, probe.get("jain")


def check_shard(config, harness, metrics):
    """Per-session outcomes plus the shard-level drain check, which is
    charged to every session of the shard when it fails."""
    drained = checks.check_shard_drained(
        metrics["table_end"], metrics["sessions_end"], metrics["accepts"],
        metrics["teardowns"])
    outcomes = []
    for script in harness.scripts:
        # Each session asks for one transfer; a failover session asks
        # for a second, larger one before its primary path dies.
        expected = config["transfer_bytes"]
        if script.is_failover:
            expected += harness.failover_bytes
        failure = drained or checks.check_session(
            script.t_ready is not None, expected, script.received)
        outcomes.append(("shard%d/gen%d/session%d" % (
            config["shard"], script.generation, script.index), failure))
    return outcomes


def check_population(config, harness, metrics, fairness):
    topo = harness.topo
    if config["scenario"] == "incast":
        carried = topo.leaves[-1].stats.tx_bytes
        capacity = topo.leaves[-1].rate_bps
    elif config["scenario"] == "failover_storm":
        carried = topo.core.stats.tx_bytes + topo.backup.stats.tx_bytes
        capacity = topo.core.rate_bps
    else:
        carried = topo.core.stats.tx_bytes
        capacity = topo.core.rate_bps
    return checks.check_fluid(
        config["flows"], metrics["flows_completed"], config["flow_bytes"],
        carried, metrics["last_completion"], capacity,
        fairness=fairness if config["scenario"] == "fairness" else None)


def warmup(inputs):
    run_shard(inputs["warmup"]["shard"])
    run_fluid(inputs["warmup"]["fluid"])


def run_round(inputs):
    result = checks.Round()
    shards = []
    fluids = []
    t0 = time.perf_counter()
    for config in inputs["shards"]:
        shards.append((config,) + run_shard(config))
    for config in inputs["fluids"]:
        fluids.append((config,) + run_fluid(config))
    result.wall_s = time.perf_counter() - t0
    for config, harness, metrics in shards:
        for name, failure in check_shard(config, harness, metrics):
            result.op(name, failure)
        result.latency_ms.extend(t * 1e3
                                 for t in harness.transfer_latencies)
        result.goodput_bytes += metrics["bytes_delivered"]
    for config, harness, metrics, fairness in fluids:
        result.op("fluid/%s" % config["scenario"],
                  check_population(config, harness, metrics, fairness))
    result.goodput_s = result.wall_s
    return result


def details(rounds):
    return {}
