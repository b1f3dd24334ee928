"""failover: TCPLS multipath downloads through the paper's outages.

One round is three downloads, each in its own simulation built with
``benchmarks/common.py`` (full FFDHE handshakes, ``null-tag`` cipher):
2 MiB each, through a Fig. 8 blackhole of the primary path, through a
Fig. 8 spurious RST, and through Fig. 9's rotating working path (4
paths, rotation every 0.5 s).  This is where tag-trial
demux and replayed duplicates cost the most.

The seed sets each simulator's seed and shifts the Fig. 8 outage
instants within a fixed 10 ms window per download; the Fig. 9 rotation
period stays at the matrix's 0.5 s, where the transfer completes.
"""

import hashlib
import random
import time

import checks

IMPORTS = ("repro.net", "repro.core", "common")
SIMULATED = True
#: ``latency_ms`` is the mean simulated download completion
LATENCY = "mean"

SIZE = 2 << 20
HORIZON = 60.0
#: outage instants (s) of the Fig. 8 downloads; the seed adds 0-10 ms
OUTAGES = (("blackhole", 0.30), ("rst", 0.30))
ROTATE_EVERY = 0.5
#: TCP handshake, TLS handshake, then the request: three round trips
#: before the first response byte can leave the server
HANDSHAKE_RTTS = 3


class Download:
    """One download's generated inputs."""

    def __init__(self, name, sim_seed, outage=None, at=None,
                 rotate_every=None, size=SIZE):
        self.name = name
        self.sim_seed = sim_seed
        self.outage = outage
        self.at = at
        self.rotate_every = rotate_every
        self.size = size


def prepare(seed):
    rng = random.Random(seed)
    downloads = []
    for outage, at in OUTAGES:
        shifted = round(at + rng.uniform(0.0, 0.010), 6)
        downloads.append(Download("fig8-%s" % outage,
                                  rng.randrange(1 << 30), outage, shifted))
    downloads.append(Download("fig9-rotation", rng.randrange(1 << 30),
                              rotate_every=ROTATE_EVERY))
    return {"downloads": downloads,
            "warmup": Download("warmup", seed, "rst", 0.05, size=64 << 10)}


class _Receiver:
    """Client stream callback: digests and counts what arrives."""

    def __init__(self, sim, probe, size):
        self.sim = sim
        self.probe = probe
        self.size = size
        self.digest = hashlib.sha256()
        self.received = 0
        self.done_at = None

    def __call__(self, stream):
        data = stream.recv()
        self.digest.update(data)
        self.received += len(data)
        self.probe.account(len(data))
        if self.received >= self.size and self.done_at is None:
            self.done_at = self.sim.now
            self.probe.stop()


def run_download(spec):
    """Run one download; returns ``(receiver, failovers, topology)``."""
    from common import build_tcpls_download
    from repro.net import Simulator, build_faulty_multipath

    sim = Simulator(seed=spec.sim_seed)
    if spec.rotate_every is not None:
        topo = build_faulty_multipath(sim, n_paths=4, families=[4, 6, 4, 6])
        client, sessions, probe, _done = build_tcpls_download(
            sim, topo, spec.size, uto=None,
            client_kwargs={"join_timeout": 0.5})
        client.auto_user_timeout = 0.25
        topo.rotate_working(spec.rotate_every)
    else:
        topo = build_faulty_multipath(sim, n_paths=2)
        client, sessions, probe, _done = build_tcpls_download(
            sim, topo, spec.size)
        if spec.outage == "blackhole":
            topo.flap_path(0, at=spec.at)
        else:
            topo.rst_path(0, at=spec.at, direction="s2c")
    receiver = _Receiver(sim, probe, spec.size)
    client.on_stream_data = receiver
    sim.run(until=HORIZON)
    failovers = client.stats["failovers"] + sum(
        s.stats["failovers"] for s in sessions)
    return receiver, failovers, topo


def check(spec, receiver, failovers, topo):
    # build_tcpls_download's server sends b"F" * size on one stream.
    path = topo.path(0).s2c
    bound = checks.download_lower_bound(spec.size, path.rate_bps,
                                        path.delay, HANDSHAKE_RTTS)
    return checks.check_download(
        receiver.digest.hexdigest(), receiver.received, b"F" * spec.size,
        receiver.done_at, bound, HORIZON, failovers)


def warmup(inputs):
    run_download(inputs["warmup"])


def run_round(inputs):
    result = checks.Round()
    outcomes = []
    t0 = time.perf_counter()
    for spec in inputs["downloads"]:
        outcomes.append((spec, run_download(spec)))
    result.wall_s = time.perf_counter() - t0
    for spec, (receiver, failovers, topo) in outcomes:
        result.op(spec.name, check(spec, receiver, failovers, topo))
        if receiver.done_at is not None:
            result.latency_ms.append(receiver.done_at * 1e3)
        result.goodput_bytes += receiver.received
    result.goodput_s = result.wall_s
    return result


def details(rounds):
    samples = [t / 1e3 for r in rounds for t in r.latency_ms]
    return {"completion_mean_sim_s": (sum(samples) / len(samples), "s",
                                      "n=%d downloads" % len(samples))}
