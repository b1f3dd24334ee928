"""Traced runs: per-layer self time, cross-layer calls and counters.

Each round runs under :mod:`cProfile`.  A function's layer is the
package of ``repro`` its file lives in (see :data:`LAYERS`).  Code
outside ``repro`` -- C builtins such as ``pow`` and ``blake2s``, the
standard library, and this benchmark's own callbacks -- has no layer
of its own: its self time is charged to the layers that called it, in
proportion to the time each caller spent in it.  So FFDHE's ``pow``
counts to ``crypto`` and ``selectors.select`` to ``core.drivers``.

Counters are read from the program's public attributes after every
round.  The objects are found by wrapping the constructors of a few
classes for the duration of the traced run; nothing inside ``repro``
is edited.  Simulated rounds also run with every invariant checker of
:mod:`repro.obs.invariants` armed, and any violation makes the run
incorrect.
"""

import cProfile
import importlib
import os
import pstats

#: the layers reported, in report order
LAYERS = ("net", "net.fluid", "tcp", "tls", "crypto", "core.engine",
          "core.drivers", "obs", "workload", "baselines", "perf")
#: packages of repro that are not layers of their own, and the layer
#: their time counts to
FOLDED = {"qlog": "obs", "ebpf": "core.engine"}
#: time of this benchmark's own code and of calls nobody in repro made
OTHER = "other"

#: (module, class) pairs whose instances the counters are read from
TRACKED = (
    ("repro.net.simulator", "Simulator"),
    ("repro.net.link", "Link"),
    ("repro.tcp.connection", "TcpConnection"),
    ("repro.tls.endpoint", "TlsClient"),
    ("repro.tls.endpoint", "TlsServer"),
    ("repro.core.engine.session", "TcplsEngine"),
    ("repro.core.drivers.multi", "ConnectionTable"),
    ("repro.core.drivers.sockets", "SocketDriver"),
    ("repro.workload.pool", "ConnectionPool"),
)

#: (name, unit, better) of every per-layer metric, in report order
COUNTERS = (
    ("core.engine.records_received", "count", "lower"),
    ("core.engine.tag_trials", "count", "lower"),
    ("core.engine.trials_per_record", "ratio", "lower"),
    ("core.engine.demux_drops", "count", "lower"),
    ("core.engine.records_replayed", "count", "lower"),
    ("crypto.ffdhe_modexps", "count", "lower"),
    ("crypto.aead_bytes", "B", "lower"),
    ("tls.handshakes", "count", "lower"),
    ("tcp.segments_sent", "count", "lower"),
    ("tcp.retransmissions", "count", "lower"),
    ("net.packets_sent", "count", "lower"),
    ("net.packets_dropped", "count", "lower"),
    ("net.fluid.solves", "count", "lower"),
    ("net.fluid.leaps", "count", "lower"),
    ("core.drivers.accepts", "count", "lower"),
    ("core.drivers.table_peak", "count", "lower"),
    ("workload.pool_reuse_ratio", "ratio", "higher"),
    ("obs.emits", "count", "lower"),
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for layer in LAYERS:
        out.append(("%s.self_s" % layer, "s", "lower"))
        out.append(("%s.calls" % layer, "count", "lower"))
    return out + list(COUNTERS)


def layer_of(filename, src):
    """The layer a source file belongs to; ``None`` for code outside
    both ``repro`` and this benchmark (builtins, the standard
    library), :data:`OTHER` for the benchmark's own files."""
    prefix = os.path.join(src, "repro") + os.sep
    if not filename.startswith(prefix):
        bench_root = os.path.dirname(src)
        for own in ("perfbench", "benchmarks"):
            if filename.startswith(os.path.join(bench_root, own) + os.sep):
                return OTHER
        return None
    parts = filename[len(prefix):].split(os.sep)
    package = parts[0] if len(parts) > 1 else None
    if package == "net":
        return "net.fluid" if parts[1] == "fluid.py" else "net"
    if package == "core":
        return "core.drivers" if parts[1] == "drivers" else "core.engine"
    if package in LAYERS:
        return package
    return FOLDED.get(package, OTHER)


#: the constructor wrapper of :class:`InstanceLog`: it runs on behalf of
#: whoever constructs the object, so it takes its caller's layer
_WRAPPER = (os.path.abspath(__file__), "__init__")


def attribute(stats, src):
    """Split profile ``stats`` (``pstats.Stats.stats``) by layer.

    Returns ``(self_s, calls, ffdhe_modexps)``: self seconds and
    entering calls per layer, and the number of FFDHE exponentiations
    (calls of ``FFDHE2048.generate`` and ``shared_secret``).
    """
    own = {fn: (None if (fn[0], fn[2]) == _WRAPPER
                else layer_of(fn[0], src)) for fn in stats}
    shares_memo = {}

    def shares(fn):
        """Fractions of ``fn``'s time that belong to each layer."""
        layer = own.get(fn)
        if layer is not None:
            return {layer: 1.0}
        if fn in shares_memo:
            return shares_memo[fn]
        shares_memo[fn] = {OTHER: 1.0}      # recursion guard
        acc = {}
        total = 0.0
        for caller, edge in stats[fn][4].items():
            if caller not in stats:
                continue
            # Cumulative time through this edge; call counts break ties
            # for edges too short for the timer.
            weight = edge[3] + 1e-9 * edge[1]
            for layer, share in shares(caller).items():
                acc[layer] = acc.get(layer, 0.0) + weight * share
                total += weight * share
        result = ({layer: v / total for layer, v in acc.items()}
                  if total > 0.0 else {OTHER: 1.0})
        shares_memo[fn] = result
        return result

    def dominant(fn):
        return max(shares(fn).items(), key=lambda kv: kv[1])[0]

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    modexps = 0
    for fn, (_cc, nc, tt, _ct, callers) in stats.items():
        for layer, share in shares(fn).items():
            if layer in self_s:
                self_s[layer] += tt * share
        layer = own[fn]
        if layer not in calls:
            continue
        if fn[0].endswith(os.path.join("crypto", "ffdhe.py")) and \
                fn[2] in ("generate", "shared_secret"):
            modexps += nc
        if not callers:
            calls[layer] += nc
            continue
        for caller, edge in callers.items():
            if caller not in stats or dominant(caller) != layer:
                calls[layer] += edge[1]
    return self_s, calls, modexps


class InstanceLog:
    """Wraps the constructors of :data:`TRACKED` classes so every
    instance built while tracing is remembered (per round)."""

    def __init__(self, on_simulator=None):
        self.instances = {}
        for module_name, class_name in TRACKED:
            cls = getattr(importlib.import_module(module_name), class_name)
            self.instances[class_name] = {}
            self._wrap(cls, class_name,
                       on_simulator if class_name == "Simulator" else None)

    def _wrap(self, cls, class_name, after):
        original = cls.__dict__["__init__"]
        seen = self.instances[class_name]

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            if id(obj) not in seen:
                seen[id(obj)] = obj
                if after is not None:
                    after(obj)

        cls.__init__ = __init__

    def of(self, class_name):
        return list(self.instances[class_name].values())

    def clear(self):
        for seen in self.instances.values():
            seen.clear()


def read_counters(log, modexps):
    """The counter metrics for one round, from public attributes."""
    engines = log.of("TcplsEngine")
    links = log.of("Link")
    tcps = log.of("TcpConnection")
    sims = log.of("Simulator")
    tables = log.of("ConnectionTable")
    pools = log.of("ConnectionPool")
    buses = [s.bus for s in sims] + [d.bus for d in log.of("SocketDriver")]

    def engine_sum(key):
        return sum(e.stats[key] for e in engines)

    records = engine_sum("records_received")
    trials = engine_sum("tag_trials")
    opened = sum(p.opened for p in pools)
    reused = sum(p.reused for p in pools)
    fluids = [s.fluid for s in sims if s.fluid is not None]
    return {
        "core.engine.records_received": records,
        "core.engine.tag_trials": trials,
        "core.engine.trials_per_record": trials / records if records else 0.0,
        "core.engine.demux_drops": engine_sum("demux_drops"),
        "core.engine.records_replayed": engine_sum("records_replayed"),
        "crypto.ffdhe_modexps": modexps,
        "crypto.aead_bytes": (engine_sum("bytes_sealed")
                              + engine_sum("bytes_opened")),
        "tls.handshakes": sum(
            1 for tls in log.of("TlsClient") + log.of("TlsServer")
            if tls.handshake_complete),
        "tcp.segments_sent": sum(t.segments_sent for t in tcps),
        "tcp.retransmissions": sum(t.retransmissions for t in tcps),
        "net.packets_sent": sum(link.stats.tx_packets for link in links),
        "net.packets_dropped": sum(link.stats.dropped_packets
                                   for link in links),
        "net.fluid.solves": sum(f.solves for f in fluids),
        "net.fluid.leaps": sum(f.leaps for f in fluids),
        "core.drivers.accepts": sum(t.accepts for t in tables),
        "core.drivers.table_peak": max((t.peak for t in tables), default=0),
        "workload.pool_reuse_ratio": (reused / (opened + reused)
                                      if opened + reused else 0.0),
        "obs.emits": sum(bus.events_emitted for bus in buses),
    }


class LayerProfiler:
    """Profiles rounds and accumulates the per-layer metrics.

    ``simulated`` arms the invariant checkers on every simulator the
    round builds; :attr:`violations` counts what they report.
    """

    def __init__(self, src, simulated):
        self.src = src
        self.simulated = simulated
        self.violations = 0
        self._harnesses = []
        self._profile = None
        self._rounds = []
        self.log = InstanceLog(
            on_simulator=self._arm if simulated else None)

    def _arm(self, sim):
        from repro.obs.invariants import arm_invariants

        self._harnesses.append(arm_invariants(sim))

    def begin_round(self):
        self.log.clear()
        self._harnesses = []
        self._profile = cProfile.Profile()
        self._profile.enable()

    def end_round(self):
        self._profile.disable()
        stats = pstats.Stats(self._profile).stats
        self_s, calls, modexps = attribute(stats, self.src)
        counters = read_counters(self.log, modexps)
        for harness in self._harnesses:
            for violation in harness.finish():
                self.violations += 1
                print("invariant violation: %r" % (violation,))
        self._rounds.append((self_s, calls, counters))
        self.log.clear()
        self._profile = None

    def metrics(self):
        """Per-round means of every per-layer metric:
        ``{name: (value, unit)}``."""
        n = len(self._rounds)
        out = {}
        for layer in LAYERS:
            out["%s.self_s" % layer] = (
                sum(r[0][layer] for r in self._rounds) / n, "s")
            out["%s.calls" % layer] = (
                sum(r[1][layer] for r in self._rounds) / n, "count")
        for name, unit, _better in COUNTERS:
            out[name] = (sum(r[2][name] for r in self._rounds) / n, unit)
        return out
