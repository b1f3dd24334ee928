"""Output checks and the round record every workload returns.

Every check compares a program output against a value this benchmark
computes itself (a digest of the payload it knows was sent, sizes read
from the generated inputs, bounds derived from the topology) or
against a property the method must have.  A check returns ``None``
when the output passes and a short reason when it does not; the
reason is what the run prints for a failed operation.
"""

import hashlib
import statistics


class Round:
    """One round of a workload's fixed work.

    ``ops`` lists ``(operation, failure reason or None)``;
    ``wall_s`` is the wall clock of the measured work;
    ``latency_ms`` holds the user-visible latency samples, in real
    time when ``real_time`` and in simulated time otherwise;
    ``goodput_bytes`` payload bytes delivered in ``goodput_s`` wall
    seconds; ``details`` holds the workload's own figures as
    ``{name: (samples, unit)}``, on the same clock as the latencies.
    """

    def __init__(self, real_time=False):
        self.real_time = real_time
        self.ops = []
        self.wall_s = 0.0
        self.raw_wall_s = None
        self.latency_ms = []
        self.goodput_bytes = 0
        self.goodput_s = 0.0
        self.details = {}

    def op(self, name, failure):
        self.ops.append((name, failure))

    def detail(self, name, unit, *samples):
        self.details.setdefault(name, ([], unit))[0].extend(samples)

    def rescale(self, factor):
        """Express every wall-clock figure at the nominal machine speed
        (see ``speed.py``): times shrink by ``factor``, rates grow."""
        self.raw_wall_s = self.wall_s
        self.wall_s /= factor
        self.goodput_s /= factor
        if not self.real_time:
            return
        self.latency_ms = [t / factor for t in self.latency_ms]
        for name, (samples, unit) in self.details.items():
            scale = factor if unit.endswith("/s") else 1.0 / factor
            self.details[name] = ([v * scale for v in samples], unit)


def end_to_end(rounds, latency="median"):
    """The workload-level end-to-end metrics shared by every workload
    (``setup_s`` and ``peak_rss_MB`` are added by the runner)."""
    samples = [s for r in rounds for s in r.latency_ms]
    stat = statistics.mean if latency == "mean" else statistics.median
    return {
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "latency_ms": (stat(samples), "ms"),
        "goodput_MBps": (statistics.median(
            r.goodput_bytes / r.goodput_s / 1e6 for r in rounds), "MB/s"),
    }


def percentile(ordered, fraction):
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def pooled(rounds, name):
    """Every round's samples of the detail ``name``."""
    return [v for r in rounds for v in r.details[name][0]]


# -- failover ---------------------------------------------------------------


def check_download(received_digest, received_bytes, expected_payload,
                   done_at, lower_bound_s, horizon_s, failovers):
    """A download through an outage: byte-exact, failed over, and
    completed no sooner than the topology allows nor later than the
    horizon."""
    if received_bytes != len(expected_payload):
        return "received %d of %d bytes" % (received_bytes,
                                             len(expected_payload))
    if received_digest != hashlib.sha256(expected_payload).hexdigest():
        return "received bytes differ from the payload sent"
    if failovers < 1:
        return "the outage caused no failover"
    if done_at is None:
        return "never completed"
    if not lower_bound_s <= done_at <= horizon_s:
        return "completion %.6fs outside [%.6f, %.1f]" % (
            done_at, lower_bound_s, horizon_s)
    return None


def download_lower_bound(size, rate_bps, one_way_delay, handshake_rtts):
    """Serialisation of ``size`` bytes at the path rate plus the round
    trips spent before the first response byte can leave."""
    return size * 8.0 / rate_bps + handshake_rtts * 2.0 * one_way_delay


# -- pageload ---------------------------------------------------------------


def dependency_depth(objects):
    """Longest chain of ``objects`` (``{name: depends_on}``), in
    objects: each must complete before the next can be requested."""
    depth = {}

    def walk(name):
        if name not in depth:
            depth[name] = 1 + max((walk(d) for d in objects[name]),
                                  default=0)
        return depth[name]

    return max((walk(name) for name in objects), default=0)


def check_page_cell(result, pages, expected_objects, expected_bytes,
                    min_plt_s):
    """One page-load cell: every page and object completed, the bytes
    fetched equal the spec sizes, and no page loaded faster than its
    dependency depth allows."""
    if result["pages_completed"] != pages:
        return "%d of %d pages completed" % (result["pages_completed"],
                                            pages)
    if result["objects_completed"] != expected_objects:
        return "%d of %d objects completed" % (result["objects_completed"],
                                              expected_objects)
    if result["bytes"] != expected_bytes:
        return "fetched %d bytes, pages hold %d" % (result["bytes"],
                                                    expected_bytes)
    fast = [p for p in result["plt_samples"] if p < min_plt_s]
    if fast:
        return "page loaded in %.6fs, under the %.6fs bound" % (
            min(fast), min_plt_s)
    return None


# -- scale ------------------------------------------------------------------


def check_session(ready, expected_bytes, received_bytes):
    """One scripted session: ready, and every requested byte arrived."""
    if not ready:
        return "never became ready"
    if received_bytes != expected_bytes:
        return "received %d of %d bytes" % (received_bytes, expected_bytes)
    return None


def check_shard_drained(table_len, sessions_left, accepts, teardowns):
    """After the scripted close the server holds nothing."""
    if table_len or sessions_left:
        return "table holds %d entries, %d sessions after close" % (
            table_len, sessions_left)
    if accepts != teardowns:
        return "%d accepts but %d teardowns" % (accepts, teardowns)
    return None


def jain(values):
    """Jain's fairness index of ``values`` (1.0 = equal)."""
    values = list(values)
    if not values:
        return 0.0
    square_sum = sum(v * v for v in values)
    if square_sum <= 0.0:
        return 0.0
    return sum(values) ** 2 / (len(values) * square_sum)


def check_fluid(flows, flows_completed, flow_bytes, carried_bytes,
                last_completion_s, capacity_bps, fairness=None):
    """A fluid flow population: all flows done, the bottleneck carried
    exactly their bytes (to within the per-advance rounding the link
    counters apply), the last completion no earlier than the bytes
    need at the bottleneck capacity, and, where given, Jain's index of
    rate x RTT at least 0.99."""
    expected = flows * flow_bytes
    if flows_completed != flows:
        return "%d of %d flows completed" % (flows_completed, flows)
    if abs(carried_bytes - expected) > 1e-6 * expected:
        return "bottleneck carried %d bytes, flows hold %d" % (
            carried_bytes, expected)
    # The engine completes a flow within 1e-9 of its size and reports
    # times rounded to the nanosecond; the bound allows both.
    floor = expected * 8.0 / capacity_bps * (1.0 - 1e-9)
    if last_completion_s is None or last_completion_s < floor:
        return "last completion %r before the %.9fs capacity bound" % (
            last_completion_s, floor)
    if fairness is not None and fairness < 0.99:
        return "Jain index of rate x RTT %.6f < 0.99" % fairness
    return None


# -- serve ------------------------------------------------------------------


def check_echo(request, echo):
    """An echoed request is byte-identical to what was sent."""
    if echo == request:
        return None
    if len(echo) != len(request):
        return "echo of %d bytes for a %d-byte request" % (len(echo),
                                                           len(request))
    return "echo differs from the request"


def check_server_drained(table_len, sessions_left, handshakes,
                         sessions_opened):
    """After every client closed: one handshake per session opened and
    nothing left in the server's table."""
    if handshakes != sessions_opened:
        return "%d handshakes for %d sessions" % (handshakes,
                                                  sessions_opened)
    if table_len or sessions_left:
        return "table holds %d entries, %d sessions after close" % (
            table_len, sessions_left)
    return None
