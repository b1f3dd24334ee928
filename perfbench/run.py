"""Run one workload of the repository's benchmark and print its metrics.

    python3 perfbench/run.py --workload failover --seed 1 --seconds 25 --trace 0

Workloads: failover, pageload, scale, serve (see README.md).  The run
sets up the workload several times (fresh imports of ``repro`` plus a
small warm-up operation each time), then repeats whole rounds of the
workload's fixed work until ``--seconds`` are used up, checking every
operation of every round against values the benchmark computes itself.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the rounds run under
the layer profiler and the JSON carries the per-layer metrics instead.
The lines before it report the workload's own figures by name.
"""

import argparse
import importlib
import json
import os
import statistics
import sys
import time

import checks
import layers
import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: compiled bytecode of src/, benchmarks/ and perfbench/ lives here, out
#: of the source tree, so runs leave ``git status`` clean and set-up
#: does not pay for recompiling the package in every process
PYCACHE = os.path.join(ROOT, ".bench_build", "pycache")

WORKLOADS = ("failover", "pageload", "scale", "serve")
#: set-up repetitions per run; set-up time is their median
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_bytecode():
    """Point the import system at the out-of-tree bytecode cache and
    compile everything the benchmark imports into it (a no-op once the
    cache is warm)."""
    import compileall

    sys.pycache_prefix = PYCACHE
    sys.dont_write_bytecode = False
    for directory in (os.path.join(SRC, "repro"),
                      os.path.join(ROOT, "benchmarks"), BENCH_DIR):
        compileall.compile_dir(directory, quiet=2)


def purge_repro():
    """Forget every imported ``repro`` module (and the shared bench
    helpers that import it) so the next import pays full price."""
    for name in list(sys.modules):
        if name == "repro" or name.startswith("repro.") or name == "common":
            del sys.modules[name]


def peak_rss_mb():
    """The process's resident-set high-water mark (VmHWM), in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(workload, seed, speedometer):
    """Import, generate inputs and warm up; returns (inputs, seconds at
    the nominal machine speed)."""
    purge_repro()
    speedometer.mark()
    t0 = time.perf_counter()
    for module in workload.IMPORTS:
        importlib.import_module(module)
    inputs = workload.prepare(seed)
    workload.warmup(inputs)
    took = time.perf_counter() - t0
    return inputs, took / speedometer.factor()


def run_rounds(workload, inputs, seconds, speedometer, profiler=None):
    """Repeat whole rounds until the next one would overrun ``seconds``
    (at least one round runs)."""
    rounds = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if profiler is not None:
            profiler.begin_round()
        speedometer.mark()
        result = workload.run_round(inputs)
        result.rescale(speedometer.factor())
        if profiler is not None:
            profiler.end_round()
        rounds.append(result)
        took = time.perf_counter() - t0
        elapsed = time.perf_counter() - started
        if elapsed + took > seconds:
            return rounds


def report(name, value, unit, note=""):
    print("%-24s %14.6f %-8s %s" % (name, value, unit, note))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: %s holds no src/repro package to measure"
              % ROOT, file=sys.stderr)
        return 2
    prepare_bytecode()
    sys.path[:0] = [SRC, os.path.join(ROOT, "benchmarks")]
    workload = importlib.import_module(args.workload)

    speedometer = speed.Speedometer()
    speedometer.arm()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            inputs, took = set_up(workload, args.seed, speedometer)
            setups.append(took)
        profiler = None
        if args.trace:
            # Traced rounds report no times of their own: keep the
            # sampling handler out of their profiles.
            speedometer.disarm()
            profiler = layers.LayerProfiler(SRC,
                                            simulated=workload.SIMULATED)
        rounds = run_rounds(workload, inputs, args.seconds, speedometer,
                            profiler)
    finally:
        speedometer.disarm()

    attempted = sum(len(r.ops) for r in rounds)
    failures = [(op, err) for r in rounds for op, err in r.ops
                if err is not None]
    violations = profiler.violations if profiler is not None else 0
    for op, err in sorted(set(failures)):
        print("FAILED %s: %s" % (op, err))
    print("%s seed=%d rounds=%d attempted=%d failed=%d"
          % (args.workload, args.seed, len(rounds), attempted,
             len(failures)))
    print("round wall_s (raw): %s" % " ".join("%.4f" % r.raw_wall_s
                                               for r in rounds))
    print("round speed factors: %s" % " ".join(
        "%.3f" % (r.raw_wall_s / r.wall_s) for r in rounds))

    if args.trace:
        metrics = profiler.metrics()
        for name, (value, unit) in sorted(metrics.items()):
            report(name, value, unit)
        report("traced wall_s", statistics.median(r.wall_s for r in rounds),
               "s", "tracing overhead = this / untraced wall_s")
        if violations:
            print("invariant violations: %d" % violations)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_MB": (peak_rss_mb(), "MB"),
        }
        metrics.update(checks.end_to_end(rounds, workload.LATENCY))
        for name, (value, unit) in metrics.items():
            report(name, value, unit)
        for name, (value, unit, note) in workload.details(rounds).items():
            report(name, value, unit, note)
    result = {
        "correct": violations == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
