"""pageload: browser-shaped bursts of dependent objects.

One round is eight page-load cells (``repro.perf.pageload
.run_pageload_cell``): TCPLS under round-robin and under the
predictive policy, QUIC, and MPTCP, each on a clean grid and on a
Gilbert-Elliott loss grid.  Each cell loads three 12-object pages in
two waves.  This is the workload, policy and baselines work of the
repository; demux is nearly free here.

Every cell loads the same pages (specs seeded ``CELL_SEED + i``), so
the stacks are compared on identical inputs.  The seed sets each
cell's path rate and one-way delay within 1% of the paper's
25 Mbps / 10 ms, which moves every simulated time without changing the
amount of work.
"""

import random
import statistics
import time

import checks

IMPORTS = ("repro.perf.pageload", "repro.workload", "repro.baselines.quic",
           "repro.baselines.mptcp")
SIMULATED = True
#: ``latency_ms`` is the median simulated TCPLS page-load time
LATENCY = "median"

CELLS = (("tcpls", "round-robin"), ("tcpls", "predictive"),
         ("quic", "round-robin"), ("mptcp", "round-robin"))
GRIDS = ("clean", "ge-light")
CELL_SEED = 42
PAGES = 3
WAVES = 2
OBJECTS = 12
RATE_BPS = 25_000_000
DELAY = 0.010
HORIZON = 60.0
#: largest relative change the seed makes to path rate and delay
JITTER = 0.001


class Cell:
    """One page-load cell's generated inputs."""

    def __init__(self, stack, policy, grid, rate_bps, delay, pages=PAGES,
                 n_objects=OBJECTS):
        self.stack = stack
        self.policy = policy
        self.grid = grid
        self.rate_bps = rate_bps
        self.delay = delay
        self.pages = pages
        self.n_objects = n_objects

    @property
    def name(self):
        return "%s/%s/%s" % (self.stack, self.policy, self.grid)


def page_specs(pages, n_objects):
    """The pages a cell loads, regenerated here from their seeds:
    ``{object: depends_on}`` and total bytes per page."""
    from repro.workload.pages import synthetic_page

    specs = []
    for index in range(pages):
        page = synthetic_page(seed=CELL_SEED + index, n_objects=n_objects)
        graph = {name: obj.depends_on for name, obj in page.objects.items()}
        size = sum(obj.size for obj in page.objects.values())
        specs.append((graph, size))
    return specs


def prepare(seed):
    rng = random.Random(seed)
    cells = []
    for grid in GRIDS:
        for stack, policy in CELLS:
            cells.append(Cell(
                stack, policy, grid,
                rate_bps=int(RATE_BPS * (1.0 + rng.uniform(-JITTER,
                                                           JITTER))),
                delay=round(DELAY * (1.0 + rng.uniform(-JITTER, JITTER)),
                            9)))
    warm = Cell("tcpls", "predictive", "clean", RATE_BPS, DELAY, pages=1,
                n_objects=6)
    return {"cells": cells, "warmup": warm,
            "specs": page_specs(PAGES, OBJECTS)}


def run_cell(cell):
    from repro.perf.pageload import run_pageload_cell

    return run_pageload_cell(
        stack=cell.stack, policy=cell.policy, grid=cell.grid,
        pages=cell.pages, waves=WAVES, n_objects=cell.n_objects,
        seed=CELL_SEED, rate_bps=cell.rate_bps, delay=cell.delay,
        horizon=HORIZON)


def check_cell(cell, result, specs):
    """Per-page outcomes of one cell: ``[(page, failure or None)]``."""
    objects = sum(len(graph) for graph, _size in specs)
    total = sum(size for _graph, size in specs)
    depth = min(checks.dependency_depth(graph) for graph, _size in specs)
    floor = depth * 2.0 * cell.delay
    failure = checks.check_page_cell(result, cell.pages, objects, total,
                                     floor)
    return [("%s/page%d" % (cell.name, i), failure)
            for i in range(cell.pages)]


def warmup(inputs):
    run_cell(inputs["warmup"])


def run_round(inputs):
    result = checks.Round()
    outcomes = []
    t0 = time.perf_counter()
    for cell in inputs["cells"]:
        outcomes.append((cell, run_cell(cell)))
    result.wall_s = time.perf_counter() - t0
    for cell, out in outcomes:
        for name, failure in check_cell(cell, out, inputs["specs"]):
            result.op(name, failure)
        result.goodput_bytes += out["bytes"]
        if cell.stack == "tcpls":
            result.latency_ms.extend(p * 1e3 for p in out["plt_samples"])
    result.goodput_s = result.wall_s
    return result


def details(rounds):
    samples = [t / 1e3 for r in rounds for t in r.latency_ms]
    return {"plt_p50_sim_s": (statistics.median(samples), "s",
                              "n=%d TCPLS pages" % len(samples))}
