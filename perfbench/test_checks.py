"""The benchmark's own checks reject corrupted outputs.

Run with ``python3 -m pytest perfbench``.
"""

import hashlib
import json
import os
import sys

import checks
import layers

PAYLOAD = b"F" * 4096


def test_download_passes_and_rejects_corruption():
    good = hashlib.sha256(PAYLOAD).hexdigest()
    assert checks.check_download(good, 4096, PAYLOAD, 1.2, 0.5, 60.0,
                                 1) is None
    truncated = hashlib.sha256(PAYLOAD[:-1]).hexdigest()
    assert "received 4095" in checks.check_download(
        truncated, 4095, PAYLOAD, 1.2, 0.5, 60.0, 1)
    flipped = hashlib.sha256(PAYLOAD[:-1] + b"G").hexdigest()
    assert "differ" in checks.check_download(flipped, 4096, PAYLOAD, 1.2,
                                             0.5, 60.0, 1)
    assert "no failover" in checks.check_download(good, 4096, PAYLOAD, 1.2,
                                                  0.5, 60.0, 0)
    assert "outside" in checks.check_download(good, 4096, PAYLOAD, 0.4,
                                              0.5, 60.0, 1)
    assert "never" in checks.check_download(good, 4096, PAYLOAD, None, 0.5,
                                            60.0, 1)


def test_download_lower_bound_counts_bytes_and_round_trips():
    bound = checks.download_lower_bound(25_000_000 // 8, 25_000_000, 0.010,
                                        3)
    assert abs(bound - (1.0 + 0.060)) < 1e-12


def _cell(pages=2, objects=6, total=600, plts=(0.2, 0.3)):
    return {"pages_completed": pages, "objects_completed": objects,
            "bytes": total, "plt_samples": list(plts)}


def test_page_cell_rejects_missing_page_object_bytes_and_fast_plt():
    assert checks.check_page_cell(_cell(), 2, 6, 600, 0.06) is None
    assert "1 of 2 pages" in checks.check_page_cell(
        _cell(pages=1, plts=(0.2,)), 2, 6, 600, 0.06)
    assert "5 of 6 objects" in checks.check_page_cell(
        _cell(objects=5), 2, 6, 600, 0.06)
    assert "fetched 599" in checks.check_page_cell(
        _cell(total=599), 2, 6, 600, 0.06)
    assert "under the" in checks.check_page_cell(
        _cell(plts=(0.05, 0.3)), 2, 6, 600, 0.06)


def test_dependency_depth_is_the_longest_chain():
    graph = {"html": (), "css": ("html",), "img": ("css",),
             "js": ("html",)}
    assert checks.dependency_depth(graph) == 3
    assert checks.dependency_depth({"html": ()}) == 1


def test_session_and_shard_drain_checks():
    assert checks.check_session(True, 4096, 4096) is None
    assert "never" in checks.check_session(False, 4096, 0)
    assert "4000 of 4096" in checks.check_session(True, 4096, 4000)
    assert checks.check_shard_drained(0, 0, 300, 300) is None
    assert "1 entries" in checks.check_shard_drained(1, 0, 300, 299)
    assert "300 accepts but 299" in checks.check_shard_drained(0, 0, 300,
                                                               299)


def test_fluid_rejects_short_bytes_incomplete_flows_and_unfairness():
    ok = dict(flows=1000, flows_completed=1000, flow_bytes=1_000_000,
              carried_bytes=1_000_000_000, last_completion_s=0.9,
              capacity_bps=10_000_000_000)
    assert checks.check_fluid(**ok) is None
    assert checks.check_fluid(fairness=0.995, **ok) is None
    short = dict(ok, carried_bytes=999_000_000)
    assert "carried 999000000" in checks.check_fluid(**short)
    assert "999 of 1000" in checks.check_fluid(**dict(ok,
                                                      flows_completed=999))
    assert "capacity bound" in checks.check_fluid(**dict(
        ok, last_completion_s=0.7))
    assert "Jain" in checks.check_fluid(fairness=0.9, **ok)


def test_jain_index():
    assert checks.jain([2.0, 2.0, 2.0]) == 1.0
    assert abs(checks.jain([1.0, 0.0]) - 0.5) < 1e-12


def test_echo_and_server_drain_checks():
    assert checks.check_echo(b"abc", b"abc") is None
    assert "2 bytes" in checks.check_echo(b"abc", b"ab")
    assert "differs" in checks.check_echo(b"abc", b"abd")
    assert checks.check_server_drained(0, 0, 8, 8) is None
    assert "7 handshakes" in checks.check_server_drained(0, 0, 7, 8)
    assert "1 entries" in checks.check_server_drained(1, 0, 8, 8)


def test_end_to_end_metrics_from_rounds():
    rounds = []
    for wall in (2.0, 3.0, 4.0):
        r = checks.Round()
        r.wall_s = wall
        r.latency_ms = [1.0, 3.0]
        r.goodput_bytes = 2_000_000
        r.goodput_s = wall
        rounds.append(r)
    metrics = checks.end_to_end(rounds)
    assert metrics["wall_s"] == (3.0, "s")
    assert metrics["latency_ms"] == (2.0, "ms")
    assert metrics["goodput_MBps"] == (2.0 / 3.0, "MB/s")


SRC = os.path.join(os.sep, "checkout", "src")


def _file(*parts):
    return os.path.join(SRC, "repro", *parts)


def test_files_map_to_layers():
    assert layers.layer_of(_file("net", "fluid.py"), SRC) == "net.fluid"
    assert layers.layer_of(_file("net", "link.py"), SRC) == "net"
    assert layers.layer_of(_file("core", "drivers", "multi.py"),
                           SRC) == "core.drivers"
    assert layers.layer_of(_file("core", "engine", "session.py"),
                           SRC) == "core.engine"
    assert layers.layer_of(_file("core", "session.py"), SRC) == "core.engine"
    assert layers.layer_of(_file("qlog", "writer.py"), SRC) == "obs"
    assert layers.layer_of(_file("crypto", "ffdhe.py"), SRC) == "crypto"
    assert layers.layer_of("~", SRC) is None
    assert layers.layer_of(os.path.join(os.sep, "checkout", "perfbench",
                                        "serve.py"), SRC) == layers.OTHER


def test_builtin_time_counts_to_its_callers_layers():
    crypto = (_file("crypto", "ffdhe.py"), 40, "generate")
    tcp = (_file("tcp", "connection.py"), 10, "send")
    pow_ = ("~", 0, "<built-in method builtins.pow>")
    stats = {
        # (cc, nc, tt, ct, callers{caller: (cc, nc, tt, ct)})
        crypto: (2, 2, 0.1, 3.1, {}),
        tcp: (5, 5, 0.5, 1.5, {}),
        pow_: (7, 7, 4.0, 4.0, {crypto: (2, 2, 3.0, 3.0),
                                tcp: (5, 5, 1.0, 1.0)}),
    }
    self_s, calls, modexps = layers.attribute(stats, SRC)
    assert abs(self_s["crypto"] - 3.1) < 1e-6
    assert abs(self_s["tcp"] - 1.5) < 1e-6
    assert calls["crypto"] == 2 and calls["tcp"] == 5
    assert modexps == 2


def test_calls_within_a_layer_do_not_count_as_entries():
    outer = (_file("tcp", "connection.py"), 10, "send")
    inner = (_file("tcp", "buffers.py"), 20, "push")
    net = (_file("net", "link.py"), 30, "enqueue")
    stats = {
        outer: (1, 1, 0.1, 0.6, {}),
        inner: (3, 3, 0.2, 0.2, {outer: (3, 3, 0.2, 0.2)}),
        net: (4, 4, 0.3, 0.3, {outer: (4, 4, 0.3, 0.3)}),
    }
    _self_s, calls, _modexps = layers.attribute(stats, SRC)
    assert calls["tcp"] == 1
    assert calls["net"] == 4


def test_constructor_wrapper_takes_its_callers_layer():
    wrapper = (os.path.abspath(layers.__file__), 100, "__init__")
    maker = (_file("tcp", "stack.py"), 10, "connect")
    ctor = (_file("tcp", "connection.py"), 20, "__init__")
    stats = {
        maker: (1, 1, 0.1, 0.4, {}),
        wrapper: (2, 2, 0.1, 0.3, {maker: (2, 2, 0.1, 0.3)}),
        ctor: (2, 2, 0.2, 0.2, {wrapper: (2, 2, 0.2, 0.2)}),
    }
    self_s, calls, _modexps = layers.attribute(stats, SRC)
    assert calls["tcp"] == 1
    assert abs(self_s["tcp"] - 0.4) < 1e-6


def test_every_per_layer_metric_is_named_once():
    names = [name for name, _unit, _better in layers.per_layer_metrics()]
    assert len(names) == len(set(names)) == 2 * len(layers.LAYERS) + len(
        layers.COUNTERS)
    assert all(name.split(".")[0] in ("net", "tcp", "tls", "crypto", "core",
                                      "obs", "workload", "baselines",
                                      "perf") for name in names)


def test_fixed_form_names_what_the_runner_prints():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        form = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in form["per_layer"]
            ] == layers.per_layer_metrics()
    r = checks.Round()
    r.wall_s = r.goodput_s = 1.0
    r.latency_ms = [1.0]
    printed = {"setup_s": "s", "peak_rss_MB": "MB"}
    printed.update((name, unit) for name, (_value, unit)
                   in checks.end_to_end([r]).items())
    assert {m["name"]: m["unit"] for m in form["end_to_end"]} == printed


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q"]))
