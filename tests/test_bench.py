"""The ``repro bench`` gate registry: pinned bounds, evaluation, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import bench
from repro.bench import BENCHES, Bench, Gate, evaluate_gates, render_bench
from repro.cli import main

#: (target, gate, op, bound, timing) — loosening a bound must edit this table.
GATES = [
    ("collectives", "flat_identity", "==", True, False),
    ("collectives", "every_app_covered", "==", True, False),
    ("collectives", "bytes_ratio", ">=", 1.5, False),
    ("collectives", "hops_delta_rel", ">=", 0.10, False),
    ("critpath", "events", ">=", 5_000_000, False),
    ("critpath", "pairs", ">=", 2_500_000, False),
    ("critpath", "edges_identical", "==", True, False),
    ("critpath", "match_speedup", ">=", 5.0, True),
    ("critpath", "sensitivity_max_rel_err", "<=", 0.01, False),
    ("critpath", "every_app_covered", "==", True, False),
    ("pipeline", "configs", ">=", 10, False),
    ("pipeline", "front_end_geomean_speedup", ">=", 5.0, True),
    ("pipeline", "greedy_speedup", ">=", 3.0, True),
    ("pipeline", "refine_speedup", ">=", 3.0, True),
    ("routing", "max_slowdown_vs_minimal", "<=", 200.0, True),
    ("routing", "cache_speedup", ">=", 5.0, True),
    ("scale", "ranks", "==", 262_144, False),
    ("scale", "rows", ">", 262_144, False),
    ("scale", "pairs", ">", 262_144, False),
    ("scale", "rss_ratio", "<=", 1.0, False),
    ("sim", "packets", ">=", 500_000, False),
    ("sim", "engines_identical", "==", True, False),
    ("sim", "batched_speedup", ">=", 10.0, True),
    ("sim", "table3_labels_identical", "==", True, False),
    ("sim", "table3_warm_speedup", ">=", 3.0, True),
    ("sweep", "cells", "==", 216, False),
    ("sweep", "apps", "==", 6, False),
    ("sweep", "records_identical", "==", True, False),
    ("sweep", "warm_speedup", ">=", 5.0, True),
    ("sweep", "affinity_minus_random_hit_rate", ">", 0.0, True),
    ("telemetry", "packets", ">=", 500_000, False),
    ("telemetry", "null_overhead", "<=", 1.05, True),
    ("telemetry", "windowed_overhead", "<=", 1.20, True),
    ("telemetry", "ugal_minus_minimal_longest_s", "<", 0.0, False),
    ("tenancy", "packets", ">=", 500_000, False),
    ("tenancy", "victim_load_reduction", ">=", 2.0, False),
    ("tenancy", "solo_identity", "==", True, False),
]


def test_registry_matches_pinned_table():
    got = [
        (target, g.name, g.op, g.bound, g.timing)
        for target, b in BENCHES.items()
        for g in b.gates
    ]
    assert got == GATES
    # == alone would let 1 stand in for True, or 5 for 5.0.
    assert [type(g[3]) for g in got] == [type(g[3]) for g in GATES]


@pytest.mark.parametrize(
    "op, bound, passing, failing",
    [
        (">=", 2.0, 2.0, 1.999),
        (">", 2.0, 2.001, 2.0),
        ("<=", 2.0, 2.0, 2.001),
        ("<", 2.0, 1.999, 2.0),
        ("==", 2.0, 2.0, 2.001),
        ("==", True, True, False),
    ],
)
def test_evaluate_each_op(op, bound, passing, failing):
    gate = Gate("g", lambda d: d["v"], op, bound)
    (ok,) = evaluate_gates([gate], {"v": passing})
    (bad,) = evaluate_gates([gate], {"v": failing})
    assert ok == {
        "name": "g", "value": passing, "op": op, "bound": bound,
        "timing": False, "passed": True,
    }
    assert bad["passed"] is False


@pytest.mark.parametrize("op", [">=", ">", "<=", "<", "=="])
def test_missing_value_fails(op):
    (result,) = evaluate_gates([Gate("g", lambda d: None, op, 0.0)], {})
    assert result["passed"] is False


@pytest.mark.parametrize("timing, code", [(False, 1), (True, 0)])
def test_exit_code_follows_non_timing_gates(monkeypatch, tmp_path, capsys, timing, code):
    fake = Bench(
        run=lambda: {"x": 1},
        gates=(
            Gate("holds", lambda d: d["x"], "==", 1),
            Gate("broken", lambda d: d["x"], ">", 1, timing),
        ),
    )
    monkeypatch.setitem(bench.BENCHES, "fake", fake)
    out_path = tmp_path / "BENCH_fake.json"
    assert main(["bench", "fake", "--out", str(out_path)]) == code
    out = capsys.readouterr().out
    assert "x 1" in out.splitlines()
    broken = next(line for line in out.splitlines() if line.startswith("broken"))
    assert "FAILED" in broken
    assert ("(timing)" in broken) is timing
    gates = json.loads(out_path.read_text())["gates"]
    assert [(g["name"], g["passed"], g["timing"]) for g in gates] == [
        ("holds", True, False),
        ("broken", False, timing),
    ]


def test_options_reach_the_run_function(monkeypatch, tmp_path):
    seen = {}

    def run(rlimit_gb):
        seen["rlimit_gb"] = rlimit_gb
        return {}

    monkeypatch.setitem(
        bench.BENCHES, "fake", Bench(run, (), options=("rlimit_gb",))
    )
    out = str(tmp_path / "BENCH_fake.json")
    assert main(["bench", "fake", "--rlimit-gb", "4", "--out", out]) == 0
    assert seen == {"rlimit_gb": 4.0}


def _leaves(node, path=()):
    if isinstance(node, dict):
        return [leaf for k, v in node.items() for leaf in _leaves(v, path + (str(k),))]
    if isinstance(node, list):
        return [leaf for i, v in enumerate(node) for leaf in _leaves(v, path + (str(i),))]
    return [(".".join(path), node)]


@pytest.mark.parametrize("target", list(BENCHES))
def test_render_lists_every_scalar_leaf(target):
    """The committed artifact prints one ``path value`` line per scalar
    leaf, in artifact order, and nothing for its ``gates`` list."""
    root = Path(__file__).resolve().parent.parent
    data = json.loads((root / f"BENCH_{target}.json").read_text())
    assert data["gates"]
    leaves = _leaves({k: v for k, v in data.items() if k != "gates"})
    lines = render_bench(data).splitlines()
    assert lines == [f"{path} {value}" for path, value in leaves]
    assert not any(line.startswith("gates") for line in lines)
