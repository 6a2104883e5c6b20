"""Detection power of the benchmark's output checks, and its metric list.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Each check is shown to pass on a real output and to count a corrupted copy
of that output as a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import repro  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402


def _check(name, inputs, ops, expected=None):
    w = WORKLOADS[name]
    digests = [None if op is None else digest(op) for op in ops]
    return w.check(inputs, ops, digests, expected)


def _failed(reasons):
    return sum(1 for r in reasons if r)


def test_table3_corrupted_row_fails():
    from repro.analysis.tables import build_table3_row

    row = build_table3_row(repro.generate_trace("LULESH", 64))
    inputs = {"labels": [row.label]}
    expected = [digest(row)]
    assert _failed(_check("table3_cold", inputs, [row], expected)) == 0
    torus = row.network["torus3d"]
    bad = dataclasses.replace(
        row,
        network={**row.network, "torus3d": dataclasses.replace(
            torus, packet_hops=torus.packet_hops + 1)},
    )
    assert _failed(_check("table3_cold", inputs, [bad], expected)) == 1
    # Without a reference for the seed the invariants still catch nonsense.
    broken = dataclasses.replace(
        row,
        network={**row.network, "torus3d": dataclasses.replace(torus, packet_hops=0)},
    )
    assert _failed(_check("table3_cold", inputs, [broken])) == 1
    assert _failed(_check("table3_cold", inputs, [None])) == 1


def test_dumpi_corrupted_matrix_fails(tmp_path):
    inputs = WORKLOADS["dumpi_ingest"].setup(0, tmp_path)
    keys = inputs["keys"][:2]
    inputs = {**inputs, "keys": keys, "refs": inputs["refs"][:2]}
    outputs = WORKLOADS["dumpi_ingest"].run(inputs)
    ops = WORKLOADS["dumpi_ingest"].ops(inputs, outputs)
    assert _failed(_check("dumpi_ingest", inputs, ops)) == 0
    p2p, full, metrics = outputs["results"][0]
    nbytes = full.nbytes.copy()
    nbytes[0] += 1
    outputs["results"][0] = (p2p, dataclasses.replace(full, nbytes=nbytes), metrics)
    ops = WORKLOADS["dumpi_ingest"].ops(inputs, outputs)
    assert _failed(_check("dumpi_ingest", inputs, ops)) == 1


def test_critpath_fd_mismatch_and_shape_fail():
    from repro.critpath import CritPathAnalysis

    good = CritPathAnalysis(
        app="AMG", ranks=216, topology="Torus3D", routing="minimal",
        nodes=10, edges=12, msg_edges=5, makespan_s=1.0, l_terms=3,
        sensitivity=3.0, fd_sensitivity=3.0, tolerance_s=0.01 / 3,
    )
    inputs = {"expected": {"nodes": 10, "msg_edges": 5, "edges": 12}}
    assert _failed(_check("critpath_amg216", inputs, [good])) == 0
    off_by_ulp = dataclasses.replace(good, fd_sensitivity=3.0000000000000004)
    assert _failed(_check("critpath_amg216", inputs, [off_by_ulp])) == 1
    lost_edge = dataclasses.replace(good, edges=11)
    assert _failed(_check("critpath_amg216", inputs, [lost_edge])) == 1


def test_sweep_corrupted_record_fails():
    from repro.analysis.sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        apps=(("LULESH", 64),), topologies=("torus3d",), telemetry=True,
        sim_volume_scale=64,
    )
    records = run_sweep(spec)
    inputs = {"spec": spec}
    expected = [digest(r) for r in records]
    assert _failed(_check("whatif_sweep", inputs, records, expected)) == 0
    bad = [{**records[0], "makespan_inflation": records[0]["makespan_inflation"] + 1e-9}]
    assert _failed(_check("whatif_sweep", inputs, bad, expected)) == 1
    assert _failed(_check("whatif_sweep", inputs, [None], expected)) == 1


def test_tally_counts_failures_and_nondeterminism():
    def result(reasons, digests):
        return {"reasons": reasons, "digests": digests, "error": None}

    passes = [
        result(["", ""], ["a", "b"]),
        result(["", "digest differs from reference"], ["a", "x"]),
        result(["", ""], ["a", "c"]),
    ]
    attempted, failed, failures = run.tally(passes)
    assert (attempted, failed) == (6, 2)
    assert {(f["pass"], f["op"]) for f in failures} == {(1, 1), (2, 1)}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(WORKLOADS)


def test_traced_self_times_sum_to_wall():
    from tracer import Tracer, install, summarize

    tracer = Tracer()
    assert install(tracer) > 20
    root = tracer.open("pass", "pass")
    repro.analysis.tables.build_table3(max_ranks=27)
    tracer.close(root)
    layers = summarize(tracer, root)
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert total + layers["unattributed_s"] == pytest.approx(layers["trace.wall_s"], abs=1e-9)
    assert layers["analysis.calls"] == 1
    assert layers["model.calls"] > 0 and layers["routing.self_s"] > 0
