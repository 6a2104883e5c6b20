"""Performance gate for the sharded sweep service.

Runs the full prime + measure protocol from :mod:`repro.bench` on the
216-cell reference grid and gates on the ISSUE-7 targets: a warm sharded
sweep at least 5x faster than a cold serial one, the affinity scheduler
beating random placement on warm-hit rate, and — non-negotiably —
bit-identical records across every mode.  Writes ``BENCH_sweep.json`` at
the repo root (uploaded as a CI artifact) as a side effect.

Run with: PYTHONPATH=src python -m pytest benchmarks/test_perf_sweep.py -m perf -v
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import run_sweep_bench, write_bench

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"


@pytest.fixture(scope="module")
def sweep_bench():
    data = run_sweep_bench()
    write_bench(BENCH_PATH, data)
    return data


class TestSweepServicePerf:
    def test_grid_shape(self, sweep_bench):
        summary = sweep_bench["summary"]
        assert summary["cells"] == 216
        assert summary["apps"] == 6

    def test_records_bit_identical_across_modes(self, sweep_bench):
        assert sweep_bench["summary"]["records_identical"], (
            "service records diverged from serial run_sweep (or between "
            "schedulers) — caching/scheduling must not change results"
        )

    def test_warm_sharded_beats_cold_serial(self, sweep_bench):
        summary = sweep_bench["summary"]
        assert summary["warm_speedup"] >= summary["warm_speedup_target"], (
            f"warm sharded sweep {summary['warm_affinity_s']:.2f}s vs cold "
            f"serial {summary['cold_serial_s']:.2f}s = "
            f"{summary['warm_speedup']:.2f}x, below the "
            f"{summary['warm_speedup_target']:.1f}x target"
        )

    def test_affinity_beats_random_on_warm_hits(self, sweep_bench):
        summary = sweep_bench["summary"]
        assert summary["affinity_beats_random"], (
            f"affinity warm-hit rate {summary['affinity_hit_rate']:.4f} did "
            f"not beat random placement {summary['random_hit_rate']:.4f}"
        )
