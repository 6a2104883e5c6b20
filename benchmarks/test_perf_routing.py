"""Performance benchmark of the routing policy engines.

Run with ``pytest -m perf benchmarks/test_perf_routing.py``.  Re-runs the
``repro bench routing`` measurement — one 100k-pair batch per policy on the
paper's 1728-rank torus / fat tree / dragonfly — and asserts *ratios only*
(robust to machine speed): every policy's geomean slowdown over minimal
routing stays under the ceiling, and the incidence cache's warm/cold
speedup clears its floor.  The ceiling is deliberately loose — UGAL's
chunked greedy pass is inherently ~10-50x a closed-form minimal batch —
and exists to catch accidental quadratic blowups, not to tune constants.

Results are recorded in ``BENCH_routing.json`` at the repo root.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import (
    CACHE_SPEEDUP_TARGET,
    ROUTING_SLOWDOWN_CEILING,
    run_routing_bench,
    write_bench,
)

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_routing.json"


class TestRoutingThroughput:
    def test_slowdown_ceiling_and_cache_speedup(self):
        data = run_routing_bench(ranks=1728, pairs=100_000)
        write_bench(BENCH_PATH, data)

        summary = data["summary"]
        for name, slowdown in summary["slowdown_vs_minimal"].items():
            assert slowdown <= ROUTING_SLOWDOWN_CEILING, (
                f"{name}: geomean {slowdown}x over minimal exceeds "
                f"ceiling {ROUTING_SLOWDOWN_CEILING}x"
            )
        assert summary["cache_speedup"] >= CACHE_SPEEDUP_TARGET, summary
