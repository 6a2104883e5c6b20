"""Memory gate for the out-of-core streaming pipeline.

Run with ``pytest -m perf benchmarks/test_perf_scale.py``.  Re-runs the
``repro bench scale`` measurement — a 262,144-rank ``ScaleHalo3D`` trace
streamed through chunked generation, incremental traffic-matrix
accumulation, and the §4.1.1 locality metrics, inside a fresh subprocess
whose address space is capped with ``resource.setrlimit`` — and asserts
the measured peak RSS stays under the fixed 2 GB budget.  The gate is a
*memory ratio*, portable across machines in a way wall times are not.

Results are recorded in ``BENCH_scale.json`` at the repo root.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import (
    SCALE_RANKS,
    SCALE_RSS_BUDGET_MB,
    run_scale_bench,
    write_bench,
)

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_scale.json"

#: Hard address-space cap for the measured subprocess: twice the RSS
#: budget (interpreter text, guard pages, and allocator slack live in
#: virtual memory that never becomes resident).
RLIMIT_GB = 4.0


class TestScaleStreaming:
    def test_quarter_million_ranks_within_rss_budget(self):
        data = run_scale_bench(
            ranks=SCALE_RANKS,
            budget_mb=SCALE_RSS_BUDGET_MB,
            rlimit_gb=RLIMIT_GB,
        )
        write_bench(BENCH_PATH, data)

        summary = data["summary"]
        scale = data["scale"]
        assert scale["ranks"] == SCALE_RANKS
        assert scale["rows"] > SCALE_RANKS  # 6-stencil halo + allreduce
        assert scale["pairs"] > SCALE_RANKS
        ratio = summary["rss_ratio"]
        assert ratio is not None, "peak RSS not measurable on this platform"
        assert ratio <= summary["rss_ratio_ceiling"], (
            f"streaming pipeline peaked at {summary['peak_rss_mb']:.0f} MB "
            f"RSS at {SCALE_RANKS} ranks; budget {SCALE_RSS_BUDGET_MB:.0f} MB "
            f"(ratio {ratio:.3f}, ceiling {summary['rss_ratio_ceiling']})"
        )
