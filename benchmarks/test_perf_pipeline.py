"""Performance benchmark of the columnar trace front-end.

Run with ``pytest -m perf benchmarks/test_perf_pipeline.py``.  Re-runs the
``repro bench pipeline`` measurement — cold ``generate -> matrix`` on every
study configuration with >= 1000 ranks, legacy per-event path vs the
columnar EventBlock path — and asserts the *geometric-mean* speedup ratio
(robust to machine speed).  The geomean is the headline because the floor
is set by configurations whose legacy path is already array-based (the
all-collective apps, where both paths share the same matrix-finalize cost);
the heavyweight configs (AMG@1728) individually clear the target.

Results are recorded in ``BENCH_pipeline.json`` at the repo root.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import (
    FRONT_END_TARGET,
    run_pipeline_bench,
    write_bench,
)

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"

#: The vectorized mapping kernels carry their own floor: they replace
#: per-rank Python loops outright, so no config should fall below this.
MAPPING_TARGET = 3.0


class TestFrontEndSpeedup:
    def test_columnar_front_end_geomean_5x(self):
        data = run_pipeline_bench(min_ranks=1000, mapping=True)
        write_bench(BENCH_PATH, data)

        summary = data["summary"]
        assert summary["configs"] >= 10
        geomean = summary["geomean_front_end_speedup"]
        assert geomean >= FRONT_END_TARGET, (
            f"columnar front-end geomean {geomean:.1f}x vs legacy; "
            f"target {FRONT_END_TARGET:.0f}x "
            f"(min {summary['min_front_end_speedup']:.1f}x across "
            f"{summary['configs']} configs)"
        )

        mapping = data["mapping"]
        assert mapping["greedy_speedup"] >= MAPPING_TARGET, mapping
        assert mapping["refine_speedup"] >= MAPPING_TARGET, mapping
