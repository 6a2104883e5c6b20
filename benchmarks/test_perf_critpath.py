"""Critical-path gates (``pytest -m perf``).

Two assertions measured by :func:`repro.bench.run_critpath_bench` and
recorded in ``BENCH_critpath.json`` at the repo root:

1. **Matcher speedup** — the vectorized channel-sort FIFO matcher must
   beat the pinned per-event oracle by at least
   :data:`repro.bench.CRITPATH_MATCH_SPEEDUP_TARGET` on the
   exactly-expanded 1728-rank AMG trace, while producing a bit-identical
   (send, recv, bytes) edge set.  Identity is deterministic; the speedup
   is a same-machine ratio, never a wall time compared across machines.
2. **Sensitivity cross-check** — on every registry app's smallest
   configuration, the algebraic dT/dL (L-terms on the critical path) must
   agree with a forward finite difference within
   :data:`repro.bench.CRITPATH_SENSITIVITY_REL_TOL`.  With the dyadic
   default LogGP parameters the DP is exact arithmetic, so the observed
   disagreement is exactly zero.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import (
    CRITPATH_MATCH_SPEEDUP_TARGET,
    CRITPATH_SENSITIVITY_REL_TOL,
    run_critpath_bench,
    write_bench,
)

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_critpath.json"


class TestCritpathGates:
    @pytest.fixture(scope="class")
    def bench(self):
        data = run_critpath_bench()
        write_bench(BENCH_PATH, data)
        return data

    def test_workload_is_the_benchmark_regime(self, bench):
        # The paper's largest AMG configuration, exactly expanded.
        assert bench["matcher"]["events"] >= 5_000_000
        assert bench["matcher"]["pairs"] >= 2_500_000

    def test_matcher_edge_sets_bit_identical(self, bench):
        assert bench["summary"]["edges_identical"]

    def test_matcher_speedup(self, bench):
        s = bench["summary"]
        assert s["match_speedup"] >= CRITPATH_MATCH_SPEEDUP_TARGET, (
            f"vectorized matcher {bench['matcher']['vectorized_seconds']}s "
            f"vs oracle {bench['matcher']['oracle_seconds']}s: "
            f"{s['match_speedup']}x, "
            f"target >= {CRITPATH_MATCH_SPEEDUP_TARGET}x"
        )

    def test_sensitivity_matches_finite_difference(self, bench):
        s = bench["summary"]
        worst = max(
            bench["sensitivity"]["apps"], key=lambda a: a["rel_err"]
        )
        assert s["sensitivity_max_rel_err"] <= CRITPATH_SENSITIVITY_REL_TOL, (
            f"{worst['app']}@{worst['ranks']}: algebraic {worst['l_terms']} "
            f"vs finite difference {worst['fd_sensitivity']} "
            f"(rel err {worst['rel_err']:.3g})"
        )

    def test_every_registry_app_covered(self, bench):
        from repro.apps.registry import APPS

        covered = {a["app"] for a in bench["sensitivity"]["apps"]}
        assert covered == set(APPS)
