"""Multi-tenant gates (``pytest -m perf``).

Two assertions measured by :func:`repro.bench.run_tenancy_bench` and
recorded in ``BENCH_tenancy.json`` at the repo root:

1. **Victim-load reduction** — under a hot-spot aggressor flooding 16
   targets of a 1056-node dragonfly, ``interference_aware`` routing primed
   with the victim's own structural link loads must cut the victim's peak
   exposed link load by at least
   :data:`repro.bench.TENANCY_VICTIM_LOAD_REDUCTION_TARGET` versus minimal
   routing.  Both numbers are deterministic route counts, not wall times.
2. **Solo identity** — composing a single job with zero noise must stay
   bit-identical to the solo run (trace, compared simulation observables,
   per-link serve counts, windowed telemetry) on both engines.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import (
    TENANCY_VICTIM_LOAD_REDUCTION_TARGET,
    run_tenancy_bench,
    write_bench,
)

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_tenancy.json"


class TestTenancyGates:
    @pytest.fixture(scope="class")
    def bench(self):
        data = run_tenancy_bench()
        write_bench(BENCH_PATH, data)
        return data

    def test_workload_is_the_benchmark_regime(self, bench):
        assert bench["scenario"]["packets"] >= 500_000

    def test_interference_aware_reduces_victim_peak_load(self, bench):
        s = bench["summary"]
        assert s["victim_load_reduction"] >= TENANCY_VICTIM_LOAD_REDUCTION_TARGET, (
            f"victim peak load {s['victim_peak_load_minimal']:.0f} (minimal) "
            f"vs {s['victim_peak_load_aware']:.0f} (interference_aware): "
            f"{s['victim_load_reduction']}x, "
            f"target >= {TENANCY_VICTIM_LOAD_REDUCTION_TARGET}x"
        )

    def test_composed_single_job_bit_identical(self, bench):
        assert bench["identity"]["trace_identical"]
        for engine, checks in bench["identity"]["engines"].items():
            assert checks["results_equal"], engine
            assert checks["serve_counts_equal"], engine
            assert checks["telemetry_equal"], engine
