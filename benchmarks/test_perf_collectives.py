"""Collective-engine gates (``pytest -m perf``).

Two assertions measured by :func:`repro.bench.run_collectives_bench` and
recorded in ``BENCH_collectives.json`` at the repo root:

1. **Flat identity** — the flat engine (the paper's collective->p2p
   expansion) must stay bit-identical to the parameterless default on
   every registry app's smallest configuration, and identical again when
   the matrix is rebuilt through the independent per-event expansion path
   (``iter_send_groups`` feeding ``CommMatrixBuilder.add_group``).
   Deterministic, no wall times involved.
2. **Tree locality delta** — on the collective-heavy
   :data:`repro.bench.COLLECTIVES_DELTA_WORKLOAD` the binomial engine
   must inflate expanded collective bytes by at least
   :data:`repro.bench.COLLECTIVES_BYTES_RATIO_FLOOR` over flat while
   moving torus average hops by at least
   :data:`repro.bench.COLLECTIVES_HOPS_DELTA_FLOOR` relative — the
   measurable locality difference the engine axis exists to study.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import (
    COLLECTIVES_BYTES_RATIO_FLOOR,
    COLLECTIVES_HOPS_DELTA_FLOOR,
    run_collectives_bench,
    write_bench,
)

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_collectives.json"


class TestCollectiveGates:
    @pytest.fixture(scope="class")
    def bench(self):
        data = run_collectives_bench()
        write_bench(BENCH_PATH, data)
        return data

    def test_flat_identity_on_every_app(self, bench):
        broken = [
            a["workload"]
            for a in bench["identity"]["apps"]
            if not (a["default_identical"] and a["per_event_identical"])
        ]
        assert bench["summary"]["flat_identity_ok"], (
            f"flat engine diverged from the pinned default on {broken}"
        )

    def test_every_registry_app_covered(self, bench):
        from repro.apps.registry import APPS

        covered = {a["workload"].split("@")[0] for a in bench["identity"]["apps"]}
        assert covered == set(APPS)

    def test_binomial_bytes_ratio(self, bench):
        s = bench["summary"]
        assert s["bytes_ratio"] >= COLLECTIVES_BYTES_RATIO_FLOOR, (
            f"binomial collective bytes only {s['bytes_ratio']}x flat on "
            f"{bench['delta']['workload']}, "
            f"floor {COLLECTIVES_BYTES_RATIO_FLOOR}x"
        )

    def test_binomial_hops_delta(self, bench):
        s = bench["summary"]
        engines = bench["delta"]["engines"]
        assert s["hops_delta_rel"] >= COLLECTIVES_HOPS_DELTA_FLOOR, (
            f"avg hops {engines['flat']['avg_hops']} -> "
            f"{engines['binomial']['avg_hops']} on "
            f"{bench['delta']['workload']}: relative delta "
            f"{s['hops_delta_rel']} under floor "
            f"{COLLECTIVES_HOPS_DELTA_FLOOR}"
        )
