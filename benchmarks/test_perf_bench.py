"""Every ``repro bench`` target and every one of its gates (``pytest -m perf``).

Run with ``pytest -m perf benchmarks/test_perf_bench.py``.  Each target in
:data:`repro.bench.BENCHES` is measured once, its ``BENCH_<target>.json``
is rewritten at the repo root, and all its gates are asserted — timing
gates included.  ``repro bench`` itself fails only on non-timing gates,
because same-machine speed ratios are unreliable on shared runners.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import BENCHES, run_bench, write_bench

pytestmark = pytest.mark.perf

ROOT = Path(__file__).resolve().parent.parent

#: Hard address-space cap for the scale subprocess: twice the RSS budget
#: (interpreter text, guard pages and allocator slack live in virtual
#: memory that never becomes resident).
OPTIONS = {"scale": {"rlimit_gb": 4.0}}


@pytest.mark.parametrize("target", list(BENCHES))
def test_bench_gates(target):
    data = run_bench(target, **OPTIONS.get(target, {}))
    write_bench(ROOT / f"BENCH_{target}.json", data)
    failed = [g for g in data["gates"] if not g["passed"]]
    assert not failed, f"{target}: {failed}"
