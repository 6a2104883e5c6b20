"""Per-stage wall-clock accounting for study commands.

The CLI's ``--timings`` flag answers "where did the time go?" for any study
command: trace generation, matrix construction, routing, static analysis,
and dynamic simulation are each wrapped in a :func:`stage` block at the
library level, and :func:`summary` renders the per-stage totals at exit.

Stages **nest**: ``analysis`` covers :func:`repro.model.engine.analyze_network`
end to end, which internally spends time in ``routing`` (route-incidence
construction) — nested stage time is charged to both, so the column does not
sum to wall time.  The accounting is disabled by default and adds a single
boolean check per instrumented call when off.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "enable",
    "disable",
    "enabled",
    "reset",
    "stage",
    "as_dict",
    "snapshot",
    "since",
    "summary",
    "peak_rss_bytes",
]

_enabled = False
_totals: dict[str, float] = {}
_counts: dict[str, int] = {}

#: Canonical stage order for the summary (unknown stages append after).
_STAGE_ORDER = ("trace", "matrix", "mapping", "routing", "analysis", "sim")


def enable(reset_counters: bool = True) -> None:
    """Turn stage accounting on (optionally clearing previous totals)."""
    global _enabled
    if reset_counters:
        reset()
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def enabled() -> bool:
    return _enabled


def reset() -> None:
    _totals.clear()
    _counts.clear()


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Charge the wrapped block's wall time to ``name`` (no-op when disabled)."""
    if not _enabled:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        dt = time.perf_counter() - t0
        _totals[name] = _totals.get(name, 0.0) + dt
        _counts[name] = _counts.get(name, 0) + 1


def snapshot() -> dict[str, float]:
    """The current per-stage totals, for later differencing with :func:`since`."""
    return dict(_totals)


def since(snap: dict[str, float]) -> dict[str, float]:
    """Per-stage seconds accumulated after ``snap`` (zero-delta stages omitted).

    The sweep-service workers wrap each cell evaluation in a
    snapshot/since pair, so the server can attribute aggregate time to
    trace/matrix/mapping/routing/analysis stages across all worker
    processes without any extra instrumentation in the library.
    """
    return {
        name: total - snap.get(name, 0.0)
        for name, total in _totals.items()
        if total - snap.get(name, 0.0) > 0.0
    }


def peak_rss_bytes() -> int | None:
    """Lifetime peak resident-set size of this process, in bytes.

    On Linux this is ``VmHWM`` from ``/proc/self/status``, the high-water
    mark of this process's own address space.  Elsewhere it is
    ``resource.getrusage``'s ``ru_maxrss`` (bytes on macOS), which on
    Linux would also carry a parent's peak into a child across ``exec``:
    a subprocess started by a 2 GB process would report 2 GB.  Either
    counter never goes down, so a clean measurement of one workload needs
    a fresh process — the scale bench runs its pipeline in a subprocess
    for exactly that reason.  Returns ``None`` on platforms with neither.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024  # reported in kB
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - Linux CI
        return int(maxrss)
    return int(maxrss) * 1024


def as_dict() -> dict[str, dict[str, float]]:
    """Per-stage totals: ``{stage: {"seconds": ..., "calls": ...}}``."""
    return {
        name: {"seconds": _totals[name], "calls": float(_counts[name])}
        for name in _ordered_stages()
    }


def _ordered_stages() -> list[str]:
    known = [s for s in _STAGE_ORDER if s in _totals]
    extra = sorted(s for s in _totals if s not in _STAGE_ORDER)
    return known + extra


def summary() -> str:
    """Human-readable per-stage breakdown (empty string if nothing timed)."""
    stages = _ordered_stages()
    if not stages:
        return "timings: no instrumented stages ran"
    lines = [
        "per-stage timings (stages nest; columns do not sum to wall time)",
        f"{'stage':<12} {'calls':>7} {'seconds':>10} {'ms/call':>10}",
        "-" * 42,
    ]
    for name in stages:
        secs = _totals[name]
        calls = _counts[name]
        lines.append(
            f"{name:<12} {calls:>7d} {secs:>10.3f} {1e3 * secs / calls:>10.3f}"
        )
    peak = peak_rss_bytes()
    if peak is not None:
        lines.append(f"peak RSS: {peak / (1024 * 1024):.1f} MB (process lifetime)")
    return "\n".join(lines)
