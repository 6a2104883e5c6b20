"""Application registry: the paper's full workload set, by name.

Iteration order follows the paper's Table 1.  Every generator is
deterministic: ``generate_trace(name, ranks, variant, seed)`` always returns
the same trace for the same arguments.
"""

from __future__ import annotations

from typing import Iterator

from .. import timings
from ..core.trace import Trace
from .amg import AMG
from .amr import AMRMiniapp
from .base import CalibrationPoint, SyntheticApp
from .bigfft import BigFFT
from .boxlib import BoxlibCNS, BoxlibMultiGridC, FillBoundary
from .cesar import MOCFE, Nekbone
from .crystal_router import CrystalRouter
from .exmatex import CMC2D, LULESH
from .minife import MiniFE
from .multigrid_c import MultiGridC
from .noise import HotspotNoise, UniformNoise
from .scalehalo import ScaleHalo3D
from .transport import PARTISN, SNAP

__all__ = [
    "APPS",
    "SCALE_APPS",
    "NOISE_APPS",
    "app_names",
    "get_app",
    "generate_trace",
    "stream_trace",
    "iter_configurations",
    "smallest_configurations",
]

#: All applications in Table-1 order, keyed by name.
APPS: dict[str, SyntheticApp] = {
    app.name: app
    for app in (
        AMG(),
        AMRMiniapp(),
        BigFFT(),
        BoxlibCNS(),
        BoxlibMultiGridC(),
        MOCFE(),
        Nekbone(),
        CrystalRouter(),
        CMC2D(),
        LULESH(),
        FillBoundary(),
        MiniFE(),
        MultiGridC(),
        PARTISN(),
        SNAP(),
    )
}

#: Scaling workloads calibrated out of band from Table 1: resolvable via
#: :func:`get_app` but excluded from :func:`iter_configurations`, so the
#: paper-facing tables and claims never sweep them.
SCALE_APPS: dict[str, SyntheticApp] = {
    app.name: app for app in (ScaleHalo3D(),)
}

#: Background-noise aggressors for multi-tenant composition
#: (:mod:`repro.tenancy`): default-tuned instances resolvable via
#: :func:`get_app`, excluded from :func:`iter_configurations` like the
#: scale tier.  Custom-tuned instances go straight into a
#: :class:`~repro.tenancy.compose.TenantSpec` without registration.
NOISE_APPS: dict[str, SyntheticApp] = {
    app.name: app for app in (UniformNoise(), HotspotNoise())
}


def app_names() -> list[str]:
    """All application names, Table-1 order."""
    return list(APPS)


def get_app(name: str) -> SyntheticApp:
    try:
        return APPS[name]
    except KeyError:
        pass
    try:
        return SCALE_APPS[name]
    except KeyError:
        pass
    try:
        return NOISE_APPS[name]
    except KeyError:
        known = app_names() + list(SCALE_APPS) + list(NOISE_APPS)
        raise KeyError(f"unknown application {name!r}; known: {known}") from None


def generate_trace(
    name: str,
    ranks: int,
    variant: str = "",
    seed: int = 0,
    emit_receives: bool = False,
) -> Trace:
    """Generate one calibrated synthetic trace."""
    with timings.stage("trace"):
        return get_app(name).generate(
            ranks, variant=variant, seed=seed, emit_receives=emit_receives
        )


def stream_trace(
    name: str,
    ranks: int,
    variant: str = "",
    seed: int = 0,
    emit_receives: bool = False,
    chunk_bytes: int | None = None,
):
    """Chunked, re-iterable view of one calibrated synthetic trace.

    Returns a :class:`~repro.core.stream.BlockStream` whose chunks
    concatenate bit-identically to :func:`generate_trace`'s blocks; peak
    memory is bounded by the calibration plan plus one chunk.
    """
    from ..core.stream import DEFAULT_CHUNK_BYTES

    with timings.stage("trace"):
        return get_app(name).stream(
            ranks,
            variant=variant,
            seed=seed,
            emit_receives=emit_receives,
            chunk_bytes=DEFAULT_CHUNK_BYTES if chunk_bytes is None else chunk_bytes,
        )


def iter_configurations(
    max_ranks: int | None = None,
) -> Iterator[tuple[SyntheticApp, CalibrationPoint]]:
    """Every (app, configuration) pair of the study, Table-1 order.

    ``max_ranks`` restricts to small configurations (useful for quick runs
    and tests; the full set peaks at 1728 ranks).
    """
    for app in APPS.values():
        for point in app.configurations():
            if max_ranks is None or point.ranks <= max_ranks:
                yield app, point


def smallest_configurations(max_ranks: int | None = None) -> dict[str, int]:
    """``{app: smallest rank count}`` over non-variant configurations.

    Keys come in Table-1 order; ``max_ranks`` bounds the configurations
    considered, so apps with none in range are absent.
    """
    smallest: dict[str, int] = {}
    for app, point in iter_configurations(max_ranks):
        if not point.variant:
            smallest[app.name] = min(point.ranks, smallest.get(app.name, point.ranks))
    return smallest
