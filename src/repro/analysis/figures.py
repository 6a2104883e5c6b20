"""Figure data builders: Figures 1, 3, 4, and 5 of the paper.

Figures are returned as plain data series (NumPy arrays in dataclasses) so
they can be printed as text, asserted in tests, or plotted by downstream
tooling; this library deliberately has no plotting dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..apps.registry import iter_configurations
from ..cache import cached_matrix, cached_trace
from ..mapping.multicore import DEFAULT_CORES, MulticorePoint, multicore_sweep
from ..metrics.selectivity import mean_selectivity_curve, partner_volumes

__all__ = [
    "Figure1Series",
    "build_figure1",
    "SelectivityCurve",
    "build_figure3",
    "build_figure4",
    "MulticoreSeries",
    "build_figure5",
    "FIGURE5_MIN_RANKS",
    "render_curves",
]


# ---------------------------------------------------------------- Figure 1


@dataclass(frozen=True)
class Figure1Series:
    """Per-partner volume of one rank, sorted descending (Figure 1)."""

    app: str
    ranks: int
    rank: int
    volumes: np.ndarray  # int64, descending

    @property
    def cumulative_share(self) -> np.ndarray:
        total = self.volumes.sum()
        return np.cumsum(self.volumes) / total if total else np.zeros(0)


def build_figure1(
    app: str = "LULESH", ranks: int = 64, rank: int = 0, seed: int = 0
) -> Figure1Series:
    """The paper's illustration: LULESH rank 0 partner volumes."""
    if not 0 <= rank < ranks:
        raise ValueError(f"rank {rank} out of range for {ranks} ranks")
    trace = cached_trace(app, ranks, seed=seed)
    matrix = cached_matrix(trace, include_collectives=False)
    return Figure1Series(app, ranks, rank, partner_volumes(matrix, rank))


# ---------------------------------------------------------- Figures 3 & 4


@dataclass(frozen=True)
class SelectivityCurve:
    """Mean cumulative-share curve of one configuration (Figures 3/4)."""

    app: str
    ranks: int
    variant: str
    curve: np.ndarray  # float64, cumulative share per sorted partner count

    @property
    def label(self) -> str:
        base = f"{self.app}@{self.ranks}"
        return f"{base}/{self.variant}" if self.variant else base

    def partners_for_share(self, share: float = 0.9) -> int:
        """x-position where the curve crosses ``share`` (the selectivity)."""
        idx = np.searchsorted(self.curve, share - 1e-9)
        return int(idx) + 1 if idx < len(self.curve) else len(self.curve)


def build_figure3(
    max_ranks: int | None = None, max_partners: int | None = 64, seed: int = 0
) -> list[SelectivityCurve]:
    """Selectivity trends for all workloads with p2p traffic (Figure 3)."""
    curves = []
    for app, point in iter_configurations(max_ranks=max_ranks):
        if point.p2p_share == 0.0:
            continue  # all-collective apps have no selectivity curve
        trace = cached_trace(app.name, point.ranks, variant=point.variant, seed=seed)
        matrix = cached_matrix(trace, include_collectives=False)
        curve = mean_selectivity_curve(matrix, max_partners=max_partners)
        curves.append(SelectivityCurve(app.name, point.ranks, point.variant, curve))
    return curves


def build_figure4(
    app: str = "AMG", max_partners: int | None = 32, seed: int = 0
) -> list[SelectivityCurve]:
    """Selectivity scaling with rank count for one app (Figure 4: AMG)."""
    from ..apps.registry import get_app

    application = get_app(app)
    curves = []
    for ranks in application.scales():
        trace = cached_trace(app, ranks, seed=seed)
        matrix = cached_matrix(trace, include_collectives=False)
        curve = mean_selectivity_curve(matrix, max_partners=max_partners)
        curves.append(SelectivityCurve(app, ranks, "", curve))
    return curves


# ---------------------------------------------------------------- Figure 5


#: The paper only sweeps configurations with at least 512 ranks (§6.1).
FIGURE5_MIN_RANKS = 512


@dataclass(frozen=True)
class MulticoreSeries:
    """Relative inter-node traffic vs cores/socket for one configuration."""

    app: str
    ranks: int
    variant: str
    points: list[MulticorePoint]

    @property
    def label(self) -> str:
        base = f"{self.app}@{self.ranks}"
        return f"{base}/{self.variant}" if self.variant else base

    @property
    def relative(self) -> np.ndarray:
        return np.array([p.relative_traffic for p in self.points])


def build_figure5(
    min_ranks: int = FIGURE5_MIN_RANKS,
    max_ranks: int | None = None,
    cores: tuple[int, ...] = DEFAULT_CORES,
    seed: int = 0,
) -> list[MulticoreSeries]:
    """Inter-node traffic scaling for all large configurations (Figure 5).

    Includes point-to-point *and* collective traffic, per the paper.
    """
    series = []
    seen: set[tuple[str, int]] = set()
    for app, point in iter_configurations(max_ranks=max_ranks):
        if point.ranks < min_ranks or (app.name, point.ranks) in seen:
            continue
        seen.add((app.name, point.ranks))
        trace = cached_trace(app.name, point.ranks, variant=point.variant, seed=seed)
        matrix = cached_matrix(trace)  # both traffic classes
        series.append(
            MulticoreSeries(
                app.name, point.ranks, point.variant, multicore_sweep(matrix, cores)
            )
        )
    return series


def render_curves(curves: list[SelectivityCurve], share: float = 0.9) -> str:
    """Text rendering of selectivity curves: the 90% crossing per workload."""
    header = f"{'Workload':<28} {'partners@90%':>12}  curve head (top-8 shares)"
    lines = [header, "-" * len(header)]
    for c in curves:
        head = " ".join(f"{v:.2f}" for v in c.curve[:8])
        lines.append(f"{c.label:<28} {c.partners_for_share(share):>12d}  {head}")
    return "\n".join(lines)
