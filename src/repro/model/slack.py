"""Bandwidth-slack analysis (the paper's §7 proposal, made concrete).

The discussion section suggests "operating at lower throughput, as reducing
the operating frequency should super-linearly decrease power consumption",
and differentiating link speeds — "operating links with higher utilization,
such as global links in dragonflies, at a higher bandwidth than the
seldomly used local links".

This module computes the enabling quantity: per-link **bandwidth slack** —
the factor by which a link's bandwidth could be reduced before transmitting
its offered load would take longer than the traced execution time.  A link
whose utilization is u can be slowed by 1/u before it saturates; combined
with a power ~ bandwidth^alpha model this bounds the per-link energy
saving, and the distribution across links quantifies the heterogeneous
provisioning the paper proposes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..comm.matrix import CommMatrix
from ..mapping.base import Mapping
from ..routing.base import RoutingPolicy
from ..topology.base import Topology
from ..topology.dragonfly import Dragonfly
from .engine import BANDWIDTH_BYTES_PER_S
from .linkload import link_loads

__all__ = ["SlackReport", "bandwidth_slack"]


@dataclass(frozen=True)
class SlackReport:
    """Per-link bandwidth headroom of one configuration.

    ``slack[i]`` is how many times slower ``link_ids[i]`` could run while
    still moving its offered bytes within the execution time (>= 1 means
    the link keeps up even when slowed; the busiest link has the smallest
    slack).
    """

    link_ids: np.ndarray
    slack: np.ndarray  # float64, same order
    execution_time: float
    bandwidth: float
    global_link_mask: np.ndarray | None = None  # dragonfly only

    @property
    def num_links(self) -> int:
        return len(self.link_ids)

    @property
    def min_slack(self) -> float:
        """Headroom of the busiest link — bounds a uniform slow-down."""
        return float(self.slack.min()) if self.num_links else float("inf")

    @property
    def median_slack(self) -> float:
        return float(np.median(self.slack)) if self.num_links else float("inf")

    def uniform_power_saving(self, alpha: float = 2.0) -> float:
        """Fractional power saving from slowing *all* links by the busiest
        link's slack (power ~ bandwidth**alpha)."""
        s = self.min_slack
        if not np.isfinite(s) or s <= 1.0:
            return 0.0
        return 1.0 - s**-alpha

    def per_link_power_saving(self, alpha: float = 2.0) -> float:
        """Mean fractional saving when every link is individually slowed to
        its own slack — the heterogeneous provisioning the paper proposes."""
        if not self.num_links:
            return 0.0
        clamped = np.maximum(self.slack, 1.0)
        return float(np.mean(1.0 - clamped**-alpha))

    def global_vs_local_slack(self) -> tuple[float, float] | None:
        """Median slack of (global, local+node) links on a dragonfly.

        The paper predicts global links have the least slack (they carry
        most traffic) and local links the most.
        """
        if self.global_link_mask is None:
            return None
        g = self.slack[self.global_link_mask]
        l = self.slack[~self.global_link_mask]
        if len(g) == 0 or len(l) == 0:
            return None
        return float(np.median(g)), float(np.median(l))


def bandwidth_slack(
    matrix: CommMatrix,
    topology: Topology,
    execution_time: float,
    mapping: Mapping | None = None,
    bandwidth: float = BANDWIDTH_BYTES_PER_S,
    routing: str | RoutingPolicy = "minimal",
    routing_seed: int = 0,
) -> SlackReport:
    """Compute per-link bandwidth slack for one configuration.

    slack(link) = execution_time / (offered_bytes / bandwidth): the ratio of
    available time to busy time at full speed, i.e. 1 / utilization of that
    link.  ``routing`` selects the :mod:`repro.routing` policy carrying the
    traffic; non-minimal policies spread load differently and so change
    which links have the least slack.
    """
    if execution_time <= 0:
        raise ValueError("execution_time must be positive")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    ids, loads = link_loads(matrix, topology, mapping, routing, routing_seed)
    if len(ids) == 0:
        empty = np.zeros(0)
        return SlackReport(
            np.zeros(0, dtype=np.int64), empty, execution_time, bandwidth
        )
    busy = loads / bandwidth
    slack = execution_time / busy

    global_mask = None
    if isinstance(topology, Dragonfly):
        global_mask = topology.is_global_link(ids)

    return SlackReport(ids, slack, execution_time, bandwidth, global_mask)
