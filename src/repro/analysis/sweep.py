"""Generic parameter-sweep harness.

The paper's evaluation is one fixed grid (41 configurations x 3
topologies).  Downstream users usually want *their own* grid — a different
payload, a different bandwidth, an optimized mapping, a custom topology
size.  ``run_sweep`` crosses any subset of those axes and returns flat
records (compatible with :mod:`repro.analysis.export`), so custom studies
are a few lines:

    from repro.analysis.sweep import SweepSpec, run_sweep
    records = run_sweep(SweepSpec(
        apps=[("LULESH", 64), ("AMG", 216)],
        topologies=("torus3d", "fattree"),
        mappings=("consecutive", "bisection"),
        payloads=(1024, 4096),
    ), workers=4)

Traces, matrices, and route incidences are memoized through
:mod:`repro.cache`, so repeated sweeps (and the many points sharing one
app/payload) rebuild nothing.  ``workers=N`` evaluates grid points in
``N`` processes; records are returned in the same deterministic order —
and with identical values — as the sequential run, because every point is
a pure function of the spec.  Points are dispatched in contiguous chunks
so each worker's process-local cache still gets within-app hits.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, fields
from typing import Any, Callable, NamedTuple

from ..cache import cached_mapping, cached_matrix, cached_trace
from ..collectives.registry import COLLECTIVES
from ..mapping.base import Mapping
from ..model.engine import BANDWIDTH_BYTES_PER_S, analyze_network
from ..routing import ROUTINGS
from ..topology.configs import TOPOLOGY_KINDS, build_topology

__all__ = ["Scenario", "SweepSpec", "run_sweep", "unique_points"]

_log = logging.getLogger("repro.sweep")

_MAPPING_METHODS = ("consecutive", "random", "greedy", "spectral", "bisection")


class Scenario(NamedTuple):
    """One grid point: the per-cell value of every axis a point carries.

    A named tuple, so it hashes (duplicate-cell collapse), pickles (process
    pools) and travels to service workers as a plain JSON list.
    """

    app: str
    ranks: int
    payload: int
    topology: str
    mapping: str
    routing: str
    collective: str


def _axis(default: tuple, point: bool = True) -> Any:
    """A spec axis; each :class:`Scenario` carries one value of a ``point`` axis."""
    return field(default=default, metadata={"point": point})


@dataclass(frozen=True)
class SweepSpec:
    """The axes of one sweep.

    ``apps`` are (name, ranks) pairs; the other axes cross-product against
    them.  The point axes expand into :class:`Scenario` fields;
    ``bandwidths`` loops inside each point, and the scalar fields shape
    every point's records.  ``include_collectives`` mirrors the §5
    (False) vs §6 (True) analysis modes.
    """

    apps: tuple[tuple[str, int], ...] = _axis((("LULESH", 64),))
    topologies: tuple[str, ...] = _axis(TOPOLOGY_KINDS)
    mappings: tuple[str, ...] = _axis(("consecutive",))
    payloads: tuple[int, ...] = _axis((4096,))
    bandwidths: tuple[float, ...] = _axis((BANDWIDTH_BYTES_PER_S,), point=False)
    routings: tuple[str, ...] = _axis(("minimal",))
    #: Collective-algorithm engines to cross (``repro.collectives``
    #: registry names); ``flat`` is the paper's expansion.
    collectives: tuple[str, ...] = _axis(("flat",))
    include_collectives: bool = True
    seed: int = 0
    #: Opt-in telemetry axis: when True every point also runs the dynamic
    #: simulator with a windowed collector and merges a compact congestion
    #: summary (peak occupancy, hot windows, region stats) into its records.
    telemetry: bool = False
    telemetry_windows: int = 48
    telemetry_threshold: float = 0.7
    sim_volume_scale: float = 1.0
    #: Opt-in critical-path axis: when True every point also builds the
    #: happens-before DAG under the LogGP cost model and merges the modelled
    #: makespan and network-latency sensitivity (dT/dL) into its records.
    critpath: bool = False
    critpath_max_repeat: int = 64

    def __post_init__(self) -> None:
        if not self.apps:
            raise ValueError("sweep needs at least one (app, ranks) pair")
        for f in fields(self):
            if "point" in f.metadata and not getattr(self, f.name):
                raise ValueError(f"sweep axis {f.name!r} is empty")
        if self.telemetry_windows < 1:
            raise ValueError("telemetry_windows must be >= 1")
        if not 0.0 < self.telemetry_threshold <= 1.0:
            raise ValueError("telemetry_threshold must be in (0, 1]")
        if self.sim_volume_scale <= 0:
            raise ValueError("sim_volume_scale must be positive")
        if self.critpath_max_repeat < 1:
            raise ValueError("critpath_max_repeat must be >= 1")
        for values, known, what in (
            (self.topologies, TOPOLOGY_KINDS, "topologies"),
            (self.mappings, _MAPPING_METHODS, "mapping methods"),
            (self.routings, ROUTINGS, "routing policies"),
            (self.collectives, COLLECTIVES, "collective algorithms"),
        ):
            unknown = set(values) - set(known)
            if unknown:
                raise ValueError(f"unknown {what} {sorted(unknown)}")
        if any(p <= 0 for p in self.payloads):
            raise ValueError("payloads must be positive")
        if any(b <= 0 for b in self.bandwidths):
            raise ValueError("bandwidths must be positive")

    @property
    def num_points(self) -> int:
        """Records the grid spans: one per (point, bandwidth)."""
        return len(self.points()) * len(self.bandwidths)

    def points(self) -> list[Scenario]:
        """The grid in canonical evaluation order (bandwidths loop inside)."""
        return [
            Scenario(app, ranks, payload, topology, mapping, routing, collective)
            for app, ranks in self.apps
            for payload in self.payloads
            for topology in self.topologies
            for mapping in self.mappings
            for routing in self.routings
            for collective in self.collectives
        ]


def unique_points(spec: SweepSpec) -> tuple[list[Scenario], int]:
    """The grid with duplicate cells collapsed, plus the collapsed count.

    Duplicate axis values (``apps=(("LULESH", 64), ("LULESH", 64))``) used
    to evaluate — and record — the same cell twice.  Every consumer
    (:func:`run_sweep` and the job service) expands through this helper, so
    each distinct cell is computed and recorded exactly once, in first-
    occurrence order.  Collapsing emits one warning here — the single
    shared site — so the direct API and the service path (``repro
    submit`` via ``expand_cells``) both surface it.
    """
    seen: set[Scenario] = set()
    points = []
    for point in spec.points():
        if point in seen:
            continue
        seen.add(point)
        points.append(point)
    collapsed = len(spec.points()) - len(points)
    if collapsed:
        _log.warning(
            "sweep: collapsed %d duplicate grid cells (%d unique of %d)",
            collapsed,
            len(points),
            len(points) + collapsed,
        )
    return points, collapsed


def _build_mapping(method: str, matrix, topology, seed: int) -> Mapping:
    if method == "random":
        mapping = Mapping.random(
            matrix.num_ranks, topology.num_nodes, seed=seed
        )
        # Seed-deterministic, so it can carry provenance like cached ones.
        object.__setattr__(
            mapping,
            "_repro_cache_key",
            ("mapping-random", matrix.num_ranks, topology.num_nodes, seed),
        )
        return mapping
    return cached_mapping(matrix, topology, method=method, seed=seed)


def _eval_point(spec: SweepSpec, point: Scenario) -> list[dict[str, Any]]:
    """Evaluate one grid point — a pure function of (spec, point).

    Runs in the parent process for ``workers=1`` and in pool workers
    otherwise; all heavy intermediates go through the process-local
    :mod:`repro.cache`, so points sharing an app/payload rebuild nothing.
    """
    trace = cached_trace(point.app, point.ranks, seed=spec.seed)
    matrix = cached_matrix(
        trace,
        include_collectives=spec.include_collectives,
        payload=point.payload,
        collective=point.collective,
    )
    topology = build_topology(point.topology, point.ranks)
    mapping = _build_mapping(point.mapping, matrix, topology, spec.seed)
    critpath_fields: dict[str, Any] = {}
    if spec.critpath:
        # Independent of payload and bandwidth: computed once per point and
        # merged into every bandwidth record.
        critpath_fields = _critpath_fields(
            spec, trace, topology, mapping, point.routing, point.collective
        )
    records = []
    for bandwidth in spec.bandwidths:
        result = analyze_network(
            matrix,
            topology,
            mapping=mapping,
            execution_time=trace.meta.execution_time,
            bandwidth=bandwidth,
            payload=point.payload,
            routing=point.routing,
            routing_seed=spec.seed,
        )
        record = {
            "app": point.app,
            "ranks": point.ranks,
            "topology": point.topology,
            "mapping": point.mapping,
            "routing": point.routing,
            "collective": point.collective,
            "payload": point.payload,
            "bandwidth": bandwidth,
            "packet_hops": result.packet_hops,
            "avg_hops": round(result.avg_hops, 4),
            "utilization_percent": round(result.utilization_percent, 6),
            "used_links": result.used_links,
        }
        if spec.telemetry:
            record.update(
                _telemetry_fields(
                    spec, matrix, topology, mapping, trace, bandwidth,
                    point.payload, point.routing,
                )
            )
        record.update(critpath_fields)
        records.append(record)
    return records


def _critpath_fields(
    spec: SweepSpec, trace, topology, mapping, routing, collective
) -> dict[str, Any]:
    """Critical-path profile of one grid point under the LogGP model.

    The DAG is memoized per trace content key, so the many points sharing
    one app build it once.  Traces the matcher rejects (or an acyclicity
    failure) degrade to NaN fields rather than sinking the whole sweep —
    ``repro check`` is the tool that diagnoses those.
    """
    from ..critpath import CycleError, MatchError, analyze_trace

    try:
        analysis = analyze_trace(
            trace,
            topology=topology,
            mapping=mapping,
            routing=routing,
            routing_seed=spec.seed,
            max_repeat=spec.critpath_max_repeat,
            fd_check=False,
            collective=collective,
        )
    except (MatchError, CycleError) as exc:
        _log.warning("critpath axis skipped for %s: %s", trace.meta.app, exc)
        return {
            "critical_path_s": float("nan"),
            "latency_sensitivity": float("nan"),
        }
    return {
        "critical_path_s": round(analysis.makespan_s, 9),
        "latency_sensitivity": float(analysis.l_terms),
    }


def _telemetry_fields(
    spec, matrix, topology, mapping, trace, bandwidth, payload, routing
) -> dict[str, Any]:
    """Run the dynamic simulator with telemetry; flatten a compact summary.

    All values are plain floats/ints so records stay picklable for the
    process pool and serializable by :mod:`repro.analysis.export`.
    """
    from ..sim.engine import simulate_network
    from ..telemetry import TelemetryConfig, congestion_summary

    sim = simulate_network(
        matrix,
        topology,
        mapping=mapping,
        execution_time=trace.meta.execution_time,
        bandwidth=bandwidth,
        payload=payload,
        volume_scale=spec.sim_volume_scale,
        seed=spec.seed,
        routing=routing,
        routing_seed=spec.seed,
        telemetry=TelemetryConfig(windows=spec.telemetry_windows),
    )
    fields: dict[str, Any] = {
        "makespan_inflation": round(sim.makespan_inflation, 4),
        "peak_link_busy_fraction": round(sim.peak_link_busy_fraction, 6),
    }
    if sim.telemetry is not None:
        summary = congestion_summary(
            sim.telemetry, topology, threshold=spec.telemetry_threshold
        )
        fields["peak_window_occupancy"] = round(
            sim.telemetry.peak_occupancy, 6
        )
        fields.update(summary.as_dict())
    return fields


def _eval_chunk(
    spec: SweepSpec, chunk: list[Scenario]
) -> list[list[dict[str, Any]]]:
    """Evaluate a contiguous run of grid points in one worker process."""
    return [_eval_point(spec, point) for point in chunk]


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> list[dict[str, Any]]:
    """Evaluate every sweep point; one flat record per (point, bandwidth).

    Duplicate cells within the spec (repeated axis values) are collapsed
    before evaluation — each distinct cell is computed and recorded once,
    with a one-line warning giving the collapsed count.

    ``workers`` > 1 distributes grid points over that many processes — one
    future per contiguous *chunk* of cells rather than one per cell, so the
    executor schedules ``workers`` tasks instead of thousands and same-app
    cells land on one worker whose process-local trace/matrix caches hit.
    Results are deterministic: the record order and every value are
    identical for any worker count (each point is a pure function of the
    spec, and chunks are reassembled in grid order).

    ``progress`` is called as ``progress(done, total)`` in cells — after
    every cell sequentially, after every finished chunk in parallel runs.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    points, _collapsed = unique_points(spec)
    total = len(points)
    if workers == 1 or total <= 1:
        per_point = []
        for i, point in enumerate(points):
            per_point.append(_eval_point(spec, point))
            if progress is not None:
                progress(i + 1, total)
    else:
        chunksize = max(1, -(-total // workers))
        chunks = [points[i : i + chunksize] for i in range(0, total, chunksize)]
        results: list[list[list[dict[str, Any]]] | None] = [None] * len(chunks)
        done = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_eval_chunk, spec, chunk): i
                for i, chunk in enumerate(chunks)
            }
            for future in as_completed(futures):
                i = futures[future]
                results[i] = future.result()
                done += len(chunks[i])
                if progress is not None:
                    progress(done, total)
        per_point = [cell for chunk_result in results for cell in chunk_result]
    return [record for records in per_point for record in records]
