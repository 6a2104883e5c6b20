"""Performance and correctness gates behind ``repro bench``.

Every target lives in one registry, :data:`BENCHES`.  A :class:`Bench`
names the function that measures the target and its gates as data:
``Gate(name, value, op, bound, timing)``, where ``value`` pulls one number
(or flag) out of the measurement.  :func:`run_bench` measures a target and
evaluates its gates into a ``gates`` list stored in the artifact.  A
missing value (``None``, e.g. peak RSS on a platform that cannot measure
it) fails its gate.  Every artifact prints the same way: one line per
scalar leaf (:func:`render_bench`), then the gate table
(:func:`render_gates`).

Timing gates are same-machine speed ratios, asserted only by the perf
suite (``pytest -m perf benchmarks/test_perf_bench.py``); ``repro bench``
prints them but exits non-zero only when a non-timing gate fails, so the
deterministic gates (bit-identities, structural ratios, memory budgets)
can be enforced on shared runners.  Wall times are provenance only.

Each target's run function documents what it measures and why.
"""

from __future__ import annotations

import json
import operator
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from . import timings

__all__ = [
    "BENCHES",
    "Bench",
    "Gate",
    "evaluate_gates",
    "render_bench",
    "render_gates",
    "run_bench",
    "write_bench",
    "run_scale_pipeline",
    "run_scale_bench",
]

#: ``repro bench pipeline`` times every study configuration this large.
PIPELINE_MIN_RANKS = 1000

#: ``repro bench scale``: the workload, its per-chunk byte budget, and the
#: peak-RSS budget the measured ratio divides by.
SCALE_APP = "ScaleHalo3D"
SCALE_RANKS = 262_144
SCALE_CHUNK_MB = 8.0
SCALE_RSS_BUDGET_MB = 2048.0

#: ``repro bench sweep``: persistent workers per service run, and the
#: reference grid's apps — six study apps at their largest common scales,
#: crossed with every topology, three mappings, two payloads and two
#: routing policies (216 cells), heavy on the shared intermediates the
#: service's cache affinity is supposed to monetize.
SWEEP_WORKERS = 2
SWEEP_BENCH_APPS = (
    ("LULESH", 512),
    ("AMG", 216),
    ("BigFFT", 1024),
    ("Nekbone", 256),
    ("CMC_2D", 256),
    ("MOCFE", 256),
)

#: ``repro bench routing``: the scale whose topologies are routed, and the
#: seed of the random pairs and of the randomized policies.
ROUTING_RANKS = 1728
ROUTING_SEED = 0

#: The 500k-packet dragonfly simulation shared by ``sim`` and ``telemetry``.
SIM_EXECUTION_TIME = 1.1e-3
SIM_SEED = 7

#: ``repro bench telemetry``: collector windows and timing rounds.
TELEMETRY_WINDOWS = 48
TELEMETRY_REPEATS = 6

TENANCY_VOLUME_SCALE = 64.0
TENANCY_MAX_PACKETS = 5_000_000

#: The exactly-expanded 1728-rank AMG trace (~5M p2p events).
CRITPATH_MATCH_WORKLOAD = ("AMG", 1728)

#: A collective-heavy workload for the flat-vs-binomial locality delta.
COLLECTIVES_DELTA_WORKLOAD = ("CMC_2D", 64)

_OPS = {"==": operator.eq, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Gate:
    """One asserted property of a bench measurement.

    ``value`` maps the measurement to the gated quantity (``None`` when it
    could not be measured, which fails the gate); the gate passes when
    ``value <op> bound``.  ``timing`` marks same-machine speed ratios.
    """

    name: str
    value: Callable[[dict[str, Any]], Any]
    op: str
    bound: Any
    timing: bool = False


@dataclass(frozen=True)
class Bench:
    """One ``repro bench`` target.

    ``options`` names the ``repro bench`` flags (argparse dests) passed to
    ``run`` as keyword arguments.
    """

    run: Callable[..., dict[str, Any]]
    gates: tuple[Gate, ...]
    options: tuple[str, ...] = ()


def evaluate_gates(
    gates: tuple[Gate, ...] | list[Gate], data: dict[str, Any]
) -> list[dict[str, Any]]:
    """Evaluate ``gates`` on one measurement, as the artifact's gate list."""
    out = []
    for g in gates:
        value = g.value(data)
        passed = value is not None and bool(_OPS[g.op](value, g.bound))
        out.append(
            dict(name=g.name, value=value, op=g.op, bound=g.bound, timing=g.timing, passed=passed)
        )
    return out


def render_bench(data: dict[str, Any]) -> str:
    """One ``dotted.path value`` line per scalar leaf of an artifact, in its
    order, with dict keys and list indices as the path segments.  The
    ``gates`` list is left to :func:`render_gates`."""
    return "\n".join(
        line for key, value in data.items() if key != "gates" for line in _leaves(key, value)
    )


def _leaves(path: str, node: Any) -> Iterator[str]:
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaves(f"{path}.{key}", child)
    else:
        yield f"{path} {node}"


def render_gates(gates: list[dict[str, Any]]) -> str:
    """The shared gate table printed under every artifact's leaf listing."""
    lines = [f"{'gate':<30} {'value':>14}  {'op':<2} {'bound':<12} result"]
    for g in gates:
        result = ("ok" if g["passed"] else "FAILED") + (" (timing)" if g["timing"] else "")
        row = f"{g['name']:<30} {g['value']!s:>14}  {g['op']:<2} {g['bound']!s:<12}"
        lines.append(f"{row} {result}")
    return "\n".join(lines)


def run_bench(target: str, **options: Any) -> dict[str, Any]:
    """Measure one registry target and attach its evaluated ``gates``."""
    bench = BENCHES[target]
    data = bench.run(**options)
    data["gates"] = evaluate_gates(bench.gates, data)
    return data


def write_bench(path: str | Path, data: dict[str, Any]) -> Path:
    """Write one ``repro bench`` record as sorted, indented JSON."""
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def _run_python(code: str, cfg: dict[str, Any], what: str) -> Any:
    """Run ``code`` in a fresh interpreter; it reads ``cfg`` as JSON from
    ``sys.argv[1]`` and writes its JSON result to stdout."""
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(cfg)], capture_output=True, text=True, env=env
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        raise RuntimeError(f"{what} subprocess failed (exit {proc.returncode}):\n{tail}")
    return json.loads(proc.stdout)


def _timed(fn: Callable[..., Any], *args: Any) -> tuple[Any, float]:
    """``fn(*args)`` and its wall time in seconds."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _timed_front_end(name: str, ranks: int, columnar: bool) -> dict[str, float]:
    """Cold generate + matrix builds of one configuration on one path.

    Matches what a Table-3 row consumes from the front-end: the trace, the
    p2p-only matrix (§5 metrics), and the full matrix (topology analyses).
    """
    from .apps import get_app
    from .comm.matrix import matrix_from_trace

    was_enabled = timings.enabled()
    timings.enable(reset_counters=True)
    try:
        with timings.stage("trace"):
            trace = get_app(name).generate(ranks, columnar=columnar)
        matrix_from_trace(trace, include_collectives=False)
        matrix = matrix_from_trace(trace)
        cold = {stage: v["seconds"] for stage, v in timings.as_dict().items()}
        _, warm_matrix = _timed(matrix_from_trace, trace)
    finally:
        if not was_enabled:
            timings.disable()
    return {
        "trace_s": round(cold.get("trace", 0.0), 4),
        "matrix_s": round(cold.get("matrix", 0.0), 4),
        "front_end_s": round(cold.get("trace", 0.0) + cold.get("matrix", 0.0), 4),
        "warm_matrix_s": round(warm_matrix, 4),
        "pairs": matrix.num_pairs,
    }


def _mapping_bench(name: str, ranks: int) -> dict[str, Any]:
    from .apps import get_app
    from .comm.matrix import matrix_from_trace
    from .mapping.base import Mapping
    from .mapping.optimized import (
        _greedy_ordering_reference,
        _refine_mapping_reference,
        greedy_ordering,
        refine_mapping,
    )
    from .topology.fattree import FatTree

    matrix = matrix_from_trace(get_app(name).generate(ranks))
    topology = FatTree(radix=64, stages=2)
    base = Mapping.consecutive(ranks, topology.num_nodes, 1)

    order_fast, greedy_vec = _timed(greedy_ordering, matrix)
    order_ref, greedy_ref = _timed(_greedy_ordering_reference, matrix)
    refined_fast, refine_vec = _timed(refine_mapping, matrix, topology, base)
    refined_ref, refine_ref = _timed(_refine_mapping_reference, matrix, topology, base)

    assert np.array_equal(order_fast, order_ref)
    assert np.array_equal(refined_fast.nodes, refined_ref.nodes)
    return {
        "config": f"{name}@{ranks}",
        "greedy_reference_s": round(greedy_ref, 4),
        "greedy_vectorized_s": round(greedy_vec, 4),
        "greedy_speedup": round(greedy_ref / greedy_vec, 2),
        "refine_reference_s": round(refine_ref, 4),
        "refine_vectorized_s": round(refine_vec, 4),
        "refine_speedup": round(refine_ref / refine_vec, 2),
    }


def run_pipeline_bench() -> dict[str, Any]:
    """Legacy per-event vs columnar front end, plus the mapping kernels.

    Every configuration with at least :data:`PIPELINE_MIN_RANKS` ranks is
    generated and turned into matrices cold on both paths; the seconds are
    the ``trace`` and ``matrix`` stages of :mod:`repro.timings`, exactly
    what ``repro --timings`` reports.  The vectorized mapping kernels run
    against their pinned ``*_reference`` implementations.
    """
    from .apps import app_names, get_app

    configs: dict[str, Any] = {}
    speedups: list[float] = []
    for name in app_names():
        for ranks in get_app(name).scales():
            if ranks < PIPELINE_MIN_RANKS:
                continue
            legacy = _timed_front_end(name, ranks, columnar=False)
            columnar = _timed_front_end(name, ranks, columnar=True)
            speedup = round(legacy["front_end_s"] / columnar["front_end_s"], 2)
            speedups.append(speedup)
            configs[f"{name}@{ranks}"] = {
                "legacy": legacy,
                "columnar": columnar,
                "front_end_speedup": speedup,
            }

    return {
        "front_end": configs,
        "summary": {
            "min_ranks": PIPELINE_MIN_RANKS,
            "configs": len(configs),
            "min_front_end_speedup": min(speedups) if speedups else None,
            "geomean_front_end_speedup": (
                round(float(np.exp(np.mean(np.log(speedups)))), 2) if speedups else None
            ),
        },
        # Densest traffic graph in the study: the all-collective 3D FFT.
        "mapping": _mapping_bench("BigFFT", 1024),
    }


def run_routing_bench(pairs: int = 100_000) -> dict[str, Any]:
    """Route-construction throughput of every policy at the 1728-rank scale.

    One batch of ``pairs`` random node pairs per topology, routed once per
    policy (load-aware policies see uniform unit weights); plus a cold/warm
    pass through :func:`repro.cache.cached_route_incidence` on the minimal
    policy to measure the memoization speedup the pipeline relies on.
    """
    from . import cache
    from .routing import ROUTINGS, get_policy
    from .topology.configs import build_all

    topologies = build_all(ROUTING_RANKS)
    rng = np.random.default_rng(ROUTING_SEED)
    per_topology: dict[str, Any] = {}
    slowdowns: dict[str, list[float]] = {name: [] for name in ROUTINGS}
    for kind, topology in topologies.items():
        src = rng.integers(0, topology.num_nodes, size=pairs)
        dst = rng.integers(0, topology.num_nodes, size=pairs)
        entry: dict[str, Any] = {}
        for name in ROUTINGS:
            policy = get_policy(name, seed=ROUTING_SEED)
            inc, dt = _timed(policy.route_incidence, topology, src, dst)
            entry[name] = {
                "seconds": round(dt, 4),
                "pairs_per_s": round(pairs / dt) if dt else None,
                "incidence_rows": inc.num_incidences,
                "mean_hops": round(inc.num_incidences / pairs, 3),
            }
        for name in ROUTINGS:
            slowdowns[name].append(entry[name]["seconds"] / max(entry["minimal"]["seconds"], 1e-9))
        per_topology[kind] = entry

    # Warm/cold memoization ratio, measured in a clean in-memory cache.
    topology = topologies["torus3d"]
    src = rng.integers(0, topology.num_nodes, size=pairs)
    dst = rng.integers(0, topology.num_nodes, size=pairs)
    cache.clear(memory=True)
    _, cold = _timed(cache.cached_route_incidence, topology, src, dst)
    _, warm = _timed(cache.cached_route_incidence, topology, src, dst)

    return {
        "routing": per_topology,
        "summary": {
            "ranks": ROUTING_RANKS,
            "pairs": pairs,
            "seed": ROUTING_SEED,
            "slowdown_vs_minimal": {
                name: round(float(np.exp(np.mean(np.log(vals)))), 2)
                for name, vals in slowdowns.items()
            },
            "cache_cold_s": round(cold, 4),
            "cache_warm_s": round(warm, 6),
            "cache_speedup": round(cold / max(warm, 1e-9), 1),
        },
    }


def _dragonfly_setup():
    """The 500k-packet benchmark simulation on a 1056-node Dragonfly(8,4,4).

    ~30% dynamic utilization: dense enough that the per-event reference
    loop is at its worst, congested enough (about half the packets queue)
    to be a meaningful dynamic regime rather than a free-flowing one.
    """
    from .comm.matrix import CommMatrixBuilder
    from .sim.common import prepare_simulation
    from .topology.dragonfly import Dragonfly

    num_pairs, packets_per_pair = 2_000, 250
    topo = Dragonfly(8, 4, 4)
    rng = np.random.default_rng(0)
    builder = CommMatrixBuilder(topo.num_nodes)
    src = rng.integers(0, topo.num_nodes, num_pairs)
    dst = (src + rng.integers(1, topo.num_nodes, num_pairs)) % topo.num_nodes
    packets = np.full(num_pairs, packets_per_pair, dtype=np.int64)
    builder.add_arrays(src, dst, packets * 4096, packets, packets)
    return prepare_simulation(
        builder.finalize(), topo, execution_time=SIM_EXECUTION_TIME, seed=SIM_SEED,
        max_packets=2_000_000,
    )


def run_telemetry_bench() -> dict[str, Any]:
    """Telemetry overhead on the 500k-packet dragonfly simulation, plus the
    adversarial minimal-vs-adaptive congestion comparison.

    The overhead section times the batched kernel three ways over the same
    prepared setup — no collector, :class:`~repro.telemetry.NullCollector`,
    and a full :class:`~repro.telemetry.WindowedCollector` — and reports
    each collector's median per-round ratio against the bare run over
    :data:`TELEMETRY_REPEATS` rotated-order rounds (see the in-function comment for
    why that estimator).  The congestion section
    replays the hot-group traffic pattern per routing policy and records
    each policy's congestion-region summary.
    """
    from .sim.engine import run_batched
    from .telemetry import (
        NullCollector,
        TelemetryConfig,
        WindowedCollector,
        adversarial_hot_group_matrix,
        congestion_by_routing,
    )
    from .topology.dragonfly import Dragonfly

    setup = _dragonfly_setup()
    config = TelemetryConfig(windows=TELEMETRY_WINDOWS)

    # The asserted quantities are *ratios* against the bare kernel, and
    # machine-load noise (multi-second spikes, turbo decay) dwarfs the
    # effect under test, so the estimator is built to cancel it twice
    # over: each round times all three configurations back to back and
    # contributes one per-round ratio (a load spike covers the whole
    # round and divides out), the in-round order rotates (so no
    # configuration systematically sits in the slow late slot), and the
    # reported overhead is the median over rounds (a spike straddling a
    # round boundary spoils at most the rounds it touches).
    makers = [lambda: None, NullCollector, lambda: WindowedCollector(config)]
    samples = [[], [], []]
    for r in range(TELEMETRY_REPEATS):
        for i in range(len(makers)):
            i = (i + r) % len(makers)
            samples[i].append(_timed(lambda: run_batched(setup, makers[i]()))[1])
    bare, null, windowed = (np.asarray(s) for s in samples)
    bare_s, null_s, windowed_s = bare.min(), null.min(), windowed.min()
    null_overhead = float(np.median(null / bare))
    windowed_overhead = float(np.median(windowed / bare))

    result = run_batched(setup, collector=WindowedCollector(config))
    report = result.telemetry

    adversarial_topo = Dragonfly(4, 2, 2)
    matrix = adversarial_hot_group_matrix(adversarial_topo, packets_per_pair=40)
    congestion = congestion_by_routing(
        matrix, adversarial_topo, routings=("minimal", "valiant", "ugal"),
        execution_time=2e-3, threshold=0.4, windows=24, seed=SIM_SEED,
    )

    return {
        "overhead": {
            "topology": "Dragonfly(8,4,4)",
            "packets": setup.total_packets,
            "packet_hops": setup.total_hops,
            "windows": TELEMETRY_WINDOWS,
            "bare_s": round(bare_s, 4),
            "null_s": round(null_s, 4),
            "windowed_s": round(windowed_s, 4),
            "null_overhead": round(null_overhead, 4),
            "windowed_overhead": round(windowed_overhead, 4),
            "peak_window_occupancy": round(report.peak_occupancy, 4),
            "services_recorded": int(report.serve_series.sum()),
        },
        "congestion": congestion,
    }


def run_scale_pipeline(
    ranks: int = SCALE_RANKS, chunk_bytes: int | None = None
) -> dict[str, Any]:
    """Streaming trace -> matrix -> locality pipeline in the current process.

    The trace is never materialized: the generator's plan is emitted in
    bounded :class:`~repro.core.blocks.EventBlock` chunks, collectives are
    expanded chunk by chunk, and the traffic matrix accumulates with
    periodic compaction.  The returned ``peak_rss_mb`` is this process's
    *lifetime* high-water mark, so it only measures the pipeline when
    nothing heavier ran first — :func:`run_scale_bench` therefore calls
    this through a fresh subprocess.
    """
    from .apps import stream_trace
    from .comm.matrix import matrix_from_trace
    from .core.stream import DEFAULT_CHUNK_BYTES, BlockStream
    from .metrics.locality import rank_distance, rank_locality
    from .metrics.peers import peers_per_rank

    if chunk_bytes is None:
        chunk_bytes = DEFAULT_CHUNK_BYTES
    counts = {"rows": 0, "chunks": 0}

    t0 = time.perf_counter()
    stream = stream_trace(SCALE_APP, ranks, chunk_bytes=chunk_bytes)

    def counted():
        for block in stream:
            counts["rows"] += len(block)
            counts["chunks"] += 1
            yield block

    matrix = matrix_from_trace(
        BlockStream(
            stream.meta,
            counted,
            datatypes=stream.datatypes,
            communicators=stream.communicators,
        )
    )
    front_end_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    distance = rank_distance(matrix)
    locality = rank_locality(matrix)
    avg_peers = float(peers_per_rank(matrix).mean())
    locality_s = time.perf_counter() - t0

    peak = timings.peak_rss_bytes()
    return {
        "app": SCALE_APP,
        "ranks": ranks,
        "chunk_bytes": int(chunk_bytes),
        "rows": counts["rows"],
        "chunks": counts["chunks"],
        "pairs": matrix.num_pairs,
        "front_end_s": round(front_end_s, 4),
        "locality_s": round(locality_s, 4),
        "rank_distance_90": round(float(distance), 4),
        "rank_locality": round(float(locality), 6),
        "avg_peers": round(avg_peers, 4),
        "peak_rss_mb": (
            round(peak / (1024 * 1024), 1) if peak is not None else None
        ),
    }


def run_scale_bench(
    ranks: int = SCALE_RANKS, rlimit_gb: float | None = None
) -> dict[str, Any]:
    """Measure the streaming pipeline's peak RSS in a fresh subprocess.

    Peak RSS never goes down, so a clean measurement needs an interpreter
    that has run nothing but the pipeline.  ``rlimit_gb``
    additionally applies a hard ``RLIMIT_AS`` cap inside the child (CI
    uses this), so a memory regression aborts loudly instead of silently
    paging.  The gated, machine-portable quantity is ``rss_ratio`` —
    measured peak RSS over :data:`SCALE_RSS_BUDGET_MB`.
    """
    cfg = {"ranks": ranks, "chunk_bytes": int(SCALE_CHUNK_MB * 1024 * 1024)}
    preamble = ""
    if rlimit_gb is not None:
        lim = int(rlimit_gb * (1 << 30))
        preamble = (
            "import resource\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({lim}, {lim}))\n"
        )
    code = (
        "import json, sys\n"
        + preamble
        + "from repro.bench import run_scale_pipeline\n"
        "json.dump(run_scale_pipeline(**json.loads(sys.argv[1])), sys.stdout)\n"
    )
    what = "scale pipeline" + (
        f" (RLIMIT_AS {rlimit_gb} GB)" if rlimit_gb is not None else ""
    )
    child = _run_python(code, cfg, what)
    peak = child["peak_rss_mb"]
    return {
        "scale": child,
        "summary": {
            "ranks": ranks,
            "chunk_mb": SCALE_CHUNK_MB,
            "budget_mb": SCALE_RSS_BUDGET_MB,
            "rlimit_gb": rlimit_gb,
            "peak_rss_mb": peak,
            "rss_ratio": (
                round(peak / SCALE_RSS_BUDGET_MB, 4) if peak is not None else None
            ),
            "rows_per_s": (
                round(child["rows"] / child["front_end_s"])
                if child["front_end_s"]
                else None
            ),
        },
    }


def _cold_serial_sweep(spec, cache_dir: Path) -> dict[str, Any]:
    """Cold serial baseline in a *fresh subprocess*.

    The measurement must run in an interpreter whose memory cache has never
    seen the grid — running it here would warm this process, and the
    service's fork-started workers would inherit that warmth, corrupting
    the comparison.  The subprocess populates ``cache_dir``'s disk tier,
    so the service runs that follow measure the steady-state (disk-warm,
    memory-cold) resubmission path.
    """
    from .service.cells import spec_to_dict

    code = (
        "import json, sys, time\n"
        "cfg = json.loads(sys.argv[1])\n"
        "from repro import cache\n"
        "cache.configure(disk_dir=cfg['cache_dir'])\n"
        "from repro.analysis.sweep import run_sweep\n"
        "from repro.service.cells import spec_from_dict\n"
        "spec = spec_from_dict(cfg['spec'])\n"
        "t0 = time.perf_counter()\n"
        "records = run_sweep(spec)\n"
        "json.dump({'seconds': time.perf_counter() - t0,"
        " 'records': records}, sys.stdout)\n"
    )
    cfg = {"spec": spec_to_dict(spec), "cache_dir": str(cache_dir)}
    return _run_python(code, cfg, "cold serial sweep")


def _cache_totals(stats: dict[str, Any]) -> dict[str, int]:
    totals = {"hits": 0, "misses": 0, "disk_hits": 0}
    for region in stats["cache"].values():
        for field in totals:
            totals[field] += region.get(field, 0)
    return totals


def _service_sweep(
    spec, warm_spec, state_dir: Path, cache_dir: Path, scheduler: str
) -> tuple[dict[str, Any], list[dict], list[dict]]:
    """One prime + warm service run; returns (summary, prime, warm records).

    The *prime* job runs ``spec`` on freshly started (memory-cold) workers
    and is not the measured quantity — it is the first sweep of a study,
    after which the service's whole point is that the workers stay resident
    with their caches hot.  The *measured* job runs ``warm_spec`` — the
    same grid with a shifted bandwidth axis, so every cell key is new and
    every cell is recomputed, but each worker's in-memory trace / matrix /
    mapping / incidence entries are exactly the ones affinity scheduling
    kept it fed with.  Cache counters are deltas over the measured job
    only.
    """
    import asyncio

    from .service.cells import spec_to_dict
    from .service.server import SweepService

    spec_dict = spec_to_dict(spec)
    warm_dict = spec_to_dict(warm_spec)

    async def _run():
        svc = SweepService(
            state_dir,
            workers=SWEEP_WORKERS,
            scheduler=scheduler,
            cache_dir=cache_dir,
        )
        await svc.start()
        try:
            t0 = time.perf_counter()
            prime = svc.submit(spec_dict)["job"]
            if await svc.wait(prime) != "done":
                raise RuntimeError("bench prime job failed")
            prime_seconds = time.perf_counter() - t0
            prime_records = svc.results(prime)
            before = svc.stats()

            t0 = time.perf_counter()
            job = svc.submit(warm_dict)["job"]
            status = await svc.wait(job)
            seconds = time.perf_counter() - t0
            if status != "done":
                raise RuntimeError(f"bench warm job finished {status!r}")
            return (
                prime_records,
                prime_seconds,
                svc.results(job),
                before,
                svc.stats(),
                seconds,
            )
        finally:
            await svc.stop()

    prime_records, prime_seconds, records, before, after, seconds = (
        asyncio.run(_run())
    )
    b, a = _cache_totals(before), _cache_totals(after)
    warm_cache = {field: a[field] - b[field] for field in a}
    lookups = warm_cache["hits"] + warm_cache["misses"]
    mode = {
        "scheduler": scheduler,
        "prime_seconds": round(prime_seconds, 3),
        "seconds": round(seconds, 3),
        "hit_rate": (
            round(warm_cache["hits"] / lookups, 4) if lookups else None
        ),
        "cache": warm_cache,
        "cells_computed": (
            after["counts"]["cells_computed"]
            - before["counts"]["cells_computed"]
        ),
        "cell_seconds": round(after["cell_seconds"] - before["cell_seconds"], 3),
        "respawns": after["respawns"],
    }
    return mode, prime_records, records


def run_sweep_bench() -> dict[str, Any]:
    """Cold serial vs warm sharded service on the reference grid.

    The baseline is a cold serial ``run_sweep`` in a fresh subprocess (it
    also warms the shared disk tier).  Then, per scheduler mode — affinity,
    then random — a :class:`~repro.service.server.SweepService` primes its
    resident workers with the same grid and is *measured* on the
    resubmit-with-a-tweak workflow the service exists for: the grid with a
    shifted bandwidth axis, where every cell recomputes but the workers'
    memory caches are hot.  Record identity: each mode's prime job must
    match the cold serial records exactly, and the two modes' warm jobs
    must match each other (scheduling must never change values).
    """
    import dataclasses
    import shutil
    import tempfile

    from .analysis.sweep import SweepSpec

    state = Path(tempfile.mkdtemp(prefix="repro-bench-sweep-"))
    cache_dir = state / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)
    spec = SweepSpec(
        apps=SWEEP_BENCH_APPS,
        topologies=("fattree", "torus3d", "dragonfly"),
        mappings=("consecutive", "greedy", "bisection"),
        payloads=(1024, 4096),
        routings=("minimal", "ecmp"),
    )
    # Half the paper bandwidth: new cell keys, identical intermediates.
    warm_spec = dataclasses.replace(spec, bandwidths=(6e9,))
    try:
        cold = _cold_serial_sweep(spec, cache_dir)
        affinity, affinity_prime, affinity_warm = _service_sweep(
            spec, warm_spec, state / "affinity", cache_dir, "affinity"
        )
        random_mode, random_prime, random_warm = _service_sweep(
            spec, warm_spec, state / "random", cache_dir, "random"
        )
    finally:
        shutil.rmtree(state, ignore_errors=True)

    records_identical = (
        affinity_prime == cold["records"]
        and random_prime == cold["records"]
        and affinity_warm == random_warm
    )
    warm_speedup = cold["seconds"] / max(affinity["seconds"], 1e-9)
    return {
        "modes": {"affinity": affinity, "random": random_mode},
        "summary": {
            "cells": len(spec.points()),
            "apps": len(spec.apps),
            "workers": SWEEP_WORKERS,
            "cold_serial_s": round(cold["seconds"], 3),
            "warm_affinity_s": affinity["seconds"],
            "warm_random_s": random_mode["seconds"],
            "warm_speedup": round(warm_speedup, 2),
            "affinity_hit_rate": affinity["hit_rate"],
            "random_hit_rate": random_mode["hit_rate"],
            "records_identical": records_identical,
        },
    }


def run_tenancy_bench() -> dict[str, Any]:
    """Multi-tenant measurements: interference-aware routing, solo identity.

    Victim-load reduction: a LULESH victim shares a dragonfly with a
    deliberately hostile :class:`~repro.apps.noise.HotspotNoise` aggressor
    flooding 16 targets.  The victim's peak exposed link load (max total
    services over links its routes traverse) is measured under minimal
    routing and under ``interference_aware`` routing primed with the
    victim's own structural loads.  Both numbers are structural route
    counts — deterministic on every machine.

    Solo identity: composing a single job with zero noise must be
    bit-identical to the solo run — the trace itself, every compared
    simulation observable, per-link serve counts, and the windowed
    telemetry report, on both engines.
    """
    from .apps.noise import HotspotNoise
    from .apps.registry import generate_trace
    from .comm.matrix import matrix_from_trace
    from .routing import InterferenceAwareRouting, victim_link_loads
    from .sim.common import prepare_simulation
    from .sim.engine import simulate_network
    from .telemetry import TelemetryConfig
    from .telemetry.collector import reports_equal
    from .tenancy import TenantSpec, compose_workload, victim_peak_link_load
    from .topology.dragonfly import Dragonfly
    from .topology.configs import config_for
    from .validation.invariants import traces_identical

    # --- victim-load reduction: hot-spot aggressor on a dragonfly ------
    topo = Dragonfly(8, 4, 4)
    aggressor = HotspotNoise(hot_ranks=16, src_ranks=16, volume_mb=16384.0)
    t0 = time.perf_counter()
    workload = compose_workload(
        [TenantSpec("LULESH", 512)],
        noise=[TenantSpec(aggressor, topo.num_nodes - 512)],
        allocation="round_robin",
    )
    victim = workload.app_job_ids()[0]
    matrix = matrix_from_trace(workload.trace)
    common = dict(
        execution_time=workload.trace.meta.execution_time,
        volume_scale=TENANCY_VOLUME_SCALE,
        max_packets=TENANCY_MAX_PACKETS,
        job_of_rank=workload.job_of_rank,
    )
    base = prepare_simulation(matrix, topo, routing="minimal", **common)
    baseline_peak = victim_peak_link_load(base, victim)
    prior = victim_link_loads(
        workload.job_matrix(matrix, victim), topo, volume_scale=TENANCY_VOLUME_SCALE
    )
    aware = prepare_simulation(
        matrix, topo, routing=InterferenceAwareRouting(victim_loads=prior), **common
    )
    aware_peak = victim_peak_link_load(aware, victim)
    reduction_s = time.perf_counter() - t0
    reduction = baseline_peak / aware_peak if aware_peak > 0 else float("inf")

    # --- solo identity: composed single job == solo run, both engines --
    t0 = time.perf_counter()
    solo_trace = generate_trace("LULESH", 64)
    composed = compose_workload([TenantSpec("LULESH", 64)])
    trace_identical = traces_identical(composed.trace, solo_trace)
    torus = config_for(64).build_torus()
    solo_matrix = matrix_from_trace(solo_trace)
    composed_matrix = matrix_from_trace(composed.trace)
    engines = {}
    for engine in ("batched", "reference"):
        # volume_scale keeps the reference engine's event loop tractable;
        # identity must hold at every scale, so checking one is enough.
        kwargs = dict(
            execution_time=solo_trace.meta.execution_time,
            volume_scale=32.0,
            telemetry=TelemetryConfig(windows=16),
            engine=engine,
        )
        solo = simulate_network(solo_matrix, torus, **kwargs)
        both = simulate_network(
            composed_matrix, torus, job_of_rank=composed.job_of_rank, **kwargs
        )
        engines[engine] = {
            "results_equal": bool(solo == both),
            "serve_counts_equal": bool(
                np.array_equal(solo.link_serve_counts, both.link_serve_counts)
            ),
            "telemetry_equal": bool(reports_equal(solo.telemetry, both.telemetry)),
            "packets": solo.packets_simulated,
        }
    identity_s = time.perf_counter() - t0

    return {
        "scenario": {
            "topology": repr(topo),
            "victim": "LULESH@512",
            "aggressor": f"HotspotNoise@{topo.num_nodes - 512} "
            "(hot_ranks=16, src_ranks=16, volume_mb=16384)",
            "allocation": "round_robin",
            "volume_scale": TENANCY_VOLUME_SCALE,
            "packets": base.total_packets,
            "reduction_seconds": round(reduction_s, 3),
            "identity_seconds": round(identity_s, 3),
        },
        "identity": {"trace_identical": trace_identical, "engines": engines},
        "summary": {
            "victim_peak_load_minimal": baseline_peak,
            "victim_peak_load_aware": aware_peak,
            "victim_load_reduction": round(reduction, 2),
        },
    }


def _solo_identical(data: dict[str, Any]) -> bool:
    identity = data["identity"]
    return identity["trace_identical"] and all(
        e["results_equal"] and e["serve_counts_equal"] and e["telemetry_equal"]
        for e in identity["engines"].values()
    )


def run_critpath_bench() -> dict[str, Any]:
    """Critical-path measurements: matcher speedup, sensitivity cross-check.

    Matcher: the 1728-rank AMG trace (with emitted receives, exact repeat
    expansion — ~5M p2p events) is matched by the vectorized channel-sort
    matcher and by the pinned per-event FIFO oracle; their (send, recv,
    bytes) edge arrays must be bit-identical.

    Sensitivity: every registry app's smallest configuration is analyzed
    on a torus with the finite-difference cross-check enabled; the gated
    quantity is the maximum relative disagreement between the algebraic
    L-term count and the forward difference — deterministic (exactly zero
    with the dyadic defaults), no wall times.
    """
    from .apps.registry import generate_trace
    from .critpath import latency_table
    from .critpath.match import (
        ensure_receives,
        expand_events,
        match_events,
        match_events_oracle,
    )

    # --- vectorized matcher vs per-event oracle -----------------------
    app, ranks = CRITPATH_MATCH_WORKLOAD
    trace = ensure_receives(generate_trace(app, ranks, emit_receives=True))
    table, expand_s = _timed(expand_events, trace, None)
    vectorized, vectorized_s = _timed(match_events, table)
    oracle, oracle_s = _timed(match_events_oracle, table)
    identical = bool(
        np.array_equal(vectorized.send_event, oracle.send_event)
        and np.array_equal(vectorized.recv_event, oracle.recv_event)
        and np.array_equal(vectorized.nbytes, oracle.nbytes)
    )
    speedup = oracle_s / vectorized_s if vectorized_s > 0 else float("inf")

    # --- algebraic vs finite-difference dT/dL per app -----------------
    rows, table_s = _timed(lambda: latency_table(fd_check=True))
    apps = [
        {
            "app": r.app,
            "ranks": r.ranks,
            "nodes": r.nodes,
            "edges": r.edges,
            "makespan_s": r.makespan_s,
            "l_terms": r.l_terms,
            "fd_sensitivity": r.fd_sensitivity,
            "rel_err": r.fd_rel_err,
            "tolerance_us": round(r.tolerance_s * 1e6, 4),
        }
        for r in rows
    ]

    return {
        "matcher": {
            "workload": f"{app}@{ranks}",
            "events": len(table),
            "pairs": len(vectorized),
            "expand_seconds": round(expand_s, 4),
            "vectorized_seconds": round(vectorized_s, 4),
            "oracle_seconds": round(oracle_s, 4),
        },
        "sensitivity": {"apps": apps, "table_seconds": round(table_s, 3)},
        "summary": {
            "match_speedup": round(speedup, 2),
            "edges_identical": identical,
            "sensitivity_max_rel_err": max(r.fd_rel_err for r in rows),
        },
    }


def run_collectives_bench() -> dict[str, Any]:
    """Collective-engine measurements: flat identity and tree locality delta.

    Identity: for every registry app's smallest configuration, the flat
    engine's matrix must be bit-identical to the parameterless default
    ``matrix_from_trace(trace)`` (the pre-engine behavior is the pinned
    baseline) *and* to a matrix rebuilt through the independent per-event
    path (``iter_send_groups`` feeding ``CommMatrixBuilder.add_group``) —
    two code paths, one answer.

    Delta: on :data:`COLLECTIVES_DELTA_WORKLOAD` the binomial engine must
    measurably change network locality versus flat — expanded collective
    bytes and torus average hops.  Both are deterministic structural
    ratios; seconds are provenance.
    """
    from .apps.registry import smallest_configurations
    from .cache import cached_trace
    from .collectives import collective_volume, iter_send_groups
    from .comm.matrix import CommMatrixBuilder, matrix_from_trace
    from .model.engine import analyze_network
    from .topology.configs import config_for
    from .validation.invariants import matrices_identical

    # --- flat engine bit-identical on every registry app --------------
    smallest = smallest_configurations()
    apps = []
    t0 = time.perf_counter()
    for name in sorted(smallest):
        ranks = smallest[name]
        trace = cached_trace(name, ranks)
        default = matrix_from_trace(trace)
        flat = matrix_from_trace(trace, collective="flat")
        builder = CommMatrixBuilder(trace.meta.num_ranks)
        for classified in iter_send_groups(trace):
            builder.add_group(classified.group)
        per_event = builder.finalize()
        apps.append(
            {
                "workload": f"{name}@{ranks}",
                "pairs": len(flat.src),
                "total_bytes": int(flat.total_bytes),
                "default_identical": matrices_identical(flat, default),
                "per_event_identical": matrices_identical(flat, per_event),
            }
        )
    identity_s = time.perf_counter() - t0

    # --- flat vs binomial locality delta ------------------------------
    app, ranks = COLLECTIVES_DELTA_WORKLOAD
    trace = cached_trace(app, ranks)
    topology = config_for(ranks).build_torus()
    t0 = time.perf_counter()
    engines = {}
    for algo in ("flat", "binomial"):
        matrix = matrix_from_trace(trace, collective=algo)
        analysis = analyze_network(
            matrix, topology, execution_time=trace.meta.execution_time
        )
        engines[algo] = {
            "collective_bytes": int(collective_volume(trace, collective=algo)),
            "total_bytes": int(matrix.total_bytes),
            "avg_hops": round(analysis.avg_hops, 6),
            "packet_hops": int(analysis.packet_hops),
            "wire_bytes": int(analysis.wire_bytes),
        }
    delta_s = time.perf_counter() - t0
    bytes_ratio = (
        engines["binomial"]["collective_bytes"]
        / engines["flat"]["collective_bytes"]
    )
    hops_delta = abs(
        engines["binomial"]["avg_hops"] / engines["flat"]["avg_hops"] - 1.0
    )

    return {
        "identity": {
            "apps": apps,
            "identity_seconds": round(identity_s, 3),
        },
        "delta": {
            "workload": f"{app}@{ranks}",
            "topology": "torus3d",
            "engines": engines,
            "delta_seconds": round(delta_s, 3),
        },
        "summary": {
            "apps_checked": len(apps),
            "bytes_ratio": round(bytes_ratio, 4),
            "hops_delta_rel": round(hops_delta, 4),
        },
    }


def _flat_identical(data: dict[str, Any]) -> bool:
    return all(
        a["default_identical"] and a["per_event_identical"]
        for a in data["identity"]["apps"]
    )


def run_sim_bench() -> dict[str, Any]:
    """Batched kernel vs the per-event reference, and the Table-3 cache.

    The simulator section runs both engines on the 500k-packet dragonfly
    workload; their results must be equal.  The cache section builds the
    full Table 3 twice through the in-memory cache — cold, then warm —
    with the disk tier off and the incidence region sized so the
    41-config x 3-topology grid fits.
    """
    from . import cache
    from .analysis.tables import build_table3
    from .sim.engine import run_batched
    from .sim.reference import run_reference

    setup = _dragonfly_setup()
    batched, batched_s = _timed(run_batched, setup)
    reference, reference_s = _timed(run_reference, setup)

    disk, incidence = cache._disk_dir, cache._regions["incidence"].maxsize
    cache.configure(disable_disk=True, memory_items={"incidence": 160})
    cache.clear(memory=True)
    try:
        cold_rows, cold_s = _timed(build_table3)
        warm_rows, warm_s = _timed(build_table3)
    finally:
        cache.configure(disk_dir=disk, memory_items={"incidence": incidence})
        cache.clear(memory=True)

    return {
        "simulator": {
            "topology": "Dragonfly(8,4,4)",
            "packets": setup.total_packets,
            "packet_hops": setup.total_hops,
            "execution_time_s": SIM_EXECUTION_TIME,
            "dynamic_utilization": round(batched.dynamic_utilization, 4),
            "congested_packet_share": round(batched.congested_packet_share, 4),
            "engines_identical": bool(batched == reference),
            "reference_s": round(reference_s, 3),
            "batched_s": round(batched_s, 3),
            "reference_hops_per_s": round(setup.total_hops / reference_s),
            "batched_hops_per_s": round(setup.total_hops / batched_s),
            "speedup": round(reference_s / batched_s, 2),
        },
        "table3_cache": {
            "rows": len(cold_rows),
            "labels_identical": [r.label for r in warm_rows]
            == [r.label for r in cold_rows],
            "cold_s": round(cold_s, 3),
            "warm_s": round(warm_s, 3),
            "speedup": round(cold_s / warm_s, 2),
        },
    }


def _at(*keys: str) -> Callable[[dict[str, Any]], Any]:
    """Gate value reader for ``data[keys[0]][keys[1]]...``."""

    def read(data: dict[str, Any]) -> Any:
        for key in keys:
            data = data[key]
        return data

    return read


def _covers_registry(names) -> bool:
    from .apps.registry import APPS

    return set(names) == set(APPS)


def _ugal_minus_minimal(data: dict[str, Any]) -> float:
    longest = {r["routing"]: r["longest_region_s"] for r in data["congestion"]}
    return longest["ugal"] - longest["minimal"]


def _affinity_minus_random(data: dict[str, Any]) -> float | None:
    s = data["summary"]
    if s["affinity_hit_rate"] is None or s["random_hit_rate"] is None:
        return None
    return round(s["affinity_hit_rate"] - s["random_hit_rate"], 4)


#: Every ``repro bench`` target: its measurement and its gates.
#: ``tests/test_bench.py`` pins every gate's op, bound and timing flag.
BENCHES: dict[str, Bench] = {
    "collectives": Bench(run_collectives_bench, (
        Gate("flat_identity", _flat_identical, "==", True),
        Gate("every_app_covered", lambda d: _covers_registry(
            a["workload"].split("@")[0] for a in d["identity"]["apps"]), "==", True),
        Gate("bytes_ratio", _at("summary", "bytes_ratio"), ">=", 1.5),
        Gate("hops_delta_rel", _at("summary", "hops_delta_rel"), ">=", 0.10),
    )),
    "critpath": Bench(run_critpath_bench, (
        Gate("events", _at("matcher", "events"), ">=", 5_000_000),
        Gate("pairs", _at("matcher", "pairs"), ">=", 2_500_000),
        Gate("edges_identical", _at("summary", "edges_identical"), "==", True),
        Gate("match_speedup", _at("summary", "match_speedup"), ">=", 5.0, True),
        Gate("sensitivity_max_rel_err", _at("summary", "sensitivity_max_rel_err"), "<=", 0.01),
        Gate("every_app_covered", lambda d: _covers_registry(
            a["app"] for a in d["sensitivity"]["apps"]), "==", True),
    )),
    "pipeline": Bench(run_pipeline_bench, (
        Gate("configs", _at("summary", "configs"), ">=", 10),
        Gate("front_end_geomean_speedup", _at("summary", "geomean_front_end_speedup"),
             ">=", 5.0, True),
        Gate("greedy_speedup", _at("mapping", "greedy_speedup"), ">=", 3.0, True),
        Gate("refine_speedup", _at("mapping", "refine_speedup"), ">=", 3.0, True),
    )),
    "routing": Bench(run_routing_bench, (
        Gate("max_slowdown_vs_minimal",
             lambda d: max(d["summary"]["slowdown_vs_minimal"].values()), "<=", 200.0, True),
        Gate("cache_speedup", _at("summary", "cache_speedup"), ">=", 5.0, True),
    ), options=("pairs",)),
    "scale": Bench(run_scale_bench, (
        Gate("ranks", _at("scale", "ranks"), "==", SCALE_RANKS),
        Gate("rows", _at("scale", "rows"), ">", SCALE_RANKS),
        Gate("pairs", _at("scale", "pairs"), ">", SCALE_RANKS),
        Gate("rss_ratio", _at("summary", "rss_ratio"), "<=", 1.0),
    ), options=("rlimit_gb",)),
    "sim": Bench(run_sim_bench, (
        Gate("packets", _at("simulator", "packets"), ">=", 500_000),
        Gate("engines_identical", _at("simulator", "engines_identical"), "==", True),
        Gate("batched_speedup", _at("simulator", "speedup"), ">=", 10.0, True),
        Gate("table3_labels_identical", _at("table3_cache", "labels_identical"), "==", True),
        Gate("table3_warm_speedup", _at("table3_cache", "speedup"), ">=", 3.0, True),
    )),
    "sweep": Bench(run_sweep_bench, (
        Gate("cells", _at("summary", "cells"), "==", 216),
        Gate("apps", _at("summary", "apps"), "==", 6),
        Gate("records_identical", _at("summary", "records_identical"), "==", True),
        Gate("warm_speedup", _at("summary", "warm_speedup"), ">=", 5.0, True),
        Gate("affinity_minus_random_hit_rate", _affinity_minus_random, ">", 0.0, True),
    )),
    "telemetry": Bench(run_telemetry_bench, (
        Gate("packets", _at("overhead", "packets"), ">=", 500_000),
        Gate("null_overhead", _at("overhead", "null_overhead"), "<=", 1.05, True),
        Gate("windowed_overhead", _at("overhead", "windowed_overhead"), "<=", 1.20, True),
        Gate("ugal_minus_minimal_longest_s", _ugal_minus_minimal, "<", 0.0),
    )),
    "tenancy": Bench(run_tenancy_bench, (
        Gate("packets", _at("scenario", "packets"), ">=", 500_000),
        Gate("victim_load_reduction", _at("summary", "victim_load_reduction"), ">=", 2.0),
        Gate("solo_identity", _solo_identical, "==", True),
    )),
}
