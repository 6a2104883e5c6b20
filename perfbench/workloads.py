"""The four benchmark workloads: set-up, one timed pass, and output checks.

Each workload drives the public API of ``repro`` the way a CLI user does,
from cold in-memory caches with the disk tier off.  ``setup`` prepares the
inputs from the seed (and, where the check needs it, a reference computed
by another path); ``run`` is the timed pass; ``check`` gives one failure
reason (``""`` when it passed) per operation.  An operation is one
configuration, trace file, sweep record or DAG analysis; it fails when it
raised or when its output does not match the check.

Why these four, and which layers each one stresses, is recorded in
``README.md`` next to this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

__all__ = ["WORKLOADS", "digest", "load_references"]

REFERENCES = Path(__file__).with_name("references.json")

# Workload sizes.  Each keeps one pass near a second on a 2-vCPU host, so
# a run times many passes and a burst of contention moves only a few of
# them (``README.md``).
#: Table 3 rows of configurations with at most this many ranks.
TABLE3_MAX_RANKS = 512
#: Configurations of at most this many ranks are written and parsed back.
DUMPI_MAX_RANKS = 256
#: ``repro critpath`` defaults on AMG@216, except the repeat clamp.
CRITPATH_APP = ("AMG", 216)
CRITPATH_MAX_REPEAT = 2


def digest(value) -> str:
    """Exact content digest of a nested output (floats by their repr)."""
    h = hashlib.blake2b(digest_size=8)

    def feed(obj) -> None:
        if dataclasses.is_dataclass(obj):
            h.update(type(obj).__name__.encode())
            for field in dataclasses.fields(obj):
                h.update(field.name.encode())
                feed(getattr(obj, field.name))
        elif isinstance(obj, dict):
            for key in sorted(obj):
                h.update(repr(key).encode())
                feed(obj[key])
        elif isinstance(obj, (list, tuple)):
            h.update(b"[")
            for item in obj:
                feed(item)
            h.update(b"]")
        elif isinstance(obj, np.ndarray):
            arr = np.ascontiguousarray(obj)
            h.update(f"{arr.dtype}{arr.shape}".encode())
            h.update(arr.tobytes())
        else:
            h.update(repr(obj).encode())
        h.update(b";")

    feed(value)
    return h.hexdigest()


def load_references() -> dict:
    """Shipped per-operation digests: ``{workload: {seed: [digest, ...]}}``."""
    with open(REFERENCES) as fh:
        return json.load(fh)


def _cold_cache() -> None:
    from repro import cache

    cache.configure(disable_disk=True)
    cache.clear()


def _compare(ops: list, digests: list, expected: list[str] | None, invariant) -> list[str]:
    """Per-operation failure reasons ('' = ok) for digest-checked outputs.

    ``expected`` holds the shipped digests for this seed, or ``None`` when
    the seed has none; then only ``invariant`` (which must hold for any
    seed) is checked.  A missing output (the operation raised) fails.
    """
    reasons = []
    for i, (out, got) in enumerate(zip(ops, digests)):
        if out is None:
            reasons.append("raised")
        elif not invariant(out):
            reasons.append("invariant violated")
        elif expected is not None and got != expected[i]:
            reasons.append("digest differs from reference")
        else:
            reasons.append("")
    return reasons


# ------------------------------------------------------------ table3_cold


def _table3_setup(seed: int, workdir: Path) -> dict:
    from repro.apps.registry import iter_configurations

    _cold_cache()
    labels = [
        f"{app.name}@{point.ranks}" + (f"/{point.variant}" if point.variant else "")
        for app, point in iter_configurations(max_ranks=TABLE3_MAX_RANKS)
    ]
    return {"seed": seed, "labels": labels}


def _table3_run(inputs: dict) -> dict:
    from repro.analysis import tables

    return {"rows": tables.build_table3(max_ranks=TABLE3_MAX_RANKS, seed=inputs["seed"])}


def _table3_ops(inputs: dict, outputs: dict) -> list:
    rows = outputs.get("rows")
    if rows is None or len(rows) != len(inputs["labels"]):
        return [None] * len(inputs["labels"])
    return rows


def _table3_check(inputs: dict, rows: list, digests: list, expected) -> list[str]:
    def invariant(row) -> bool:
        nets = row.network
        return (
            set(nets) == {"torus3d", "fattree", "dragonfly"}
            and all(
                net.total_packets > 0
                and 0 < net.avg_hops < 16
                and math.isfinite(net.utilization)
                for net in nets.values()
            )
        )

    reasons = _compare(rows, digests, expected, invariant)
    return [
        r or ("" if row.label == label else "row out of order")
        for r, row, label in zip(reasons, rows, inputs["labels"])
    ]


def _table3_work(inputs: dict, outputs: dict) -> float:
    return 3.0 * len(outputs["rows"])


# ------------------------------------------------------------ dumpi_ingest


def _matrix_arrays(matrix) -> tuple:
    return (matrix.num_ranks, matrix.src, matrix.dst, matrix.nbytes,
            matrix.messages, matrix.packets)


def _dumpi_setup(seed: int, workdir: Path) -> dict:
    """Write the traces and their reference digests into ``workdir``.

    The passes of one run share ``workdir``: a pass that finds it prepared
    only reads the index (``reused``), so the expensive preparation is
    timed once per run and in the set-up-only samples.
    """
    import repro
    from repro.apps.registry import iter_configurations

    _cold_cache()
    repo = repro.TraceRepository(workdir / "traces")
    index = workdir / "prepared.json"
    if index.exists():
        prepared = json.loads(index.read_text())
        keys = [repro.TraceKey(*key) for key in prepared["keys"]]
        return {"repo": repo, "keys": keys, "refs": prepared["refs"],
                "mb": prepared["mb"], "reused": True}
    keys, refs = [], []
    for app, point in iter_configurations(max_ranks=DUMPI_MAX_RANKS):
        trace = repro.generate_trace(app.name, point.ranks, variant=point.variant, seed=seed)
        repo.store(trace)
        # The reference goes through the generator's columnar blocks; the
        # pass must reproduce it from the parsed text.
        p2p = repro.matrix_from_trace(trace, include_collectives=False)
        full = repro.matrix_from_trace(trace)
        metrics = repro.mpi_level_metrics(trace, p2p)
        keys.append(repro.TraceKey.of(trace))
        refs.append(digest((_matrix_arrays(p2p), _matrix_arrays(full), metrics)))
    mb = sum(repo.path_of(key).stat().st_size for key in keys) / 1e6
    index.write_text(json.dumps(
        {"keys": [dataclasses.astuple(key) for key in keys], "refs": refs, "mb": mb}
    ))
    _cold_cache()
    return {"repo": repo, "keys": keys, "refs": refs, "mb": mb}


def _dumpi_run(inputs: dict) -> dict:
    import repro

    repo = inputs["repo"]
    results = []
    for key in inputs["keys"]:
        try:
            trace = repo.load(key)
            p2p = repro.matrix_from_trace(trace, include_collectives=False)
            full = repro.matrix_from_trace(trace)
            metrics = repro.mpi_level_metrics(trace, p2p)
        except Exception:  # one failed trace file is one failed operation
            results.append(None)
            continue
        results.append((p2p, full, metrics))
    return {"results": results}


def _dumpi_ops(inputs: dict, outputs: dict) -> list:
    results = outputs.get("results") or [None] * len(inputs["keys"])
    return [
        None if r is None else (_matrix_arrays(r[0]), _matrix_arrays(r[1]), r[2])
        for r in results
    ]


def _dumpi_check(inputs: dict, ops: list, digests: list, expected) -> list[str]:
    # The reference is made in set-up from the generated traces, so this
    # check holds for every seed.
    return _compare(ops, digests, inputs["refs"], lambda op: True)


def _dumpi_work(inputs: dict, outputs: dict) -> float:
    return inputs["mb"]


# --------------------------------------------------------- critpath_amg216


def _critpath_setup(seed: int, workdir: Path) -> dict:
    import repro
    from repro.core.blocks import KIND_P2P_SEND

    _cold_cache()
    app, ranks = CRITPATH_APP
    trace = repro.generate_trace(app, ranks, seed=seed)
    topology = repro.config_for(ranks).build_torus()
    # Expected DAG shape, counted from the trace's rows: AMG is send-only
    # p2p, so every (clamped) send gains one synthesized receive, one
    # message edge, and each active rank's events form one program chain.
    sends, other_rows, active = 0, 0, set()
    for block in trace.blocks():
        is_send = block.kind == KIND_P2P_SEND
        sends += int(np.minimum(block.repeat[is_send], CRITPATH_MAX_REPEAT).sum())
        other_rows += int((~is_send).sum())
        active.update(block.caller[is_send].tolist(), block.peer[is_send].tolist())
    if other_rows:
        raise ValueError(f"{app}@{ranks} is expected to be send-only")
    expected = {
        "nodes": 2 * sends,
        "msg_edges": sends,
        "edges": 2 * sends - len(active) + sends,
    }
    _cold_cache()
    return {"trace": trace, "topology": topology, "expected": expected}


def _critpath_run(inputs: dict) -> dict:
    from repro.critpath import analyze

    return {
        "analysis": analyze.analyze_trace(
            inputs["trace"], topology=inputs["topology"], routing="minimal",
            fd_check=True, collective="flat", max_repeat=CRITPATH_MAX_REPEAT,
        )
    }


def _critpath_ops(inputs: dict, outputs: dict) -> list:
    return [outputs.get("analysis")]


def _critpath_check(inputs: dict, ops: list, digests: list, expected) -> list[str]:
    a = ops[0]
    if a is None:
        return ["raised"]
    shape = {"nodes": a.nodes, "msg_edges": a.msg_edges, "edges": a.edges}
    if shape != inputs["expected"]:
        return [f"DAG shape {shape} != {inputs['expected']}"]
    if a.fd_sensitivity != a.sensitivity or a.fd_rel_err != 0.0:
        return [f"FD dT/dL {a.fd_sensitivity!r} != algebraic {a.sensitivity!r}"]
    if not (a.makespan_s > 0 and a.l_terms > 0):
        return ["empty critical path"]
    return [""]


def _critpath_work(inputs: dict, outputs: dict) -> float:
    return float(outputs["analysis"].nodes)


# ------------------------------------------------------------ whatif_sweep


def _sweep_setup(seed: int, workdir: Path) -> dict:
    from repro.analysis.sweep import SweepSpec

    _cold_cache()
    spec = SweepSpec(
        apps=(("CrystalRouter", 100),),
        topologies=("torus3d", "dragonfly"),
        mappings=("greedy",),
        routings=("minimal", "ugal"),
        collectives=("flat", "binomial"),
        bandwidths=(12e9, 0.3e9),
        telemetry=True,
        sim_volume_scale=64,
        seed=seed,
    )
    return {"spec": spec}


def _sweep_run(inputs: dict) -> dict:
    from repro.analysis import sweep

    return {"records": sweep.run_sweep(inputs["spec"], workers=1)}


def _sweep_ops(inputs: dict, outputs: dict) -> list:
    total = inputs["spec"].num_points  # one record per (point, bandwidth)
    records = outputs.get("records")
    if records is None or len(records) != total:
        return [None] * total
    return records


def _sweep_check(inputs: dict, records: list, digests: list, expected) -> list[str]:
    def invariant(rec) -> bool:
        return (
            rec["makespan_inflation"] >= 1.0
            and 0.0 <= rec["peak_window_occupancy"] <= 1.0
            and rec["num_regions"] >= 0
            and rec["packet_hops"] > 0
        )

    return _compare(records, digests, expected, invariant)


def _sweep_work(inputs: dict, outputs: dict) -> float:
    return float(len(outputs["records"]))


@dataclasses.dataclass(frozen=True)
class Workload:
    """``setup(seed, workdir) -> inputs``; ``run(inputs) -> outputs`` is
    the timed pass; ``ops`` lists the per-operation outputs (``None`` where
    the operation raised) that ``check`` and the digests see; ``work``
    counts the pass's work units.  ``digest_checked`` workloads compare
    against shipped digests for the seeds in ``references.json``."""

    setup: object
    run: object
    ops: object
    check: object
    work: object
    digest_checked: bool = False


WORKLOADS = {
    "table3_cold": Workload(
        _table3_setup, _table3_run, _table3_ops, _table3_check, _table3_work, True
    ),
    "dumpi_ingest": Workload(
        _dumpi_setup, _dumpi_run, _dumpi_ops, _dumpi_check, _dumpi_work
    ),
    "critpath_amg216": Workload(
        _critpath_setup, _critpath_run, _critpath_ops, _critpath_check, _critpath_work
    ),
    "whatif_sweep": Workload(
        _sweep_setup, _sweep_run, _sweep_ops, _sweep_check, _sweep_work, True
    ),
}
