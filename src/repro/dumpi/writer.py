"""Serialize traces to the repro-dumpi ASCII format.

Lines are written straight from the trace's columnar blocks; no event
object is materialized.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO

import numpy as np

from ..core.blocks import KIND_COLLECTIVE, OPS, EventBlock
from ..core.communicator import WORLD_NAME
from ..core.datatypes import PREDEFINED_SIZES
from ..core.trace import Trace
from .format import COLL_TAG, FORMAT_VERSION, MAGIC, P2P_TAG, format_float

__all__ = ["write_trace", "dump_trace", "dumps_trace"]


def _write_rows(block: EventBlock, stream: TextIO) -> None:
    """One record line per row, in row order."""
    dtypes, comms, funcs = block.dtype_names, block.comm_names, block.func_names
    ops = [op.value for op in OPS]
    columns = (getattr(block, name).tolist() for name in EventBlock._COLUMN_DTYPES)
    for (
        kind, caller, peer, count, dtype_id, op, root, comm_id, tag, func_id,
        repeat, t_enter, t_leave,
    ) in zip(*columns):
        t = f"t={format_float(t_enter)},{format_float(t_leave)}"
        if kind == KIND_COLLECTIVE:
            line = (
                f"{COLL_TAG} {ops[op]} caller={caller} count={count} "
                f"dtype={dtypes[dtype_id]} root={root} comm={comms[comm_id]} {t}"
            )
        else:
            line = (
                f"{P2P_TAG} {funcs[func_id]} caller={caller} peer={peer} "
                f"count={count} dtype={dtypes[dtype_id]} tag={tag} "
                f"comm={comms[comm_id]} {t}"
            )
        if repeat != 1:
            line += f" repeat={repeat}"
        stream.write(line + "\n")


def write_trace(trace: Trace, stream: TextIO) -> None:
    """Write one trace to an open text stream."""
    meta = trace.meta
    blocks = trace.blocks()
    stream.write(f"{MAGIC} {FORMAT_VERSION}\n")
    stream.write(f"%app {meta.app}\n")
    stream.write(f"%ranks {meta.num_ranks}\n")
    stream.write(f"%time {format_float(meta.execution_time)}\n")
    if meta.variant:
        stream.write(f"%variant {meta.variant}\n")
    if meta.uses_derived_types:
        stream.write("%derived 1\n")
    used = {b.dtype_names[i] for b in blocks for i in np.unique(b.dtype_id).tolist()}
    for name in sorted(used):
        if name not in PREDEFINED_SIZES:
            stream.write(f"%dtype {name} size={trace.datatypes.size_of(name)}\n")
    assert trace.communicators is not None
    for comm_name in trace.communicators.names():
        comm = trace.communicators.get(comm_name)
        if comm_name == WORLD_NAME or comm.is_world_like:
            continue
        members = ",".join(str(m) for m in comm.members)
        stream.write(f"%comm {comm_name} members={members}\n")
    for block in blocks:
        _write_rows(block, stream)


def dump_trace(trace: Trace, path: str | Path) -> Path:
    """Write a trace to a file, creating parent directories as needed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        write_trace(trace, fh)
    return path


def dumps_trace(trace: Trace) -> str:
    """Render a trace to a string (round-trip tests, small traces)."""
    buf = io.StringIO()
    write_trace(trace, buf)
    return buf.getvalue()
