"""Converter for real SST-dumpi ``dumpi2ascii`` output.

The Sandia trace portal ships binary dumpi traces; ``dumpi2ascii`` renders
them as one text file per rank, with records of the form::

    MPI_Send entering at walltime 11651.672436, cputime 0.000112 seconds in thread 0.
    int count=4096
    MPI_Datatype datatype=2 (MPI_CHAR)
    int dest=5
    int tag=0
    MPI_Comm comm=2 (MPI_COMM_WORLD)
    MPI_Send returning at walltime 11651.672440, cputime 0.000116 seconds in thread 0.

This module parses that layout into :class:`~repro.core.trace.Trace`
objects so the full analysis pipeline runs unchanged on real traces when
they are available.  Every rank file is decoded into one shared
:class:`~repro.core.blocks.BlockBuilder` — no per-record Python event
objects are created on the loading path (the legacy ``events`` view stays
available lazily).

The parser is deliberately tolerant: unknown MPI functions are skipped
(dumpi records *every* call, most of which carry no traffic), unknown
datatypes resolve through the registry's 1-byte convention (the paper's
treatment of underdocumented derived types), and per-call fields are
matched by name with sensible fallbacks (``sendcount``/``count``,
``dest``/``source``/``root``).

Cartesian/sub-communicator calls cannot be reconstructed from dumpi output
(the paper excludes such traces, §4.3); records referencing a communicator
other than ``MPI_COMM_WORLD``/``MPI_COMM_SELF`` raise
:class:`UnsupportedCommunicatorError` unless ``strict=False``.

What the tolerance does not cover raises
:class:`~repro.dumpi.format.ParseError` naming the rank file and the
record's line: a record that never returns (a truncated file), an
unreadable walltime, a point-to-point call without its peer or count, and
a peer outside the traced ranks.
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from ..core.blocks import BlockBuilder, EventBlock, RowError
from ..core.events import CollectiveOp, Direction, P2P_CALLS
from ..core.trace import Trace, TraceMetadata
from .format import ParseError

__all__ = [
    "UnsupportedCommunicatorError",
    "parse_rank_stream",
    "load_dumpi2ascii_dir",
    "stream_dumpi2ascii_dir",
    "RANK_FILE_PATTERN",
]

#: dumpi2ascii file naming: <prefix>-<rank>.txt (rank zero-padded).
RANK_FILE_PATTERN = re.compile(r"-(\d+)\.txt$")

#: An ``entering``/``returning`` line; the walltime group is None when the
#: line is cut short.
_CALL_RE = re.compile(
    r"^(MPI_\w+) (entering|returning)\b(?: at walltime ([^,\s]+),)?"
)
_FIELD_RE = re.compile(
    r"^\s*(?:\w[\w\s*]*\s)?(\w+)=(-?\d+)(?:\s+\(([\w-]+)\))?"
)

_COLLECTIVE_BY_NAME = {op.value: op for op in CollectiveOp}

#: World-like communicator names dumpi prints; everything else is a
#: sub-communicator we cannot resolve.
_WORLD_COMMS = {"MPI_COMM_WORLD", "MPI_COMM_SELF"}


class UnsupportedCommunicatorError(ValueError):
    """A record references a communicator whose rank mapping is unknown."""


class _Record:
    """One MPI call being assembled."""

    __slots__ = ("func", "line", "t_enter", "t_leave", "ints", "names")

    def __init__(self, func: str, line: int, t_enter: float) -> None:
        self.func = func
        self.line = line
        self.t_enter = t_enter
        self.t_leave = t_enter
        self.ints: dict[str, int] = {}
        self.names: dict[str, str] = {}


def _first(record: _Record, *keys: str, default: int | None = None) -> int | None:
    for key in keys:
        if key in record.ints:
            return record.ints[key]
    return default


def _check_comm(record: _Record, strict: bool) -> bool:
    """True when the record may be translated; raises/False otherwise."""
    comm_name = record.names.get("comm", "MPI_COMM_WORLD")
    if comm_name in _WORLD_COMMS:
        return True
    if strict:
        raise UnsupportedCommunicatorError(
            f"{record.func} uses communicator {comm_name!r}; dumpi traces do "
            "not carry sub-communicator rank mappings (paper §4.3 exclusion)"
        )
    return False


def _parse_columns(
    stream: TextIO | Iterable[str],
    rank: int,
    builder: BlockBuilder,
    lines: list[int],
    strict: bool,
    source: str | None = None,
) -> tuple[float, float]:
    """Decode one rank's dumpi2ascii text into ``builder`` rows.

    Appends each row's source line to ``lines`` and returns
    ``(first_walltime, last_walltime)``.
    """
    t_min = float("inf")
    t_max = float("-inf")
    current: _Record | None = None
    lineno = 0
    try:
        for lineno, line in enumerate(stream, start=1):
            call = _CALL_RE.match(line)
            if call:
                func, phase, walltime = call.groups()
                if walltime is None:
                    raise ValueError(f"malformed {func} {phase} line")
                t = float(walltime)
                if phase == "entering":
                    if current is not None:
                        lineno = current.line
                        raise ValueError(f"{current.func} record never returns")
                    current = _Record(func, lineno, t)
                    t_min = min(t_min, t)
                elif current is not None and func == current.func:
                    current.t_leave = t
                    t_max = max(t_max, t)
                    lineno = current.line  # field errors name the record
                    if _translate(current, rank, builder, strict):
                        lines.append(current.line)
                    current = None
                continue
            if current is not None:
                field = _FIELD_RE.match(line)
                if field:
                    key, value, name = field.group(1), int(field.group(2)), field.group(3)
                    current.ints[key] = value
                    if name:
                        current.names[key] = name
        if current is not None:
            lineno = current.line
            raise ValueError(f"{current.func} record never returns")
    except UnsupportedCommunicatorError:
        raise
    except ValueError as err:
        raise ParseError(lineno, str(err), source) from None
    if t_min > t_max:
        t_min = t_max = 0.0
    return t_min, t_max


def parse_rank_stream(
    stream: TextIO | Iterable[str],
    rank: int,
    strict: bool = True,
) -> tuple[list, float, float]:
    """Parse one rank's dumpi2ascii text.

    Returns ``(events, first_walltime, last_walltime)``.  Events carry the
    given caller rank; receives are kept (they do not inject traffic but
    complete the record, as in real traces).
    """
    builder = BlockBuilder()
    t_min, t_max = _parse_columns(stream, rank, builder, [], strict)
    return builder.to_block().to_events(), t_min, t_max


def _translate(
    record: _Record, rank: int, builder: BlockBuilder, strict: bool
) -> bool:
    """Decode one assembled record into a builder row; False if skipped."""
    func = record.func
    if func in P2P_CALLS:
        if not _check_comm(record, strict):
            return False
        direction = P2P_CALLS[func]
        peer_key = "dest" if direction is Direction.SEND else "source"
        peer = _first(record, peer_key, "dest", "source")
        count = _first(record, "count")
        if peer is None or count is None:
            raise ValueError(f"{func} record lacks its {peer_key} or count field")
        if peer < 0:  # MPI_ANY_SOURCE etc.
            return False
        builder.add_p2p(
            direction,
            rank,
            peer,
            count,
            record.names.get("datatype", "MPI_BYTE"),
            func,
            int(_first(record, "tag", default=0) or 0),
            t_enter=record.t_enter,
            t_leave=record.t_leave,
        )
        return True
    op = _COLLECTIVE_BY_NAME.get(func)
    if op is None:
        # bookkeeping calls (Comm_rank, Wait, Init, ...) carry no traffic
        return False
    if not _check_comm(record, strict):
        return False
    count = _first(
        record, "sendcount", "count", "recvcount", "sendcounts", default=0
    )
    dtype = record.names.get(
        "sendtype", record.names.get("datatype", "MPI_BYTE")
    )
    if op is CollectiveOp.BARRIER:
        count = 0
    builder.add_collective(
        op,
        rank,
        max(int(count or 0), 0),
        dtype,
        int(_first(record, "root", default=0) or 0),
        t_enter=record.t_enter,
        t_leave=record.t_leave,
    )
    return True


def _rank_files(directory: Path) -> dict[int, Path]:
    """Discover and validate the ``<prefix>-<rank>.txt`` per-rank files."""
    rank_files: dict[int, Path] = {}
    for path in sorted(directory.glob("*.txt")):
        match = RANK_FILE_PATTERN.search(path.name)
        if match:
            rank_files[int(match.group(1))] = path
    if not rank_files:
        raise FileNotFoundError(
            f"no dumpi2ascii rank files (*-NNNN.txt) under {directory}"
        )
    num_ranks = max(rank_files) + 1
    if set(rank_files) != set(range(num_ranks)):
        missing = sorted(set(range(num_ranks)) - set(rank_files))
        raise ValueError(f"missing rank files for ranks {missing[:10]}")
    return rank_files


def _parse_rank_file(
    path: Path, rank: int, builder: BlockBuilder, lines: list[int], strict: bool
) -> tuple[float, float]:
    """Decode one rank file into ``builder`` (see :func:`_parse_columns`)."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return _parse_columns(fh, rank, builder, lines, strict, path.name)


def _check_rows(
    block: EventBlock, num_ranks: int, lines: list[int], rank_files: dict[int, Path]
) -> None:
    """Validate decoded rows; a bad row names its rank file and line."""
    try:
        block.check(num_ranks, _WORLD_COMMS)
    except RowError as err:
        rank = int(block.caller[err.row])
        raise ParseError(lines[err.row], str(err), rank_files[rank].name) from None


def _shifted(block: EventBlock, offset: float) -> EventBlock:
    """``block`` with ``offset`` subtracted from its walltimes."""
    return replace(
        block, t_enter=block.t_enter - offset, t_leave=block.t_leave - offset
    )


def load_dumpi2ascii_dir(
    directory: str | Path,
    app: str,
    strict: bool = True,
) -> Trace:
    """Assemble a trace from a directory of dumpi2ascii per-rank files.

    Files are matched by the ``<prefix>-<rank>.txt`` convention; the rank
    count is the number of files, the execution time the span between the
    earliest and latest walltime across ranks.  The result is a block-native
    trace: every rank's rows go into one builder, then are stably sorted by
    enter time and normalized to start at walltime zero.
    """
    directory = Path(directory)
    rank_files = _rank_files(directory)
    num_ranks = len(rank_files)

    builder = BlockBuilder()
    lines: list[int] = []
    t_min = float("inf")
    t_max = float("-inf")
    for rank in range(num_ranks):
        rows = len(builder)
        lo, hi = _parse_rank_file(rank_files[rank], rank, builder, lines, strict)
        if len(builder) > rows:
            t_min = min(t_min, lo)
            t_max = max(t_max, hi)
    duration = max(t_max - t_min, 1e-9) if t_min <= t_max else 1e-9

    meta = TraceMetadata(app=app, num_ranks=num_ranks, execution_time=duration)
    block = builder.to_block()
    _check_rows(block, num_ranks, lines, rank_files)
    order = np.argsort(block.t_enter, kind="stable")
    return Trace.from_blocks(
        meta, [_shifted(block.take(order), t_min)], validate=False
    )


def stream_dumpi2ascii_dir(
    directory: str | Path,
    app: str,
    strict: bool = True,
    chunk_bytes: int | None = None,
):
    """Chunked, re-iterable variant of :func:`load_dumpi2ascii_dir`.

    Returns a :class:`~repro.core.stream.BlockStream` that parses one rank
    file at a time and emits its records as byte-bounded chunks, so peak
    memory is one rank's decoded columns plus one chunk — the
    whole-directory trace is never materialized.  The directory is parsed
    twice: once up front for the walltime extent the metadata needs (and
    to validate every row), and once more per consuming pass.

    The one intentional difference from the in-memory loader: records are
    *not* globally time-sorted — they arrive rank-major, chronological
    within each rank, with walltimes normalized to the same global zero.
    The event *multiset* is identical, so every order-insensitive consumer
    (traffic matrices, locality metrics, simulation feeds) produces
    bit-identical results on either path; tests pin the matrix equality.
    """
    from ..core.stream import DEFAULT_CHUNK_BYTES, BlockStream, rechunk_blocks

    if chunk_bytes is None:
        chunk_bytes = DEFAULT_CHUNK_BYTES
    directory = Path(directory)
    rank_files = _rank_files(directory)
    num_ranks = len(rank_files)

    t_min = float("inf")
    t_max = float("-inf")
    bad_row: ParseError | None = None
    for rank in range(num_ranks):
        builder = BlockBuilder()
        lines: list[int] = []
        lo, hi = _parse_rank_file(rank_files[rank], rank, builder, lines, strict)
        if len(builder):
            try:
                _check_rows(builder.to_block(), num_ranks, lines, rank_files)
            except ParseError as err:
                bad_row = bad_row or err
            t_min = min(t_min, lo)
            t_max = max(t_max, hi)
    if bad_row is not None:
        # Raised once every file parsed, in the in-memory loader's order.
        raise bad_row
    duration = max(t_max - t_min, 1e-9) if t_min <= t_max else 1e-9
    offset = t_min if t_min <= t_max else 0.0
    meta = TraceMetadata(app=app, num_ranks=num_ranks, execution_time=duration)

    def rank_blocks():
        for rank in range(num_ranks):
            builder = BlockBuilder()
            _parse_rank_file(rank_files[rank], rank, builder, [], strict)
            if len(builder):
                yield _shifted(builder.to_block(), offset)

    return BlockStream(meta, lambda: rechunk_blocks(rank_blocks(), chunk_bytes))
