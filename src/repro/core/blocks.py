"""Columnar (structure-of-arrays) event storage.

An :class:`EventBlock` holds a run of trace records as parallel NumPy
arrays instead of one Python object per MPI call.  The columnar layout is
what makes the front-end scale: synthetic generators emit whole channel
sets as arrays, the collective translator expands entire blocks at once,
and the traffic-matrix builder consumes the columns without ever touching
an individual message from Python.

The representation is **lossless** with respect to the event objects of
:mod:`repro.core.events`: :meth:`EventBlock.from_events` /
:meth:`EventBlock.to_events` round-trip every field (including tags,
function names, timestamps, and repeat compression), so the legacy
``Trace.events`` view can always be materialized bit-for-bit.

Row encoding
------------

``kind`` selects the record family per row:

- :data:`KIND_P2P_SEND` / :data:`KIND_P2P_RECV` — point-to-point records;
  ``peer``/``tag``/``func_id`` are meaningful, ``op`` is ``-1`` and
  ``root`` is 0.
- :data:`KIND_COLLECTIVE` — collective records; ``op`` indexes
  :data:`OPS`, ``root`` is the communicator-local root, ``peer`` is ``-1``
  and ``func_id`` is ``-1``.

String-valued fields (datatype, communicator, MPI function name) are
interned per block: the integer columns ``dtype_id`` / ``comm_id`` /
``func_id`` index the block's ``dtype_names`` / ``comm_names`` /
``func_names`` tables.

Every block built from records — parsed text lines or event objects —
goes through one :class:`BlockBuilder`, which appends rows and interns
the names as it goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .events import (
    CollectiveEvent,
    CollectiveOp,
    Direction,
    P2PEvent,
    TraceEvent,
)

__all__ = [
    "KIND_P2P_SEND",
    "KIND_P2P_RECV",
    "KIND_COLLECTIVE",
    "OPS",
    "OP_CODE",
    "RowError",
    "EventBlock",
    "BlockBuilder",
]

#: ``kind`` column values.
KIND_P2P_SEND = 0
KIND_P2P_RECV = 1
KIND_COLLECTIVE = 2

#: Stable collective-op encoding: ``op`` column value ``i`` means ``OPS[i]``.
OPS: tuple[CollectiveOp, ...] = tuple(CollectiveOp)
OP_CODE: dict[CollectiveOp, int] = {op: i for i, op in enumerate(OPS)}

_KIND_OF_DIRECTION = {
    Direction.SEND: KIND_P2P_SEND,
    Direction.RECV: KIND_P2P_RECV,
}
_DIRECTION_OF_KIND = {
    KIND_P2P_SEND: Direction.SEND,
    KIND_P2P_RECV: Direction.RECV,
}


class _Interner:
    """Assigns dense integer ids to strings, preserving first-seen order."""

    __slots__ = ("_ids",)

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}

    def __call__(self, name: str) -> int:
        ids = self._ids
        idx = ids.get(name)
        if idx is None:
            idx = len(ids)
            ids[name] = idx
        return idx

    def names(self) -> tuple[str, ...]:
        return tuple(self._ids)


class RowError(ValueError):
    """A block invariant violated; ``row`` is the first offending row."""

    def __init__(self, row: int, message: str) -> None:
        super().__init__(message)
        self.row = row


@dataclass
class EventBlock:
    """A run of trace records stored column-wise.

    All array fields are parallel; row ``i`` is one (possibly repeated) MPI
    call record.  Blocks are immutable by convention — consumers may keep
    references to the columns.
    """

    kind: np.ndarray  # uint8[k]
    caller: np.ndarray  # int64[k]
    peer: np.ndarray  # int64[k]   (-1 on collective rows)
    count: np.ndarray  # int64[k]
    dtype_id: np.ndarray  # int32[k]  -> dtype_names
    op: np.ndarray  # int16[k]  -> OPS  (-1 on p2p rows)
    root: np.ndarray  # int64[k]  (0 on p2p rows)
    comm_id: np.ndarray  # int32[k]  -> comm_names
    tag: np.ndarray  # int64[k]  (0 on collective rows)
    func_id: np.ndarray  # int16[k]  -> func_names  (-1 on collective rows)
    repeat: np.ndarray  # int64[k]
    t_enter: np.ndarray  # float64[k]
    t_leave: np.ndarray  # float64[k]
    dtype_names: tuple[str, ...] = ("MPI_BYTE",)
    comm_names: tuple[str, ...] = ("MPI_COMM_WORLD",)
    func_names: tuple[str, ...] = field(default_factory=tuple)

    _COLUMN_DTYPES = {
        "kind": np.uint8,
        "caller": np.int64,
        "peer": np.int64,
        "count": np.int64,
        "dtype_id": np.int32,
        "op": np.int16,
        "root": np.int64,
        "comm_id": np.int32,
        "tag": np.int64,
        "func_id": np.int16,
        "repeat": np.int64,
        "t_enter": np.float64,
        "t_leave": np.float64,
    }

    def __post_init__(self) -> None:
        k = None
        for name, dtype in self._COLUMN_DTYPES.items():
            arr = np.asarray(getattr(self, name), dtype=dtype)
            setattr(self, name, arr)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} must be one-dimensional")
            if k is None:
                k = len(arr)
            elif len(arr) != k:
                raise ValueError("EventBlock columns must be parallel arrays")
        self.dtype_names = tuple(self.dtype_names)
        self.comm_names = tuple(self.comm_names)
        self.func_names = tuple(self.func_names)

    # -- shape / totals -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def num_calls(self) -> int:
        """Repeat-expanded number of MPI calls in this block."""
        return int(self.repeat.sum())

    # -- row masks ----------------------------------------------------------

    def p2p_send_mask(self) -> np.ndarray:
        return self.kind == KIND_P2P_SEND

    def collective_mask(self) -> np.ndarray:
        return self.kind == KIND_COLLECTIVE

    # -- validation ---------------------------------------------------------

    def check(self, num_ranks: int, known_comms) -> None:
        """Vectorized equivalent of per-event ``Trace.add`` validation.

        Raises :class:`RowError` for the first row that violates an
        invariant of :class:`~repro.core.events` ``__post_init__`` or
        ``Trace._validate``, so a parser can map the row to its line.
        """
        if len(self) == 0:
            return
        p2p = self.kind != KIND_COLLECTIVE
        coll = ~p2p
        known = np.array([n in known_comms for n in self.comm_names], dtype=bool)
        rules = (
            (self.caller < 0, "ranks must be non-negative"),
            (
                self.caller >= num_ranks,
                "event caller {caller} out of range for {n}-rank trace",
            ),
            (p2p & (self.peer < 0), "ranks must be non-negative"),
            (
                p2p & (self.peer >= num_ranks),
                "event peer {peer} out of range for {n}-rank trace",
            ),
            (self.count < 0, "count must be non-negative"),
            (self.repeat < 1, "repeat must be >= 1"),
            (self.root < 0, "root rank must be non-negative"),
            (
                coll & ((self.op < 0) | (self.op >= len(OPS))),
                "collective rows carry an unknown op code",
            ),
            (
                coll
                & (self.op == OP_CODE[CollectiveOp.BARRIER])
                & (self.count != 0),
                "MPI_Barrier carries no payload",
            ),
            (~known[self.comm_id], "event references unknown communicator {comm!r}"),
        )
        first = None
        for bad, message in rules:
            if bad.any():
                row = int(bad.argmax())
                if first is None or row < first[0]:
                    first = (row, message)
        if first is not None:
            row, message = first
            raise RowError(
                row,
                message.format(
                    caller=int(self.caller[row]),
                    peer=int(self.peer[row]),
                    comm=self.comm_names[self.comm_id[row]],
                    n=num_ranks,
                ),
            )

    def take(self, index) -> "EventBlock":
        """Rows ``index`` selects (a slice gives views, an array copies)."""
        return replace(
            self,
            **{name: getattr(self, name)[index] for name in self._COLUMN_DTYPES},
        )

    # -- conversion ---------------------------------------------------------

    @staticmethod
    def from_events(events) -> "EventBlock":
        """Build a block from a sequence of event objects (lossless)."""
        builder = BlockBuilder()
        for ev in events:
            if isinstance(ev, P2PEvent):
                builder.add_p2p(
                    ev.direction, ev.caller, ev.peer, ev.count, ev.dtype,
                    ev.func, ev.tag, ev.comm, ev.t_enter, ev.t_leave, ev.repeat,
                )
            elif isinstance(ev, CollectiveEvent):
                builder.add_collective(
                    ev.op, ev.caller, ev.count, ev.dtype, ev.root, ev.comm,
                    ev.t_enter, ev.t_leave, ev.repeat,
                )
            else:
                raise TypeError(f"cannot blockify event of type {type(ev)}")
        return builder.to_block()

    def to_events(self) -> list[TraceEvent]:
        """Materialize the legacy event objects, row order preserved."""
        # Scalarize columns once; constructing half a million dataclasses is
        # the unavoidable cost of the legacy view, but attribute-by-attribute
        # NumPy indexing would triple it.
        kind = self.kind.tolist()
        caller = self.caller.tolist()
        peer = self.peer.tolist()
        count = self.count.tolist()
        dtype_id = self.dtype_id.tolist()
        op = self.op.tolist()
        root = self.root.tolist()
        comm_id = self.comm_id.tolist()
        tag = self.tag.tolist()
        func_id = self.func_id.tolist()
        repeat = self.repeat.tolist()
        t_enter = self.t_enter.tolist()
        t_leave = self.t_leave.tolist()
        dtype_names = self.dtype_names
        comm_names = self.comm_names
        func_names = self.func_names

        events: list[TraceEvent] = []
        append = events.append
        for i in range(len(kind)):
            if kind[i] == KIND_COLLECTIVE:
                append(
                    CollectiveEvent(
                        caller=caller[i],
                        op=OPS[op[i]],
                        count=count[i],
                        dtype=dtype_names[dtype_id[i]],
                        root=root[i],
                        comm=comm_names[comm_id[i]],
                        t_enter=t_enter[i],
                        t_leave=t_leave[i],
                        repeat=repeat[i],
                    )
                )
            else:
                append(
                    P2PEvent(
                        caller=caller[i],
                        peer=peer[i],
                        count=count[i],
                        dtype=dtype_names[dtype_id[i]],
                        direction=_DIRECTION_OF_KIND[kind[i]],
                        func=func_names[func_id[i]],
                        tag=tag[i],
                        comm=comm_names[comm_id[i]],
                        t_enter=t_enter[i],
                        t_leave=t_leave[i],
                        repeat=repeat[i],
                    )
                )
        return events


class BlockBuilder:
    """Row-by-row accumulator for one :class:`EventBlock`.

    The one way records become columns: the repro-dumpi and dumpi2ascii
    parsers append each decoded line, :meth:`EventBlock.from_events` each
    event object.  Names are interned in first-seen order, so the name
    tables match across every producer.
    """

    __slots__ = ("_rows", "_dtypes", "_comms", "_funcs")

    def __init__(self) -> None:
        self._rows: list[tuple] = []
        self._dtypes = _Interner()
        self._comms = _Interner()
        self._funcs = _Interner()

    def __len__(self) -> int:
        return len(self._rows)

    def add_p2p(
        self, direction: Direction, caller: int, peer: int, count: int,
        dtype: str, func: str, tag: int = 0, comm: str = "MPI_COMM_WORLD",
        t_enter: float = 0.0, t_leave: float = 0.0, repeat: int = 1,
    ) -> None:
        self._rows.append((
            _KIND_OF_DIRECTION[direction], caller, peer, count,
            self._dtypes(dtype), -1, 0, self._comms(comm), tag,
            self._funcs(func), repeat, t_enter, t_leave,
        ))

    def add_collective(
        self, op: CollectiveOp, caller: int, count: int = 0,
        dtype: str = "MPI_BYTE", root: int = 0, comm: str = "MPI_COMM_WORLD",
        t_enter: float = 0.0, t_leave: float = 0.0, repeat: int = 1,
    ) -> None:
        self._rows.append((
            KIND_COLLECTIVE, caller, -1, count, self._dtypes(dtype),
            OP_CODE[op], root, self._comms(comm), 0, -1, repeat, t_enter,
            t_leave,
        ))

    def to_block(self) -> EventBlock:
        """The appended rows as one block, in append order."""
        dtypes = EventBlock._COLUMN_DTYPES.values()
        try:
            columns = [
                np.array(col, dtype=dt) for col, dt in zip(zip(*self._rows), dtypes)
            ] or [np.zeros(0, dtype=dt) for dt in dtypes]
        except OverflowError:
            row = next(
                i for i, values in enumerate(self._rows)
                if any(isinstance(v, int) and not -(2**63) <= v < 2**63 for v in values)
            )
            raise RowError(row, "integer field outside the 64-bit range") from None
        return EventBlock(
            *columns,
            dtype_names=self._dtypes.names() or ("MPI_BYTE",),
            comm_names=self._comms.names() or ("MPI_COMM_WORLD",),
            func_names=self._funcs.names(),
        )
