"""Parse repro-dumpi ASCII traces.

The parser is strict about structure (magic line, required header fields,
known record tags) but tolerant about record order and unknown datatypes —
an unknown datatype name resolves through the registry's opaque 1-byte
convention, exactly how the paper treats underdocumented derived types.

Records go straight into one :class:`~repro.core.blocks.BlockBuilder`, so
the parsed trace is block-native and no per-record event object is made.
Every malformed line raises :class:`ParseError` naming its line number;
a record that breaks a trace invariant (a rank out of range, a negative
count, a barrier with a payload, ...) is caught by
:meth:`~repro.core.blocks.EventBlock.check` and mapped back to its line.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO

from ..core.blocks import BlockBuilder, RowError
from ..core.communicator import Communicator, CommunicatorTable
from ..core.datatypes import DatatypeRegistry, MPIDatatype
from ..core.events import CollectiveOp, P2P_CALLS
from ..core.trace import Trace, TraceMetadata
from .format import COLL_TAG, FORMAT_VERSION, MAGIC, P2P_TAG, ParseError

__all__ = ["ParseError", "read_trace", "load_trace", "loads_trace"]

_OPS_BY_NAME = {op.value: op for op in CollectiveOp}


def _parse_kv(parts: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in parts:
        if "=" not in part:
            raise ValueError(f"expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        out[key] = value
    return out


def _require(kv: dict[str, str], key: str) -> str:
    try:
        return kv[key]
    except KeyError:
        raise ValueError(f"missing required field {key!r}") from None


def _parse_times(kv: dict[str, str]) -> tuple[float, float]:
    raw = kv.get("t", "0,0")
    try:
        enter_s, leave_s = raw.split(",")
        return float(enter_s), float(leave_s)
    except ValueError:
        raise ValueError(f"malformed timestamp pair {raw!r}") from None


def _add_record(builder: BlockBuilder, parts: list[str]) -> None:
    """Decode one record line into a builder row."""
    tag = parts[0]
    if tag not in (P2P_TAG, COLL_TAG):
        raise ValueError(f"unknown record tag {tag!r}")
    if len(parts) < 2:
        raise ValueError(f"truncated {tag} record")
    func = parts[1]
    kv = _parse_kv(parts[2:])
    t_enter, t_leave = _parse_times(kv)
    if tag == P2P_TAG:
        direction = P2P_CALLS.get(func)
        if direction is None:
            raise ValueError(f"unknown p2p function {func!r}")
        builder.add_p2p(
            direction,
            int(_require(kv, "caller")),
            int(_require(kv, "peer")),
            int(_require(kv, "count")),
            _require(kv, "dtype"),
            func,
            int(kv.get("tag", "0")),
            kv.get("comm", "MPI_COMM_WORLD"),
            t_enter,
            t_leave,
            int(kv.get("repeat", "1")),
        )
    else:
        op = _OPS_BY_NAME.get(func)
        if op is None:
            raise ValueError(f"unknown collective {func!r}")
        builder.add_collective(
            op,
            int(_require(kv, "caller")),
            int(kv.get("count", "0")),
            kv.get("dtype", "MPI_BYTE"),
            int(kv.get("root", "0")),
            kv.get("comm", "MPI_COMM_WORLD"),
            t_enter,
            t_leave,
            int(kv.get("repeat", "1")),
        )


def _positive(header: dict[str, tuple[str, int]], key: str, convert):
    """A required positive number header; errors name its line."""
    if key not in header:
        raise ParseError(1, f"missing %{key} header")
    raw, lineno = header[key]
    try:
        value = convert(raw)
    except ValueError:
        value = 0
    if not value > 0:
        raise ParseError(lineno, f"%{key} must be a positive number, got {raw!r}")
    return value


def read_trace(stream: TextIO) -> Trace:
    """Parse one trace from an open text stream."""
    first = stream.readline()
    if not first.startswith(MAGIC):
        raise ParseError(1, f"not a repro-dumpi trace (expected {MAGIC!r} magic)")
    try:
        version = int(first.split()[1])
    except (IndexError, ValueError):
        raise ParseError(1, "malformed magic line") from None
    if version != FORMAT_VERSION:
        raise ParseError(1, f"unsupported format version {version}")

    header: dict[str, tuple[str, int]] = {}
    datatypes = DatatypeRegistry()
    comms: list[tuple[int, str, tuple[int, ...]]] = []
    builder = BlockBuilder()
    lines: list[int] = []  # source line of each builder row
    lineno = 1
    try:
        for lineno, line in enumerate(stream, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("%"):
                parts = line[1:].split()
                key = parts[0]
                if key == "dtype":
                    size = int(_require(_parse_kv(parts[2:]), "size"))
                    datatypes.commit(MPIDatatype(parts[1], size, derived=True))
                elif key == "comm":
                    members = _require(_parse_kv(parts[2:]), "members")
                    comms.append(
                        (lineno, parts[1], tuple(int(x) for x in members.split(",")))
                    )
                else:
                    header[key] = (parts[1] if len(parts) > 1 else "", lineno)
            else:
                _add_record(builder, line.split())
                lines.append(lineno)

        if "app" not in header:
            raise ParseError(1, "missing %app header")
        meta = TraceMetadata(
            app=header["app"][0],
            num_ranks=_positive(header, "ranks", int),
            execution_time=_positive(header, "time", float),
            variant=header.get("variant", ("", 0))[0],
            uses_derived_types=header.get("derived", ("0", 0))[0] == "1",
        )
        communicators = CommunicatorTable.for_world(meta.num_ranks)
        for lineno, name, members in comms:
            communicators.add(Communicator(name, members))
    except ParseError:
        raise
    except IndexError:
        raise ParseError(lineno, "truncated line") from None
    except ValueError as err:
        raise ParseError(lineno, str(err)) from None

    try:
        return Trace.from_blocks(meta, [builder.to_block()], datatypes, communicators)
    except RowError as err:
        raise ParseError(lines[err.row], str(err)) from None


def load_trace(path: str | Path) -> Trace:
    """Parse a trace file."""
    with open(path, "r", encoding="utf-8") as fh:
        return read_trace(fh)


def loads_trace(text: str) -> Trace:
    """Parse a trace from a string."""
    return read_trace(io.StringIO(text))
