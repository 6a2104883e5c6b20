"""The repro-dumpi ASCII trace format.

SST-dumpi stores one record per MPI call with wall-clock enter/leave times
and full call parameters; ``dumpi2ascii`` renders them as text.  This module
defines an equivalent line-oriented ASCII format so the analysis pipeline
can genuinely run from serialized traces:

Header (``%``-prefixed, order fixed)::

    %repro-dumpi 1
    %app AMG
    %ranks 27
    %time 0.156
    %variant b            (optional)
    %derived 1            (optional; app uses opaque derived datatypes)
    %dtype NAME size=N    (optional; one per non-predefined datatype)
    %comm NAME members=0,1,2   (optional; one per non-world communicator)

Records (one per line)::

    P2P  MPI_Isend caller=3 peer=5 count=1024 dtype=MPI_BYTE tag=0 \
         comm=MPI_COMM_WORLD t=0.001,0.002 repeat=50
    COLL MPI_Allreduce caller=3 count=64 dtype=MPI_BYTE root=0 \
         comm=MPI_COMM_WORLD t=0.003,0.004 repeat=50

``repeat`` compresses identical back-to-back calls (see
:mod:`repro.core.events`); ``repeat=1`` may be omitted.  Lines starting with
``#`` and blank lines are ignored.
"""

from __future__ import annotations

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "P2P_TAG",
    "COLL_TAG",
    "ParseError",
    "format_float",
]

MAGIC = "%repro-dumpi"
FORMAT_VERSION = 1
P2P_TAG = "P2P"
COLL_TAG = "COLL"


class ParseError(ValueError):
    """A malformed trace file, with the offending line number.

    ``source`` names the file when one trace spans several (the
    dumpi2ascii rank files).
    """

    def __init__(self, lineno: int, message: str, source: str | None = None) -> None:
        where = f"line {lineno}: {message}"
        super().__init__(f"{source}: {where}" if source else where)
        self.lineno = lineno


def format_float(x: float) -> str:
    """Compact, round-trip-exact float rendering for timestamps."""
    return repr(float(x))
