"""The repro-dumpi ASCII trace format: writer, parser, repository."""

from .ascii_dumpi import (
    UnsupportedCommunicatorError,
    load_dumpi2ascii_dir,
    parse_rank_stream,
    stream_dumpi2ascii_dir,
)
from .format import FORMAT_VERSION, MAGIC
from .parser import ParseError, load_trace, loads_trace, read_trace
from .repository import TraceKey, TraceRepository
from .writer import dump_trace, dumps_trace, write_trace

__all__ = [
    "UnsupportedCommunicatorError",
    "load_dumpi2ascii_dir",
    "parse_rank_stream",
    "stream_dumpi2ascii_dir",
    "FORMAT_VERSION",
    "MAGIC",
    "ParseError",
    "load_trace",
    "loads_trace",
    "read_trace",
    "TraceKey",
    "TraceRepository",
    "dump_trace",
    "dumps_trace",
    "write_trace",
]
