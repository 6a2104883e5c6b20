"""Traffic-matrix extraction and trace statistics."""

from .matrix import CommMatrix, CommMatrixBuilder, matrix_from_trace
from .stats import TraceStats, trace_stats

__all__ = [
    "CommMatrix",
    "CommMatrixBuilder",
    "matrix_from_trace",
    "TraceStats",
    "trace_stats",
]
