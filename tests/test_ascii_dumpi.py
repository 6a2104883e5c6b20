"""Tests for the dumpi2ascii converter (real SST-dumpi text output)."""

import io
import re
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.stats import trace_stats
from repro.dumpi.ascii_dumpi import (
    UnsupportedCommunicatorError,
    load_dumpi2ascii_dir,
    parse_rank_stream,
    stream_dumpi2ascii_dir,
)
from repro.dumpi.format import ParseError

SEND = textwrap.dedent(
    """\
    MPI_Send entering at walltime 100.50, cputime 0.2 seconds in thread 0.
    int count=4096
    MPI_Datatype datatype=2 (MPI_CHAR)
    int dest=5
    int tag=7
    MPI_Comm comm=2 (MPI_COMM_WORLD)
    MPI_Send returning at walltime 100.60, cputime 0.3 seconds in thread 0.
    """
)

RECV = textwrap.dedent(
    """\
    MPI_Recv entering at walltime 101.00, cputime 0.4 seconds in thread 0.
    int count=128
    MPI_Datatype datatype=11 (MPI_DOUBLE)
    int source=2
    int tag=7
    MPI_Comm comm=2 (MPI_COMM_WORLD)
    MPI_Status* status=<IGNORED>
    MPI_Recv returning at walltime 101.10, cputime 0.5 seconds in thread 0.
    """
)

ALLREDUCE = textwrap.dedent(
    """\
    MPI_Allreduce entering at walltime 102.00, cputime 0.6 seconds in thread 0.
    int count=16
    MPI_Datatype datatype=11 (MPI_DOUBLE)
    MPI_Op op=1 (MPI_SUM)
    MPI_Comm comm=2 (MPI_COMM_WORLD)
    MPI_Allreduce returning at walltime 102.20, cputime 0.7 seconds in thread 0.
    """
)

BOOKKEEPING = textwrap.dedent(
    """\
    MPI_Comm_rank entering at walltime 99.00, cputime 0.0 seconds in thread 0.
    MPI_Comm comm=2 (MPI_COMM_WORLD)
    int* rank=0
    MPI_Comm_rank returning at walltime 99.01, cputime 0.0 seconds in thread 0.
    """
)

SUBCOMM = textwrap.dedent(
    """\
    MPI_Bcast entering at walltime 103.00, cputime 0.8 seconds in thread 0.
    int count=4
    MPI_Datatype datatype=4 (MPI_INT)
    int root=0
    MPI_Comm comm=5 (user-defined-comm)
    MPI_Bcast returning at walltime 103.10, cputime 0.9 seconds in thread 0.
    """
)


def parse(text, rank=0, strict=True):
    return parse_rank_stream(io.StringIO(text), rank, strict)


class TestParseRankStream:
    def test_send_record(self):
        events, lo, hi = parse(SEND, rank=3)
        assert len(events) == 1
        ev = events[0]
        assert ev.caller == 3 and ev.peer == 5
        assert ev.count == 4096 and ev.dtype == "MPI_CHAR" and ev.tag == 7
        assert ev.is_send
        assert (lo, hi) == (100.50, 100.60)

    def test_recv_record_kept_but_not_send(self):
        events, _, _ = parse(RECV, rank=1)
        assert len(events) == 1
        assert not events[0].is_send
        assert events[0].peer == 2
        assert events[0].dtype == "MPI_DOUBLE"

    def test_collective(self):
        events, _, _ = parse(ALLREDUCE)
        assert len(events) == 1
        ev = events[0]
        assert ev.func == "MPI_Allreduce" and ev.count == 16

    def test_bookkeeping_calls_skipped(self):
        events, _, _ = parse(BOOKKEEPING + SEND)
        assert len(events) == 1
        assert events[0].func == "MPI_Send"

    def test_unknown_communicator_strict(self):
        with pytest.raises(UnsupportedCommunicatorError):
            parse(SUBCOMM, strict=True)

    def test_unknown_communicator_lenient_skips(self):
        events, _, _ = parse(SUBCOMM + SEND, strict=False)
        assert [ev.func for ev in events] == ["MPI_Send"]

    def test_empty_stream(self):
        events, lo, hi = parse("")
        assert events == [] and lo == hi == 0.0

    def test_mixed_stream_order_and_span(self):
        events, lo, hi = parse(SEND + RECV + ALLREDUCE)
        assert len(events) == 3
        assert (lo, hi) == (100.50, 102.20)

    def test_negative_peer_skipped(self):
        text = SEND.replace("int dest=5", "int dest=-1")  # MPI_PROC_NULL
        events, _, _ = parse(text)
        assert events == []


class TestDirectoryLoader:
    def _write(self, directory, rank, text):
        (directory / f"dumpi-2020-{rank:04d}.txt").write_text(text)

    def test_assembles_trace(self, tmp_path):
        self._write(tmp_path, 0, SEND + ALLREDUCE)  # dest=5 needs 6 ranks
        self._write(tmp_path, 1, RECV + ALLREDUCE)
        self._write(tmp_path, 2, ALLREDUCE)
        self._write(tmp_path, 3, ALLREDUCE)
        self._write(tmp_path, 4, ALLREDUCE)
        self._write(tmp_path, 5, ALLREDUCE)
        trace = load_dumpi2ascii_dir(tmp_path, app="real_app")
        assert trace.meta.num_ranks == 6
        assert trace.meta.app == "real_app"
        stats = trace_stats(trace)
        assert stats.p2p_bytes == 4096
        # 6 callers x 16 doubles x 8 bytes
        assert stats.collective_logical_bytes == 6 * 16 * 8

    def test_times_normalized(self, tmp_path):
        for rank in range(6):
            self._write(tmp_path, rank, SEND if rank == 0 else "")
        trace = load_dumpi2ascii_dir(tmp_path, app="x")
        assert trace.events[0].t_enter == 0.0
        assert trace.meta.execution_time == pytest.approx(0.1)

    def test_missing_rank_detected(self, tmp_path):
        self._write(tmp_path, 0, SEND + SEND)
        self._write(tmp_path, 2, ALLREDUCE)
        with pytest.raises(ValueError, match="missing rank"):
            load_dumpi2ascii_dir(tmp_path, app="x")

    def test_empty_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dumpi2ascii_dir(tmp_path, app="x")

    def test_pipeline_through_metrics(self, tmp_path):
        """Converted traces run through the normal analysis unchanged."""
        from repro.comm.matrix import matrix_from_trace
        from repro.metrics.peers import peers

        for rank in range(6):
            body = SEND if rank == 0 else ALLREDUCE
            self._write(tmp_path, rank, body)
        trace = load_dumpi2ascii_dir(tmp_path, app="x")
        matrix = matrix_from_trace(trace, include_collectives=False)
        assert peers(matrix) == 1


def _send(dest, t=10.0):
    return (
        f"MPI_Send entering at walltime {t:.2f}, cputime 0.1 seconds in thread 0.\n"
        "int count=64\n"
        "MPI_Datatype datatype=2 (MPI_CHAR)\n"
        f"int dest={dest}\n"
        "int tag=0\n"
        "MPI_Comm comm=2 (MPI_COMM_WORLD)\n"
        f"MPI_Send returning at walltime {t + 0.01:.2f}, cputime 0.1 seconds in thread 0.\n"
    )


def _recv(source, t=10.5):
    return _send(source, t).replace("MPI_Send", "MPI_Recv").replace("dest=", "source=")


#: Three valid rank files: every rank sends, receives and reduces.
RANK_BODIES = [
    _send(1) + _recv(2) + ALLREDUCE,
    _send(2) + _recv(0) + ALLREDUCE,
    _send(0) + _recv(1) + ALLREDUCE + BOOKKEEPING,
]


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@st.composite
def corrupted_rank_files(draw):
    """RANK_BODIES with one p2p record made invalid.

    Returns ``(bodies, rank, first_line, last_line)``: the error must name
    that rank's file and a line of the corrupted record.
    """
    rank = draw(st.integers(0, 2))
    lines = RANK_BODIES[rank].splitlines(keepends=True)
    first = draw(st.sampled_from((0, 7)))  # the send or the receive record
    last = first + 6
    how = draw(st.sampled_from(("truncate", "drop", "rank", "float")))
    if how == "truncate":  # cut before the return line's walltime ends
        head = "".join(lines[: first + 1])
        body = "".join(lines[first + 1 : last + 1])
        cut = draw(st.integers(0, body.index(",", body.index("returning"))))
        text = head + body[:cut]
    else:
        if how == "drop":
            del lines[draw(st.sampled_from((first + 1, first + 3)))]
            last -= 1
        elif how == "rank":
            key = "dest" if "Send" in lines[first] else "source"
            lines[first + 3] = f"int {key}={draw(st.integers(3, 10**6))}\n"
        else:
            bad = draw(
                st.text(alphabet="0123456789.eE+-x", max_size=8).filter(
                    lambda s: not _is_float(s)
                )
            )
            at = draw(st.sampled_from((first, last)))
            lines[at] = re.sub(r"walltime [^,]+,", f"walltime {bad},", lines[at])
        text = "".join(lines)
    bodies = list(RANK_BODIES)
    bodies[rank] = text
    return bodies, rank, first + 1, last + 1


class TestCorruptedRankFiles:
    def test_valid_base_loads(self, tmp_path):
        for rank, body in enumerate(RANK_BODIES):
            (tmp_path / f"dumpi-2020-{rank:04d}.txt").write_text(body)
        trace = load_dumpi2ascii_dir(tmp_path, app="x")
        assert len(trace) == 9 and trace.has_native_blocks

    @settings(max_examples=150, deadline=None)
    @given(corrupted_rank_files())
    def test_corruption_names_file_and_line(self, case):
        bodies, rank, first, last = case
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            for r, body in enumerate(bodies):
                (directory / f"dumpi-2020-{r:04d}.txt").write_text(body)
            for load in (load_dumpi2ascii_dir, stream_dumpi2ascii_dir):
                with pytest.raises(ParseError) as err:
                    load(directory, app="x")
                assert str(err.value).startswith(f"dumpi-2020-{rank:04d}.txt: line ")
                assert first <= err.value.lineno <= last

    def test_out_of_range_dest_names_file_and_line(self, tmp_path):
        (tmp_path / "dumpi-2020-0000.txt").write_text(BOOKKEEPING + _send(1))
        (tmp_path / "dumpi-2020-0001.txt").write_text(_send(0) + _send(7))
        with pytest.raises(ParseError) as err:
            load_dumpi2ascii_dir(tmp_path, app="x")
        assert str(err.value) == (
            "dumpi-2020-0001.txt: line 8: event peer 7 out of range for 2-rank trace"
        )
