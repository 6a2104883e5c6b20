"""Tests for the repro-dumpi ASCII format: writer, parser, repository."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import generate_trace, smallest_configurations
from repro.comm.stats import trace_stats
from repro.core.communicator import Communicator
from repro.core.datatypes import MPIDatatype
from repro.core.events import CollectiveEvent, CollectiveOp, Direction, P2PEvent
from repro.core.trace import Trace
from repro.dumpi.parser import ParseError, load_trace, loads_trace
from repro.dumpi.repository import TraceKey, TraceRepository
from repro.dumpi.writer import dump_trace, dumps_trace

from helpers import make_trace

#: sha256 of ``dumps_trace`` per app's smallest configuration, recorded
#: from the per-event writer the columnar one replaced.
DIGESTS = Path(__file__).with_name("dumps_digests.json")


def roundtrip(trace):
    return loads_trace(dumps_trace(trace))


class TestRoundTrip:
    def test_metadata(self, mixed_trace):
        back = roundtrip(mixed_trace)
        assert back.meta == mixed_trace.meta

    def test_events_preserved(self, mixed_trace):
        back = roundtrip(mixed_trace)
        assert back.events == mixed_trace.events

    def test_recv_events(self):
        trace = make_trace(2)
        trace.add(
            P2PEvent(
                caller=1, peer=0, count=10, dtype="MPI_INT",
                direction=Direction.RECV, func="MPI_Irecv", tag=42,
            )
        )
        back = roundtrip(trace)
        assert back.events == trace.events

    def test_derived_datatype_size_preserved(self):
        trace = make_trace(2)
        trace.datatypes.commit(MPIDatatype("APP_ROW_T", 4096, derived=True))
        trace.add(P2PEvent(caller=0, peer=1, count=3, dtype="APP_ROW_T"))
        back = roundtrip(trace)
        assert back.datatypes.size_of("APP_ROW_T") == 4096
        assert back.p2p_bytes() == trace.p2p_bytes()

    def test_sub_communicator_preserved(self):
        trace = make_trace(6)
        assert trace.communicators is not None
        trace.communicators.add(Communicator("HALF", (0, 2, 4)))
        trace.add(
            CollectiveEvent(caller=2, op=CollectiveOp.ALLGATHER, count=5, comm="HALF")
        )
        back = roundtrip(trace)
        assert back.communicators is not None
        assert back.communicators.get("HALF").members == (0, 2, 4)
        assert not back.uses_only_global_communicators

    def test_timestamps_exact(self):
        trace = make_trace(2)
        trace.add(
            P2PEvent(
                caller=0, peer=1, count=1, dtype="MPI_BYTE",
                t_enter=0.12345678901234567, t_leave=0.2,
            )
        )
        back = roundtrip(trace)
        assert back.events[0].t_enter == trace.events[0].t_enter

    def test_stats_invariant_under_serialization(self, mixed_trace):
        assert trace_stats(roundtrip(mixed_trace)) == trace_stats(mixed_trace)

    def test_generated_trace_roundtrip(self):
        trace = generate_trace("MiniFE", 18)
        back = roundtrip(trace)
        assert trace_stats(back) == trace_stats(trace)
        assert len(back) == len(trace)


class TestParserErrors:
    def test_bad_magic(self):
        with pytest.raises(ParseError, match="magic"):
            loads_trace("not a trace\n")

    def test_bad_version(self):
        with pytest.raises(ParseError, match="version"):
            loads_trace("%repro-dumpi 99\n%app x\n%ranks 2\n%time 1.0\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="%ranks"):
            loads_trace("%repro-dumpi 1\n%app x\n%time 1.0\n")

    def test_unknown_tag(self):
        text = "%repro-dumpi 1\n%app x\n%ranks 2\n%time 1.0\nBOGUS MPI_Send\n"
        with pytest.raises(ParseError, match="unknown record tag"):
            loads_trace(text)

    def test_unknown_collective(self):
        text = (
            "%repro-dumpi 1\n%app x\n%ranks 2\n%time 1.0\n"
            "COLL MPI_Magic caller=0 count=1\n"
        )
        with pytest.raises(ParseError, match="unknown collective"):
            loads_trace(text)

    def test_missing_required_field(self):
        text = (
            "%repro-dumpi 1\n%app x\n%ranks 2\n%time 1.0\n"
            "P2P MPI_Send caller=0 count=1 dtype=MPI_BYTE\n"
        )
        with pytest.raises(ParseError, match="peer"):
            loads_trace(text)

    def test_malformed_kv(self):
        text = "%repro-dumpi 1\n%app x\n%ranks 2\n%time 1.0\nP2P MPI_Send nonsense\n"
        with pytest.raises(ParseError, match="key=value"):
            loads_trace(text)

    def test_error_carries_line_number(self):
        text = "%repro-dumpi 1\n%app x\n%ranks 2\n%time 1.0\nBOGUS x\n"
        with pytest.raises(ParseError) as err:
            loads_trace(text)
        assert err.value.lineno == 5

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "%repro-dumpi 1\n%app x\n%ranks 2\n%time 1.0\n"
            "# a comment\n\n"
            "P2P MPI_Send caller=0 peer=1 count=5 dtype=MPI_BYTE t=0.0,0.1\n"
        )
        trace = loads_trace(text)
        assert len(trace) == 1

    def test_defaults_for_optional_fields(self):
        text = (
            "%repro-dumpi 1\n%app x\n%ranks 2\n%time 1.0\n"
            "P2P MPI_Send caller=0 peer=1 count=5 dtype=MPI_BYTE\n"
        )
        ev = loads_trace(text).events[0]
        assert ev.tag == 0 and ev.repeat == 1 and ev.t_enter == 0.0


class TestFileIO:
    def test_dump_and_load(self, tmp_path, mixed_trace):
        path = dump_trace(mixed_trace, tmp_path / "sub" / "t.dumpi.txt")
        assert path.exists()
        back = load_trace(path)
        assert back.events == mixed_trace.events


class TestRepository:
    def test_key_filename_roundtrip(self):
        for key in (
            TraceKey("AMG", 216),
            TraceKey("Boxlib_CNS", 256, "b"),
        ):
            assert TraceKey.from_filename(key.filename) == key

    def test_bad_filename(self):
        with pytest.raises(ValueError):
            TraceKey.from_filename("whatever.txt")

    def test_store_load_cycle(self, tmp_path, mixed_trace):
        repo = TraceRepository(tmp_path)
        repo.store(mixed_trace)
        key = TraceKey.of(mixed_trace)
        assert key in repo
        assert repo.load(key).events == mixed_trace.events
        assert repo.keys() == [key]

    def test_load_missing(self, tmp_path):
        repo = TraceRepository(tmp_path)
        with pytest.raises(FileNotFoundError):
            repo.load(TraceKey("X", 4))

    def test_ensure_generates_and_caches(self, tmp_path):
        repo = TraceRepository(tmp_path)
        key = TraceKey("MiniFE", 18)
        assert key not in repo
        trace = repo.ensure("MiniFE", 18)
        assert key in repo
        again = repo.ensure("MiniFE", 18)  # now loaded from disk
        assert trace_stats(again) == trace_stats(trace)

    def test_inconsistent_file_detected(self, tmp_path, mixed_trace):
        repo = TraceRepository(tmp_path)
        path = repo.path_of(TraceKey("WRONG", 4))
        dump_trace(mixed_trace, path)  # file says app "test"
        with pytest.raises(ValueError, match="inconsistent"):
            repo.load(TraceKey("WRONG", 4))


class TestBlockNative:
    def test_parsed_traces_are_block_native(self, tmp_path, mixed_trace):
        assert roundtrip(mixed_trace).has_native_blocks
        assert load_trace(dump_trace(mixed_trace, tmp_path / "t.txt")).has_native_blocks

    def test_parsing_constructs_no_event_objects(self, monkeypatch):
        text = dumps_trace(generate_trace("BigFFT", 9))

        def no_events(self):
            raise AssertionError("parser built an event object")

        monkeypatch.setattr(P2PEvent, "__post_init__", no_events)
        monkeypatch.setattr(CollectiveEvent, "__post_init__", no_events)
        trace = loads_trace(text)
        assert len(trace) > 0 and trace.num_calls > 0

    def test_writer_never_touches_events(self, monkeypatch, mixed_trace):
        generated = generate_trace("BigFFT", 9)
        expected = dumps_trace(generated)

        def no_events(self):
            raise AssertionError("writer read trace.events")

        monkeypatch.setattr(Trace, "events", property(no_events))
        assert dumps_trace(generate_trace("BigFFT", 9)) == expected
        dumps_trace(mixed_trace)  # event-built traces go through blocks too

    def test_roundtrip_equals_generated_trace(self):
        trace = generate_trace("CrystalRouter", 10)
        assert roundtrip(trace) == trace

    def test_writer_bytes_pinned(self):
        """Each app's smallest configuration serializes to recorded bytes."""
        expected = json.loads(DIGESTS.read_text())
        got = {
            f"{app}@{ranks}": hashlib.sha256(
                dumps_trace(generate_trace(app, ranks)).encode()
            ).hexdigest()
            for app, ranks in smallest_configurations().items()
        }
        assert got == expected


HEAD = "%repro-dumpi 1\n%app x\n%ranks 4\n%time 1.0\n"
SEND_LINE = "P2P MPI_Send caller=0 peer=1 count=5 dtype=MPI_BYTE t=0.1,0.2\n"


class TestLineNumberedErrors:
    @pytest.mark.parametrize(
        "text, lineno",
        [
            (HEAD + SEND_LINE + SEND_LINE.replace("peer=1", "peer=9"), 6),
            (HEAD + SEND_LINE.replace("caller=0", "caller=-1"), 5),
            (HEAD + SEND_LINE + SEND_LINE.replace("count=5", "count=abc"), 6),
            (HEAD + SEND_LINE.replace("t=0.1", "repeat=0 t=0.1"), 5),
            (HEAD + SEND_LINE + "COLL MPI_Barrier caller=2 count=5\n", 6),
            (HEAD.replace("%ranks 4", "%ranks four") + SEND_LINE, 3),
            (HEAD + SEND_LINE.replace("peer=1 ", ""), 5),
            (HEAD + SEND_LINE.replace("t=0.1,0.2", "t=0.1"), 5),
        ],
    )
    def test_malformed_input_names_its_line(self, text, lineno):
        with pytest.raises(ParseError, match=rf"^line {lineno}: ") as err:
            loads_trace(text)
        assert err.value.lineno == lineno

    def test_bad_header_lines(self):
        for header, lineno in (
            ("%dtype BLOB size=x\n", 5),
            ("%comm SUB members=0,9\n", 5),
            ("%time -1\n", 4),
            ("%\n", 5),
        ):
            text = HEAD + header if lineno == 5 else HEAD.replace("%time 1.0\n", header)
            with pytest.raises(ParseError, match=rf"^line {lineno}: "):
                loads_trace(text + SEND_LINE)


#: A valid trace exercising every field; records are lines 7-10.
VALID = (
    "%repro-dumpi 1\n%app demo\n%ranks 4\n%time 0.5\n"
    "%dtype ROW_T size=64\n"
    "%comm HALF members=0,2\n"
    "P2P MPI_Isend caller=0 peer=1 count=10 dtype=ROW_T tag=3 "
    "comm=MPI_COMM_WORLD t=0.001,0.002 repeat=4\n"
    "P2P MPI_Irecv caller=1 peer=0 count=10 dtype=ROW_T tag=3 "
    "comm=MPI_COMM_WORLD t=0.001,0.003\n"
    "COLL MPI_Allreduce caller=2 count=8 dtype=MPI_DOUBLE root=0 "
    "comm=HALF t=0.01,0.02\n"
    "COLL MPI_Bcast caller=3 count=16 dtype=MPI_INT root=1 "
    "comm=MPI_COMM_WORLD t=0.03,0.04\n"
)


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


@st.composite
def corrupted_records(draw):
    """VALID with one record made invalid; returns (text, its line number)."""
    lines = VALID.splitlines()
    i = draw(st.integers(6, 9))
    line = lines[i]
    tokens = line.split()
    p2p = tokens[0] == "P2P"
    how = draw(st.sampled_from(("truncate", "drop", "rank", "float")))
    if how == "truncate":  # cut before the caller value is complete
        line = line[: draw(st.integers(1, line.index("caller=") + len("caller=")))]
    elif how == "drop":
        keys = ("caller", "peer", "count", "dtype") if p2p else ("caller",)
        key = draw(st.sampled_from(keys)) + "="
        line = " ".join(t for t in tokens if not t.startswith(key))
    elif how == "rank":
        key = draw(st.sampled_from(("caller", "peer") if p2p else ("caller",)))
        rank = draw(st.integers(4, 10**6) | st.integers(-(10**6), -1))
        line = " ".join(
            f"{key}={rank}" if t.startswith(key + "=") else t for t in tokens
        )
    else:
        bad = draw(
            st.text(alphabet="0123456789.eE+-x,", max_size=8).filter(
                lambda s: not _is_float(s)
            )
        )
        enter, leave = line.split(" t=")[1].split()[0].split(",")
        pair = f"{bad},{leave}" if draw(st.booleans()) else f"{enter},{bad}"
        line = line.replace(f"t={enter},{leave}", f"t={pair}")
    lines[i] = line
    return "\n".join(lines) + "\n", i + 1


class TestCorruptedInput:
    def test_valid_base_parses(self):
        trace = loads_trace(VALID)
        assert len(trace) == 4 and trace.datatypes.size_of("ROW_T") == 64

    @settings(max_examples=150, deadline=None)
    @given(corrupted_records())
    def test_corruption_rejected_at_its_line(self, case):
        text, lineno = case
        with pytest.raises(ParseError) as err:
            loads_trace(text)
        assert err.value.lineno == lineno
        assert str(err.value).startswith(f"line {lineno}: ")
