"""Unit tests for the trace container."""

import pytest

from repro.core.communicator import Communicator
from repro.core.events import CollectiveEvent, CollectiveOp, Direction, P2PEvent
from repro.core.trace import TraceMetadata

from helpers import make_trace


class TestTraceMetadata:
    def test_label(self):
        meta = TraceMetadata("LULESH", 64, 1.0)
        assert meta.label == "LULESH@64"
        meta_v = TraceMetadata("LULESH", 64, 1.0, variant="b")
        assert meta_v.label == "LULESH@64/b"

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceMetadata("X", 0, 1.0)
        with pytest.raises(ValueError):
            TraceMetadata("X", 4, 0.0)


class TestTrace:
    def test_add_and_iterate(self, ring_trace):
        assert len(ring_trace) == 4
        assert ring_trace.num_calls == 4
        assert len(list(ring_trace)) == 4

    def test_repeat_counts_in_num_calls(self):
        trace = make_trace(2)
        trace.add(P2PEvent(caller=0, peer=1, count=1, dtype="MPI_BYTE", repeat=10))
        assert trace.num_calls == 10

    def test_out_of_range_caller_rejected(self):
        trace = make_trace(2)
        with pytest.raises(ValueError, match="caller"):
            trace.add(P2PEvent(caller=2, peer=0, count=1, dtype="MPI_BYTE"))

    def test_out_of_range_peer_rejected(self):
        trace = make_trace(2)
        with pytest.raises(ValueError, match="peer"):
            trace.add(P2PEvent(caller=0, peer=5, count=1, dtype="MPI_BYTE"))

    def test_unknown_communicator_rejected(self):
        trace = make_trace(2)
        with pytest.raises(ValueError, match="communicator"):
            trace.add(
                P2PEvent(caller=0, peer=1, count=1, dtype="MPI_BYTE", comm="NOPE")
            )

    def test_iter_p2p_sends_skips_recvs_and_collectives(self):
        trace = make_trace(2)
        trace.add(P2PEvent(caller=0, peer=1, count=1, dtype="MPI_BYTE"))
        trace.add(
            P2PEvent(
                caller=1, peer=0, count=1, dtype="MPI_BYTE",
                direction=Direction.RECV, func="MPI_Recv",
            )
        )
        trace.add(CollectiveEvent(caller=0, op=CollectiveOp.BARRIER))
        assert len(list(trace.iter_p2p_sends())) == 1
        assert len(list(trace.iter_collectives())) == 1

    def test_p2p_bytes_uses_datatype_size(self):
        trace = make_trace(2)
        trace.add(P2PEvent(caller=0, peer=1, count=10, dtype="MPI_DOUBLE", repeat=2))
        assert trace.p2p_bytes() == 160

    def test_p2p_bytes_opaque_derived_convention(self):
        trace = make_trace(2)
        trace.add(P2PEvent(caller=0, peer=1, count=10, dtype="MYSTERY_T"))
        assert trace.p2p_bytes() == 10  # 1 byte per element

    def test_active_ranks(self, mixed_trace):
        assert mixed_trace.active_ranks() == {0, 1, 2, 3}

    def test_global_communicator_criterion(self):
        trace = make_trace(4)
        assert trace.uses_only_global_communicators
        assert trace.communicators is not None
        trace.communicators.add(Communicator("SUB", (1, 3)))
        assert not trace.uses_only_global_communicators

    def test_extend(self):
        trace = make_trace(3)
        trace.extend(
            P2PEvent(caller=r, peer=(r + 1) % 3, count=1, dtype="MPI_BYTE")
            for r in range(3)
        )
        assert len(trace) == 3
