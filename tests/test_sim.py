"""Tests for the dynamic packet-level simulator."""

import pytest

from repro.sim.engine import simulate_network
from repro.topology.fattree import FatTree
from repro.topology.torus import Torus3D

from helpers import make_matrix


def sim(matrix, topo, **kw):
    kw.setdefault("execution_time", 1.0)
    kw.setdefault("bandwidth", 4096.0)  # 1 packet/s: easy arithmetic
    return simulate_network(matrix, topo, **kw)


class TestBasics:
    def test_empty_matrix(self):
        r = sim(make_matrix(8, []), Torus3D((2, 2, 2)))
        assert r.packets_simulated == 0
        assert r.dynamic_utilization == 0.0

    def test_single_packet_walks_its_route(self):
        m = make_matrix(8, [(0, 7, 100)])  # 1 packet, 3 hops
        r = sim(m, Torus3D((2, 2, 2)))
        assert r.packets_simulated == 1
        assert r.total_hops == 3
        assert r.used_links == 3
        assert r.mean_queue_delay == 0.0
        assert r.congested_packet_share == 0.0

    def test_self_traffic_not_simulated(self):
        m = make_matrix(8, [(3, 3, 10_000)])
        r = sim(m, Torus3D((2, 2, 2)))
        assert r.packets_simulated == 0

    def test_deterministic(self):
        m = make_matrix(8, [(0, 1, 50_000), (2, 3, 50_000)])
        a = sim(m, Torus3D((2, 2, 2)), seed=5)
        b = sim(m, Torus3D((2, 2, 2)), seed=5)
        assert a == b

    def test_seed_changes_injection(self):
        m = make_matrix(8, [(0, 1, 500_000)])
        a = sim(m, Torus3D((2, 2, 2)), seed=1)
        b = sim(m, Torus3D((2, 2, 2)), seed=2)
        assert a.makespan != b.makespan

    def test_validation(self):
        m = make_matrix(8, [(0, 1, 1)])
        with pytest.raises(ValueError):
            sim(m, Torus3D((2, 2, 2)), execution_time=0.0)
        with pytest.raises(ValueError):
            sim(m, Torus3D((2, 2, 2)), volume_scale=0.5)
        with pytest.raises(ValueError):
            simulate_network(
                make_matrix(8, [(0, 1, 10 * 4096)]),
                Torus3D((2, 2, 2)),
                max_packets=5,
            )


class TestQueueing:
    def test_oversubscribed_link_congests(self):
        """Two senders share one victim link at full offered load."""
        # nodes 0 and 2 both send to 1 on a chain-ish torus; with bandwidth
        # of 2 packets/s and 10 packets each in 1 s the shared ejection link
        # saturates.
        m = make_matrix(8, [(0, 1, 10 * 4096), (5, 1, 10 * 4096)])
        r = sim(m, Torus3D((2, 2, 2)), bandwidth=2 * 4096.0)
        assert r.congested_packet_share > 0.1
        assert r.mean_queue_delay > 0.0

    def test_light_load_no_congestion(self):
        m = make_matrix(8, [(0, 1, 50 * 4096)])
        r = sim(m, Torus3D((2, 2, 2)), bandwidth=1e9)
        assert r.congested_packet_share == 0.0
        assert r.makespan_inflation == pytest.approx(1.0, abs=0.05)

    def test_makespan_inflates_when_offered_exceeds_capacity(self):
        # 100 packets through one link in 1 s at 10 packets/s: drain ~10 s
        m = make_matrix(8, [(0, 1, 100 * 4096)])
        r = sim(m, Torus3D((2, 2, 2)), bandwidth=10 * 4096.0)
        assert r.makespan == pytest.approx(10.0, rel=0.15)
        assert r.makespan_inflation > 5.0

    def test_busy_time_equals_hops_times_service(self):
        m = make_matrix(8, [(0, 7, 3 * 4096)])
        r = sim(m, Torus3D((2, 2, 2)), bandwidth=4096.0)
        # 3 packets x 3 hops x 1 s service
        assert r.link_busy_time_total == pytest.approx(9.0)

    def test_fifo_ordering_on_shared_link(self):
        """Back-to-back packets on one link serialize exactly."""
        m = make_matrix(48, [(0, 1, 5 * 4096)])
        r = sim(m, FatTree(48, 1), bandwidth=4096.0, execution_time=1e-9)
        # all 5 packets injected ~simultaneously; 2 links each serving 5
        # sequential packets -> makespan ~ 5 + 5 service times pipelined
        assert r.makespan == pytest.approx(6.0, rel=0.05)


class TestScaling:
    def test_volume_scale_preserves_utilization(self):
        m = make_matrix(8, [(0, 1, 400 * 4096)])
        full = sim(m, Torus3D((2, 2, 2)), bandwidth=1000 * 4096.0)
        scaled = sim(
            m, Torus3D((2, 2, 2)), bandwidth=1000 * 4096.0, volume_scale=4.0
        )
        assert scaled.packets_simulated == full.packets_simulated // 4
        assert scaled.dynamic_utilization == pytest.approx(
            full.dynamic_utilization, rel=0.1
        )


class TestAgainstStaticModel:
    def test_hops_match_static(self):
        """Without contention the simulator walks exactly the static routes."""
        from repro.model.engine import analyze_network

        m = make_matrix(8, [(0, 7, 2 * 4096), (1, 2, 4096)])
        static = analyze_network(m, Torus3D((2, 2, 2)))
        dyn = sim(m, Torus3D((2, 2, 2)), bandwidth=1e9)
        assert dyn.total_hops == static.packet_hops
        assert dyn.used_links == static.used_links

    def test_low_static_utilization_implies_no_queueing(self, lulesh64_trace):
        """The paper's §8 claim: at <1% static utilization, congestion is
        improbable — the dynamic model confirms zero queueing."""
        from repro.comm.matrix import matrix_from_trace

        matrix = matrix_from_trace(lulesh64_trace)
        r = simulate_network(
            matrix,
            Torus3D((4, 4, 4)),
            execution_time=lulesh64_trace.meta.execution_time,
            volume_scale=8.0,
        )
        assert r.congested_packet_share < 0.01
        assert r.makespan_inflation == pytest.approx(1.0, abs=0.01)
