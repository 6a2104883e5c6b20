"""Reference implementation: the per-event heap loop.

This is the original dynamic simulator — one ``heapq`` event per packet-hop,
processed strictly in ``(time, sequence)`` order.  It is kept as the
semantic ground truth for the batched kernel in :mod:`repro.sim.engine`:
``tests/test_sim_equivalence.py`` asserts seed-for-seed *bit-identical*
results between the two across topologies and load regimes.

The loop defines the simulation semantics precisely:

- every link is an output-queued FIFO server with constant service time
  ``payload / bandwidth``;
- a packet arriving at time ``t`` starts service at ``max(t, link_free)``,
  holds the link for one service time, and arrives at its next hop one
  ``hop_latency`` later;
- queueing delay is the accumulated ``begin - t`` over a packet's hops.

Select it with ``simulate_network(..., engine="reference")`` only for
validation and benchmarking — it is orders of magnitude slower than the
batched engine on dense workloads.
"""

from __future__ import annotations

import heapq

import numpy as np

from .common import SimSetup, SimulationResult, assemble_result, attach_telemetry

__all__ = ["run_reference"]


def run_reference(setup: SimSetup, collector=None) -> SimulationResult:
    """Run the per-event loop over prepared simulation state.

    ``collector`` is an optional :class:`repro.telemetry.TelemetryCollector`;
    when enabled it receives every service this loop performs (buffered as
    plain lists, handed over as arrays once at the end) and its report is
    attached to the result.
    """
    total_packets = setup.total_packets
    inject_pair = setup.inject_pair
    route_starts = setup.route_starts
    route_lens = setup.route_lens
    route_links = setup.route_links
    service = setup.service
    hop_latency = setup.hop_latency

    # Event loop: (time, seq, packet_index, hop_index).
    events: list[tuple[float, int, int, int]] = [
        (float(t), i, i, 0) for i, t in enumerate(setup.inject_time)
    ]
    heapq.heapify(events)
    seq = total_packets

    link_free: dict[int, float] = {}
    serve_count: dict[int, int] = {}
    wait = np.zeros(total_packets, dtype=np.float64)  # cumulative queueing
    delivered_at = np.zeros(total_packets, dtype=np.float64)

    recording = collector is not None and collector.enabled
    if recording:
        collector.reserve(setup.total_hops)
    rec_links: list[int] = []
    rec_begins: list[float] = []
    rec_waits: list[float] = []

    while events:
        t, _, pkt, hop = heapq.heappop(events)
        pair = inject_pair[pkt]
        if hop >= route_lens[pair]:
            delivered_at[pkt] = t
            continue
        link = int(route_links[route_starts[pair] + hop])
        free = link_free.get(link, 0.0)
        begin = max(t, free)
        done = begin + service
        link_free[link] = done
        serve_count[link] = serve_count.get(link, 0) + 1
        wait[pkt] += begin - t
        if recording:
            rec_links.append(link)
            rec_begins.append(begin)
            rec_waits.append(begin - t)
        seq += 1
        heapq.heappush(events, (done + hop_latency, seq, pkt, hop + 1))

    counts = np.zeros(setup.num_links, dtype=np.int64)
    for link, count in serve_count.items():
        counts[link] = count
    if recording:
        collector.record_services(
            np.array(rec_links, dtype=np.int64),
            np.array(rec_begins, dtype=np.float64),
            np.array(rec_waits, dtype=np.float64),
        )
    result = assemble_result(setup, wait, delivered_at, counts)
    return attach_telemetry(result, setup, collector, delivered_at)
