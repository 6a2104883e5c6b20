"""Nested spans around the calls into each layer of ``repro``.

The tracer is installed only in a traced pass.  It wraps the public entry
points listed in :data:`LAYER_ENTRY_POINTS` from the outside (module
attributes and class attributes are replaced by timing wrappers), so the
program under test is unchanged.  Every span records its name, layer,
start, end and parent; counters are recorded at the same boundaries.

A layer's self time is the duration of its spans minus the time their
direct child spans cover.  Because the spans of one pass nest on a single
stack, the per-layer self times plus the root span's own self time
(``unattributed_s``) sum to the root span's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from types import ModuleType

__all__ = ["Tracer", "LAYER_ENTRY_POINTS", "install", "summarize", "write_chrome_trace"]


class Tracer:
    """Spans kept in memory: one record per span, plus named counters."""

    def __init__(self) -> None:
        # [name, layer, start, end, parent_index, child_seconds]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, 0.0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        span = self.spans[index]
        span[3] = end
        if span[4] >= 0:
            self.spans[span[4]][5] += end - span[2]

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge_max(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)


# ----------------------------------------------------------- counters
# Each counter function runs after its span closes, so its (small) cost
# lands in the caller's self time, not the layer's.


def _trace_rows(tracer, args, kwargs, out):
    tracer.add("apps.rows", len(out))


def _dumpi_load(tracer, args, kwargs, out):
    repo, key = args[0], args[1]
    tracer.add("dumpi.mb", repo.path_of(key).stat().st_size / 1e6)
    tracer.add("dumpi.records", len(out))


def _send_batch(tracer, args, kwargs, out):
    tracer.add("collectives.sends", int(out.calls.sum()))


def _matrix_pairs(tracer, args, kwargs, out):
    tracer.add("comm.pairs", out.num_pairs)


def _routed_pairs(tracer, args, kwargs, out):
    # (self, topology, src, dst, ...) on every RoutingPolicy method
    src = args[2] if len(args) > 2 else kwargs["src"]
    tracer.add("routing.pairs", len(src))


def _routed_incidence(tracer, args, kwargs, out):
    _routed_pairs(tracer, args, kwargs, out)
    tracer.add("routing.incidence_rows", out.num_incidences)


def _simulated(tracer, args, kwargs, out):
    tracer.add("sim.packets", out.packets_simulated)
    tracer.add(
        "sim.congested_packets", out.congested_packet_share * out.packets_simulated
    )


def _regions(tracer, args, kwargs, out):
    tracer.add("telemetry.regions", out.num_regions)


def _dag_nodes(tracer, args, kwargs, out):
    tracer.add("critpath.dag_nodes", out.num_nodes)


def _dag_levels(tracer, args, kwargs, out):
    tracer.gauge_max("critpath.dag_levels", out.num_levels)


def _routing_classes() -> list[str]:
    from repro import routing

    policies = [getattr(routing, name) for name in routing.__all__]
    policies = [
        cls
        for cls in policies
        if isinstance(cls, type) and issubclass(cls, routing.RoutingPolicy)
    ]
    counters = {"route_incidence": _routed_incidence, "hops_array": _routed_pairs}
    return [
        (f"{cls.__module__}:{cls.__qualname__}.{method}", counter)
        for cls in policies
        for method, counter in counters.items()
        if method in vars(cls)
    ]


def _topology_classes() -> list[str]:
    from repro.topology import Dragonfly, FatTree, Mesh3D, Torus3D

    return [
        (f"{cls.__module__}:{cls.__qualname__}.hops_array", None)
        for cls in (Torus3D, FatTree, Dragonfly, Mesh3D)
        if "hops_array" in vars(cls)
    ]


#: layer -> [(target, counter)].  A target is ``module:qualname``; a
#: callable target returns such pairs at install time (class hierarchies).
LAYER_ENTRY_POINTS = {
    "analysis": [
        ("repro.analysis.tables:build_table3", None),
        ("repro.analysis.tables:build_table3_row", None),
        ("repro.analysis.sweep:run_sweep", None),
        ("repro.critpath.analyze:analyze_trace", None),
        ("repro.critpath.analyze:latency_sensitivity", None),
    ],
    "apps": [("repro.apps.registry:generate_trace", _trace_rows)],
    "dumpi": [("repro.dumpi.repository:TraceRepository.load", _dumpi_load)],
    "collectives": [("repro.collectives.translate:iter_send_batches", _send_batch)],
    "comm": [("repro.comm.matrix:matrix_from_trace", _matrix_pairs)],
    "metrics": [("repro.metrics.summary:mpi_level_metrics", None)],
    "topology": [
        ("repro.topology.configs:TopologyConfig.build_torus", None),
        ("repro.topology.configs:TopologyConfig.build_fat_tree", None),
        ("repro.topology.configs:TopologyConfig.build_dragonfly", None),
        (_topology_classes, None),
    ],
    "mapping": [
        ("repro.mapping.base:Mapping.consecutive", None),
        ("repro.mapping.base:Mapping.random", None),
        ("repro.mapping.optimized:optimize_mapping", None),
    ],
    "routing": [(_routing_classes, None)],
    "model": [("repro.model.engine:analyze_network", None)],
    "sim": [("repro.sim.engine:simulate_network", _simulated)],
    "telemetry": [
        ("repro.telemetry.collector:WindowedCollector.record_services", None),
        ("repro.telemetry.collector:WindowedCollector.finalize", None),
        ("repro.telemetry.congestion:congestion_summary", _regions),
    ],
    "critpath.match": [
        ("repro.critpath.match:ensure_receives", None),
        ("repro.critpath.match:expand_events", None),
        ("repro.critpath.match:match_events", None),
        ("repro.critpath.match:collective_edges", None),
    ],
    "critpath.dag": [("repro.critpath.dag:build_dag", _dag_nodes)],
    "critpath.levels": [
        ("repro.critpath.dag:HappensBeforeDag.level_schedule", _dag_levels)
    ],
    "critpath.cost": [
        ("repro.critpath.cost:edge_costs", None),
        ("repro.critpath.cost:message_edge_hops", None),
    ],
    "critpath.dp": [("repro.critpath.analyze:critical_path", None)],
    "cache": [
        (f"repro.cache:{name}", None)
        for name in (
            "cached_trace",
            "cached_matrix",
            "cached_mapping",
            "cached_node_pairs",
            "cached_pair_hops",
            "cached_route_incidence",
            "cached_critpath_dag",
        )
    ],
}

def _wrap(tracer: Tracer, layer: str, name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name, layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter is not None:
            counter(tracer, args, kwargs, out)
        return out

    return traced


def _wrap_generator(tracer: Tracer, layer: str, name: str, fn, counter):
    """Each ``next()`` is its own span; the counter sees every item."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            index = tracer.open(name, layer)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            if counter is not None:
                counter(tracer, args, kwargs, item)
            yield item

    return traced


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _rebind_everywhere(original, replacement) -> None:
    """Point every ``repro`` module binding of ``original`` at ``replacement``.

    ``from x import f`` copies the function into the importing module, so
    replacing only ``x.f`` would miss those call sites.
    """
    for module_name, module in list(sys.modules.items()):
        if not isinstance(module, ModuleType) or not module_name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer: Tracer) -> int:
    """Wrap every entry point of :data:`LAYER_ENTRY_POINTS`; returns the count."""
    import repro  # noqa: F401  (loads every subpackage the targets live in)

    installed = 0
    for layer, entries in LAYER_ENTRY_POINTS.items():
        for target, counter in entries:
            expanded = target() if callable(target) else [(target, counter)]
            for one, one_counter in expanded:
                owner, attr = _resolve(one)
                static = inspect.getattr_static(owner, attr)
                fn = static.__func__ if isinstance(static, staticmethod) else static
                wrap = _wrap_generator if inspect.isgeneratorfunction(fn) else _wrap
                wrapped = wrap(tracer, layer, f"{layer}:{attr}", fn, one_counter)
                if isinstance(static, staticmethod):
                    setattr(owner, attr, staticmethod(wrapped))
                else:
                    setattr(owner, attr, wrapped)
                    if isinstance(owner, ModuleType):
                        _rebind_everywhere(fn, wrapped)
                installed += 1
    return installed


def summarize(tracer: Tracer, root: int) -> dict[str, float]:
    """Per-layer self time and entry counts, plus the unattributed remainder.

    ``<layer>.self_s`` sums the self time of the layer's spans;
    ``<layer>.calls`` counts entries into the layer (spans whose parent
    belongs to another layer).  ``unattributed_s`` is the root span's own
    self time, so the self times and it add up to ``trace.wall_s``.
    """
    out: dict[str, float] = {}
    spans = tracer.spans
    for index, (name, layer, start, end, parent, child) in enumerate(spans):
        if index == root:
            continue
        key = f"{layer}.self_s"
        out[key] = out.get(key, 0.0) + (end - start - child)
        if parent < 0 or spans[parent][1] != layer:
            key = f"{layer}.calls"
            out[key] = out.get(key, 0) + 1
    _, _, start, end, _, child = spans[root]
    out["trace.wall_s"] = end - start
    out["unattributed_s"] = end - start - child
    out["trace.spans"] = len(spans)
    out.update(tracer.counters)
    return out


def write_chrome_trace(tracer: Tracer, path, metadata: dict) -> None:
    """Chrome trace-event JSON (``ph: X`` complete events) for Perfetto."""
    origin = tracer.spans[0][2] if tracer.spans else 0.0
    events = []
    for index, (name, layer, start, end, parent, child) in enumerate(tracer.spans):
        events.append(
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {
                    "id": index,
                    "parent": parent,
                    "self_us": round((end - start - child) * 1e6, 3),
                },
            }
        )
    with open(path, "w") as fh:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata},
            fh,
        )
