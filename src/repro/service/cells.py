"""Cell identity: content keys, affinity tokens, and spec serialization.

A **cell** is one grid point of a :class:`~repro.analysis.sweep.SweepSpec`
together with every spec-level field that influences its records (seed,
collectives mode, bandwidths, telemetry configuration).  Its ``key`` is a
BLAKE2 digest of exactly those fields, so two cells with equal keys produce
bit-identical records no matter which job, worker, or server lifetime
computes them — the property the journal, the in-flight dedup table, and
the record cache all rest on.

The **affinity token** is the coarser grouping the scheduler routes on: the
subset of the key that selects the expensive cached artifacts (the trace
and its matrices).  Cells sharing a token want to land on the same worker,
where the first one pays the deserialization and the rest hit that
process's warm memory LRU.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import dataclass, fields
from typing import Any

from ..analysis.sweep import Scenario, SweepSpec, unique_points

__all__ = [
    "CELL_KEY_VERSION",
    "Cell",
    "spec_to_dict",
    "spec_from_dict",
    "cell_key",
    "affinity_token",
    "expand_cells",
]

#: Bump when record semantics change (new record fields, changed rounding,
#: changed cell evaluation) — journals and record caches never mix versions.
#: v2: critical-path axis (critpath / critpath_max_repeat spec fields).
#: v3: collective-algorithm axis (points grew a ``collective`` field).
CELL_KEY_VERSION = 3

_HINTS = typing.get_type_hints(SweepSpec)

#: Spec fields, their resolved types, and whether each point carries them.
_SPEC_FIELDS = [
    (f.name, _HINTS[f.name], f.metadata.get("point", False))
    for f in fields(SweepSpec)
]


def spec_to_dict(spec: SweepSpec) -> dict[str, Any]:
    """A JSON-safe dict that :func:`spec_from_dict` inverts exactly."""
    return {name: _json_safe(getattr(spec, name)) for name, _, _ in _SPEC_FIELDS}


def _json_safe(value: Any) -> Any:
    if isinstance(value, (tuple, list)):
        return [_json_safe(v) for v in value]
    return value


def spec_from_dict(data: dict[str, Any]) -> SweepSpec:
    """Rebuild a :class:`SweepSpec` from :func:`spec_to_dict` output.

    Every value is checked against its field's type, so a malformed spec
    fails with one ``ValueError`` instead of being mis-parsed: bool fields
    take only bools, int fields ints but not bools, float fields ints or
    floats (kept as given, so ``sim_volume_scale=64`` keys as ``64``).
    Axis elements convert to the element type (an int bandwidth becomes a
    float, as cell keys expect).  Range checks happen in
    ``SweepSpec.__post_init__``; unknown keys raise so a stale client
    cannot silently submit fields the server ignores.
    """
    data = dict(data)
    if not data.get("apps"):
        raise ValueError("sweep spec needs a non-empty 'apps' list")
    kwargs = {
        name: _typed(name, data.pop(name), hint)
        for name, hint, _ in _SPEC_FIELDS
        if name in data
    }
    if data:
        raise ValueError(f"unknown sweep spec fields {sorted(data)}")
    return SweepSpec(**kwargs)


def _typed(name: str, value: Any, hint: Any, element: bool = False) -> Any:
    """``value`` checked against the type ``hint`` of spec field ``name``."""
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, (list, tuple)):
            raise ValueError(
                f"sweep spec field {name!r} must be a list, got {value!r}"
            )
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ValueError(
                f"sweep spec field {name!r} needs {len(args)}-item entries, "
                f"got {value!r}"
            )
        return tuple(
            _typed(name, v, arg, element=True) for v, arg in zip(value, args)
        )
    allowed = (int, float) if hint is float else hint
    if not isinstance(value, allowed) or (
        hint is not bool and isinstance(value, bool)
    ):
        raise ValueError(
            f"sweep spec field {name!r} must be {hint.__name__}, got {value!r}"
        )
    return hint(value) if element else value


def _shared_fields(spec: SweepSpec) -> dict[str, Any]:
    """The spec fields that shape every cell: all but the point axes."""
    data = spec_to_dict(spec)
    return {name: data[name] for name, _, point in _SPEC_FIELDS if not point}


def cell_key(spec: SweepSpec, point: Scenario) -> str:
    """Content key of one cell: a hex digest over (point, shared fields)."""
    payload = {
        "v": CELL_KEY_VERSION,
        "point": point._asdict(),
        "shared": _shared_fields(spec),
    }
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(raw.encode(), digest_size=16).hexdigest()


def affinity_token(spec: SweepSpec, point: Scenario) -> str:
    """The cache-affinity group of a cell.

    ``(app, ranks, seed)`` selects the trace — the heaviest artifact a
    worker deserializes — and through it every matrix the cell's payloads
    derive.  Cells of one token therefore share a worker so the trace is
    paged in once per pool, not once per worker.
    """
    return f"{point.app}:{point.ranks}:{spec.seed}"


@dataclass(frozen=True)
class Cell:
    """One schedulable unit: a grid point plus its identity keys."""

    index: int  # position in the spec's canonical deduplicated order
    point: Scenario
    key: str  # content key (journal / dedup identity)
    token: str  # cache-affinity group


def expand_cells(spec: SweepSpec) -> tuple[list[Cell], int]:
    """Expand a spec into deduplicated cells, plus the collapsed count.

    Shares :func:`repro.analysis.sweep.unique_points` with ``run_sweep``,
    so the service's record order (cells in index order, bandwidths inside)
    is bit-identical to the library path for the same spec.
    """
    points, collapsed = unique_points(spec)
    cells = [
        Cell(
            index=i,
            point=point,
            key=cell_key(spec, point),
            token=affinity_token(spec, point),
        )
        for i, point in enumerate(points)
    ]
    return cells, collapsed
