"""Dynamic packet-level network simulation (the paper's stated future work).

One entry point, :func:`simulate_network`, over two bit-identical engines:
the batched NumPy kernel (:func:`run_batched`) and the per-event heap loop
(:func:`run_reference`) kept as semantic ground truth.  ``engine="auto"``
dispatches on event density; ``engine="batched"`` / ``"reference"`` force
one.  The input is a traffic matrix, so a chunked
:class:`~repro.core.stream.BlockStream` simulates as
``simulate_network(matrix_from_trace(stream), ...)``.
"""

from .common import SimSetup, prepare_simulation
from .engine import SimulationResult, run_batched, simulate_network
from .reference import run_reference

__all__ = [
    "SimulationResult",
    "SimSetup",
    "prepare_simulation",
    "run_batched",
    "run_reference",
    "simulate_network",
]
