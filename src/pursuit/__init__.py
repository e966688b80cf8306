"""Pursuit games on graphs: simulation, verification, and exact solving.

The package provides a compact CSR graph core with vectorized BFS
kernels, seeded random graph models, tail-bound calculators, Hall-type
radius-capped matching, neighborhood-expansion verifiers, a turn-based
pursuit game engine with replayable traces, sublinear cop strategies
for dense and sparse regimes, and an exact position-table solver for
small graphs.  See the command line interface in pursuit.cli.

Import from the submodules (pursuit.graph, pursuit.solver, ...); each
module's __all__ lists its public names.
"""

__version__ = "0.1.0"
