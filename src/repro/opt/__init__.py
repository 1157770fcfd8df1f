"""The independent reference optimum.

The paper's optimality claim (Theorems 6–7) rests on problem ``PP`` being
posynomial, hence convex after the log-variable transform, so any KKT
point is the global optimum.  :mod:`~repro.opt.reference` solves ``PP``
independently via SciPy (explicit arrival-time variables,
SLSQP/trust-constr), certifying OGWS's global optimum on small circuits
in the optimality bench.  The structural posynomial check lives with the
tests (``tests/oracles/posynomial.py``).
"""

from repro.opt.reference import ReferenceSolution, solve_reference

__all__ = [
    "ReferenceSolution",
    "solve_reference",
]
