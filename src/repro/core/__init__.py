"""The paper's core contribution: noise-constrained LR sizing.

* :class:`~repro.core.problem.SizingProblem` — problem ``PP`` bounds,
* :class:`~repro.core.multipliers.MultiplierState` — edge/β/γ multipliers
  with the Theorem 3 flow projection,
* :class:`~repro.core.lrs.LagrangianSubproblemSolver` — Fig. 8 / Thm 5,
* :class:`~repro.core.ogws.OGWSOptimizer` — Fig. 9 outer loop,
* :func:`~repro.core.kkt.check_kkt` — Theorem 6 certificate,
* :class:`~repro.core.flow.NoiseAwareSizingFlow` — the two-stage flow.
"""

from repro.core.flow import FlowResult, NoiseAwareSizingFlow
from repro.core.kkt import KKTReport, check_kkt
from repro.core.lrs import LagrangianSubproblemSolver, LRSResult
from repro.core.multipliers import MultiplierState
from repro.core.ogws import OGWSOptimizer, run_lockstep
from repro.core.problem import SizingProblem
from repro.core.result import IterationRecord, SizingResult
from repro.core.session import SessionPool, SolverSession
from repro.core.subgradient import MultiplicativeUpdate, SubgradientUpdate

__all__ = [
    "SizingProblem",
    "MultiplierState",
    "LagrangianSubproblemSolver",
    "LRSResult",
    "OGWSOptimizer",
    "run_lockstep",
    "SolverSession",
    "SessionPool",
    "SizingResult",
    "IterationRecord",
    "KKTReport",
    "check_kkt",
    "NoiseAwareSizingFlow",
    "FlowResult",
    "MultiplicativeUpdate",
    "SubgradientUpdate",
]
