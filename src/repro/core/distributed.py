"""Distributed per-net crosstalk bounds (paper Sec. 4.1 extension).

The paper notes: "though not presented here, the above crosstalk
constraint can easily be extended to the case with a distributed
crosstalk bound on each net".  This module is that extension:

    Σ_{j ∈ I(i)} w_ij·c_ij(x) ≤ X_B,i    for every wire i owning pairs

with one Lagrange multiplier ``γ_i`` per constrained net.  The Theorem 5
closed form generalizes directly — each pair's slope enters its two
endpoints' denominators weighted by the *owning* net's multiplier
(:meth:`CouplingSet.node_terms_batch`), and the LRS/OGWS machinery is reused
unchanged: :class:`DistributedSizingProblem` carries the per-net bounds
and :class:`DistributedMultiplicativeUpdate` steps the γ vector.

A distributed bound is strictly stronger than the global one with the
same total: it protects every individual victim net rather than the sum,
which is what a real noise sign-off requires.
"""

import dataclasses

import numpy as np

from repro.core.multipliers import MultiplierState
from repro.core.ogws import OGWSOptimizer
from repro.core.subgradient import MultiplicativeUpdate
from repro.timing.metrics import evaluate_metrics
from repro.utils.errors import ValidationError
from repro.utils.units import FF_PER_PF


@dataclasses.dataclass(frozen=True)
class DistributedSizingProblem:
    """Problem ``PP`` with a crosstalk bound per net.

    ``noise_bounds_ff`` has one entry per *node*; entries are the bound
    on the crosstalk owned by that wire (``Σ_{j∈I(i)} c_ij``), and
    ``+inf`` for nodes owning no constrained pairs.  The aggregate
    ``noise_bound_ff`` (sum of finite bounds) is exposed so scalar-bound
    consumers (reports, the γ-free baselines) keep working.
    """

    delay_bound_ps: float
    power_cap_bound_ff: float
    noise_bounds_ff: np.ndarray

    def __post_init__(self):
        if self.delay_bound_ps <= 0 or self.power_cap_bound_ff <= 0:
            raise ValidationError("delay/power bounds must be positive")
        bounds = np.asarray(self.noise_bounds_ff, dtype=float)
        if np.any(bounds <= 0):
            raise ValidationError(
                "per-net noise bounds must be positive (use inf to disable)")
        object.__setattr__(self, "noise_bounds_ff", bounds)

    @classmethod
    def from_initial(cls, engine, x_init, delay_slack=1.1, noise_fraction=0.1,
                     power_fraction=0.2):
        """Per-net analogue of :meth:`SizingProblem.from_initial`.

        Each constrained net's bound is ``noise_fraction`` of the noise
        it owns at the initial sizing.
        """
        metrics = evaluate_metrics(engine, x_init)
        owned = engine.coupling.net_caps(x_init)
        bounds = np.full(engine.compiled.num_nodes, np.inf)
        active = owned > 0.0
        bounds[active] = noise_fraction * owned[active]
        return cls(
            delay_bound_ps=delay_slack * metrics.delay_ps,
            power_cap_bound_ff=power_fraction * metrics.total_cap_ff,
            noise_bounds_ff=bounds,
        )

    # -- scalar-compatible surface -------------------------------------------------

    @property
    def noise_bound_ff(self):
        """Aggregate bound (sum of finite per-net bounds) for reporting."""
        finite = np.isfinite(self.noise_bounds_ff)
        return float(np.sum(self.noise_bounds_ff[finite]))

    def violations(self, metrics):
        """Aggregate relative violations (delay/power exact; noise is the
        total against the summed bound — per-net checks need ``x``)."""
        return {
            "delay": metrics.delay_ps / self.delay_bound_ps - 1.0,
            "noise": metrics.noise_pf * FF_PER_PF / self.noise_bound_ff - 1.0,
            "power": metrics.total_cap_ff / self.power_cap_bound_ff - 1.0,
        }

    def is_feasible(self, metrics, tolerance=1e-6):
        return all(v <= tolerance for v in self.violations(metrics).values())

    # -- the real (per-net) feasibility --------------------------------------------

    def net_violations(self, engine, x):
        """Per-node relative violations ``X_i/X_B,i − 1`` (−inf where
        unconstrained)."""
        owned = engine.coupling.net_caps(x)
        with np.errstate(invalid="ignore"):
            out = owned / self.noise_bounds_ff - 1.0
        out[~np.isfinite(self.noise_bounds_ff)] = -np.inf
        return out

    def is_feasible_at(self, engine, x, metrics=None, tolerance=1e-6):
        """True iff delay, power, and *every* per-net bound hold."""
        metrics = metrics if metrics is not None else evaluate_metrics(engine, x)
        if metrics.delay_ps > self.delay_bound_ps * (1 + tolerance):
            return False
        if metrics.total_cap_ff > self.power_cap_bound_ff * (1 + tolerance):
            return False
        worst = float(np.max(self.net_violations(engine, x), initial=-np.inf))
        return worst <= tolerance

    def __repr__(self):
        finite = np.isfinite(self.noise_bounds_ff)
        return (
            f"DistributedSizingProblem(A0={self.delay_bound_ps:.1f} ps, "
            f"nets={int(finite.sum())}, P'={self.power_cap_bound_ff:.1f} fF)"
        )


class DistributedMultiplicativeUpdate(MultiplicativeUpdate):
    """Multiplicative rule with a per-net γ vector.

    λ and β step exactly as in the scalar rule; γ_i steps by the owning
    net's ratio ``X_i(x)/X_B,i`` (clipped).
    """

    name = "distributed-multiplicative"

    def apply(self, multipliers, k, arrival, delays, problem, power_cap, noise,
              engine=None, x=None):
        if engine is None or x is None:
            raise ValidationError(
                "distributed update needs engine and x (per-net crosstalk)")
        if np.ndim(multipliers.gamma) == 0:
            raise ValidationError(
                "multipliers.gamma must be a per-node array; initialize with "
                "initial_distributed_multipliers()")
        gamma = np.array(multipliers.gamma, copy=True)  # parent's *= is in-place
        mu = super().apply(multipliers, k, arrival, delays, problem,
                           power_cap=power_cap, noise=noise)
        # Discard the scalar γ step the parent applied to the array (it
        # multiplied by the aggregate ratio); recompute per net instead.
        multipliers.gamma = gamma
        owned = engine.coupling.net_caps(x)
        bounds = problem.noise_bounds_ff
        active = np.isfinite(bounds)
        ratio = np.ones_like(owned)
        ratio[active] = np.clip(owned[active] / bounds[active],
                                1.0 / self.ratio_clip, self.ratio_clip)
        multipliers.gamma = gamma * ratio ** mu
        return mu


def initial_distributed_multipliers(compiled, problem, beta=1e-3, gamma=1e-3):
    """Flow-conserving start with a per-net γ vector (γ_i = ``gamma`` on
    constrained nets, 0 elsewhere)."""
    state = MultiplierState.initial(compiled, beta=beta, gamma=0.0)
    vec = np.where(np.isfinite(problem.noise_bounds_ff), float(gamma), 0.0)
    state.gamma = vec
    return state


class DistributedNoiseOGWS(OGWSOptimizer):
    """OGWS solving the distributed-bound program.

    Thin configuration subclass: wires the distributed update rule and
    the per-net multiplier initialization into the standard loop (LRS
    already consumes the γ vector via ``CouplingSet.node_terms_batch``).
    """

    def __init__(self, engine, problem, **kwargs):
        if not isinstance(problem, DistributedSizingProblem):
            raise ValidationError(
                "DistributedNoiseOGWS needs a DistributedSizingProblem")
        kwargs.setdefault("update", DistributedMultiplicativeUpdate())
        super().__init__(engine, problem, **kwargs)

    def start(self, multipliers=None):
        """A1 with a per-net γ vector unless a start is given."""
        if multipliers is None:
            multipliers = initial_distributed_multipliers(
                self.engine.compiled, self.problem)
        return super().start(multipliers)
