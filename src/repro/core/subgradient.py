"""Multiplier update rules (paper Fig. 9, A4).

The paper requires a diminishing, non-summable step sequence
(``μ_k → 0``, ``Σ μ_k = ∞``).  Two update rules are provided, each with
its step sequence fixed:

* :class:`SubgradientUpdate` — the paper's A4 verbatim: additive steps
  proportional to constraint violations, ``μ_k = 1/√k``.  Violations
  are normalized by their bounds (dimensionless) so one ``μ₀`` works
  across circuits; this is A4 up to a per-constraint rescaling of μ,
  which the convergence conditions allow.
* :class:`MultiplicativeUpdate` — the scale-free variant standard in LR
  sizing practice: ``λ ← λ·ratioᵘ`` with ``ratio = (a_j + D_i)/a_i``
  (``a_j/A0`` on sink edges), ``β ← β·(P(x)/P')ᵘ``, ``γ ← γ·(X(x)/X_B)ᵘ``
  and ``μ_k = 3/k^0.3``.  Ratios are 1 exactly on tight constraints, so
  fixed points coincide with the subgradient rule's; convergence is
  considerably faster and is the library default.  The convergence
  bench compares both.

Each rule updates through one method, ``apply_batch``, over the K
columns of a lockstep iteration; one scenario is a batch of width one.  Both rules
leave multipliers non-negative and are followed by the Theorem 3
projection (``MultiplierState.project``).  The one-column spelling of
both rules is the oracle in ``tests/oracles/a4.py``.
"""

import numpy as np

from repro.core.multipliers import MultiplierState
from repro.timing import kernels


def edge_timing_terms(compiled, arrival, delays, delay_bound):
    """Per-edge arrival constraint terms (paper A4 cases).

    Returns ``(residual, reference)`` arrays over edges:

    * internal edge (j, i):   residual ``a_j + D_i − a_i``, reference ``a_i``
    * driver edge (0, i):     same formula (``a_source = 0``)
    * sink edge (j, m):       residual ``a_j − A0``, reference ``A0``

    ``residual/reference`` is the normalized violation; ``1 + residual/
    reference`` is the multiplicative ratio.  ``arrival`` and ``delays``
    are ``(n,)`` with a scalar ``delay_bound``, or ``(n, K)`` column
    stacks with a ``(K,)`` vector of per-column bounds; column ``j`` of
    the ``(E, K)`` result is bit-identical to the ``(n,)`` call on that
    column (the same elementwise operations, broadcast across columns).
    """
    src, dst = compiled.edge_src, compiled.edge_dst
    arrival_dst = arrival.take(dst, 0)
    residual = arrival.take(src, 0)
    residual += delays.take(dst, 0)
    residual -= arrival_dst
    reference = np.maximum(arrival_dst, 1e-30, out=arrival_dst)
    sink = compiled.sink_in_edges
    residual[sink] = arrival.take(src.take(sink), 0) - delay_bound
    reference[sink] = delay_bound
    return residual, reference


class SubgradientUpdate:
    """The paper's additive A4 step with bound-normalized violations.

    Steps are additionally scaled by the current mean multiplier (floored
    at :attr:`SCALE_FLOOR`), i.e. the effective μ₀ adapts to the
    problem's natural multiplier magnitude.  This is still a valid
    diminishing-step subgradient method (the adaptive factor is bounded
    between the floor and the converged scale) and removes the need to
    hand-tune μ₀ per circuit; the convergence bench compares it against
    the multiplicative rule.
    """

    name = "subgradient"
    #: Floor of the adaptive multiplier scale.
    SCALE_FLOOR = 1e-4

    @staticmethod
    def step(k):
        """``μ_k = 1/√k`` for iteration k = 1, 2, ..."""
        return 1.0 / np.sqrt(max(1, k))

    def apply_batch(self, multipliers, ks, arrival, delays, problems,
                    power_caps, noises):
        """A4 over K lockstep columns.

        ``arrival``/``delays`` are ``(n, K)`` column stacks; the other
        arguments are per-column sequences.  Column ``j`` is
        bit-identical to the one-column rule on that column alone: the
        edge terms come from one :func:`edge_timing_terms` call, the
        mean multiplier scales from
        :func:`~repro.timing.kernels.column_means` (both bitwise-equal
        per column), and the scalar β/γ lines keep the scalar spelling.
        Returns the per-column step sizes μ.
        """
        floor = self.SCALE_FLOOR
        mus = [self.step(k) for k in ks]
        residual, reference = edge_timing_terms(
            multipliers[0].compiled, arrival, delays,
            np.array([p.delay_bound_ps for p in problems]))
        lam_cols = MultiplierState.stack_lam(multipliers)
        coef = np.array([mu * max(float(mean), floor) for mu, mean
                         in zip(mus, kernels.column_means(lam_cols))])
        MultiplierState.unstack_lam(multipliers, np.maximum(
            0.0, lam_cols + coef[None, :] * residual / reference))
        for m, mu, problem, power_cap, noise in zip(
                multipliers, mus, problems, power_caps, noises):
            beta_scale = max(m.beta, floor)
            m.beta = max(0.0, m.beta + mu * beta_scale
                         * (power_cap / problem.power_cap_bound_ff - 1.0))
            gamma_scale = max(m.gamma, floor)
            m.gamma = max(0.0, m.gamma + mu * gamma_scale
                          * (noise / problem.noise_bound_ff - 1.0))
        return mus


class MultiplicativeUpdate:
    """Scale-free ratio update (library default; see module docstring).

    ``μ_k = 3/k^0.3`` meets the paper's conditions (any exponent ≤ 1
    does); its slow decay equilibrates multipliers across deep circuits
    much faster, converging the full ISCAS85 suite, including the
    100+-level c6288, within tens of iterations.  Every ratio is clipped
    to ``[1/RATIO_CLIP, RATIO_CLIP]``.
    """

    name = "multiplicative"
    #: Bound on every per-step ratio.
    RATIO_CLIP = 4.0

    @staticmethod
    def step(k):
        """``μ_k = 3/k^0.3`` for iteration k = 1, 2, ..."""
        return 3.0 / max(1, k) ** 0.3

    def apply_batch(self, multipliers, ks, arrival, delays, problems,
                    power_caps, noises):
        """A4 over K lockstep columns.

        Same contract as :meth:`SubgradientUpdate.apply_batch`: one
        :func:`edge_timing_terms` call and one broadcast
        clip/power/multiply serve every column, column ``j``
        bit-identical to the one-column rule (``ratio ** μ`` with a
        broadcast per-column exponent runs the same elementwise
        ``pow``).  Returns the per-column step sizes μ.
        """
        clip = self.RATIO_CLIP
        mus = [self.step(k) for k in ks]
        residual, reference = edge_timing_terms(
            multipliers[0].compiled, arrival, delays,
            np.array([p.delay_bound_ps for p in problems]))
        ratio = np.clip(1.0 + residual / reference, 1.0 / clip, clip)
        MultiplierState.unstack_lam(
            multipliers, MultiplierState.stack_lam(multipliers)
            * ratio ** np.array(mus)[None, :])
        for m, mu, problem, power_cap, noise in zip(
                multipliers, mus, problems, power_caps, noises):
            m.beta *= min(clip, max(
                1.0 / clip, power_cap / problem.power_cap_bound_ff)) ** mu
            m.gamma *= min(clip, max(
                1.0 / clip, noise / problem.noise_bound_ff)) ** mu
        return mus


#: The A4 rules by name (``OGWSOptimizer(update=...)``, ``FlowConfig.update``).
UPDATE_RULES = {rule.name: rule
                for rule in (MultiplicativeUpdate, SubgradientUpdate)}
