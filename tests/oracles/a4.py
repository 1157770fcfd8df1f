"""The one-column A4 update rules.

:func:`multiplicative` and :func:`subgradient` step one scenario's
multipliers in place, written for ``(n,)`` arrivals and delays with the
scalar bound; each returns its step size μ.  :func:`edge_terms` is the
per-edge constraint terms by fancy and boolean indexing.  The library's
rules (:class:`~repro.core.subgradient.MultiplicativeUpdate` and
:class:`~repro.core.subgradient.SubgradientUpdate`) have one method,
``apply_batch``, over K lockstep columns, and are pinned to these bit
for bit per column, as
:func:`~repro.core.subgradient.edge_timing_terms` is to
:func:`edge_terms`.
"""

import numpy as np


def edge_terms(compiled, arrival, delays, delay_bound):
    """``(residual, reference)`` per edge: ``a_j + D_i − a_i`` over
    ``a_i`` on internal and driver edges, ``a_j − A0`` over ``A0`` on
    sink edges."""
    src, dst = compiled.edge_src, compiled.edge_dst
    residual = arrival[src] + delays[dst] - arrival[dst]
    reference = np.maximum(arrival[dst], 1e-30)
    on_sink = dst == compiled.sink
    residual[on_sink] = arrival[src[on_sink]] - delay_bound
    reference[on_sink] = delay_bound
    return residual, reference


def multiplicative(multipliers, k, arrival, delays, problem, power_cap,
                   noise):
    """``λ ← λ·ratioᵘ``, ``β ← β·(P/P')ᵘ``, ``γ ← γ·(X/X_B)ᵘ`` with
    ``μ_k = 3/k^0.3`` and every ratio clipped to ``[1/4, 4]``."""
    mu = 3.0 / max(1, k) ** 0.3
    residual, reference = edge_terms(
        multipliers.compiled, arrival, delays, problem.delay_bound_ps)
    ratio = np.clip(1.0 + residual / reference, 1.0 / 4.0, 4.0)
    multipliers.lam_edge = multipliers.lam_edge * ratio ** mu
    multipliers.beta *= min(4.0, max(
        1.0 / 4.0, power_cap / problem.power_cap_bound_ff)) ** mu
    multipliers.gamma *= min(4.0, max(
        1.0 / 4.0, noise / problem.noise_bound_ff)) ** mu
    return mu


def subgradient(multipliers, k, arrival, delays, problem, power_cap, noise):
    """Additive steps along the bound-normalized violations, scaled by
    the mean multiplier floored at 1e-4, with ``μ_k = 1/√k``."""
    mu = 1.0 / np.sqrt(max(1, k))
    residual, reference = edge_terms(
        multipliers.compiled, arrival, delays, problem.delay_bound_ps)
    lam_scale = max(float(np.mean(multipliers.lam_edge)), 1e-4)
    multipliers.lam_edge = np.maximum(
        0.0, multipliers.lam_edge + mu * lam_scale * residual / reference)
    beta_scale = max(multipliers.beta, 1e-4)
    multipliers.beta = max(
        0.0, multipliers.beta
        + mu * beta_scale * (power_cap / problem.power_cap_bound_ff - 1.0))
    gamma_scale = max(multipliers.gamma, 1e-4)
    multipliers.gamma = max(
        0.0, multipliers.gamma
        + mu * gamma_scale * (noise / problem.noise_bound_ff - 1.0))
    return mu
