"""The engine-method-per-sweep LRS spelling and its coupling sums.

:func:`solve_reference` is the subproblem solver (paper Fig. 8) written
as one engine call per step — capacitance sweep (S2), λ-weighted
upstream sweep (S3), then the closed-form update (S4) — with fresh
arrays throughout.  :func:`node_sums` and :func:`slope_sums` are the
per-node Theorem 5 coupling sums by ``bincount``.  The library's fused
pass (:meth:`~repro.core.lrs.LagrangianSubproblemSolver.solve_batch`
and :meth:`~repro.noise.crosstalk.CouplingSet.node_terms_batch`) is
pinned to these to 1e-12 relative.
"""

import numpy as np

from repro.core.lrs import LRSResult
from repro.noise.coupling import taylor_derivative_factor
from repro.timing.elmore import CouplingDelayMode
from repro.utils.units import OHM_FF_TO_PS


def node_sums(coupling, x):
    """``(cap_sum, dx_sum)`` per node.

    * ``cap_sum[i] = Σ_{j∈N(i)} (c_ij(x) − x_i·∂c_ij/∂x_i)``,
    * ``dx_sum[i] = Σ_{j∈N(i)} ∂c_ij/∂x_i``.
    """
    n = coupling.num_nodes
    if coupling.num_pairs == 0:
        return np.zeros(n), np.zeros(n)
    endpoints = np.concatenate([coupling.pair_i, coupling.pair_j])
    u = coupling.size_ratio(x)
    caps = coupling.pair_caps(x)
    slopes = coupling.chat * taylor_derivative_factor(u, coupling.order)
    cap_sum = np.bincount(endpoints, weights=np.concatenate([caps, caps]),
                          minlength=n).astype(float)
    dx_sum = np.bincount(endpoints, weights=np.concatenate([slopes, slopes]),
                         minlength=n).astype(float)
    cap_sum -= x * dx_sum
    return cap_sum, dx_sum


def slope_sums(coupling, x, gamma):
    """``Σ_{j∈N(i)} γ · ∂c_ij/∂x_i`` per node, for the scalar crosstalk
    multiplier ``gamma``."""
    n = coupling.num_nodes
    if coupling.num_pairs == 0:
        return np.zeros(n)
    u = coupling.size_ratio(x)
    slopes = coupling.chat * taylor_derivative_factor(u, coupling.order)
    weighted = gamma * slopes
    endpoints = np.concatenate([coupling.pair_i, coupling.pair_j])
    return np.bincount(endpoints, weights=np.concatenate([weighted, weighted]),
                       minlength=n).astype(float)


def solve_reference(engine, multipliers, x0=None, tolerance=1e-7,
                    max_passes=200):
    """Iterate the Theorem 5 update to its fixed point, one sweep per call.

    ``engine`` supplies ``compiled``, ``coupling``, ``mode``,
    ``capacitances`` and ``weighted_upstream_resistance`` (an
    :class:`~repro.timing.elmore.ElmoreEngine` or the level-sweep oracle).
    """
    cc = engine.compiled
    coupling = engine.coupling
    lam_node = multipliers.node_multipliers()
    beta, gamma = multipliers.beta, multipliers.gamma

    x = cc.lower.copy() if x0 is None else np.asarray(x0, dtype=float).copy()
    x = cc.clip_sizes(np.where(cc.is_sizable, np.maximum(x, cc.lower), 0.0))

    sizable = cc.is_sizable
    wires = cc.is_wire
    r_hat_eff = cc.r_hat * OHM_FF_TO_PS
    numer_lam_r = lam_node * r_hat_eff

    max_rel = np.inf
    passes = 0
    while passes < max_passes and max_rel > tolerance:
        passes += 1
        caps = engine.capacitances(x)                       # S2
        upstream = engine.weighted_upstream_resistance(x, lam_node)  # S3
        cap_sum, dx_sum = node_sums(coupling, x)
        gamma_slopes = slope_sums(coupling, x, gamma)
        if engine.mode is CouplingDelayMode.NONE:
            k_cap = caps["child_sum"] + np.where(wires, 0.5 * cc.fringe, 0.0)
            cpl_np = np.zeros_like(dx_sum)
        else:
            k_cap = caps["child_sum"] + np.where(
                wires, 0.5 * cc.fringe + cap_sum, 0.0)
            cpl_np = dx_sum
        denom = cc.alpha + (beta + upstream) * cc.c_hat + gamma_slopes
        if engine.mode is CouplingDelayMode.PROPAGATED:
            denom = denom + upstream * cpl_np
        opt = np.zeros_like(x)
        np.divide(np.maximum(numer_lam_r * k_cap, 0.0), denom, out=opt,
                  where=sizable)
        np.sqrt(opt, out=opt)                               # S4
        x_new = cc.clip_sizes(np.where(sizable, opt, 0.0))
        with np.errstate(invalid="ignore"):
            rel = np.abs(x_new - x) / np.where(sizable, x, 1.0)
        max_rel = float(np.max(rel[sizable], initial=0.0))
        x = x_new
    return LRSResult(x=x, passes=passes, max_rel_change=max_rel,
                     converged=max_rel <= tolerance)
