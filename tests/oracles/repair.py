"""The sequential primal repair: one column, one candidate per sweep.

:func:`repair` is the log-space bisection that
:func:`repro.core.ogws.repair_lockstep` runs for every repairing column
of a lockstep iteration at once, written for a single column with each
candidate evaluated through its own 1-D delay and arrival sweeps.  The
merged repair is pinned to it exactly: sizes, metrics and
``repair_evals`` per column.
"""

import numpy as np

from repro.timing.metrics import EvalContext


def repair(opt, x, x_feasible, bisections=7, state=None):
    """Largest-t feasible log-blend between ``x_feasible`` and ``x``.

    Returns ``(sizes, metrics)`` of the closest feasible point toward
    the (infeasible) dual iterate, or ``(None, None)`` if even tiny
    steps leave feasibility (anchor sits on the boundary).  Each
    bisection step evaluates its candidate through a lazy
    :class:`~repro.timing.metrics.EvalContext` — quantities a violated
    earlier constraint makes irrelevant are never computed, and full
    metrics materialize only for feasible candidates.  ``state`` (the
    optimizer's run state) accumulates the ``repair_evals`` counter.
    """
    engine = opt.engine
    cc = engine.compiled
    mask = cc.is_sizable
    log_feas = np.log(x_feasible[mask])
    log_x = np.log(np.maximum(x[mask], 1e-300))

    def candidate(t):
        out = np.zeros(cc.num_nodes)
        out[mask] = np.exp((1.0 - t) * log_feas + t * log_x)
        return cc.clip_sizes(out)

    best = None
    best_metrics = None
    lo, hi = 0.0, 1.0
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        cand = candidate(mid)
        context = EvalContext(engine, cand)
        if state is not None:
            state.repair_evals += 1
        if opt._feasible_lazy(context):
            best, best_metrics = cand, context.metrics
            lo = mid
        else:
            hi = mid
    return best, best_metrics
