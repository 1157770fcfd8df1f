"""The per-level Theorem 3 flow projection.

:func:`project_reference` walks the graph levels bottom-up with
unbuffered scatters, rescaling each level's in-edge multipliers to the
already-final out-flow.  :meth:`repro.core.multipliers.MultiplierState.
project` runs the condensed kernel cascade instead; the kernel tests pin
the two to 1e-10 relative.
"""

import numpy as np


def project_reference(state):
    """Project ``state.lam_edge`` in place; returns ``state``."""
    cc = state.compiled
    lam = state.lam_edge
    # Each edge belongs to exactly one src-level and one dst-level
    # group, so accumulating group by group keeps the whole sweep at
    # O(#edges).  An edge's λ is final once its dst node has been
    # processed, and every out-edge of a level-ℓ node points to a
    # deeper level — so its outflow below is computed from final
    # values.
    outflow = np.zeros(cc.num_nodes)
    inflow = np.zeros(cc.num_nodes)
    for level in range(cc.num_levels - 2, 0, -1):
        eids_out = cc.edges_by_src_level[level]
        if len(eids_out):
            np.add.at(outflow, cc.edge_src[eids_out], lam[eids_out])
        eids = cc.edges_by_dst_level[level]
        if not len(eids):
            continue
        dst = cc.edge_dst[eids]
        np.add.at(inflow, dst, lam[eids])
        safe_in = np.where(inflow[dst] > 0.0, inflow[dst], 1.0)
        lam[eids] *= np.where(inflow[dst] > 0.0, outflow[dst] / safe_in, 0.0)
        # Dead in-edges under live out-flow: split out-flow equally.
        dead = (inflow[dst] <= 0.0) & (outflow[dst] > 0.0)
        if np.any(dead):
            lam[eids[dead]] = (outflow[dst] / cc.in_degree[dst])[dead]
    return state
