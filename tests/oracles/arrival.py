"""The arrival sweep's node-order write-back, spelled with scatters.

:func:`arrival_fill_scatter` runs the condensed level loop of
:func:`repro.timing.kernels.arrival_sweep` on fresh arrays and then
writes node order the way the kernel once did: one fill of the output,
one scatter of the condensed arrivals to their nodes and one scatter of
the wire arrivals (anchor arrival plus chain delay) to theirs.  The
kernel's one gather through ``plan.arr_perm`` is pinned to it bit for
bit.
"""

import numpy as np

from repro.timing.kernels import csr_matvec


def arrival_fill_scatter(plan, delays):
    """Arrival times at every node for ``(n,)`` or ``(n, K)`` delays."""
    chain = np.empty(delays.shape)
    csr_matvec(plan.wire_chain, delays, chain)
    arrc = np.zeros((len(plan.cond_nodes),) + delays.shape[1:])
    delays_c = delays[plan.cond_nodes]
    chain_e = chain[plan.arr_hop]
    for level in range(1, len(plan.arr_starts)):
        e_lo, e_hi = plan.arr_edge_ptr[level], plan.arr_edge_ptr[level + 1]
        n_lo, n_hi = plan.cond_node_ptr[level], plan.cond_node_ptr[level + 1]
        hops = arrc[plan.arr_anchor_pos[e_lo:e_hi]] + chain_e[e_lo:e_hi]
        arrc[n_lo:n_hi] = np.maximum.reduceat(
            hops, plan.arr_starts[level], axis=0) + delays_c[n_lo:n_hi]
    out = np.zeros(delays.shape)
    out[plan.cond_nodes] = arrc
    wires = plan.wire_indices
    out[wires] = arrc[plan.wire_anchor_pos] + chain[wires]
    return out
