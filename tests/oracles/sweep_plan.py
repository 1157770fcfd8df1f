"""List-based reference builder for :class:`repro.timing.kernels.SweepPlan`.

This is the per-node Python spelling of every plan structure: closures
as lists of lists walked in level order, the condensed levels by one
sequential relaxation, the projection levels target by target.  The
library builds the same arrays from flat index arithmetic; the plan
tests assert that every attribute agrees in dtype, shape and value.
"""

import types

import numpy as np

from repro.timing.kernels import CSROp, ProjectLevel
from repro.utils.units import OHM_FF_TO_PS


def csr_from_lists(lists, n_rows):
    """A :class:`CSROp` whose row ``i`` lists ``lists[i]`` in order."""
    sizes = np.array([len(lst) for lst in lists], dtype=np.int64)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    indices = np.array([j for lst in lists for j in lst], dtype=np.int64)
    return CSROp(indptr, indices)


def reference_sweep_plan(compiled):
    """Every :class:`SweepPlan` attribute, built node by node."""
    cc = compiled
    plan = types.SimpleNamespace()
    plan.compiled = cc
    plan.num_nodes = cc.num_nodes
    plan.num_edges = cc.num_edges
    plan.num_levels = cc.num_levels
    n = cc.num_nodes

    children = [[] for _ in range(n)]
    parents = [[] for _ in range(n)]
    for src, dst in zip(cc.edge_src, cc.edge_dst):
        children[int(src)].append(int(dst))
        parents[int(dst)].append(int(src))
    order = np.argsort(cc.level, kind="stable")
    is_wire = cc.is_wire

    desc = [None] * n
    for i in order[::-1]:
        i = int(i)
        lst = []
        for c in children[i]:
            lst.append(c)
            if is_wire[c]:
                lst.extend(desc[c])
        desc[i] = lst
    anc = [None] * n
    for i in order:
        i = int(i)
        lst = []
        for p in parents[i]:
            lst.append(p)
            if is_wire[p]:
                lst.extend(anc[p])
        anc[i] = lst
    plan.desc = csr_from_lists(desc, n)
    plan.anc = csr_from_lists(anc, n)
    plan.units = np.ones(plan.anc.nnz)
    plan.desc_base = cc.load_cap

    anchor = np.arange(n, dtype=np.int64)
    for i in order:
        i = int(i)
        if is_wire[i]:
            anchor[i] = anchor[cc.wire_parent[i]]
    plan.anchor = anchor
    chain = [[i] + [j for j in anc[i] if is_wire[j]] if is_wire[i] else []
             for i in range(n)]
    plan.wire_chain = csr_from_lists(chain, n)
    plan.wire_indices = cc.wire_indices

    nonwire = np.flatnonzero(~is_wire)
    boundary = np.flatnonzero(~is_wire[cc.edge_dst])
    cond_dst = cc.edge_dst[boundary]
    cond_anchor = anchor[cc.edge_src[boundary]]
    cond_hop = cc.edge_src[boundary]
    clevel = np.zeros(n, dtype=np.int64)
    for e in np.argsort(cond_dst, kind="stable"):
        d, a = cond_dst[e], cond_anchor[e]
        if clevel[a] + 1 > clevel[d]:
            clevel[d] = clevel[a] + 1
    plan.cond_nodes = nonwire[np.argsort(clevel[nonwire], kind="stable")]
    cpos = np.full(n, -1, dtype=np.int64)
    cpos[plan.cond_nodes] = np.arange(len(plan.cond_nodes))
    n_clevels = int(clevel[nonwire].max(initial=0)) + 1
    plan.cond_node_ptr = np.searchsorted(
        np.sort(clevel[nonwire]), np.arange(n_clevels + 1))
    plan.wire_anchor_pos = np.ascontiguousarray(
        cpos[anchor[cc.wire_indices]])

    eorder = np.lexsort((cond_dst, clevel[cond_dst]))
    cond_dst = cond_dst[eorder]
    plan.arr_anchor_pos = np.ascontiguousarray(cpos[cond_anchor[eorder]])
    plan.arr_hop = np.ascontiguousarray(cond_hop[eorder])
    edge_levels = clevel[cond_dst]
    plan.arr_edge_ptr = np.searchsorted(edge_levels, np.arange(n_clevels + 1))
    plan.arr_starts = []
    for level in range(n_clevels):
        lo, hi = plan.arr_edge_ptr[level], plan.arr_edge_ptr[level + 1]
        dsts = cond_dst[lo:hi]
        starts = np.flatnonzero(
            np.concatenate(([True], dsts[1:] != dsts[:-1]))) \
            if hi > lo else np.zeros(0, dtype=np.int64)
        plan.arr_starts.append(np.ascontiguousarray(starts))
    plan.max_cond_edges = int(np.max(np.diff(plan.arr_edge_ptr), initial=0))

    plan.boundary_ids = boundary
    plan.sink_pos = next(k for k, node in enumerate(plan.cond_nodes)
                         if node == cc.sink)
    # Node i's row in the arrival buffer: condensed nodes in condensed
    # order, then wires in wire_indices order.
    perm = np.zeros(n, dtype=np.int64)
    for row, node in enumerate(plan.cond_nodes):
        perm[node] = row
    for row, node in enumerate(cc.wire_indices):
        perm[node] = len(plan.cond_nodes) + row
    plan.arr_perm = perm
    by_anchor = [[] for _ in range(n)]
    for k, e in enumerate(boundary):
        by_anchor[int(anchor[cc.edge_src[e]])].append(k)
    in_of = [[] for _ in range(n)]
    for k, e in enumerate(boundary):
        in_of[int(cc.edge_dst[e])].append(k)
    plan.proj_levels = []
    for level in range(n_clevels - 1, 0, -1):
        lo, hi = plan.cond_node_ptr[level], plan.cond_node_ptr[level + 1]
        targets = [int(t) for t in plan.cond_nodes[lo:hi] if t != cc.sink]
        if not targets:
            continue
        in_pos, in_starts, expand = [], [], []
        out_pos, out_starts, out_sel = [], [], []
        for ti, t in enumerate(targets):
            in_starts.append(len(in_pos))
            in_pos.extend(in_of[t])
            expand.extend([ti] * len(in_of[t]))
            if by_anchor[t]:
                out_sel.append(ti)
                out_starts.append(len(out_pos))
                out_pos.extend(by_anchor[t])
        plan.proj_levels.append(ProjectLevel(
            np.array(in_pos, dtype=np.int64),
            np.array(in_starts, dtype=np.int64),
            np.array(expand, dtype=np.int64),
            cc.in_degree[targets].astype(float),
            np.array(out_pos, dtype=np.int64),
            np.array(out_starts, dtype=np.int64),
            np.array(out_sel, dtype=np.int64),
            len(targets)))
    scatter = [[] for _ in range(cc.num_edges)]
    for k, e in enumerate(boundary):
        scatter[int(e)].append(k)
        src = int(cc.edge_src[e])
        walk = [src] if is_wire[src] else []
        if walk:
            walk += [int(j) for j in anc[src] if is_wire[j]]
        for w in walk:
            scatter[int(cc.in_edges[cc.in_ptr[w]])].append(k)
    plan.proj_scatter = csr_from_lists(scatter, cc.num_edges)

    plan.gate_nodes = cc.gate_indices
    plan.driver_nodes = np.flatnonzero(cc.is_driver)
    plan.sizable_idx = cc.component_indices
    plan.nonsizable_idx = np.flatnonzero(~cc.is_sizable)

    plan.r_hat_eff = cc.r_hat * OHM_FF_TO_PS
    plan.half_fringe_wire = np.where(cc.is_wire, 0.5 * cc.fringe, 0.0)
    plan.wire_mask_f = cc.is_wire.astype(float)
    plan.wire_load_cap = np.where(cc.is_wire, cc.load_cap, 0.0)
    sizable_f = cc.is_sizable.astype(float)
    plan.alpha_sizable = cc.alpha * sizable_f
    plan.c_hat_sizable = cc.c_hat * sizable_f
    plan.fringe_total = float(np.sum(cc.fringe[cc.is_sizable]))
    return plan
