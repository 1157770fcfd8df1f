"""Precompiled sweep plans for the solver hot path.

The timing/sizing inner loops are per-level scatter sweeps.  The
straightforward NumPy spelling (``np.add.at`` / ``np.maximum.at`` per
level) pays an unbuffered fancy-indexing loop *and* a fixed Python/numpy
dispatch cost per level; at ISCAS85 scale a circuit has ~100 levels of
~100 edges each, so dispatch overhead — not arithmetic — dominates an
LRS pass.  This module precompiles three structures per circuit that
remove that overhead:

**Stage closures** (``desc``, ``anc``).  The paper's delay model is
*stage-limited*: capacitance accumulation and λ-weighted upstream
resistance only traverse wire (sub)trees — gate boundaries terminate
them.  Both recurrences therefore unroll into static sparse linear
operators with unit coefficients,

    child_sum[i] = load_cap[i] + Σ_{j ∈ desc(i)} s[j]
    upstream[i]  =               Σ_{j ∈ anc(i)}  λ_j·r_j

where ``desc(i)`` (within-stage descendants: children, then onward
through wires only) and ``anc(i)`` (within-stage ancestors, as a
multiset over converging gate inputs) are precomputed index lists.
Because stages are shallow, the closures stay at ~1.5× the edge count
(c7552: 18.6k entries over 12.5k edges), and one CSR matrix–vector
product evaluates the entire sweep with **no level loop**.

**The condensed arrival graph**.  Arrival times are a true max-plus
recurrence, but the max only happens where paths converge — at gates.
Wires have in-degree exactly one, so along a wire chain arrival is just
``arrival[stage anchor] + Σ chain delays``, and the chain sums are
another static closure (``chain = WireChain · delays``).  The level
recursion then runs over the *condensed* graph (non-wire nodes only,
one edge per gate input carrying its anchor and chain hop), which has
roughly a third of the levels and edges; wire arrivals follow from
each wire's anchor, and one gather puts every arrival in node order.
A circuit-delay probe stops after the level loop and reads the sink.

**Projection segments** (``proj_in`` / ``proj_out``).  The Theorem 3
flow projection rescales each level's in-edge multipliers to match the
already-final out-flow; its per-level scatters are presorted by node so
each level is a ``take``/``reduceat``/assign triple.

**One CSR backend**, :func:`csr_matvec`: SciPy's raw ``csr_matvec``/
``csr_matvecs`` kernels add each row in index order, bit for bit the
per-row oracle in ``tests/oracles/csr.py``.  Their C extension is loaded
alone: ``scipy.sparse`` is some 290 modules that no solve uses.
:class:`Workspace` preallocates all scratch, so a steady-state LRS pass
in :class:`~repro.core.lrs.LagrangianSubproblemSolver` allocates
nothing (guarded by tracemalloc in ``tests/timing/test_kernels.py``).

**Batched (column-stacked) evaluation.**  Every sweep in this module is
shape-polymorphic: passing ``(n, K)`` C-contiguous iterates — one column
per scenario — evaluates K scenarios at once.  The CSR products become
matrix–matrix products (SciPy's ``csr_matvecs``), so the closure index
arrays are traversed once for all K columns instead of once per
scenario, and the per-level ``reduceat`` segments amortize their Python
dispatch the same way.  Per-column results are **bit-identical** to the
K = 1 sweeps: the multi-vector CSR kernel performs the same additions in
the same order per column, elementwise ufuncs are per-element, and
``reduceat`` accumulates each segment sequentially per column.  That
exactness is what lets the batched multi-scenario solver
(:mod:`repro.core.session`) promise records byte-identical to serial
single-scenario runs.  A single column goes through SciPy's
single-vector ``csr_matvec`` on 1-D views (same additions, same order,
faster than the multi-vector kernel at K = 1).  Batched scratch comes
from ``Workspace(plan, width=K)``, which also holds the per-node
constants at width K (contiguous copies, so no ufunc broadcasts an
``(n, 1)`` column); :class:`BatchWorkspace` pools those by width so the
lockstep solver reuses buffers as scenario batches shrink, and its
width-1 buffers double, as 1-D views, as the scratch of the engine's
single-point sweeps.

The per-level ``np.add.at`` / ``np.maximum.at`` spelling these kernels
replace lives on as a test oracle (``tests/oracles/``); equivalence
property tests pin agreement to 1e-12 relative across delay modes,
coupling orders and multipliers.  Plans are read-only,
workspaces single-threaded; obtain them via ``compiled.sweep_plan()``
and ``ElmoreEngine.pool``.
"""

import os
import sys
from importlib import machinery, util

import numpy as np

from repro.circuit.circuit import _csr


def _load_sparsetools():
    """SciPy's ``_sparsetools`` without ``scipy.sparse``: an imported copy,
    else the installed file (``find_spec`` imports nothing) registered
    under its canonical name, where ``import scipy.sparse`` finds it."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    scipy = util.find_spec("scipy")
    spec = None if scipy is None else machinery.PathFinder.find_spec(
        name, [os.path.join(scipy.submodule_search_locations[0], "sparse")])
    if spec is None:  # pragma: no cover
        from scipy.sparse import _sparsetools

        return _sparsetools
    module = util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_st = _load_sparsetools()


class CSROp:
    """A static unit-coefficient CSR operator ``y = A·x`` over ``n`` rows.

    ``indptr``/``indices`` follow the usual CSR convention; ``data`` is
    all ones (closure coefficients are unit by construction): a view of
    the caller's read-only ``units`` vector when one is given, else a
    vector of its own.  Row order matters: the kernels add each row's
    entries in ``indices`` order, so two operators with the same rows in
    a different order agree only to rounding.
    """

    __slots__ = ("indptr", "indices", "data", "n_rows")

    def __init__(self, indptr, indices, units=None):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.n_rows = len(self.indptr) - 1
        nnz = len(self.indices)
        self.data = np.ones(nnz) if units is None else units[:nnz]
        if len(self.data) != nnz:
            raise ValueError("unit vector shorter than the operator")

    @classmethod
    def from_arrays(cls, rows, cols, n_rows, units=None):
        """The operator with one entry ``cols[k]`` in row ``rows[k]``.

        Entries keep their given relative order within each row (one
        stable sort by row).
        """
        indptr, order = _csr(rows, n_rows)
        return cls(indptr, np.asarray(cols)[order], units)

    @property
    def nnz(self):
        return len(self.indices)

    @property
    def nbytes(self):  # a shared ``units`` vector is its owner's to count
        data = self.data.nbytes if self.data.base is None else 0
        return self.indptr.nbytes + self.indices.nbytes + data


def csr_matvec(op, x, y):
    """``y ← op·x`` into the preallocated ``y`` (no allocation).

    ``y[i] = ((0.0 + x[j0]) + x[j1]) + …`` in index order.  ``x`` may be
    ``(n,)`` or a C-contiguous column-stacked ``(n, K)`` matrix; the
    multi-vector case goes through ``csr_matvecs`` (one index traversal
    for all K columns) and is bit-identical per column to the
    single-vector kernel.  One column is one vector: it runs the
    single-vector kernel on 1-D views of ``x`` and ``y``.
    """
    y.fill(0.0)
    if not op.nnz:
        return y
    if x.ndim == 1:
        _st.csr_matvec(op.n_rows, len(x), op.indptr, op.indices, op.data,
                       x, y)
    elif x.shape[1] == 1 and y.flags.c_contiguous:
        _st.csr_matvec(op.n_rows, len(x), op.indptr, op.indices, op.data,
                       x.reshape(-1), y.reshape(-1))
    else:
        _st.csr_matvecs(op.n_rows, len(x), x.shape[1], op.indptr,
                        op.indices, op.data, x, y)
    return y


class ProjectLevel:
    """One condensed level of the flow-projection cascade.

    All index arrays point into the compressed boundary-multiplier
    vector ``lamb``: ``in_pos`` are this level's targets' in-edges
    (grouped by target via ``in_starts``), ``out_pos`` the boundary
    edges anchored at the targets that *have* fan-out (grouped via
    ``out_starts``; ``out_sel`` selects those targets).  ``expand``
    broadcasts per-target factors back to in-edges and ``in_deg`` holds
    the targets' full graph in-degree for the dead-edge rule.
    """

    __slots__ = ("in_pos", "in_starts", "expand", "in_deg",
                 "out_pos", "out_starts", "out_sel", "n_targets")

    def __init__(self, in_pos, in_starts, expand, in_deg,
                 out_pos, out_starts, out_sel, n_targets):
        self.in_pos = in_pos
        self.in_starts = in_starts
        self.expand = expand
        self.in_deg = in_deg
        self.out_pos = out_pos
        self.out_starts = out_starts
        self.out_sel = out_sel
        self.n_targets = n_targets


def _exclusive_cumsum(counts):
    """Start offsets of consecutive segments of the given sizes."""
    out = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


def _ranges(starts, lengths):
    """Concatenated ``arange(s, s + l)`` over the ``(s, l)`` pairs."""
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = _exclusive_cumsum(lengths)
    total = int(offsets[-1] + lengths[-1]) if len(lengths) else 0
    return np.repeat(starts - offsets, lengths) + np.arange(total)


def _stage_closure(grouped, row_of, far, is_wire, schedule, n):
    """One stage closure as ``(indptr, indices)``, plus its row sizes.

    Row ``i`` walks the edges ``e`` with ``row_of[e] == i`` in
    ``grouped`` order (all edges, grouped by row, edge-id order within
    a row) and lists ``far[e]``, followed by ``far[e]``'s own row when
    ``far[e]`` is a wire — a pre-order walk that stops at gate
    boundaries.  ``schedule`` visits the edges one graph level at a
    time such that every ``far`` row is final before it is needed.

    Two passes over ``schedule``: the first accumulates row sizes (an
    edge spans one entry plus its wire's row), which fixes every edge's
    slot by one prefix sum; the second copies each wire's finished row
    into its slots, one block gather per level.
    """
    hop_edge = is_wire[far]
    size = np.zeros(n, dtype=np.int64)
    span = np.ones(len(far), dtype=np.int64)
    for eids in schedule:
        hops = eids[hop_edge[eids]]
        span[hops] += size[far[hops]]
        np.add.at(size, row_of[eids], span[eids])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(size, out=indptr[1:])
    slot = np.empty(len(far), dtype=np.int64)
    slot[grouped] = _exclusive_cumsum(span[grouped])
    indices = np.empty(indptr[-1], dtype=np.int64)
    indices[slot] = far
    for eids in schedule:
        hops = eids[hop_edge[eids]]
        lengths = size[far[hops]]
        indices[_ranges(slot[hops] + 1, lengths)] = \
            indices[_ranges(indptr[far[hops]], lengths)]
    return indptr, indices, size


class SweepPlan:
    """Precompiled sweep structures for one :class:`CompiledCircuit`.

    Obtain via ``compiled.sweep_plan()`` (memoized).  Carries the stage
    closures, condensed arrival graph, and projection segments described
    in the module docstring, plus the static per-node constants of the
    fused LRS pass (``r_hat_eff``, ``half_fringe_wire``, ``wire_mask_f``,
    ``wire_load_cap``) and index vectors (``gate_nodes``,
    ``driver_nodes``, ``sizable_idx``, ``nonsizable_idx``).

    Built from flat index arrays — prefix sums, block copies, stable
    sorts and loops over graph levels, never over nodes — with no
    per-node Python lists; ``tests/oracles/sweep_plan.py`` keeps the
    list-based spelling that every attribute is pinned against.
    """

    def __init__(self, compiled):
        from repro.utils.units import OHM_FF_TO_PS

        cc = compiled
        self.compiled = cc
        self.num_nodes = cc.num_nodes
        self.num_edges = cc.num_edges
        self.num_levels = cc.num_levels
        # Each builder keeps only plan arrays; its scratch dies when it
        # returns, so a build peaks near the plan's own size.
        self._build_closures(cc)
        self._build_condensed(cc)
        self._build_projection(cc)

        self.gate_nodes = cc.gate_indices
        self.driver_nodes = np.flatnonzero(cc.is_driver)
        self.sizable_idx = cc.component_indices
        self.nonsizable_idx = np.flatnonzero(~cc.is_sizable)

        # Static fused-pass constants.
        self.r_hat_eff = cc.r_hat * OHM_FF_TO_PS
        self.half_fringe_wire = np.where(cc.is_wire, 0.5 * cc.fringe, 0.0)
        self.wire_mask_f = cc.is_wire.astype(float)
        self.wire_load_cap = np.where(cc.is_wire, cc.load_cap, 0.0)
        # Sizable-masked model vectors: the Table 1 totals become single
        # dot products (Σ α·x, Σ ĉ·x + Σf) instead of masked reductions.
        sizable_f = cc.is_sizable.astype(float)
        self.alpha_sizable = cc.alpha * sizable_f
        self.c_hat_sizable = cc.c_hat * sizable_f
        self.fringe_total = float(np.sum(cc.fringe[cc.is_sizable]))

    def _build_closures(self, cc):
        """Stage closures, wire anchors and the wire chain closure.

        Wires have in-degree exactly one, so the within-stage
        reachability used by both closures is a forest: every closure
        entry corresponds to exactly one traversal path of the reference
        sweeps (multiset semantics at converging gates).  ``desc`` rows
        walk out-edges (reverse level order), ``anc`` rows walk in-edges
        (level order).  All four plan operators view one read-only
        ``units`` vector: ``desc`` and ``anc`` list the same paths from
        either end, and the chain and projection operators split
        ``anc``'s entries (wire rows, non-wire rows).
        """
        n, is_wire, wires = cc.num_nodes, cc.is_wire, cc.wire_indices
        desc_ptr, desc_idx, _ = _stage_closure(
            cc.out_edges, cc.edge_src, cc.edge_dst, is_wire,
            cc.edges_by_src_level[::-1], n)
        anc_ptr, anc_idx, anc_size = _stage_closure(
            cc.in_edges, cc.edge_dst, cc.edge_src, is_wire,
            cc.edges_by_dst_level, n)
        self.units = np.ones(len(anc_idx))
        self.units.flags.writeable = False
        self.desc = CSROp(desc_ptr, desc_idx, self.units)
        self.anc = CSROp(anc_ptr, anc_idx, self.units)
        self.desc_base = cc.load_cap
        # A wire's ancestor row is its chain of wires up to the first
        # non-wire node — its anchor, always the row's last entry — so
        # the wire's chain row is the wire itself plus that row minus
        # the anchor.
        self.anchor = np.arange(n, dtype=np.int64)
        self.anchor[wires] = anc_idx[anc_ptr[wires + 1] - 1]
        chain_size = np.zeros(n, dtype=np.int64)
        chain_size[wires] = anc_size[wires]
        chain_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(chain_size, out=chain_ptr[1:])
        chain_idx = np.empty(chain_ptr[-1], dtype=np.int64)
        chain_idx[chain_ptr[wires]] = wires
        chain_idx[_ranges(chain_ptr[wires] + 1, anc_size[wires] - 1)] = \
            anc_idx[_ranges(anc_ptr[wires], anc_size[wires] - 1)]
        self.wire_chain = CSROp(chain_ptr, chain_idx, self.units)
        self.wire_indices = wires

    def _build_condensed(self, cc):
        """The condensed arrival graph's max-plus schedule.

        The condensed node order is (condensed level, node id); per-level
        node slices are contiguous in that order, so the sweep assigns
        into views.
        """
        n, anchor = cc.num_nodes, self.anchor
        nonwire = np.flatnonzero(~cc.is_wire)
        boundary = np.flatnonzero(~cc.is_wire[cc.edge_dst])  # edge ids
        cond_dst = cc.edge_dst[boundary]
        cond_anchor = anchor[cc.edge_src[boundary]]
        # Condensed levels: longest anchor paths.  Every anchor sits at
        # a lower graph level than the gate it feeds, so relaxing the
        # edges one graph level of their destination at a time sees
        # only final anchor levels.
        clevel = np.zeros(n, dtype=np.int64)
        dst_level = cc.level[cond_dst]
        by_level = np.argsort(dst_level, kind="stable")
        level_ptr = np.searchsorted(dst_level[by_level],
                                    np.arange(cc.num_levels + 1))
        for lo, hi in zip(level_ptr[:-1], level_ptr[1:]):
            if hi > lo:
                sel = by_level[lo:hi]
                np.maximum.at(clevel, cond_dst[sel],
                              clevel[cond_anchor[sel]] + 1)
        self.cond_nodes = nonwire[
            np.argsort(clevel[nonwire], kind="stable")]
        cpos = np.full(n, -1, dtype=np.int64)
        cpos[self.cond_nodes] = np.arange(len(self.cond_nodes))
        n_clevels = int(clevel[nonwire].max(initial=0)) + 1
        self.cond_node_ptr = np.searchsorted(
            np.sort(clevel[nonwire]), np.arange(n_clevels + 1))
        self.wire_anchor_pos = np.ascontiguousarray(
            cpos[anchor[cc.wire_indices]])

        # Condensed edges sorted by (level of dst, dst): per level the
        # segment targets are then exactly the level's node slice, so
        # ``maximum.reduceat`` writes straight into the slice view.
        eorder = np.lexsort((cond_dst, clevel[cond_dst]))
        cond_dst = cond_dst[eorder]
        self.arr_anchor_pos = np.ascontiguousarray(cpos[cond_anchor[eorder]])
        self.arr_hop = np.ascontiguousarray(cc.edge_src[boundary[eorder]])
        edge_levels = clevel[cond_dst]
        self.arr_edge_ptr = np.searchsorted(edge_levels,
                                            np.arange(n_clevels + 1))
        self.arr_starts = []
        for level in range(n_clevels):
            lo, hi = self.arr_edge_ptr[level], self.arr_edge_ptr[level + 1]
            dsts = cond_dst[lo:hi]
            starts = np.flatnonzero(
                np.concatenate(([True], dsts[1:] != dsts[:-1]))) \
                if hi > lo else np.zeros(0, dtype=np.int64)
            self.arr_starts.append(np.ascontiguousarray(starts))
            node_lo = self.cond_node_ptr[level]
            node_hi = self.cond_node_ptr[level + 1]
            if level and not np.array_equal(dsts[starts],
                                            self.cond_nodes[node_lo:node_hi]):
                raise AssertionError(
                    "condensed arrival schedule out of sync")  # pragma: no cover
        self.max_cond_edges = int(np.max(np.diff(self.arr_edge_ptr),
                                         initial=0))
        self.boundary_ids = boundary
        # The sink's condensed position (a circuit-delay probe reads only
        # it) and the full sweep's one gather: node i's arrival sits at
        # row arr_perm[i] of a node-length buffer holding the condensed
        # arrivals first, then the wire arrivals in wire_indices order.
        self.sink_pos = int(cpos[cc.sink])
        cpos[cc.wire_indices] = len(self.cond_nodes) + np.arange(
            len(cc.wire_indices))
        self.arr_perm = cpos

    def _build_projection(self, cc):
        """The flow-projection cascade over the condensed graph.

        Only boundary edges (non-wire destination) carry independent
        multiplier values through the Theorem 3 renormalization: a
        wire's single in-edge always ends up at exactly its subtree's
        boundary out-flow, so wire edges are reconstructed afterwards by
        one static scatter.  Boundary positions grouped (stably) by
        destination give each target's in-edges, grouped by anchor its
        out-edges.
        """
        n, boundary = cc.num_nodes, self.boundary_ids
        hop = cc.edge_src[boundary]
        # Per-edge reconstruction (built first, before the level
        # grouping arrays exist): boundary edges map to themselves; a
        # wire's in-edge sums the boundary edges below the wire — those
        # whose source's wire chain contains it.
        chain = self.wire_chain
        hops = np.diff(chain.indptr)[hop]
        walk = chain.indices[_ranges(chain.indptr[hop], hops)]
        positions = np.arange(len(boundary))
        self.proj_scatter = CSROp.from_arrays(
            np.concatenate([boundary, cc.in_edges[cc.in_ptr[walk]]]),
            np.concatenate([positions, np.repeat(positions, hops)]),
            cc.num_edges, self.units)
        del hops, walk, positions
        in_ptr, in_order = _csr(cc.edge_dst[boundary], n)
        out_ptr, out_order = _csr(self.anchor[hop], n)
        in_count, out_count = np.diff(in_ptr), np.diff(out_ptr)
        self.proj_levels = []
        for level in range(len(self.cond_node_ptr) - 2, 0, -1):
            lo, hi = self.cond_node_ptr[level], self.cond_node_ptr[level + 1]
            targets = self.cond_nodes[lo:hi]
            targets = targets[targets != cc.sink]
            if not len(targets):
                continue
            n_in = in_count[targets]
            out_sel = np.flatnonzero(out_count[targets])
            owners = targets[out_sel]
            n_out = out_count[owners]
            self.proj_levels.append(ProjectLevel(
                in_order[_ranges(in_ptr[targets], n_in)],
                _exclusive_cumsum(n_in),
                np.repeat(np.arange(len(targets)), n_in),
                cc.in_degree[targets].astype(float),
                out_order[_ranges(out_ptr[owners], n_out)],
                _exclusive_cumsum(n_out),
                out_sel,
                len(targets)))

    @property
    def nbytes(self):
        total = (self.desc.nbytes + self.anc.nbytes + self.wire_chain.nbytes
                 + self.proj_scatter.nbytes + self.units.nbytes)
        for starts in self.arr_starts:
            total += starts.nbytes
        for lv in self.proj_levels:
            total += (lv.in_pos.nbytes + lv.in_starts.nbytes
                      + lv.expand.nbytes + lv.in_deg.nbytes
                      + lv.out_pos.nbytes + lv.out_starts.nbytes
                      + lv.out_sel.nbytes)
        for name in ("anchor", "cond_nodes", "cond_node_ptr",
                     "wire_anchor_pos", "arr_anchor_pos", "arr_hop",
                     "arr_edge_ptr", "arr_perm", "boundary_ids",
                     "gate_nodes", "driver_nodes", "sizable_idx",
                     "nonsizable_idx", "r_hat_eff", "half_fringe_wire",
                     "wire_mask_f", "wire_load_cap", "alpha_sizable",
                     "c_hat_sizable"):
            total += getattr(self, name).nbytes
        return total

    def __repr__(self):
        return (f"SweepPlan(nodes={self.num_nodes}, edges={self.num_edges}, "
                f"levels={self.num_levels}, closure={self.desc.nnz}, "
                f"cond_levels={len(self.arr_starts)})")


def _base(array):
    """The array that owns ``array``'s memory."""
    return array if array.base is None else array.base


class Workspace:
    """Preallocated buffers for the kernel sweeps and the fused LRS pass.

    Node-length buffers double as sweep outputs inside the fused pass;
    ``ebuf`` is the arrival sweep's per-level gather scratch, ``arr`` its
    node-length arrival buffer (condensed arrivals first, then wire
    arrivals; one gather through ``plan.arr_perm`` puts them in node
    order) and ``szbuf`` holds the per-pass relative change restricted
    to sizable nodes.  Reusing one workspace across passes is what makes
    a steady-state LRS pass allocation-free; it is strictly
    single-threaded.

    With ``width=K`` every buffer is a C-contiguous ``(rows, K)`` matrix
    — one column per scenario — and the workspace additionally carries
    the batched solver's per-solve constants (``lam``, ``numer``,
    ``alpha_beta``) and per-column reduction scratch (``colmax``,
    ``colmask``).  The per-node constants the sweeps combine with the
    iterates (:attr:`CONSTANTS`) ride along at the same width: at
    K ≥ 2 as C-contiguous ``(n, K)`` copies (a broadcast ``(n, 1)``
    operand runs every ufunc's inner loop K wide, per row, at two to
    three times the cost), at K = 1 as ``(n, 1)`` views of the plan's
    own arrays, and in a 1-D workspace as those arrays.  A width-1
    workspace lends its buffers to 1-D sweeps through :meth:`vectors`.
    """

    NODE_BUFFERS = (
        "cself", "child_sum", "source_terms", "r_eff", "chain",
        "upstream", "k_cap", "denom", "opt", "x_a", "x_b", "t1", "t2",
        "arr",
    )
    SCRATCH_BUFFERS = ("ebuf", "szbuf", "wchain", "delays_c", "chain_e")
    #: Per-node constants, by name: the plan's fused-pass constants and
    #: ``desc_base``, then the circuit's model vectors.
    PLAN_CONSTANTS = ("r_hat_eff", "half_fringe_wire", "wire_mask_f",
                      "wire_load_cap", "desc_base")
    CIRCUIT_CONSTANTS = ("c_hat", "fringe", "alpha", "lower", "upper",
                         "is_sizable")
    CONSTANTS = PLAN_CONSTANTS + CIRCUIT_CONSTANTS

    def __init__(self, plan, width=None):
        n = plan.num_nodes
        self.plan = plan
        self.width = None if width is None else int(width)

        def buf(rows):
            rows = max(int(rows), 1)
            shape = rows if self.width is None else (rows, self.width)
            return np.zeros(shape)

        for name in self.NODE_BUFFERS:
            setattr(self, name, buf(n))
        self.ebuf = buf(plan.max_cond_edges)
        self.szbuf = buf(len(plan.sizable_idx))
        self.wchain = buf(len(plan.wire_indices))
        n_cond = len(plan.cond_nodes)
        self.delays_c = buf(n_cond)
        self.chain_e = buf(len(plan.arr_hop))
        for name, source in self.constant_sources(plan).items():
            if self.width is not None:
                source = source[:, None]
                if self.width > 1:
                    source = np.repeat(source, self.width, axis=1)
            setattr(self, name, source)
        if self.width is not None:
            # Batched-solve extras: per-column multiplier constants and
            # the per-column convergence reduction targets.
            self.lam = buf(n)
            self.numer = buf(n)
            self.alpha_beta = buf(n)
            self.colmax = np.zeros(self.width)
            self.colmask = np.zeros(self.width, dtype=bool)
        # r_eff is only ever written on sizable nodes (masked divide);
        # driver entries are static, so preset them once.
        preset = plan.r_hat_eff[plan.driver_nodes]
        self.r_eff[plan.driver_nodes] = preset if self.width is None \
            else preset[:, None]

    @classmethod
    def constant_sources(cls, plan):
        """``{name: 1-D array}`` the :attr:`CONSTANTS` are built from."""
        sources = {name: getattr(plan, name) for name in cls.PLAN_CONSTANTS}
        for name in cls.CIRCUIT_CONSTANTS:
            sources[name] = getattr(plan.compiled, name)
        return sources

    def vectors(self):
        """This width-1 workspace as 1-D views of the same buffers.

        The engine's single-point sweeps (the initial metrics, any
        ``evaluate_metrics``) and every one-column arrival sweep run on these
        views, so one set of width-1 scratch serves them and the
        width-1 LRS pass.  Memoized.
        """
        flat = self.__dict__.get("_vectors")
        if flat is None:
            flat = object.__new__(Workspace)
            flat.plan, flat.width = self.plan, None
            for name in (self.NODE_BUFFERS + self.SCRATCH_BUFFERS
                         + self.CONSTANTS):
                setattr(flat, name, getattr(self, name).reshape(-1))
            self._vectors = flat
        return flat

    def arrival_levels(self):
        """The arrival sweep's level loop over this workspace, unrolled:
        per condensed level after the first, the plan's anchor positions
        and segment starts, with views of the gather scratch, the chain
        hops, the level's arrivals and its delays.  Memoized."""
        levels = self.__dict__.get("_levels")
        if levels is None:
            plan = self.plan
            edge_ptr = plan.arr_edge_ptr.tolist()
            node_ptr = plan.cond_node_ptr.tolist()
            arrc = self.arr[:len(plan.cond_nodes)]
            levels = self._levels = [
                (plan.arr_anchor_pos[e_lo:e_hi], self.ebuf[:e_hi - e_lo],
                 self.chain_e[e_lo:e_hi], plan.arr_starts[level],
                 arrc[n_lo:n_hi], self.delays_c[n_lo:n_hi])
                for level, (e_lo, e_hi, n_lo, n_hi) in enumerate(zip(
                    edge_ptr, edge_ptr[1:], node_ptr, node_ptr[1:]))
                if level]
        return levels

    @property
    def nbytes(self):
        """Bytes this workspace allocated, each base array counted once.

        Views add nothing: the condensed arrivals are rows of ``arr``,
        and the width-1 constants view the plan's own arrays.
        """
        shared = {id(_base(a))
                  for a in self.constant_sources(self.plan).values()}
        owned = {}
        for value in vars(self).values():
            if isinstance(value, np.ndarray) and id(_base(value)) not in shared:
                owned[id(_base(value))] = _base(value)
        return sum(array.nbytes for array in owned.values())


class BatchWorkspace:
    """Width-keyed pool of batched :class:`Workspace` objects.

    The lockstep solver shrinks its scenario batch as columns converge;
    each distinct width's buffers are built once and reused across
    passes and outer iterations, keeping steady-state batched passes
    allocation-free while every matrix stays C-contiguous (a sliced
    ``(n, K)`` view would break the raw ``csr_matvecs`` kernel's layout
    assumption).  The pool holds at most :attr:`MAX_POOL` widths,
    evicting least-recently-used ones — a batch visiting many distinct
    widths (columns retiring one by one) stays bounded at O(n·K·MAX_POOL)
    instead of O(n·K²).  Single-threaded, like :class:`Workspace`.
    """

    #: Maximum distinct widths kept alive at once.
    MAX_POOL = 6

    def __init__(self, plan, max_pool=None):
        self.plan = plan
        self.max_pool = int(max_pool if max_pool is not None else
                            self.MAX_POOL)
        self._pool = {}   # width -> Workspace, insertion order == recency

    def buffers(self, width):
        """The pooled ``Workspace(plan, width)`` for ``width`` columns."""
        width = int(width)
        ws = self._pool.pop(width, None)
        if ws is None:
            ws = Workspace(self.plan, width=width)
            while len(self._pool) >= self.max_pool:
                self._pool.pop(next(iter(self._pool)))  # evict LRU width
        self._pool[width] = ws  # (re)insert as most recent
        return ws

    @property
    def nbytes(self):
        return sum(ws.nbytes for ws in self._pool.values())


def s2_source_terms(ws, x, cpl, propagated, cself_out, source_out):
    """Assemble the S2 inputs at sizes ``x`` (the one shared spelling).

    Fills ``cself_out`` with the self capacitance ``ĉ·x + f`` (zero on
    non-sizable nodes) and ``source_out`` with each node's contribution
    to its ancestors' loads: input capacitance for gates, self + output
    load (+ coupling ``cpl`` when ``propagated``) for wires.  Used by
    the engine's kernel capacitance/delay paths and the fused LRS pass,
    so the delay model has exactly one kernel-side definition.  ``x``
    may be ``(n,)`` or column-stacked ``(n, K)``, with ``ws`` the
    workspace of that shape: its constants and its ``t1`` scratch.
    """
    np.multiply(ws.c_hat, x, out=cself_out)
    np.add(cself_out, ws.fringe, out=cself_out)
    cself_out[ws.plan.nonsizable_idx] = 0.0
    np.add(cself_out, ws.wire_load_cap, out=source_out)
    if propagated:
        np.multiply(cpl, ws.wire_mask_f, out=ws.t1)
        np.add(source_out, ws.t1, out=source_out)
    return cself_out, source_out


def child_sum_sweep(ws, source_terms, child_sum):
    """Stage-closure capacitance accumulation (kernel S2).

    ``child_sum[i] = load_cap[i] + Σ_{j ∈ desc(i)} source_terms[j]``
    where ``source_terms`` is each node's own contribution to its
    ancestors' loads: input capacitance for gates, self + output load
    (+ coupling when PROPAGATED) for wires, zero otherwise.  One sparse
    product evaluates the whole reverse sweep (matrix–matrix over the
    columns in the batched case); ``ws`` is the workspace of that shape.
    """
    csr_matvec(ws.plan.desc, source_terms, child_sum)
    np.add(child_sum, ws.desc_base, out=child_sum)
    return child_sum


def upstream_sweep(plan, own, upstream):
    """Stage-closure λ-weighted upstream resistance (kernel S3).

    ``upstream[i] = Σ_{j ∈ anc(i)} own[j]`` with ``own = λ ∘ r_eff``;
    the ancestor multiset runs from each node back through wires to the
    stage-starting gates/drivers (inclusive), matching Theorem 5's
    ``R_i`` exactly.
    """
    return csr_matvec(plan.anc, own, upstream)


def arrival_sweep(plan, delays, arrival, ws):
    """Condensed max-plus sweep: arrival times at every node.

    Wire-chain delay sums come from one sparse product and the per-edge
    chain hops from one gather; the level recursion then runs over
    non-wire nodes only (``a_g = max over gate inputs of (a_anchor +
    chain) + D_g``) with contiguous per-level slices, and wire arrivals
    follow from one flat gather each.  Matches the per-level max-plus
    recurrence to floating-point reassociation.  ``delays`` may be
    ``(n,)`` or column-stacked ``(n, K)`` (``arrival`` and ``ws`` shaped
    to match); each column's max-plus recursion is bit-identical to the
    single-vector sweep, and one column runs as one vector (on 1-D
    views of the width-1 buffers).

    With ``arrival=None`` the sweep is a circuit-delay probe: it runs
    only the condensed level loop and returns each column's sink
    arrival (a ``(K,)`` array, a 0-d one for ``(n,)`` delays), bit for
    bit ``arrival_times(delays)[sink]``.  A full sweep writes every
    node with one gather through ``plan.arr_perm`` from the workspace's
    ``arr`` buffer (condensed arrivals, then wire arrivals).

    The level loop walks the workspace's memoized per-level views
    (:meth:`Workspace.arrival_levels`) and calls ``ndarray.take``
    directly: a primal repair probe is a sweep of a few thousand nodes,
    where per-level Python overhead, not arithmetic, sets the cost.
    Every gather passes ``mode="clip"``: the plan's indices are in
    range, and a bounds-checked (``"raise"``) gather copies its output
    through a temporary buffer.
    """
    shape = delays.shape
    out = arrival
    if delays.ndim == 2 and shape[1] == 1 \
            and (arrival is None or arrival.flags.c_contiguous):
        delays, ws = delays.reshape(-1), ws.vectors()
        out = None if arrival is None else arrival.reshape(-1)
    chain = csr_matvec(plan.wire_chain, delays, ws.chain)
    n_cond = len(plan.cond_nodes)
    arrc = ws.arr[:n_cond]
    arrc[:plan.cond_node_ptr[1]] = 0.0  # level 0 (source, drivers)
    delays.take(plan.cond_nodes, 0, ws.delays_c[:n_cond], "clip")
    chain.take(plan.arr_hop, 0, ws.chain_e[:len(plan.arr_hop)], "clip")
    take, add, reduceat = arrc.take, np.add, np.maximum.reduceat
    for anchors, g, chain_e, starts, level, delays_c in ws.arrival_levels():
        take(anchors, 0, g, "clip")
        add(g, chain_e, out=g)
        reduceat(g, starts, 0, None, level)
        add(level, delays_c, out=level)
    if arrival is None:
        return np.array(arrc[plan.sink_pos]).reshape(shape[1:])
    wires = plan.wire_indices
    if len(wires):
        wire_arr = ws.arr[n_cond:]
        arrc.take(plan.wire_anchor_pos, 0, wire_arr, "clip")
        add(wire_arr, chain.take(wires, 0, ws.wchain, "clip"), out=wire_arr)
    ws.arr.take(plan.arr_perm, 0, out, "clip")
    return arrival


def project_sweep(plan, lam):
    """Theorem 3 flow renormalization over the condensed cascade.

    Equivalent to the per-level reference projection (a test oracle
    in ``tests/oracles/``): a wire's
    single in-edge always renormalizes to exactly its subtree's boundary
    out-flow (``λ'·out/in`` with one in-edge, and the dead-edge rule,
    both collapse to ``out``), so only boundary-edge multipliers evolve
    independently.  The cascade therefore runs over condensed levels
    (non-wire nodes), rescaling each target's boundary in-edges to match
    the out-flow already settled at deeper levels; sink in-edges keep
    their original values (the reference sweep never rescales them).
    One static scatter then rebuilds every edge multiplier — boundary
    edges from themselves, wire in-edges as their subtree sums.

    Runs once per OGWS iteration (not in the LRS hot loop), so it
    favors clarity over zero allocation.  ``lam`` may be ``(E,)`` or a
    column-stacked ``(E, K)`` matrix of K independent multiplier
    vectors; each column projects bit-identically to the single-vector
    sweep (``of / where(pos, inflow, 1)`` equals ``of / inflow`` bitwise
    wherever the fast path would have taken over).  A level whose
    targets all have fan-out reduces straight into its out-flow.
    """
    lamb = lam.take(plan.boundary_ids, axis=0)
    batched = lamb.ndim == 2
    for lv in plan.proj_levels:
        if len(lv.out_sel) == lv.n_targets:
            of = np.add.reduceat(lamb.take(lv.out_pos, axis=0),
                                 lv.out_starts, axis=0)
        else:
            of = np.zeros((lv.n_targets,) + lamb.shape[1:])
            if len(lv.out_sel):
                of[lv.out_sel] = np.add.reduceat(
                    lamb.take(lv.out_pos, axis=0), lv.out_starts, axis=0)
        values = lamb.take(lv.in_pos, axis=0)
        inflow = np.add.reduceat(values, lv.in_starts, axis=0)
        if inflow.min(initial=np.inf) > 0.0:  # common case: all flows live
            lamb[lv.in_pos] = values * (of / inflow).take(lv.expand, axis=0)
            continue
        pos = inflow > 0.0
        scale = np.where(pos, of / np.where(pos, inflow, 1.0), 0.0)
        # Dead in-edges under live out-flow: split out-flow equally.
        dead = (~pos) & (of > 0.0)
        in_deg = lv.in_deg[:, None] if batched else lv.in_deg
        share = np.where(dead, of / in_deg, 0.0)
        lamb[lv.in_pos] = np.where(dead[lv.expand], share[lv.expand],
                                   values * scale[lv.expand])
    return csr_matvec(plan.proj_scatter, lamb, lam)


def column_sums(matrix):
    """Per-column sums of ``(rows, K)`` — each bitwise-equal to the scalar.

    ``np.sum`` over a strided column uses a different accumulation
    kernel than over a contiguous vector (single-accumulator loop vs
    the unrolled pairwise reduction), so the results can differ in the
    last bit.  Summing the rows of one transposed contiguous copy keeps
    every column on the exact code path a scalar solve would take.
    """
    rows = np.ascontiguousarray(np.asarray(matrix).T)
    return np.array([np.sum(row) for row in rows])


def column_means(matrix):
    """Per-column means of ``(rows, K)``, bitwise-equal per column to
    ``np.mean`` of that column as a contiguous vector (same pairwise
    sum, same division) — see :func:`column_sums`."""
    rows = np.ascontiguousarray(np.asarray(matrix).T)
    return np.array([np.mean(row) for row in rows])
