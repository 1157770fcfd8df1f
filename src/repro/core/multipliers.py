"""Lagrange multiplier state and the flow-conservation projection.

One multiplier sits on every edge of the circuit graph (``λ_ji`` for the
arrival-time constraint carried by edge ``(j, i)``), plus scalars ``β``
(power) and ``γ`` (crosstalk).  Theorem 3's optimality condition is flow
conservation — at every node except source and sink, in-flow equals
out-flow, "analogous to Kirchhoff's current law".

The paper's step A5 projects updated multipliers "onto the nearest point
in the optimality condition".  Following the practice of Chen–Chu–Wong
style LR sizers, :meth:`MultiplierState.project` performs one reverse-
topological sweep that rescales each node's in-edge multipliers so their
sum equals the (already final) out-flow.  This restores conservation
*exactly* in a single O(#edges) pass — it is a network-flow
renormalization rather than the Euclidean projection, preserving the
relative weights the subgradient step assigned to competing in-edges
(``docs/architecture.md``, "Model choices: generalizations").
"""

import numpy as np

from repro.utils.errors import ValidationError


class MultiplierState:
    """Edge multipliers ``λ``, power multiplier ``β``, crosstalk ``γ``.

    The edge array aligns with ``compiled.edge_src``/``edge_dst``.  Node
    aggregates ``λ_i = Σ_{j∈input(i)} λ_ji`` (Theorem 4) are recomputed on
    demand via :meth:`node_multipliers`.
    """

    def __init__(self, compiled, lam_edge=None, beta=0.0, gamma=0.0):
        self.compiled = compiled
        if lam_edge is None:
            lam_edge = np.zeros(compiled.num_edges)
        lam_edge = np.asarray(lam_edge, dtype=float).copy()
        if lam_edge.shape != (compiled.num_edges,):
            raise ValidationError("lam_edge must have one entry per edge")
        if np.any(lam_edge < 0) or beta < 0 or gamma < 0:
            raise ValidationError("multipliers must be non-negative (Theorem 6(4))")
        self.lam_edge = lam_edge
        self.beta = float(beta)
        self.gamma = float(gamma)

    @classmethod
    def initial(cls, compiled, beta=1e-3, gamma=1e-3, sink_weight=1.0):
        """The paper's A1: an arbitrary point satisfying Theorem 3.

        Every sink in-edge starts at ``sink_weight``; one projection sweep
        then propagates consistent flows to every edge upstream.
        """
        lam = np.zeros(compiled.num_edges)
        lam[compiled.sink_in_edges] = sink_weight
        state = cls(compiled, lam, beta=beta, gamma=gamma)
        state.project()
        return state

    # -- aggregates ---------------------------------------------------------------

    def node_multipliers(self):
        """``λ_i = Σ in-edge multipliers`` for every node (Theorem 4)."""
        cc = self.compiled
        return np.bincount(cc.edge_dst, weights=self.lam_edge,
                           minlength=cc.num_nodes).astype(float)

    def sink_flow(self):
        """Total multiplier into the sink (weights the ``A0`` constant)."""
        return float(np.sum(self.lam_edge[self.compiled.sink_in_edges]))

    def conservation_residual(self):
        """Max |in-flow − out-flow| over internal nodes (0 ⇒ Theorem 3 holds)."""
        cc = self.compiled
        inflow = np.bincount(cc.edge_dst, weights=self.lam_edge,
                             minlength=cc.num_nodes)
        outflow = np.bincount(cc.edge_src, weights=self.lam_edge,
                              minlength=cc.num_nodes)
        internal = ~np.isin(np.arange(cc.num_nodes), (cc.source, cc.sink))
        return float(np.max(np.abs(inflow - outflow)[internal], initial=0.0))

    # -- projection ---------------------------------------------------------------

    def project(self):
        """Restore Theorem 3 exactly (one reverse-topological sweep).

        Processing nodes from the deepest level upward, each node's
        out-flow is already final, so scaling its in-edges to sum to that
        out-flow settles conservation in one pass.  Nodes whose in-edges
        are all zero receive the out-flow split equally; nodes with zero
        out-flow zero their in-edges.

        Runs over the circuit's precompiled condensed cascade
        (:func:`repro.timing.kernels.project_sweep`); the per-level
        spelling is a test oracle (``tests/oracles/multipliers.py``),
        pinned equivalent by the kernel tests.
        """
        from repro.timing.kernels import project_sweep

        project_sweep(self.compiled.sweep_plan(), self.lam_edge)
        return self

    # -- lockstep column stacking ---------------------------------------------------

    @staticmethod
    def stack_lam(states):
        """``(E, K)`` column stack of ``lam_edge`` over ``states``.

        The lockstep driver and the batched A4 updates move K scenarios'
        edge multipliers through matrix kernels (batched projection,
        broadcast ratio updates); this pairs with :meth:`unstack_lam`
        for the writeback.  One state's stack is an ``(E, 1)`` view of
        its own array, so a width-one batch copies nothing.
        """
        if len(states) == 1:
            return states[0].lam_edge[:, None]
        return np.column_stack([s.lam_edge for s in states])

    @staticmethod
    def unstack_lam(states, lam_cols):
        """Write ``lam_cols`` columns back into ``states``' ``lam_edge``.

        Each state receives its column as a contiguous array: a copy
        when ``lam_cols`` has several columns, the column itself at
        width one.  Downstream consumers (kernels, the next LRS
        aggregate) assume contiguous edge arrays, and a strided view
        would silently change reduction bits (see
        :func:`repro.timing.kernels.column_sums`).
        """
        for j, state in enumerate(states):
            state.lam_edge = np.ascontiguousarray(lam_cols[:, j])
        return states

    def copy(self):
        return MultiplierState(self.compiled, self.lam_edge,
                               beta=self.beta, gamma=self.gamma)

    @property
    def nbytes(self):
        return self.lam_edge.nbytes

    def __repr__(self):
        return (
            f"MultiplierState(sink_flow={self.sink_flow():.4g}, "
            f"beta={self.beta:.4g}, gamma={self.gamma:.4g})"
        )
