"""Array (CSR) form of a circuit for the vectorized engines.

:class:`CompiledCircuit` is the engines' view of a validated
:class:`~repro.circuit.circuit.Circuit`:

* the circuit's read-only per-node columns (``r_hat``, ``c_hat``,
  ``fringe``, ``alpha``, bounds, output loads, ``kind``), referenced,
  not copied, plus kind masks,
* the edge arrays and the circuit's CSR adjacency in both directions,
* a longest-path level schedule with per-level node and edge groups, which
  is what lets the timing/sizing sweeps run as a short sequence of NumPy
  segment operations instead of per-node Python loops.

Everything here is read-only after construction; solvers own their own
state vectors (sizes, multipliers) and pass them into the sweep helpers in
:mod:`repro.timing` and :mod:`repro.core`.
"""

import numpy as np

from repro.circuit.components import NodeKind


class CompiledCircuit:
    """Read-only NumPy view of a circuit graph.

    Create via :meth:`from_circuit` (or ``circuit.compile()``).  Node
    arrays have length ``num_nodes``; edge arrays have length
    ``num_edges`` and identify edges by position (edge ``e`` connects
    ``edge_src[e] → edge_dst[e]``).
    """

    def __init__(self, circuit):
        n_nodes = circuit.num_nodes
        self.circuit = circuit
        self.name = circuit.name
        self.tech = circuit.tech
        self.num_nodes = n_nodes
        self.num_drivers = circuit.num_drivers
        self.num_components = circuit.num_components
        self.source = 0
        self.sink = n_nodes - 1

        self.kind = circuit.kind
        self.is_gate = self.kind == int(NodeKind.GATE)
        self.is_wire = self.kind == int(NodeKind.WIRE)
        self.is_driver = self.kind == int(NodeKind.DRIVER)
        self.is_sizable = self.is_gate | self.is_wire

        self.r_hat = circuit.r_hat
        self.c_hat = circuit.c_hat
        self.fringe = circuit.fringe
        self.alpha = circuit.alpha
        self.lower = circuit.lower
        self.upper = circuit.upper
        self.load_cap = circuit.load_cap
        self.length = circuit.length

        self.num_edges = circuit.num_edges
        self.edge_src = circuit.edge_src
        self.edge_dst = circuit.edge_dst

        self.in_ptr, self.in_edges, self.out_ptr, self.out_edges = \
            circuit.adjacency()
        self.in_degree = np.diff(self.in_ptr)
        self.out_degree = np.diff(self.out_ptr)

        # Wire parent (wires have in-degree exactly 1); -1 elsewhere.
        self.wire_parent = np.full(n_nodes, -1, dtype=np.int64)
        wire_idx = np.flatnonzero(self.is_wire)
        self.wire_parent[wire_idx] = self.edge_src[self.in_edges[self.in_ptr[wire_idx]]]

        level = _longest_path_levels(self.in_degree, self.out_ptr,
                                     self.out_edges, self.edge_dst)
        level[self.sink] = int(level.max()) + 1  # keep the sink strictly last
        self.level = level
        self.num_levels = int(level.max()) + 1

        self.nodes_by_level = _group(np.arange(n_nodes), level, self.num_levels)
        self.edges_by_src_level = _group(
            np.arange(self.num_edges), level[self.edge_src], self.num_levels
        )
        self.edges_by_dst_level = _group(
            np.arange(self.num_edges), level[self.edge_dst], self.num_levels
        )

        self.component_indices = np.flatnonzero(self.is_sizable)
        self.wire_indices = wire_idx
        self.gate_indices = np.flatnonzero(self.is_gate)
        self.sink_in_edges = self.in_edges[self.in_ptr[self.sink]: self.in_ptr[self.sink + 1]]

    @classmethod
    def from_circuit(cls, circuit):
        return cls(circuit)

    def sweep_plan(self):
        """Memoized :class:`~repro.timing.kernels.SweepPlan` for this circuit.

        Its static CSR operators replace the per-level ``np.add.at``
        scatters of the timing/sizing sweeps.  Built once on first use;
        like the rest of this object it is read-only.
        """
        plan = self.__dict__.get("_sweep_plan")
        if plan is None:
            from repro.timing.kernels import SweepPlan

            plan = self._sweep_plan = SweepPlan(self)
        return plan

    @property
    def nbytes(self):
        """Total bytes of the compiled arrays (used by the Fig. 10(a) bench)."""
        total = 0
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
            elif isinstance(value, list):
                total += sum(a.nbytes for a in value if isinstance(a, np.ndarray))
        return total

    def array_inventory(self):
        """``name → ndarray`` mapping for memory-ledger registration."""
        out = {}
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                out[name] = value
        return out

    def default_sizes(self, value=1.0):
        """Size vector seeded at ``value`` and clipped to per-node bounds."""
        x = np.zeros(self.num_nodes)
        mask = self.is_sizable
        x[mask] = np.clip(value, self.lower[mask], self.upper[mask])
        return x

    def clip_sizes(self, x):
        """Return ``x`` clipped into ``[lower, upper]`` on sizable nodes."""
        out = np.where(self.is_sizable, np.clip(x, self.lower, self.upper), 0.0)
        return out

    def resistance(self, x):
        """Per-node resistance at sizes ``x``: ``r̂/x`` (fixed for drivers)."""
        r = np.zeros(self.num_nodes)
        mask = self.is_sizable
        r[mask] = self.r_hat[mask] / x[mask]
        r[self.is_driver] = self.r_hat[self.is_driver]
        return r

    def self_capacitance(self, x):
        """Per-node self (ground) capacitance ``ĉ·x + f``; 0 for drivers."""
        c = np.zeros(self.num_nodes)
        mask = self.is_sizable
        c[mask] = self.c_hat[mask] * x[mask] + self.fringe[mask]
        return c

    def __repr__(self):
        return (
            f"CompiledCircuit({self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, levels={self.num_levels})"
        )


def _longest_path_levels(in_degree, out_ptr, out_edges, edge_dst):
    """Longest-path level of every node (0 for nodes without inputs).

    Frontier-batched Kahn: a node joins the frontier once its last input
    has been visited, and frontier ``k`` is exactly the set of nodes whose
    longest path from an input-free node has ``k`` edges — the fixed point
    of ``level[v] = max(level[v], level[u] + 1)`` over every edge.  One
    round per level, each a handful of array operations.
    """
    remaining = np.array(in_degree, dtype=np.int64)
    level = np.zeros(remaining.size, dtype=np.int64)
    frontier = np.flatnonzero(remaining == 0)
    depth = 0
    while frontier.size:
        level[frontier] = depth
        starts = out_ptr[frontier]
        counts = out_ptr[frontier + 1] - starts
        total = int(counts.sum())
        if not total:
            break
        # Positions of every frontier node's out-edges, concatenated.
        shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        targets = edge_dst[out_edges[np.arange(total) + shift]]
        targets, hits = np.unique(targets, return_counts=True)
        remaining[targets] -= hits
        frontier = targets[remaining[targets] == 0]
        depth += 1
    return level


def _group(ids, group_keys, n_groups):
    """Split ``ids`` into a list of arrays by ``group_keys`` (0..n_groups-1)."""
    order = np.argsort(group_keys, kind="stable")
    sorted_ids = ids[order]
    counts = np.bincount(group_keys, minlength=n_groups)
    splits = np.cumsum(counts)[:-1]
    return [np.ascontiguousarray(part) for part in np.split(sorted_ids, splits)]
