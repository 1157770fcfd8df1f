"""Precompiled vectorized simulation plan (the cold-path tentpole).

The direct levelized loop walks the nodes in Python — one
iteration per node, so a cold similarity setup on c7552 spent most of
its time in interpreter overhead rather than boolean arithmetic.
:class:`SimPlan` compiles that walk once per circuit into a handful of
array programs:

* **wire-root redirection** — every wire's value equals its first
  non-wire ancestor's (driver or gate), so only the non-wire *root*
  rows are simulated (:meth:`SimPlan.simulate_roots`); gate inputs
  gather directly from root rows, and :meth:`SimPlan.simulate` expands
  the result to every node with one gather through ``node_root``;
* **gate grouping** — gates are grouped by ``(level, function, fanin)``
  using the compiled circuit's longest-path levels; each group is
  evaluated for *all patterns at once* as a single gather
  ``values[in_idx]`` (shape ``(fanin, group, patterns)``) plus one
  :func:`~repro.simulate.logic.evaluate_function` call.

The number of Python-level steps per simulation is therefore the number
of *groups* (levels × distinct gate shapes), not the number of nodes.

Equality contract
-----------------
``SimPlan.simulate(patterns)`` returns **exactly** the boolean matrix
the reference levelized loop produces — boolean functions are exact, the
redirection preserves wire semantics (a wire's row equals its parent's
row, transitively its root's), and source/sink rows stay ``False``.
``tests/simulate/test_plan.py`` pins ``np.array_equal`` equality against
that loop (the oracle in ``tests/oracles/simulate.py``) over random
generator circuits, exhaustive small circuits, and the ISCAS85 netlists.

Plans are memoized on the circuit via :meth:`Circuit.sim_plan`
(mirroring ``CompiledCircuit.sweep_plan()``), so repeated analyses of
one circuit pay compilation once.
"""

import numpy as np

from repro.simulate.logic import evaluate_function
from repro.utils.errors import SimulationError


class SimPlan:
    """Compiled evaluation schedule for one :class:`Circuit`.

    Attributes
    ----------
    roots:
        The non-wire node indices (source, drivers, gates, sinks) in
        ascending order — the rows :meth:`simulate_roots` computes.  The
        source and the drivers are nodes ``0 … num_drivers``, so they
        are also root rows ``0 … num_drivers``.
    node_root:
        ``(num_nodes,)`` root row of every node: a wire's first non-wire
        ancestor, a non-wire itself.
    groups:
        Tuple of ``(function, in_idx, out_idx)`` entries in evaluation
        order; ``in_idx`` is an ``(fanin, group_size)`` int array of
        input root rows and ``out_idx`` the ``(group_size,)`` output
        root rows.  Groups are ordered by level, so every input row is
        final before its group runs.
    """

    def __init__(self, circuit):
        cc = circuit.compile()  # memoized array form, shared with layout
        n = cc.num_nodes
        self.num_nodes = n
        self.num_drivers = cc.num_drivers

        # Wire-root redirection by pointer jumping: every wire starts at
        # its (unique, smaller-index) parent, then repeatedly replaces
        # its root with its root's root.  Non-wires are fixed points, so
        # this converges in O(log chain-length) passes of two gathers
        # each — no per-node Python.
        root = np.arange(n, dtype=np.int64)
        wires = cc.wire_indices
        if wires.size:
            root[wires] = cc.wire_parent[wires]
            while True:
                r = root[wires]
                rr = root[r]
                if np.array_equal(rr, r):
                    break
                root[wires] = rr
        non_wire = np.ones(n, dtype=bool)
        non_wire[wires] = False
        self.roots = np.flatnonzero(non_wire)
        root_row = np.empty(n, dtype=np.int64)
        root_row[self.roots] = np.arange(self.roots.size)
        self.node_root = root_row[root]

        # Gate grouping by (level, function, fanin).  The compiled
        # longest-path level is a valid schedule key: a gate's redirected
        # input roots lie upstream of it, so their levels are strictly
        # smaller and sorting groups by level keeps every input row
        # final before its group runs.  Functions are numbered in order
        # of first appearance among the gates.
        gates = cc.gate_indices
        groups = []
        if gates.size:
            codes = circuit.function_code[gates]
            used, first = np.unique(codes, return_index=True)
            by_first = np.argsort(first, kind="stable")
            func_list = [circuit.functions[c] for c in used[by_first].tolist()]
            rank = np.empty(used.size, dtype=np.int64)
            rank[by_first] = np.arange(used.size)
            func_id = rank[np.searchsorted(used, codes)]
            fanin = cc.in_degree[gates]
            glevel = cc.level[gates]
            # Stable group-major order; boundaries where any key changes.
            order = np.lexsort((gates, fanin, func_id, glevel))
            glevel, func_id, fanin = glevel[order], func_id[order], fanin[order]
            gsort = gates[order]
            change = np.flatnonzero(
                (np.diff(glevel) != 0) | (np.diff(func_id) != 0)
                | (np.diff(fanin) != 0)) + 1
            bounds = np.concatenate(([0], change, [gates.size]))
            # Root row of every in-edge's source, in CSR order — per
            # group the (fanin, size) input matrix is one gather.
            edge_root = self.node_root[cc.edge_src[cc.in_edges]]
            for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                out_nodes = gsort[a:b]
                f = int(fanin[a])
                pos = cc.in_ptr[out_nodes][None, :] + \
                    np.arange(f, dtype=np.int64)[:, None]
                in_idx = np.ascontiguousarray(edge_root[pos])
                groups.append((func_list[int(func_id[a])], in_idx,
                               root_row[out_nodes]))
        self.groups = tuple(groups)

    @property
    def num_groups(self):
        """Python-level steps per simulation (levels × gate shapes)."""
        return len(self.groups)

    def simulate_roots(self, patterns):
        """The ``(len(roots), n_patterns)`` values of the non-wire nodes.

        ``patterns`` must already be validated boolean ``(n_patterns,
        num_drivers)`` — :func:`simulate_levelized` is the public entry.
        Node ``k``'s row is row ``node_root[k]`` of the result.
        """
        values = np.zeros((self.roots.size, patterns.shape[0]), dtype=bool)
        values[1:self.num_drivers + 1] = patterns.T
        for function, in_idx, out_idx in self.groups:
            values[out_idx] = evaluate_function(function, values[in_idx])
        return values

    def simulate(self, patterns):
        """Evaluate every node under ``patterns`` (see the module contract)."""
        return self.simulate_roots(patterns)[self.node_root]

    @property
    def nbytes(self):
        total = self.roots.nbytes + self.node_root.nbytes
        for _, in_idx, out_idx in self.groups:
            total += in_idx.nbytes + out_idx.nbytes
        return total

    def __repr__(self):
        return (f"SimPlan(nodes={self.num_nodes}, groups={self.num_groups}, "
                f"wires={self.num_nodes - self.roots.size})")


def validate_patterns(circuit, patterns):
    """Pattern shape/dtype validation for :func:`simulate_levelized`."""
    patterns = np.asarray(patterns, dtype=bool)
    if patterns.ndim != 2:
        raise SimulationError("patterns must be a 2-D (n_patterns, n_inputs) array")
    n_drivers = circuit.num_drivers
    if patterns.shape[1] != n_drivers:
        raise SimulationError(
            f"patterns have {patterns.shape[1]} columns, circuit has {n_drivers} inputs"
        )
    return patterns
