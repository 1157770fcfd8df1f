"""The finished, validated circuit graph, stored as NumPy columns.

:class:`Circuit` is the immutable product of the generators (which write
its columns directly through :meth:`Circuit.from_columns`) and of
:class:`~repro.circuit.builder.CircuitBuilder` and the ``.bench`` parser
(which hand it a :class:`Node` list).  Either way it stores one struct of
arrays:

* read-only per-node columns — ``kind``, ``function_code`` (indexing the
  ``functions`` name table), ``r_hat``, ``c_hat``, ``fringe``, ``alpha``,
  ``lower``, ``upper``, ``length`` and ``load_cap`` — plus the tuple of
  node ``names``;
* the edges as lexicographically sorted ``edge_src`` / ``edge_dst``
  arrays (every edge goes from a lower to a higher index), with CSR
  adjacency in both directions built once on first use.

Per-node :class:`Node` records are views: :meth:`Circuit.node` builds one
on demand, and :attr:`Circuit.nodes`, :meth:`gates`, :meth:`wires` and
the like materialize them only for the callers that ask.  The solve path
(compile, simulation plan, layout, coupling, fingerprint) reads the
columns and builds none.

Heavy numerical work does not happen here — call :meth:`Circuit.compile`
to obtain the NumPy form used by the timing and sizing engines.
"""

import numpy as np

from repro.circuit.components import Node, NodeKind
from repro.utils.errors import CircuitError, ValidationError

#: The float parameter columns, in :class:`Node` field order.
PARAM_COLUMNS = ("r_hat", "c_hat", "fringe", "alpha", "lower", "upper",
                 "length", "load_cap")

_SOURCE, _DRIVER, _GATE, _WIRE, _SINK = (int(kind) for kind in NodeKind)


def _csr(keys, n_bins):
    """Group array positions by ``keys``: returns (ptr, order) CSR pair."""
    order = np.argsort(keys, kind="stable").astype(np.int64)
    counts = np.bincount(keys, minlength=n_bins)
    ptr = np.zeros(n_bins + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr, order


def _first_failure(checks):
    """``(node, message)`` for the lowest-index node failing any of the
    ``(mask, message)`` checks, with its first failing check's message;
    ``None`` when every node passes."""
    failing = np.logical_or.reduce([mask for mask, _ in checks])
    if not failing.any():
        return None
    i = int(np.argmax(failing))
    return i, next(message for mask, message in checks if mask[i])


def _frozen(values, dtype):
    """A read-only contiguous copy of ``values``."""
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


class Circuit:
    """An immutable combinational circuit graph (paper Sec. 2.1).

    ``Circuit(nodes, edges, tech, name)`` adapts a :class:`Node` list
    (:class:`CircuitBuilder`, the parser, hand-built graphs) and keeps
    that list as its node view; the generators use
    :meth:`from_columns`.  Both fill the same column store and run
    :meth:`validate`, raising :class:`~repro.utils.errors.ValidationError`
    (or :class:`~repro.utils.errors.CircuitError` for bad per-node
    parameters) on violation.
    """

    def __init__(self, nodes, edges, tech, name=""):
        nodes = tuple(nodes)
        count = len(nodes)
        functions = {}
        code = np.fromiter(
            (functions.setdefault(node.function, len(functions))
             for node in nodes), dtype=np.int32, count=count)
        params = {field: np.fromiter((getattr(node, field) for node in nodes),
                                     dtype=np.float64, count=count)
                  for field in PARAM_COLUMNS}
        kind = np.fromiter((int(node.kind) for node in nodes), dtype=np.int8,
                           count=count)
        pairs = np.array(list(edges), dtype=np.int64)
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise ValidationError("edges must be (u, v) index pairs")
        pairs = pairs.reshape(-1, 2)
        self._store(kind, tuple(node.name for node in nodes),
                    tuple(functions), code, params, pairs[:, 0], pairs[:, 1],
                    tech, name)
        self._nodes = nodes
        self.validate()

    @classmethod
    def from_columns(cls, kind, names, functions, function_code, edge_src,
                     edge_dst, tech, name="", **params):
        """A circuit straight from its columns (no :class:`Node` is built).

        ``kind`` holds :class:`NodeKind` values, ``names`` one string per
        node, ``function_code`` an index into the ``functions`` name
        table per node, and ``edge_src[e] → edge_dst[e]`` the edges in any
        order; ``params`` are exactly the float :data:`PARAM_COLUMNS`.
        Validated like the adapter, including the per-node parameter
        checks :class:`Node` makes.
        """
        if set(params) != set(PARAM_COLUMNS):
            raise TypeError(f"circuit columns must be exactly {PARAM_COLUMNS}, "
                            f"got {sorted(params)}")
        self = cls.__new__(cls)
        self._store(kind, tuple(map(str, names)), tuple(functions),
                    function_code, params, edge_src, edge_dst, tech, name)
        self._nodes = None
        self.validate()
        return self

    def _store(self, kind, names, functions, function_code, params,
               edge_src, edge_dst, tech, name):
        self.name = name
        self.tech = tech
        self.names = names
        self.functions = functions
        self.kind = _frozen(kind, np.int8)
        self.function_code = _frozen(function_code, np.int32)
        for field in PARAM_COLUMNS:
            setattr(self, field, _frozen(params[field], np.float64))
        for column in (self.kind, self.function_code,
                       *(getattr(self, f) for f in PARAM_COLUMNS)):
            if column.shape != (len(names),):
                raise ValidationError(
                    f"circuit columns need one entry per node "
                    f"({len(names)}), got shape {column.shape}")
        src = np.asarray(edge_src, dtype=np.int64).reshape(-1)
        dst = np.asarray(edge_dst, dtype=np.int64).reshape(-1)
        if src.shape != dst.shape:
            raise ValidationError("edge_src and edge_dst differ in length")
        order = np.lexsort((dst, src))
        self.edge_src = _frozen(src[order], np.int64)
        self.edge_dst = _frozen(dst[order], np.int64)
        self._counts = tuple(int(np.count_nonzero(self.kind == k))
                             for k in NodeKind)

    # -- basic structure ----------------------------------------------------------

    @property
    def nodes(self):
        """All nodes in index order (element ``i`` has ``index == i``).

        Built once on first access for generated circuits; circuits made
        from a :class:`Node` list return that list.
        """
        if self._nodes is None:
            self._nodes = self._views(range(self.num_nodes))
        return self._nodes

    @property
    def edges(self):
        """All edges as ``(u, v)`` index pairs with ``u < v``, sorted."""
        return tuple(zip(self.edge_src.tolist(), self.edge_dst.tolist()))

    @property
    def num_nodes(self):
        return len(self.names)

    @property
    def num_edges(self):
        return len(self.edge_src)

    @property
    def source_index(self):
        return 0

    @property
    def sink_index(self):
        return self.num_nodes - 1

    @property
    def num_drivers(self):
        """The paper's ``s`` — the number of primary inputs."""
        return self._counts[_DRIVER]

    @property
    def num_components(self):
        """The paper's ``n`` — the number of sized gates and wires."""
        return self._counts[_GATE] + self._counts[_WIRE]

    @property
    def num_gates(self):
        return self._counts[_GATE]

    @property
    def num_wires(self):
        return self._counts[_WIRE]

    def node(self, index):
        """Node ``index`` (built on demand; no other node is materialized)."""
        if self._nodes is not None:
            return self._nodes[index]
        return self._views([range(self.num_nodes)[index]])[0]

    def node_by_name(self, name):
        """Look up a node by its stable name (raises ``KeyError`` if absent)."""
        by_name = self.__dict__.get("_by_name")
        if by_name is None:
            by_name = self._by_name = {n: i for i, n in enumerate(self.names)}
        return self.node(by_name[name])

    def inputs(self, index):
        """The paper's ``input(i)``: indices with an edge into ``i``."""
        in_ptr, in_edges, _, _ = self.adjacency()
        i = range(self.num_nodes)[index]
        return tuple(self.edge_src[in_edges[in_ptr[i]:in_ptr[i + 1]]].tolist())

    def outputs(self, index):
        """The paper's ``output(i)``: indices ``i`` has an edge to."""
        _, _, out_ptr, out_edges = self.adjacency()
        i = range(self.num_nodes)[index]
        return tuple(
            self.edge_dst[out_edges[out_ptr[i]:out_ptr[i + 1]]].tolist())

    def drivers(self):
        return self._views(np.flatnonzero(self.kind == _DRIVER))

    def gates(self):
        return self._views(np.flatnonzero(self.kind == _GATE))

    def wires(self):
        return self._views(np.flatnonzero(self.kind == _WIRE))

    def components(self):
        """Sized components (gates and wires) in index order."""
        return self._views(np.flatnonzero((self.kind == _GATE)
                                          | (self.kind == _WIRE)))

    def primary_output_wires(self):
        """Wires that connect to the sink (each carries an output load)."""
        return self._views(self.inputs(self.sink_index))

    def adjacency(self):
        """Memoized CSR adjacency ``(in_ptr, in_edges, out_ptr, out_edges)``.

        ``in_edges[in_ptr[i]:in_ptr[i + 1]]`` are the positions of the
        edges into node ``i`` (ascending source), likewise ``out_*`` for
        the edges out of it.  Shared with :class:`CompiledCircuit`.
        """
        csr = self.__dict__.get("_adjacency")
        if csr is None:
            n = self.num_nodes
            csr = (*_csr(self.edge_dst, n), *_csr(self.edge_src, n))
            for array in csr:
                array.setflags(write=False)
            self._adjacency = csr
        return csr

    def _views(self, indices):
        """:class:`Node` records for ``indices`` (a tuple)."""
        if self._nodes is not None:
            return tuple(self._nodes[i] for i in indices)
        idx = np.asarray(indices, dtype=np.int64)
        kinds = [NodeKind(k) for k in self.kind[idx].tolist()]
        functions = [self.functions[c] for c in self.function_code[idx].tolist()]
        columns = [getattr(self, f)[idx].tolist() for f in PARAM_COLUMNS]
        names = self.names
        return tuple(
            Node(index=i, kind=k, name=names[i], function=fn,
                 **dict(zip(PARAM_COLUMNS, values)))
            for i, k, fn, *values in zip(idx.tolist(), kinds, functions,
                                         *columns))

    # -- paper traversals ---------------------------------------------------------

    def downstream(self, index):
        """Stage-limited downstream set (paper Sec. 2.1).

        Nodes on paths from ``index`` toward the loads, *including*
        ``index`` itself, where traversal does not expand past a gate
        (a gate's input capacitance terminates an RC stage) and stops at
        the sink.  Matches the paper's example ``downstream(2) = {2,5,7}``.
        """
        seen = {index}
        frontier = [index]
        while frontier:
            i = frontier.pop()
            if i != index and self.kind[i] != _WIRE:
                continue
            for k in self.outputs(i):
                if k == self.sink_index or k in seen:
                    continue
                seen.add(k)
                frontier.append(k)
        return seen

    def upstream(self, index):
        """Stage-limited upstream set (paper Sec. 2.1).

        Nodes on paths from ``index`` back toward the drivers, *excluding*
        ``index``, stopping at (and including) the first gate or driver —
        the driver of the RC stage.  Matches ``upstream(10) = {6}``.

        For a gate, each input wire belongs to a different stage, so the
        union over all input stages is returned.
        """
        seen = set()
        frontier = list(self.inputs(index))
        while frontier:
            j = frontier.pop()
            if j == self.source_index or j in seen:
                continue
            seen.add(j)
            if self.kind[j] == _WIRE:
                frontier.extend(self.inputs(j))
        return seen

    # -- bulk helpers -------------------------------------------------------------

    def default_sizes(self, value=1.0):
        """Initial size vector (length ``num_nodes``), clipped to bounds.

        Non-sizable nodes get 0 (the paper sets ``x_i = 0`` for drivers).
        """
        x = np.zeros(self.num_nodes)
        mask = (self.kind == _GATE) | (self.kind == _WIRE)
        x[mask] = np.minimum(self.upper[mask],
                             np.maximum(self.lower[mask], value))
        return x

    def compile(self):
        """The memoized :class:`~repro.circuit.compiled.CompiledCircuit` form.

        Compiled once per circuit and shared by every caller (the object
        is read-only): the layout builder, the simulation plan, and the
        solver session all reuse one array form.
        """
        compiled = self.__dict__.get("_compiled")
        if compiled is None:
            from repro.circuit.compiled import CompiledCircuit

            compiled = self._compiled = CompiledCircuit.from_circuit(self)
        return compiled

    def wire_mask(self):
        """Memoized read-only boolean mask: ``mask[i]`` ⇔ node ``i`` is a wire."""
        mask = self.__dict__.get("_wire_mask")
        if mask is None:
            mask = self._wire_mask = self.kind == _WIRE
            mask.setflags(write=False)
        return mask

    def sim_plan(self):
        """The memoized :class:`~repro.simulate.plan.SimPlan` for this circuit.

        Compiled on first use and cached for the circuit's lifetime
        (the graph is immutable), mirroring
        ``CompiledCircuit.sweep_plan()``.
        """
        plan = self.__dict__.get("_sim_plan")
        if plan is None:
            from repro.simulate.plan import SimPlan

            plan = self._sim_plan = SimPlan(self)
        return plan

    # -- validation ---------------------------------------------------------------

    def validate(self):
        """Check every structural invariant; raise ``ValidationError`` if broken.

        Per-node parameters first (:class:`CircuitError`, the checks a
        :class:`Node` makes when it is built), then unique names, then
        the invariants (paper Sec. 2.1 plus routing-tree assumptions):

        1. node ``i`` of the list has ``index == i``; node 0 is the source,
           the last node is the sink, and no other node is either;
        2. drivers occupy indices ``1..s`` contiguously;
        3. every edge ``(u, v)`` has ``u < v`` (topological indexing);
        4. the source feeds exactly the drivers; the sink is fed only by
           wires (primary-output wires, which carry ``load_cap > 0``);
        5. wires have in-degree exactly 1 (routing trees) and their parent
           is a driver, gate, or wire (implied by 1, 3 and 4: the parent
           has a lower index than the sink, and is not the source);
        6. gates have in-degree ≥ 1 and every gate input is a wire;
        7. every component has out-degree ≥ 1 (no dangling logic) and is
           reachable from the source.

        Every check is vectorized; each error names the first offending
        node (or edge) in index order.
        """
        self._check_parameters()
        names, kind, n = self.names, self.kind, self.num_nodes
        if len(set(names)) != n:
            seen = set()
            for node_name in names:
                if node_name in seen:
                    raise ValidationError(f"duplicate node name {node_name!r}")
                seen.add(node_name)
        if not n or kind[0] != _SOURCE:
            raise ValidationError("node 0 must be the source")
        if kind[-1] != _SINK:
            raise ValidationError("last node must be the sink")
        if self._nodes is not None:
            given = np.fromiter((node.index for node in self._nodes),
                                dtype=np.int64, count=n)
            bad = np.flatnonzero(given != np.arange(n))
            if bad.size:
                i = int(bad[0])
                raise ValidationError(
                    f"node {names[i]!r} has index {given[i]}, expected {i}")
        bad = np.flatnonzero((kind < _SOURCE) | (kind > _SINK))
        if bad.size:
            i = int(bad[0])
            raise ValidationError(f"node {names[i]!r} has unknown kind {kind[i]}")
        stray = np.flatnonzero((kind[1:-1] == _SOURCE) | (kind[1:-1] == _SINK))
        if stray.size:
            i = int(stray[0]) + 1
            where = "node 0" if kind[i] == _SOURCE else "the last node"
            raise ValidationError(
                f"{NodeKind(int(kind[i])).name.lower()} node {names[i]!r} at "
                f"index {i}: only {where} may be one")
        s = self.num_drivers
        bad = np.flatnonzero(kind[1:s + 1] != _DRIVER)
        if bad.size:
            raise ValidationError(
                f"indices 1..{s} must be drivers; index {int(bad[0]) + 1} is not")
        src, dst, sink = self.edge_src, self.edge_dst, n - 1
        bad = np.flatnonzero(~((src >= 0) & (src < dst) & (dst <= sink)))
        if bad.size:
            e = int(bad[0])
            raise ValidationError(
                f"edge ({src[e]},{dst[e]}) violates topological indexing")
        in_ptr, in_edges, out_ptr, out_edges = self.adjacency()
        fed = dst[out_edges[out_ptr[0]:out_ptr[1]]]
        if not np.array_equal(fed, np.arange(1, s + 1)):
            raise ValidationError("source must feed exactly the drivers")
        for u in src[in_edges[in_ptr[sink]:in_ptr[sink + 1]]].tolist():
            if kind[u] != _WIRE:
                raise ValidationError(
                    f"sink is fed by non-wire node {names[u]!r}")
            if self.load_cap[u] <= 0:
                raise ValidationError(
                    f"primary-output wire {names[u]!r} has no load")
        self._check_degrees(in_ptr, in_edges, out_ptr)
        # Every edge points to a higher index, so the lowest unreachable
        # node has no in-edge at all: "every node past the source has an
        # input" is exactly "every node is reachable".
        in_degree = np.diff(in_ptr)
        if np.any(in_degree[1:] == 0):
            reached = np.zeros(n, dtype=bool)
            reached[0] = True
            for u, v in zip(src.tolist(), dst.tolist()):
                if reached[u]:
                    reached[v] = True
            unreachable = [names[i] for i in np.flatnonzero(~reached)[:5]]
            raise ValidationError(f"nodes unreachable from source: {unreachable}")

    def _check_degrees(self, in_ptr, in_edges, out_ptr):
        """Invariants 5–7's degree checks, all nodes at once."""
        kind, names = self.kind, self.names
        in_degree, out_degree = np.diff(in_ptr), np.diff(out_ptr)
        is_wire, is_gate = kind == _WIRE, kind == _GATE
        is_driver = kind == _DRIVER
        first_in = np.full(len(names), -1, dtype=np.int64)
        has_input = in_degree > 0
        first_in[has_input] = self.edge_src[in_edges[in_ptr[:-1][has_input]]]
        # Inputs that are not wires, counted per receiving node.
        nonwire = np.bincount(self.edge_dst[kind[self.edge_src] != _WIRE],
                              minlength=len(names))
        failure = _first_failure((
            (is_wire & (in_degree != 1), "wire {name!r} must have exactly one input"),
            (is_gate & ~has_input, "gate {name!r} has no inputs"),
            (is_gate & (nonwire > 0), "gate {name!r} input {input!r} is not a wire"),
            (is_driver & ((in_degree != 1) | (first_in != 0)),
             "driver {name!r} must be fed by the source only"),
            ((is_wire | is_gate | is_driver) & (out_degree == 0),
             "component {name!r} has no fanout"),
        ))
        if failure:
            i, message = failure
            ins = self.edge_src[in_edges[in_ptr[i]:in_ptr[i + 1]]]
            nonwire_in = ins[kind[ins] != _WIRE]
            raise ValidationError(message.format(
                name=names[i],
                input=names[nonwire_in[0]] if nonwire_in.size else None))

    def _check_parameters(self):
        """:class:`Node`'s per-node parameter checks, vectorized."""
        kind, code = self.kind, self.function_code
        bad = np.flatnonzero((code < 0) | (code >= len(self.functions)))
        if bad.size:
            i = int(bad[0])
            raise ValidationError(
                f"node {self.names[i]!r} has function code {code[i]} outside "
                f"the {len(self.functions)}-entry function table")
        sizable = (kind == _GATE) | (kind == _WIRE)
        lower, upper = self.lower, self.upper
        no_function = np.array([not f for f in self.functions], dtype=bool)
        failure = _first_failure((
            (sizable & ((self.r_hat <= 0) | (self.c_hat <= 0)),
             "{kind} {name!r} needs positive r_hat/c_hat"),
            (sizable & ~((0 < lower) & (lower <= upper)),
             "{kind} {name!r} needs 0 < lower <= upper, got [{lower}, {upper}]"),
            (sizable & (self.alpha <= 0), "{kind} {name!r} needs alpha > 0"),
            ((kind == _DRIVER) & (self.r_hat <= 0),
             "driver {name!r} needs a positive resistance"),
            ((kind == _GATE) & no_function[code],
             "gate {name!r} needs a logic function"),
            ((kind == _WIRE) & (self.length <= 0),
             "wire {name!r} needs a positive length"),
            ((self.fringe < 0) | (self.load_cap < 0),
             "node {name!r}: fringe/load_cap must be non-negative"),
        ))
        if failure:
            i, message = failure
            kind_name = NodeKind(int(kind[i])).name.lower() \
                if _SOURCE <= kind[i] <= _SINK else str(kind[i])
            raise CircuitError(message.format(
                kind=kind_name, name=self.names[i], lower=float(lower[i]),
                upper=float(upper[i])))

    def __repr__(self):
        return (
            f"Circuit({self.name!r}, gates={self.num_gates}, wires={self.num_wires}, "
            f"drivers={self.num_drivers})"
        )
