"""Object-graph reference for the column-built circuit.

The per-node spelling of netlist construction and compilation, kept as
the reference the array code is pinned against:

* :func:`reference_random_circuit` — :func:`repro.circuit.random_circuit`
  with the slot-scanning :func:`reference_fix_coverage` and the
  :class:`Node`-list :func:`reference_emit` (one ``Node`` per vertex,
  per-gate RNG calls, ``Circuit(nodes, edges, ...)``);
* :func:`reference_compiled` — every :class:`CompiledCircuit` attribute
  built from ``circuit.nodes`` / ``circuit.edges`` by list
  comprehensions, with the per-edge longest-path level loop;
* :func:`reference_channels` and :func:`reference_coupling` — the
  per-level channel dictionary and the per-pair ``CouplingPair`` walk
  with Python-float ``ctilde`` / ``chat``.
"""

import types

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.components import Node, NodeKind
from repro.circuit.generators import (
    _FUNCTIONS_1, _FUNCTIONS_2, _FUNCTIONS_N, _draw_fanins, _draw_sources)
from repro.geometry.channels import Channel
from repro.geometry.layout import CouplingPair
from repro.noise.miller import MillerMode, miller_weight
from repro.simulate import simulate_levelized
from repro.tech import Technology
from repro.utils.errors import CircuitError
from repro.utils.rng import derive_rng, make_rng


def reference_random_circuit(n_gates, n_inputs, n_outputs, seed=0, tech=None,
                             n_wires=None, avg_fanin=2.0, depth_tau=None,
                             target_depth=None,
                             wire_length_range=(50.0, 300.0), name=None):
    """:func:`repro.circuit.random_circuit` through the object builder."""
    if depth_tau is None and target_depth is not None:
        if target_depth < 1:
            raise CircuitError("target_depth must be >= 1")
        depth_tau = max(2.0, 2.0 * n_gates / float(target_depth))
    if n_gates < 1 or n_inputs < 1 or n_outputs < 1:
        raise CircuitError("n_gates, n_inputs, n_outputs must all be >= 1")
    if n_outputs > n_gates:
        raise CircuitError("cannot have more primary outputs than gates")
    last_error = None
    for attempt in range(8):
        rng = make_rng(seed if attempt == 0 else (seed, attempt))
        try:
            fanins = _draw_fanins(n_gates, n_inputs, n_outputs, n_wires,
                                  avg_fanin, derive_rng(rng, "fanin"))
            sources = _draw_sources(fanins, n_inputs, depth_tau,
                                    derive_rng(rng, "topology"))
            po_gates = reference_fix_coverage(
                sources, fanins, n_gates, n_inputs, n_outputs,
                derive_rng(rng, "coverage"))
        except CircuitError as error:
            last_error = error
            continue
        return reference_emit(sources, po_gates, n_inputs, tech,
                              wire_length_range,
                              derive_rng(rng, "geometry"),
                              derive_rng(rng, "functions"),
                              name or f"random{n_gates}g", seed)
    raise CircuitError(f"random_circuit failed for seed {seed!r}: {last_error}")


def reference_fix_coverage(sources, fanins, n_gates, n_inputs, n_outputs, rng):
    """Rewire unused sources by scanning every later slot per work item.

    Mutates ``sources`` in place and returns the PO gate list.
    """
    n_sources = n_inputs + n_gates
    offsets = np.zeros(n_gates + 1, dtype=np.int64)
    np.cumsum(np.asarray(fanins, dtype=np.int64), out=offsets[1:])
    total = int(offsets[-1])
    src_flat = np.fromiter(
        (src for chosen in sources for src in chosen),
        dtype=np.int64, count=total)
    use_count = np.bincount(src_flat, minlength=n_sources)

    po_gates = list(range(n_gates - n_outputs, n_gates))
    is_po_source = np.zeros(n_sources, dtype=bool)
    is_po_source[n_inputs + n_gates - n_outputs:] = True

    work = [s for s in range(n_sources)
            if use_count[s] == 0 and not is_po_source[s]]
    budget = 20 * (n_sources + 1)
    while work:
        budget -= 1
        if budget < 0:
            raise CircuitError(
                "cannot rewire unused sources within budget "
                "(wire topology too tight for this seed)"
            )
        s = work.pop()
        if use_count[s] != 0 or is_po_source[s]:
            continue
        first_gate = 0 if s < n_inputs else s - n_inputs + 1
        start = int(offsets[first_gate])
        tail = src_flat[start:total]
        valid = tail != s
        n_slots = int(np.count_nonzero(valid))
        if n_slots == 0:
            raise CircuitError(
                "cannot rewire unused sources: no input slots after them"
            )
        redundant = valid & (use_count[tail] > 1)
        n_red = int(np.count_nonzero(redundant))
        pool = redundant if n_red else valid
        pick = int(rng.integers(0, n_red if n_red else n_slots))
        j = start + int(np.flatnonzero(pool)[pick])
        displaced = int(src_flat[j])
        use_count[displaced] -= 1
        src_flat[j] = s
        use_count[s] += 1
        if use_count[displaced] == 0 and not is_po_source[displaced]:
            work.append(displaced)
    flat = src_flat.tolist()
    for k in range(n_gates):
        lo, hi = int(offsets[k]), int(offsets[k + 1])
        sources[k][:] = flat[lo:hi]
    return po_gates


def reference_emit(sources, po_gates, n_inputs, tech, wire_length_range,
                   geo_rng, fn_rng, name, seed):
    """One :class:`Node` per vertex, per-gate RNG calls, Node-list adapter."""
    lo, hi = wire_length_range
    if not 0 < lo <= hi:
        raise CircuitError("wire_length_range must satisfy 0 < lo <= hi")
    tech = tech or Technology.dac99()
    n_gates = len(sources)
    min_size, max_size = tech.min_size, tech.max_size
    wru, wcu, wfc = (tech.wire_unit_resistance, tech.wire_unit_capacitance,
                     tech.wire_fringe_capacitance)

    nodes = [Node(index=0, kind=NodeKind.SOURCE, name="@source")]
    edges = []
    for d in range(n_inputs):
        nodes.append(Node(index=d + 1, kind=NodeKind.DRIVER, name=f"pi{d}",
                          r_hat=tech.driver_resistance))
        edges.append((0, d + 1))

    gate_index = np.empty(n_gates, dtype=np.int64)
    idx = n_inputs + 1
    for k, chosen in enumerate(sources):
        fanin = len(chosen)
        if fanin == 1:
            fn = _FUNCTIONS_1[int(fn_rng.integers(0, len(_FUNCTIONS_1)))]
        elif fanin == 2:
            fn = _FUNCTIONS_2[int(fn_rng.integers(0, len(_FUNCTIONS_2)))]
        else:
            fn = _FUNCTIONS_N[int(fn_rng.integers(0, len(_FUNCTIONS_N)))]
        lengths = geo_rng.uniform(lo, hi, size=fanin).tolist()
        gname = f"g{k}"
        gidx = idx + fanin
        for pos, s in enumerate(chosen):
            length = lengths[pos]
            widx = idx + pos
            nodes.append(Node(
                index=widx, kind=NodeKind.WIRE, name=f"{gname}.in{pos}",
                r_hat=wru * length, c_hat=wcu * length, fringe=wfc * length,
                alpha=length, length=length, lower=min_size, upper=max_size))
            parent = s + 1 if s < n_inputs else int(gate_index[s - n_inputs])
            edges.append((parent, widx))
            edges.append((widx, gidx))
        nodes.append(Node(
            index=gidx, kind=NodeKind.GATE, name=gname, function=fn,
            r_hat=tech.gate_unit_resistance, c_hat=tech.gate_unit_capacitance,
            alpha=tech.gate_area_per_size, lower=min_size, upper=max_size))
        gate_index[k] = gidx
        idx = gidx + 1

    sink = idx + len(po_gates)
    for g in po_gates:
        length = float(geo_rng.uniform(lo, hi))
        gidx = int(gate_index[g])
        nodes.append(Node(
            index=idx, kind=NodeKind.WIRE, name=f"g{g}.out",
            r_hat=wru * length, c_hat=wcu * length, fringe=wfc * length,
            alpha=length, length=length, lower=min_size, upper=max_size,
            load_cap=tech.load_capacitance))
        edges.append((gidx, idx))
        edges.append((idx, sink))
        idx += 1
    nodes.append(Node(index=sink, kind=NodeKind.SINK, name="@sink"))
    edges.sort()
    return Circuit(nodes, edges, tech, name=name)


def _csr(keys, n_bins):
    order = np.argsort(keys, kind="stable").astype(np.int64)
    counts = np.bincount(keys, minlength=n_bins)
    ptr = np.zeros(n_bins + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr, order


def _group(ids, group_keys, n_groups):
    order = np.argsort(group_keys, kind="stable")
    sorted_ids = ids[order]
    counts = np.bincount(group_keys, minlength=n_groups)
    splits = np.cumsum(counts)[:-1]
    return [np.ascontiguousarray(part) for part in np.split(sorted_ids, splits)]


def reference_compiled(circuit):
    """Every :class:`CompiledCircuit` array, built node by node."""
    cc = types.SimpleNamespace()
    nodes = circuit.nodes
    n_nodes = len(nodes)
    cc.name = circuit.name
    cc.num_nodes = n_nodes
    cc.num_drivers = sum(1 for n in nodes if n.kind is NodeKind.DRIVER)
    cc.num_components = sum(1 for n in nodes if n.kind.is_sizable)
    cc.source = 0
    cc.sink = n_nodes - 1

    cc.kind = np.array([int(n.kind) for n in nodes], dtype=np.int8)
    cc.is_gate = cc.kind == int(NodeKind.GATE)
    cc.is_wire = cc.kind == int(NodeKind.WIRE)
    cc.is_driver = cc.kind == int(NodeKind.DRIVER)
    cc.is_sizable = cc.is_gate | cc.is_wire

    cc.r_hat = np.array([n.r_hat for n in nodes])
    cc.c_hat = np.array([n.c_hat for n in nodes])
    cc.fringe = np.array([n.fringe for n in nodes])
    cc.alpha = np.array([n.alpha for n in nodes])
    cc.lower = np.array([n.lower for n in nodes])
    cc.upper = np.array([n.upper for n in nodes])
    cc.load_cap = np.array([n.load_cap for n in nodes])
    cc.length = np.array([n.length for n in nodes])

    edges = np.array(circuit.edges, dtype=np.int64).reshape(-1, 2)
    cc.num_edges = len(edges)
    cc.edge_src = np.ascontiguousarray(edges[:, 0])
    cc.edge_dst = np.ascontiguousarray(edges[:, 1])

    cc.in_ptr, cc.in_edges = _csr(cc.edge_dst, n_nodes)
    cc.out_ptr, cc.out_edges = _csr(cc.edge_src, n_nodes)
    cc.in_degree = np.diff(cc.in_ptr)
    cc.out_degree = np.diff(cc.out_ptr)

    cc.wire_parent = np.full(n_nodes, -1, dtype=np.int64)
    wire_idx = np.flatnonzero(cc.is_wire)
    cc.wire_parent[wire_idx] = cc.edge_src[cc.in_edges[cc.in_ptr[wire_idx]]]

    level = np.zeros(n_nodes, dtype=np.int64)
    for src, dst in zip(cc.edge_src, cc.edge_dst):
        if level[src] + 1 > level[dst]:
            level[dst] = level[src] + 1
    level[cc.sink] = int(level.max()) + 1
    cc.level = level
    cc.num_levels = int(level.max()) + 1

    cc.nodes_by_level = _group(np.arange(n_nodes), level, cc.num_levels)
    cc.edges_by_src_level = _group(
        np.arange(cc.num_edges), level[cc.edge_src], cc.num_levels)
    cc.edges_by_dst_level = _group(
        np.arange(cc.num_edges), level[cc.edge_dst], cc.num_levels)

    cc.component_indices = np.flatnonzero(cc.is_sizable)
    cc.wire_indices = wire_idx
    cc.gate_indices = np.flatnonzero(cc.is_gate)
    cc.sink_in_edges = cc.in_edges[cc.in_ptr[cc.sink]: cc.in_ptr[cc.sink + 1]]
    return cc


def reference_channels(circuit):
    """One channel per level, grouped wire by wire in a dictionary."""
    compiled = circuit.compile()
    groups = {}
    for idx in compiled.wire_indices:
        groups.setdefault(int(compiled.level[idx]), []).append(int(idx))
    return [Channel(label=f"level{lvl}", wires=tuple(sorted(groups[lvl])))
            for lvl in sorted(groups)]


def reference_coupling(layout, analyzer=None, mode=MillerMode.SIMILARITY,
                       nodes=None):
    """The coupling arrays from one :class:`CouplingPair` per adjacent pair.

    Wire lengths come from ``nodes`` (default: the layout circuit's
    ``Node`` records).

    Returns a namespace with ``pair_i``, ``pair_j``, ``distance``,
    ``weight``, ``ctilde`` and ``chat`` as the pair-list constructor
    computed them: Python-float ``ctilde`` / ``chat`` per pair, Miller
    weights from per-pair similarity, zero-weight pairs dropped.
    """
    nodes = layout.circuit.nodes if nodes is None else nodes
    tech = layout.circuit.tech
    pairs = []
    for channel in layout.channels:
        for a, b in zip(channel.wires, channel.wires[1:]):
            i, j = (a, b) if a < b else (b, a)
            overlap = min(nodes[i].length, nodes[j].length)
            pairs.append(CouplingPair(
                i=i, j=j, overlap=overlap, distance=layout.pitch,
                unit_fringe=tech.coupling_unit_capacitance))
    mode = MillerMode(mode)
    if mode in (MillerMode.WORST, MillerMode.PHYSICAL):
        similarity = np.zeros(len(pairs))
    else:
        values = simulate_levelized(layout.circuit, analyzer.patterns)
        n_patterns = values.shape[1]
        similarity = np.array([
            (n_patterns - 2 * np.count_nonzero(values[p.i] != values[p.j]))
            / n_patterns for p in pairs])
    weights = np.atleast_1d(miller_weight(similarity, mode)) if pairs \
        else np.zeros(0)
    keep = weights > 0.0
    pairs = [p for p, k in zip(pairs, keep) if k]
    weights = weights[keep]
    out = types.SimpleNamespace()
    out.pair_i = np.array([p.i for p in pairs], dtype=np.int64)
    out.pair_j = np.array([p.j for p in pairs], dtype=np.int64)
    out.distance = np.array([p.distance for p in pairs])
    out.weight = weights
    out.ctilde = weights * np.array([p.ctilde for p in pairs])
    out.chat = weights * np.array([p.chat for p in pairs])
    return out
