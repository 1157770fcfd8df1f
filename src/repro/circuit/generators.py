"""Seeded random circuit generation.

Real ISCAS85 netlists are not redistributed with this library, so the
Table 1 experiments run on synthetic circuits whose *statistics* match the
paper's: exact gate and wire counts, real PI/PO counts, average fan-in
around two, and tens of logic levels.  The construction below is fully
deterministic for a given seed.

Construction invariants (all checked by ``Circuit.validate``):

* wire count is *exact*: ``#wires = Σ gate fan-ins + #primary outputs``
  (every connection is one wire component, as in the paper's Fig. 1/2);
* every driver and every gate output is used at least once;
* exactly ``n_outputs`` gates feed primary outputs, and every gate with no
  internal fanout is among them.
"""

import numpy as np

from repro.circuit.circuit import PARAM_COLUMNS, Circuit, _csr
from repro.circuit.components import NodeKind
from repro.tech import Technology
from repro.utils.errors import CircuitError
from repro.utils.rng import derive_rng, make_rng

#: Gate functions by fan-in; 1-input gates alternate NOT/BUF, the rest mix
#: the standard cell set (XOR kept to 2 inputs as in typical libraries).
_FUNCTIONS_1 = ("not", "buf")
_FUNCTIONS_2 = ("nand", "nor", "and", "or", "xor")
_FUNCTIONS_N = ("nand", "nor", "and", "or")

_MAX_FANIN = 4

#: Every gate function, and each fan-in class's table as codes into it
#: (rows: 1-input, 2-input, wider; padded past each table's size).
_FUNCTION_TABLE = ("", *_FUNCTIONS_1, *_FUNCTIONS_2)
_TABLE_SIZES = np.array([len(_FUNCTIONS_1), len(_FUNCTIONS_2),
                         len(_FUNCTIONS_N)])
_TABLE_CODES = np.array([
    [_FUNCTION_TABLE.index(f) for f in table] + [0] * (5 - len(table))
    for table in (_FUNCTIONS_1, _FUNCTIONS_2, _FUNCTIONS_N)], dtype=np.int32)

#: Input slots per redundancy count in :func:`_fix_coverage`.
_COVERAGE_BLOCK = 512


def random_circuit(n_gates, n_inputs, n_outputs, seed=0, tech=None,
                   n_wires=None, avg_fanin=2.0, depth_tau=None,
                   target_depth=None, wire_length_range=(50.0, 300.0),
                   name=None):
    """Generate a random combinational circuit.

    Parameters
    ----------
    n_gates, n_inputs, n_outputs:
        Gate / primary-input / primary-output counts.
    n_wires:
        Exact wire count to hit (``Σ fan-ins + n_outputs``); defaults to
        ``round(avg_fanin · n_gates) + n_outputs``.
    depth_tau:
        Locality scale of input selection; gate ``k`` draws its gate-type
        inputs at geometric distance ~``tau`` behind it, so logic depth
        grows like ``n_gates / tau``.  Defaults to ``max(3, n_gates/40)``.
    target_depth:
        Approximate gate depth to aim for; sets ``depth_tau ≈
        n_gates/target_depth`` (ignored when ``depth_tau`` is given).
        Used by the ISCAS85 suite to match real benchmark depths.
    wire_length_range:
        Uniform range (µm) for wire lengths.

    Returns a validated :class:`~repro.circuit.circuit.Circuit`.
    """
    if depth_tau is None and target_depth is not None:
        if target_depth < 1:
            raise CircuitError("target_depth must be >= 1")
        # The longest chain runs ≈ 2× the mean geometric step count, so
        # aim the locality scale twice as wide as the naive ratio.
        depth_tau = max(2.0, 2.0 * n_gates / float(target_depth))
    if n_gates < 1 or n_inputs < 1 or n_outputs < 1:
        raise CircuitError("n_gates, n_inputs, n_outputs must all be >= 1")
    if n_outputs > n_gates:
        raise CircuitError("cannot have more primary outputs than gates")
    # The coverage fix-up can fail for unlucky draws with tight wire
    # budgets; retry deterministically on derived seeds before giving up.
    last_error = None
    for attempt in range(8):
        rng = make_rng(seed if attempt == 0 else (seed, attempt))
        try:
            fanins = _draw_fanins(n_gates, n_inputs, n_outputs, n_wires, avg_fanin,
                                  derive_rng(rng, "fanin"))
            sources = _draw_sources(fanins, n_inputs, depth_tau,
                                    derive_rng(rng, "topology"))
            src_flat, po_gates = _fix_coverage(
                sources, fanins, n_gates, n_inputs, n_outputs,
                derive_rng(rng, "coverage"))
        except CircuitError as error:
            last_error = error
            continue
        return _emit(src_flat, fanins, po_gates, n_inputs, tech,
                     wire_length_range,
                     derive_rng(rng, "geometry"),
                     derive_rng(rng, "functions"),
                     name or f"random{n_gates}g")
    raise CircuitError(f"random_circuit failed for seed {seed!r}: {last_error}")


def _draw_fanins(n_gates, n_inputs, n_outputs, n_wires, avg_fanin, rng):
    """Per-gate fan-in counts summing to the exact wire budget."""
    # Coverage feasibility: every driver and every non-PO gate output
    # needs at least one input slot, so no seed can succeed below this.
    floor = max(n_gates, n_inputs + n_gates - n_outputs)
    if n_wires is None:
        total = max(int(round(avg_fanin * n_gates)), floor)
    else:
        total = n_wires - n_outputs
    if not floor <= total <= _MAX_FANIN * n_gates:
        raise CircuitError(
            f"wire budget needs total fan-in in [{floor}, {_MAX_FANIN * n_gates}], got {total}"
        )
    fanins = np.ones(n_gates, dtype=np.int64)
    extra = total - n_gates
    while extra > 0:
        room = np.flatnonzero(fanins < _MAX_FANIN)
        picks = rng.choice(room, size=min(extra, len(room)), replace=False)
        fanins[picks] += 1
        extra -= len(picks)
    return fanins


def _draw_sources(fanins, n_inputs, depth_tau, rng):
    """Choose each gate's input sources.

    Source ids: ``0..n_inputs-1`` are drivers, ``n_inputs + k`` is gate
    ``k``.  Gate ``k`` draws each input either from a uniform driver (with
    probability shrinking as the netlist grows around it) or from a
    geometrically recent earlier gate — the locality that gives realistic
    logic depth.  Duplicate sources within one gate are avoided when
    enough candidates exist.
    """
    n_gates = len(fanins)
    tau = depth_tau if depth_tau is not None else max(3.0, n_gates / 40.0)
    sources = []
    for k, fanin in enumerate(fanins):
        chosen = []
        candidates = n_inputs + k
        for _ in range(int(fanin)):
            for _attempt in range(8):
                take_driver = k == 0 or rng.random() < n_inputs / (n_inputs + k)
                if take_driver:
                    src = int(rng.integers(0, n_inputs))
                else:
                    back = int(min(rng.geometric(min(1.0, 1.0 / tau)), k))
                    src = n_inputs + k - back
                if src not in chosen or candidates <= len(chosen):
                    break
            chosen.append(src)
        sources.append(chosen)
    return sources


def _fix_coverage(sources, fanins, n_gates, n_inputs, n_outputs, rng):
    """Ensure every source is used and exactly ``n_outputs`` gates are POs.

    The last ``n_outputs`` gates become the primary outputs (outputs
    cluster at the end of real netlists), so a PO gate is allowed to have
    no internal fanout.  Every other unused source is rewired into an
    input slot of a strictly later gate via a worklist: slots whose
    current source is used more than once are preferred (no new orphan);
    when none exists, the displaced source joins the worklist.  A budget
    bounds pathological displacement chains (the caller retries on a
    derived seed).

    Returns ``(src_flat, po_gates)``: every gate's sources in one flat
    array in ``(gate, position)`` order, and the PO gate indices.

    The k-th candidate slot is found without scanning the tail.  A work
    item runs only while its source has no uses, so no slot holds it and
    every later slot is a candidate.  Redundancy (the slot's source is
    used more than once) lives in a per-slot mask with per-block counts,
    and it only ever flips True → False: the rewired-in source goes from
    0 uses to 1, and a displaced source left with one use clears its
    last slot.  Candidate counts and order match the whole-tail scan
    exactly (``tests/oracles/circuit.py``), so the ``rng`` draws and the
    emitted circuit are unchanged.
    """
    n_sources = n_inputs + n_gates
    offsets = np.zeros(n_gates + 1, dtype=np.int64)
    np.cumsum(np.asarray(fanins, dtype=np.int64), out=offsets[1:])
    total = int(offsets[-1])
    src_flat = np.fromiter(
        (src for chosen in sources for src in chosen),
        dtype=np.int64, count=total)
    use_count = np.bincount(src_flat, minlength=n_sources)

    po_gates = np.arange(n_gates - n_outputs, n_gates, dtype=np.int64)
    is_po_source = np.zeros(n_sources, dtype=bool)
    is_po_source[n_inputs + n_gates - n_outputs:] = True

    block = _COVERAGE_BLOCK
    redundant = use_count[src_flat] > 1
    block_red = np.add.reduceat(redundant.astype(np.int64),
                                np.arange(0, total, block)) \
        if total else np.zeros(0, dtype=np.int64)
    # Slots by source, to find a displaced source's one remaining slot;
    # ``added`` holds the slots rewired to a source since.
    slot_ptr, slot_order = _csr(src_flat, n_sources)
    added = {}

    def clear(slot):
        if redundant[slot]:
            redundant[slot] = False
            block_red[slot // block] -= 1

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
        if start == total:
            raise CircuitError(
                "cannot rewire unused sources: no input slots after them"
            )
        b0 = start // block
        head = redundant[start:(b0 + 1) * block]
        n_head = int(np.count_nonzero(head))
        later = block_red[b0 + 1:]
        n_red = n_head + int(later.sum())
        if n_red:
            pick = int(rng.integers(0, n_red))
            if pick < n_head:
                j = start + int(np.flatnonzero(head)[pick])
            else:
                pick -= n_head
                seen = np.cumsum(later)
                b = int(np.searchsorted(seen, pick, side="right"))
                pick -= int(seen[b - 1]) if b else 0
                lo = (b0 + 1 + b) * block
                j = lo + int(np.flatnonzero(redundant[lo:lo + block])[pick])
        else:
            j = start + int(rng.integers(0, total - start))
        displaced = int(src_flat[j])
        clear(j)
        use_count[displaced] -= 1
        src_flat[j] = s
        use_count[s] += 1
        added.setdefault(s, []).append(j)
        if use_count[displaced] == 1:
            slots = [*slot_order[slot_ptr[displaced]:slot_ptr[displaced + 1]]
                     .tolist(), *added.get(displaced, ())]
            clear(next(k for k in slots if src_flat[k] == displaced))
        elif use_count[displaced] == 0 and not is_po_source[displaced]:
            work.append(displaced)
    return src_flat, po_gates


def _emit(src_flat, fanins, po_gates, n_inputs, tech, wire_length_range,
          geo_rng, fn_rng, name):
    """Write the :class:`Circuit` columns for a drawn topology.

    The node order is the builder's record order: source, drivers
    ``pi{d}``, then per gate ``k`` its input wires ``g{k}.in{p}`` and the
    gate ``g{k}`` itself, then the PO wires ``g{g}.out`` and the sink.
    Every gate's function comes from one bounded draw over the per-gate
    table sizes, and every wire length from one uniform draw, slots
    first and PO wires last: the same streams, value for value, as one
    scalar draw per gate and per wire — the equality the oracle tests
    (``tests/oracles/circuit.py``) pin column by column.
    """
    lo, hi = wire_length_range
    if not 0 < lo <= hi:
        raise CircuitError("wire_length_range must satisfy 0 < lo <= hi")
    tech = tech or Technology.dac99()
    fanins = np.asarray(fanins, dtype=np.int64)
    n_gates, n_slots, n_po = fanins.size, int(fanins.sum()), len(po_gates)

    table = np.minimum(fanins, 3) - 1      # 1-input, 2-input, wider
    picks = fn_rng.integers(0, _TABLE_SIZES[table])
    lengths = geo_rng.uniform(lo, hi, size=n_slots + n_po)

    # Gate k sits right after its fanin input wires.
    gate_index = n_inputs + np.cumsum(fanins + 1)
    slot_gate = np.repeat(np.arange(n_gates), fanins)
    slot_wire = np.arange(n_slots) + n_inputs + 1 + slot_gate
    first_po = n_inputs + 1 + n_slots + n_gates
    po_wire = np.arange(first_po, first_po + n_po)
    sink = first_po + n_po
    wires = np.concatenate([slot_wire, po_wire])

    n_nodes = sink + 1
    kind = np.zeros(n_nodes, dtype=np.int8)
    kind[1:n_inputs + 1] = NodeKind.DRIVER
    kind[gate_index] = NodeKind.GATE
    kind[wires] = NodeKind.WIRE
    kind[sink] = NodeKind.SINK
    columns = {field: np.zeros(n_nodes) for field in PARAM_COLUMNS}
    columns["length"][wires] = lengths
    columns["r_hat"][1:n_inputs + 1] = tech.driver_resistance
    columns["r_hat"][gate_index] = tech.gate_unit_resistance
    columns["r_hat"][wires] = tech.wire_unit_resistance * lengths
    columns["c_hat"][gate_index] = tech.gate_unit_capacitance
    columns["c_hat"][wires] = tech.wire_unit_capacitance * lengths
    columns["fringe"][wires] = tech.wire_fringe_capacitance * lengths
    columns["alpha"][gate_index] = tech.gate_area_per_size
    columns["alpha"][wires] = lengths
    for nodes in (gate_index, wires):
        columns["lower"][nodes] = tech.min_size
        columns["upper"][nodes] = tech.max_size
    columns["load_cap"][po_wire] = tech.load_capacitance
    code = np.zeros(n_nodes, dtype=np.int32)
    code[gate_index] = _TABLE_CODES[table, picks]

    names = ["@source", *(f"pi{d}" for d in range(n_inputs))]
    for k, fanin in enumerate(fanins.tolist()):
        names.extend(f"g{k}.in{p}" for p in range(fanin))
        names.append(f"g{k}")
    names.extend(f"g{g}.out" for g in po_gates.tolist())
    names.append("@sink")

    parent = np.where(src_flat < n_inputs, src_flat + 1,
                      gate_index[np.maximum(src_flat - n_inputs, 0)])
    drivers = np.arange(1, n_inputs + 1)
    edge_src = np.concatenate([np.zeros(n_inputs, dtype=np.int64), parent,
                               slot_wire, gate_index[po_gates], po_wire])
    edge_dst = np.concatenate([drivers, slot_wire, gate_index[slot_gate],
                               po_wire, np.full(n_po, sink)])
    return Circuit.from_columns(kind, names, _FUNCTION_TABLE, code, edge_src,
                                edge_dst, tech, name=name, **columns)
