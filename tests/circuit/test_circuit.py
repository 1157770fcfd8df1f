"""Circuit graph invariants and the paper's traversal definitions."""

import dataclasses
import re

import numpy as np
import pytest

from repro.circuit import Circuit, CircuitBuilder, iscas85_circuit, random_circuit
from repro.circuit.circuit import PARAM_COLUMNS
from repro.circuit.components import Node, NodeKind
from repro.simulate import random_patterns, simulate_levelized
from repro.tech import Technology
from repro.timing import ElmoreEngine
from repro.utils.errors import CircuitError, ValidationError


class TestStructure:
    def test_indexing_is_topological(self, small_circuit):
        for u, v in small_circuit.edges:
            assert u < v

    def test_source_feeds_exactly_drivers(self, small_circuit):
        s = small_circuit.num_drivers
        assert sorted(small_circuit.outputs(0)) == list(range(1, s + 1))

    def test_sink_fed_by_loaded_wires(self, small_circuit):
        for wire in small_circuit.primary_output_wires():
            assert wire.is_wire and wire.load_cap > 0

    def test_wires_have_single_parent(self, small_circuit):
        for wire in small_circuit.wires():
            assert len(small_circuit.inputs(wire.index)) == 1

    def test_gate_inputs_are_wires(self, small_circuit):
        for gate in small_circuit.gates():
            for j in small_circuit.inputs(gate.index):
                assert small_circuit.node(j).is_wire

    def test_every_component_has_fanout(self, small_circuit):
        for node in small_circuit.components():
            assert small_circuit.outputs(node.index)

    def test_node_lookup_by_name(self, figure1_circuit):
        node = figure1_circuit.node_by_name("g1")
        assert node.is_gate and node.function == "nand"
        with pytest.raises(KeyError):
            figure1_circuit.node_by_name("missing")

    def test_counts(self, figure1_circuit):
        assert figure1_circuit.num_components == 10  # 3 gates + 7 wires


class TestTraversals:
    """The paper's stage-limited upstream/downstream definitions."""

    def test_downstream_includes_self(self, figure1_circuit):
        c = figure1_circuit
        g1 = c.node_by_name("g1").index
        assert g1 in c.downstream(g1)

    def test_downstream_stops_at_gates(self, figure1_circuit):
        c = figure1_circuit
        # Driver in1's stage: its wire and gate g1, nothing past g1.
        d = c.node_by_name("in1").index
        down = c.downstream(d)
        g1 = c.node_by_name("g1").index
        g3 = c.node_by_name("g3").index
        assert g1 in down
        assert g3 not in down
        # Exactly: driver, its wire, g1.
        w = c.node_by_name("g1.in0").index
        assert down == {d, w, g1}

    def test_downstream_of_gate_covers_fanout_wires(self, figure1_circuit):
        c = figure1_circuit
        g3 = c.node_by_name("g3").index
        down = c.downstream(g3)
        out_wire = c.node_by_name("g3.out").index
        assert down == {g3, out_wire}  # sink excluded

    def test_upstream_excludes_self_stops_at_stage_driver(self, figure1_circuit):
        c = figure1_circuit
        w = c.node_by_name("g3.in0").index  # wire from g1 to g3
        up = c.upstream(w)
        g1 = c.node_by_name("g3").index
        assert c.node_by_name("g1").index in up
        assert w not in up
        assert up == {c.node_by_name("g1").index}

    def test_upstream_of_gate_unions_input_stages(self, figure1_circuit):
        c = figure1_circuit
        g3 = c.node_by_name("g3").index
        up = c.upstream(g3)
        # Both input wires and both driving gates, but not the drivers
        # beyond those gates.
        expected = {
            c.node_by_name("g3.in0").index,
            c.node_by_name("g3.in1").index,
            c.node_by_name("g1").index,
            c.node_by_name("g2").index,
        }
        assert up == expected

    def test_paper_example_cardinalities(self, figure1_circuit):
        # In the paper's Fig. 4, downstream(2) = {2, 5, 7}: a driver's
        # stage is {driver, wire, gate} per fanout branch.  in1 and in3
        # feed one gate each (3 nodes); in2 fans out to g1 and g2 (5).
        c = figure1_circuit
        d1 = c.node_by_name("in1").index
        d2 = c.node_by_name("in2").index
        d3 = c.node_by_name("in3").index
        assert len(c.downstream(d1)) == 3
        assert len(c.downstream(d3)) == 3
        assert len(c.downstream(d2)) == 5


class TestValidationErrors:
    def _nodes_ok(self):
        return [
            Node(index=0, kind=NodeKind.SOURCE, name="@source"),
            Node(index=1, kind=NodeKind.DRIVER, name="d", r_hat=100.0),
            Node(index=2, kind=NodeKind.WIRE, name="w", r_hat=1.0, c_hat=1.0,
                 alpha=10.0, lower=0.1, upper=10.0, length=10.0, load_cap=5.0),
            Node(index=3, kind=NodeKind.SINK, name="@sink"),
        ]

    def test_valid_minimal_circuit(self):
        from repro.tech import Technology

        c = Circuit(self._nodes_ok(), [(0, 1), (1, 2), (2, 3)], Technology.dac99())
        assert c.num_components == 1  # the wire; drivers are not sized

    def test_missing_source_rejected(self):
        from repro.tech import Technology

        nodes = self._nodes_ok()
        nodes[0] = Node(index=0, kind=NodeKind.DRIVER, name="x", r_hat=1.0)
        with pytest.raises(ValidationError):
            Circuit(nodes, [(0, 1), (1, 2), (2, 3)], Technology.dac99())

    def test_unloaded_po_wire_rejected(self):
        from repro.tech import Technology

        nodes = self._nodes_ok()
        nodes[2] = Node(index=2, kind=NodeKind.WIRE, name="w", r_hat=1.0,
                        c_hat=1.0, alpha=10.0, lower=0.1, upper=10.0,
                        length=10.0, load_cap=0.0)
        with pytest.raises(ValidationError):
            Circuit(nodes, [(0, 1), (1, 2), (2, 3)], Technology.dac99())

    def test_edge_direction_enforced(self):
        from repro.tech import Technology

        with pytest.raises(ValidationError):
            Circuit(self._nodes_ok(), [(0, 1), (2, 1), (2, 3)], Technology.dac99())

    def test_duplicate_names_rejected(self):
        from repro.tech import Technology

        nodes = self._nodes_ok()
        nodes[2] = Node(index=2, kind=NodeKind.WIRE, name="d", r_hat=1.0,
                        c_hat=1.0, alpha=10.0, lower=0.1, upper=10.0,
                        length=10.0, load_cap=5.0)
        with pytest.raises(ValidationError):
            Circuit(nodes, [(0, 1), (1, 2), (2, 3)], Technology.dac99())

    def test_default_sizes_clip_to_bounds(self, small_circuit):
        x = small_circuit.default_sizes(100.0)
        for node in small_circuit.components():
            assert x[node.index] == node.upper
        x = small_circuit.default_sizes(1.0)
        for node in small_circuit.components():
            assert node.lower <= x[node.index] <= node.upper
        assert x[0] == 0.0


#: Generated circuits (built from columns, with no ``Node`` list).
_GENERATED = {
    "small": lambda: random_circuit(25, 5, 4, seed=0, target_depth=8),
    "medium": lambda: random_circuit(120, 12, 8, seed=3, target_depth=15),
    "c432": lambda: iscas85_circuit("c432"),
}


class TestNodeListRebuild:
    """A generated circuit's ``nodes`` fed back through the ``Node``-list
    adapter give the same circuit: the two constructors fill one column
    store, so structure, parameters and behaviour all survive."""

    @pytest.fixture(params=sorted(_GENERATED))
    def pair(self, request):
        circuit = _GENERATED[request.param]()
        return circuit, Circuit(circuit.nodes, circuit.edges, circuit.tech,
                                name=circuit.name)

    def test_structure_preserved(self, pair):
        circuit, rebuilt = pair
        assert rebuilt.edges == circuit.edges
        assert rebuilt.name == circuit.name
        assert rebuilt.names == circuit.names
        assert (rebuilt.num_drivers, rebuilt.num_gates, rebuilt.num_wires) \
            == (circuit.num_drivers, circuit.num_gates, circuit.num_wires)

    def test_node_parameters_preserved(self, pair):
        circuit, rebuilt = pair
        assert rebuilt.nodes == circuit.nodes  # frozen dataclass equality
        for field in ("kind", *PARAM_COLUMNS, "edge_src", "edge_dst"):
            ours, theirs = getattr(rebuilt, field), getattr(circuit, field)
            assert ours.dtype == theirs.dtype, field
            np.testing.assert_array_equal(ours, theirs, err_msg=field)
        assert [rebuilt.functions[c] for c in rebuilt.function_code] == \
            [circuit.functions[c] for c in circuit.function_code]

    def test_rebuilt_circuit_simulates_identically(self, pair):
        circuit, rebuilt = pair
        patterns = random_patterns(circuit.num_drivers, 32, seed=5)
        np.testing.assert_array_equal(simulate_levelized(rebuilt, patterns),
                                      simulate_levelized(circuit, patterns))

    def test_rebuilt_circuit_times_identically(self, pair, rng):
        circuit, rebuilt = pair
        engines = [ElmoreEngine(c.compile()) for c in (circuit, rebuilt)]
        cc = circuit.compile()
        x = cc.clip_sizes(cc.default_sizes(1.0)
                          * rng.uniform(0.5, 4.0, cc.num_nodes))
        delays = [engine.delays(x) for engine in engines]
        np.testing.assert_array_equal(delays[1], delays[0])
        np.testing.assert_array_equal(engines[1].arrival_times(delays[1]),
                                      engines[0].arrival_times(delays[0]))


def test_node_list_rebuild_is_validated():
    circuit = _GENERATED["small"]()
    with pytest.raises(ValidationError):
        Circuit(circuit.nodes, circuit.edges[:-1], circuit.tech,
                name=circuit.name)


# -- one broken circuit per documented invariant, through both constructors ----

#: A valid two-driver, one-gate circuit as (kind, name, params) rows.
_WIRE = dict(r_hat=1.0, c_hat=1.0, fringe=0.5, alpha=10.0, lower=0.1,
             upper=10.0, length=10.0)
_GATE = dict(r_hat=100.0, c_hat=1.0, alpha=2.0, lower=0.1, upper=10.0,
             function="nand")
_ROWS = [
    (NodeKind.SOURCE, "@source", {}),
    (NodeKind.DRIVER, "d0", dict(r_hat=100.0)),
    (NodeKind.DRIVER, "d1", dict(r_hat=100.0)),
    (NodeKind.WIRE, "w0", _WIRE),
    (NodeKind.WIRE, "w1", _WIRE),
    (NodeKind.GATE, "g", _GATE),
    (NodeKind.WIRE, "po", dict(_WIRE, load_cap=5.0)),
    (NodeKind.SINK, "@sink", {}),
]
_EDGES = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5), (5, 6), (6, 7)]


def _insert_before_sink(rows, edges, new_rows, new_edges):
    """Insert ``new_rows`` just before the sink; ``new_edges`` name the
    k-th new node as ``-1 - k`` and the (moved) sink as ``"sink"``."""
    sink, added = len(rows) - 1, len(new_rows)
    rows = rows[:sink] + new_rows + rows[sink:]
    edges = [(u, v + added * (v == sink)) for u, v in edges]
    edges += [tuple(sink + added if x == "sink" else sink - 1 - x if x < 0
                    else x for x in edge) for edge in new_edges]
    return rows, edges


def _broken_cases():
    rows, edges = list(_ROWS), list(_EDGES)
    yield "node 0 must be the source", \
        [(NodeKind.DRIVER, "@source", dict(r_hat=1.0))] + rows[1:], edges
    yield "last node must be the sink", \
        rows[:-1] + [(NodeKind.WIRE, "@sink", _WIRE)], edges
    yield "sink node 'stray' at index 7", *_insert_before_sink(
        rows, edges, [(NodeKind.SINK, "stray", {})], [(6, -1)])
    yield "source node 'stray' at index 7", *_insert_before_sink(
        rows, edges, [(NodeKind.SOURCE, "stray", {})], [(6, -1)])
    yield "indices 1..2 must be drivers", \
        [rows[0], rows[1], rows[3], rows[2]] + rows[4:], \
        [(0, 1), (0, 3), (1, 2), (3, 4), (2, 5), (4, 5), (5, 6), (6, 7)]
    yield "violates topological indexing", rows, edges[:-1] + [(7, 6)]
    yield "source must feed exactly the drivers", rows, edges + [(0, 3)]
    yield "sink is fed by non-wire node 'g'", rows, edges + [(5, 7)]
    yield "primary-output wire 'po' has no load", \
        rows[:6] + [(NodeKind.WIRE, "po", _WIRE)] + rows[7:], edges
    yield "wire 'w1' must have exactly one input", rows, edges + [(1, 4)]
    yield "gate 'h' has no inputs", *_insert_before_sink(
        rows, edges, [(NodeKind.GATE, "h", _GATE),
                      (NodeKind.WIRE, "h.out", dict(_WIRE, load_cap=5.0))],
        [(-1, -2), (-2, "sink")])
    yield "gate 'g' input 'd0' is not a wire", rows, edges + [(1, 5)]
    yield "driver 'd1' must be fed by the source only", rows, edges + [(1, 2)]
    yield "component 'dangle' has no fanout", *_insert_before_sink(
        rows, edges, [(NodeKind.WIRE, "dangle", _WIRE)], [(1, -1)])
    yield "duplicate node name 'w0'", \
        rows[:4] + [(NodeKind.WIRE, "w0", _WIRE)] + rows[5:], edges


def _adapter(rows, edges):
    nodes = [Node(index=i, kind=kind, name=name, **params)
             for i, (kind, name, params) in enumerate(rows)]
    return Circuit(nodes, edges, Technology.dac99())


def _columns(rows, edges):
    functions = sorted({params.get("function", "") for _, _, params in rows})
    params = {field: [p.get(field, 0.0) for _, _, p in rows]
              for field in PARAM_COLUMNS}
    src, dst = zip(*edges)
    return Circuit.from_columns(
        [int(kind) for kind, _, _ in rows], [name for _, name, _ in rows],
        functions, [functions.index(p.get("function", "")) for _, _, p in rows],
        src, dst, Technology.dac99(), **params)


@pytest.mark.parametrize("build", [_adapter, _columns],
                         ids=["nodes", "columns"])
class TestDocumentedInvariants:
    def test_base_circuit_is_valid(self, build):
        circuit = build(_ROWS, _EDGES)
        assert circuit.num_gates == 1 and circuit.num_wires == 3

    @pytest.mark.parametrize("message, rows, edges", list(_broken_cases()),
                             ids=[case[0] for case in _broken_cases()])
    def test_broken_circuit_rejected(self, build, message, rows, edges):
        with pytest.raises(ValidationError, match=re.escape(message)):
            build(rows, edges)

    def test_node_parameters_checked(self, build):
        rows = _ROWS[:3] + [(NodeKind.WIRE, "w0", dict(_WIRE, length=0.0))] \
            + _ROWS[4:]
        with pytest.raises(CircuitError, match="wire 'w0' needs a positive length"):
            build(rows, _EDGES)


def test_interior_sink_rejected_from_outside_input(c17):
    """c17's Node list with an extra SINK-kind leaf on a primary-output
    wire used to build and run; it is now rejected."""
    nodes = list(c17.nodes)
    sink = len(nodes) - 1
    po_wire = next(u for u, v in c17.edges if v == sink)
    nodes.insert(sink, dataclasses.replace(nodes[sink], name="stray"))
    nodes[sink + 1] = dataclasses.replace(nodes[sink + 1], index=sink + 1)
    edges = [(u, v + (v == sink)) for u, v in c17.edges] + [(po_wire, sink)]
    with pytest.raises(ValidationError, match="sink node 'stray'"):
        Circuit(nodes, edges, c17.tech, name=c17.name)
