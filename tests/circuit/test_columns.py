"""The column-built netlist against the object-graph oracle.

Every generated column, node name and function, every
:class:`CompiledCircuit` array, the per-level channels and the coupling
arrays must equal the per-node spelling in ``tests/oracles/circuit.py``
exactly; the scenario path must build no per-node record at all.
"""

import copy
import zlib

import numpy as np
import pytest

from oracles.circuit import (
    reference_channels, reference_compiled, reference_coupling,
    reference_fix_coverage, reference_random_circuit)
from oracles.trees import random_tree_circuit
from repro.circuit import generators, random_circuit
from repro.circuit.circuit import PARAM_COLUMNS
from repro.circuit.components import Node
from repro.circuit.iscas85 import ISCAS85_SPECS
from repro.core.session import SolverSession
from repro.geometry import ChannelLayout, CouplingPair
from repro.noise import CouplingSet, MillerMode, SimilarityAnalyzer
from repro.runtime import CircuitRef, FlowConfig, Scenario
from repro.utils.errors import CircuitError
from repro.utils.rng import derive_rng, make_rng

#: ``random_circuit`` shapes: (n_gates, n_inputs, n_outputs, keywords).
SHAPES = [
    (25, 5, 4, dict(seed=0, target_depth=8)),
    (120, 12, 8, dict(seed=3, target_depth=15)),
    (40, 6, 4, dict(seed=1)),
    (80, 8, 6, dict(seed=6, n_wires=300)),
    (300, 20, 10, dict(seed=11)),
    # Input-heavy: more drivers than the fan-in budget absorbs.
    (5, 8, 2, dict(seed=0, target_depth=2)),
    (5, 8, 2, dict(seed=1, target_depth=2)),
    (5, 8, 2, dict(seed=7, target_depth=2)),
    (12, 30, 3, dict(seed=4)),
]


def _iscas_kwargs(name):
    spec = ISCAS85_SPECS[name]
    return dict(n_gates=spec.gates, n_inputs=spec.inputs,
                n_outputs=spec.outputs, n_wires=spec.wires,
                seed=zlib.crc32(spec.name.encode()) & 0xFFFF,
                target_depth=spec.depth, name=spec.name)


def assert_same_columns(circuit, reference):
    assert circuit.name == reference.name
    assert circuit.names == reference.names
    assert [circuit.functions[c] for c in circuit.function_code] == \
        [reference.functions[c] for c in reference.function_code]
    for field in ("kind", *PARAM_COLUMNS, "edge_src", "edge_dst"):
        ours, theirs = getattr(circuit, field), getattr(reference, field)
        assert ours.dtype == theirs.dtype, field
        assert np.array_equal(ours, theirs), field


def assert_same_compiled(circuit, reference_circuit=None):
    """Every array and list-of-arrays attribute equals the oracle's."""
    compiled = circuit.compile()
    oracle = reference_compiled(reference_circuit or circuit)
    for name, expected in vars(oracle).items():
        actual = getattr(compiled, name)
        if isinstance(expected, np.ndarray):
            assert actual.dtype == expected.dtype, name
            assert actual.shape == expected.shape, name
            assert np.array_equal(actual, expected), name
        elif isinstance(expected, list):
            assert len(actual) == len(expected), name
            for got, want in zip(actual, expected):
                assert got.dtype == want.dtype and np.array_equal(got, want), name
        else:
            assert actual == expected, name


def assert_same_stage_geometry(circuit, n_patterns=64, full=True,
                               reference=None):
    """Channels equal the oracle's; coupling arrays equal it byte for byte
    on the level layout and (``full``) on a reordered one and in WORST
    mode too.  The oracle reads wire lengths from ``reference``'s nodes
    (an equal circuit) when given."""
    layout = ChannelLayout.from_levels(circuit)
    assert layout.channels == tuple(reference_channels(circuit))
    layouts, modes = [layout], [MillerMode.SIMILARITY]
    if full:
        layouts.append(layout.apply_ordering(
            {c.label: list(range(len(c)))[::-1] for c in layout.channels}))
        modes.append(MillerMode.WORST)
    analyzer = SimilarityAnalyzer(circuit, n_patterns=n_patterns, seed=0)
    for lay in layouts:
        for mode in modes:
            ours = CouplingSet.from_layout(lay, analyzer, mode)
            theirs = reference_coupling(lay, analyzer, mode,
                                        (reference or circuit).nodes)
            for name in ("pair_i", "pair_j", "distance", "weight", "ctilde",
                         "chat"):
                got, want = getattr(ours, name), getattr(theirs, name)
                assert got.dtype == want.dtype, name
                assert got.tobytes() == want.tobytes(), name


class TestGenerator:
    @pytest.mark.parametrize("n_gates, n_inputs, n_outputs, kwargs", SHAPES)
    def test_random_circuit_equals_object_builder(self, n_gates, n_inputs,
                                                  n_outputs, kwargs):
        circuit = random_circuit(n_gates, n_inputs, n_outputs, **kwargs)
        reference = reference_random_circuit(n_gates, n_inputs, n_outputs,
                                             **kwargs)
        assert_same_columns(circuit, reference)
        assert circuit.nodes == reference.nodes     # the lazy Node views
        assert_same_compiled(circuit, reference)
        assert_same_stage_geometry(circuit, reference=reference)

    @pytest.mark.parametrize("name", sorted(ISCAS85_SPECS))
    def test_iscas85_equals_object_builder(self, name):
        kwargs = _iscas_kwargs(name)
        circuit = random_circuit(**kwargs)
        reference = reference_random_circuit(**kwargs)
        assert_same_columns(circuit, reference)
        assert circuit.nodes == reference.nodes
        assert_same_compiled(circuit, reference)
        assert_same_stage_geometry(circuit, full=False, reference=reference)

    def test_random_20000(self):
        """The ``random:N`` scale path, set-up readers included."""
        circuit = CircuitRef.from_spec("random:20000").build()
        reference = reference_random_circuit(20000, 128, 128,
                                             name="rand20000")
        assert_same_columns(circuit, reference)
        assert_same_compiled(circuit, reference)
        assert_same_stage_geometry(circuit, n_patterns=32, full=False,
                                   reference=reference)

    @pytest.mark.parametrize("n_gates, n_inputs, n_outputs, kwargs",
                             SHAPES + [(s.gates, s.inputs, s.outputs,
                                        dict(seed=_iscas_kwargs(n)["seed"],
                                             n_wires=s.wires,
                                             target_depth=s.depth))
                                       for n, s in ISCAS85_SPECS.items()])
    def test_fix_coverage_equals_slot_scan(self, n_gates, n_inputs,
                                           n_outputs, kwargs):
        """Every retry attempt's draws give the same sources, PO gates and
        failures as the whole-tail scan."""
        if kwargs.get("target_depth"):
            tau = max(2.0, 2.0 * n_gates / kwargs["target_depth"])
        else:
            tau = None
        for attempt in range(3):
            seed = kwargs["seed"]
            rng = make_rng(seed if attempt == 0 else (seed, attempt))
            fanins = generators._draw_fanins(
                n_gates, n_inputs, n_outputs, kwargs.get("n_wires"), 2.0,
                derive_rng(rng, "fanin"))
            sources = generators._draw_sources(fanins, n_inputs, tau,
                                               derive_rng(rng, "topology"))
            theirs = copy.deepcopy(sources)
            coverage = derive_rng(rng, "coverage")
            outcomes = []
            for fix, srcs, draws in (
                    (generators._fix_coverage, sources, coverage),
                    (reference_fix_coverage, theirs, copy.deepcopy(coverage))):
                try:
                    outcomes.append(fix(srcs, fanins, n_gates, n_inputs,
                                        n_outputs, draws))
                except CircuitError as error:
                    outcomes.append(str(error))
            ours, reference_po = outcomes
            if isinstance(ours, str):
                assert ours == reference_po
                continue
            src_flat, po_gates = ours
            assert src_flat.tolist() == [s for chosen in theirs for s in chosen]
            assert po_gates.tolist() == reference_po


class TestAdapterCircuits:
    """Node-list circuits (builder, parser, trees) compile like the oracle."""

    def test_c17(self, c17):
        assert_same_compiled(c17)
        assert_same_stage_geometry(c17)

    def test_figure1(self, figure1_circuit):
        assert_same_compiled(figure1_circuit)
        assert_same_stage_geometry(figure1_circuit)

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_tree_circuits(self, seed):
        circuit = random_tree_circuit(60, 8, 5, seed=seed, target_depth=10)
        assert_same_compiled(circuit)
        assert_same_stage_geometry(circuit)


@pytest.fixture
def constructions(monkeypatch):
    """Counts of ``Node`` and ``CouplingPair`` records built meanwhile."""
    counts = {"Node": 0, "CouplingPair": 0}
    for cls in (Node, CouplingPair):
        original = cls.__post_init__

        def counting(self, _original=original, _name=cls.__name__):
            counts[_name] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


class TestNoPerNodeObjects:
    def test_scenario_path(self, constructions):
        ref = CircuitRef.from_spec("random:3000")
        records = SolverSession.for_ref(ref).solve(
            [Scenario(ref, FlowConfig(max_iterations=5))])
        assert len(records) == 1 and records[0].fingerprint
        assert constructions == {"Node": 0, "CouplingPair": 0}

    def test_info_command(self, constructions):
        import io

        from repro.cli import main

        out = io.StringIO()
        assert main(["info", "random:2000"], out=out) == 0
        assert "2000" in out.getvalue()
        assert constructions == {"Node": 0, "CouplingPair": 0}
