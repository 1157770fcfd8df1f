"""Declarative scenario specs: validation, canonical form, expansion."""

import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro.circuit import Circuit, iscas85_circuit, load_bench
from repro.circuit.circuit import PARAM_COLUMNS
from repro.circuit.components import NodeKind
from repro.circuit.parser import builtin_bench_path
from repro.tech import Technology
from repro.runtime import CircuitRef, FlowConfig, Scenario, SweepSpec
from repro.runtime import config as runtime_config
from repro.utils.errors import ValidationError


class TestCircuitRef:
    def test_iscas85_known_name(self):
        ref = CircuitRef.iscas85("c432")
        assert ref.label == "c432"
        circuit = ref.build()
        assert circuit.name == "c432"
        assert circuit.num_gates == 214

    def test_iscas85_unknown_name_rejected(self):
        with pytest.raises(ValidationError, match="c9999"):
            CircuitRef.iscas85("c9999")

    def test_bench_path(self):
        ref = CircuitRef.bench(builtin_bench_path("c17"))
        assert ref.label == "c17"
        assert ref.build().num_gates == 6

    def test_bench_missing_path_rejected(self):
        with pytest.raises(ValidationError, match="no such"):
            CircuitRef.bench("/nonexistent/ghost.bench")

    def test_random_params(self):
        ref = CircuitRef.random(25, 5, 4, seed=0, target_depth=8)
        assert ref.build().num_gates == 25

    def test_from_spec_resolves_name_and_path(self):
        assert CircuitRef.from_spec("c432").kind == "iscas85"
        assert CircuitRef.from_spec(str(builtin_bench_path("c17"))).kind == "bench"
        with pytest.raises(ValidationError, match="unknown circuit"):
            CircuitRef.from_spec("c9999")

    def test_from_spec_random(self):
        ref = CircuitRef.from_spec("random:500", seed=9)
        assert ref.kind == "random"
        assert dict(ref.params)["n_gates"] == 500
        assert ref.seed == 9

    def test_from_spec_random_rejects_junk(self):
        with pytest.raises(ValidationError):
            CircuitRef.from_spec("random:elephants")
        with pytest.raises(ValidationError):
            CircuitRef.from_spec("random:0")

    def test_label_falls_back_to_params_digest(self):
        ref = dataclasses.replace(CircuitRef.random(20, 4, 4), name="")
        assert ref.label.startswith("random-")
        assert ref.label == dataclasses.replace(ref).label  # stable

    def test_fingerprint_stable_and_discriminating(self):
        a = CircuitRef.iscas85("c432")
        assert a.fingerprint() == CircuitRef.iscas85("c432").fingerprint()
        assert a.fingerprint() != CircuitRef.iscas85("c880").fingerprint()

    def test_fingerprint_tracks_bench_seed(self):
        path = builtin_bench_path("c17")
        assert (CircuitRef.bench(path, seed=0).fingerprint()
                != CircuitRef.bench(path, seed=1).fingerprint())

    def test_round_trip(self):
        ref = CircuitRef.random(25, 5, 4, seed=3, target_depth=8)
        assert CircuitRef.from_dict(ref.canonical_dict()) == ref

    def test_round_trip_with_tuple_valued_params(self):
        """JSON turns tuples into lists; rebuilt refs must stay equal and
        hashable (the fingerprint memo keys on them)."""
        ref = CircuitRef.random(12, 4, 2, seed=0,
                                wire_length_range=(50.0, 300.0))
        rebuilt = CircuitRef.from_dict(
            json.loads(json.dumps(ref.canonical_dict())))
        assert rebuilt == ref
        assert hash(rebuilt) == hash(ref)
        assert rebuilt.build().num_gates == 12


def _rebuilt(circuit, how):
    """``circuit`` rebuilt through one of the two constructors."""
    if how == "columns":
        return Circuit.from_columns(
            circuit.kind, circuit.names, circuit.functions,
            circuit.function_code, circuit.edge_src, circuit.edge_dst,
            circuit.tech, name=circuit.name,
            **{f: getattr(circuit, f) for f in PARAM_COLUMNS})
    return Circuit(circuit.nodes, circuit.edges, circuit.tech,
                   name=circuit.name)


def _with(circuit, **changes):
    """A shallow copy with attributes replaced (bypasses validation: the
    fingerprint reads the store, whatever it holds)."""
    variant = copy.copy(circuit)
    for name, value in changes.items():
        setattr(variant, name, value)
    return variant


def _bumped(column, index):
    column = column.copy()
    column[index] += 1
    return column


def _one_change(circuit, part):
    """``circuit`` with exactly one stored value of ``part`` changed."""
    g = int(np.flatnonzero(circuit.kind == NodeKind.GATE)[0])
    if part in PARAM_COLUMNS or part in ("kind", "edge_src", "edge_dst"):
        return _with(circuit, **{part: _bumped(getattr(circuit, part), g)})
    if part == "name":
        names = list(circuit.names)
        names[g] += "x"
        return _with(circuit, names=tuple(names))
    if part == "function":
        functions = list(circuit.functions)
        code = circuit.function_code[g]
        functions[code] = functions[code] + "x"
        return _with(circuit, functions=tuple(functions))
    if part == "circuit name":
        return _with(circuit, name=circuit.name + "x")
    value = getattr(circuit.tech, part)
    return _with(circuit, tech=dataclasses.replace(circuit.tech,
                                                   **{part: value * 2 + 1}))


class TestStreamedFingerprint:
    """SHA-256 over the header JSON and the canonical column bytes, each
    part hashed as it is produced."""

    def test_c17_digest_pinned(self):
        c17 = load_bench(builtin_bench_path("c17"))
        assert runtime_config.circuit_fingerprint(c17) == (
            "5992e0d3232846540c56d0cb6b6180d3"
            "1353d0bec1d3ea23606cc6ed09545332")

    @pytest.mark.parametrize("name", ["c17", "c432", "c7552"])
    def test_iscas_circuits(self, name):
        """Column constructor and Node-list adapter hash the same circuit
        to the same digest (c17 is parsed, the others generated)."""
        circuit = load_bench(builtin_bench_path("c17")) if name == "c17" \
            else iscas85_circuit(name)
        digest = runtime_config.circuit_fingerprint(circuit)
        for how in ("columns", "nodes"):
            rebuilt = _rebuilt(circuit, how)
            assert runtime_config.circuit_fingerprint(rebuilt) == digest, how

    @pytest.mark.parametrize("part", [
        "kind", *PARAM_COLUMNS, "name", "function", "edge_src", "edge_dst",
        "circuit name",
        *(f.name for f in dataclasses.fields(Technology))])
    def test_any_change_moves_digest(self, c17, part):
        digest = runtime_config.circuit_fingerprint(c17)
        changed = _one_change(c17, part)
        assert runtime_config.circuit_fingerprint(changed) != digest


class TestFlowConfig:
    def test_defaults_valid(self):
        config = FlowConfig()
        assert config.ordering == "woss"
        assert config.bound_factors == (1.1, 0.1, 0.2)
        assert config.optimizer_options["max_iterations"] == 200

    @pytest.mark.parametrize("bad", [
        {"ordering": "bogus"},
        {"miller_mode": "bogus"},
        {"delay_mode": "bogus"},
        {"update": "bogus"},
        {"n_patterns": 0},
        {"max_iterations": 0},
        {"noise_fraction": 0.0},
        {"tolerance": -1.0},
    ])
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(ValidationError):
            FlowConfig(**bad)

    @pytest.mark.parametrize("bad", [
        {"delay_slack": float("nan")},
        {"noise_fraction": float("inf")},
        {"power_fraction": float("nan")},
        {"tolerance": float("nan")},
        {"coupling_order": 2.5},
        {"n_patterns": 64.5},
        {"n_patterns": "many"},
        {"max_iterations": 2.5},
        {"max_iterations": float("inf")},
        {"seed": 0.5},
        {"seed": float("nan")},
        {"miller_mode": ["junk"]},
    ])
    def test_non_finite_and_non_integral_rejected(self, bad):
        """NaN passed ``<= 0`` checks and ``int()`` truncated 2.5 to 2;
        both now fail up front instead of burning a solve."""
        with pytest.raises(ValidationError):
            FlowConfig(**bad)

    def test_integral_floats_keep_their_canonical_bytes(self):
        assert FlowConfig(n_patterns=64.0, max_iterations=100.0,
                          coupling_order=2.0, seed=3.0).canonical_json() == \
            FlowConfig(n_patterns=64, max_iterations=100,
                       seed=3).canonical_json()

    def test_canonical_json_sorted_and_stable(self):
        a = FlowConfig(n_patterns=64).canonical_json()
        b = FlowConfig(n_patterns=64).canonical_json()
        assert a == b
        keys = list(json.loads(a))
        assert keys == sorted(keys)

    def test_round_trip(self):
        config = FlowConfig(ordering="greedy2", delay_mode="propagated",
                            noise_fraction=0.05)
        assert FlowConfig.from_dict(config.canonical_dict()) == config

    def test_replace_returns_new_value(self):
        base = FlowConfig()
        other = base.replace(ordering="none")
        assert base.ordering == "woss" and other.ordering == "none"

    def test_enum_and_string_modes_make_one_config(self):
        """An enum mode is stored as its value string: equal configs,
        one canonical form, one scenario hash, one initial point."""
        from repro.core.session import SolverSession
        from repro.noise.miller import MillerMode
        from repro.timing.elmore import CouplingDelayMode

        by_enum = FlowConfig(miller_mode=MillerMode.WORST,
                             delay_mode=CouplingDelayMode.PROPAGATED,
                             n_patterns=32, max_iterations=3)
        by_value = FlowConfig(miller_mode="worst", delay_mode="propagated",
                              n_patterns=32, max_iterations=3)
        assert by_enum == by_value
        assert by_enum.miller_mode == "worst"
        assert by_enum.delay_mode == "propagated"
        assert by_enum.canonical_json() == by_value.canonical_json()
        assert FlowConfig.from_dict(by_enum.canonical_dict()) == by_value
        ref = CircuitRef.iscas85("c432")
        assert Scenario(ref, by_enum).content_hash() == \
            Scenario(ref, by_value).content_hash()
        session = SolverSession.for_ref(ref)
        session.solve_configs([by_enum], 0)
        session.solve_configs([by_value], 0)
        assert len(session._initials) == 1


class TestScenario:
    def test_label_and_hash(self):
        scenario = Scenario(CircuitRef.iscas85("c432"), FlowConfig())
        assert scenario.label == "c432/woss/own/similarity"
        assert scenario.content_hash() == scenario.content_hash()

    def test_content_hash_is_computed_once_and_invisible(self, monkeypatch):
        calls = []
        compute = runtime_config._content_hash

        def counted(data):
            calls.append(data)
            return compute(data)

        monkeypatch.setattr(runtime_config, "_content_hash", counted)
        scenario = Scenario(CircuitRef.iscas85("c432"), FlowConfig())
        fresh = Scenario(CircuitRef.iscas85("c432"), FlowConfig())
        pickled = pickle.dumps(fresh)
        digest = scenario.content_hash()
        assert scenario.content_hash() == digest and len(calls) == 1
        assert digest == compute(scenario.canonical_dict())
        # Equality and hash() see the fields only, as before.
        assert scenario == fresh and hash(scenario) == hash(fresh)
        assert repr(scenario) == repr(fresh)
        # A pickle carries no stored digest: the same bytes as a fresh
        # instance's, and the copy recomputes its own.
        assert pickle.dumps(scenario) == pickled
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario and clone.content_hash() == digest
        assert copy.copy(scenario).content_hash() == digest
        # replace builds a new value with a hash of its own.
        other = dataclasses.replace(
            scenario, config=FlowConfig(noise_fraction=0.2))
        assert other.content_hash() == compute(other.canonical_dict())
        assert other.content_hash() != digest
        assert dataclasses.replace(scenario).content_hash() == digest
        assert dataclasses.asdict(scenario) == dataclasses.asdict(fresh)

    def test_hash_tracks_every_knob(self):
        base = Scenario(CircuitRef.iscas85("c432"), FlowConfig())
        seen = {base.content_hash()}
        for changed in (
            Scenario(CircuitRef.iscas85("c880"), FlowConfig()),
            Scenario(base.circuit, FlowConfig(ordering="none")),
            Scenario(base.circuit, FlowConfig(delay_mode="propagated")),
            Scenario(base.circuit, FlowConfig(miller_mode="worst")),
            Scenario(base.circuit, FlowConfig(noise_fraction=0.2)),
            Scenario(base.circuit, FlowConfig(seed=1)),
        ):
            digest = changed.content_hash()
            assert digest not in seen
            seen.add(digest)

    def test_seeds_deterministic_and_distinct_per_circuit(self):
        a = Scenario(CircuitRef.iscas85("c432"), FlowConfig())
        b = Scenario(CircuitRef.iscas85("c880"), FlowConfig())
        assert a.seed == Scenario(a.circuit, a.config).seed
        assert a.seed != b.seed
        assert a.seed != Scenario(a.circuit, FlowConfig(seed=1)).seed

    def test_seed_shared_across_single_axis_ablation(self):
        """Knob sweeps on one circuit must share patterns/random streams,
        so record differences are attributable to the knob under study."""
        circuit = CircuitRef.iscas85("c432")
        base = Scenario(circuit, FlowConfig())
        for changed in (FlowConfig(delay_mode="propagated"),
                        FlowConfig(ordering="none"),
                        FlowConfig(noise_fraction=0.2)):
            assert Scenario(circuit, changed).seed == base.seed

    def test_round_trip(self):
        scenario = Scenario(CircuitRef.iscas85("c880"),
                            FlowConfig(ordering="random"))
        assert Scenario.from_dict(scenario.canonical_dict()) == scenario


class TestSweepSpec:
    def test_expansion_is_full_cross_product(self):
        spec = SweepSpec(
            circuits=(CircuitRef.iscas85("c432"), CircuitRef.iscas85("c880")),
            orderings=("woss", "none"),
            delay_modes=("own", "none", "propagated"),
        )
        scenarios = spec.scenarios()
        assert len(spec) == 12 == len(scenarios)
        assert len({s.content_hash() for s in scenarios}) == 12
        # circuits vary outermost, so the stream covers c432 first
        assert all(s.circuit.name == "c432" for s in scenarios[:6])

    def test_expansion_order_stable(self):
        spec = SweepSpec(circuits=(CircuitRef.iscas85("c432"),),
                         orderings=("woss", "greedy2"),
                         noise_fractions=(0.1, 0.05))
        assert ([s.content_hash() for s in spec.scenarios()]
                == [s.content_hash() for s in spec.scenarios()])

    def test_base_config_threads_through(self):
        spec = SweepSpec(circuits=(CircuitRef.iscas85("c432"),),
                         base=FlowConfig(n_patterns=32, max_iterations=50))
        scenario = spec.scenarios()[0]
        assert scenario.config.n_patterns == 32
        assert scenario.config.max_iterations == 50

    def test_empty_axes_rejected(self):
        with pytest.raises(ValidationError):
            SweepSpec(circuits=())
        with pytest.raises(ValidationError):
            SweepSpec(circuits=(CircuitRef.iscas85("c432"),), orderings=())


class TestSweepSpecWire:
    """The HTTP submission schema: canonical form, hash, from_dict."""

    def _spec(self):
        return SweepSpec(
            circuits=(CircuitRef.random(12, 4, 2, seed=0, target_depth=5),),
            orderings=("woss", "none"),
            base=FlowConfig(n_patterns=32, max_iterations=50),
        )

    def test_canonical_round_trip(self):
        spec = self._spec()
        clone = SweepSpec.from_dict(json.loads(spec.canonical_json()))
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_normalization_collapses_spellings(self):
        spec = self._spec()
        respelled = SweepSpec.from_dict({
            "circuits": [c.canonical_dict() for c in spec.circuits],
            "orderings": ["woss", "none"],
            "base": {"n_patterns": 32, "max_iterations": 50},
        })
        assert respelled.content_hash() == spec.content_hash()
        # Spec strings are accepted where canonical dicts are.
        named = SweepSpec.from_dict({"circuits": ["c432"]})
        assert named.circuits[0] == CircuitRef.iscas85("c432")

    def test_junk_rejected(self):
        good = self._spec().canonical_dict()
        for mutate in (
            lambda d: d.pop("circuits"),
            lambda d: d.update(circuits=[]),
            lambda d: d.update(circuits=[42]),
            lambda d: d.update(surprise=1),
            lambda d: d.update(orderings="woss"),
            lambda d: d.update(orderings=["no-such-ordering"]),
            lambda d: d.update(miller_modes=["junk"]),
            lambda d: d.update(coupling_orders=[2.5]),
            lambda d: d.update(delay_slacks=["NaN"]),
            lambda d: d.update(base={"bogus_knob": 3}),
        ):
            data = json.loads(json.dumps(good))
            mutate(data)
            with pytest.raises(ValidationError):
                SweepSpec.from_dict(data)

    def test_hash_differs_when_sweep_differs(self):
        spec = self._spec()
        other = SweepSpec.from_dict(dict(spec.canonical_dict(),
                                         noise_fractions=[0.12]))
        assert other.content_hash() != spec.content_hash()
