"""Declarative scenario specs: validation, canonical form, expansion."""

import dataclasses
import json

import pytest

from repro.circuit.parser import builtin_bench_path
from repro.runtime import CircuitRef, FlowConfig, Scenario, SweepSpec
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
        with pytest.raises((ValidationError, ValueError)):
            FlowConfig(**bad)

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


class TestScenario:
    def test_label_and_hash(self):
        scenario = Scenario(CircuitRef.iscas85("c432"), FlowConfig())
        assert scenario.label == "c432/woss/own/similarity"
        assert scenario.content_hash() == scenario.content_hash()

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
