"""Posynomial objects and the structural convexity claim."""

import numpy as np
import pytest

from repro.geometry import ChannelLayout
from repro.noise import CouplingSet, MillerMode, SimilarityAnalyzer
from repro.timing import ElmoreEngine
from repro.utils.errors import ValidationError

from oracles.posynomial import Monomial, Posynomial, build_problem_posynomials


class TestMonomial:
    def test_evaluate(self):
        m = Monomial.make(3.0, {"x": 2, "y": -1})
        assert m.evaluate({"x": 2.0, "y": 4.0}) == pytest.approx(3.0)

    def test_zero_exponents_dropped(self):
        m = Monomial.make(1.0, {"x": 0, "y": 1})
        assert m.variables() == {"y"}

    def test_positive_coefficient_required(self):
        with pytest.raises(ValidationError):
            Monomial.make(0.0)
        with pytest.raises(ValidationError):
            Monomial.make(-2.0, {"x": 1})


class TestPosynomial:
    def test_sum_and_scale(self):
        p = Posynomial([Monomial.make(1.0, {"x": 1}), Monomial.make(2.0)])
        assert p.evaluate({"x": 3.0}) == pytest.approx(5.0)
        assert p.scale(2.0).evaluate({"x": 3.0}) == pytest.approx(10.0)

    def test_add(self):
        p = Posynomial.constant(1.0).add(Monomial.make(1.0, {"x": 1}))
        assert len(p) == 2
        assert p.variables() == {"x"}

    def test_log_convexity_numerically(self):
        """Posynomials are convex in y = log x: check midpoint convexity
        on random segments."""
        rng = np.random.default_rng(0)
        p = Posynomial([
            Monomial.make(0.5, {"a": 1}),
            Monomial.make(2.0, {"a": -1, "b": 1}),
            Monomial.make(0.1, {"b": 2}),
        ])
        for _ in range(50):
            y1 = {v: rng.uniform(-2, 2) for v in ("a", "b")}
            y2 = {v: rng.uniform(-2, 2) for v in ("a", "b")}
            mid = {v: 0.5 * (y1[v] + y2[v]) for v in ("a", "b")}
            lhs = np.log(p.evaluate_log(mid))
            rhs = 0.5 * (np.log(p.evaluate_log(y1)) + np.log(p.evaluate_log(y2)))
            assert lhs <= rhs + 1e-9

    def test_scale_validation(self):
        with pytest.raises(ValidationError):
            Posynomial.constant(1.0).scale(-1.0)


class TestProblemAssembly:
    @pytest.fixture(scope="class")
    def assembled(self, small_circuit, small_coupling):
        return small_circuit, small_coupling, build_problem_posynomials(
            small_circuit, small_coupling)

    def test_everything_is_posynomial(self, assembled):
        _, _, posy = assembled
        assert posy["area"].is_posynomial()
        assert posy["power"].is_posynomial()
        assert posy["crosstalk"].is_posynomial()
        assert all(d.is_posynomial() for d in posy["delays"].values())

    def test_area_matches_engine(self, assembled, rng):
        circuit, _, posy = assembled
        cc = circuit.compile()
        x = cc.default_sizes(1.0)
        x[cc.is_sizable] = rng.uniform(0.2, 3.0, int(cc.is_sizable.sum()))
        env = {f"x{i}": x[i] for i in range(cc.num_nodes) if cc.is_sizable[i]}
        from repro.timing.metrics import total_area

        assert posy["area"].evaluate(env) == pytest.approx(total_area(cc, x))

    def test_power_matches_engine(self, assembled, rng):
        circuit, _, posy = assembled
        cc = circuit.compile()
        x = cc.default_sizes(1.0)
        x[cc.is_sizable] = rng.uniform(0.2, 3.0, int(cc.is_sizable.sum()))
        env = {f"x{i}": x[i] for i in range(cc.num_nodes) if cc.is_sizable[i]}
        from repro.timing.metrics import total_capacitance

        assert posy["power"].evaluate(env) == pytest.approx(
            total_capacitance(cc, x))

    def test_crosstalk_matches_coupling_set(self, assembled, rng):
        circuit, coupling, posy = assembled
        cc = circuit.compile()
        x = cc.default_sizes(1.0)
        x[cc.is_sizable] = rng.uniform(0.2, 3.0, int(cc.is_sizable.sum()))
        env = {f"x{i}": x[i] for i in range(cc.num_nodes)}
        assert posy["crosstalk"].evaluate(env) == pytest.approx(
            coupling.total(x), rel=1e-10)

    def test_delays_match_engine(self, assembled, rng):
        circuit, coupling, posy = assembled
        cc = circuit.compile()
        engine = ElmoreEngine(cc, coupling)
        x = cc.default_sizes(1.0)
        x[cc.is_sizable] = rng.uniform(0.2, 3.0, int(cc.is_sizable.sum()))
        env = {f"x{i}": x[i] for i in range(cc.num_nodes)}
        delays = engine.delays(x)
        for node in circuit.components():
            assert posy["delays"][node.index].evaluate(env) == pytest.approx(
                delays[node.index], rel=1e-10)

    def test_higher_order_crosstalk_still_posynomial(self, small_circuit):
        ana = SimilarityAnalyzer(small_circuit, n_patterns=32, seed=0)
        cs = CouplingSet.from_layout(ChannelLayout.from_levels(small_circuit),
                                     ana, MillerMode.SIMILARITY, order=4)
        posy = build_problem_posynomials(small_circuit, cs)
        assert posy["crosstalk"].is_posynomial()
        cc = small_circuit.compile()
        x = cc.default_sizes(0.7)
        env = {f"x{i}": x[i] for i in range(cc.num_nodes)}
        assert posy["crosstalk"].evaluate(env) == pytest.approx(
            cs.total(x), rel=1e-10)

    def test_component_guard(self, small_circuit, small_coupling):
        with pytest.raises(ValidationError):
            build_problem_posynomials(small_circuit, small_coupling,
                                      max_components=3)
