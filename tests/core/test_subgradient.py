"""Multiplier updates (Fig. 9 step A4)."""

import numpy as np
import pytest

from oracles import a4
from repro.core import (
    MultiplierState,
    MultiplicativeUpdate,
    SizingProblem,
    SubgradientUpdate,
)
from repro.core.subgradient import UPDATE_RULES, edge_timing_terms
from repro.timing import ElmoreEngine

ORACLES = {MultiplicativeUpdate: a4.multiplicative,
           SubgradientUpdate: a4.subgradient}


class TestSteps:
    @pytest.mark.parametrize("rule", [MultiplicativeUpdate, SubgradientUpdate])
    def test_paper_conditions(self, rule):
        """μ_k → 0 and Σ μ_k → ∞ (checked on a long prefix)."""
        steps = [rule.step(k) for k in range(1, 5001)]
        assert steps[-1] < steps[0] / 10
        assert all(a > b for a, b in zip(steps, steps[1:]))
        assert sum(steps) > 8.0

    @pytest.mark.parametrize("rule", [MultiplicativeUpdate, SubgradientUpdate])
    def test_step_arithmetic(self, rule):
        """The fixed sequences, spelled as the one-column oracle spells
        them (``3/k^0.3`` and ``1/√k``); k < 1 counts as the first step."""
        spell = {MultiplicativeUpdate: lambda k: 3.0 / k ** 0.3,
                 SubgradientUpdate: lambda k: 1.0 / np.sqrt(k)}[rule]
        for k in (1, 2, 3, 10, 60, 299, 2380):
            assert rule.step(k) == spell(k)
        assert rule.step(0) == rule.step(-4) == rule.step(1)

    def test_rules_registered_by_name(self):
        assert UPDATE_RULES == {"multiplicative": MultiplicativeUpdate,
                                "subgradient": SubgradientUpdate}
        for name, rule in UPDATE_RULES.items():
            assert rule.name == name


@pytest.fixture(scope="module")
def setting(small_circuit, small_coupling):
    cc = small_circuit.compile()
    engine = ElmoreEngine(cc, small_coupling)
    x = cc.default_sizes(1.0)
    delays = engine.delays(x)
    arrival = engine.arrival_times(delays)
    problem = SizingProblem(delay_bound_ps=float(arrival[cc.sink]),
                            noise_bound_ff=100.0, power_cap_bound_ff=1000.0)
    return cc, engine, arrival, delays, problem


class TestEdgeTerms:
    def test_internal_edges_nonpositive_with_exact_arrivals(self, setting):
        cc, _, arrival, delays, problem = setting
        residual, _ = edge_timing_terms(cc, arrival, delays,
                                        problem.delay_bound_ps)
        internal = cc.edge_dst != cc.sink
        assert np.all(residual[internal] <= 1e-9)

    def test_critical_edges_have_zero_residual(self, setting):
        cc, _, arrival, delays, problem = setting
        residual, _ = edge_timing_terms(cc, arrival, delays,
                                        problem.delay_bound_ps)
        # Every node's arrival is defined by at least one tight in-edge.
        tight_per_node = np.zeros(cc.num_nodes, dtype=bool)
        for e in range(cc.num_edges):
            if abs(residual[e]) < 1e-9:
                tight_per_node[cc.edge_dst[e]] = True
        comp = cc.is_sizable | cc.is_driver
        assert np.all(tight_per_node[comp])

    def test_sink_edges_measure_bound_violation(self, setting):
        cc, _, arrival, delays, problem = setting
        half_bound = problem.delay_bound_ps / 2
        residual, reference = edge_timing_terms(cc, arrival, delays, half_bound)
        on_sink = cc.edge_dst == cc.sink
        src = cc.edge_src[on_sink]
        np.testing.assert_allclose(residual[on_sink], arrival[src] - half_bound)
        np.testing.assert_allclose(reference[on_sink], half_bound)

    @pytest.mark.parametrize("width", [None, 3])
    def test_inputs_left_untouched(self, setting, width):
        """The in-place steps write only into the gathered copies."""
        cc, _, arrival, delays, problem = setting
        bound = problem.delay_bound_ps
        if width is not None:
            arrival = np.column_stack([arrival * (1 + 0.1 * j)
                                       for j in range(width)])
            delays = np.column_stack([delays] * width)
            bound = np.full(width, bound)
        before = arrival.copy(), delays.copy()
        residual, reference = edge_timing_terms(cc, arrival, delays, bound)
        assert arrival.tobytes() == before[0].tobytes()
        assert delays.tobytes() == before[1].tobytes()
        assert not np.shares_memory(residual, arrival)
        assert not np.shares_memory(reference, arrival)


def _apply(update, mult, k, arrival, delays, problem, power_cap, noise):
    """``update`` on one scenario: a batch of width one."""
    [mu] = update.apply_batch([mult], [k], arrival[:, None], delays[:, None],
                              [problem], [power_cap], [noise])
    return mu


class TestUpdates:
    def _apply(self, update, setting, beta0=0.1, gamma0=0.1,
               power_cap=2000.0, noise=50.0):
        cc, _, arrival, delays, problem = setting
        mult = MultiplierState.initial(cc, beta=beta0, gamma=gamma0)
        before = mult.lam_edge.copy()
        _apply(update, mult, 1, arrival, delays, problem, power_cap, noise)
        return mult, before

    def test_subgradient_nonnegative_after_update(self, setting):
        mult, _ = self._apply(SubgradientUpdate(), setting)
        assert np.all(mult.lam_edge >= 0)
        assert mult.beta >= 0 and mult.gamma >= 0

    def test_subgradient_beta_direction(self, setting):
        # power over bound (2000 > 1000) -> β grows; under -> shrinks.
        over, _ = self._apply(SubgradientUpdate(), setting, power_cap=2000.0)
        under, _ = self._apply(SubgradientUpdate(), setting, power_cap=500.0)
        assert over.beta > 0.1
        assert under.beta < 0.1

    def test_multiplicative_gamma_direction(self, setting):
        over, _ = self._apply(MultiplicativeUpdate(), setting, noise=200.0)
        under, _ = self._apply(MultiplicativeUpdate(), setting, noise=50.0)
        assert over.gamma > 0.1
        assert under.gamma < 0.1

    def test_multiplicative_keeps_positive_lambda_positive(self, setting):
        mult, before = self._apply(MultiplicativeUpdate(), setting)
        positive = before > 0
        assert np.all(mult.lam_edge[positive] > 0)

    def test_multiplicative_ratio_clipped(self, setting):
        """Huge violations step β and γ by at most ``RATIO_CLIP ** μ``."""
        mult, _ = self._apply(MultiplicativeUpdate(), setting, beta0=1.0,
                              gamma0=1.0, power_cap=1e9, noise=1e9)
        bound = MultiplicativeUpdate.RATIO_CLIP ** MultiplicativeUpdate.step(1)
        assert mult.beta <= bound * (1 + 1e-12)
        assert mult.gamma <= bound * (1 + 1e-12)

    def test_noncritical_edges_decay(self, setting):
        """Edges with slack lose multiplier mass under both rules."""
        cc, _, arrival, delays, problem = setting
        residual, reference = edge_timing_terms(cc, arrival, delays,
                                                problem.delay_bound_ps)
        slack_edges = np.flatnonzero(residual < -1e-6)
        if not len(slack_edges):
            pytest.skip("no slack edges in this circuit")
        for update in (SubgradientUpdate(), MultiplicativeUpdate()):
            mult = MultiplierState.initial(cc, beta=0.1, gamma=0.1)
            before = mult.lam_edge.copy()
            _apply(update, mult, 1, arrival, delays, problem, 500.0, 50.0)
            changed = mult.lam_edge[slack_edges] <= before[slack_edges] + 1e-12
            assert np.all(changed)

    @pytest.mark.parametrize("rule", [MultiplicativeUpdate, SubgradientUpdate])
    def test_tight_constraints_are_fixed_points(self, setting, rule):
        """Zero residuals leave λ, β and γ unchanged to the bit, so both
        rules share their fixed points."""
        cc, _, arrival, delays, problem = setting
        residual, _ = edge_timing_terms(cc, arrival, delays,
                                        problem.delay_bound_ps)
        tight = residual == 0.0
        assert tight[cc.sink_in_edges].any()
        mult = MultiplierState.initial(cc, beta=0.1, gamma=0.2)
        before = mult.copy()
        _apply(rule(), mult, 4, arrival, delays, problem,
               problem.power_cap_bound_ff, problem.noise_bound_ff)
        assert mult.lam_edge[tight].tobytes() == \
            before.lam_edge[tight].tobytes()
        assert mult.beta == before.beta and mult.gamma == before.gamma

    def test_subgradient_scale_floor_on_zero_multipliers(self, setting):
        """From λ = β = γ = 0 the step scale is the floor, so only
        violated constraints gain multiplier mass."""
        cc, _, arrival, delays, problem = setting
        half = SizingProblem(delay_bound_ps=problem.delay_bound_ps / 2,
                             noise_bound_ff=problem.noise_bound_ff,
                             power_cap_bound_ff=problem.power_cap_bound_ff)
        mult = MultiplierState(cc)
        mu = _apply(SubgradientUpdate(), mult, 1, arrival, delays, half,
                    2 * half.power_cap_bound_ff, half.noise_bound_ff / 2)
        floor = SubgradientUpdate.SCALE_FLOOR
        residual, reference = edge_timing_terms(cc, arrival, delays,
                                                half.delay_bound_ps)
        np.testing.assert_allclose(
            mult.lam_edge, np.maximum(0.0, mu * floor * residual / reference),
            rtol=1e-15, atol=0.0)
        assert np.all(mult.lam_edge[residual <= 0] == 0.0)
        assert mult.lam_edge[cc.sink_in_edges].max() > 0
        assert mult.beta == mu * floor * (2.0 - 1.0)
        assert mult.gamma == 0.0


class TestBatchedA4:
    """apply_batch column j must be bit-identical to the one-column oracle."""

    def _columns(self, setting, K, seed=0):
        """K perturbed (arrival, delays, mult, problem, caps) scenarios."""
        cc, engine, arrival, delays, problem = setting
        rng = np.random.default_rng(seed)
        cols = []
        for j in range(K):
            f = 1.0 + 0.1 * rng.random()
            cols.append(dict(
                arrival=arrival * f, delays=delays * f,
                mult=MultiplierState.initial(cc, beta=0.1 + 0.01 * j,
                                             gamma=0.1 + 0.02 * j),
                problem=SizingProblem(
                    delay_bound_ps=problem.delay_bound_ps * (1.0 + 0.05 * j),
                    noise_bound_ff=100.0 + j,
                    power_cap_bound_ff=1000.0 + 10 * j),
                power_cap=1500.0 + 100 * j, noise=40.0 + 5 * j, k=j + 1))
        return cols

    @pytest.mark.parametrize("rule", [SubgradientUpdate, MultiplicativeUpdate])
    @pytest.mark.parametrize("K", [1, 3, 8])
    def test_bitwise_equals_oracle(self, setting, rule, K):
        cols = self._columns(setting, K)
        oracle_mults = [c["mult"].copy() for c in cols]
        oracle_mus = [ORACLES[rule](
            m, c["k"], c["arrival"], c["delays"], c["problem"],
            power_cap=c["power_cap"], noise=c["noise"])
            for m, c in zip(oracle_mults, cols)]

        batch_mults = [c["mult"].copy() for c in cols]
        mus = rule().apply_batch(
            batch_mults, [c["k"] for c in cols],
            np.column_stack([c["arrival"] for c in cols]),
            np.column_stack([c["delays"] for c in cols]),
            [c["problem"] for c in cols],
            [c["power_cap"] for c in cols],
            [c["noise"] for c in cols])

        assert mus == oracle_mus
        for s, b in zip(oracle_mults, batch_mults):
            assert s.lam_edge.tobytes() == b.lam_edge.tobytes()
            assert s.beta == b.beta and s.gamma == b.gamma
            assert b.lam_edge.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("rule", [SubgradientUpdate, MultiplicativeUpdate])
    @pytest.mark.parametrize("K", [2, 5])
    def test_column_independent_of_its_batch(self, setting, rule, K):
        """A column steps the same alone, through a strided view of a
        wider stack, as it does among K columns."""
        cols = self._columns(setting, K, seed=7)
        arrival = np.column_stack([c["arrival"] for c in cols])
        delays = np.column_stack([c["delays"] for c in cols])
        together = [c["mult"].copy() for c in cols]
        mus = rule().apply_batch(
            together, [c["k"] for c in cols], arrival, delays,
            [c["problem"] for c in cols], [c["power_cap"] for c in cols],
            [c["noise"] for c in cols])
        for j, c in enumerate(cols):
            alone = c["mult"].copy()
            [mu] = rule().apply_batch(
                [alone], [c["k"]], arrival[:, j:j + 1], delays[:, j:j + 1],
                [c["problem"]], [c["power_cap"]], [c["noise"]])
            assert mu == mus[j]
            assert alone.lam_edge.tobytes() == together[j].lam_edge.tobytes()
            assert alone.beta == together[j].beta
            assert alone.gamma == together[j].gamma

    def test_edge_terms_batch_matches_oracle(self, setting):
        cc, _, arrival, delays, problem = setting
        bounds = [problem.delay_bound_ps, problem.delay_bound_ps / 2]
        arr = np.column_stack([arrival, arrival * 1.1])
        del_ = np.column_stack([delays, delays * 1.1])
        res_b, ref_b = edge_timing_terms(cc, arr, del_, np.array(bounds))
        for j, bound in enumerate(bounds):
            column = (np.ascontiguousarray(arr[:, j]),
                      np.ascontiguousarray(del_[:, j]))
            for got in (edge_timing_terms(cc, *column, bound),
                        (res_b[:, j], ref_b[:, j])):
                want = a4.edge_terms(cc, *column, bound)
                for g, w in zip(got, want):
                    assert np.ascontiguousarray(g).tobytes() == w.tobytes()
