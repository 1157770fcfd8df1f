"""CouplingSet evaluation (the sizing engine's coupling arrays)."""

import numpy as np
import pytest

from repro.circuit.components import NodeKind
from repro.geometry import ChannelLayout, CouplingPair
from repro.noise import CouplingSet, MillerMode, SimilarityAnalyzer
from repro.noise.coupling import coupling_capacitance_taylor
from repro.noise.crosstalk import CouplingTerms
from repro.noise.miller import miller_weight
from repro.simulate import simulate_levelized
from repro.utils.errors import GeometryError

from oracles.lrs import node_sums, slope_sums


def two_pair_set(order=2, weights=(1.0, 1.0)):
    pairs = [
        CouplingPair(i=1, j=2, overlap=100.0, distance=2.0, unit_fringe=0.5),
        CouplingPair(i=2, j=3, overlap=80.0, distance=2.0, unit_fringe=0.5),
    ]
    return CouplingSet(5, pairs, weights=np.array(weights), order=order)


def node_terms(cs, x, gamma, node_caps=False):
    """``node_terms_batch`` at width one, as fresh 1-D arrays."""
    terms = cs.node_terms_batch(x[:, None], np.array([gamma]),
                                node_caps=node_caps)
    return CouplingTerms(*(None if a is None else a[:, 0].copy()
                           for a in terms))


class TestEvaluation:
    def test_pair_caps_match_scalar_model(self):
        cs = two_pair_set()
        x = np.array([0.0, 1.0, 2.0, 0.5, 0.0])
        caps = cs.pair_caps(x)
        for p in range(2):
            i, j = cs.pair_i[p], cs.pair_j[p]
            expected = coupling_capacitance_taylor(
                cs.ctilde[p], x[i], x[j], cs.distance[p], order=2)
            assert caps[p] == pytest.approx(expected)

    def test_total_is_sum(self):
        cs = two_pair_set()
        x = np.ones(5)
        assert cs.total(x) == pytest.approx(np.sum(cs.pair_caps(x)))

    def test_exact_total_exceeds_taylor(self):
        cs = two_pair_set()
        x = np.full(5, 0.5)
        assert cs.total(x, exact=True) > cs.total(x)

    def test_weights_scale_linearly(self):
        x = np.ones(5)
        base = two_pair_set(weights=(1.0, 1.0)).total(x)
        doubled = two_pair_set(weights=(2.0, 2.0)).total(x)
        assert doubled == pytest.approx(2 * base)

    def test_zero_weight_pairs_dropped(self):
        cs = two_pair_set(weights=(1.0, 0.0))
        assert cs.num_pairs == 1

    def test_empty_set(self):
        cs = CouplingSet.empty(10)
        assert cs.total(np.ones(10)) == 0.0
        terms = node_terms(cs, np.ones(10), 0.0)
        assert not terms.cap_sum.any() and not terms.dx_sum.any()


class TestNodeSums:
    def test_order2_matches_paper_constants(self):
        """For k=2: cap_sum_i = Σ(~c + ĉ·x_j), dx_sum_i = Σ ĉ."""
        cs = two_pair_set(order=2)
        x = np.array([0.0, 1.5, 0.7, 2.0, 0.0])
        cap_sum, dx_sum, _, _ = node_terms(cs, x, 0.0)
        # Node 1 touches pair 0 only.
        assert dx_sum[1] == pytest.approx(cs.chat[0])
        assert cap_sum[1] == pytest.approx(cs.ctilde[0] + cs.chat[0] * x[2])
        # Node 2 touches both pairs.
        assert dx_sum[2] == pytest.approx(cs.chat[0] + cs.chat[1])
        assert cap_sum[2] == pytest.approx(
            cs.ctilde[0] + cs.chat[0] * x[1] + cs.ctilde[1] + cs.chat[1] * x[3])

    def test_dx_sum_matches_numeric_gradient_any_order(self):
        for order in (2, 3, 4):
            cs = two_pair_set(order=order)
            x = np.array([0.0, 1.2, 0.9, 1.7, 0.0])
            dx_sum = node_terms(cs, x, 0.0).dx_sum
            h = 1e-7
            for node in (1, 2, 3):
                xp, xm = x.copy(), x.copy()
                xp[node] += h
                xm[node] -= h
                numeric = (cs.total(xp) - cs.total(xm)) / (2 * h)
                assert dx_sum[node] == pytest.approx(numeric, rel=1e-5)

    def test_cap_sum_is_coupling_minus_own_linear_part(self):
        for order in (2, 3):
            cs = two_pair_set(order=order)
            x = np.array([0.0, 1.2, 0.9, 1.7, 0.0])
            cap_sum, dx_sum, _, _ = node_terms(cs, x, 0.0)
            caps_by_node = cs.node_coupling_caps(x)
            np.testing.assert_allclose(cap_sum, caps_by_node - x * dx_sum)

    def test_node_coupling_caps_counts_both_endpoints(self):
        cs = two_pair_set()
        x = np.ones(5)
        caps = cs.pair_caps(x)
        by_node = cs.node_coupling_caps(x)
        assert by_node[1] == pytest.approx(caps[0])
        assert by_node[2] == pytest.approx(caps[0] + caps[1])
        assert by_node[3] == pytest.approx(caps[1])


class TestFromLayout:
    def test_similarity_weighted_build(self, small_circuit):
        ana = SimilarityAnalyzer(small_circuit, n_patterns=64, seed=0)
        layout = ChannelLayout.from_levels(small_circuit)
        cs = CouplingSet.from_layout(layout, ana, MillerMode.SIMILARITY)
        assert cs.num_nodes == small_circuit.num_nodes
        assert np.all(cs.weight >= 0) and np.all(cs.weight <= 2.0 + 1e-9)

    def test_worst_mode_weights_are_two(self, small_circuit):
        layout = ChannelLayout.from_levels(small_circuit)
        cs = CouplingSet.from_layout(layout, mode=MillerMode.WORST)
        np.testing.assert_allclose(cs.weight, 2.0)

    def test_worst_dominates_similarity(self, small_circuit):
        ana = SimilarityAnalyzer(small_circuit, n_patterns=64, seed=0)
        layout = ChannelLayout.from_levels(small_circuit)
        sim = CouplingSet.from_layout(layout, ana, MillerMode.SIMILARITY)
        worst = CouplingSet.from_layout(layout, mode=MillerMode.WORST)
        x = small_circuit.compile().default_sizes(1.0)
        assert worst.total(x) >= sim.total(x)

    def test_each_pair_owned_by_its_smaller_index(self, small_circuit,
                                                  small_coupling):
        """A pair of neighbouring wires is stored once, under ``i < j``:
        wire ``i`` owns it when noise is summed per victim (X_B)."""
        i, j = small_coupling.pair_i, small_coupling.pair_j
        assert small_coupling.num_pairs > 0
        assert (i < j).all()
        assert len(set(zip(i.tolist(), j.tolist()))) == \
            small_coupling.num_pairs
        assert (small_circuit.kind[i] == NodeKind.WIRE).all()
        assert (small_circuit.kind[j] == NodeKind.WIRE).all()

    def test_owned_noise_sums_to_the_total(self, small_circuit,
                                           small_coupling):
        x = small_circuit.compile().default_sizes(1.0)
        caps = small_coupling.pair_caps(x)
        assert (caps >= 0).all()
        owned = np.bincount(small_coupling.pair_i, weights=caps,
                            minlength=small_coupling.num_nodes)
        assert owned.sum() == pytest.approx(small_coupling.total(x),
                                            rel=1e-12)

    def test_similarity_mode_requires_analyzer(self, small_circuit):
        layout = ChannelLayout.from_levels(small_circuit)
        with pytest.raises(GeometryError):
            CouplingSet.from_layout(layout, analyzer=None,
                                    mode=MillerMode.SIMILARITY)

    @pytest.mark.parametrize("n_patterns", [1, 48, 64, 100, 257, 16384])
    @pytest.mark.parametrize("mode", list(MillerMode))
    def test_weights_equal_signed_mean_oracle(self, small_circuit, mode,
                                              n_patterns):
        """Similarity from Hamming counts, ``(P − 2h)/P``, is bit-identical
        to the mean of the per-pattern ``±1`` products."""
        pats = np.random.default_rng(n_patterns).random(
            (n_patterns, small_circuit.num_drivers)) < 0.5
        ana = SimilarityAnalyzer(small_circuit, patterns=pats)
        layout = ChannelLayout.from_levels(small_circuit)
        pairs = layout.coupling_pairs()
        signed = np.where(simulate_levelized(small_circuit, pats), 1.0, -1.0)
        i = np.array([p.i for p in pairs], dtype=np.int64)
        j = np.array([p.j for p in pairs], dtype=np.int64)
        oracle = CouplingSet(
            small_circuit.num_nodes, pairs,
            weights=miller_weight(np.mean(signed[i] * signed[j], axis=1),
                                  mode))
        cs = CouplingSet.from_layout(layout, ana, mode)
        for name in ("pair_i", "pair_j", "weight", "ctilde", "chat"):
            np.testing.assert_array_equal(getattr(cs, name),
                                          getattr(oracle, name))


class TestValidation:
    def test_order_below_two_rejected(self):
        with pytest.raises(GeometryError):
            two_pair_set(order=1)

    def test_negative_weight_rejected(self):
        with pytest.raises(GeometryError):
            two_pair_set(weights=(-0.5, 1.0))

    def test_weight_shape_checked(self):
        pairs = [CouplingPair(i=1, j=2, overlap=1.0, distance=1.0, unit_fringe=1.0)]
        with pytest.raises(GeometryError):
            CouplingSet(5, pairs, weights=np.ones(3))

    def test_endpoint_range_checked(self):
        pairs = [CouplingPair(i=1, j=9, overlap=1.0, distance=1.0, unit_fringe=1.0)]
        with pytest.raises(GeometryError):
            CouplingSet(5, pairs)


class TestNodeTerms:
    """Fused node_terms_batch at width one vs the separate node_sums /
    slope_sums oracles."""

    def _random_sizes(self, cs, seed=0):
        rng = np.random.default_rng(seed)
        x = np.zeros(cs.num_nodes)
        x[1:4] = rng.uniform(0.2, 1.5, 3)
        return x

    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_matches_separate_sums_scalar_gamma(self, order):
        cs = two_pair_set(order=order)
        x = self._random_sizes(cs)
        gamma = 0.37
        terms = node_terms(cs, x, gamma)
        cap_sum, dx_sum = node_sums(cs, x)
        np.testing.assert_allclose(terms.cap_sum, cap_sum,
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(terms.dx_sum, dx_sum,
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(terms.gamma_slopes,
                                   slope_sums(cs, x, gamma),
                                   rtol=1e-12, atol=1e-15)
        assert terms.node_caps is None

    @pytest.mark.parametrize("order", [2, 4])
    def test_matches_separate_sums_per_column_gamma(self, order):
        """Each of K columns carries its own sizes and its own γ."""
        cs = two_pair_set(order=order)
        xs = [self._random_sizes(cs, seed=seed) for seed in (3, 4, 5)]
        gammas = np.array([0.01, 0.2, 0.4])
        terms = cs.node_terms_batch(np.column_stack(xs), gammas)
        assert terms.gamma_slopes.shape == (cs.num_nodes, len(xs))
        for j, (x, gamma) in enumerate(zip(xs, gammas)):
            cap_sum, dx_sum = node_sums(cs, x)
            np.testing.assert_allclose(terms.cap_sum[:, j], cap_sum,
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(terms.dx_sum[:, j], dx_sum,
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(terms.gamma_slopes[:, j],
                                       slope_sums(cs, x, gamma),
                                       rtol=1e-12, atol=1e-15)

    def test_gamma_slopes_scale_dx_sum_on_a_layout(self, small_coupling, rng):
        """On a real layout the slopes are γ times the dx sums, bit for
        bit."""
        x = rng.uniform(0.1, 3.0, small_coupling.num_nodes)
        terms = node_terms(small_coupling, x, 0.7)
        assert terms.gamma_slopes.tobytes() == (0.7 * terms.dx_sum).tobytes()
        _, dx_sum = node_sums(small_coupling, x)
        np.testing.assert_allclose(terms.dx_sum, dx_sum,
                                   rtol=1e-12, atol=1e-15)

    def test_node_caps_ride_along(self):
        cs = two_pair_set()
        x = self._random_sizes(cs, seed=5)
        terms = node_terms(cs, x, 0.1, node_caps=True)
        np.testing.assert_allclose(terms.node_caps,
                                   cs.node_coupling_caps(x),
                                   rtol=1e-12, atol=1e-15)

    def test_scratch_reuse_is_consistent(self):
        """Repeated calls through the shared scratch stay correct."""
        cs = two_pair_set(order=3)
        for seed in range(4):
            x = self._random_sizes(cs, seed=seed)
            terms = node_terms(cs, x, 0.2)
            cap_sum, dx_sum = node_sums(cs, x)
            np.testing.assert_allclose(terms.cap_sum, cap_sum,
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(terms.dx_sum, dx_sum,
                                       rtol=1e-12, atol=1e-15)

    def test_empty_set_returns_zeros(self):
        cs = CouplingSet.empty(6)
        terms = node_terms(cs, np.ones(6), 0.5, node_caps=True)
        assert not terms.cap_sum.any() and not terms.dx_sum.any()
        assert not terms.gamma_slopes.any() and not terms.node_caps.any()


class TestTotalsBatch:
    """Batched column totals must be bitwise-equal to scalar total()."""

    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_bitwise_equals_scalar_total(self, order):
        cs = two_pair_set(order=order)
        rng = np.random.default_rng(7)
        x_cols = np.zeros((cs.num_nodes, 4))
        x_cols[1:4] = rng.uniform(0.2, 1.5, (3, 4))
        x_cols = np.ascontiguousarray(x_cols)
        totals = cs.totals_batch(x_cols)
        for j in range(4):
            assert totals[j] == cs.total(np.ascontiguousarray(x_cols[:, j]))

    def test_on_real_layout(self, small_circuit, small_coupling):
        rng = np.random.default_rng(8)
        n = small_coupling.num_nodes
        x_cols = np.ascontiguousarray(rng.uniform(0.3, 2.0, (n, 3)))
        totals = small_coupling.totals_batch(x_cols)
        for j in range(3):
            assert totals[j] == small_coupling.total(
                np.ascontiguousarray(x_cols[:, j]))

    def test_empty_set(self):
        cs = CouplingSet.empty(6)
        np.testing.assert_array_equal(
            cs.totals_batch(np.ones((6, 5))), np.zeros(5))
