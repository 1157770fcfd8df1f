"""Switching similarity (Sec. 3.2)."""

import numpy as np
import pytest

from repro.noise import SimilarityAnalyzer, similarity_from_values
from repro.simulate import random_patterns, simulate_levelized
from repro.utils.errors import SimulationError


class TestFromValues:
    def test_bounds_and_diagonal(self):
        rng = np.random.default_rng(0)
        values = rng.random((6, 40)) < 0.5
        s = similarity_from_values(values)
        assert np.all(s <= 1.0 + 1e-12) and np.all(s >= -1.0 - 1e-12)
        np.testing.assert_allclose(np.diag(s), 1.0)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        s = similarity_from_values(rng.random((5, 30)) < 0.5)
        np.testing.assert_allclose(s, s.T)

    def test_identical_rows_have_similarity_one(self):
        values = np.array([[1, 0, 1], [1, 0, 1]], dtype=bool)
        assert similarity_from_values(values)[0, 1] == pytest.approx(1.0)

    def test_inverted_rows_have_similarity_minus_one(self):
        values = np.array([[1, 0, 1], [0, 1, 0]], dtype=bool)
        assert similarity_from_values(values)[0, 1] == pytest.approx(-1.0)

    def test_definition_agree_minus_disagree(self):
        values = np.array([[1, 1, 0, 0], [1, 0, 0, 1]], dtype=bool)
        # 2 agreements, 2 disagreements over 4 cycles.
        assert similarity_from_values(values)[0, 1] == pytest.approx(0.0)

    def test_index_selection(self):
        values = np.array([[1, 1], [0, 0], [1, 1]], dtype=bool)
        s = similarity_from_values(values, indices=[0, 2])
        assert s.shape == (2, 2)
        assert s[0, 1] == pytest.approx(1.0)

    def test_empty_patterns_rejected(self):
        with pytest.raises(SimulationError):
            similarity_from_values(np.zeros((3, 0), dtype=bool))


class TestAnalyzer:
    def test_wire_similarity_to_driver_is_one(self, small_circuit):
        ana = SimilarityAnalyzer(small_circuit, n_patterns=64, seed=0)
        wire = small_circuit.wires()[0]
        parent = small_circuit.inputs(wire.index)[0]
        assert ana.pair(wire.index, parent) == pytest.approx(1.0)

    def test_matrix_matches_manual_computation(self, small_circuit):
        pats = random_patterns(small_circuit.num_drivers, 48, seed=9)
        ana = SimilarityAnalyzer(small_circuit, patterns=pats)
        vals = simulate_levelized(small_circuit, pats)
        idx = [w.index for w in small_circuit.wires()[:5]]
        np.testing.assert_allclose(ana.matrix(idx),
                                   similarity_from_values(vals, idx))

    def test_default_patterns_seeded(self, small_circuit):
        a = SimilarityAnalyzer(small_circuit, n_patterns=32, seed=3)
        b = SimilarityAnalyzer(small_circuit, n_patterns=32, seed=3)
        np.testing.assert_array_equal(a.patterns, b.patterns)

    def test_zero_patterns_rejected(self, small_circuit):
        """Zero patterns would make every similarity 0/0 = NaN, and NaN
        Miller weights would silently drop every coupling pair."""
        empty = np.zeros((0, small_circuit.num_drivers), dtype=bool)
        with pytest.raises(SimulationError):
            SimilarityAnalyzer(small_circuit, patterns=empty)

    def test_toggle_rate(self, small_circuit):
        ana = SimilarityAnalyzer(small_circuit, n_patterns=128, seed=0)
        rate = ana.toggle_rate(1)  # a driver
        assert 0.0 <= rate <= 1.0
        # Random patterns toggle drivers about half the time.
        assert 0.3 < rate < 0.7


class TestAnalyzerCache:
    """No per-channel cache: every accessor builds its channel fresh."""

    def _channels(self, circuit, k=3, size=4):
        wires = [w.index for w in circuit.wires()]
        return [tuple(wires[i * size:(i + 1) * size]) for i in range(k)]

    def test_matrix_repeat_is_equal(self, small_circuit):
        ana = SimilarityAnalyzer(small_circuit, n_patterns=64, seed=0)
        idx = self._channels(small_circuit, k=1)[0]
        first = ana.matrix(idx)
        second = ana.matrix(idx)
        # Built fresh each call: equal, not the same object.
        assert second is not first
        np.testing.assert_array_equal(second, first)

    def test_pair_matches_matrix(self, small_circuit):
        ana = SimilarityAnalyzer(small_circuit, n_patterns=64, seed=0)
        i, j = [w.index for w in small_circuit.wires()[:2]]
        assert ana.pair(i, j) == ana.matrix([i, j])[0, 1] == ana.pair(j, i)

    def test_accessors_keep_no_channel_state(self, small_circuit):
        """Stage-1 state is O(nodes · P): after every accessor has run,
        the analyzer still holds only its distinct rows and row index."""
        ana = SimilarityAnalyzer(small_circuit, n_patterns=64, seed=0)
        before = dict(vars(ana))
        for idx in self._channels(small_circuit):
            ana.classes(idx)
            ana.matrix(idx)
            ana.sort_keys(idx)
            ana.path_dissimilarity(idx)
            ana.pair(idx[0], idx[1])
        assert vars(ana).keys() == before.keys()
        assert all(vars(ana)[k] is v for k, v in before.items())

    def test_returned_arrays_read_only(self, small_circuit):
        ana = SimilarityAnalyzer(small_circuit, n_patterns=64, seed=0)
        idx = self._channels(small_circuit, k=1)[0]
        for arr in (ana.matrix(idx), ana.sort_keys(idx)):
            with pytest.raises(ValueError):
                arr[0, 0] = 0

    def test_sort_keys_are_twice_hamming_distance(self, small_circuit):
        ana = SimilarityAnalyzer(small_circuit, n_patterns=64, seed=0)
        idx = self._channels(small_circuit, k=1)[0]
        keys = ana.sort_keys(idx)
        assert keys.dtype == np.int16
        rows = simulate_levelized(small_circuit, ana.patterns)[np.asarray(idx)]
        for a in range(len(idx)):
            for b in range(len(idx)):
                d = int(np.sum(rows[a] != rows[b]))
                assert keys[a, b] == 2 * d
        # Exact monotone image of the weights: 1 − s = 2d / P.
        weights = 1.0 - ana.matrix(idx)
        np.testing.assert_array_equal(
            weights, keys.astype(np.float64) / ana.patterns.shape[0])

    def test_sort_keys_unavailable_above_int16_range(self, small_circuit):
        rng = np.random.default_rng(0)
        pats = rng.random((16384, small_circuit.num_drivers)) < 0.5
        ana = SimilarityAnalyzer(small_circuit, patterns=pats)
        idx = self._channels(small_circuit, k=1)[0]
        assert ana.sort_keys(idx) is None
        # The similarity matrix itself is still served.
        assert ana.matrix(idx).shape == (len(idx), len(idx))

    def test_path_dissimilarity_matches_matrix_sum(self, small_circuit):
        ana = SimilarityAnalyzer(small_circuit, n_patterns=64, seed=0)
        idx = self._channels(small_circuit, k=1, size=5)[0]
        weights = 1.0 - ana.matrix(idx)
        order = [3, 0, 4, 1, 2]
        expect = float(np.sum(weights[np.asarray(order[:-1]),
                                      np.asarray(order[1:])]))
        assert ana.path_dissimilarity(idx, order) == expect
        track = float(np.sum(np.diagonal(weights, 1)))
        assert ana.path_dissimilarity(idx) == track
        assert ana.path_dissimilarity(idx[:1]) == 0.0

    @pytest.mark.parametrize("n_patterns", [1, 48, 64, 100, 257, 16384])
    def test_f32_gram_bitwise_equals_f64(self, small_circuit, n_patterns):
        """The f32 ``±1`` Gram and the disagreement counts hold exact
        integers, so ``matrix``, ``path_dissimilarity`` and ``pair``
        carry the same bits as a float64 ±1 computation, and the
        ``int16`` keys exist exactly up to 16383 patterns."""
        pats = np.random.default_rng(n_patterns).random(
            (n_patterns, small_circuit.num_drivers)) < 0.5
        ana = SimilarityAnalyzer(small_circuit, patterns=pats)
        idx = self._channels(small_circuit, k=1, size=6)[0]
        signed = np.where(
            simulate_levelized(small_circuit, pats)[np.asarray(idx)], 1.0, -1.0)
        exact = signed @ signed.T / signed.shape[1]
        np.fill_diagonal(exact, 1.0)
        np.testing.assert_array_equal(ana.matrix(idx), exact)
        order = [4, 1, 5, 0, 3, 2]
        pairs = (np.asarray(order[:-1]), np.asarray(order[1:]))
        assert ana.path_dissimilarity(idx, order) == \
            float(np.sum(1.0 - exact[pairs]))
        assert ana.path_dissimilarity(idx) == \
            float(np.sum(1.0 - np.diagonal(exact, 1)))
        assert ana.pair(idx[4], idx[1]) == exact[4, 1]
        keys = ana.sort_keys(idx)
        assert (keys is None) == (n_patterns > 16383)

    def test_empty_group_served_without_caching(self, small_circuit):
        ana = SimilarityAnalyzer(small_circuit, n_patterns=64, seed=0)
        assert ana.matrix(()).shape == (0, 0)
