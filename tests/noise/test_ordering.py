"""Wire-ordering algorithms for the SS problem."""

import numpy as np
import pytest

from repro.noise import (
    exact_ordering,
    ordering_cost,
    random_ordering,
    two_opt_improve,
    woss_ordering,
)
from repro.noise.ordering import (
    brute_force_ordering,
    greedy_both_ends,
    woss_class_ordering,
)
from repro.utils.errors import GeometryError


def random_weights(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.random((n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return w


class TestCost:
    def test_sums_adjacent_weights(self):
        w = random_weights(4, 0)
        order = [2, 0, 3, 1]
        assert ordering_cost(order, w) == pytest.approx(
            w[2, 0] + w[0, 3] + w[3, 1])

    def test_reversal_invariant(self):
        w = random_weights(6, 1)
        order = random_ordering(6, seed=0)
        assert ordering_cost(order, w) == pytest.approx(
            ordering_cost(order[::-1], w))

    def test_non_permutation_rejected(self):
        with pytest.raises(GeometryError):
            ordering_cost([0, 0, 1], random_weights(3, 0))


class TestWoss:
    def test_returns_permutation(self):
        for n in (1, 2, 3, 8, 15):
            order = woss_ordering(random_weights(n, n))
            assert sorted(order) == list(range(n))

    def test_starts_with_global_minimum_edge(self):
        """Fig. 7 step A1: the first two tracks carry the min-weight edge."""
        w = random_weights(7, 3)
        order = woss_ordering(w)
        masked = w.copy()
        np.fill_diagonal(masked, np.inf)
        assert w[order[0], order[1]] == pytest.approx(masked.min())

    def test_extends_from_tail_greedily(self):
        """Fig. 7 step A2: each extension is the tail's cheapest unvisited."""
        w = random_weights(9, 4)
        order = woss_ordering(w)
        visited = set(order[:2])
        for k in range(2, len(order)):
            tail = order[k - 1]
            cheapest = min((w[tail, j], j) for j in range(9) if j not in visited)
            assert order[k] == cheapest[1]
            visited.add(order[k])

    def test_optimal_on_chain_structure(self):
        """A metric chain 0-1-2-3 with tiny adjacent weights."""
        n = 5
        w = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        order = woss_ordering(w)
        assert ordering_cost(order, w) == pytest.approx(n - 1)

    def test_asymmetric_rejected(self):
        w = random_weights(4, 5)
        w[0, 1] += 1.0
        with pytest.raises(GeometryError):
            woss_ordering(w)


class TestExact:
    @pytest.mark.parametrize("n,seed", [(2, 0), (4, 1), (6, 2), (8, 3)])
    def test_matches_brute_force(self, n, seed):
        w = random_weights(n, seed)
        hk = exact_ordering(w)
        bf = brute_force_ordering(w)
        assert ordering_cost(hk, w) == pytest.approx(ordering_cost(bf, w))

    def test_never_worse_than_heuristics(self):
        for seed in range(6):
            w = random_weights(9, seed + 10)
            opt = ordering_cost(exact_ordering(w), w)
            assert opt <= ordering_cost(woss_ordering(w), w) + 1e-12
            assert opt <= ordering_cost(greedy_both_ends(w), w) + 1e-12
            assert opt <= ordering_cost(random_ordering(9, seed), w) + 1e-12

    def test_size_guard(self):
        with pytest.raises(GeometryError):
            exact_ordering(random_weights(20, 0))
        with pytest.raises(GeometryError):
            brute_force_ordering(random_weights(12, 0))


class TestTwoOpt:
    def test_never_increases_cost(self):
        for seed in range(5):
            w = random_weights(12, seed + 20)
            start = random_ordering(12, seed)
            improved = two_opt_improve(start, w)
            assert ordering_cost(improved, w) <= ordering_cost(start, w) + 1e-12

    def test_fixes_obvious_crossing(self):
        # Chain metric with a swap: 2-opt must recover the sorted order cost.
        n = 6
        w = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
        bad = [0, 3, 2, 1, 4, 5]
        improved = two_opt_improve(bad, w)
        assert ordering_cost(improved, w) == pytest.approx(n - 1)

    def test_permutation_validated(self):
        with pytest.raises(GeometryError):
            two_opt_improve([0, 0, 1], random_weights(3, 0))


class TestRandom:
    def test_is_permutation_and_seeded(self):
        a = random_ordering(10, seed=4)
        assert sorted(a) == list(range(10))
        assert a == random_ordering(10, seed=4)
        assert a != random_ordering(10, seed=5)

    def test_n_validated(self):
        with pytest.raises(GeometryError):
            random_ordering(0)


def test_woss_quality_on_random_ensemble():
    """WOSS should usually beat random and sit near 2-opt quality."""
    woss_wins = 0
    for seed in range(20):
        w = random_weights(10, seed + 40)
        if ordering_cost(woss_ordering(w), w) <= ordering_cost(
                random_ordering(10, seed), w):
            woss_wins += 1
    assert woss_wins >= 15


def random_keys(n, seed, max_key=None):
    """Symmetric int16 key matrix mimicking ``2d`` Hamming-distance keys.

    Small ``max_key`` relative to n² forces heavy ties — the regime the
    keys fast path must break identically to the reference masked argmin
    (stable lowest-index wins).
    """
    rng = np.random.default_rng(seed)
    if max_key is None:
        max_key = max(2, n // 2)
    k = rng.integers(0, max_key + 1, size=(n, n))
    k = np.minimum(k, k.T).astype(np.int16)
    np.fill_diagonal(k, 0)
    return k


class TestWossKeysPath:
    """The sort_keys fast path returns the reference result exactly."""

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 65, 130])
    def test_matches_reference_across_sizes(self, n):
        for seed in range(8):
            keys = random_keys(n, seed * 101 + n)
            weights = keys.astype(np.float64) / 64.0
            assert woss_ordering(None, sort_keys=keys) == \
                woss_ordering(weights)

    def test_tie_heavy_ensemble(self):
        for seed in range(60):
            n = 3 + seed % 30
            keys = random_keys(n, seed, max_key=2)  # almost all ties
            weights = keys.astype(np.float64)
            assert woss_ordering(None, sort_keys=keys) == \
                woss_ordering(weights)

    def test_all_equal_keys(self):
        """Fully degenerate: every pair ties; index order must decide."""
        n = 40
        keys = np.ones((n, n), dtype=np.int16)
        np.fill_diagonal(keys, 0)
        assert woss_ordering(None, sort_keys=keys) == \
            woss_ordering(keys.astype(np.float64))

    def test_prefix_exhaustion_fallback(self):
        """More than 64 tied entries per row: every step must still pick
        the lowest unvisited index among the ties, as the reference
        does."""
        n = 150
        keys = np.zeros((n, n), dtype=np.int16)
        np.fill_diagonal(keys, 0)
        keys += 1
        np.fill_diagonal(keys, 0)
        # One slightly-better edge so A1 is deterministic but the walk
        # still chews through >64 tied candidates per step.
        keys[0, 1] = keys[1, 0] = 0
        assert woss_ordering(None, sort_keys=keys) == \
            woss_ordering(keys.astype(np.float64))

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32,
                                       np.uint32, np.int64, np.uint64])
    def test_any_integer_dtype(self, dtype):
        keys = random_keys(40, 9, max_key=6)
        assert woss_ordering(None, sort_keys=keys.astype(dtype)) == \
            woss_ordering(keys.astype(np.float64))

    def test_keys_with_weights_cross_checked(self):
        keys = random_keys(12, 7)
        weights = keys.astype(np.float64) / 32.0
        assert woss_ordering(weights, sort_keys=keys) == \
            woss_ordering(weights)

    def test_single_wire(self):
        assert woss_ordering(None,
                             sort_keys=np.zeros((1, 1), np.int16)) == [0]

    def test_shape_and_dtype_validated(self):
        with pytest.raises(GeometryError):
            woss_ordering(None, sort_keys=np.zeros((2, 3), np.int16))
        with pytest.raises(GeometryError):
            woss_ordering(None, sort_keys=np.zeros((0, 0), np.int16))
        with pytest.raises(GeometryError):
            woss_ordering(None, sort_keys=np.zeros((2, 2), float))
        with pytest.raises(GeometryError):
            woss_ordering(None,
                          sort_keys=np.full((2, 2), -1, dtype=np.int16))
        with pytest.raises(GeometryError):
            woss_ordering(np.zeros((3, 3)),
                          sort_keys=np.zeros((2, 2), np.int16))
        with pytest.raises(GeometryError):
            woss_ordering(None,
                          sort_keys=np.full((2, 2), 70000, dtype=np.int64))


def _distance_keys(rows):
    """Per-wire ``2d`` keys (twice the Hamming distance) of boolean rows."""
    rows = np.asarray(rows, dtype=np.int64)
    differ = rows[:, None, :] != rows[None, :, :]
    return (2 * differ.sum(axis=2)).astype(np.int16)


def _first_appearance_classes(rows):
    """Each row's class, numbered by first appearance, and each class's
    first position — written independently of the analyzer's."""
    seen = {}
    classes = [seen.setdefault(row.tobytes(), len(seen)) for row in rows]
    first = [classes.index(c) for c in range(len(seen))]
    return np.array(classes), np.array(first)


def assert_class_walk_is_woss(rows):
    """The class walk equals keyed and float WOSS on the per-wire keys."""
    rows = np.asarray(rows, dtype=bool)
    keys = _distance_keys(rows)
    classes, first = _first_appearance_classes(rows)
    got = woss_class_ordering(classes, keys[np.ix_(first, first)])
    assert got == woss_ordering(None, sort_keys=keys)
    assert got == woss_ordering(keys.astype(np.float64) / rows.shape[1])
    return got


class TestWossClassOrdering:
    """Ordering classes of equal rows gives WOSS's per-wire order."""

    def test_every_row_equal(self):
        rows = np.tile(np.array([1, 0, 1, 1, 0], dtype=bool), (9, 1))
        assert assert_class_walk_is_woss(rows) == list(range(9))

    def test_no_two_rows_equal(self):
        rng = np.random.default_rng(1)
        rows = np.unique(rng.random((40, 64)) < 0.5, axis=0)
        rows = rows[rng.permutation(len(rows))]
        assert len(rows) == 40
        assert_class_walk_is_woss(rows)

    def test_first_duplicated_wire_not_at_position_zero(self):
        """Two duplicated classes, B and C, neither starting at 0: the
        walk starts at B's first two wires, where A1 would."""
        rng = np.random.default_rng(2)
        a, b, c, d, e = rng.random((5, 32)) < 0.5
        order = assert_class_walk_is_woss([a, b, c, b, d, c, e])
        assert order[:2] == [1, 3]

    def test_classes_interleaved_by_index(self):
        rng = np.random.default_rng(3)
        a, b, c = rng.random((3, 24)) < 0.5
        rows = [a, b, a, b, c, a, c, b, c, a]
        order = assert_class_walk_is_woss(rows)
        # Every class is walked as one run.
        classes, _ = _first_appearance_classes(np.asarray(rows))
        runs = classes[order]
        assert np.count_nonzero(np.diff(runs)) == 2

    def test_all_zero_and_all_one_rows(self):
        rng = np.random.default_rng(4)
        zeros, ones = np.zeros(16, bool), np.ones(16, bool)
        x, y = rng.random((2, 16)) < 0.5
        assert_class_walk_is_woss([x, zeros, ones, zeros, y, ones, ones])
        assert_class_walk_is_woss([zeros, ones])
        assert_class_walk_is_woss([ones, zeros, zeros])

    def test_deep_ties_over_more_than_64_classes(self):
        """130 one-hot rows are all at one distance, so every step ties
        with every unvisited class and the lowest index must win, deep
        into the walk; the duplicates make it start from a class."""
        rows = np.eye(130, dtype=bool)
        rows = np.concatenate([rows, rows[[5, 70, 129, 5]]])
        order = assert_class_walk_is_woss(rows)
        assert order[:4] == [5, 130, 133, 0]

    def test_single_wire_and_validation(self):
        assert woss_class_ordering([0], np.zeros((1, 1), np.int16)) == [0]
        keys = np.array([[0, 2], [2, 0]], dtype=np.int16)
        for bad in ([1, 0], [0, 2, 1], [], [[0, 1]], [0.0, 1.0], [0, -1]):
            with pytest.raises(GeometryError):
                woss_class_ordering(bad, keys)
        with pytest.raises(GeometryError):
            woss_class_ordering([0, 1, 2], keys)
        with pytest.raises(GeometryError):
            woss_class_ordering([0, 1], keys.astype(float))
