"""Property-based tests on the SS ordering algorithms."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noise import (
    exact_ordering,
    ordering_cost,
    two_opt_improve,
    woss_ordering,
)
from repro.noise.ordering import greedy_both_ends, woss_class_ordering


@st.composite
def weight_matrix(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    values = draw(st.lists(st.floats(0.0, 2.0), min_size=n * n, max_size=n * n))
    w = np.array(values).reshape(n, n)
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return w


@settings(max_examples=50, deadline=None)
@given(w=weight_matrix())
def test_woss_returns_permutation(w):
    order = woss_ordering(w)
    assert sorted(order) == list(range(len(w)))


@settings(max_examples=50, deadline=None)
@given(w=weight_matrix())
def test_exact_lower_bounds_heuristics(w):
    opt = ordering_cost(exact_ordering(w), w)
    for heuristic in (woss_ordering, greedy_both_ends):
        assert opt <= ordering_cost(heuristic(w), w) + 1e-9


@settings(max_examples=50, deadline=None)
@given(w=weight_matrix())
def test_two_opt_never_hurts(w):
    start = woss_ordering(w)
    improved = two_opt_improve(start, w)
    assert ordering_cost(improved, w) <= ordering_cost(start, w) + 1e-9
    assert sorted(improved) == list(range(len(w)))


@settings(max_examples=50, deadline=None)
@given(w=weight_matrix(), shift=st.floats(0.1, 5.0))
def test_cost_shift_equivariance(w, shift):
    """Adding a constant to every weight adds (n−1)·c to every ordering
    cost, so the optimal *ordering* is unchanged."""
    order = exact_ordering(w)
    shifted = w + shift
    np.fill_diagonal(shifted, 0.0)
    opt_cost = ordering_cost(exact_ordering(shifted), shifted)
    assert opt_cost <= ordering_cost(order, shifted) + 1e-9
    assert abs(ordering_cost(order, shifted)
               - ordering_cost(order, w) - (len(w) - 1) * shift) < 1e-9


@settings(max_examples=30, deadline=None)
@given(w=weight_matrix(max_n=7))
def test_relabeling_invariance(w):
    """Permuting wire labels permutes the optimal order accordingly."""
    n = len(w)
    rng = np.random.default_rng(0)
    perm = rng.permutation(n)
    w2 = w[np.ix_(perm, perm)]
    c1 = ordering_cost(exact_ordering(w), w)
    c2 = ordering_cost(exact_ordering(w2), w2)
    assert abs(c1 - c2) < 1e-9


@st.composite
def rows_with_duplicates(draw):
    """A boolean channel whose rows repeat: ``n`` positions drawn with
    replacement from a few base rows (which may coincide too)."""
    n_patterns = draw(st.integers(1, 12))
    n_base = draw(st.integers(1, 8))
    base = np.array(draw(st.lists(
        st.booleans(), min_size=n_base * n_patterns,
        max_size=n_base * n_patterns))).reshape(n_base, n_patterns)
    picks = draw(st.lists(st.integers(0, n_base - 1), min_size=1,
                          max_size=40))
    return base[picks]


@settings(max_examples=200, deadline=None)
@given(rows=rows_with_duplicates())
def test_class_walk_equals_woss(rows):
    """Ordering the classes of equal rows gives the per-wire WOSS order,
    keyed or from float weights."""
    keys = 2 * (rows[:, None, :] != rows[None, :, :]).sum(axis=2)
    keys = keys.astype(np.int16)
    seen = {}
    classes = np.array([seen.setdefault(r.tobytes(), len(seen)) for r in rows])
    first = np.array([list(classes).index(c) for c in range(len(seen))])
    got = woss_class_ordering(classes, keys[np.ix_(first, first)])
    assert got == woss_ordering(None, sort_keys=keys)
    assert got == woss_ordering(keys / rows.shape[1])
