"""Property-based tests on cycle-accurate switching similarity (hypothesis).

Similarity is the mean of the per-cycle ``±1`` products (paper Sec. 3.2
with one value per cycle), so it is a correlation of ``±1`` rows: the
properties below hold for any boolean value matrix, and the analyzer's
circuit-backed accessors must agree with the value form.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.noise import SimilarityAnalyzer, similarity_from_values
from repro.simulate import simulate_levelized

bit_rows = hnp.arrays(dtype=bool, shape=st.integers(1, 60))


@st.composite
def bit_matrix(draw, min_rows=2, max_rows=6):
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(1, 40))
    return draw(hnp.arrays(dtype=bool, shape=(rows, cols)))


@settings(max_examples=60, deadline=None)
@given(bits=bit_rows)
def test_similarity_with_self_is_one(bits):
    """Off the diagonal too: two equal rows agree on every cycle."""
    s = similarity_from_values(np.stack([bits, bits]))
    assert s[0, 1] == s[1, 0] == 1.0


@settings(max_examples=60, deadline=None)
@given(bits=bit_rows)
def test_similarity_with_inverse_is_minus_one(bits):
    s = similarity_from_values(np.stack([bits, ~bits]))
    assert s[0, 1] == s[1, 0] == -1.0


@settings(max_examples=60, deadline=None)
@given(m=bit_matrix())
def test_similarity_matrix_is_valid_correlation(m):
    s = similarity_from_values(m)
    assert np.all(s >= -1.0) and np.all(s <= 1.0)
    np.testing.assert_array_equal(s, s.T)
    np.testing.assert_array_equal(np.diag(s), 1.0)
    # PSD up to rounding (it is a Gram matrix of ±1 rows / n).
    assert np.linalg.eigvalsh(s).min() > -1e-9


@settings(max_examples=60, deadline=None)
@given(m=bit_matrix())
def test_similarity_is_agreement_minus_disagreement(m):
    """``S[a, b] = (agree − disagree) / P`` exactly: the ``±1`` products
    sum to an integer, so the float carries no rounding before the
    division."""
    s = similarity_from_values(m)
    n_patterns = m.shape[1]
    for a in range(len(m)):
        for b in range(a + 1, len(m)):
            agree = int(np.sum(m[a] == m[b]))
            assert s[a, b] == (agree - (n_patterns - agree)) / n_patterns


@settings(max_examples=60, deadline=None)
@given(m=bit_matrix(), repeat=st.integers(2, 5))
def test_holding_each_cycle_longer_does_not_change_similarity(m, repeat):
    """A slower clock (each value held for ``repeat`` cycles) scales the
    integral and the period alike."""
    s = similarity_from_values(m)
    slow = similarity_from_values(np.repeat(m, repeat, axis=1))
    np.testing.assert_allclose(slow, s, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(m=bit_matrix(), data=st.data())
def test_cycle_order_does_not_change_similarity(m, data):
    """The integral ignores when a cycle happens; integer sums make the
    permuted matrix bit-identical."""
    perm = data.draw(st.permutations(range(m.shape[1])))
    np.testing.assert_array_equal(
        similarity_from_values(m[:, np.asarray(perm, dtype=np.int64)]),
        similarity_from_values(m))


@settings(max_examples=60, deadline=None)
@given(m=bit_matrix(), data=st.data())
def test_complementing_a_row_negates_its_similarities(m, data):
    row = data.draw(st.integers(0, len(m) - 1))
    flipped = m.copy()
    flipped[row] = ~flipped[row]
    s, t = similarity_from_values(m), similarity_from_values(flipped)
    others = np.arange(len(m)) != row
    np.testing.assert_array_equal(t[row, others], -s[row, others])
    np.testing.assert_array_equal(t[np.ix_(others, others)],
                                  s[np.ix_(others, others)])


@settings(max_examples=60, deadline=None)
@given(m=bit_matrix(min_rows=1, max_rows=8), data=st.data())
def test_index_selection_is_a_submatrix(m, data):
    indices = data.draw(st.lists(st.integers(0, len(m) - 1), min_size=1,
                                 max_size=6, unique=True))
    full = similarity_from_values(m)
    np.testing.assert_array_equal(similarity_from_values(m, indices),
                                  full[np.ix_(indices, indices)])


@st.composite
def pattern_matrix(draw, n_inputs):
    n_patterns = draw(st.integers(1, 40))
    return draw(hnp.arrays(dtype=bool, shape=(n_patterns, n_inputs)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_analyzer_matches_value_form(small_circuit, data):
    """The analyzer's distinct-row store serves the value-form matrix
    and pair similarities of the levelized simulation, bit for bit."""
    patterns = data.draw(pattern_matrix(small_circuit.num_drivers))
    wires = [w.index for w in small_circuit.wires()]
    indices = data.draw(st.lists(st.sampled_from(wires), min_size=2,
                                 max_size=8, unique=True))
    analyzer = SimilarityAnalyzer(small_circuit, patterns=patterns)
    values = simulate_levelized(small_circuit, patterns)
    expected = similarity_from_values(values, indices)
    np.testing.assert_array_equal(analyzer.matrix(indices), expected)
    i, j = np.triu_indices(len(indices), 1)
    ids = np.asarray(indices)
    np.testing.assert_array_equal(analyzer.pair_similarity(ids[i], ids[j]),
                                  expected[i, j])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_toggle_rate_counts_transitions(small_circuit, data):
    """A node's toggle rate is its value changes over ``P − 1`` cycle
    boundaries, so fewer than ``P`` transitions ever happen."""
    patterns = data.draw(pattern_matrix(small_circuit.num_drivers))
    analyzer = SimilarityAnalyzer(small_circuit, patterns=patterns)
    values = simulate_levelized(small_circuit, patterns)
    n_patterns = len(patterns)
    for node in range(1, small_circuit.num_nodes - 1):
        row = values[node]
        changes = int(np.count_nonzero(row[1:] != row[:-1]))
        assert 0 <= changes < n_patterns
        rate = analyzer.toggle_rate(node)
        assert rate == (0.0 if n_patterns < 2 else changes / (n_patterns - 1))
