"""Switching similarity (paper Sec. 3.2).

    similarity(i, j) = ∫₀ᵀ f(i,t)·f(j,t) dt / T  ∈ [−1, 1]

Two forms are provided:

* **cycle-accurate** (default): node values come from the levelized
  zero-delay simulator; with one ±1 value per cycle the integral reduces
  to the mean of the per-cycle products — a single matrix product over
  all wires at once;
* **time-domain**: exact integration of event-driven waveforms, capturing
  glitches, via :meth:`Waveform.product_integral`.

:class:`SimilarityAnalyzer` runs the simulation once and serves the
ordering stage one channel's similarity at a time.
"""

import numpy as np

from repro.simulate.levelized import simulate_levelized
from repro.simulate.patterns import random_patterns
from repro.utils.errors import SimulationError


def similarity_from_values(values, indices=None):
    """Pairwise similarity matrix from boolean per-cycle values.

    Parameters
    ----------
    values:
        Boolean array ``(num_nodes, n_patterns)`` from
        :func:`simulate_levelized` (or any per-cycle signal matrix).
    indices:
        Optional node indices selecting the rows to correlate (e.g. one
        channel's wires); defaults to all rows.

    Returns the symmetric matrix ``S`` with ``S[a, b] = similarity``
    between selected rows ``a`` and ``b`` (diagonal exactly 1).
    """
    values = np.asarray(values, dtype=bool)
    if values.ndim != 2 or values.shape[1] == 0:
        raise SimulationError("values must be (nodes, patterns) with >= 1 pattern")
    rows = values if indices is None else values[np.asarray(indices, dtype=np.int64)]
    signed = np.where(rows, 1.0, -1.0)
    matrix = signed @ signed.T / signed.shape[1]
    np.fill_diagonal(matrix, 1.0)
    return matrix


def similarity_from_waveforms(waveforms):
    """Exact pairwise similarity of a list of :class:`Waveform` objects.

    O(n² · transitions); intended for single channels or demos.
    """
    n = len(waveforms)
    if n == 0:
        raise SimulationError("need at least one waveform")
    matrix = np.eye(n)
    for a in range(n):
        for b in range(a + 1, n):
            matrix[a, b] = matrix[b, a] = waveforms[a].similarity(waveforms[b])
    return matrix


class SimilarityAnalyzer:
    """Runs logic simulation once and serves per-channel similarity.

    The analyzer keeps only the ``patterns`` and the boolean ``values``
    they simulate to; nothing is cached per channel, so its state is
    O(nodes · P) however the wires are grouped.  Every accessor works on
    one channel (an index sequence) at a time:

    * :meth:`matrix` and :meth:`sort_keys` build the channel's ``±1``
      Gram fresh — an f32 matmul whose entries are exact integers — and
      reduce it to similarity ``Σ±1 / P`` (float64) or to the integer
      distance keys ``2d = P − Σ±1`` (``int16``); both are read-only and
      bit-identical to a float64 ``±1`` computation.
    * :meth:`path_dissimilarity` and :meth:`pair` need only adjacent
      pairs: over ``P`` patterns with ``h`` disagreements the ``±1``
      products sum to the integer ``P − 2h``, so ``(P − 2h) / P`` from
      the rows' disagreement counts is the same float, in O(width · P)
      with no width × width array.

    Parameters
    ----------
    circuit:
        The circuit to analyze.
    patterns:
        Boolean pattern matrix, one row per pattern (at least one);
        defaults to ``n_patterns`` seeded random vectors (the paper takes
        patterns "from the logic simulation stage"; see DESIGN.md §3).
    n_patterns, seed:
        Used only when ``patterns`` is not supplied.
    """

    def __init__(self, circuit, patterns=None, n_patterns=256, seed=0):
        self.circuit = circuit
        if patterns is None:
            patterns = random_patterns(circuit.num_drivers, n_patterns, seed=seed)
        self.patterns = np.asarray(patterns, dtype=bool)
        if len(self.patterns) == 0:
            raise SimulationError("similarity needs at least one pattern")
        self._values = simulate_levelized(circuit, self.patterns)

    @property
    def values(self):
        """Node-by-pattern boolean matrix from the levelized simulation."""
        return self._values

    def _gram(self, indices):
        """The rows' exact ``±1`` Gram ``Σ±1``, one channel's worth.

        The product of ``±1`` rows is a sum of ``±1`` terms bounded by
        ``P``, so every partial sum is an exactly representable integer
        even in float32 — the single-precision matmul (about twice the
        dgemm throughput) is exact as long as ``P`` stays below 2**23.
        """
        n_patterns = self._values.shape[1]
        dtype = np.float32 if n_patterns <= 2 ** 23 else np.float64
        # bool → ±1 via a widening cast plus two in-place passes
        # (np.where with scalar branches is ~3× slower here).
        rows = self._values[np.asarray(indices, dtype=np.int64)].astype(dtype)
        rows *= 2.0
        rows -= 1.0
        return rows @ rows.T

    def matrix(self, indices):
        """Similarity matrix over the node ``indices`` (a channel, usually).

        Built fresh on every call; the returned array is read-only.
        """
        matrix = self._gram(indices).astype(np.float64)
        matrix /= self._values.shape[1]
        np.fill_diagonal(matrix, 1.0)
        matrix.setflags(write=False)
        return matrix

    def sort_keys(self, indices):
        """Integer ordering keys for one channel, built fresh (read-only).

        The ``int16`` distance matrix ``2d = P − Σ±1`` (twice the pairwise
        Hamming distance; halving would only cost another full pass) is
        an exact monotone image of the ordering weight
        ``1 − similarity = 2d/P`` — within any row (and globally), keys
        compare and tie exactly as the weights do.
        :func:`~repro.noise.ordering.woss_ordering` uses them to replace
        its per-step masked argmin with one sorted prefix walk.  Returns
        ``None`` above 16383 patterns, where keys (up to ``2P``) leave
        ``int16``.
        """
        n_patterns = self._values.shape[1]
        if n_patterns > 16383:
            return None
        gram = self._gram(indices)
        np.subtract(n_patterns, gram, out=gram)
        keys = gram.astype(np.int16)
        keys.setflags(write=False)
        return keys

    def _adjacent_similarity(self, indices):
        """Similarity of each adjacent pair of rows ``indices``, as
        ``(P − 2h) / P`` from their disagreement counts ``h``."""
        rows = self._values[np.asarray(indices, dtype=np.int64)]
        differ = np.count_nonzero(rows[:-1] != rows[1:], axis=1)
        n_patterns = self._values.shape[1]
        return (n_patterns - 2 * differ) / n_patterns

    def path_dissimilarity(self, indices, order=None):
        """Σ ``1 − similarity`` over adjacent pairs — one channel's
        stage-1 ordering cost.

        ``order`` is a position permutation (default: the given track
        order).  Bitwise-equal to summing ``1 − matrix(indices)`` over
        the same pairs, without building the matrix.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if order is not None:
            indices = indices[np.asarray(order, dtype=np.int64)]
        return float(np.sum(1.0 - self._adjacent_similarity(indices)))

    def pair(self, i, j):
        """Similarity between node indices ``i`` and ``j``."""
        return float(self._adjacent_similarity([i, j])[0])

    def toggle_rate(self, index):
        """Fraction of consecutive cycles on which node ``index`` changes."""
        row = self._values[index]
        if row.size < 2:
            return 0.0
        return float(np.mean(row[1:] != row[:-1]))
