"""Switching similarity (paper Sec. 3.2).

    similarity(i, j) = ∫₀ᵀ f(i,t)·f(j,t) dt / T  ∈ [−1, 1]

The similarity is cycle-accurate: node values come from the levelized
zero-delay simulator, and with one ±1 value per cycle the integral
reduces to the mean of the per-cycle products — a single matrix product
over all wires at once.  Glitches are not modelled.

:class:`SimilarityAnalyzer` runs the simulation once and serves the
ordering stage one channel's similarity at a time.
"""

import numpy as np

from repro.simulate.patterns import random_patterns
from repro.simulate.plan import validate_patterns
from repro.utils.errors import SimulationError

#: Pairs whose rows :meth:`SimilarityAnalyzer.pair_similarity` gathers at
#: once (two blocks of ``_PAIR_BLOCK × P`` booleans).
_PAIR_BLOCK = 4096


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


class SimilarityAnalyzer:
    """Runs logic simulation once and serves per-channel similarity.

    The analyzer stores each distinct simulated row once: ``rows`` holds
    one boolean row per distinct value vector and ``row_index`` maps
    every node to its row (``int32``).  A wire carries its root driver's
    or gate's row, and many gates share a row, so at 50k gates 150k nodes
    read 35k rows — the node-by-pattern matrix is never kept, and the
    analyzer's state is ``distinct · P + 4 · nodes`` bytes however the
    wires are grouped.  Nothing is cached per channel; every accessor
    works on one channel (a node index sequence) at a time, reading rows
    through the index:

    * :meth:`classes` groups a channel's wires by equal rows — WOSS
      orders those classes instead of the wires
      (:func:`~repro.noise.ordering.woss_class_ordering`).
    * :meth:`matrix` and :meth:`sort_keys` build the channel's ``±1``
      Gram fresh — an f32 matmul whose entries are exact integers — and
      reduce it to similarity ``Σ±1 / P`` (float64) or to the integer
      distance keys ``2d = P − Σ±1`` (``int16``); both are read-only and
      bit-identical to a float64 ``±1`` computation.
    * :meth:`pair_similarity` (and :meth:`path_dissimilarity`,
      :meth:`pair`) need only pairs: over ``P`` patterns with ``h``
      disagreements the ``±1`` products sum to the integer ``P − 2h``,
      so ``(P − 2h) / P`` from the rows' disagreement counts is the same
      float, in O(pairs · P) with no width × width array.

    :func:`~repro.simulate.levelized.simulate_levelized` still returns
    the full ``(num_nodes, P)`` matrix for callers that want it.

    Parameters
    ----------
    circuit:
        The circuit to analyze.
    patterns:
        Boolean pattern matrix, one row per pattern (at least one);
        defaults to ``n_patterns`` seeded random vectors (the paper takes
        patterns "from the logic simulation stage"; see "Model choices:
        seeded patterns" in ``docs/architecture.md``).
    n_patterns, seed:
        Used only when ``patterns`` is not supplied.
    """

    def __init__(self, circuit, patterns=None, n_patterns=256, seed=0):
        self.circuit = circuit
        if patterns is None:
            patterns = random_patterns(circuit.num_drivers, n_patterns, seed=seed)
        patterns = validate_patterns(circuit, patterns)
        if len(patterns) == 0:
            raise SimulationError("similarity needs at least one pattern")
        plan = circuit.sim_plan()
        roots = plan.simulate_roots(patterns)
        # Distinct rows by one sort of the bit-packed rows, each viewed
        # as one opaque byte string (padding bits are equal in every row,
        # so packing keeps rows apart exactly).
        packed = np.ascontiguousarray(np.packbits(roots, axis=1))
        _, first, inverse = np.unique(
            packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
            return_index=True, return_inverse=True)
        self._rows = roots[first]
        self._rows.setflags(write=False)
        self._index = inverse.astype(np.int32)[plan.node_root]
        self._index.setflags(write=False)

    @property
    def rows(self):
        """The distinct simulated rows, ``(distinct, P)`` boolean."""
        return self._rows

    @property
    def row_index(self):
        """Each node's row in :attr:`rows` (``int32``, one per node)."""
        return self._index

    @property
    def n_patterns(self):
        return self._rows.shape[1]

    @property
    def patterns(self):
        """The ``(P, num_drivers)`` patterns: the drivers' rows, transposed."""
        return self._rows[self._index[1:self.circuit.num_drivers + 1]].T

    def classes(self, indices):
        """Group node ``indices`` (one channel's wires) by equal rows.

        Returns ``(classes, representatives)``: each position's class,
        numbered by first appearance, and the node index of each class's
        first position.  Two positions share a class exactly when their
        simulated rows are equal.
        """
        indices = np.asarray(indices, dtype=np.int64)
        _, first, inverse = np.unique(self._index[indices],
                                      return_index=True, return_inverse=True)
        by_first = np.argsort(first)
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(by_first.size)
        return rank[inverse], indices[first[by_first]]

    def _gram(self, indices):
        """The rows' exact ``±1`` Gram ``Σ±1``, one channel's worth.

        The product of ``±1`` rows is a sum of ``±1`` terms bounded by
        ``P``, so every partial sum is an exactly representable integer
        even in float32 — the single-precision matmul (about twice the
        dgemm throughput) is exact as long as ``P`` stays below 2**23.
        """
        dtype = np.float32 if self.n_patterns <= 2 ** 23 else np.float64
        # bool → ±1 via a widening cast plus two in-place passes
        # (np.where with scalar branches is ~3× slower here).
        rows = self._rows[self._index[np.asarray(indices, dtype=np.int64)]] \
            .astype(dtype)
        rows *= 2.0
        rows -= 1.0
        return rows @ rows.T

    def matrix(self, indices):
        """Similarity matrix over the node ``indices`` (a channel, usually).

        Built fresh on every call; the returned array is read-only.
        """
        matrix = self._gram(indices).astype(np.float64)
        matrix /= self.n_patterns
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
        WOSS walks them with an integer masked argmin per step, in place
        of its float loop (stage 1 passes one representative node per
        class of equal rows, :meth:`classes`).  Returns ``None`` above
        16383 patterns, where keys (up to ``2P``) leave ``int16``.
        """
        n_patterns = self.n_patterns
        if n_patterns > 16383:
            return None
        gram = self._gram(indices)
        np.subtract(n_patterns, gram, out=gram)
        keys = gram.astype(np.int16)
        keys.setflags(write=False)
        return keys

    def pair_similarity(self, i, j):
        """Similarity of each node pair ``(i[k], j[k])``, as
        ``(P − 2h) / P`` from the rows' disagreement counts ``h``,
        counted a block of pairs at a time so the gathered rows stay
        small."""
        ri = self._index[np.asarray(i, dtype=np.int64)]
        rj = self._index[np.asarray(j, dtype=np.int64)]
        differ = np.empty(ri.size, dtype=np.int64)
        for lo in range(0, ri.size, _PAIR_BLOCK):
            hi = lo + _PAIR_BLOCK
            differ[lo:hi] = np.count_nonzero(
                self._rows[ri[lo:hi]] != self._rows[rj[lo:hi]], axis=1)
        n_patterns = self.n_patterns
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
        return float(np.sum(
            1.0 - self.pair_similarity(indices[:-1], indices[1:])))

    def pair(self, i, j):
        """Similarity between node indices ``i`` and ``j``."""
        return float(self.pair_similarity([i], [j])[0])

    def toggle_rate(self, index):
        """Fraction of consecutive cycles on which node ``index`` changes."""
        row = self._rows[self._index[index]]
        if row.size < 2:
            return 0.0
        return float(np.mean(row[1:] != row[:-1]))
