"""Switching similarity (paper Sec. 3.2).

    similarity(i, j) = ∫₀ᵀ f(i,t)·f(j,t) dt / T  ∈ [−1, 1]

Two forms are provided:

* **cycle-accurate** (default): node values come from the levelized
  zero-delay simulator; with one ±1 value per cycle the integral reduces
  to the mean of the per-cycle products — a single matrix product over
  all wires at once;
* **time-domain**: exact integration of event-driven waveforms, capturing
  glitches, via :meth:`Waveform.product_integral`.

:class:`SimilarityAnalyzer` wraps simulation + caching so the ordering
stage can ask for per-channel similarity matrices cheaply.
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

    Each distinct channel (an index tuple) costs one ``±1`` Gram product,
    computed on first request and reduced at once to the only thing
    cached: the channel's integer distance keys ``2d = P − Σ±1`` (twice
    the pairwise Hamming distance over ``P`` patterns) — ``int16`` while
    ``P ≤ 16383``, ``int32`` above.  Every accessor reads through that
    one integer matrix: :meth:`sort_keys` / :meth:`sort_keys_many` return
    it (``int16`` only), while :meth:`matrix` / :meth:`matrices`,
    :meth:`path_dissimilarity` and :meth:`pair` rebuild similarity from
    ``P − keys`` — exactly the Gram's integers, so the float64 results
    are bit-identical to a float64 ``±1`` product.  Nothing float is
    kept: a float64 matrix lives only as long as its caller holds it
    (returned arrays are read-only).  ``cache_hits``/``cache_misses``
    count channel lookups through the public accessors, hit ⇔ the
    channel's integer matrix is already cached (pinned by
    ``tests/noise/test_similarity.py``).

    Parameters
    ----------
    circuit:
        The circuit to analyze.
    patterns:
        Boolean pattern matrix; defaults to ``n_patterns`` seeded random
        vectors (the paper takes patterns "from the logic simulation
        stage"; see DESIGN.md §3).
    n_patterns, seed:
        Used only when ``patterns`` is not supplied.
    """

    def __init__(self, circuit, patterns=None, n_patterns=256, seed=0):
        self.circuit = circuit
        if patterns is None:
            patterns = random_patterns(circuit.num_drivers, n_patterns, seed=seed)
        self.patterns = np.asarray(patterns, dtype=bool)
        self._values = simulate_levelized(circuit, self.patterns)
        self._keys = {}
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def values(self):
        """Node-by-pattern boolean matrix from the levelized simulation."""
        return self._values

    def matrix(self, indices):
        """Similarity matrix over the node ``indices`` (a channel, usually).

        Built from the channel's cached integer keys on every call; the
        returned array is read-only.
        """
        return self.matrices([indices])[0]

    def _lookup(self, index_groups):
        """Normalize groups to tuples, counting cache hits/misses.

        A group counts as a *hit* when its integer matrix — the expensive
        part — is already cached, regardless of which accessor computed
        it first.
        """
        if self._values.shape[1] == 0:
            raise SimulationError("values must be (nodes, patterns) with >= 1 pattern")
        groups = [g if type(g) is tuple else tuple(int(i) for i in g)
                  for g in index_groups]
        for g in groups:
            if g in self._keys:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
        return groups

    def _ensure_keys(self, groups):
        """Compute and cache the missing groups' keys, one channel at a time.

        The product of ``±1`` rows is a sum of ``±1`` terms bounded by
        ``P``, so every partial sum is an exactly representable integer
        even in float32 — the single-precision matmul (about twice the
        dgemm throughput) is exact as long as ``P`` stays below 2**23.
        The keys ``2d = P − Σ±1`` (twice the Hamming distance — halving
        would only cost another full pass) reach ``2P``: ``int16`` holds
        them up to ``P = 16383``.  Only one channel's float rows and
        Gram are alive at a time.
        """
        n_patterns = self._values.shape[1]
        gram_dtype = np.float32 if n_patterns <= 2 ** 23 else np.float64
        key_dtype = np.int16 if n_patterns <= 16383 else np.int32
        for g in groups:
            if not g or g in self._keys:
                continue
            # bool → ±1 via a widening cast plus two in-place passes
            # (np.where with scalar branches is ~3× slower here).
            rows = self._values[np.array(g, dtype=np.int64)].astype(gram_dtype)
            rows *= 2.0
            rows -= 1.0
            gram = rows @ rows.T
            np.subtract(n_patterns, gram, out=gram)
            keys = gram.astype(key_dtype)
            keys.setflags(write=False)
            self._keys[g] = keys

    def _gram(self, keys):
        """The exact ``±1`` Gram ``P − keys`` as float64."""
        return np.subtract(self._values.shape[1], keys, dtype=np.float64)

    def matrices(self, index_groups):
        """Similarity matrices for many channels, one per input group.

        Missing channels' keys are computed first (see
        :meth:`_ensure_keys`); each float64 matrix is then built fresh
        from its channel's keys (read-only, not cached — callers that
        need one channel at a time should ask one at a time).
        """
        groups = self._lookup(index_groups)
        self._ensure_keys(groups)
        n_patterns = self._values.shape[1]
        out = []
        for g in groups:
            if not g:
                out.append(similarity_from_values(self._values, g))
                continue
            matrix = self._gram(self._keys[g])
            matrix /= n_patterns
            np.fill_diagonal(matrix, 1.0)
            matrix.setflags(write=False)
            out.append(matrix)
        return out

    def sort_keys_many(self, index_groups):
        """Integer ordering keys for many channels in one pass.

        Returns the channels' cached read-only ``int16`` distance
        matrices (twice the pairwise Hamming distance) without
        materializing their float64 similarity: the key ``2d[a, b]`` is
        an exact monotone image of the ordering weight
        ``1 − similarity = 2d/P`` — within any row (and globally), keys
        compare and tie exactly as the weights do.
        :func:`~repro.noise.ordering.woss_ordering` uses them to replace
        its per-step masked argmin with one sorted prefix walk.
        ``None`` entries mark unavailable groups (empty channel, or more
        than 16383 patterns — keys reach ``2P``, beyond ``int16``).
        """
        groups = self._lookup(index_groups)
        self._ensure_keys(groups)
        return [k if k is not None and k.dtype == np.int16 else None
                for k in map(self._keys.get, groups)]

    def sort_keys(self, indices):
        """Ordering keys for one channel — see :meth:`sort_keys_many`."""
        return self.sort_keys_many([indices])[0]

    def path_dissimilarity(self, indices, order=None):
        """Σ ``1 − similarity`` over adjacent pairs — one channel's
        stage-1 ordering cost.

        ``order`` is a position permutation (default: the given track
        order).  Computed by gathering the cached keys, without
        materializing the channel's float64 matrix; bitwise-equal to
        summing ``1 − matrix(indices)`` over the same pairs, since the
        elementwise ``1 − s`` commutes with the gather.
        """
        g = indices if type(indices) is tuple else tuple(
            int(i) for i in indices)
        if len(g) < 2:
            return 0.0
        self._ensure_keys([g])
        keys = self._keys[g]
        if order is None:
            s = self._gram(np.diagonal(keys, 1))
        else:
            idx = np.asarray(order, dtype=np.int64)
            s = self._gram(keys[idx[:-1], idx[1:]])
        s /= self._values.shape[1]
        return float(np.sum(1.0 - s))

    def pair(self, i, j):
        """Similarity between node indices ``i`` and ``j`` (cached)."""
        return float(self.matrix([i, j])[0, 1])

    def toggle_rate(self, index):
        """Fraction of consecutive cycles on which node ``index`` changes."""
        row = self._values[index]
        if row.size < 2:
            return 0.0
        return float(np.mean(row[1:] != row[:-1]))
