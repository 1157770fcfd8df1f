"""Wire ordering for the Switching Similarity (``SS``) problem.

Given ``n`` wires and the pairwise weight ``1 − similarity(i,j)``, find a
track ordering minimizing the total effective loading between neighbors
``Σ weight(w_k, w_{k+1})`` — an open-path TSP.  The problem is NP-hard
and admits no constant-factor approximation (paper Theorems 2); the paper
proposes the greedy WOSS heuristic (Fig. 7).

This module implements WOSS exactly as printed, plus baselines used by
the ordering-quality ablation: exact Held–Karp for small channels, 2-opt
improvement, a both-ends greedy extension, and random orderings.

All functions take a symmetric weight matrix over channel *positions* and
return a permutation of positions (apply it to the channel via
:meth:`Channel.reordered`); :func:`woss_class_ordering` takes the
channel's classes of equal rows and the integer keys between them
instead, and returns the same WOSS permutation.
"""

import itertools

import numpy as np

from repro.utils.errors import GeometryError
from repro.utils.rng import make_rng

#: What a visited column reads in the keyed walk: above every 16-bit key.
_BLOCKED = 0x10000


def _check_weights(weights):
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise GeometryError("weights must be a square matrix")
    if weights.shape[0] == 0:
        raise GeometryError("weights must be non-empty")
    if not np.allclose(weights, weights.T):
        raise GeometryError("weights must be symmetric")
    return weights


def _path_cost(order, weights):
    """Σ weight of adjacent pairs, without validation (one fancy-index)."""
    idx = np.asarray(order, dtype=np.int64)
    return float(np.sum(weights[idx[:-1], idx[1:]]))


def ordering_cost(order, weights):
    """Total effective loading of ``order``: Σ weight of adjacent pairs."""
    weights = _check_weights(weights)
    order = list(order)
    if sorted(order) != list(range(weights.shape[0])):
        raise GeometryError("order must be a permutation of 0..n-1")
    return _path_cost(order, weights)


def woss_ordering(weights, sort_keys=None):
    """The paper's WOSS heuristic (Fig. 7), verbatim.

    A1: start with the minimum-weight edge ``(w1, w2)``.
    A2: repeatedly extend from the current *tail* ``w_{k-1}`` along its
    minimum-weight edge to an unvisited node.

    Ties go to the lowest index, in A1 (lowest row, then lowest column)
    and in A2.  O(n²) overall.  Returns a position permutation.

    ``sort_keys`` optionally replaces the float weights without changing
    the result: an integer matrix, entries in ``[0, 0xFFFF]``, whose
    entries order (and tie) exactly as ``weights`` does off the
    diagonal, globally as well as within each row — e.g. the scaled
    Hamming-distance keys ``2d`` from :meth:`SimilarityAnalyzer.sort_keys`,
    since the weight ``1 − s = 2d/P`` is strictly increasing in the
    integer distance ``d``.  With keys, each A2 step is one integer
    masked argmin over the tail's row (visited columns masked to a value
    above every key), and A1 scans the rows a block at a time; no float
    copy or sorted copy of the matrix is made.  The keys fully
    determine the result, so ``weights`` may then be ``None``.  The
    caller asserts the keys' monotone-equivalence contract *and* the
    weights' symmetry: the keys path checks shapes and range only,
    skipping :func:`_check_weights`'s O(n²) symmetry test.  Equality
    with the float loop below is pinned by ``tests/noise/test_ordering.py``.
    Stage 1 runs the keyed walk over classes of equal rows instead
    (:func:`woss_class_ordering`), with the same result.
    """
    if sort_keys is not None:
        sort_keys = _check_sort_keys(sort_keys)
        if weights is not None and \
                sort_keys.shape != np.asarray(weights, dtype=float).shape:
            raise GeometryError("sort_keys must match the weights shape")
        return _woss_walk(sort_keys)
    weights = _check_weights(weights)
    n = weights.shape[0]
    if n == 1:
        return [0]
    masked = weights.astype(float).copy()
    np.fill_diagonal(masked, np.inf)
    start = int(np.argmin(masked))
    w1, w2 = divmod(start, n)
    order = [int(w1), int(w2)]
    visited = np.zeros(n, dtype=bool)
    visited[w1] = visited[w2] = True
    while len(order) < n:
        tail = order[-1]
        row = np.where(visited, np.inf, masked[tail])
        order.append(int(np.argmin(row)))
        visited[order[-1]] = True
    return order


def woss_class_ordering(classes, class_keys):
    """WOSS over a channel whose wires fall into classes of equal rows.

    ``classes`` gives each position's class, numbered by first
    appearance (position 0 is in class 0, and each new class takes the
    next number); ``class_keys`` is the ``u × u`` integer key matrix
    between the classes (one representative row each), with the
    :func:`woss_ordering` key contract and a nonzero key between any two
    classes.  Returns the position permutation, equal to
    ``woss_ordering(None, sort_keys=class_keys[classes][:, classes])``.

    Why the collapse is exact: positions of one class have key 0 to
    each other and equal keys to every other position.  Under WOSS's
    rule — smallest key, then lowest index — a class, once entered, is
    finished in index order before the walk leaves it (its members are
    the only key-0 candidates), and the walk enters every class at its
    first position.  Among classes tied on key, the one with the lowest
    first position wins, which is the lowest class number.  A1 picks
    the first two positions of the first class with two or more
    members; when every class is a single position, ``class_keys`` is
    the per-position key matrix itself.  So the per-position walk is
    the walk over classes, starting at that class with A1 skipped (or
    with A1 when there is none), each class expanded in index order.
    The Gram and the walk shrink from ``width`` to ``u`` rows.
    """
    classes = np.asarray(classes)
    if classes.ndim != 1 or classes.size == 0 or \
            classes.dtype.kind not in "iu":
        raise GeometryError("classes must be a non-empty integer vector")
    seen = np.maximum.accumulate(classes)
    if classes[0] != 0 or classes.min() < 0 or np.any(np.diff(seen) > 1):
        raise GeometryError("classes must be numbered by first appearance")
    class_keys = _check_sort_keys(class_keys)
    n_classes = int(seen[-1]) + 1
    if class_keys.shape[0] != n_classes:
        raise GeometryError(
            f"class_keys must be {n_classes} × {n_classes}, one row per class")
    multi = np.flatnonzero(np.bincount(classes) >= 2)
    walk = _woss_walk(class_keys, int(multi[0]) if multi.size else None)
    rank = np.empty(n_classes, dtype=np.int64)
    rank[walk] = np.arange(n_classes)
    return np.argsort(rank[classes], kind="stable").tolist()


def _check_sort_keys(sort_keys):
    """Validated WOSS keys: a non-empty square integer matrix whose
    entries fit 16 unsigned bits (wider types come back as ``int32``)."""
    sort_keys = np.asarray(sort_keys)
    if sort_keys.ndim != 2 or sort_keys.shape[0] != sort_keys.shape[1] \
            or sort_keys.shape[0] == 0:
        raise GeometryError("sort_keys must be a non-empty square matrix")
    if sort_keys.dtype.kind not in "iu":
        raise GeometryError("sort_keys must be an integer matrix")
    if (sort_keys.dtype.kind == "i" and sort_keys.min() < 0) or \
            (sort_keys.itemsize > 2 and sort_keys.max() > 0xFFFF):
        raise GeometryError("sort_keys entries must fit 16 unsigned bits")
    return sort_keys if sort_keys.itemsize <= 2 else \
        sort_keys.astype(np.int32, copy=False)


def _woss_walk(keys, start=None):
    """WOSS on validated keys: A1 (or the walk ``[start]``), then A2."""
    n = keys.shape[0]
    if n == 1:
        return [0]
    if start is None:
        # A1: the lowest row holding the smallest off-diagonal key, then
        # the lowest column holding it in that row — the float loop's
        # row-major argmin.  Rows are widened a block at a time, so no
        # second n × n array is held.
        row_min = np.empty(n, dtype=np.int32)
        for lo in range(0, n, 256):
            block = keys[lo:lo + 256].astype(np.int32)
            diagonal = np.arange(len(block))
            block[diagonal, lo + diagonal] = _BLOCKED
            row_min[lo:lo + len(block)] = block.min(axis=1)
        w1 = int(row_min.argmin())
        row = keys[w1].astype(np.int32)
        row[w1] = _BLOCKED
        order = [w1, int(row.argmin())]
    else:
        order = [start]
    # A2: one masked argmin per step over the tail's keys — visited
    # columns read _BLOCKED, above every key, and argmin returns the
    # first minimum, so ties go to the lowest index.  O(n) per step in
    # C, with no sorted copy of the keys.
    blocked = np.zeros(n, dtype=np.int32)
    blocked[order] = _BLOCKED
    masked = np.empty(n, dtype=np.int32)
    tail = order[-1]
    for _ in range(n - len(order)):
        np.maximum(keys[tail], blocked, out=masked)
        tail = int(masked.argmin())
        blocked[tail] = _BLOCKED
        order.append(tail)
    return order


def greedy_both_ends(weights):
    """Extension of WOSS that may grow the path from either end.

    Same O(n²) cost; never worse than extending from one end only for
    the *next* step, though neither heuristic dominates globally.
    """
    weights = _check_weights(weights)
    n = weights.shape[0]
    if n == 1:
        return [0]
    masked = weights.astype(float).copy()
    np.fill_diagonal(masked, np.inf)
    start = int(np.argmin(masked))
    w1, w2 = divmod(start, n)
    order = [int(w1), int(w2)]
    visited = np.zeros(n, dtype=bool)
    visited[w1] = visited[w2] = True
    while len(order) < n:
        head_row = np.where(visited, np.inf, masked[order[0]])
        tail_row = np.where(visited, np.inf, masked[order[-1]])
        h, t = int(np.argmin(head_row)), int(np.argmin(tail_row))
        if head_row[h] < tail_row[t]:
            order.insert(0, h)
            visited[h] = True
        else:
            order.append(t)
            visited[t] = True
    return order


def exact_ordering(weights, max_n=14):
    """Optimal ordering by Held–Karp dynamic programming (open path).

    O(n²·2ⁿ); refuses channels larger than ``max_n``.  Used to certify
    heuristic quality in the ablation benches and tests.
    """
    weights = _check_weights(weights)
    n = weights.shape[0]
    if n > max_n:
        raise GeometryError(f"exact ordering limited to {max_n} wires, got {n}")
    if n == 1:
        return [0]
    full = (1 << n) - 1
    # best[mask][last] = (cost, predecessor)
    best = [dict() for _ in range(1 << n)]
    for v in range(n):
        best[1 << v][v] = (0.0, -1)
    for mask in range(1 << n):
        for last, (cost, _) in list(best[mask].items()):
            for nxt in range(n):
                bit = 1 << nxt
                if mask & bit:
                    continue
                cand = cost + weights[last, nxt]
                entry = best[mask | bit].get(nxt)
                if entry is None or cand < entry[0]:
                    best[mask | bit][nxt] = (cand, last)
    last = min(best[full], key=lambda v: best[full][v][0])
    order = [last]
    mask = full
    while best[mask][order[-1]][1] != -1:
        prev = best[mask][order[-1]][1]
        mask ^= 1 << order[-1]
        order.append(prev)
    return order[::-1]


def brute_force_ordering(weights, max_n=9):
    """Optimal ordering by enumeration — an independent oracle for tests."""
    weights = _check_weights(weights)
    n = weights.shape[0]
    if n > max_n:
        raise GeometryError(f"brute force limited to {max_n} wires, got {n}")
    best_order, best_cost = None, np.inf
    for perm in itertools.permutations(range(n)):
        if perm[0] > perm[-1]:
            continue  # a path and its reverse have equal cost
        cost = ordering_cost(perm, weights)
        if cost < best_cost:
            best_order, best_cost = list(perm), cost
    return best_order


def random_ordering(n, seed=0):
    """Uniformly random permutation (ablation baseline)."""
    if n < 1:
        raise GeometryError("need at least one wire")
    rng = make_rng(seed)
    return rng.permutation(n).tolist()


def two_opt_improve(order, weights, max_rounds=50):
    """2-opt local search: reverse segments while the cost drops.

    Standard TSP improvement applied to the open path; used to measure
    how far WOSS is from a local optimum.
    """
    weights = _check_weights(weights)
    order = list(order)
    n = len(order)
    if sorted(order) != list(range(weights.shape[0])):
        raise GeometryError("order must be a permutation of 0..n-1")
    for _ in range(max_rounds):
        improved = False
        for a in range(n - 1):
            for b in range(a + 1, n):
                # Reversing order[a..b] changes only the two boundary edges.
                before = 0.0
                after = 0.0
                if a > 0:
                    before += weights[order[a - 1], order[a]]
                    after += weights[order[a - 1], order[b]]
                if b < n - 1:
                    before += weights[order[b], order[b + 1]]
                    after += weights[order[a], order[b + 1]]
                if after < before - 1e-12:
                    order[a:b + 1] = reversed(order[a:b + 1])
                    improved = True
        if not improved:
            break
    return order
