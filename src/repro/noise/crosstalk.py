"""The weighted coupling structure consumed by the sizing engine.

:class:`CouplingSet` flattens the adjacent-pair geometry (from
:class:`~repro.geometry.layout.ChannelLayout`) and the per-pair Miller
weights (from switching similarity) into NumPy arrays, and evaluates:

* the crosstalk metric/constraint ``X(x) = Σ w_ij · c_ij(x)`` (Eq. 1),
* the per-node sums needed by Theorem 5's ``opt_i``
  (:meth:`CouplingSet.node_terms_batch`):
  ``Σ_{j∈N(i)} c_ij(x) − x_i·∂c_ij/∂x_i`` (numerator) and
  ``Σ_{j∈N(i)} ∂c_ij/∂x_i`` (denominator).

For the paper's Taylor order k = 2 the derivative ``∂c_ij/∂x_i`` is the
constant ``ĉ_ij`` and the two sums reduce literally to the paper's
``Σ ĉ_ij·x_j`` (plus the constant ``~c_ij`` absorbed in C'_i) and
``Σ ĉ_ij``.  Higher orders evaluate the same quantities at the current
iterate (see DESIGN.md §2 and ``noise/coupling.py``).

All constants here are already Miller-weighted: ``ctilde`` stores
``w_ij · ~c_ij`` and ``chat`` stores ``w_ij · ĉ_ij``, which preserves the
posynomial form because weights are non-negative constants (pairs with
weight 0 — perfect anti-Miller — are dropped).
"""

import collections

import numpy as np

from repro.noise.miller import MillerMode, miller_weight
from repro.utils.errors import GeometryError

#: Fused per-node coupling terms (see :meth:`CouplingSet.node_terms_batch`).
#: ``node_caps`` is ``None`` unless requested.
CouplingTerms = collections.namedtuple(
    "CouplingTerms", ("cap_sum", "dx_sum", "gamma_slopes", "node_caps"))


class CouplingSet:
    """Miller-weighted adjacent-pair coupling arrays.

    Parameters
    ----------
    num_nodes:
        Size of the node index space (pair endpoints must be below this).
    pairs:
        Iterable of :class:`~repro.geometry.layout.CouplingPair`
        (:meth:`from_arrays` takes the same geometry as arrays).
    weights:
        Per-pair Miller weights (same length as ``pairs``); defaults to
        all ones (physical coupling only).
    order:
        Taylor truncation order ``k ≥ 2`` of Eq. 3 (paper default 2).
    """

    def __init__(self, num_nodes, pairs, weights=None, order=2):
        pairs = list(pairs)
        self._setup(num_nodes,
                    np.array([p.i for p in pairs], dtype=np.int64),
                    np.array([p.j for p in pairs], dtype=np.int64),
                    *(np.array([getattr(p, field) for p in pairs], dtype=float)
                      for field in ("overlap", "distance", "unit_fringe")),
                    weights, order)

    @classmethod
    def from_arrays(cls, num_nodes, pair_i, pair_j, overlap, distance,
                    unit_fringe, weights=None, order=2):
        """A set straight from per-pair geometry arrays (no pair records).

        ``pair_i < pair_j`` are node indices; ``overlap``, ``distance``
        and ``unit_fringe`` (scalar or per pair) must be positive.
        """
        pair_i = np.asarray(pair_i, dtype=np.int64)
        pair_j = np.asarray(pair_j, dtype=np.int64)
        geometry = [np.asarray(a, dtype=float)
                    for a in (overlap, distance, unit_fringe)]
        if np.any(pair_i >= pair_j):
            raise GeometryError(
                "coupling pairs need i < j (dominating-index order)")
        if any(np.any(a <= 0) for a in geometry):
            raise GeometryError("overlap, distance, unit_fringe must be positive")
        self = cls.__new__(cls)
        self._setup(num_nodes, pair_i, pair_j, *geometry, weights, order)
        return self

    def _setup(self, num_nodes, pair_i, pair_j, overlap, distance,
               unit_fringe, weights, order):
        if order < 2:
            raise GeometryError("coupling Taylor order must be >= 2")
        if weights is None:
            weights = np.ones(len(pair_i))
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(pair_i),):
            raise GeometryError("weights must align one-to-one with pairs")
        if np.any(weights < 0):
            raise GeometryError("Miller weights must be non-negative")

        keep = weights > 0.0
        weights = weights[keep]
        distance = np.broadcast_to(distance, keep.shape)[keep]
        # ~c = f̂·l/d and ĉ = ~c/(2d), in CouplingPair's operation order.
        ctilde = np.broadcast_to(unit_fringe, keep.shape)[keep] \
            * overlap[keep] / distance

        self.num_nodes = int(num_nodes)
        self.order = int(order)
        self.pair_i = pair_i[keep]
        self.pair_j = pair_j[keep]
        if len(self.pair_i) and (self.pair_i.max(initial=0) >= num_nodes
                                 or self.pair_j.max(initial=0) >= num_nodes):
            raise GeometryError("pair endpoint outside the node index space")
        self.distance = distance
        self.weight = weights
        self.ctilde = weights * ctilde
        self.chat = weights * (ctilde / (2.0 * distance))
        self._endpoints = np.concatenate([self.pair_i, self.pair_j])
        self._two_distance = 2.0 * self.distance
        self._scratch = None

    # -- constructors -------------------------------------------------------------

    @classmethod
    def empty(cls, num_nodes, order=2):
        """A coupling-free set (baselines and tests)."""
        return cls(num_nodes, [], order=order)

    @classmethod
    def from_layout(cls, layout, analyzer=None, mode=MillerMode.SIMILARITY, order=2):
        """Extract pairs from ``layout`` and weight them by similarity.

        ``analyzer`` (a :class:`~repro.noise.similarity.SimilarityAnalyzer`)
        is required for the similarity-dependent modes and ignored by
        ``WORST``/``PHYSICAL``.  The pairs stay arrays end to end
        (:meth:`~repro.geometry.layout.ChannelLayout.pair_arrays`).
        """
        i_idx, j_idx, overlap = layout.pair_arrays()
        n_pairs = len(i_idx)
        mode = MillerMode(mode)
        if mode in (MillerMode.WORST, MillerMode.PHYSICAL):
            similarity = np.zeros(n_pairs)  # unused by these modes
        else:
            if analyzer is None:
                raise GeometryError(f"MillerMode.{mode.name} needs a SimilarityAnalyzer")
            # Over P patterns with h disagreements the ±1 products sum
            # to the integer P − 2h, so (P − 2h) / P is bit-identical to
            # their mean — counted from the analyzer's distinct rows.
            similarity = analyzer.pair_similarity(i_idx, j_idx)
        weights = miller_weight(similarity, mode) if n_pairs else np.zeros(0)
        return cls.from_arrays(
            layout.circuit.num_nodes, i_idx, j_idx, overlap,
            np.full(n_pairs, layout.pitch),
            layout.circuit.tech.coupling_unit_capacitance,
            weights=np.atleast_1d(weights), order=order)

    # -- evaluation ---------------------------------------------------------------

    @property
    def num_pairs(self):
        return len(self.pair_i)

    def size_ratio(self, x):
        """Per-pair ``u = (x_i + x_j) / (2·d_ij)``."""
        return (x[self.pair_i] + x[self.pair_j]) / (2.0 * self.distance)

    def pair_caps(self, x):
        """Weighted coupling capacitance per pair, Taylor order ``k`` (fF)."""
        u = self.size_ratio(x)
        total = np.zeros_like(u)
        term = np.ones_like(u)
        for _ in range(self.order):
            total += term
            term = term * u
        return self.ctilde * total

    def pair_caps_exact(self, x):
        """Weighted *hyperbolic* coupling per pair (model-error studies)."""
        u = self.size_ratio(x)
        if np.any(u >= 1.0):
            raise GeometryError("adjacent wires touch at these sizes")
        return self.ctilde / (1.0 - u)

    def total(self, x, exact=False):
        """The crosstalk metric ``X(x)`` in fF (paper reports pF)."""
        if self.num_pairs == 0:
            return 0.0
        caps = self.pair_caps_exact(x) if exact else self.pair_caps(x)
        return float(np.sum(caps))

    # -- solver hot path: K scenario columns in lockstep ----------------------------

    def _ensure_scratch(self):
        """Width-independent scratch: the static endpoint-scatter operator
        (row i lists the pairs touching node i, in stable endpoint order)
        and, for k = 2, the frozen per-node slope sums (memoized)."""
        if self._scratch is None:
            from repro.timing import kernels

            p, n = self.num_pairs, self.num_nodes
            s = self._scratch = {
                "op": kernels.CSROp.from_arrays(
                    self._endpoints, np.arange(2 * p) % p, n),
            }
            if self.order == 2:
                # Paper default k = 2: ∂c_ij/∂x_i = ĉ_ij is constant, so
                # the per-node slope sums never change — scatter once.
                dx_static = np.zeros(n)
                kernels.csr_matvec(s["op"], self.chat, dx_static)
                # Returned to every order-2 node_terms_batch caller:
                # freeze it so accidental in-place mutation fails loudly
                # instead of corrupting all subsequent solves.
                dx_static.setflags(write=False)
                s["dx_static"] = dx_static
        return self._scratch

    def _endpoint_scatter(self, pair_values, out, s):
        """``out[i] = Σ_{pairs touching i} value`` via the static operator."""
        from repro.timing import kernels

        kernels.csr_matvec(s["op"], pair_values, out)

    def _ensure_batch_scratch(self, k):
        """Width-``k`` scratch for the column-stacked paths (memoized).

        Shares the static endpoint-scatter operator across widths and
        holds the pair constants ``ctilde``, ``chat`` and ``2·distance``
        (and, for k = 2, the frozen slope sums) at the same width as the
        iterates: C-contiguous ``(p, k)`` / ``(n, k)`` copies at k ≥ 2,
        ``(p, 1)`` / ``(n, 1)`` views of the set's own arrays at k = 1.
        """
        base = self._ensure_scratch()
        cache = self.__dict__.setdefault("_batch_scratch", {})
        s = cache.pop(k, None)
        if s is None:
            p, n = self.num_pairs, self.num_nodes
            s = {
                "op": base["op"],
                "u": np.zeros((p, k)), "term": np.zeros((p, k)),
                "tmp": np.zeros((p, k)), "caps": np.zeros((p, k)),
                "slopes": np.zeros((p, k)), "pw": np.zeros((p, k)),
                "cap_sum": np.zeros((n, k)), "dx_sum": np.zeros((n, k)),
                "gamma_slopes": np.zeros((n, k)),
                "node_caps": np.zeros((n, k)), "node_tmp": np.zeros((n, k)),
            }
            constants = {"ctilde": self.ctilde, "chat": self.chat,
                         "two_distance": self._two_distance}
            if self.order == 2:
                constants["dx_static"] = base["dx_static"]
            for name, values in constants.items():
                column = values[:, None]
                s[name] = column if k == 1 else np.repeat(column, k, axis=1)
                s[name].flags.writeable = False  # dx_sum reaches callers
            # Same LRU bound as kernels.BatchWorkspace: a batch visiting
            # many widths must not pool scratch for every one of them.
            while len(cache) >= 6:
                cache.pop(next(iter(cache)))
        cache[k] = s   # (re)insert as most recent
        return s

    def node_terms_batch(self, x, gamma, node_caps=False):
        """All Theorem 5 coupling terms in one traversal, for column-stacked
        ``(n, K)`` iterates (K = 1 is one scenario).

        Returns a :class:`CouplingTerms` of ``(n, K)`` arrays:

        * ``cap_sum[i] = Σ_{j∈N(i)} (c_ij(x) − x_i·∂c_ij/∂x_i)`` — the
          coupling contribution to the ``opt_i`` numerator (for k = 2:
          ``Σ (~c_ij + ĉ_ij·x_j)``),
        * ``dx_sum[i] = Σ_{j∈N(i)} ∂c_ij/∂x_i`` — the coupling slope in
          the denominator (for k = 2: ``Σ ĉ_ij``),
        * ``gamma_slopes[i] = Σ_{j∈N(i)} γ_owner(i,j) · ∂c_ij/∂x_i``,
        * with ``node_caps=True``, the per-node total coupling
          capacitance (:meth:`node_coupling_caps`, needed by the
          ``PROPAGATED`` delay mode) riding along for free.

        ``gamma`` is a ``(K,)`` vector of per-scenario scalar multipliers
        or an ``(n, K)`` matrix of per-net multipliers (one column per
        scenario; entry read at each pair's owner).  The size ratio, the
        Taylor factors of both series and the endpoint scatter are each
        evaluated once, and every column is independent of the others.
        Returned arrays live in width-keyed scratch reused by the next
        batched call — consume them before calling again.
        """
        k = x.shape[1]
        gamma = np.asarray(gamma, dtype=float)
        per_net = gamma.ndim == 2
        if self.num_pairs == 0:
            zeros = np.zeros((4, self.num_nodes, k))
            return CouplingTerms(zeros[0], zeros[1], zeros[2],
                                 zeros[3] if node_caps else None)
        s = self._ensure_batch_scratch(k)
        u, term, tmp = s["u"], s["term"], s["tmp"]
        caps, slopes = s["caps"], s["slopes"]
        x.take(self.pair_i, 0, u, "clip")
        x.take(self.pair_j, 0, tmp, "clip")
        np.add(u, tmp, out=u)
        np.divide(u, s["two_distance"], out=u)
        if self.order == 2:
            # k = 2 closed form: c = ~c·(1 + u), constant slopes ĉ.
            np.multiply(u, s["ctilde"], out=caps)
            np.add(caps, s["ctilde"], out=caps)
            slopes = s["chat"]
        else:
            caps.fill(1.0)
            slopes.fill(0.0)
            term.fill(1.0)
            for order_n in range(1, self.order):
                np.multiply(term, float(order_n), out=tmp)
                np.add(slopes, tmp, out=slopes)
                np.multiply(term, u, out=term)
                np.add(caps, term, out=caps)
            np.multiply(caps, s["ctilde"], out=caps)
            np.multiply(slopes, s["chat"], out=slopes)

        cap_sum, dx_sum, gs = s["cap_sum"], s["dx_sum"], s["gamma_slopes"]
        self._endpoint_scatter(caps, cap_sum, s)
        if self.order == 2:
            dx_sum = s["dx_static"]
        else:
            self._endpoint_scatter(slopes, dx_sum, s)
        out_caps = None
        if node_caps:
            out_caps = s["node_caps"]
            np.copyto(out_caps, cap_sum)
        if per_net:
            pw = s["pw"]
            gamma.take(self.owner, 0, pw, "clip")
            np.multiply(pw, slopes, out=pw)
            self._endpoint_scatter(pw, gs, s)
        else:
            np.multiply(dx_sum, gamma, out=gs)
        np.multiply(x, dx_sum, out=s["node_tmp"])
        np.subtract(cap_sum, s["node_tmp"], out=cap_sum)
        return CouplingTerms(cap_sum, dx_sum, gs, out_caps)

    def node_coupling_caps(self, x):
        """Per-node total coupling cap ``Σ_{j∈N(i)} c_ij(x)`` (delay model).

        Accepts ``(n,)`` or column-stacked ``(n, K)`` sizes.  The batched
        branch replays :meth:`pair_caps`'s exact accumulation per column
        and scatters through the static endpoint operator, whose
        per-node addition order matches the scalar ``bincount`` bitwise
        (stable endpoint sort).
        """
        if x.ndim == 2:
            k = x.shape[1]
            if self.num_pairs == 0:
                return np.zeros((self.num_nodes, k))
            s = self._ensure_batch_scratch(k)
            u, term, total = s["u"], s["term"], s["tmp"]
            x.take(self.pair_i, 0, u, "clip")
            x.take(self.pair_j, 0, total, "clip")
            np.add(u, total, out=u)
            np.divide(u, s["two_distance"], out=u)
            # pair_caps' spelling verbatim: Σ_{m<k} uᵐ, then ·~c.
            total.fill(0.0)
            term.fill(1.0)
            for _ in range(self.order):
                np.add(total, term, out=total)
                np.multiply(term, u, out=term)
            np.multiply(total, s["ctilde"], out=total)
            out = np.empty((self.num_nodes, k))
            self._endpoint_scatter(total, out, s)
            return out
        if self.num_pairs == 0:
            return np.zeros(self.num_nodes)
        caps = self.pair_caps(x)
        return np.bincount(self._endpoints, weights=np.concatenate([caps, caps]),
                           minlength=self.num_nodes).astype(float)

    def totals_batch(self, x):
        """``X(x)`` for column-stacked ``(n, K)`` sizes, one value per column.

        Column ``j`` is bitwise-equal to :meth:`total` at that column:
        the per-pair capacitances replay :meth:`pair_caps`'s spelling
        over the batch scratch, and each column is summed as a
        contiguous vector (row of one transposed copy) — the exact
        pairwise reduction ``np.sum`` runs on the scalar path.
        """
        k = x.shape[1]
        if self.num_pairs == 0:
            return np.zeros(k)
        s = self._ensure_batch_scratch(k)
        u, term, total = s["u"], s["term"], s["tmp"]
        x.take(self.pair_i, 0, u, "clip")
        x.take(self.pair_j, 0, total, "clip")
        np.add(u, total, out=u)
        np.divide(u, s["two_distance"], out=u)
        total.fill(0.0)
        term.fill(1.0)
        for _ in range(self.order):
            np.add(total, term, out=total)
            np.multiply(term, u, out=term)
        np.multiply(total, s["ctilde"], out=total)
        cols = np.ascontiguousarray(total.T)
        return np.array([np.sum(col) for col in cols])

    # -- per-net (distributed-bound) views ----------------------------------------

    @property
    def owner(self):
        """Constraint owner of each pair: the dominating-index convention.

        The paper sums pair ``(i, j)`` into wire ``i``'s term via
        ``j ∈ I(i)`` (neighbors with larger index), so the lower-index
        wire owns the pair.  Used by the distributed-bound extension.
        """
        return self.pair_i

    def net_caps(self, x):
        """Per-node owned crosstalk ``X_i(x) = Σ_{j∈I(i)} c_ij(x)`` (fF).

        Summing over owners: ``net_caps(x).sum() == total(x)``.
        """
        out = np.zeros(self.num_nodes)
        if self.num_pairs:
            out = np.bincount(self.owner, weights=self.pair_caps(x),
                              minlength=self.num_nodes).astype(float)
        return out

    @property
    def nbytes(self):
        total = 0
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
        return total

    def __repr__(self):
        return f"CouplingSet(pairs={self.num_pairs}, order={self.order})"
