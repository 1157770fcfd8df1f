"""Crosstalk modeling (paper Sec. 3) and the ordering stage.

* :mod:`~repro.noise.coupling` — physical coupling capacitance, its
  posynomial Taylor truncation, and the Theorem 1 error bound,
* :mod:`~repro.noise.similarity` — cycle-accurate switching similarity
  from levelized values,
* :mod:`~repro.noise.miller` — Miller / anti-Miller weighting modes,
* :mod:`~repro.noise.ordering` — the WOSS heuristic (Fig. 7) plus exact
  and baseline orderings for the NP-hard ``SS`` problem,
* :mod:`~repro.noise.crosstalk` — :class:`CouplingSet`, the vectorized
  weighted-coupling structure consumed by the sizing engine.
"""

from repro.noise.coupling import (
    coupling_capacitance_exact,
    coupling_capacitance_taylor,
    truncation_error_ratio,
)
from repro.noise.crosstalk import CouplingSet
from repro.noise.miller import MillerMode, miller_weight
from repro.noise.ordering import (
    exact_ordering,
    ordering_cost,
    random_ordering,
    two_opt_improve,
    woss_ordering,
)
from repro.noise.similarity import SimilarityAnalyzer, similarity_from_values

__all__ = [
    "coupling_capacitance_exact",
    "coupling_capacitance_taylor",
    "truncation_error_ratio",
    "MillerMode",
    "miller_weight",
    "woss_ordering",
    "exact_ordering",
    "random_ordering",
    "two_opt_improve",
    "ordering_cost",
    "SimilarityAnalyzer",
    "similarity_from_values",
    "CouplingSet",
]
