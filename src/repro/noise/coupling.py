"""Physical coupling capacitance (paper Sec. 3.1, Eq. 2–3, Theorem 1).

The exact inter-wire coupling is hyperbolic in the wire sizes:

    c_ij(x) = ~c_ij / (1 − u),   u = (x_i + x_j) / (2·d_ij),  0 < u < 1

Because ``1/(1−u) = Σ uⁿ``, truncating the series after ``k`` terms gives
a posynomial approximation with relative error exactly ``uᵏ`` (Theorem 1).
The paper presents ``k = 2`` (the linear form ``~c·(1 + u)``) and notes
"extensions to a larger k are simple"; all functions here take the order
as a parameter, and the sizing engine supports k ≥ 2 as an ablation.
"""

import numpy as np

from repro.utils.errors import GeometryError


def _ratio(x_i, x_j, distance):
    x_i = np.asarray(x_i, dtype=float)
    x_j = np.asarray(x_j, dtype=float)
    if np.any(x_i < 0) or np.any(x_j < 0):
        raise GeometryError("wire sizes must be non-negative")
    return (x_i + x_j) / (2.0 * distance)


def coupling_capacitance_exact(ctilde, x_i, x_j, distance):
    """Exact hyperbolic coupling ``~c / (1 − u)`` (Eq. 2); requires u < 1.

    Vectorized over any mix of scalar/array arguments.
    """
    u = _ratio(x_i, x_j, distance)
    if np.any(u >= 1.0):
        raise GeometryError(
            "adjacent wires touch: (x_i + x_j)/2 must stay below the track distance"
        )
    return np.asarray(ctilde) / (1.0 - u)


def coupling_capacitance_taylor(ctilde, x_i, x_j, distance, order=2):
    """Posynomial approximation ``~c · Σ_{n<order} uⁿ`` (Eq. 3 for order=2).

    Unlike the exact form this is defined for every u ≥ 0 (it is the form
    the convex program optimizes), but it only *approximates* coupling
    for u < 1.
    """
    if order < 1:
        raise GeometryError("Taylor order must be >= 1")
    u = _ratio(x_i, x_j, distance)
    total = np.zeros_like(u)
    term = np.ones_like(u)
    for _ in range(order):
        total = total + term
        term = term * u
    return np.asarray(ctilde) * total


def truncation_error_ratio(u, order):
    """Theorem 1(2): the relative error of the ``order``-term truncation.

    ``(f(u) − f̂(u)) / f(u) = uᵏ`` for ``f(u) = 1/(1−u)`` and ``f̂`` the
    first ``k = order`` terms.  Vectorized; requires ``|u| < 1``.
    """
    if order < 1:
        raise GeometryError("Taylor order must be >= 1")
    u = np.asarray(u, dtype=float)
    if np.any(np.abs(u) >= 1.0):
        raise GeometryError("Theorem 1 requires |u| < 1")
    return u ** order


def taylor_derivative_factor(u, order):
    """d/dx_i of the truncated series divided by ``ĉ_ij = ~c/(2d)``.

    With ``u = (x_i + x_j)/(2d)``, the truncated coupling is
    ``~c·Σ_{n<k} uⁿ`` and its derivative w.r.t. ``x_i`` equals
    ``ĉ_ij · Σ_{1≤n<k} n·uⁿ⁻¹``.  For the paper's k = 2 this factor is
    exactly 1, which recovers the closed-form ``opt_i``; for k > 2 the
    sizing engine evaluates it at the current iterate
    (``docs/architecture.md``, "Model choices: generalizations").
    """
    if order < 1:
        raise GeometryError("Taylor order must be >= 1")
    u = np.asarray(u, dtype=float)
    total = np.zeros_like(u)
    term = np.ones_like(u)
    for n in range(1, order):
        total = total + n * term
        term = term * u
    return total
