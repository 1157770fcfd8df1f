"""Sequential per-row reference for :func:`repro.timing.kernels.csr_matvec`.

Every kernel operator has unit coefficients, so row ``i`` of ``op·x`` is
the sum of ``x[j]`` over the row's indices.  This adds them one at a
time, in index order, onto ``0.0``::

    y[i] = ((0.0 + x[j0]) + x[j1]) + …

which is the accumulation SciPy's raw kernels perform, so the library's
product must equal it bit for bit, one column or K.
"""

import numpy as np


def csr_matvec(op, x):
    """``op·x`` for ``x`` of shape ``(n,)`` or ``(n, K)``, row by row."""
    assert np.all(op.data == 1.0), "kernel operators are unit-coefficient"
    x = np.asarray(x, dtype=float)
    indptr, indices = op.indptr.tolist(), op.indices.tolist()
    y = np.zeros((op.n_rows,) + x.shape[1:])
    for i in range(op.n_rows):
        acc = np.zeros(x.shape[1:])
        for j in indices[indptr[i]:indptr[i + 1]]:
            acc = acc + x[j]
        y[i] = acc
    return y
