"""Independent oracle for the tests: the ``LDL^T`` factor of a symmetric tridiagonal
and its solve as two scalar recurrences, the shift-invert solve that
``kernels._cyclic_factor`` and ``kernels._cyclic_solve`` replaced."""

import numpy as np


def ldl(diag, off):
    """The ``LDL^T`` factor of the tridiagonal of diagonal ``diag`` and off-diagonal ``off``
    as ``(forward, backward, d)``: the subdiagonal of the unit ``L`` led by a 0, the same
    reversed, and the pivots; None unless every pivot is positive (positive definite)."""
    pivot = float(diag[0])
    pivots, multipliers = [pivot], [0.0]
    for ai, bi in zip(diag[1:].tolist(), off.tolist()):
        if not pivot > 0.0:
            return None
        multipliers.append(bi / pivot)
        pivot = ai - multipliers[-1] * bi
        pivots.append(pivot)
    if not pivot > 0.0:
        return None
    return multipliers, [0.0] + multipliers[:0:-1], np.array(pivots)


def ldl_solve(factor, r):
    """``x`` with ``L D L^T x = r`` for the factor of :func:`ldl`: two scalar recurrences."""
    forward, backward, pivots = factor
    y, prev = [], 0.0
    for ri, li in zip(r.tolist(), forward):
        prev = ri - li * prev
        y.append(prev)
    x, prev = [], 0.0
    for zi, li in zip(reversed((np.array(y) / pivots).tolist()), backward):
        prev = zi - li * prev
        x.append(prev)
    return np.array(x[::-1])
