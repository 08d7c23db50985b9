"""Shared helper: the numpy reference for F_p elimination.

``ref_rref`` is a column-by-column Gauss-Jordan elimination with one
vectorized numpy update per pivot.  It shares no code with
:class:`advshare.gfp.GaussJordan` or the rank kernels, so the
tests check those fast paths against it, and ``ref_rank``, ``ref_solve``
and ``ref_kernel`` read their answers off it.
"""

import numpy as np

from advshare import gfp


def ref_rref(m, p):
    """``(r, rank, pivot_columns)`` as :func:`advshare.gfp.rref` returns them."""
    a = gfp.as_matrix(m, p).copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pivot_row = r + int(nz[0])
        if pivot_row != r:
            a[[r, pivot_row]] = a[[pivot_row, r]]
        a[r] = (a[r] * gfp.inv_scalar(int(a[r, c]), p)) % p
        # Clear the column everywhere else in one vectorized pass.
        factors = a[:, c].copy()
        factors[r] = 0
        a = (a - np.outer(factors, a[r])) % p
        pivots.append(c)
        r += 1
    return a, len(pivots), pivots


def ref_rank(m, p):
    return ref_rref(m, p)[1]


def ref_kernel(m, p):
    """Null space basis: 1 at each free column, in order, and ``-r[row, c]``
    at each pivot column."""
    r, _, pivots = ref_rref(m, p)
    cols = r.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for row_idx, pc in enumerate(pivots):
            basis[i, pc] = (-r[row_idx, fc]) % p
    return basis


def ref_solve(m, b, p):
    """The solution of ``m @ x = b`` with every free variable 0, or None.

    A 2-d ``b`` holds one right-hand side per column: one elimination of
    ``[m | b]`` gives each column's solution as a column of x, or None if
    some column has none."""
    a = gfp.as_matrix(m, p)
    rhs = gfp.as_matrix(b, p) if np.ndim(b) == 2 else gfp.as_vector(b, p)[:, None]
    r, _, pivots = ref_rref(np.concatenate([a, rhs], axis=1), p)
    cols = a.shape[1]
    if any(pc >= cols for pc in pivots):
        return None
    x = np.zeros((cols, rhs.shape[1]), dtype=np.int64)
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx, cols:]
    return x if np.ndim(b) == 2 else x[:, 0]
