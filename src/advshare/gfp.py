"""Linear algebra over the prime field F_p for small p.

Scalars are plain Python ints in ``[0, p)``, vectors and matrices are integer
numpy arrays taken modulo ``p``.  Every routine takes the modulus explicitly,
except the F_2 pair :func:`pack_bits` / :func:`packed_rank`, and returns
freshly allocated arrays; nothing is mutated in place.

Supported moduli are the small primes 2, 3, 5 and 7.  The share-set walks
of :mod:`advshare.access` visit up to sum_w C(n, w) sets and rank each one,
so they cap problem sizes long before larger fields become interesting.
Those ranks come from two forward eliminations that loop over the cheaper
side of each matrix in narrow words: :func:`batched_rank` on uint8 entries
at odd p, and at p = 2 :func:`packed_rank`, which holds each row as uint64
words, one bit per entry, and eliminates by XOR.  A numpy step costs about
the same for one matrix as for a thousand, so at p = 2 a batch of fewer
than :data:`INT_RANK_BATCH` matrices, and the single matrix of
:func:`rank`, is ranked on Python ints instead (:func:`_xor_rank`): one
XOR per row per matrix, against one numpy step per row for the batch.
:func:`solution_maps` runs the batched int64 Gauss-Jordan core
:func:`_reduce`, which returns each matrix's pivot rows; :func:`rref` keeps
its own single-matrix loop.

Reduced forms are deterministic: the pivot for each column is the first row
with a nonzero entry, and pivots are normalized to 1, so they are
reproducible across runs.  A rank does not depend on the pivots, so the
rank kernels pick whichever is cheapest.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

PRIMES = (2, 3, 5, 7)

#: Default cap on the vectors an exhaustive span scan, or the share sets a
#: share-set walk (:mod:`advshare.access`), may visit.
DEFAULT_ENUM_BUDGET = 2**20

#: Default cap on dense state and matrix sizes (amplitude count p**m).
DEFAULT_STATE_BUDGET = 2**12

#: Vectors per block that :func:`iter_span` yields.
SPAN_BLOCK = 1 << 14

#: Batches of fewer matrices than this are ranked by :func:`packed_rank` one
#: matrix at a time on Python ints, about one XOR per row per matrix, rather
#: than by a numpy elimination, one step of about 10 us per row whatever the
#: batch.  Of 8, 16 and 32, timed in-process on the benchmark ladders (one
#: 2-vCPU VM), 8 was the fastest; 16 was within noise of it and 32 slower
#: on ``access``.
INT_RANK_BATCH = 8


def check_modulus(p: int) -> int:
    if p not in PRIMES:
        raise ValueError(f"modulus must be one of {PRIMES}, got {p}")
    return p


def as_matrix(m, p: int) -> np.ndarray:
    """Coerce to a 2-d int64 array reduced mod p."""
    check_modulus(p)
    a = np.asarray(m, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    return a % p


def as_vector(v, p: int) -> np.ndarray:
    check_modulus(p)
    a = np.asarray(v, dtype=np.int64)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-d array, got shape {a.shape}")
    return a % p


def inv_scalar(a: int, p: int) -> int:
    """Multiplicative inverse of a nonzero scalar mod prime p."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return pow(a, p - 2, p)


def rref(m, p: int) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form.

    Returns ``(r, rank, pivot_columns)`` where ``r`` is row-equivalent to
    ``m``, fully reduced, with pivot entries normalized to 1 and zero rows
    (if any) at the bottom.  ``pivot_columns`` is strictly increasing.
    """
    a = as_matrix(m, p)
    rows, cols = a.shape
    a = a.copy()
    pivots: list[int] = []
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
        a[r] = (a[r] * inv_scalar(int(a[r, c]), p)) % p
        # Clear the column everywhere else in one vectorized pass.
        factors = a[:, c].copy()
        factors[r] = 0
        a = (a - np.outer(factors, a[r])) % p
        pivots.append(c)
        r += 1
    return a, len(pivots), pivots


def rank(m, p: int) -> int:
    if p != 2:
        return rref(m, p)[1]
    rows = np.packbits(as_matrix(m, 2).astype(np.uint8), axis=1, bitorder="little")
    return _xor_rank(int.from_bytes(row, "little") for row in rows.tolist())


def _xor_rank(rows) -> int:
    """F_2 rank of rows given as Python ints, entry c in bit c.

    Each row is reduced by the kept rows, keyed by their lowest set bit:
    XORing in the kept row whose key is the row's lowest bit clears that bit
    and leaves only higher ones.  A row left nonzero is kept under its new
    lowest bit, so kept rows have distinct lowest bits and are independent,
    and every row lies in their span.
    """
    kept: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            pivot = kept.get(low)
            if pivot is None:
                kept[low] = row
                break
            row ^= pivot
    return len(kept)


def _reduce(a: np.ndarray, p: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan elimination of the first ``cols`` columns of every matrix
    in a ``(batch, rows, width)`` int64 stack reduced mod p, in place: the
    core of :func:`solution_maps`, which needs the reduced rows, not only
    their number (ranks come from :func:`batched_rank`).

    For each column, every matrix picks its first row with a nonzero entry
    that holds no earlier pivot and clears that column from all its other
    rows.  Rows are neither swapped nor normalised: ``pivot_row[b, c]`` is
    the row of matrix b holding column c's pivot, or -1 if it has none, and
    that row times the inverse of its pivot entry, ``v ** (p - 2)`` by
    Fermat, is a row of the reduced row echelon form.  Returns
    ``(a, pivot_row)``.
    """
    batch, rows, _ = a.shape
    pivot_row = np.full((batch, cols), -1, dtype=np.intp)
    every = np.arange(batch)
    used = np.zeros((batch, rows), dtype=bool)
    for c in range(cols):
        candidates = (a[:, :, c] != 0) & ~used
        found = candidates.any(axis=1)
        if not found.any():
            continue
        pivot = candidates.argmax(axis=1)
        row = a[every, pivot, c:]
        # A matrix without a pivot here scales by 0 and clears nothing.  The
        # pivot row is 0 left of c, so only columns c.. change.  Factors stay
        # unreduced (below p**(p-1)), and the update reduces once.
        factors = a[:, :, c] * (row[:, 0] ** (p - 2) * found)[:, None]
        factors[every, pivot] = 0
        a[:, :, c:] = (a[:, :, c:] - factors[:, :, None] * row[:, None, :]) % p
        used[every[found], pivot[found]] = True
        pivot_row[found, c] = pivot[found]
    return a, pivot_row


#: ``_INVERSES[p][v]`` is the inverse of v mod p, and 0 for v = 0.
_INVERSES = {
    p: np.array([0] + [inv_scalar(v, p) for v in range(1, p)], dtype=np.uint8) for p in PRIMES
}


def batched_rank(stack, p: int) -> np.ndarray:
    """Rank of every matrix in a ``(batch, rows, cols)`` stack.

    One forward elimination runs over the whole batch at once, on uint8
    entries laid out ``(short, long, batch)``: it steps along the shorter
    side of each matrix, and every update runs along the batch.  At each
    step every matrix picks a line (a row or column of the longer side) with
    a nonzero entry, scales it to a pivot of 1 and clears the step from every
    line, the pivot line included.  A pivot line is thereby zeroed and never
    chosen again, so a matrix's rank is the number of steps that found a
    pivot.
    """
    check_modulus(p)
    a = np.asarray(stack)
    if a.ndim != 3:
        raise ValueError(f"expected a 3-d stack, got shape {a.shape}")
    order = (1, 2, 0) if a.shape[2] > a.shape[1] else (2, 1, 0)
    view = a.transpose(order)
    # Reduced before narrowing, so that negative or large entries do not wrap.
    a = np.remainder(view, p, out=np.empty(view.shape, dtype=np.uint8), casting="unsafe")
    steps, _, batch = a.shape
    ranks = np.zeros(batch, dtype=np.int64)
    every = np.arange(batch)
    inverses = _INVERSES[p]
    # Entries are kept only up to congruence mod p: an update adds at most
    # p * (p - 1), and the block is reduced when the next one could pass 255.
    bound = p - 1
    for c in range(steps):
        column = a[c] % p
        pivots = a[c:, column.argmax(axis=0), every] % p
        # A matrix without a pivot here picks a line that is 0 at c, which
        # scales to zero and clears nothing.
        lead = pivots[0]
        ranks += lead != 0
        pivots = pivots[1:] * inverses[lead] % p
        if bound + p * (p - 1) > 255:
            a[c + 1 :] %= p
            bound = p - 1
        a[c + 1 :] += (p - column) * pivots[:, None, :]
        bound += p * (p - 1)
    return ranks


def pack_bits(m) -> np.ndarray:
    """The 0/1 entries of the last axis packed into uint64 words.

    Entry c lands in bit ``c % 64`` of word ``c // 64``; an axis of length
    L becomes ``ceil(L / 64)`` words, the last one zero-padded.
    """
    a = np.asarray(m, dtype=np.int64) % 2
    bytes_ = np.packbits(a.astype(np.uint8), axis=-1, bitorder="little")
    words = -(-a.shape[-1] // 64)
    pad = [(0, 0)] * (a.ndim - 1) + [(0, 8 * words - bytes_.shape[-1])]
    return np.ascontiguousarray(np.pad(bytes_, pad)).view("<u8").astype(np.uint64)


def packed_rank(stack) -> np.ndarray:
    """F_2 rank of every matrix in a ``(batch, rows, words)`` stack of rows
    packed by :func:`pack_bits`.

    A batch of fewer than :data:`INT_RANK_BATCH` matrices is ranked one
    matrix at a time by :func:`_xor_rank`, each row read as the Python int
    ``sum(word << 64 * i)``.  Otherwise one forward elimination runs over the
    whole batch at once, along the side of the stack that costs less: its
    rows, or the bits that some row carries.

    * Row by row, when rows fit one word and are fewer than twice those
      bits: row i's lowest set bit is its pivot, and row i is XORed into
      each later row with that bit.  No later row keeps an earlier pivot, so
      the rows left nonzero when their turn comes are independent and a
      matrix's rank is their number.  Step i touches only the rows after i,
      about rows**2 / 2 row updates in all, against bits * rows below.
    * Bit by bit otherwise: for each bit, every matrix picks its first row
      with that bit set as the pivot and XORs it into each of its rows with
      the bit set, the pivot row included.  A pivot row is thereby zeroed
      and never chosen again, so a matrix's rank is its number of pivots.
    """
    a = np.asarray(stack, dtype=np.uint64)
    if a.ndim != 3:
        raise ValueError(f"expected a 3-d stack, got shape {a.shape}")
    batch, rows, words = a.shape
    if batch < INT_RANK_BATCH:
        # tolist() gives Python ints, which never mix with uint64 on NumPy 1.x.
        ints = ((sum(w << 64 * i for i, w in enumerate(row)) for row in mat) for mat in a.tolist())
        return np.array([_xor_rank(mat) for mat in ints], dtype=np.int64)
    ranks = np.zeros(batch, dtype=np.int64)
    if a.size == 0:
        return ranks
    present = np.bitwise_or.reduce(a, axis=(0, 1))
    if words == 1 and rows < 2 * int(present[0]).bit_count():
        # One row of the whole batch at a time, contiguous along the batch.
        a = a[:, :, 0].T.copy()
        for i in range(rows):
            row = a[i]
            ranks += row != 0
            low = row & (~row + np.uint64(1))
            later = a[i + 1 :]
            later ^= row * ((later & low) != 0)
        return ranks
    a = a.copy()
    every = np.arange(batch)
    for w in range(words):
        bits = int(present[w])
        while bits:
            low = bits & -bits
            bits ^= low
            has = (a[:, :, w] & np.uint64(low)) != 0
            pivot_rows = a[every, has.argmax(axis=1)]
            # A matrix without the bit picks row 0, which lacks it too.
            ranks += (pivot_rows[:, w] & np.uint64(low)) != 0
            a ^= pivot_rows[:, None, :] * has[:, :, None]
    return ranks


def kernel(m, p: int) -> np.ndarray:
    """Basis of the right null space, one vector per row.

    The basis vectors carry a 1 in "their" free column and are returned in
    reduced form; the row count is ``cols - rank(m)``.
    """
    a = as_matrix(m, p)
    rows, cols = a.shape
    r, rk, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for row_idx, pc in enumerate(pivots):
            basis[i, pc] = (-r[row_idx, fc]) % p
    return basis


def solve(m, b, p: int) -> Optional[np.ndarray]:
    """One solution ``x`` of ``m @ x = b`` mod p, or None if none exists."""
    a = as_matrix(m, p)
    rhs = as_vector(b, p)
    if rhs.shape[0] != a.shape[0]:
        raise ValueError(f"rhs length {rhs.shape[0]} != row count {a.shape[0]}")
    aug = np.concatenate([a, rhs[:, None]], axis=1)
    r, _, pivots = rref(aug, p)
    cols = a.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx, cols]
    return x


def solution_maps(stack, p: int) -> np.ndarray:
    """For each matrix m of a ``(batch, rows, cols)`` stack, the (cols, rows)
    matrix S with ``S @ b % p == solve(m, b, p)`` for every b that has a
    solution.

    One Gauss-Jordan elimination (:func:`_reduce`) of every ``[m | I]``
    runs over the whole batch at once.  Each pivot row, times the inverse
    of its pivot, is a row of the reduced row echelon form of m, which is
    unique, so for b = m x the reduced b is that form applied to x whatever
    the pivot order: each pivot variable takes its pivot row of the
    identity part and each free variable is 0, as in :func:`solve`.  S says
    nothing about solvability: check ``m @ x == b`` before using x.
    """
    check_modulus(p)
    a = np.asarray(stack, dtype=np.int64) % p
    if a.ndim != 3:
        raise ValueError(f"expected a 3-d stack, got shape {a.shape}")
    batch, rows, cols = a.shape
    eye = np.broadcast_to(np.eye(rows, dtype=np.int64), (batch, rows, rows))
    a, pivot_row = _reduce(np.concatenate([a, eye], axis=2), p, cols)
    which, col = np.nonzero(pivot_row >= 0)
    pivots = a[which, pivot_row[which, col]]
    scale = pivots[np.arange(col.size), col] ** (p - 2)
    maps = np.zeros((batch, cols, rows), dtype=np.int64)
    maps[which, col] = pivots[:, cols:] * scale[:, None] % p
    return maps


def in_row_space(m, v, p: int) -> bool:
    """Whether v lies in the row space of m."""
    return solve(as_matrix(m, p).T, v, p) is not None


def iter_span(basis, p: int) -> Iterator[np.ndarray]:
    """Yield all p**dim vectors of the span of ``basis`` in blocks of
    :data:`SPAN_BLOCK`.

    Coefficient tuples are enumerated in mixed-radix order (last coefficient
    fastest), so the zero vector is always the first entry of the first
    block.  Callers enforce their own budgets before iterating.
    """
    a = as_matrix(basis, p)
    dim = a.shape[0]
    total = p**dim
    if dim == 0:
        yield np.zeros((1, a.shape[1]), dtype=np.int64)
        return
    radix = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, SPAN_BLOCK):
        idx = np.arange(start, min(start + SPAN_BLOCK, total), dtype=np.int64)
        coeffs = (idx[:, None] // radix[None, :]) % p
        yield (coeffs @ a) % p
