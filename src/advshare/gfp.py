"""Linear algebra over the prime field F_p for small p.

Scalars are plain Python ints in ``[0, p)``, vectors and matrices are integer
numpy arrays taken modulo ``p``.  Every routine takes the modulus explicitly,
except the F_2 pair :func:`pack_bits` / :func:`packed_rank`, and returns
freshly allocated arrays; no argument is mutated in place.

Supported moduli are the small primes 2, 3, 5 and 7.

A single matrix goes through one elimination on Python ints,
:class:`GaussJordan`: :func:`rref`, :func:`kernel`, :func:`solve`,
:func:`in_row_space` and :func:`rank` at odd p read their answers off it,
and so do the symplectic completion of :mod:`advshare.clifford` and each
erased set's correction map in :mod:`advshare.sim`.

Batches go to narrow kernels.  The share-set walks of
:mod:`advshare.access` visit up to sum_w C(n, w) sets and rank each one,
so they cap problem sizes long before larger fields become interesting.
Those ranks come from two forward eliminations that loop over the cheaper
side of each matrix in narrow words: :func:`batched_rank` on uint8 entries
at odd p, and at p = 2 :func:`packed_rank`, which holds each row as uint64
words, one bit per entry, and eliminates by XOR.  A numpy step costs about
the same for one matrix as for a thousand, so at p = 2 a batch of fewer
than :data:`INT_RANK_BATCH` matrices, and the single matrix of
:func:`rank`, is ranked on Python ints instead (:func:`_xor_rank`): one
XOR per row per matrix, against one numpy step per row for the batch.
A rank does not depend on which lines hold the pivots, so each rank
kernel steps along whichever side is cheaper.  :func:`batched_rank` lays
its stack out batch-last in one copy, with no division pass when the
stack is uint8 and already below p, gathers each step's pivot lines into
a C-contiguous buffer, and reads residues off per-p tables.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

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


#: ``_RESIDUES[p]`` maps each byte to its residue mod p, for ``bytes.translate``.
_RESIDUES = {p: bytes(v % p for v in range(256)) for p in PRIMES}


class GaussJordan:
    """Gauss-Jordan form of a matrix whose rows arrive one at a time, on
    Python ints: the one elimination for a single matrix.

    A row is kept as the bytes of its entries, to read, and as their int,
    to compute with.  Entries are below p, so a row plus ``p - f`` times
    another carries no byte into the next, and ``bytes.translate`` takes
    each byte back below p: a row operation is a few calls whatever the
    row's length, where numpy pays several calls per pivot.

    Pivots are searched only in the first ``width`` columns; the columns
    after them ride along, so rows ``[A | T]`` reduce to ``[E @ A | E @ T]``
    for the row operations E so far (T: a right-hand side, an identity
    block, or nothing).  An entering row is reduced by the stored rows; its
    first nonzero entry among the first ``width`` becomes its pivot, is
    scaled to 1 and is cleared from every stored row, which changes a
    stored row only right of its own pivot.  So each row of ``rows`` leads
    with a 1 in the column ``cols`` names and is 0 in every other pivot
    column: sorted by pivot, they are the reduced row echelon form of A,
    which is unique whatever order the rows came in.  A row that reduces
    to 0 among the first ``width`` columns is dependent, and its trailing
    part goes to ``dependent``.
    """

    def __init__(self, width: int, p: int):
        self.p, self.width = p, width
        self.rows: list[bytes] = []
        self.cols: list[int] = []
        self.dependent: list[bytes] = []
        self._values: list[int] = []
        self._first = (1 << 8 * width) - 1

    def _residues(self, v: int, length: int) -> tuple[bytes, int]:
        """The bytes of v, each taken to its residue mod p, and their int."""
        data = v.to_bytes(length, "little").translate(_RESIDUES[self.p])
        return data, int.from_bytes(data, "little")

    def add(self, row: Sequence[int]) -> None:
        """Reduce a row, entries in ``[0, p)``, by the stored pivot rows and keep it."""
        p = self.p
        data = bytes(row)
        length = len(data)
        v = int.from_bytes(data, "little")
        # Each stored row is 0 in every other pivot column, so the row's entry
        # in a pivot column is its own until that pivot's row clears it.
        # Bytes grow by (p - 1)**2 a step, and are reduced before they could
        # pass 255.
        bound = p - 1
        for piv, c in zip(self._values, self.cols):
            if f := data[c]:
                if bound + (p - 1) ** 2 > 255:
                    v, bound = self._residues(v, length)[1], p - 1
                v += (p - f) * piv
                bound += (p - 1) ** 2
        data, v = self._residues(v, length)
        lead = v & self._first
        if not lead:
            self.dependent.append(data[self.width :])
            return
        c = ((lead & -lead).bit_length() - 1) // 8
        if (inv := pow(data[c], p - 2, p)) != 1:
            data, v = self._residues(v * inv, length)
        for i, piv in enumerate(self.rows):
            if f := piv[c]:
                self.rows[i], self._values[i] = self._residues(self._values[i] + (p - f) * v, length)
        self.rows.append(data)
        self._values.append(v)
        self.cols.append(c)

    def solution(self, j: int) -> Optional[list[int]]:
        """The x with ``A @ x = T[:, j]`` that :func:`solve` returns, or None
        if there is none.

        The reduced right-hand side is column j of ``E @ T``: each pivot
        variable takes its row's entry and each free variable is 0.  The
        system is inconsistent when a dependent row is nonzero there.
        """
        if any(t[j] for t in self.dependent):
            return None
        x = [0] * self.width
        for row, c in zip(self.rows, self.cols):
            x[c] = row[self.width + j]
        return x

    def free_columns(self) -> list[int]:
        """The columns among the first ``width`` that hold no pivot, in order."""
        return sorted(set(range(self.width)).difference(self.cols))

    def null_vector(self, c: int) -> list[int]:
        """The kernel vector of A with 1 at free column c, 0 at every other
        free column and ``-R[row, c]`` at each pivot column."""
        x = [0] * self.width
        x[c] = 1
        for row, col in zip(self.rows, self.cols):
            x[col] = -row[c] % self.p
        return x


def _form(a: np.ndarray, p: int) -> GaussJordan:
    """The :class:`GaussJordan` form of a reduced int64 matrix, on all its columns."""
    form = GaussJordan(a.shape[1], p)
    for row in a.tolist():
        form.add(row)
        if len(form.cols) == form.width:
            break  # every later row is dependent
    return form


def rref(m, p: int) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form.

    Returns ``(r, rank, pivot_columns)`` where ``r`` is row-equivalent to
    ``m``, fully reduced, with pivot entries normalized to 1 and zero rows
    (if any) at the bottom.  ``pivot_columns`` is strictly increasing.
    """
    a = as_matrix(m, p)
    form = _form(a, p)
    order = sorted(range(len(form.cols)), key=form.cols.__getitem__)
    r = np.zeros_like(a)
    if order:
        r[: len(order)] = [list(form.rows[i]) for i in order]
    return r, len(order), [form.cols[i] for i in order]


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


#: ``_INVERSES[p][v]`` is the inverse of v mod p, for each byte v, and 0 when p divides v.
_INVERSES = {
    p: np.array([inv_scalar(v, p) if v % p else 0 for v in range(256)], dtype=np.uint8)
    for p in PRIMES
}

#: ``_NEGATIVES[p][v]`` is ``-v mod p``, for each byte v.
_NEGATIVES = {p: (-np.arange(256) % p).astype(np.uint8) for p in PRIMES}

#: ``_PRODUCTS[p][v]`` is ``v mod p``, for v up to a byte times an inverse.
_PRODUCTS = {p: (np.arange(256 * p) % p).astype(np.uint8) for p in PRIMES}


def batched_rank(stack, p: int) -> np.ndarray:
    """Rank of every matrix in a ``(batch, rows, cols)`` stack.

    One forward elimination runs over the whole batch at once, on uint8
    entries laid out ``(short, long, batch)``, C-contiguous: it steps along
    the shorter side of each matrix, and every update runs along the batch.
    At each step every matrix picks a line (a row or column of the longer
    side) with a nonzero entry, scales it to a pivot of 1 and clears the
    step from every line, the pivot line included.  A pivot line is thereby
    zeroed and never chosen again, so a matrix's rank is the number of
    steps that found a pivot: each step's lead is kept, scaled to 1 or left
    0, and the leads are summed once at the end.

    Laying the stack out batch-last is one copy.  A uint8 stack whose
    entries are all below p (one ``max`` decides) is copied as it is; any
    other stack is reduced mod p on the way, so that negative or large
    entries do not wrap.  Each step's pivot lines are gathered by one
    ``take`` into C-contiguous rows, so the update runs on contiguous inner
    loops, and residues, negatives and inverses are read off per-p tables
    rather than computed by uint8 ``%``, which costs about 40 times an add.
    """
    check_modulus(p)
    a = np.asarray(stack)
    if a.ndim != 3:
        raise ValueError(f"expected a 3-d stack, got shape {a.shape}")
    order = (1, 2, 0) if a.shape[2] > a.shape[1] else (2, 1, 0)
    view = a.transpose(order)
    if a.dtype == np.uint8 and (a.size == 0 or a.max() < p):
        a = view.copy()
    else:
        a = np.remainder(view, p, out=np.empty(view.shape, dtype=np.uint8), casting="unsafe")
    steps, long, batch = a.shape
    # Line l of matrix i is entry l * batch + i of a step's row of ``lines``.
    lines = a.reshape(steps, long * batch)
    every = np.arange(batch)
    pivots = np.empty((steps, batch), dtype=np.uint8)
    negatives, inverses, products = _NEGATIVES[p], _INVERSES[p], _PRODUCTS[p]
    # Entries are kept only up to congruence mod p: an update adds at most
    # (p - 1)**2, and the block is reduced when the next one could pass 255.
    bound = p - 1
    for c in range(steps):
        factor = negatives.take(a[c])
        # A matrix without a pivot here picks line 0, which is 0 at c: it
        # scales to zero and clears nothing.
        line = (factor != 0).argmax(axis=0)
        line *= batch
        line += every
        found = lines[c:].take(line, axis=1)
        # The lead itself scales to 1, or stays 0: summed, the leads are the rank.
        scaled = np.multiply(found, inverses.take(found[0]), dtype=np.uint16)
        products.take(scaled, out=pivots[c:], mode="clip")
        if bound + (p - 1) ** 2 > 255:
            block = lines[c + 1 :].reshape(-1)
            block[:] = np.frombuffer(block.tobytes().translate(_RESIDUES[p]), dtype=np.uint8)
            bound = p - 1
        a[c + 1 :] += factor * pivots[c + 1 :, None, :]
        bound += (p - 1) ** 2
    return pivots.sum(axis=0, dtype=np.int64)


def pack_bits(m) -> np.ndarray:
    """The 0/1 entries of the last axis packed into uint64 words.

    Entry c lands in bit ``c % 64`` of word ``c // 64``; an axis of length
    L becomes ``ceil(L / 64)`` words, the last one zero-padded.
    """
    a = np.asarray(m, dtype=np.int64) % 2
    bytes_ = np.packbits(a.astype(np.uint8), axis=-1, bitorder="little")
    padded = np.zeros(a.shape[:-1] + (8 * -(-a.shape[-1] // 64),), dtype=np.uint8)
    padded[..., : bytes_.shape[-1]] = bytes_
    return padded.view("<u8").astype(np.uint64)


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
      matrix's rank is their number, counted once at the end, since no
      step changes a row after its turn.  Step i touches only the rows
      after i, about rows**2 / 2 row updates in all, against bits * rows
      below.
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
        if words == 1:
            ints = a[:, :, 0].tolist()
        else:
            mats = a.tolist()
            ints = ((sum(w << 64 * i for i, w in enumerate(row)) for row in mat) for mat in mats)
        return np.array([_xor_rank(mat) for mat in ints], dtype=np.int64)
    ranks = np.zeros(batch, dtype=np.int64)
    if a.size == 0:
        return ranks
    present = np.bitwise_or.reduce(a, axis=(0, 1))
    if words == 1 and rows < 2 * int(present[0]).bit_count():
        # One row of the whole batch at a time, contiguous along the batch.
        a = a[:, :, 0].T.copy()
        for i in range(rows - 1):
            row = a[i]
            low = row & (~row + np.uint64(1))
            later = a[i + 1 :]
            later ^= row * ((later & low) != 0)
        return np.count_nonzero(a, axis=0)
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
    form = _form(a, p)
    basis = [form.null_vector(c) for c in form.free_columns()]
    return np.array(basis, dtype=np.int64).reshape(len(basis), a.shape[1])


def solve(m, b, p: int) -> Optional[np.ndarray]:
    """One solution ``x`` of ``m @ x = b`` mod p, or None if none exists."""
    a = as_matrix(m, p)
    rhs = as_vector(b, p)
    if rhs.shape[0] != a.shape[0]:
        raise ValueError(f"rhs length {rhs.shape[0]} != row count {a.shape[0]}")
    form = GaussJordan(a.shape[1], p)
    for row, t in zip(a.tolist(), rhs.tolist()):
        form.add(row + [t])
    x = form.solution(0)
    return None if x is None else np.array(x, dtype=np.int64)


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
