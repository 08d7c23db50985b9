"""The benchmark's own F_p linear algebra: ranks of column-restricted matrices.

Everything the benchmark decides about a code (which share to pre-share,
and every correctness check on a report) reduces to the rank of the check
matrix restricted to the columns owned by some share set.  This module
computes those ranks for many share sets at once, with a batched Gaussian
elimination over a leading batch axis.  It shares no code with the library
under test, so a library change cannot change what the benchmark expects.

A share set is a bitmask over shares 1..n: bit ``j - 1`` set means share j
is in the set.  Share j owns column ``j - 1`` (its x part) and column
``n + j - 1`` (its z part).
"""

from __future__ import annotations

import itertools

import numpy as np

#: Share sets per elimination batch; bounds memory at about 16 MB for n = 16.
BATCH = 2048


def _inverses(p: int) -> np.ndarray:
    inv = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        inv[a] = pow(a, p - 2, p)
    return inv


def batched_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """Rank over F_p of each matrix in a (batch, rows, cols) stack."""
    # int16 holds every intermediate: entries < 7, products < 49.
    a = (np.asarray(mats, dtype=np.int64) % p).astype(np.int16)
    batch, rows, cols = a.shape
    inv = _inverses(p).astype(np.int16)
    rank = np.zeros(batch, dtype=np.int64)
    if rows == 0:
        return rank
    row_ids = np.arange(rows)
    every = np.arange(batch)
    for c in range(cols):
        cand = (a[:, :, c] != 0) & (row_ids[None, :] >= rank[:, None])
        found = cand.any(axis=1)
        if not found.any():
            continue
        # Matrices without a pivot here swap a row with itself and clear nothing.
        tgt = np.minimum(rank, rows - 1)
        piv = np.where(found, cand.argmax(axis=1), tgt)
        pivot_rows = a[every, piv, c:].copy()
        a[every, piv, c:] = a[every, tgt, c:]
        a[every, tgt, c:] = pivot_rows
        pivot_rows = (pivot_rows * inv[pivot_rows[:, 0]][:, None]) % p
        below = found[:, None] & (row_ids[None, :] > tgt[:, None])
        factors = a[:, :, c] * below
        a[:, :, c:] = (a[:, :, c:] - factors[:, :, None] * pivot_rows[:, None, :]) % p
        rank += found
    return rank


def share_columns(mask: int, n: int) -> list[int]:
    """Columns owned by the shares in a bitmask."""
    shares = [j for j in range(n) if mask >> j & 1]
    return shares + [n + j for j in shares]


def column_ranks(h: np.ndarray, masks, p: int, n: int) -> np.ndarray:
    """rank(H restricted to the columns owned by each share mask)."""
    masks = list(masks)
    out = np.zeros(len(masks), dtype=np.int64)
    h = np.asarray(h, dtype=np.int64) % p
    if h.shape[0] == 0:
        return out
    # Masks of one size give equally shaped submatrices, so they batch.
    by_size: dict[int, list[int]] = {}
    for i, mask in enumerate(masks):
        by_size.setdefault(mask.bit_count(), []).append(i)
    for size, where in by_size.items():
        if size == 0:
            continue
        for start in range(0, len(where), BATCH):
            idx = where[start : start + BATCH]
            cols = np.array([share_columns(masks[i], n) for i in idx])
            subs = np.moveaxis(h[:, cols], 1, 0)  # (batch, rows, 2 * size)
            if subs.shape[2] > subs.shape[1]:
                subs = np.swapaxes(subs, 1, 2)  # eliminate over the shorter side
            out[idx] = batched_rank(subs, p)
    return out


def rank(h: np.ndarray, p: int) -> int:
    return int(batched_rank(np.asarray(h)[None], p)[0])


def masks_of_size(n: int, size: int) -> list[int]:
    return [sum(1 << j for j in combo) for combo in itertools.combinations(range(n), size)]


def mask_to_shares(mask: int, n: int) -> tuple[int, ...]:
    return tuple(j + 1 for j in range(n) if mask >> j & 1)


def shares_to_mask(shares) -> int:
    return sum(1 << (int(j) - 1) for j in shares)
