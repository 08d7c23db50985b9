"""Seeded stabilizer codes, written as code files, made without the library.

A code is drawn as the image of the trivial stabilizer <Z_1, ..., Z_{n-k}>
under a product of random symplectic transvections
``v -> v + c <v, t>_s t`` on F_p^{2n}.  Transvections preserve the
symplectic form and are invertible, so the rows stay independent and
pairwise orthogonal: the result is a valid check matrix by construction.

The advance share set J of a ``demo`` op is the smallest single share whose
two owned columns have rank 2 (the exact shareability test), or the empty
set when no single share passes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import fp


@dataclass(frozen=True)
class Code:
    p: int
    n: int
    k: int
    rows: np.ndarray

    def text(self, label: str) -> str:
        lines = [f"# {label}: random [[{self.n},{self.k}]]_{self.p}", f"p={self.p} n={self.n}"]
        for row in self.rows:
            x = " ".join(str(int(v)) for v in row[: self.n])
            z = " ".join(str(int(v)) for v in row[self.n :])
            lines.append(f"{x} | {z}")
        return "\n".join(lines) + "\n"


def _symplectic(u: np.ndarray, t: np.ndarray, n: int, p: int) -> np.ndarray:
    """<u_i, t>_s for every row u_i."""
    return (u[:, :n] @ t[n:] - u[:, n:] @ t[:n]) % p


def random_code(p: int, n: int, k: int, rng: np.random.Generator) -> Code:
    r = n - k
    rows = np.zeros((r, 2 * n), dtype=np.int64)
    rows[np.arange(r), n + np.arange(r)] = 1
    for _ in range(2 * n + 4):
        t = rng.integers(0, p, size=2 * n)
        c = int(rng.integers(1, p))
        rows = (rows + c * _symplectic(rows, t, n, p)[:, None] * t[None, :]) % p
    return Code(p, n, k, rows)


def advance_share(code: Code) -> tuple[int, ...]:
    """Smallest single share with owned-column rank 2, else ()."""
    masks = [1 << j for j in range(code.n)]
    ranks = fp.column_ranks(code.rows, masks, code.p, code.n)
    for j, rk in enumerate(ranks):
        if rk == 2:
            return (j + 1,)
    return ()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
