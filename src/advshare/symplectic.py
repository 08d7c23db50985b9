"""Symplectic structure on F_p^{2n}.

A length-2n vector is split as ``(x | z)``: coordinate ``i`` of the x part
and coordinate ``i`` of the z part together belong to share ``i+1``.  Share
indices are 1-based throughout the public API; column indices inside arrays
are 0-based.

The symplectic inner product of ``(a|b)`` and ``(c|d)`` is
``a.d - b.c  (mod p)``; it vanishes exactly when the corresponding Pauli
operators commute.  Shortening and puncturing always remove a share's x and
z coordinates together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import gfp
from .errors import BudgetExceededError


def _split(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = vec.shape[-1] // 2
    return vec[..., :n], vec[..., n:]


@dataclass(frozen=True)
class SymplecticVector:
    """A vector (x | z) in F_p^{2n}."""

    p: int
    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", gfp.as_vector(self.x, self.p))
        object.__setattr__(self, "z", gfp.as_vector(self.z, self.p))
        if self.x.shape != self.z.shape:
            raise ValueError("x and z parts must have equal length")

    @property
    def n(self) -> int:
        return int(self.x.shape[0])

    @property
    def vec(self) -> np.ndarray:
        return np.concatenate([self.x, self.z])

    @classmethod
    def from_vec(cls, vec, p: int) -> "SymplecticVector":
        v = gfp.as_vector(vec, p)
        if v.shape[0] % 2:
            raise ValueError("combined vector must have even length")
        x, z = _split(v)
        return cls(p, x, z)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymplecticVector):
            return NotImplemented
        return (
            self.p == other.p
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )


def symplectic_product(u: SymplecticVector, v: SymplecticVector) -> int:
    """<u, v>_s = <u.x, v.z> - <u.z, v.x> mod p."""
    if u.p != v.p or u.n != v.n:
        raise ValueError("operands must share modulus and length")
    return int((u.x @ v.z - u.z @ v.x) % u.p)


def product_matrix(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """All pairwise symplectic products of rows of a against rows of b."""
    ax, az = _split(gfp.as_matrix(a, p))
    bx, bz = _split(gfp.as_matrix(b, p))
    return (ax @ bz.T - az @ bx.T) % p


def symplectic_weight(vectors: np.ndarray, n: int) -> np.ndarray:
    """Number of shares where (x_i, z_i) != (0, 0), per row."""
    v = np.asarray(vectors)
    x, z = v[..., :n], v[..., n:]
    return np.count_nonzero((x != 0) | (z != 0), axis=-1)


@dataclass(frozen=True)
class SymplecticCode:
    """An F_p-linear subspace of F_p^{2n} with paired (x | z) coordinates.

    ``generators`` is kept in reduced row echelon form with zero rows
    dropped, so equal subspaces compare equal.
    """

    p: int
    n: int
    generators: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = gfp.as_matrix(self.generators, self.p)
        if g.shape[1] != 2 * self.n:
            raise ValueError(f"expected {2 * self.n} columns, got {g.shape[1]}")
        r, rk, _ = gfp.rref(g, self.p)
        object.__setattr__(self, "generators", r[:rk])

    @classmethod
    def from_rows(cls, rows, p: int, n: int | None = None) -> "SymplecticCode":
        g = gfp.as_matrix(rows, p)
        if n is None:
            n = g.shape[1] // 2
        return cls(p, n, g)

    @classmethod
    def zero(cls, p: int, n: int) -> "SymplecticCode":
        return cls(p, n, np.zeros((0, 2 * n), dtype=np.int64))

    @property
    def dim(self) -> int:
        return int(self.generators.shape[0])

    def contains(self, vec) -> bool:
        return gfp.in_row_space(self.generators, gfp.as_vector(vec, self.p), self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymplecticCode):
            return NotImplemented
        return (
            self.p == other.p
            and self.n == other.n
            and np.array_equal(self.generators, other.generators)
        )


def validated_shares(shares: Iterable[int], n: int) -> tuple[int, ...]:
    """Sorted distinct 1-based share indices; raises ValueError outside 1..n."""
    js = tuple(sorted(set(int(j) for j in shares)))
    for j in js:
        if not 1 <= j <= n:
            raise ValueError(f"share index {j} outside 1..{n}")
    return js


def _share_columns(shares: Iterable[int], n: int) -> tuple[list[int], list[int]]:
    """Validated 1-based shares -> (0-based share list, owned column list)."""
    zero_based = [j - 1 for j in validated_shares(shares, n)]
    cols = [j for j in zero_based] + [n + j for j in zero_based]
    return zero_based, cols


def symplectic_dual(code: SymplecticCode) -> SymplecticCode:
    """All vectors with zero symplectic product against every codeword."""
    p, n = code.p, code.n
    if code.dim == 0:
        return SymplecticCode(p, n, np.eye(2 * n, dtype=np.int64))
    gx, gz = _split(code.generators)
    # <g, v>_s = 0 for all g  <=>  [-gz | gx] @ v = 0.
    constraint = np.concatenate([(-gz) % p, gx], axis=1)
    return SymplecticCode(p, n, gfp.kernel(constraint, p))


def shorten(code: SymplecticCode, shares: Iterable[int]) -> SymplecticCode:
    """Codewords vanishing on the given shares, with those shares deleted."""
    zero_based, cols = _share_columns(shares, code.n)
    if not zero_based:
        return code
    sub = code.generators[:, cols]
    coeffs = gfp.kernel(sub.T, code.p)
    selected = (coeffs @ code.generators) % code.p
    keep = [c for c in range(2 * code.n) if c not in set(cols)]
    return SymplecticCode(code.p, code.n - len(zero_based), selected[:, keep])


def puncture(code: SymplecticCode, shares: Iterable[int]) -> SymplecticCode:
    """Delete the given shares' coordinates from every codeword."""
    zero_based, cols = _share_columns(shares, code.n)
    if not zero_based:
        return code
    keep = [c for c in range(2 * code.n) if c not in set(cols)]
    return SymplecticCode(code.p, code.n - len(zero_based), code.generators[:, keep])


def min_symplectic_weight(
    code: SymplecticCode, budget: int = gfp.DEFAULT_ENUM_BUDGET
) -> int:
    """Exact minimum symplectic weight over all nonzero codewords.

    Scans the whole span, so ``p**dim`` must stay within ``budget``; a
    larger space raises :class:`BudgetExceededError` rather than guessing.
    """
    if code.dim == 0:
        raise ValueError("minimum weight of the zero space is undefined")
    total = gfp.span_size(code.dim, code.p)
    if total > budget:
        raise BudgetExceededError(
            f"enumeration limit: {code.p}**{code.dim} = {total} codewords "
            f"exceeds budget {budget}"
        )
    best = code.n + 1
    for block in gfp.iter_span(code.generators, code.p):
        w = symplectic_weight(block, code.n)
        w = w[w > 0]
        if w.size:
            best = min(best, int(w.min()))
    return best
