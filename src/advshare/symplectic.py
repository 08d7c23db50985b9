"""Symplectic structure on F_p^{2n}.

A length-2n vector is split as ``(x | z)``: coordinate ``i`` of the x part
and coordinate ``i`` of the z part together belong to share ``i+1``.  Share
indices are 1-based throughout the public API; column indices inside arrays
are 0-based.

The symplectic inner product of ``(a|b)`` and ``(c|d)`` is
``a.d - b.c  (mod p)``; it vanishes exactly when the corresponding Pauli
operators commute.  Shortening and puncturing always remove a share's x and
z coordinates together.

This module is the only one that knows the layout.  A vector is a plain
array, and :func:`split` gives its x and z halves.  Every other module reads
a share's columns from :func:`owned_columns`, the shares outside a set from
:func:`complement`, and symplectic products from :func:`symplectic_product`,
:func:`product_matrix` and :func:`orthogonality_rows`.  A Pauli operator
enters the layout only through :func:`advshare.pauli.f_map` and leaves it
only through :func:`advshare.pauli.f_inv`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import gfp
from .errors import BudgetExceededError


def split(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The x and z halves of (x | z) vectors along the last axis."""
    n = vec.shape[-1] // 2
    return vec[..., :n], vec[..., n:]


def symplectic_product(u, v, p: int) -> int:
    """<u, v>_s = <u_x, v_z> - <u_z, v_x> mod p of two (x | z) vectors."""
    u, v = gfp.as_vector(u, p), gfp.as_vector(v, p)
    if u.shape != v.shape or u.shape[0] % 2:
        raise ValueError("operands must be (x | z) vectors of one even length")
    (ux, uz), (vx, vz) = split(u), split(v)
    return int((ux @ vz - uz @ vx) % p)


def product_matrix(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """All pairwise symplectic products of rows of a against rows of b."""
    ax, az = split(gfp.as_matrix(a, p))
    bx, bz = split(gfp.as_matrix(b, p))
    return (ax @ bz.T - az @ bx.T) % p


def orthogonality_rows(vectors: np.ndarray, p: int) -> np.ndarray:
    """Rows ``[-v_z | v_x]``: row i times d is <v_i, d>_s."""
    vx, vz = split(np.asarray(vectors))
    return np.concatenate([(-vz) % p, vx], axis=-1)


def symplectic_weight(vectors: np.ndarray, n: int) -> np.ndarray:
    """Number of shares where (x_i, z_i) != (0, 0), per row."""
    v = np.asarray(vectors)
    x, z = v[..., :n], v[..., n:]
    return np.count_nonzero((x != 0) | (z != 0), axis=-1)


def qudit_count(rows: np.ndarray) -> int:
    """The n of (x | z) rows 2n wide; an odd width raises ValueError."""
    width = rows.shape[-1]
    if width % 2:
        raise ValueError(f"(x | z) rows need an even number of columns, got {width}")
    return width // 2


@dataclass(frozen=True)
class SymplecticCode:
    """An F_p-linear subspace of F_p^{2n} with paired (x | z) coordinates.

    ``generators`` is kept in reduced row echelon form with zero rows
    dropped, so equal subspaces compare equal; n is half its width.
    """

    p: int
    generators: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = gfp.as_matrix(self.generators, self.p)
        qudit_count(g)
        r, rk, _ = gfp.rref(g, self.p)
        object.__setattr__(self, "generators", r[:rk])

    @property
    def n(self) -> int:
        return self.generators.shape[1] // 2

    @property
    def dim(self) -> int:
        return int(self.generators.shape[0])

    def contains(self, vec) -> bool:
        return gfp.in_row_space(self.generators, gfp.as_vector(vec, self.p), self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymplecticCode):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.generators, other.generators)


def _share_index(j) -> int:
    # Python's bool is an int, and NumPy 1.x still indexes with np.bool_
    # (with a DeprecationWarning), but a flag is not a share.
    if not isinstance(j, (bool, np.bool_)):
        try:
            return operator.index(j)
        except TypeError:
            pass
    raise ValueError(f"share index {j} is not an integer")


def validated_shares(shares: Iterable[int], n: int) -> tuple[int, ...]:
    """Sorted distinct 1-based share indices; ValueError unless each is an
    integer, not a bool, in 1..n."""
    js = tuple(sorted(set(map(_share_index, shares))))
    for j in js:
        if not 1 <= j <= n:
            raise ValueError(f"share index {j} outside 1..{n}")
    return js


def owned_columns(shares, n: int) -> np.ndarray:
    """The 0-based x columns, then the z columns, of 1-based shares.

    ``shares`` may carry leading batch axes: an ``(..., m)`` array of
    shares gives ``(..., 2m)`` columns.  Shares are not validated here.
    """
    zero_based = np.asarray(shares, dtype=np.intp) - 1
    return np.concatenate([zero_based, zero_based + n], axis=-1)


def complement(shares: Iterable[int], n: int) -> tuple[int, ...]:
    """The 1-based shares of 1..n outside ``shares``, in ascending order."""
    inside = set(shares)
    return tuple(j for j in range(1, n + 1) if j not in inside)


def symplectic_dual(code: SymplecticCode) -> SymplecticCode:
    """All vectors with zero symplectic product against every codeword."""
    p, n = code.p, code.n
    if code.dim == 0:
        return SymplecticCode(p, np.eye(2 * n, dtype=np.int64))
    return SymplecticCode(p, gfp.kernel(orthogonality_rows(code.generators, p), p))


def shorten(code: SymplecticCode, shares: Iterable[int]) -> SymplecticCode:
    """Codewords vanishing on the given shares, with those shares deleted."""
    js = validated_shares(shares, code.n)
    if not js:
        return code
    sub = code.generators[:, owned_columns(js, code.n)]
    coeffs = gfp.kernel(sub.T, code.p)
    selected = (coeffs @ code.generators) % code.p
    keep = owned_columns(complement(js, code.n), code.n)
    return SymplecticCode(code.p, selected[:, keep])


def puncture(code: SymplecticCode, shares: Iterable[int]) -> SymplecticCode:
    """Delete the given shares' coordinates from every codeword."""
    js = validated_shares(shares, code.n)
    if not js:
        return code
    keep = owned_columns(complement(js, code.n), code.n)
    return SymplecticCode(code.p, code.generators[:, keep])


def min_symplectic_weight(
    code: SymplecticCode, budget: int = gfp.DEFAULT_ENUM_BUDGET
) -> int:
    """Exact minimum symplectic weight over all nonzero codewords.

    Scans the whole span, so ``p**dim`` must stay within ``budget``; a
    larger space raises :class:`BudgetExceededError` rather than guessing.
    """
    if code.dim == 0:
        raise ValueError("minimum weight of the zero space is undefined")
    if code.p**code.dim > budget:
        raise BudgetExceededError(
            f"enumeration limit: {code.p}**{code.dim} codewords exceeds budget {budget}"
        )
    best = code.n + 1
    for block in gfp.iter_span(code.generators, code.p):
        w = symplectic_weight(block, code.n)
        w = w[w > 0]
        if w.size:
            best = min(best, int(w.min()))
    return best
