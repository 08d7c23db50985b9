"""The generalized Pauli group on n qudits of prime dimension p.

Single-qudit generators act on the computational basis as

    X |i> = |i + 1 mod p>        Z |i> = w^i |i>

with ``w = exp(2*pi*1j/p)`` (so ``w = -1`` for qubits).  A group element is
kept in the canonical form ``w^t X(a) Z(b)`` with ``t`` mod p and exponent
vectors ``a, b`` in F_p^n; multiplication reorders factors with the rule
``Z(b) X(c) = w^{<b,c>} X(c) Z(b)``.

Stripping the phase gives the homomorphism f onto F_p^{2n}: ``w^t X(a) Z(b)``
maps to the plain array ``(a | b)`` in the ``(x | z)`` layout of
:mod:`advshare.symplectic`.  :func:`f_map` and :func:`f_inv` are the one
bridge between operators and rows: every conversion in the library goes
through them.  Commutation is then read off the symplectic product:
``P Q = w^e Q P`` with ``e = -<f(P), f(Q)>_s``.

Wire order for dense matrices matches tensor-factor order: qudit 0 is the
leftmost Kronecker factor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from . import gfp, symplectic
from .access import ShareStructure
from .errors import (
    BudgetExceededError,
    DependentRowsError,
    InvariantError,
    NotCommutativeError,
)
from .symplectic import SymplecticCode, split, symplectic_product


def omega(p: int) -> complex:
    return np.exp(2j * np.pi / p)


def zeta(p: int) -> complex:
    """Primitive 2p-th root of unity; omega(p) == zeta(p)**2.

    Odd powers of zeta appear only for p = 2, where quadratic-phase gates
    and operators with odd x.z overlap step outside the group <w>.
    """
    return np.exp(1j * np.pi / p)


@dataclass(frozen=True)
class PauliOperator:
    """Canonical form w^phase * X(x) Z(z) on n qudits."""

    p: int
    x: np.ndarray
    z: np.ndarray
    phase: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x", gfp.as_vector(self.x, self.p))
        object.__setattr__(self, "z", gfp.as_vector(self.z, self.p))
        if self.x.shape != self.z.shape:
            raise ValueError("x and z exponent vectors must have equal length")
        object.__setattr__(self, "phase", int(self.phase) % self.p)

    @property
    def n(self) -> int:
        return int(self.x.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return (
            self.p == other.p
            and self.phase == other.phase
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __str__(self) -> str:
        terms = []
        for a, b in zip(self.x, self.z):
            if a == 0 and b == 0:
                terms.append("I")
            else:
                s = ""
                if a:
                    s += "X" if a == 1 else f"X^{a}"
                if b:
                    s += "Z" if b == 1 else f"Z^{b}"
                terms.append(s)
        head = "" if self.phase == 0 else f"w^{self.phase} "
        return head + "(" + " ".join(terms) + ")"


def identity(p: int, n: int) -> PauliOperator:
    return PauliOperator(p, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))


def single(p: int, n: int, wire: int, x: int = 0, z: int = 0) -> PauliOperator:
    """X^x Z^z on one wire (0-based), identity elsewhere."""
    xv = np.zeros(n, dtype=np.int64)
    zv = np.zeros(n, dtype=np.int64)
    xv[wire] = x
    zv[wire] = z
    return PauliOperator(p, xv, zv)


def _check_pair(a: PauliOperator, b: PauliOperator) -> None:
    if a.p != b.p or a.n != b.n:
        raise ValueError("operands must share modulus and qudit count")


def pauli_mul(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    """Canonical form of the matrix product a @ b."""
    _check_pair(a, b)
    phase = a.phase + b.phase + int(a.z @ b.x)
    return PauliOperator(a.p, a.x + b.x, a.z + b.z, phase)


def pauli_inverse(a: PauliOperator) -> PauliOperator:
    """Canonical form of the inverse (equivalently the adjoint) of a."""
    phase = -a.phase + int(a.x @ a.z)
    return PauliOperator(a.p, -a.x, -a.z, phase)


def commutation_exponent(a: PauliOperator, b: PauliOperator) -> int:
    """The exponent e with a b = w^e b a; zero iff the operators commute."""
    _check_pair(a, b)
    return -symplectic_product(f_map(a), f_map(b), a.p) % a.p


def f_map(a: PauliOperator) -> np.ndarray:
    """Strip the phase: w^t X(a) Z(b) -> the (x | z) vector (a | b)."""
    return np.concatenate([a.x, a.z])


def f_inv(v, p: int, phase: int = 0) -> PauliOperator:
    """The operator w^phase X(a) Z(b) of an (x | z) vector v = (a | b)."""
    v = gfp.as_vector(v, p)
    if v.shape[0] % 2:
        raise ValueError(f"an (x | z) vector has even length, got {v.shape[0]}")
    return PauliOperator(p, *split(v), phase)


def weight(a: PauliOperator) -> int:
    """Number of qudits acted on non-trivially."""
    return int(np.count_nonzero((a.x != 0) | (a.z != 0)))


def half_turn_parity(a: PauliOperator) -> int:
    """1 if the operator's eigenvalues are i * <w>, else 0.

    Only p = 2 operators with odd x.z overlap have the extra factor of i;
    every eigenvalue of a Pauli is zeta**(2j + parity) for some j.
    """
    if a.p != 2:
        return 0
    return int(a.x @ a.z) % 2


@functools.lru_cache(maxsize=None)
def _single_qudit_matrices(p: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.zeros((p, p), dtype=complex)
    for i in range(p):
        x[(i + 1) % p, i] = 1.0
    z = np.diag(omega(p) ** np.arange(p))
    return x, z


def to_matrix(a: PauliOperator, budget: int = gfp.DEFAULT_STATE_BUDGET) -> np.ndarray:
    """Dense complex matrix of the operator; dimension p**n must fit budget."""
    dim = a.p**a.n
    if dim > budget:
        raise BudgetExceededError(f"dense dimension {dim} exceeds budget {budget}")
    xm, zm = _single_qudit_matrices(a.p)
    out = np.array([[omega(a.p) ** a.phase]])
    for q in range(a.n):
        factor = np.linalg.matrix_power(xm, int(a.x[q])) @ np.linalg.matrix_power(
            zm, int(a.z[q])
        )
        out = np.kron(out, factor)
    return out


@dataclass
class StabilizerCode:
    """A validated stabilizer over F_p given by its check matrix.

    The check matrix has one row per independent generator and 2n columns
    in ``(x | z)`` order; rows are pairwise symplectically orthogonal.
    ``k = n - rows`` logical qudits.  Use :func:`validate_stabilizer` to
    construct one from untrusted input.
    """

    p: int
    n: int
    check_matrix: np.ndarray = field(repr=False)
    _distance: Optional[int] = field(default=None, repr=False, compare=False)
    _dual_weight: Optional[int] = field(default=None, repr=False, compare=False)
    _shares: Optional[ShareStructure] = field(default=None, repr=False, compare=False)
    # Dense gather-and-phase kernels of the generators (sim.PauliKernels).
    _generator_kernels: Optional[Any] = field(default=None, repr=False, compare=False)

    @property
    def num_checks(self) -> int:
        return int(self.check_matrix.shape[0])

    @property
    def k(self) -> int:
        return self.n - self.num_checks

    def generator(self, i: int) -> PauliOperator:
        """The i-th (0-based) check row as a phase-free Pauli."""
        return f_inv(self.check_matrix[i], self.p)

    def generators(self) -> list[PauliOperator]:
        return [self.generator(i) for i in range(self.num_checks)]

    def share_structure(self) -> ShareStructure:
        """The share-set rank oracle of this code, built once and cached."""
        if self._shares is None:
            self._shares = ShareStructure(self.p, self.n, self.check_matrix)
        return self._shares

    def f_space(self) -> SymplecticCode:
        """Row space of the check matrix as a symplectic code."""
        return SymplecticCode(self.p, self.n, self.check_matrix)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StabilizerCode):
            return NotImplemented
        return (
            self.p == other.p
            and self.n == other.n
            and np.array_equal(self.check_matrix, other.check_matrix)
        )


def validate_stabilizer(check_matrix, p: int, n: int) -> StabilizerCode:
    """Validate a candidate check matrix and wrap it.

    Rejects dependent rows outright (the row count defines k downstream, so
    silently reducing would hide caller errors) and reports the first
    non-commuting row pair by 1-based indices.  An empty 1-d input (``[]``)
    means no rows; a 2-d input keeps its shape.
    """
    if np.ndim(check_matrix) == 1 and not np.size(check_matrix):
        check_matrix = np.zeros((0, 2 * n), dtype=np.int64)
    h = gfp.as_matrix(check_matrix, p)
    if h.shape[1] != 2 * n:
        raise ValueError(f"check matrix needs {2 * n} columns, got {h.shape[1]}")
    if h.shape[0] > n:
        raise DependentRowsError(
            f"{h.shape[0]} generators on {n} qudits cannot be independent and commuting"
        )
    if gfp.rank(h, p) != h.shape[0]:
        raise DependentRowsError("rows dependent: remove redundant generators")
    products = symplectic.product_matrix(h, h, p)
    bad = np.argwhere(products != 0)
    if bad.size:
        i, j = int(bad[0][0]), int(bad[0][1])
        raise NotCommutativeError(min(i, j) + 1, max(i, j) + 1)
    return StabilizerCode(p, n, h)


def code_distance(
    code: StabilizerCode, budget: int = gfp.DEFAULT_ENUM_BUDGET
) -> int:
    """The smallest number of erased qudits the code cannot recover.

    Equals the minimum symplectic weight over the dual of f(S) minus f(S)
    itself: fewer than d erased qudits are always recoverable.  Requires
    k >= 1.  Walks share sets E by size and stops at the first size with
    an uncorrectable erasure, ``2|E| - r_E > r - r_E'``; r_E' is only
    queried for sets with ``r_E < 2|E|``, since the others hold no dual
    vector, and not at all at a size where some set has ``2|E| - r_E > r``,
    since ``r - r_E' <= r`` makes that set uncorrectable.  ``budget`` caps
    the share sets visited, at most 2^n - 1; the result is cached on the
    code.
    """
    if code._distance is not None:
        return code._distance
    if code.k < 1:
        raise ValueError("distance undefined for k = 0 (no logical qudits)")
    structure = code.share_structure()

    def uncorrectable(w: int, sets: np.ndarray, ranks: np.ndarray) -> bool:
        if 2 * w - ranks.min() > code.num_checks:
            return True
        deficient = ranks < 2 * w
        outside = structure.complement_ranks(sets[deficient])
        return not structure.correctable(w, ranks[deficient], outside).all()

    best = structure.smallest_size(uncorrectable, code.n, "distance", budget)
    if best is None:
        raise InvariantError("every erasure is correctable despite k >= 1")
    code._distance = best
    return best


def random_stabilizer(
    p: int, n: int, num_checks: int, rng: np.random.Generator
) -> StabilizerCode:
    """A uniformly-flavored random stabilizer with the given check count.

    Grows the check matrix one row at a time, sampling each new row from
    the symplectic orthogonal complement of the rows so far and rejecting
    dependent draws.  Requires ``num_checks <= n``.
    """
    gfp.check_modulus(p)
    if not 0 <= num_checks <= n:
        raise ValueError("need 0 <= num_checks <= n")
    rows = np.zeros((0, 2 * n), dtype=np.int64)
    while rows.shape[0] < num_checks:
        if rows.shape[0] == 0:
            candidates = np.eye(2 * n, dtype=np.int64)
        else:
            candidates = gfp.kernel(symplectic.orthogonality_rows(rows, p), p)
        coeffs = rng.integers(0, p, size=candidates.shape[0])
        candidate = (coeffs @ candidates) % p
        if not candidate.any():
            continue
        stacked = np.concatenate([rows, candidate[None, :]], axis=0)
        if gfp.rank(stacked, p) == stacked.shape[0]:
            rows = stacked
    return validate_stabilizer(rows, p, n)
