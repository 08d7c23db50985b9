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
through them, and the engine paths (plans, synthesis, the simulator's
kernels) work on rows and convert nothing.  :func:`row_text` writes a
row's operator, for :meth:`PauliOperator.__str__` and the reports alike,
and :func:`half_turn_parities` reads the eigenvalue parity off rows.
Commutation is then read off the symplectic product:
``P Q = w^e Q P`` with ``e = -<f(P), f(Q)>_s``.

Wire order for dense matrices matches tensor-factor order: qudit 0 is the
leftmost Kronecker factor.

A :class:`StabilizerCode` is its modulus and check matrix alone: it checks
itself when built, and derives n, k and its cached share-set rank oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

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


def exponent_vectors(x, z, p: int) -> tuple[np.ndarray, np.ndarray]:
    """x and z as F_p vectors; a Pauli's two exponent vectors have equal length."""
    x, z = gfp.as_vector(x, p), gfp.as_vector(z, p)
    if x.shape != z.shape:
        raise ValueError("x and z exponent vectors must have equal length")
    return x, z


@dataclass(frozen=True)
class PauliOperator:
    """Canonical form w^phase * X(x) Z(z) on n qudits; x and z are read-only."""

    p: int
    x: np.ndarray
    z: np.ndarray
    phase: int = 0

    def __post_init__(self):
        x, z = exponent_vectors(self.x, self.z, self.p)
        x.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
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
        return row_text(f_map(self).tolist(), self.phase)


def row_text(row: Sequence[int], phase: int = 0) -> str:
    """The text of w^phase X(a) Z(b) from its f-image ``(a | b)`` as ints:
    one term per qudit, ``I``, ``X``, ``Z^2``, ``X^2Z`` and so on."""
    n = len(row) // 2
    terms = []
    for a, b in zip(row[:n], row[n:]):
        if a == 0 and b == 0:
            terms.append("I")
        else:
            s = ""
            if a:
                s += "X" if a == 1 else f"X^{a}"
            if b:
                s += "Z" if b == 1 else f"Z^{b}"
            terms.append(s)
    head = "" if phase == 0 else f"w^{phase} "
    return head + "(" + " ".join(terms) + ")"


def identity(p: int, n: int) -> PauliOperator:
    return PauliOperator(p, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))


def single(p: int, n: int, wire: int, x: int = 0, z: int = 0) -> PauliOperator:
    """X^x Z^z on one wire (0-based), identity elsewhere."""
    if not 0 <= wire < n:
        raise ValueError(f"wire {wire} outside 0..{n - 1}")
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
    """1 if the operator's eigenvalues are i * <w>, else 0: the
    :func:`half_turn_parities` of its f-image."""
    return int(half_turn_parities(f_map(a)[None], a.p)[0])


def half_turn_parities(rows: np.ndarray, p: int) -> np.ndarray:
    """For the operator w^t X(x) Z(z) of each f-image row (x | z), 1 if its
    eigenvalues are i * <w>, else 0.

    Only p = 2 operators with odd x.z overlap have the extra factor of i;
    every eigenvalue of a Pauli is zeta**(2j + parity) for some j.
    """
    if p != 2:
        return np.zeros(len(rows), dtype=np.int64)
    n = rows.shape[1] // 2
    return (rows[:, :n] * rows[:, n:]).sum(axis=1) % 2


@functools.lru_cache(maxsize=None)
def _single_qudit_matrices(p: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.zeros((p, p), dtype=complex)
    for i in range(p):
        x[(i + 1) % p, i] = 1.0
    z = np.diag(omega(p) ** np.arange(p))
    return x, z


def to_matrix(a: PauliOperator, budget: int = gfp.DEFAULT_STATE_BUDGET) -> np.ndarray:
    """Dense complex matrix of the operator; dimension p**n must fit budget."""
    if a.p**a.n > budget:
        raise BudgetExceededError(f"dense dimension {a.p}**{a.n} exceeds budget {budget}")
    xm, zm = _single_qudit_matrices(a.p)
    out = np.array([[omega(a.p) ** a.phase]])
    for q in range(a.n):
        factor = np.linalg.matrix_power(xm, int(a.x[q])) @ np.linalg.matrix_power(
            zm, int(a.z[q])
        )
        out = np.kron(out, factor)
    return out


@dataclass(frozen=True)
class StabilizerCode:
    """A stabilizer over F_p: its check matrix, checked when built.

    One row per generator, 2n columns in ``(x | z)`` order; ``k = n - rows``.
    The constructor reduces the matrix mod p, refuses an odd width, more
    rows than qudits, dependent rows and non-commuting rows, in that order,
    and keeps it read-only, so n, k and the cached :attr:`share_structure`
    answer for it; ``dataclasses.replace``, copies and pickles build anew.
    """

    p: int
    check_matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        h = gfp.as_matrix(self.check_matrix, self.p)
        n = symplectic.qudit_count(h)
        if h.shape[0] > n:
            raise DependentRowsError(
                f"{h.shape[0]} generators on {n} qudits cannot be independent and commuting"
            )
        if gfp.rank(h, self.p) != h.shape[0]:
            raise DependentRowsError("rows dependent: remove redundant generators")
        bad = np.argwhere(symplectic.product_matrix(h, h, self.p) != 0)
        if bad.size:
            raise NotCommutativeError(*sorted(int(i) + 1 for i in bad[0]))
        h.setflags(write=False)
        object.__setattr__(self, "check_matrix", h)

    @property
    def n(self) -> int:
        return self.check_matrix.shape[1] // 2

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

    @functools.cached_property
    def share_structure(self) -> ShareStructure:
        """The share-set rank oracle of this code, built on first use and kept."""
        return ShareStructure(self.p, self.check_matrix)

    def f_space(self) -> SymplecticCode:
        """Row space of the check matrix as a symplectic code."""
        return SymplecticCode(self.p, self.check_matrix)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StabilizerCode):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.check_matrix, other.check_matrix)

    def __reduce__(self):
        return StabilizerCode, (self.p, self.check_matrix)


def validate_stabilizer(check_matrix, p: int, n: int) -> StabilizerCode:
    """The code of a check matrix on n qudits, as a code file gives it.

    An empty 1-d input (``[]``) means no rows; a 2-d input needs 2n columns.
    :class:`StabilizerCode` checks the rest: dependent rows are refused (the
    row count defines k), and the first non-commuting pair is named 1-based.
    """
    if np.ndim(check_matrix) == 1 and not np.size(check_matrix):
        check_matrix = np.zeros((0, 2 * n), dtype=np.int64)
    h = gfp.as_matrix(check_matrix, p)
    if h.shape[1] != 2 * n:
        raise ValueError(f"check matrix needs {2 * n} columns, got {h.shape[1]}")
    return StabilizerCode(p, h)


def code_distance(
    code: StabilizerCode, budget: int = gfp.DEFAULT_ENUM_BUDGET
) -> int:
    """The smallest number of erased qudits the code cannot recover.

    Equals the minimum symplectic weight over the dual of f(S) minus f(S)
    itself: fewer than d erased qudits are always recoverable.  Requires
    k >= 1.  Walks share sets E by size and stops at the first size with
    an uncorrectable erasure, ``2|E| - r_E > r - r_E'``; r_E' is only
    queried for sets with ``r_E < 2|E|``, since the others hold no dual
    vector, so not at all at a size without such a set, nor at a size
    where some set has ``2|E| - r_E > r``, since ``r - r_E' <= r`` makes
    that set uncorrectable.  ``budget`` caps
    the share sets visited, at most 2^n - 1; a repeated call re-reads the
    levels the share structure kept.
    """
    if code.k < 1:
        raise ValueError("distance undefined for k = 0 (no logical qudits)")
    structure = code.share_structure

    def uncorrectable(w: int, sets: np.ndarray, ranks: np.ndarray) -> bool:
        if 2 * w - ranks.min() > code.num_checks:
            return True
        deficient = ranks < 2 * w
        if not deficient.any():
            return False
        outside = structure.complement_ranks(sets[deficient])
        return not structure.correctable(w, ranks[deficient], outside).all()

    best = structure.smallest_size(uncorrectable, code.n, "distance", budget)
    if best is None:
        raise InvariantError("every erasure is correctable despite k >= 1")
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
