"""Advance-shareability analysis and entanglement-assisted code planning.

A share set J can be handed out before the secret exists exactly when
shortening the stabilizer's symplectic row space on J drops its dimension by
the full ``2|J|``.  Equivalently, the 2|J| columns owned by J (x and z parts
together) have full column rank in the check matrix, and row reduction can
then isolate, for each j in J, one row carrying the only nonzero x entry on
J's columns (value ``mu_j``) and one row carrying the only nonzero z entry
(normalized to -1).  Restricting those reduced rows to the complement of J
yields the generators of a smaller, non-commuting group; pairing it with a
sparse single-wire group of identical commutation structure gives an
entanglement-assisted code that corrects erasures exactly as well as the
original stabilizer.  That code depends on the stabilizer and J alone, so
an :class:`EAQECCPlan` is the pair (code, J) and derives the rest.

A cheaper sufficient test: J is shareable whenever |J| is strictly below the
minimum symplectic weight of the dual of the row space.  The converse fails
in general (see the test suite for a recorded counterexample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import gfp
from .access import check_budget
from .errors import InvariantError, NotAdvanceShareableError
from .pauli import PauliOperator, StabilizerCode, f_inv, f_map, single
from .symplectic import complement, owned_columns, product_matrix, validated_shares


def is_advance_shareable(code: StabilizerCode, shares: Iterable[int]) -> bool:
    """Exact criterion: shortening on J removes 2|J| dimensions.

    Equivalently the 2|J| columns J owns have full rank in the check
    matrix; the code's cached share structure answers from that rank.
    """
    js = validated_shares(shares, code.n)
    return bool(code.share_structure().ranks([js])[0] == 2 * len(js))


def dual_min_weight(
    code: StabilizerCode, budget: int = gfp.DEFAULT_ENUM_BUDGET
) -> int:
    """Minimum symplectic weight of the dual of the check row space.

    The smallest |E| with ``r_E < 2|E|``: the first size at which some
    share set cannot go out before the secret.  Any set larger than
    ``floor(r/2)`` qualifies, so only smaller sizes are walked and the
    answer is at most ``floor(r/2) + 1``.  ``budget`` caps the share sets
    visited; a repeated call re-reads the levels the share structure kept.
    """
    last = code.num_checks // 2

    def deficient(w: int, sets: np.ndarray, ranks: np.ndarray) -> bool:
        return bool((ranks < 2 * w).any())

    found = code.share_structure().smallest_size(
        deficient, last, "dual minimum weight", budget
    )
    return last + 1 if found is None else found


def is_advance_shareable_sufficient(
    code: StabilizerCode, shares: Iterable[int], budget: int = gfp.DEFAULT_ENUM_BUDGET
) -> bool:
    """One-directional shortcut: |J| below the dual minimum weight.

    True implies :func:`is_advance_shareable`; False decides nothing.
    """
    js = validated_shares(shares, code.n)
    if not js:
        return True
    return len(js) < dual_min_weight(code, budget=budget)


@dataclass(frozen=True)
class NormalForm:
    """Row-reduced check matrix isolating the share set J.

    Within ``h_prime`` (row-equivalent to the input check matrix, columns in
    the original order), row ``i`` (0-based, ``i < m``) holds the x pivot
    ``mu[i]`` on share ``shares[i]`` and zeros on every other J-owned
    column; row ``m + i`` holds the z pivot ``-1`` on share ``shares[i]``;
    all later rows vanish on J-owned columns.
    """

    p: int
    n: int
    shares: tuple[int, ...]
    h_prime: np.ndarray = field(repr=False)
    mu: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.shares)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalForm):
            return NotImplemented
        same = (self.p, self.n, self.shares, self.mu) == (other.p, other.n, other.shares, other.mu)
        return same and np.array_equal(self.h_prime, other.h_prime)


def _mu_from_rows(
    x_row: np.ndarray, z_row: np.ndarray, n: int, skip_share: int, p: int
) -> int:
    """The pivot value forced on the x row by orthogonality against the z row.

    The symplectic product of the two rows with ``skip_share``'s columns
    zeroed: x_row[j] * z_row[n+j] - x_row[n+j] * z_row[j] summed over all
    other shares j.
    """
    masked = np.stack([x_row, z_row])
    masked[:, owned_columns([skip_share], n)] = 0
    return int(product_matrix(masked[:1], masked[1:], p)[0, 0])


def normal_form(code: StabilizerCode, shares: Iterable[int]) -> NormalForm:
    """Compute the J-isolating normal form of the check matrix.

    Raises :class:`NotAdvanceShareableError` when the J-owned columns do not
    reach rank 2|J|.  The x pivots land wherever elimination puts them (here:
    1, since pivots are normalized); each is checked against the value forced
    by row orthogonality and must be nonzero.
    """
    js = validated_shares(shares, code.n)
    p, n = code.p, code.n
    c = len(js)
    perm = np.concatenate([owned_columns(js, n), owned_columns(complement(js, n), n)])
    reduced, rank, pivots = gfp.rref(code.check_matrix[:, perm], p)
    if pivots[: 2 * c] != list(range(2 * c)):
        raise NotAdvanceShareableError(
            f"shares {js}: J-owned columns have rank {sum(1 for t in pivots if t < 2 * c)}"
            f" < {2 * c}"
        )
    h_prime = np.empty_like(reduced)
    h_prime[:, perm] = reduced
    # Z-pivot rows are scaled to carry exactly -1 on their share column.
    h_prime[c : 2 * c] = (-h_prime[c : 2 * c]) % p
    mu = []
    for i, j in enumerate(js):
        pivot = int(h_prime[i, perm[i]])
        forced = _mu_from_rows(h_prime[i], h_prime[c + i], n, j, p)
        if pivot != forced or pivot == 0:
            raise InvariantError(
                f"normal form invariant violated on share {j}: "
                f"pivot {pivot}, forced value {forced}"
            )
        mu.append(pivot)
    return NormalForm(p, n, js, h_prime, tuple(mu))


@dataclass(frozen=True)
class EAQECCPlan:
    """The encoding with |J| pre-shared entangled pairs: a code and its J.

    The constructor sorts and validates J; the rest is derived once from
    (code, J), so a plan cannot disagree with its code, and plans compare
    by (code, J).  :func:`construct_eaqecc` builds a plan and checks it.

    ``source_generators`` are the normal-form rows restricted to the
    complement of J: they generate the group the encoding unitary must
    realize.  ``target_generators`` live on the same ``n - |J|`` wires but
    act on single wires only: X^{mu_i} and Z on wire i for pair i, plus a
    bare Z on wire r - c for every remaining row r >= 2c.  Both tuples have
    identical pairwise commutation exponents.

    Wire ``w`` of the smaller system is share ``complement[w]``, so the
    wire layout is a slicing of the complement: the c sender shares, then
    the ell zero shares, then the secret shares.
    """

    code: StabilizerCode
    shares: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "shares", validated_shares(self.shares, self.code.n))

    @property
    def p(self) -> int:
        return self.code.p

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def k(self) -> int:
        return self.code.k

    @cached_property
    def normal(self) -> NormalForm:
        return normal_form(self.code, self.shares)

    @cached_property
    def source_generators(self) -> tuple[PauliOperator, ...]:
        restricted = self.normal.h_prime[:, owned_columns(self.complement, self.n)]
        return tuple(f_inv(row, self.p) for row in restricted)

    @cached_property
    def target_generators(self) -> tuple[PauliOperator, ...]:
        # Pair i sits on wire i, and the bare Z of row r on wire r - c.
        p, m, c, mu = self.p, self.n - self.c, self.c, self.normal.mu
        return tuple(
            [single(p, m, i, x=mu[i]) for i in range(c)]
            + [single(p, m, i, z=1) for i in range(c)]
            + [single(p, m, r - c, z=1) for r in range(2 * c, self.code.num_checks)]
        )

    @property
    def c(self) -> int:
        return len(self.shares)

    @property
    def ell(self) -> int:
        return self.n - self.k - 2 * self.c

    @property
    def complement(self) -> tuple[int, ...]:
        return complement(self.shares, self.n)

    @property
    def epr_pairs(self) -> tuple[tuple[int, int], ...]:
        """(advance share, sender share) pairs holding entangled states."""
        return tuple(zip(self.shares, self.complement))

    @property
    def zero_shares(self) -> tuple[int, ...]:
        return self.complement[self.c : self.c + self.ell]

    @property
    def secret_shares(self) -> tuple[int, ...]:
        return self.complement[self.c + self.ell :]

    def parameters(self) -> tuple[int, int, int]:
        """(length, logical qudits, entangled pairs) of the assisted code."""
        return (self.n - self.c, self.k, self.c)


def gram_matrix(generators: Sequence[PauliOperator]) -> np.ndarray:
    """Commutation exponents e_ij with g_i g_j = w^e_ij g_j g_i."""
    if not generators:
        return np.zeros((0, 0), dtype=np.int64)
    p = generators[0].p
    rows = np.array([f_map(g) for g in generators])
    return (-product_matrix(rows, rows, p)) % p


def construct_eaqecc(code: StabilizerCode, shares: Iterable[int]) -> EAQECCPlan:
    """Build the entanglement-assisted encoding plan for share set J, and
    check that its source and target generators commute alike.

    An unshareable J raises :class:`NotAdvanceShareableError` here.  Wire
    positions are assigned greedily: the smallest complement shares host
    the pair wires (in J order), the next smallest host the bare-Z ancilla
    wires, and whatever remains carries the secret.
    """
    plan = EAQECCPlan(code, shares)
    if not np.array_equal(gram_matrix(plan.source_generators), gram_matrix(plan.target_generators)):
        raise InvariantError(
            "commutation structure of restricted generators does not match the"
            " single-wire pattern; normal form is inconsistent"
        )
    return plan


@dataclass(frozen=True)
class ShareableSet:
    """One advance-shareable set with its certificates."""

    shares: tuple[int, ...]
    #: weight-based sufficient criterion, |J| < d_min of the dual
    weight_criterion: bool


def shareable_sets(
    code: StabilizerCode, max_size: int, budget: int = gfp.DEFAULT_ENUM_BUDGET
) -> list[tuple[int, ...]]:
    """Every shareable J with 1 <= |J| <= max_size, lexicographically, as
    share tuples: each size's sets, merged.

    Sets beyond ``floor((n-k)/2)`` shares can never pass, so ``max_size`` is
    effectively capped there.  ``budget`` caps the candidate sets ranked.
    """
    last = min(max_size, code.num_checks // 2)
    candidates = sum(math.comb(code.n, size) for size in range(1, last + 1))
    check_budget(candidates, budget, "advance-shareable sets", f" up to size {last}")
    structure = code.share_structure()
    levels = (structure.sets(w)[structure.level(w) == 2 * w] for w in range(1, last + 1))
    return sorted(js for sets in levels for js in map(tuple, sets.tolist()))


def enumerate_advance_shareable(
    code: StabilizerCode, max_size: int, budget: int = gfp.DEFAULT_ENUM_BUDGET
) -> list[ShareableSet]:
    """All nonempty shareable J with |J| <= max_size, lexicographically.

    The sets of :func:`shareable_sets`; each result notes whether the
    weight shortcut alone would have certified it.  ``budget`` caps the share
    sets the dual-weight walk visits, and separately the candidate sets.
    """
    threshold = dual_min_weight(code, budget=budget) if max_size >= 1 else 0
    return [
        ShareableSet(shares=js, weight_criterion=len(js) < threshold)
        for js in shareable_sets(code, max_size, budget)
    ]
