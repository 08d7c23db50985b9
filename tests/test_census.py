"""Every stabilizer code at small (p, n), checked against slow references.

A code's check space is a totally isotropic subspace of F_p^{2n}, and each
subspace has exactly one basis in reduced row echelon form.  The census
lists those bases for every rank r <= n, keeps the ones whose rows are
pairwise orthogonal, and builds one :class:`StabilizerCode` from each.
Signs of the generators do not change any r_E, so one code per subspace
covers every share-set question.  There are
``prod_{i<r} (p^{2(n-i)} - 1) / (p^{i+1} - 1)`` subspaces of rank r.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from advshare.advance import construct_eaqecc, dual_min_weight, shareable_sets
from advshare.errors import NotAdvanceShareableError
from advshare.pauli import StabilizerCode, code_distance
from advshare.symplectic import min_symplectic_weight, symplectic_dual
from test_access import ref_rank_on, span_code_distance

#: (p, n) -> number of codes, the formula summed over r; and how many
#: (code, J) pairs with J nonempty and shareable Theorem 2 (|J| below the
#: dual minimum weight) misses, of how many.
CENSUS = {
    (2, 3): (514, (468, 630)),
    (3, 2): (81, (0, 48)),
    (5, 2): (313, (0, 240)),
    (7, 2): (801, (0, 672)),
}


def isotropic_count(p, n):
    """The formula, summed over r <= n."""
    return sum(
        math.prod(p ** (2 * (n - i)) - 1 for i in range(r))
        // math.prod(p ** (i + 1) - 1 for i in range(r))
        for r in range(n + 1)
    )


def echelon_bases(p, width, r):
    """Every r x width matrix over F_p in reduced row echelon form with r
    nonzero rows, as one (count, r, width) array."""
    out = []
    for pivots in itertools.combinations(range(width), r):
        free = [
            (i, c) for i, pc in enumerate(pivots) for c in range(pc + 1, width) if c not in pivots
        ]
        values = np.array(list(itertools.product(range(p), repeat=len(free))), dtype=np.int64)
        bases = np.zeros((len(values), r, width), dtype=np.int64)
        bases[:, range(r), pivots] = 1
        for column, (i, c) in enumerate(free):
            bases[:, i, c] = values[:, column]
        out.append(bases)
    return np.concatenate(out)


@functools.lru_cache(maxsize=None)
def census(p, n):
    """One code per totally isotropic subspace of F_p^{2n}."""
    codes = []
    for r in range(n + 1):
        bases = echelon_bases(p, 2 * n, r)
        x, z = bases[..., :n], bases[..., n:]
        products = (x @ z.transpose(0, 2, 1) - z @ x.transpose(0, 2, 1)) % p
        codes += [StabilizerCode(p, h) for h in bases[~products.any(axis=(1, 2))]]
    return codes


def subsets(n):
    return [e for w in range(n + 1) for e in itertools.combinations(range(1, n + 1), w)]


@functools.lru_cache(maxsize=None)
def reference_ranks(p, n):
    """r_E of every share set of every census code, by ``ref_rank``."""
    return [
        {e: ref_rank_on(code.check_matrix, e, p) for e in subsets(n)} for code in census(p, n)
    ]


@pytest.mark.parametrize("p, n", sorted(CENSUS))
def test_census_counts_every_isotropic_subspace(p, n):
    codes = census(p, n)
    assert len(codes) == CENSUS[p, n][0] == isotropic_count(p, n)
    assert {code.num_checks for code in codes} == set(range(n + 1))


@pytest.mark.parametrize("p, n", sorted(CENSUS))
def test_census_table_matches_reference_ranks(p, n):
    for code, rank in zip(census(p, n), reference_ranks(p, n)):
        structure = code.share_structure
        structure.table()
        for w in range(n + 1):
            expected = [rank[e] for e in map(tuple, structure.sets(w).tolist())]
            assert structure.level(w).tolist() == expected, (code.check_matrix, w)


@pytest.mark.parametrize("p, n", sorted(CENSUS))
def test_census_walks_match_the_span_scans(p, n):
    for code in census(p, n):
        weight = dual_min_weight(code)
        assert weight == min_symplectic_weight(symplectic_dual(code.f_space()))
        if code.k:
            assert code_distance(code) == span_code_distance(code)


@pytest.mark.parametrize("p, n", sorted(CENSUS))
def test_census_shareable_sets_and_theorems(p, n):
    """The shareable sets against r_J = 2|J|, within floor(r/2) shares;
    Theorem 1: the plan builds on exactly those J; Theorem 2: |J| below the
    dual minimum weight is sufficient, and the sets it misses are counted."""
    misses = shareable = 0
    for code, rank in zip(census(p, n), reference_ranks(p, n)):
        expected = [e for e in subsets(n) if e and rank[e] == 2 * len(e)]
        assert shareable_sets(code, n) == sorted(expected)
        assert all(len(e) <= code.num_checks // 2 for e in expected)
        weight = dual_min_weight(code)
        for e in subsets(n):
            if rank[e] == 2 * len(e):
                assert construct_eaqecc(code, e).shares == e
            else:
                assert len(e) >= weight
                with pytest.raises(NotAdvanceShareableError):
                    construct_eaqecc(code, e)
        shareable += len(expected)
        misses += sum(len(e) >= weight for e in expected)
    assert (misses, shareable) == CENSUS[p, n][1]
