import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advshare import gfp
from advshare.errors import BudgetExceededError
from advshare.symplectic import (
    SymplecticCode,
    complement,
    min_symplectic_weight,
    orthogonality_rows,
    owned_columns,
    product_matrix,
    puncture,
    shorten,
    symplectic_dual,
    symplectic_product,
    symplectic_weight,
)

EXAMPLE6_DUAL_BASIS = [
    [0, 0, 1, 1, 0, 0, 0, 0],
    [0, 1, 0, 1, 0, 0, 0, 0],
    [1, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 1, 0, 1],
    [0, 0, 0, 0, 1, 0, 0, 1],
]


def brute_dual(code):
    """Dual by scanning all p**(2n) vectors."""
    vecs = []
    for v in itertools.product(range(code.p), repeat=2 * code.n):
        v = np.array(v, dtype=np.int64)
        prods = (
            code.generators[:, : code.n] @ v[code.n :]
            - code.generators[:, code.n :] @ v[: code.n]
        ) % code.p
        if not prods.any():
            vecs.append(v)
    return SymplecticCode(code.p, code.n, np.array(vecs).reshape(len(vecs), -1))


def brute_shorten(code, shares):
    """Shortening by scanning every codeword."""
    keep = [j for j in range(1, code.n + 1) if j not in set(shares)]
    cols = [j - 1 for j in keep] + [code.n + j - 1 for j in keep]
    rows = []
    for block in gfp.iter_span(code.generators, code.p):
        for v in block:
            zeroed = all(
                v[j - 1] == 0 and v[code.n + j - 1] == 0 for j in shares
            )
            if zeroed:
                rows.append(v[cols])
    return SymplecticCode(code.p, len(keep), np.array(rows).reshape(len(rows), -1))


def support_min_weight(code):
    """Minimum weight via share-support subsets, smallest first.

    Independent of the all-codeword scan: for each candidate support, tests
    whether the code meets the coordinate subspace nontrivially.
    """
    for size in range(1, code.n + 1):
        for support in itertools.combinations(range(1, code.n + 1), size):
            outside = [j for j in range(1, code.n + 1) if j not in set(support)]
            cols = [j - 1 for j in outside] + [code.n + j - 1 for j in outside]
            if cols:
                coeffs = gfp.kernel(code.generators[:, cols].T, code.p)
            else:
                coeffs = np.eye(code.dim, dtype=np.int64)
            if coeffs.shape[0]:
                vecs = (coeffs @ code.generators) % code.p
                weights = symplectic_weight(vecs, code.n)
                if (weights == size).any():
                    return size
    raise AssertionError("no nonzero codeword found")


def random_code(p, n, dim, rng):
    rows = np.zeros((0, 2 * n), dtype=np.int64)
    while rows.shape[0] < dim:
        cand = rng.integers(0, p, 2 * n)
        stacked = np.vstack([rows, cand])
        if gfp.rank(stacked, p) == stacked.shape[0]:
            rows = stacked
    return SymplecticCode(p, n, rows)


def test_self_product_vanishes(rng):
    for p in (2, 3, 5):
        v = rng.integers(0, p, 8)
        assert symplectic_product(v, v, p) == 0


def test_product_on_all_x_all_z_rows():
    u = [1, 1, 1, 1, 0, 0, 0, 0]
    v = [0, 0, 0, 0, 1, 1, 1, 1]
    assert symplectic_product(u, v, 2) == 0  # 4 mod 2


def test_product_single_coordinate_qutrit():
    u = [1, 0, 0, 0]
    v = [0, 0, 1, 0]
    assert symplectic_product(u, v, 3) == 1


def test_product_refuses_odd_or_unequal_lengths():
    with pytest.raises(ValueError, match="one even length"):
        symplectic_product([1, 0, 1], [0, 1, 0], 2)
    with pytest.raises(ValueError, match="one even length"):
        symplectic_product([1, 0], [0, 1, 0, 0], 2)


def test_antisymmetry(rng):
    for _ in range(50):
        p = int(rng.choice([2, 3, 5]))
        u, v = rng.integers(0, p, 6), rng.integers(0, p, 6)
        assert (symplectic_product(u, v, p) + symplectic_product(v, u, p)) % p == 0


def test_dual_of_zero_space():
    dual = symplectic_dual(SymplecticCode(3, 2, np.zeros((0, 4))))
    assert dual.dim == 4


def test_dual_of_four_qubit_matches_printed_basis(four_qubit):
    dual = symplectic_dual(four_qubit.f_space())
    assert dual.dim == 6
    for row in EXAMPLE6_DUAL_BASIS:
        assert dual.contains(row)
    assert dual == SymplecticCode(2, 4, EXAMPLE6_DUAL_BASIS)


def test_dual_dimensions_and_double_dual(rng):
    for _ in range(12):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 4))
        dim = int(rng.integers(0, 2 * n + 1))
        code = random_code(p, n, dim, rng)
        dual = symplectic_dual(code)
        assert code.dim + dual.dim == 2 * n
        assert dual == brute_dual(code)
        assert symplectic_dual(dual) == code


def test_shorten_empty_set_is_identity(four_qubit):
    code = four_qubit.f_space()
    assert shorten(code, []) == code


def test_shorten_four_qubit_on_share_4(four_qubit):
    shortened = shorten(four_qubit.f_space(), [4])
    assert shortened.dim == 0
    assert shortened.n == 3


def test_shorten_matches_exhaustive_and_dimension_bound(rng):
    for _ in range(12):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 5))
        dim = int(rng.integers(0, min(2 * n, 5) + 1))
        code = random_code(p, n, dim, rng)
        for size in range(n + 1):
            for shares in itertools.combinations(range(1, n + 1), size):
                got = shorten(code, shares)
                assert got == brute_shorten(code, shares)
                assert got.dim >= code.dim - 2 * size
                # every shortened codeword lifts back into the original code
                for row in got.generators:
                    lifted = np.zeros(2 * n, dtype=np.int64)
                    keep = [j for j in range(1, n + 1) if j not in set(shares)]
                    for idx, j in enumerate(keep):
                        lifted[j - 1] = row[idx]
                        lifted[n + j - 1] = row[len(keep) + idx]
                    assert code.contains(lifted)


def test_puncture_plain_deletion():
    code = SymplecticCode(2, 4, [[0, 0, 1, 1, 0, 0, 0, 0]])
    punc = puncture(code, [4])
    assert punc.n == 3
    assert np.array_equal(punc.generators, [[0, 0, 1, 0, 0, 0]])


def test_puncture_empty_set(four_qubit):
    code = four_qubit.f_space()
    assert puncture(code, []) == code


def test_shorten_puncture_duality(four_qubit, rng):
    code = four_qubit.f_space()
    dual = symplectic_dual(code)
    assert shorten(code, [4]) == symplectic_dual(puncture(dual, [4]))
    for _ in range(8):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 4))
        c = random_code(p, n, int(rng.integers(0, 2 * n + 1)), rng)
        for size in range(n + 1):
            for shares in itertools.combinations(range(1, n + 1), size):
                lhs = shorten(c, shares)
                rhs = symplectic_dual(puncture(symplectic_dual(c), shares))
                assert lhs == rhs


def test_min_weight_four_qubit_dual(four_qubit):
    dual = symplectic_dual(four_qubit.f_space())
    assert min_symplectic_weight(dual) == 2


def test_min_weight_single_generator():
    code = SymplecticCode(2, 4, [[1, 1, 1, 1, 0, 0, 0, 0]])
    assert min_symplectic_weight(code) == 4


def test_min_weight_five_qubit_dual(five_qubit):
    dual = symplectic_dual(five_qubit.f_space())
    assert dual.dim == 6
    assert min_symplectic_weight(dual) == 3


def test_min_weight_budget_refusal(five_qubit):
    dual = symplectic_dual(five_qubit.f_space())
    with pytest.raises(BudgetExceededError, match="enumeration limit"):
        min_symplectic_weight(dual, budget=10)


def test_min_weight_zero_space_rejected():
    with pytest.raises(ValueError):
        min_symplectic_weight(SymplecticCode(2, 2, np.zeros((0, 4))))


def test_min_weight_against_support_oracle(rng, four_qubit, five_qubit):
    cases = [symplectic_dual(four_qubit.f_space()), symplectic_dual(five_qubit.f_space())]
    for _ in range(10):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 4))
        code = random_code(p, n, int(rng.integers(1, 2 * n + 1)), rng)
        cases.append(code)
    for code in cases:
        assert min_symplectic_weight(code) == support_min_weight(code)


def test_product_matrix_consistency(rng):
    p = 3
    a = rng.integers(0, p, (3, 8))
    b = rng.integers(0, p, (2, 8))
    table = product_matrix(a, b, p)
    for i in range(3):
        for j in range(2):
            assert table[i, j] == symplectic_product(a[i], b[j], p)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_layout_helpers_match_the_comprehensions(data):
    """owned_columns and complement against the list comprehensions they
    replace, on the empty set, the full set, a drawn set and a batch."""
    n = data.draw(st.integers(1, 8), label="n")
    drawn = tuple(sorted(data.draw(st.sets(st.integers(1, n)), label="shares")))
    for js in [(), tuple(range(1, n + 1)), drawn]:
        assert owned_columns(js, n).tolist() == [j - 1 for j in js] + [n + j - 1 for j in js]
        assert complement(js, n) == tuple(j for j in range(1, n + 1) if j not in set(js))
    size = data.draw(st.integers(0, n), label="size")
    batch = data.draw(
        st.lists(st.lists(st.integers(1, n), min_size=size, max_size=size), min_size=1, max_size=4),
        label="batch",
    )
    stacked = owned_columns(batch, n)
    assert stacked.shape == (len(batch), 2 * size)
    for row, shares in zip(stacked, batch):
        assert row.tolist() == [j - 1 for j in shares] + [n + j - 1 for j in shares]
    assert np.array_equal(owned_columns([batch, batch], n), np.stack([stacked, stacked]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_orthogonality_rows_give_the_symplectic_product(data):
    p = data.draw(st.sampled_from(gfp.PRIMES), label="p")
    n = data.draw(st.integers(1, 5), label="n")
    count = data.draw(st.integers(0, 4), label="count")
    entries = st.lists(st.integers(0, p - 1), min_size=2 * n, max_size=2 * n)
    vectors = np.array(data.draw(st.lists(entries, min_size=count, max_size=count)), dtype=np.int64)
    vectors = vectors.reshape(count, 2 * n)
    d = np.array(data.draw(entries, label="d"), dtype=np.int64)
    rows = orthogonality_rows(vectors, p)
    assert rows.shape == (count, 2 * n)
    for v, row in zip(vectors, rows):
        assert int(row @ d % p) == symplectic_product(v, d, p)
        assert np.array_equal(orthogonality_rows(v, p), row)
