import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from advshare import gfp
from tests_util_gfp import ref_kernel, ref_rank, ref_rref, ref_solve


def brute_kernel_dim(m, p):
    """Count solutions of m @ v = 0 by scanning all p**cols vectors."""
    m = np.asarray(m)
    cols = m.shape[1]
    count = 0
    for v in itertools.product(range(p), repeat=cols):
        if not ((m @ np.array(v)) % p).any():
            count += 1
    dim = 0
    while p**dim < count:
        dim += 1
    assert p**dim == count
    return dim


def test_rref_zero_matrix():
    r, rank, pivots = gfp.rref(np.zeros((3, 4), dtype=int), 2)
    assert rank == 0 and pivots == []
    assert not r.any()


def test_rref_identity():
    r, rank, pivots = gfp.rref(np.eye(3, dtype=int), 2)
    assert rank == 3 and pivots == [0, 1, 2]
    assert np.array_equal(r, np.eye(3, dtype=int))


def test_rref_disjoint_support_rows(four_qubit):
    _, rank, _ = gfp.rref(four_qubit.check_matrix, 2)
    assert rank == 2


def test_kernel_identity():
    assert gfp.kernel(np.eye(3, dtype=int), 3).shape == (0, 3)


def test_kernel_parity_row():
    basis = gfp.kernel([[1, 1]], 2)
    assert basis.shape == (1, 2)
    assert np.array_equal(basis[0], [1, 1])


def test_kernel_dimension_matches_exhaustive_count(four_qubit):
    h = four_qubit.check_matrix
    basis = gfp.kernel(h, 2)
    assert basis.shape[0] == 6
    assert brute_kernel_dim(h, 2) == 6
    assert not ((h @ basis.T) % 2).any()
    assert gfp.rank(basis, 2) == 6


def test_solve_identity():
    b = np.array([1, 0, 2])
    x = gfp.solve(np.eye(3, dtype=int), b, 3)
    assert np.array_equal(x, b)


def test_solve_forced_pair():
    x = gfp.solve([[1, 1]], [1], 2)
    assert x is not None and int(x.sum() % 2) == 1


def test_solve_inconsistent():
    assert gfp.solve([[0, 0]], [1], 2) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        gfp.solve([[1, 0]], [1, 1], 2)


def test_modulus_restricted_to_small_primes():
    with pytest.raises(ValueError):
        gfp.rref([[1]], 4)
    with pytest.raises(ValueError):
        gfp.rref([[1]], 11)


@st.composite
def matrices(draw):
    p = draw(st.sampled_from(gfp.PRIMES))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 6))
    data = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return np.array(data, dtype=np.int64), p


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_nullity_and_row_space(mp):
    m, p = mp
    r, rank, pivots = gfp.rref(m, p)
    assert gfp.rank(r, p) == rank
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    for row_idx, pc in enumerate(pivots):
        assert r[row_idx, pc] == 1
    basis = gfp.kernel(m, p)
    assert rank + basis.shape[0] == m.shape[1]
    if basis.size:
        assert not ((m @ basis.T) % p).any()
    # every original row stays in the reduced row space and vice versa
    for row in m:
        assert gfp.in_row_space(r, row, p)
    for row in r[:rank]:
        assert gfp.in_row_space(m, row, p)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_solve_substitution(mp, pyrandom):
    m, p = mp
    x_true = np.array([pyrandom.randrange(p) for _ in range(m.shape[1])])
    b = (m @ x_true) % p
    x = gfp.solve(m, b, p)
    assert x is not None
    assert np.array_equal((m @ x) % p, b)


@st.composite
def unreduced_matrices(draw):
    """(m, b, p): 0-12 rows by 0-30 columns of rank at most ``inner``, with
    entries shifted by multiples of p into [-3p, 4p), and a right-hand side
    that is solvable or drawn at random, shifted alike."""
    p = draw(st.sampled_from(gfp.PRIMES))
    rows, cols, inner = draw(st.integers(0, 12)), draw(st.integers(0, 30)), draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.integers(0, p, size=(rows, inner)) @ rng.integers(0, p, size=(inner, cols)) % p
    b = m @ rng.integers(0, p, size=cols) if draw(st.booleans()) else rng.integers(0, p, size=rows)
    return m + p * rng.integers(-3, 4, size=m.shape), b + p * rng.integers(-3, 4, size=b.shape), p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(unreduced_matrices())
@example((np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64), 3))
@example((np.zeros((4, 0), dtype=np.int64), np.array([0, 0, 7, 0]), 7))
@example((np.full((12, 30), -1, dtype=np.int64), np.full(12, -1), 5))
@example((np.vstack([np.hstack([np.eye(11, dtype=np.int64), np.full((11, 1), 6)]), [1] * 11 + [6]]), np.ones(12), 7))
def test_single_matrix_routines_match_the_numpy_reference(mbp):
    """rref, rank, solve and kernel on one Gauss-Jordan form of Python ints
    return what the numpy reference does, values, shapes and dtypes.  In the
    last example the last row takes 6 times each of eleven pivot rows, each
    6 in the last column: that byte would pass 255 if never reduced."""
    m, b, p = mbp
    r, rank, pivots = gfp.rref(m, p)
    want_r, want_rank, want_pivots = ref_rref(m, p)
    assert r.dtype == want_r.dtype and np.array_equal(r, want_r)
    assert (rank, pivots) == (want_rank, want_pivots)
    assert gfp.rank(m, p) == want_rank
    basis, want_basis = gfp.kernel(m, p), ref_kernel(m, p)
    assert basis.dtype == want_basis.dtype and basis.shape == want_basis.shape
    assert np.array_equal(basis, want_basis)
    x, want_x = gfp.solve(m, b, p), ref_solve(m, b, p)
    if want_x is None:
        assert x is None
    else:
        assert x.dtype == want_x.dtype and np.array_equal(x, want_x)
    # The reference solves each column of a matrix right-hand side alike.
    both = ref_solve(m, np.stack([b, m @ np.ones(m.shape[1], dtype=np.int64)], axis=1), p)
    assert (both is None) == (want_x is None)
    if both is not None:
        assert np.array_equal(both[:, 0], want_x)
        assert np.array_equal(both[:, 1], ref_solve(m, m.sum(axis=1), p))


@pytest.mark.parametrize("p", [2, 3])
def test_in_row_space_of_no_rows(p):
    # Only the zero vector lies in the span of no rows, whatever p is.
    empty = np.zeros((0, 3), dtype=np.int64)
    assert gfp.in_row_space(empty, [0, 0, 0], p)
    assert not gfp.in_row_space(empty, [0, 1, 0], p)
    assert gfp.in_row_space(empty, [2, 0, 2], p) == (p == 2)


def test_iter_span_covers_everything():
    basis = np.array([[1, 0, 1], [0, 1, 1]])
    seen = {tuple(v) for block in gfp.iter_span(basis, 2) for v in block}
    expected = {tuple((a * basis[0] + b * basis[1]) % 2) for a in range(2) for b in range(2)}
    assert seen == expected


@st.composite
def stacks(draw, wide=False):
    """(stack, p); a wide stack has more columns than rows."""
    p = draw(st.sampled_from(gfp.PRIMES))
    batch, rows, cols = (draw(st.integers(0, n)) for n in (6, 5, 7))
    if wide:
        cols = rows + draw(st.integers(1, 8))
    inner = draw(st.integers(0, 6))  # below min(rows, cols) forces rank deficiency
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = rng.integers(0, p, size=(batch, rows, inner))
    right = rng.integers(0, p, size=(batch, inner, cols))
    return (left @ right) % p, p


@pytest.mark.parametrize("p", gfp.PRIMES)
def test_inverse_tables_match_inv_scalar(p):
    table = gfp._INVERSES[p]
    assert table.dtype == np.uint8
    assert table.tolist() == [gfp.inv_scalar(v, p) if v % p else 0 for v in range(256)]


def growing(size, p):
    """Entries that grow as fast as the kernel's bound allows.  The kernel
    steps along the rows of this wide matrix; its first size columns, 1 on
    the diagonal and p - 1 below, put the pivot of step c in column c and
    scale each later row's pivot entry to p - 1.  The last column is
    congruent to 1 in row c when step c comes, so it takes p - 1 times each
    of those, and its uint8 entries grow by (p - 1)**2 a step, to within
    two of the kernel's bound, until the kernel reduces them.  In the
    second matrix the last row is minus the sum of the others: it reduces
    to zero only if no entry wrapped on the way."""
    square = np.tril(np.full((size, size), p - 1, dtype=np.int64), -1) + np.eye(size, dtype=np.int64)
    m = np.concatenate([square, (1 - np.arange(size))[:, None] % p], axis=1)
    deficient = m.copy()
    deficient[-1] = -m[:-1].sum(axis=0) % p
    return np.stack([m, deficient])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(stacks() | stacks(wide=True))
@example((np.full((2, 6, 9), 6, dtype=np.int64), 7))
@example((growing(16, 7), 7))
@example((growing(16, 7).transpose(0, 2, 1), 7))  # tall: steps along the columns
@example((growing(20, 5), 5))
@example((growing(70, 3), 3))
@example((np.random.default_rng(3).integers(-300, 300, size=(4, 5, 6)), 5))
@example((np.array([[[1, 2], [-6, -5]], [[1, 1], [260, 1]]]), 7))  # rank 2 if narrowed unreduced
@example((np.random.default_rng(4).integers(0, 3, size=(3, 2, 11)).astype(np.uint8), 3))
@example((np.full((3, 5, 4), 255, dtype=np.uint8), 7))  # left unreduced, an update would wrap it
@example((np.random.default_rng(6).integers(0, 256, size=(6, 5, 7)).astype(np.uint8), 7))
@example((np.random.default_rng(7).choice(np.array([0, 1, 200, 255], dtype=np.uint8), size=(6, 8, 5)), 3))
@example((np.asfortranarray(np.random.default_rng(8).integers(0, 5, size=(5, 6, 4)).astype(np.uint8)), 5))
@example((np.random.default_rng(9).integers(0, 7, size=(4, 9, 6)).astype(np.uint8).transpose(2, 0, 1), 7))
@example((-np.random.default_rng(10).integers(0, 1000, size=(5, 4, 6)), 5))  # int64 negatives
def test_batched_rank_matches_rank_per_slice(sp):
    """Ranks on uint8 entries: every entry 6 at p = 7, and many unreduced
    steps that take entries to the kernel's bound (growing); entries that are
    negative or at least p, in int64 or in uint8, which must be reduced
    before the first update and must not wrap when narrowed; and wide,
    Fortran-ordered and transposed stacks.  A stack already below p in
    uint8 skips the reduction, and one whose batch-last view is
    C-contiguous (the Fortran-ordered and the transposed example) must
    still be copied, not eliminated in place: the input stays as it was."""
    stack, p = sp
    before = stack.copy()
    got = gfp.batched_rank(stack, p)
    assert np.array_equal(stack, before)
    assert got.shape == (stack.shape[0],)
    for mat, rk in zip(stack, got):
        assert rk == gfp.rank(mat, p)


@pytest.mark.parametrize("shape", [(3, 0, 4), (3, 4, 0), (0, 2, 2), (2, 0, 0)])
def test_batched_rank_empty_shapes(shape):
    assert gfp.batched_rank(np.zeros(shape, dtype=np.int64), 5).tolist() == [0] * shape[0]


#: The fewest matrices that packed_rank eliminates with numpy, not on ints.
SMALL = gfp.INT_RANK_BATCH


@st.composite
def bit_stacks(draw):
    """0/1 stacks whose row length hits one word, a full word and several,
    in batches on either side of :data:`advshare.gfp.INT_RANK_BATCH`, with
    rows on either side of the row-by-row / bit-by-bit choice."""
    batch = draw(st.integers(0, 6) | st.sampled_from([SMALL - 1, SMALL, SMALL + 1, 40]))
    rows = draw(st.integers(0, 12))
    cols = draw(st.sampled_from([0, 1, 63, 64, 65, 130]) | st.integers(0, 9))
    inner = draw(st.integers(0, 7))  # below min(rows, cols) forces rank deficiency
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = rng.integers(0, 2, size=(batch, rows, inner))
    right = rng.integers(0, 2, size=(batch, inner, cols))
    return (left @ right) % 2


#: 0/1 entries for the examples below.  Rows that are alike in their first
#: word and random past it have full rank only if the kernel reads every word.
RANDOM_BITS = np.random.default_rng(5).integers(0, 2, size=(30, 40, 66))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bit_stacks())
@example(RANDOM_BITS[:, :, :64])  # row by row
@example(RANDOM_BITS[:, :, :20])  # bit by bit
@example(np.concatenate([np.ones((30, 12, 64), dtype=np.int64), RANDOM_BITS[:, :12]], axis=2))  # several words
@example(np.concatenate([np.ones((3, 12, 64), dtype=np.int64), RANDOM_BITS[:3, :12]], axis=2))  # on ints
def test_packed_rank_matches_rank_per_slice(stack):
    """Every branch of packed_rank agrees with the reference numpy
    Gauss-Jordan, which shares no code with it."""
    words = gfp.pack_bits(stack)
    assert words.dtype == np.uint64
    assert words.shape == stack.shape[:2] + (-(-stack.shape[2] // 64),)
    batch, rows, cols = stack.shape
    for bits, packed in zip(stack.reshape(batch * rows, cols), words.reshape(batch * rows, words.shape[2])):
        as_int = sum(int(w) << (64 * i) for i, w in enumerate(packed))
        assert as_int == sum(int(b) << c for c, b in enumerate(bits))
    before = words.copy()
    got = gfp.packed_rank(words)
    assert np.array_equal(words, before)
    assert got.shape == (stack.shape[0],)
    for mat, rk in zip(stack, got):
        assert rk == ref_rank(mat, 2)


@pytest.mark.parametrize("cols", [0, 7, 8, 9, 63, 64, 65, 129])
def test_rank_at_p2_matches_rref(cols):
    """rank(m, 2) packs each row into a Python int: across the byte and word
    boundaries of the packing, on unreduced entries, and on 0-row and
    0-column shapes (a rowless code sends (0, 2n) through validation).  The
    reference is the numpy Gauss-Jordan of the tests."""
    rng = np.random.default_rng(cols)
    for rows, inner in [(0, 0), (1, 1), (5, 3), (12, 12), (20, 8), (70, 70), (140, 140)]:
        m = (rng.integers(0, 2, size=(rows, inner)) @ rng.integers(0, 2, size=(inner, cols))) % 2
        assert gfp.rank(m, 2) == ref_rank(m, 2)
        assert gfp.rank(m + 2 * rng.integers(-3, 4, size=m.shape), 2) == ref_rank(m, 2)


@pytest.mark.parametrize(
    "layout",
    [
        lambda bits: bits[:15, :32].T,
        lambda bits: np.asfortranarray(bits[:15, :32]),
        lambda bits: bits[:9, :4].T,
        lambda bits: bits.reshape(-1)[:210].reshape(70, 3).T,
        lambda bits: np.asfortranarray(bits.reshape(-1)[:210].reshape(3, 70)),
        lambda bits: bits[:5, 0, ::-1],
        lambda bits: bits[:4, :6, ::-1],
    ],
    ids=["T-15x32", "F-15x32", "T-9x4", "T-70x3", "F-3x70", "reversed-5x66", "reversed-4x6x66"],
)
def test_pack_bits_reads_any_memory_layout(layout):
    """Transposed, Fortran-order and reversed-column views pack as their
    C-contiguous copies do."""
    m = layout(RANDOM_BITS)
    assert np.array_equal(gfp.pack_bits(m), gfp.pack_bits(np.ascontiguousarray(m)))

@pytest.mark.parametrize(
    "shape", [(3, 0, 1), (3, 4, 0), (0, 2, 2), (2, 0, 0), (SMALL, 0, 1), (SMALL, 4, 0)]
)
def test_packed_rank_empty_shapes(shape):
    assert gfp.packed_rank(np.zeros(shape, dtype=np.uint64)).tolist() == [0] * shape[0]


def test_packed_rank_uses_the_top_bit_of_a_word():
    """On Python ints, and on numpy once the stack is repeated past
    INT_RANK_BATCH matrices."""
    top = np.uint64(1) << np.uint64(63)
    stack = np.array([[[top, 0], [top, 1]], [[top, 1], [top, 1]]], dtype=np.uint64)
    assert gfp.packed_rank(stack).tolist() == [2, 1]
    assert gfp.packed_rank(np.tile(stack, (SMALL, 1, 1))).tolist() == [2, 1] * SMALL
    # On numpy, two one-word rows carrying three bits go row by row; in the
    # first matrix the only pivot is bit 63, which clears the second row.
    stack = np.array([[[top], [top]], [[3], [top]], [[top | np.uint64(2)], [top]]], dtype=np.uint64)
    assert gfp.packed_rank(stack).tolist() == [1, 2, 2]
    assert gfp.packed_rank(np.tile(stack, (SMALL, 1, 1))).tolist() == [1, 2, 2] * SMALL


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: gfp.as_matrix([1, 0], 2), ValueError, "expected a 2-d array, got shape (2,)"),
        (lambda: gfp.as_vector([[1]], 2), ValueError, "expected a 1-d array, got shape (1, 1)"),
        (lambda: gfp.inv_scalar(3, 3), ZeroDivisionError, "0 has no inverse"),
        (lambda: gfp.batched_rank(np.zeros((2, 2)), 2), ValueError,
         "expected a 3-d stack, got shape (2, 2)"),
        (lambda: gfp.packed_rank(np.zeros((2, 2))), ValueError,
         "expected a 3-d stack, got shape (2, 2)"),
    ],
    ids=["as_matrix", "as_vector", "inv_scalar", "batched_rank", "packed_rank"],
)
def test_refusals_name_the_bad_argument(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
