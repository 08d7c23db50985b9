import io
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advshare import access, cli, gfp
from advshare.access import AccessLabel, ShareStructure, share_sets
from advshare.advance import (
    construct_eaqecc,
    dual_min_weight,
    is_advance_shareable,
    is_advance_shareable_sufficient,
    normal_form,
)
from advshare.codefile import parse_code_file
from advshare.errors import BudgetExceededError, InvariantError
from advshare.pauli import code_distance, random_stabilizer, validate_stabilizer
from advshare.sim import classify_access, correctable_erasure, mutual_information_table
from advshare.symplectic import (
    min_symplectic_weight,
    orthogonality_rows,
    puncture,
    shorten,
    symplectic_dual,
    symplectic_weight,
)
from conftest import FIVE_QUBIT_ROWS, REPO
from test_pauli import group_level_distance
from tests_util_gfp import ref_kernel, ref_rank

ENTRY_POINTS = {
    "is_advance_shareable": is_advance_shareable,
    "is_advance_shareable_sufficient": is_advance_shareable_sufficient,
    "normal_form": normal_form,
    "construct_eaqecc": construct_eaqecc,
    "shorten": lambda code, shares: shorten(code.f_space(), shares),
    "puncture": lambda code, shares: puncture(code.f_space(), shares),
    "correctable_erasure": correctable_erasure,
    "classify_access": classify_access,
}

#: Dense reference states stay at or below this many amplitudes, p**(n+k).
DENSE_LIMIT = 128

#: Span references scan at most this many dual vectors, p**(n+k).
SPAN_LIMIT = 2**14

#: The operator-level distance reference visits p**(2n) Paulis one by one.
GROUP_LIMIT = 7**4


@pytest.mark.parametrize("bad", ["zero", "n+1", "1.5", "float64", "True", "np.True_"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_share_index_out_of_range(five_qubit, entry, bad):
    """An index outside 1..n, or one that is not an integer even when its
    value is whole, is refused by name rather than truncated.  A bool is
    not an index either, Python's or NumPy's, though Python's is an int."""
    n = five_qubit.n
    index, message = {
        "zero": (0, f"share index 0 outside 1..{n}"),
        "n+1": (n + 1, f"share index {n + 1} outside 1..{n}"),
        "1.5": (1.5, "share index 1.5 is not an integer"),
        "float64": (np.float64(2.0), "share index 2.0 is not an integer"),
        "True": (True, "share index True is not an integer"),
        "np.True_": (np.True_, "share index True is not an integer"),
    }[bad]
    with pytest.raises(ValueError, match=re.escape(message)):
        ENTRY_POINTS[entry](five_qubit, [1, index])


def slow_correctable_erasure(code, erased):
    """Reference: every dual vector supported on the erased shares is a check."""
    err = sorted(set(int(j) for j in erased))
    dual = symplectic_dual(code.f_space())
    if dual.dim == 0:
        return True
    outside = [j for j in range(1, code.n + 1) if j not in set(err)]
    cols = [j - 1 for j in outside] + [code.n + j - 1 for j in outside]
    if cols:
        coeffs = gfp.kernel(dual.generators[:, cols].T, code.p)
        supported = (coeffs @ dual.generators) % code.p
    else:
        supported = dual.generators
    return all(gfp.in_row_space(code.check_matrix, v, code.p) for v in supported)


def span_code_distance(code):
    """Reference: scan the whole dual span for the lightest vector outside f(S)."""
    dual = symplectic_dual(code.f_space())
    h_rref, _, h_pivots = gfp.rref(code.check_matrix, code.p)
    best = code.n + 1
    for block in gfp.iter_span(dual.generators, code.p):
        # Membership in f(S): reduce by the RREF of H and compare.
        reconstructed = (block[:, h_pivots] @ h_rref) % code.p
        outside = np.any(block != reconstructed, axis=1)
        w = symplectic_weight(block[outside], code.n)
        if w.size:
            best = min(best, int(w.min()))
    return best


def max_qudits(p, limit):
    """Largest n + k with p**(n + k) within limit."""
    m = 0
    while p ** (m + 1) <= limit:
        m += 1
    return m


@st.composite
def codes(draw, p, max_n=7, max_qudits=None):
    """A random [[n, k]]_p code with n <= max_n and n + k <= max_qudits."""
    max_qudits = 2 * max_n if max_qudits is None else max_qudits
    n = draw(st.integers(1, min(max_n, max_qudits)))
    k = draw(st.integers(0, min(n, max_qudits - n)))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_stabilizer(p, n, n - k, np.random.default_rng(seed))


def all_subsets(n):
    return [s for size in range(n + 1) for s in itertools.combinations(range(1, n + 1), size)]


@pytest.mark.parametrize("p", gfp.PRIMES)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_oracle_matches_shortening_and_dual_reference(p, data):
    code = data.draw(codes(p))
    r = code.num_checks
    subsets = all_subsets(code.n)
    structure = code.share_structure
    shareable, correctable, labels = [], [], []
    for w in range(code.n + 1):
        inside, outside = structure.level(w), structure.level(code.n - w)[::-1]
        ranks = w, inside, outside
        shareable += (inside == 2 * w).tolist()
        correctable += structure.correctable(*ranks).tolist()
        labels += structure.labels(*ranks)
    for subset, ok, fixable, label in zip(subsets, shareable, correctable, labels):
        expected = 2 * len(subset) <= r and (
            shorten(code.f_space(), subset).dim == r - 2 * len(subset)
        )
        assert ok == expected, subset
        assert is_advance_shareable(code, subset) == expected
        assert fixable == slow_correctable_erasure(code, subset), subset
        assert correctable_erasure(code, subset) == fixable
        complement = [j for j in range(1, code.n + 1) if j not in subset]
        if slow_correctable_erasure(code, complement):
            assert label is AccessLabel.QUALIFIED
        elif fixable:
            assert label is AccessLabel.FORBIDDEN
        else:
            assert label is AccessLabel.INTERMEDIATE
        assert classify_access(code, subset) is label


def select_label_codes(structure, w, inside, outside):
    """Reference access-label codes by ``np.select``: qualified takes
    precedence over forbidden, and anything else is intermediate."""
    qualified = structure.correctable(structure.n - w, outside, inside)
    forbidden = structure.correctable(w, inside, outside)
    return np.select([qualified, forbidden], [0, 1], 2)


@pytest.mark.parametrize("p", gfp.PRIMES)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_label_codes_match_the_select_reference(p, data):
    """Every level of a random code and of a k = 0 code, where every set is
    both qualified and forbidden and so labelled qualified; then arbitrary
    rank arrays."""
    code = data.draw(codes(p))
    n = code.n
    k0 = random_stabilizer(p, n, n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    for structure in (code.share_structure, k0.share_structure):
        for w in range(n + 1):
            ranks = w, structure.level(w), structure.level(n - w)[::-1]
            got = structure.label_codes(*ranks)
            assert got.dtype.kind == "i"
            assert np.array_equal(got, select_label_codes(structure, *ranks))
            if structure is k0.share_structure:
                assert structure.correctable(*ranks).all() and not got.any()
    w = data.draw(st.integers(0, n))
    inside, outside = (
        np.array(data.draw(st.lists(st.integers(0, 2 * n), min_size=6, max_size=6)))
        for _ in range(2)
    )
    structure = code.share_structure
    got = structure.label_codes(w, inside, outside)
    assert np.array_equal(got, select_label_codes(structure, w, inside, outside))


@pytest.mark.parametrize("p", gfp.PRIMES)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutual_information_matches_dense_reference(p, data):
    code = data.draw(codes(p, max_qudits=max_qudits(p, DENSE_LIMIT)))
    subsets = all_subsets(code.n)
    structure = code.share_structure
    closed = []
    for w in range(code.n + 1):
        inside, outside = structure.level(w), structure.level(code.n - w)[::-1]
        closed += structure.mutual_information(w, inside, outside).tolist()
    singles = [(j,) for j in range(1, code.n + 1) if is_advance_shareable(code, [j])]
    for shares in [()] + singles[:1]:
        plan = construct_eaqecc(code, shares)
        dense = mutual_information_table(plan, subsets)
        for subset, value in zip(subsets, closed):
            assert isinstance(value, int)
            assert abs(dense[subset] - value) < 1e-9, (shares, subset)


@pytest.mark.parametrize("p", gfp.PRIMES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_walks_match_span_and_group_references(p, data):
    """The walks match the span and group references; the distance walk
    asks for no complement ranks of an empty batch of sets."""
    with pytest.MonkeyPatch.context() as patch:
        refuse_empty_complement_queries(patch)
        code = data.draw(codes(p, max_qudits=max_qudits(p, SPAN_LIMIT)))
        span = p ** (code.n + code.k)
        weight = dual_min_weight(code, budget=span)
        assert weight == min_symplectic_weight(symplectic_dual(code.f_space()))
        if code.k:
            d = code_distance(code, budget=span)
            assert d == span_code_distance(code)
            assert weight <= d
            if p ** (2 * code.n) <= GROUP_LIMIT:
                assert d == group_level_distance(code)
        # Past the span references: the parent's exact count never refuses.
        big = data.draw(codes(p))
        span = p ** (big.n + big.k)
        weight = dual_min_weight(big, budget=span)
        assert 1 <= weight <= big.num_checks // 2 + 1
        if big.k:
            assert weight <= code_distance(big, budget=span) <= big.n


@pytest.mark.parametrize("p", gfp.PRIMES)
def test_walks_on_empty_check_matrix(p):
    code = validate_stabilizer(np.zeros((0, 6)), p, 3)
    assert code_distance(code, budget=3) == span_code_distance(code) == 1
    assert dual_min_weight(code, budget=0) == 1
    assert min_symplectic_weight(symplectic_dual(code.f_space())) == 1


@pytest.mark.parametrize(
    "walk, stage, needed",
    [(code_distance, "distance", 5 + 10 + 10), (dual_min_weight, "dual minimum weight", 5 + 10)],
)
def test_walk_budget_names_its_stage(walk, stage, needed):
    code = validate_stabilizer(FIVE_QUBIT_ROWS, 2, 5)
    message = f"enumeration limit: 5 share sets up to size 1 exceed budget 4 ({stage})"
    with pytest.raises(BudgetExceededError, match=re.escape(message)):
        walk(code, budget=4)
    with pytest.raises(BudgetExceededError, match=re.escape(f"({stage})")):
        walk(code, budget=needed - 1)
    assert walk(code, budget=needed) == 3


@pytest.mark.parametrize(
    "count, spelled",
    [(2**64 - 1, "18446744073709551615"), (2**64, "at least 2**64"), (3 << 20000, "at least 2**20001")],
    ids=["below-2**64", "2**64", "20002-bit"],
)
def test_budget_refusal_spells_a_huge_count_as_a_power_of_2(count, spelled):
    message = f"enumeration limit: {spelled} share sets up to size 9 exceed budget 5 (stage)"
    with pytest.raises(BudgetExceededError) as err:
        access.check_budget(count, 5, "stage", " up to size 9")
    assert str(err.value) == message
    access.check_budget(5, 5, "stage")




def rank_on(h, shares, p):
    """Reference r_E: :func:`gfp.rank` of the columns the 1-based shares own."""
    n = h.shape[1] // 2
    return gfp.rank(h[:, [j - 1 for j in shares] + [n + j - 1 for j in shares]], p)


def complement_of(shares, n):
    return [j for j in range(1, n + 1) if j not in shares]


def test_chunked_ranks_match_rank_per_set(five_qubit, monkeypatch):
    """Every level of the five-qubit code, at most three sets to an elimination."""
    monkeypatch.setattr(access, "CHUNK_ENTRIES", 12)
    h, n = five_qubit.check_matrix, five_qubit.n
    structure = ShareStructure(five_qubit.p, h)
    for w in range(n + 1):
        for shares, rank in zip(share_sets(n, w).tolist(), structure.level(w)):
            assert rank == rank_on(h, shares, five_qubit.p)


@pytest.mark.parametrize("p, checks", [(2, 3), (2, 70), (3, 4)])
def test_rank_chunks_stay_within_the_entry_limit(p, checks, monkeypatch):
    """Complements of small sets are large: each elimination takes only as
    many of them as fit the entry limit, and the ranks do not change."""
    n = 12
    h = np.random.default_rng([p, checks]).integers(0, p, size=(checks, 2 * n))
    structure = ShareStructure(p, h)
    row_entries = structure._checks.shape[2]
    per_set = n + 2 * (n - 1) * (1 + row_entries)
    monkeypatch.setattr(access, "CHUNK_ENTRIES", 3 * per_set)
    chunks = []
    chunk_ranks = structure._chunk_ranks

    def recorded(sets, source):
        chunks.append(sets.shape)
        return chunk_ranks(sets, source)

    monkeypatch.setattr(structure, "_chunk_ranks", recorded)
    for w in (1, 2):
        sets = share_sets(n, w)
        inside, outside = structure.ranks(sets), structure.complement_ranks(sets)
        for shares, rank, rank_out in zip(sets.tolist(), inside, outside):
            assert rank == rank_on(h, shares, p)
            assert rank_out == rank_on(h, complement_of(shares, n), p)
    assert len(chunks) > 4
    for count, size in chunks:
        # Sizes above 2 are complements, which also hold n membership flags.
        flags = n if size > 2 else 0
        assert count * (flags + 2 * size * (1 + row_entries)) <= access.CHUNK_ENTRIES


def record_eliminations(monkeypatch):
    """The size of the sets ranked by each batched elimination, and how many
    matrices it ranks on them (1: H alone, 2: H and the normalizer's G), in
    call order."""
    sizes = []
    chunk_ranks = ShareStructure._chunk_ranks

    def recorded(self, sets, source):
        sizes.append((sets.shape[1], source.shape[0]))
        return chunk_ranks(self, sets, source)

    monkeypatch.setattr(ShareStructure, "_chunk_ranks", recorded)
    return sizes


def test_distance_skips_complements_of_sets_beyond_the_check_count(monkeypatch):
    """A size with 2|E| - r_E > r is uncorrectable without r_E': a rowless
    code ranks its single shares, keeps level 1 and builds no complement,
    also on 30000 shares."""
    sizes = record_eliminations(monkeypatch)
    for n in (6, 30000):
        code = validate_stabilizer(np.zeros((0, 2 * n), dtype=np.int64), 2, n)
        assert code_distance(code) == 1
        assert sorted(code.share_structure._levels) == [0, 1]
        assert sizes == [(1, 1)]
        sizes.clear()


def refuse_empty_complement_queries(patch):
    """Make ``ShareStructure.complement_ranks`` fail on a query without
    sets; the sizes of the queries it answers, in call order."""
    queried = []
    complement_ranks = ShareStructure.complement_ranks

    def checked(self, sets):
        assert len(sets), "complement ranks asked for no sets"
        queried.append(np.shape(sets)[1])
        return complement_ranks(self, sets)

    patch.setattr(ShareStructure, "complement_ranks", checked)
    return queried


#: (p, n, k) of the benchmark ladders' codes with k >= 1: validate and
#: analyze on the first eight, demo on the last four.
LADDER_SHAPES = [
    (2, 16, 1), (2, 15, 2), (3, 10, 1), (3, 9, 2), (5, 7, 1), (5, 6, 2), (7, 6, 1), (7, 5, 2),
    (2, 9, 1), (2, 8, 2), (3, 8, 1), (3, 7, 2),
]


@pytest.mark.parametrize("p, n, k", LADDER_SHAPES)
def test_distance_asks_no_empty_complement_query(p, n, k, monkeypatch):
    """The distance walk asks r_E' only at a size with a deficient set
    (r_E < 2|E|); at a size without one every set is correctable.  No set
    of these random codes smaller than the distance holds a dual vector,
    so the walk asks once, for the deficient sets of size d, and the
    distance matches the span reference where the span is small."""
    code = random_stabilizer(p, n, n - k, np.random.default_rng([p, n, k]))
    queried = refuse_empty_complement_queries(monkeypatch)
    d = code_distance(code)
    assert queried == [d]
    if p ** (n + k) <= SPAN_LIMIT * 2:
        assert d == span_code_distance(code)


@pytest.mark.parametrize("checks, n", [(70, 40), (130, 70)])
def test_packed_ranks_match_rank_per_set_past_one_word(checks, n, monkeypatch):
    """p = 2 structures over more than 64 checks rank on several words per column."""
    monkeypatch.setattr(access, "CHUNK_ENTRIES", 2000)
    rng = np.random.default_rng([checks, n])
    h = rng.integers(0, 2, size=(checks, 2 * n))
    h[checks // 2] = h[0] ^ h[1]  # a dependent row
    structure = ShareStructure(2, h)
    for size in [0, 1, 2, 17, checks // 2, checks // 2 + 3, n - 1, n]:
        picks = [rng.choice(np.arange(1, n + 1), size=size, replace=False) for _ in range(4)]
        sets = np.sort(np.array(picks, dtype=np.intp).reshape(4, size), axis=1)
        inside, outside = structure.ranks(sets), structure.complement_ranks(sets)
        for shares, rank, rank_out in zip(sets.tolist(), inside, outside):
            assert rank == rank_on(h, shares, 2)
            assert rank_out == rank_on(h, complement_of(shares, n), 2)


@pytest.mark.parametrize("name", ["five_qubit", "four_qubit_ghz"])
def test_packed_ranks_match_rank_per_set_on_shipped_codes(name, code_dir, monkeypatch):
    monkeypatch.setattr(access, "CHUNK_ENTRIES", 8)
    p, n, rows = parse_code_file((code_dir / f"{name}.code").read_text())
    assert p == 2
    h = np.asarray(rows)
    structure = ShareStructure(p, h)
    for w in range(n + 1):
        inside, outside = structure.level(w), structure.level(n - w)[::-1]
        for shares, rank, rank_out in zip(share_sets(n, w).tolist(), inside, outside):
            assert rank == rank_on(h, shares, p)
            assert rank_out == rank_on(h, complement_of(shares, n), p)


@pytest.mark.parametrize("p", gfp.PRIMES)
def test_share_sets_pair_each_row_with_its_complement(p):
    """In lexicographic order row i of size w and row C(n, w) - 1 - i of
    size n - w are complements, for every n <= 10 and w; so the reversed
    level n - w holds r_E' of level w's sets, and a set's row index finds it."""
    for n in range(1, 11):
        h = np.random.default_rng([p, n]).integers(0, p, size=(min(n, 3), 2 * n))
        structure = ShareStructure(p, h)
        for w in range(n + 1):
            sets = share_sets(n, w)
            assert sets.tolist() == [list(c) for c in itertools.combinations(range(1, n + 1), w)]
            for row, other in zip(sets.tolist(), share_sets(n, n - w)[::-1].tolist()):
                assert sorted(row + other) == list(range(1, n + 1))
            assert np.array_equal(access._row_index(sets, n), np.arange(len(sets)))
            direct = ShareStructure(p, h).complement_ranks(sets)
            assert np.array_equal(direct, structure.level(n - w)[::-1])


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("p", [2, 3])
def test_kept_listings_equal_share_sets_in_any_request_order(p, order, monkeypatch):
    """``sets(w)`` is ``share_sets(n, w)`` for every n <= 14 and w, whichever
    order the sizes are asked in.  Ascending sizes list each level of at
    least LIST_FROM_BELOW sets from the kept level below; descending sizes
    never have it, so every level is listed directly; shuffled sizes mix
    the two."""
    extended, original = [], access._extended

    def counted(sets, n):
        extended.append(n)
        return original(sets, n)

    monkeypatch.setattr(access, "_extended", counted)
    rng = np.random.default_rng([p, len(order)])
    for n in range(15):
        h = rng.integers(0, p, size=(min(n, 3), 2 * n))
        structure = ShareStructure(p, h)
        sizes = list(range(n + 1))
        if order == "descending":
            sizes.reverse()
        elif order == "shuffled":
            rng.shuffle(sizes)
        for w in sizes:
            listed = structure.sets(w)
            assert listed.dtype == np.intp
            assert np.array_equal(listed, share_sets(n, w)), (n, w)
            assert listed is structure.sets(w)
    if order == "descending":
        assert not extended
    else:
        assert extended


@pytest.mark.parametrize("p, fewest_checks", [(2, 0), (2, 65), (3, 0), (5, 0), (7, 0)])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_kept_levels_and_direct_eliminations_match_rank_per_set(p, fewest_checks, data):
    """r_E and r_E' read from kept levels equal those eliminated directly,
    and both equal :func:`gfp.rank` on each set: empty and full sets
    included, and at p = 2 also past 64 checks (several packed words)."""
    n = data.draw(st.integers(1, 8))
    checks = data.draw(st.integers(fewest_checks, fewest_checks + 10))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    h = rng.integers(0, p, size=(checks, 2 * n))
    for w in sorted({0, data.draw(st.integers(0, n)), n}):
        picks = [rng.choice(np.arange(1, n + 1), size=w, replace=False) for _ in range(5)]
        sets = np.sort(np.array(picks, dtype=np.intp).reshape(5, w), axis=1)
        direct = ShareStructure(p, h)
        got_direct = direct.ranks(sets), direct.complement_ranks(sets)
        assert sorted(direct._levels) == [0]
        kept = ShareStructure(p, h)
        kept.level(w), kept.level(n - w)
        got_kept = kept.ranks(sets), kept.complement_ranks(sets)
        for i, shares in enumerate(sets.tolist()):
            assert got_direct[0][i] == got_kept[0][i] == rank_on(h, shares, p)
            outside = rank_on(h, complement_of(shares, n), p)
            assert got_direct[1][i] == got_kept[1][i] == outside


@pytest.mark.parametrize("p", gfp.PRIMES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_pair_reads_both_kept_levels_with_one_row_index(p, data):
    """pair(sets) is (w, ranks(sets), complement_ranks(sets)) whichever of
    levels w and n - w are kept, and with both kept it lists one row index."""
    n = data.draw(st.integers(1, 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    h = rng.integers(0, p, size=(data.draw(st.integers(0, n)), 2 * n))
    w = data.draw(st.integers(0, n))
    picks = [rng.choice(np.arange(1, n + 1), size=w, replace=False) for _ in range(6)]
    sets = np.sort(np.array(picks, dtype=np.intp).reshape(6, w), axis=1)
    indexed = []
    row_index = access._row_index

    def counted(sets, n):
        indexed.append(len(sets))
        return row_index(sets, n)

    for kept in ([], [w], [n - w], [w, n - w]):
        structure = ShareStructure(p, h)
        for size in kept:
            structure.level(size)
        want = structure.ranks(sets), structure.complement_ranks(sets)
        indexed.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(access, "_row_index", counted)
            got_w, inside, outside = structure.pair(sets)
        assert got_w == w
        assert np.array_equal(inside, want[0]) and np.array_equal(outside, want[1])
        held = [size in structure._levels for size in (w, n - w)]
        assert len(indexed) == (1 if all(held) else sum(held))


def five_qudit_code(p):
    """The [[5,1,3]]_p code: cyclic shifts of X Z Z^-1 X^-1 I."""
    x, z = np.array([1, 0, 0, p - 1, 0]), np.array([0, 1, p - 1, 0, 0])
    rows = [np.concatenate([np.roll(x, s), np.roll(z, s)]) for s in range(4)]
    return validate_stabilizer(np.array(rows), p, 5)


@pytest.mark.parametrize("shares", ["1", "none"])
@pytest.mark.parametrize("p", gfp.PRIMES)
def test_demo_without_trials_eliminates_each_size_once(p, shares, tmp_path, monkeypatch):
    """The distance walk, the J query and the access table read one set of
    kept levels.  On the [[5,1,3]]_p codes the walk finds every r_E' it
    needs in a kept level too, so `demo --trials 0` eliminates sizes 1 and
    2 once each, on H and G together, and no other size: sizes 3..5 are
    filled from the identity r_E' = r - 2|E| + g_E (size 0 is never
    eliminated)."""
    code = five_qudit_code(p)
    assert code_distance(code) == 3
    lines = [f"p={p} n=5"] + [
        " ".join(map(str, row[:5])) + " | " + " ".join(map(str, row[5:]))
        for row in code.check_matrix
    ]
    path = tmp_path / "five_qudit.code"
    path.write_text("\n".join(lines) + "\n")
    sizes = record_eliminations(monkeypatch)
    argv = ["demo", str(path), "--J", shares, "--trials", "0"]
    assert cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    assert sorted(sizes) == [(1, 2), (2, 2)]


# ---------------------------------------------------------------------------
# the whole table: H and the normalizer's G ranked together


def ref_rank_on(m, shares, p):
    """Reference rank of the columns the 1-based shares own in m, by
    ``ref_rank``, which shares no code with :mod:`advshare.gfp`."""
    n = m.shape[1] // 2
    return ref_rank(m[:, [j - 1 for j in shares] + [n + j - 1 for j in shares]], p)


def checked_table(code, patch):
    """Run :meth:`ShareStructure.table` on a fresh structure of ``code`` and
    check it against references set by set: every size's r_E against
    ``ref_rank`` of H, and at each stacked size g_E against ``ref_rank`` of
    G, the normalizer's generators by ``ref_kernel``, and r_E' against
    ``r - 2|E| + g_E``.  Returns the stacked sizes and each elimination's
    (sets, size, matrices ranked on them, entries per column)."""
    p, n, h, r = code.p, code.n, code.check_matrix, code.num_checks
    normal, chunks = {}, []
    eliminate, chunk_ranks = ShareStructure._eliminate, ShareStructure._chunk_ranks

    def recorded_eliminate(self, sets, outside, source=None):
        ranks = eliminate(self, sets, outside, source)
        if source is not None:
            normal[sets.shape[1]] = ranks[1]
        return ranks

    def recorded_chunk(self, sets, source):
        chunks.append((*sets.shape, source.shape[0], source.shape[2]))
        return chunk_ranks(self, sets, source)

    patch.setattr(ShareStructure, "_eliminate", recorded_eliminate)
    patch.setattr(ShareStructure, "_chunk_ranks", recorded_chunk)
    structure = ShareStructure(p, h)
    structure.table()
    assert sorted(structure._levels) == list(range(n + 1))
    for w in range(n + 1):
        level = structure._levels[w]
        sets = share_sets(n, w).tolist()
        assert len(level) == len(sets)
        assert level.tolist() == [ref_rank_on(h, shares, p) for shares in sets]
    g = ref_kernel(orthogonality_rows(h, p), p)
    assert g.shape == (2 * n - r, 2 * n)
    assert not (h @ orthogonality_rows(g, p).T % p).any()
    for w, normal_ranks in normal.items():
        outside = structure._levels[n - w][::-1]
        for shares, g_e, r_out in zip(share_sets(n, w).tolist(), normal_ranks, outside):
            assert g_e == ref_rank_on(g, shares, p)
            assert r_out == r - 2 * w + g_e
    return sorted(normal), chunks


@pytest.mark.parametrize("p", gfp.PRIMES)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_table_matches_references_and_the_normalizer_identity(p, data):
    """Random codes with n <= 8 and every check count 0..n, so rowless and
    k = 0 codes too: each size w < min(r, n/2) is stacked, and every size
    matches the references."""
    n = data.draw(st.integers(1, 8))
    r = data.draw(st.integers(0, n))
    code = random_stabilizer(p, n, r, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    with pytest.MonkeyPatch.context() as patch:
        stacked, chunks = checked_table(code, patch)
    assert stacked == list(range(1, min(r, (n + 1) // 2)))
    assert all(matrices == 2 for _, size, matrices, _ in chunks if size in stacked)


@pytest.mark.parametrize("name", ["five_qubit", "four_qubit_ghz", "qutrit_ghz"])
def test_table_matches_references_on_shipped_codes(name, monkeypatch):
    p, n, rows = parse_code_file((REPO / "codes" / f"{name}.code").read_text())
    code = validate_stabilizer(np.asarray(rows), p, n)
    stacked, _ = checked_table(code, monkeypatch)
    assert stacked == list(range(1, min(code.num_checks, (n + 1) // 2)))


@pytest.mark.parametrize("p", [2, 3])
def test_stacked_chunks_split_within_the_entry_limit(p, monkeypatch):
    """With the entry limit at three sets of the largest stacked size, both
    matrices' columns counted, stacked sizes 2 and 3 split into chunks of 4
    and 3 sets, each within the limit, and the table still matches the
    references."""
    n = 8
    code = random_stabilizer(p, n, n - 1, np.random.default_rng([p, n]))
    source = ShareStructure(p, code.check_matrix)._with_normalizer
    monkeypatch.setattr(access, "CHUNK_ENTRIES", 3 * 2 * 3 * (1 + 2 * source.shape[2]))
    stacked, chunks = checked_table(code, monkeypatch)
    assert stacked == [1, 2, 3]
    for w in stacked:
        counts = [count for count, size, matrices, _ in chunks if size == w and matrices == 2]
        assert sum(counts) == len(share_sets(n, w))
        assert len(counts) == (1 if w == 1 else -(-len(share_sets(n, w)) // (9 // w)))
    for count, size, matrices, entries in chunks:
        assert count * 2 * size * (1 + matrices * entries) <= access.CHUNK_ENTRIES


@pytest.mark.parametrize("off", ["one-too-many", "one-too-few"])
def test_a_normalizer_rank_out_of_bounds_is_an_invariant_error(off, tmp_path, monkeypatch):
    """A kernel that returns a normalizer rank one past 2k above r_E, or one
    below it, makes the table raise InvariantError and `demo` exit 3 with
    an internal-error report."""
    chunk_ranks = ShareStructure._chunk_ranks

    def broken(self, sets, source):
        ranks = chunk_ranks(self, sets, source)
        if source.shape[0] == 2:
            k = self.n - self.num_checks
            ranks[1, 0] = ranks[0, 0] + (2 * k + 1 if off == "one-too-many" else -1)
        return ranks

    monkeypatch.setattr(ShareStructure, "_chunk_ranks", broken)
    code = validate_stabilizer(FIVE_QUBIT_ROWS, 2, 5)
    message = "normalizer rank minus check rank of a 1-set leaves 0..2"
    with pytest.raises(InvariantError, match=re.escape(message)):
        ShareStructure(code.p, code.check_matrix).table()
    path = tmp_path / "five_qubit.code"
    path.write_text((REPO / "codes" / "five_qubit.code").read_text())
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["demo", str(path), "--J", "none", "--trials", "0"], stdout=out, stderr=err) == 3
    report = json.loads(out.getvalue())
    assert report["error"] == {"type": "internal", "message": message}
    assert err.getvalue() == f"internal error: {message}\n"
