import io
import itertools
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
from advshare.clifford import encoding_circuit
from advshare.codefile import parse_code_file
from advshare.errors import BudgetExceededError
from advshare.pauli import code_distance, random_stabilizer, validate_stabilizer
from advshare.sim import classify_access, correctable_erasure, mutual_information_table
from advshare.symplectic import (
    min_symplectic_weight,
    puncture,
    shorten,
    symplectic_dual,
    symplectic_weight,
)
from conftest import FIVE_QUBIT_ROWS
from test_pauli import group_level_distance

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


@pytest.mark.parametrize("bad", ["zero", "n+1"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_share_index_out_of_range(five_qubit, entry, bad):
    index = 0 if bad == "zero" else five_qubit.n + 1
    message = f"share index {index} outside 1..{five_qubit.n}"
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
    structure = code.share_structure()
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
    for structure in (code.share_structure(), k0.share_structure()):
        for w in range(n + 1):
            ranks = w, structure.level(w), structure.level(n - w)[::-1]
            got = structure.label_codes(*ranks)
            assert got.dtype.kind == "i"
            assert np.array_equal(got, select_label_codes(structure, *ranks))
            if structure is k0.share_structure():
                assert structure.correctable(*ranks).all() and not got.any()
    w = data.draw(st.integers(0, n))
    inside, outside = (
        np.array(data.draw(st.lists(st.integers(0, 2 * n), min_size=6, max_size=6)))
        for _ in range(2)
    )
    structure = code.share_structure()
    got = structure.label_codes(w, inside, outside)
    assert np.array_equal(got, select_label_codes(structure, w, inside, outside))


@pytest.mark.parametrize("p", gfp.PRIMES)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutual_information_matches_dense_reference(p, data):
    code = data.draw(codes(p, max_qudits=max_qudits(p, DENSE_LIMIT)))
    subsets = all_subsets(code.n)
    structure = code.share_structure()
    closed = []
    for w in range(code.n + 1):
        inside, outside = structure.level(w), structure.level(code.n - w)[::-1]
        closed += structure.mutual_information(w, inside, outside).tolist()
    singles = [(j,) for j in range(1, code.n + 1) if is_advance_shareable(code, [j])]
    for shares in [()] + singles[:1]:
        plan = construct_eaqecc(code, shares)
        dense = mutual_information_table(plan, encoding_circuit(plan), subsets)
        for subset, value in zip(subsets, closed):
            assert isinstance(value, int)
            assert abs(dense[subset] - value) < 1e-9, (shares, subset)


@pytest.mark.parametrize("p", gfp.PRIMES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_walks_match_span_and_group_references(p, data):
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
    structure = ShareStructure(five_qubit.p, n, h)
    for w in range(n + 1):
        for shares, rank in zip(share_sets(n, w).tolist(), structure.level(w)):
            assert rank == rank_on(h, shares, five_qubit.p)


@pytest.mark.parametrize("p, checks", [(2, 3), (2, 70), (3, 4)])
def test_rank_chunks_stay_within_the_entry_limit(p, checks, monkeypatch):
    """Complements of small sets are large: each elimination takes only as
    many of them as fit the entry limit, and the ranks do not change."""
    n = 12
    h = np.random.default_rng([p, checks]).integers(0, p, size=(checks, 2 * n))
    structure = ShareStructure(p, n, h)
    row_entries = (structure._words if p == 2 else structure._columns).shape[1]
    per_set = n + 2 * (n - 1) * (1 + row_entries)
    monkeypatch.setattr(access, "CHUNK_ENTRIES", 3 * per_set)
    chunks = []
    chunk_ranks = structure._chunk_ranks

    def recorded(sets):
        chunks.append(sets.shape)
        return chunk_ranks(sets)

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
    """The size of the sets ranked by each batched elimination, in call order."""
    sizes = []
    chunk_ranks = ShareStructure._chunk_ranks

    def recorded(self, sets):
        sizes.append(sets.shape[1])
        return chunk_ranks(self, sets)

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
        assert sorted(code.share_structure()._levels) == [0, 1]
        assert sizes == [1]
        sizes.clear()


@pytest.mark.parametrize("checks, n", [(70, 40), (130, 70)])
def test_packed_ranks_match_rank_per_set_past_one_word(checks, n, monkeypatch):
    """p = 2 structures over more than 64 checks rank on several words per column."""
    monkeypatch.setattr(access, "CHUNK_ENTRIES", 2000)
    rng = np.random.default_rng([checks, n])
    h = rng.integers(0, 2, size=(checks, 2 * n))
    h[checks // 2] = h[0] ^ h[1]  # a dependent row
    structure = ShareStructure(2, n, h)
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
    structure = ShareStructure(p, n, h)
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
        structure = ShareStructure(p, n, h)
        for w in range(n + 1):
            sets = share_sets(n, w)
            assert sets.tolist() == [list(c) for c in itertools.combinations(range(1, n + 1), w)]
            for row, other in zip(sets.tolist(), share_sets(n, n - w)[::-1].tolist()):
                assert sorted(row + other) == list(range(1, n + 1))
            assert np.array_equal(access._row_index(sets, n), np.arange(len(sets)))
            direct = ShareStructure(p, n, h).complement_ranks(sets)
            assert np.array_equal(direct, structure.level(n - w)[::-1])


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
        direct = ShareStructure(p, n, h)
        got_direct = direct.ranks(sets), direct.complement_ranks(sets)
        assert sorted(direct._levels) == [0]
        kept = ShareStructure(p, n, h)
        kept.level(w), kept.level(n - w)
        got_kept = kept.ranks(sets), kept.complement_ranks(sets)
        for i, shares in enumerate(sets.tolist()):
            assert got_direct[0][i] == got_kept[0][i] == rank_on(h, shares, p)
            outside = rank_on(h, complement_of(shares, n), p)
            assert got_direct[1][i] == got_kept[1][i] == outside


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
    needs in a kept level too, so `demo --trials 0` eliminates each size
    1..5 exactly once (size 0 is never eliminated)."""
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
    assert sorted(sizes) == [1, 2, 3, 4, 5]
