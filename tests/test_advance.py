import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advshare import advance, clifford, gfp
from advshare.advance import (
    EAQECCPlan,
    construct_eaqecc,
    dual_min_weight,
    enumerate_advance_shareable,
    gram_matrix,
    is_advance_shareable,
    is_advance_shareable_sufficient,
    normal_form,
    shareable_sets,
)
from advshare.codefile import parse_code_file
from advshare.errors import BudgetExceededError, InvariantError, NotAdvanceShareableError
from advshare.pauli import (
    PauliOperator,
    commutation_exponent,
    random_stabilizer,
    validate_stabilizer,
)
from advshare.symplectic import product_matrix, shorten

# Sufficient-check converse failure: two independent XX/ZZ blocks plus an
# idle share.  The idle share puts weight-1 vectors in the dual, so the
# weight criterion rejects every J, yet {1} (for instance) shortens cleanly.
CONVERSE_GAP_ROWS = [
    [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 1, 0, 0, 0],
    [0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 1, 0],
]


def reference_mu(h_prime, shares, n, p):
    """Recompute each x-pivot from the published two-row sum formula."""
    c = len(shares)
    out = []
    for i, j in enumerate(shares):
        total = 0
        for col in range(1, n + 1):
            if col == j:
                continue
            total += int(h_prime[i, col - 1]) * int(h_prime[c + i, n + col - 1])
            total -= int(h_prime[c + i, col - 1]) * int(h_prime[i, n + col - 1])
        out.append(total % p)
    return out


def row_space_equal(a, b, p):
    """Whether two F_p matrices span the same rows: equal reduced forms."""
    ra, rb = gfp.rref(a, p)[0], gfp.rref(b, p)[0]
    ra, rb = ra[np.any(ra, axis=1)], rb[np.any(rb, axis=1)]
    return ra.shape == rb.shape and bool(np.array_equal(ra, rb))


def assert_normal_form_invariants(code, nf):
    p, n, c = nf.p, nf.n, nf.m
    assert row_space_equal(nf.h_prime, code.check_matrix, p)
    for i, j in enumerate(nf.shares):
        assert nf.mu[i] != 0
        assert int(nf.h_prime[i, j - 1]) == nf.mu[i]
        assert int(nf.h_prime[c + i, n + j - 1]) == (p - 1) % p
        for other in nf.shares:
            if other != j:
                assert nf.h_prime[i, other - 1] == 0
                assert nf.h_prime[i, n + other - 1] == 0
                assert nf.h_prime[c + i, other - 1] == 0
                assert nf.h_prime[c + i, n + other - 1] == 0
        assert nf.h_prime[i, n + j - 1] == 0
        assert nf.h_prime[c + i, j - 1] == 0
    for r in range(2 * c, nf.h_prime.shape[0]):
        for j in nf.shares:
            assert nf.h_prime[r, j - 1] == 0
            assert nf.h_prime[r, n + j - 1] == 0
    assert list(nf.mu) == reference_mu(nf.h_prime, nf.shares, n, p)


def test_exact_criterion_on_example(four_qubit):
    assert is_advance_shareable(four_qubit, [4])
    shortened = shorten(four_qubit.f_space(), [4])
    assert shortened.dim == four_qubit.num_checks - 2


def test_exact_criterion_empty_set(four_qubit):
    assert is_advance_shareable(four_qubit, [])


def test_exact_criterion_impossible_size(four_qubit):
    assert not is_advance_shareable(four_qubit, [1, 2])


def test_sufficient_on_example(four_qubit):
    assert dual_min_weight(four_qubit) == 2
    assert is_advance_shareable_sufficient(four_qubit, [4])
    for pair in itertools.combinations(range(1, 5), 2):
        assert not is_advance_shareable_sufficient(four_qubit, pair)


def test_sufficient_five_qubit_pairs(five_qubit):
    for pair in itertools.combinations(range(1, 6), 2):
        assert is_advance_shareable_sufficient(five_qubit, pair)
        assert is_advance_shareable(five_qubit, pair)


def test_sufficient_converse_fails_on_gap_code():
    code = validate_stabilizer(CONVERSE_GAP_ROWS, 2, 5)
    assert dual_min_weight(code) == 1
    assert not is_advance_shareable_sufficient(code, [1])
    assert is_advance_shareable(code, [1])
    # the construction still goes through
    plan = construct_eaqecc(code, [1])
    assert plan.parameters() == (4, 1, 1)


def test_normal_form_on_example(four_qubit):
    nf = normal_form(four_qubit, [4])
    assert nf.mu == (1,)
    assert np.array_equal(nf.h_prime, four_qubit.check_matrix)
    assert_normal_form_invariants(four_qubit, nf)


def test_normal_form_empty_set(four_qubit):
    nf = normal_form(four_qubit, [])
    assert nf.mu == ()
    assert row_space_equal(nf.h_prime, four_qubit.check_matrix, 2)


def test_normal_form_rejects_unshareable(four_qubit):
    with pytest.raises(NotAdvanceShareableError):
        normal_form(four_qubit, [1, 2])


def test_normal_form_invariants_randomized(rng):
    hits = 0
    for _ in range(40):
        p = int(rng.choice([2, 3]))
        n = 4
        rows = int(rng.integers(1, n + 1))
        code = random_stabilizer(p, n, rows, rng)
        for size in range(n + 1):
            for shares in itertools.combinations(range(1, n + 1), size):
                if is_advance_shareable(code, shares):
                    nf = normal_form(code, shares)
                    assert_normal_form_invariants(code, nf)
                    hits += 1
                else:
                    with pytest.raises(NotAdvanceShareableError):
                        normal_form(code, shares)
    assert hits > 50


def test_plan_matches_worked_example(four_qubit):
    plan = construct_eaqecc(four_qubit, [4])
    assert plan.parameters() == (3, 2, 1)
    assert plan.ell == 0
    assert plan.source_generators == (
        PauliOperator(2, [1, 1, 1], [0, 0, 0]),
        PauliOperator(2, [0, 0, 0], [1, 1, 1]),
    )
    assert plan.target_generators == (
        PauliOperator(2, [1, 0, 0], [0, 0, 0]),
        PauliOperator(2, [0, 0, 0], [1, 0, 0]),
    )
    assert plan.zero_shares == ()
    assert plan.epr_pairs == ((4, 1),)
    assert plan.secret_shares == (2, 3)


def test_plan_empty_share_set(four_qubit):
    plan = construct_eaqecc(four_qubit, [])
    assert plan.c == 0
    assert plan.ell == 2
    assert plan.epr_pairs == ()
    assert plan.zero_shares == (1, 2)
    assert plan.secret_shares == (3, 4)
    assert_wire_layout(plan)


def test_an_unshareable_plan_is_refused_when_built(four_qubit):
    # r = 2 checks cannot give up the 4 columns of two shares.
    with pytest.raises(NotAdvanceShareableError, match=re.escape("shares (1, 2)")):
        EAQECCPlan(four_qubit, [1, 2])
    plan = EAQECCPlan(four_qubit, [4, 4])
    assert plan == construct_eaqecc(four_qubit, [4])
    with pytest.raises(NotAdvanceShareableError):
        dataclasses.replace(plan, shares=[1, 2])
    with pytest.raises(ValueError, match="share index 5 outside 1..4"):
        dataclasses.replace(plan, shares=[5])
    assert dataclasses.replace(plan, shares=[]) == construct_eaqecc(four_qubit, [])


def test_a_plan_s_normal_form_and_generators_are_read_only(four_qubit):
    """After the plan's checks ran, none of the arrays it reports can be
    written: the normal form's rows and every source and target generator's
    exponents.  Each comes fresh from reduction mod p, so a caller's own
    array stays writable."""
    plan = construct_eaqecc(four_qubit, [4])
    with pytest.raises(ValueError, match="read-only"):
        plan.normal.h_prime[1] = 0
    for op in (plan.source_generators[0], plan.target_generators[0]):
        with pytest.raises(ValueError, match="read-only"):
            op.x[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            op.z[0] = 1
    assert plan.normal == construct_eaqecc(four_qubit, [4]).normal
    x = np.array([1, 0])
    PauliOperator(2, x, x)
    x[0] = 0


def assert_wire_layout(plan):
    """Each Z target sits on one wire; read back as shares, those wires are
    the pair partners, then the zero shares, and the wires no target
    touches carry the secret.  Pair i's X target shares its Z's wire."""
    c = plan.c
    z_targets = plan.target_generators[c:]
    assert all(not t.x.any() and np.count_nonzero(t.z) == 1 for t in z_targets)
    for x_target, z_target in zip(plan.target_generators[:c], z_targets):
        assert not x_target.z.any()
        assert set(np.flatnonzero(x_target.x)) <= set(np.flatnonzero(z_target.z))
    touched = [plan.complement[int(np.flatnonzero(t.z)[0])] for t in z_targets]
    assert [j for j, _ in plan.epr_pairs] == list(plan.shares)
    assert touched == [partner for _, partner in plan.epr_pairs] + list(plan.zero_shares)
    assert plan.secret_shares == tuple(s for s in plan.complement if s not in touched)


def test_plan_gram_preservation_randomized(rng):
    checked = 0
    for _ in range(30):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 6))
        rows = int(rng.integers(1, n + 1))
        code = random_stabilizer(p, n, rows, rng)
        for size in range(1, n + 1):
            for shares in itertools.combinations(range(1, n + 1), size):
                if is_advance_shareable(code, shares):
                    plan = construct_eaqecc(code, shares)
                    assert np.array_equal(
                        gram_matrix(plan.source_generators),
                        gram_matrix(plan.target_generators),
                    )
                    assert_wire_layout(plan)
                    assert plan.ell == code.num_checks - 2 * size
                    checked += 1
    assert checked > 30


def test_plan_and_encoder_share_one_target_gram(code_dir, monkeypatch):
    """``construct_eaqecc`` and then ``encoding_circuit`` take one symplectic
    product over the plan's target rows between them: the Gram the plan
    checks is the one the encoder reads."""
    rng = np.random.default_rng(35)
    cases = []
    for path in sorted(code_dir.glob("*.code")):
        p, n, rows = parse_code_file(path.read_text())
        code = validate_stabilizer(rows, p, n)
        cases += [(code, ()), (code, shareable_sets(code, 1)[0])]
    for p in gfp.PRIMES:
        code = random_stabilizer(p, 5, 4, rng)
        cases += [(code, shares) for shares in shareable_sets(code, 2)[-2:]]
    operands = []
    for module in (advance, clifford):
        product = module.product_matrix

        def spy(a, b, p, product=product):
            operands.append(a)
            return product(a, b, p)

        monkeypatch.setattr(module, "product_matrix", spy)
    for code, shares in cases:
        operands.clear()
        plan = construct_eaqecc(code, shares)
        clifford.encoding_circuit(plan)
        assert sum(a is plan.target_rows for a in operands) == 1, (code.p, shares)


def test_plan_refuses_a_target_gram_unlike_its_source_gram(four_qubit, monkeypatch):
    def skewed(plan):
        return (product_matrix(plan.target_rows, plan.target_rows, plan.p) + 1) % plan.p

    monkeypatch.setattr(EAQECCPlan, "_target_gram", property(skewed))
    with pytest.raises(InvariantError, match="^commutation structure of restricted generators"):
        construct_eaqecc(four_qubit, [1])


def test_enumerate_on_example(four_qubit):
    singles = enumerate_advance_shareable(four_qubit, 1)
    assert [s.shares for s in singles] == [(1,), (2,), (3,), (4,)]
    assert all(is_advance_shareable(four_qubit, s.shares) and s.weight_criterion for s in singles)
    pairs_too = enumerate_advance_shareable(four_qubit, 2)
    assert [s.shares for s in pairs_too] == [(1,), (2,), (3,), (4,)]


def test_enumerate_five_qubit(five_qubit):
    sets = enumerate_advance_shareable(five_qubit, 2)
    assert len(sets) == 15
    assert all(s.weight_criterion for s in sets)
    names = [s.shares for s in sets]
    assert names == sorted(names)


def lone_z_plus_ghz(n):
    """Z_1 plus a GHZ code on shares 2..n: dual weight 1, r = n, k = 0."""
    rows = np.zeros((n, 2 * n), dtype=np.int64)
    rows[0, n] = 1
    for j in range(1, n - 1):
        rows[j, n + j] = rows[j, n + j + 1] = 1
    rows[n - 1, 1:n] = 1
    return validate_stabilizer(rows, 2, n)


def test_enumerate_budget_names_its_stage():
    """The candidate list is budgeted too, not only the dual-weight walk,
    which here stops at size 1 after 20 sets."""
    code = lone_z_plus_ghz(20)
    assert dual_min_weight(code, budget=20) == 1
    message = (
        "enumeration limit: 60459 share sets up to size 6 exceed budget 100"
        " (advance-shareable sets)"
    )
    with pytest.raises(BudgetExceededError, match=re.escape(message)):
        enumerate_advance_shareable(code, 6, budget=100)
    with pytest.raises(BudgetExceededError, match=re.escape("(advance-shareable sets)")):
        enumerate_advance_shareable(code, 2, budget=20 + 190 - 1)
    found = enumerate_advance_shareable(code, 2, budget=20 + 190)
    assert found and all(
        is_advance_shareable(code, s.shares) and not s.weight_criterion for s in found
    )


def reference_gram(generators):
    """The commutation-exponent table, one commutation_exponent per pair."""
    g = np.zeros((len(generators), len(generators)), dtype=np.int64)
    for i, a in enumerate(generators):
        for j, b in enumerate(generators):
            g[i, j] = commutation_exponent(a, b)
    return g


def reference_targets(plan):
    """The target generators built wire by wire, each wire found by looking
    its share up in the complement of J."""
    p, n, c = plan.p, plan.n, plan.c
    complement = tuple(j for j in range(1, n + 1) if j not in set(plan.shares))
    m = len(complement)

    def on(share, x, z):
        xv, zv = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
        xv[complement.index(share)], zv[complement.index(share)] = x, z
        return PauliOperator(p, xv, zv)

    partner = dict(plan.epr_pairs)
    rows = len(plan.source_generators)
    return (
        [on(partner[j], plan.normal.mu[i], 0) for i, j in enumerate(plan.shares)]
        + [on(partner[j], 0, 1) for j in plan.shares]
        + [on(plan.zero_shares[r - 2 * c], 0, 1) for r in range(2 * c, rows)]
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_gram_matrix_matches_the_pairwise_table(data):
    p = data.draw(st.sampled_from(gfp.PRIMES), label="p")
    n = data.draw(st.integers(1, 5), label="n")
    count = data.draw(st.integers(0, 6), label="count")
    part = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    generators = [
        PauliOperator(p, data.draw(part), data.draw(part), data.draw(st.integers(0, p - 1)))
        for _ in range(count)
    ]
    gram = gram_matrix(generators)
    assert gram.shape == (count, count)
    assert np.array_equal(gram, reference_gram(generators))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_plan_targets_match_the_wire_lookup_on_random_codes(data):
    p = data.draw(st.sampled_from(gfp.PRIMES), label="p")
    n = data.draw(st.integers(1, 5), label="n")
    rows = data.draw(st.integers(0, n), label="rows")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    code = random_stabilizer(p, n, rows, np.random.default_rng([p, n, rows, seed]))
    for size in range(rows // 2 + 1):
        for shares in itertools.combinations(range(1, n + 1), size):
            if is_advance_shareable(code, shares):
                plan = construct_eaqecc(code, shares)
                assert list(plan.target_generators) == reference_targets(plan)


@pytest.mark.parametrize("name", ["five_qubit", "four_qubit_ghz", "qutrit_ghz"])
def test_plan_targets_match_the_wire_lookup_on_shipped_codes(name, code_dir):
    p, n, rows = parse_code_file((code_dir / f"{name}.code").read_text())
    code = validate_stabilizer(rows, p, n)
    found = enumerate_advance_shareable(code, n)
    assert found
    for shares in [()] + [s.shares for s in found]:
        plan = construct_eaqecc(code, shares)
        assert list(plan.target_generators) == reference_targets(plan)
