import copy
import dataclasses
import itertools
import pickle

import numpy as np
import pytest

from advshare.advance import is_advance_shareable
from advshare.errors import BudgetExceededError, DependentRowsError, NotCommutativeError
from advshare.pauli import (
    PauliOperator,
    StabilizerCode,
    code_distance,
    commutation_exponent,
    f_inv,
    f_map,
    half_turn_parity,
    identity,
    pauli_inverse,
    pauli_mul,
    random_stabilizer,
    single,
    to_matrix,
    validate_stabilizer,
    weight,
)
from advshare.symplectic import symplectic_weight
from conftest import FIVE_QUBIT_ROWS, FOUR_QUBIT_ROWS


def random_pauli(p, n, rng):
    return PauliOperator(
        p, rng.integers(0, p, n), rng.integers(0, p, n), int(rng.integers(p))
    )


def group_level_distance(code):
    """Distance oracle at the operator level.

    Enumerates every phase-free Pauli on n qudits, keeps those commuting
    with all generators whose image lies outside the check row space, and
    minimizes the weight.  Feasible for p**(2n) up to a few thousand.
    """
    gens = code.generators()
    best = None
    for exps in itertools.product(range(code.p), repeat=2 * code.n):
        v = np.array(exps, dtype=np.int64)
        if not v.any():
            continue
        cand = PauliOperator(code.p, v[: code.n], v[code.n :])
        if any(commutation_exponent(cand, g) for g in gens):
            continue
        from advshare import gfp

        if gfp.in_row_space(code.check_matrix, v, code.p):
            continue
        w = weight(cand)
        best = w if best is None else min(best, w)
    return best


def test_mul_identity(rng):
    p, n = 3, 3
    a = random_pauli(p, n, rng)
    assert pauli_mul(a, identity(p, n)) == a
    assert pauli_mul(identity(p, n), a) == a


def test_mul_reorders_z_past_x():
    z = single(2, 1, 0, z=1)
    x = single(2, 1, 0, x=1)
    zx = pauli_mul(z, x)
    assert zx.phase == 1
    assert zx.x[0] == 1 and zx.z[0] == 1


def test_mul_matches_dense_product_on_example_rows(four_qubit):
    m1 = four_qubit.generator(0)
    m2 = four_qubit.generator(1)
    prod = pauli_mul(m1, m2)
    assert prod.phase == 0
    assert np.array_equal(prod.x, [1, 1, 1, 1])
    assert np.array_equal(prod.z, [1, 1, 1, 1])
    dense = to_matrix(m1) @ to_matrix(m2)
    assert np.abs(dense - to_matrix(prod)).max() < 1e-12


def test_mul_and_commutation_against_dense(rng):
    for _ in range(40):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 3))
        a, b = random_pauli(p, n, rng), random_pauli(p, n, rng)
        ma, mb = to_matrix(a), to_matrix(b)
        assert np.abs(ma @ mb - to_matrix(pauli_mul(a, b))).max() < 1e-12
        w = np.exp(2j * np.pi / p)
        e = commutation_exponent(a, b)
        assert np.abs(ma @ mb - w**e * (mb @ ma)).max() < 1e-12
        inv = pauli_inverse(a)
        assert np.abs(ma @ to_matrix(inv) - np.eye(p**n)).max() < 1e-12


def test_single_qudit_matrix_ground_truth_p5():
    a = PauliOperator(5, [2], [3], 1)
    b = PauliOperator(5, [4], [1], 0)
    assert np.abs(
        to_matrix(a) @ to_matrix(b) - to_matrix(pauli_mul(a, b))
    ).max() < 1e-12


def test_commutation_self_is_zero(rng):
    a = random_pauli(3, 2, rng)
    assert commutation_exponent(a, a) == 0


def test_commutation_single_qutrit():
    x = single(3, 1, 0, x=1)
    z = single(3, 1, 0, z=1)
    e = commutation_exponent(x, z)
    assert e in (1, 2)
    assert commutation_exponent(z, x) == (-e) % 3


def test_commutation_example_generators(four_qubit):
    m1, m2 = four_qubit.generator(0), four_qubit.generator(1)
    assert commutation_exponent(m1, m2) == 0


def test_f_map_round_trip(rng):
    assert not f_map(identity(2, 3)).any()
    m1 = PauliOperator(2, [1, 1, 1, 1], [0, 0, 0, 0])
    assert np.array_equal(f_map(m1), [1, 1, 1, 1, 0, 0, 0, 0])
    for _ in range(20):
        p = int(rng.choice([2, 3, 5]))
        a = random_pauli(p, 3, rng)
        assert f_inv(f_map(a), p, a.phase) == a


def test_f_inv_refuses_an_odd_length():
    with pytest.raises(ValueError, match="even length, got 3"):
        f_inv([1, 0, 1], 2)
    # The other builders refuse malformed exponents and wires too.
    with pytest.raises(ValueError, match="must have equal length"):
        PauliOperator(2, [1, 0], [1])
    for wire in (-1, 3):
        with pytest.raises(ValueError, match=f"wire {wire} outside 0..2"):
            single(2, 3, wire, x=1)


def test_f_is_a_homomorphism(rng):
    for _ in range(20):
        p = int(rng.choice([2, 3]))
        a, b = random_pauli(p, 3, rng), random_pauli(p, 3, rng)
        assert np.array_equal(
            f_map(pauli_mul(a, b)), (f_map(a) + f_map(b)) % p
        )


def test_weight_counts_active_wires():
    a = PauliOperator(3, [1, 0, 2], [0, 0, 1])
    assert weight(a) == 2
    assert symplectic_weight(f_map(a), 3) == 2


def test_half_turn_parity():
    assert half_turn_parity(single(2, 1, 0, x=1, z=1)) == 1
    assert half_turn_parity(single(2, 1, 0, x=1)) == 0
    assert half_turn_parity(single(3, 1, 0, x=1, z=1)) == 0


def test_validate_accepts_example(four_qubit):
    assert four_qubit.k == 2
    assert four_qubit.n == 4


def test_validate_rejects_anticommuting_rows():
    rows = [[1, 0, 0, 0], [0, 0, 1, 0]]  # X and Z on the same share
    with pytest.raises(NotCommutativeError) as err:
        validate_stabilizer(rows, 2, 2)
    assert err.value.row_a == 1 and err.value.row_b == 2


def test_validate_rejects_dependent_rows():
    rows = [[1, 1, 0, 0], [1, 1, 0, 0]]
    with pytest.raises(DependentRowsError):
        validate_stabilizer(rows, 2, 2)


def test_validate_empty_check_matrix():
    # Only an empty 1-d input means no rows; a 2-d input keeps its shape.
    for rows in (np.zeros((0, 6)), []):
        code = validate_stabilizer(rows, 2, 3)
        assert code.k == 3
        assert code.check_matrix.shape == (0, 6)
        assert code_distance(code) == 1
    for rows, columns in (([[]], 0), (np.zeros((0, 4)), 4), (np.zeros((2, 0)), 0)):
        with pytest.raises(ValueError, match=f"check matrix needs 6 columns, got {columns}"):
            validate_stabilizer(rows, 2, 3)


def test_validate_rejects_the_wrong_shape():
    with pytest.raises(ValueError, match="check matrix needs 6 columns, got 4"):
        validate_stabilizer([[1, 0, 0, 0]], 2, 3)
    with pytest.raises(DependentRowsError, match="3 generators on 2 qudits"):
        validate_stabilizer(np.eye(3, 4, dtype=int), 2, 2)


#: X on share 1 alone, on four qubits: distance 1, and {1} is not shareable.
X1_ROWS = [[1, 0, 0, 0, 0, 0, 0, 0]]


def answers(code):
    """(n, k, distance, is {1} shareable), each read through the code's oracle."""
    return code.n, code.k, code_distance(code), is_advance_shareable(code, [1])


def test_replace_answers_like_a_fresh_code():
    code = validate_stabilizer(FOUR_QUBIT_ROWS, 2, 4)
    assert answers(code) == (4, 2, 2, True)  # the share structure is now cached
    replaced = dataclasses.replace(code, check_matrix=np.array(X1_ROWS))
    fresh = validate_stabilizer(X1_ROWS, 2, 4)
    assert replaced == fresh
    assert answers(replaced) == answers(fresh) == (4, 3, 1, False)
    wider = dataclasses.replace(code, check_matrix=np.array(FIVE_QUBIT_ROWS))
    assert answers(wider) == answers(validate_stabilizer(FIVE_QUBIT_ROWS, 2, 5)) == (5, 1, 3, True)


def test_check_matrix_cannot_be_written():
    code = validate_stabilizer(FOUR_QUBIT_ROWS, 2, 4)
    assert answers(code) == (4, 2, 2, True)
    with pytest.raises(ValueError, match="read-only"):
        code.check_matrix[1] = X1_ROWS[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        code.check_matrix = np.array(X1_ROWS)
    assert answers(code) == (4, 2, 2, True)
    # Copies and pickles are rebuilt, so they are read-only too.
    for copied in (copy.deepcopy(code), pickle.loads(pickle.dumps(code))):
        assert copied == code and not copied.check_matrix.flags.writeable
        assert answers(copied) == (4, 2, 2, True)
    # The code keeps its own copy: writing into the caller's rows changes nothing.
    rows = np.array(FOUR_QUBIT_ROWS)
    code = StabilizerCode(2, rows)
    rows[1] = X1_ROWS[0]
    assert np.array_equal(code.check_matrix, FOUR_QUBIT_ROWS)


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ([[1, 0, 0]], ValueError, "(x | z) rows need an even number of columns, got 3"),
        (np.eye(3, 4, dtype=int), DependentRowsError,
         "3 generators on 2 qudits cannot be independent and commuting"),
        ([[1, 1, 1, 1, 0, 0, 0, 0]] * 2, DependentRowsError,
         "rows dependent: remove redundant generators"),
        ([[1, 0, 0, 0], [0, 0, 1, 0]], NotCommutativeError, None),
    ],
    ids=["odd-width", "too-many-rows", "dependent", "anticommuting"],
)
def test_the_constructor_checks_the_code(rows, error, message):
    with pytest.raises(error) as err:
        StabilizerCode(2, rows)
    if message is not None:
        assert str(err.value) == message
    else:
        assert (err.value.row_a, err.value.row_b) == (1, 2)


def test_a_width_that_disagrees_with_n_is_refused():
    # Eight columns are four qubits: the code derives n, and a code file's
    # header must agree with it.
    assert StabilizerCode(2, FOUR_QUBIT_ROWS).n == 4
    with pytest.raises(ValueError, match="check matrix needs 6 columns, got 8"):
        validate_stabilizer(FOUR_QUBIT_ROWS, 2, 3)


def test_distance_four_qubit(four_qubit):
    assert code_distance(four_qubit) == 2
    assert group_level_distance(four_qubit) == 2


def test_distance_five_qubit(five_qubit):
    assert code_distance(five_qubit) == 3
    assert group_level_distance(five_qubit) == 3


def test_distance_two_qubit_xx():
    code = validate_stabilizer([[1, 1, 0, 0]], 2, 2)
    assert code_distance(code) == 1
    assert group_level_distance(code) == 1


def test_distance_qutrit(qutrit):
    assert code_distance(qutrit) == 2
    assert group_level_distance(qutrit) == 2


def test_distance_requires_logical_qudits():
    code = validate_stabilizer([[1, 1, 0, 0], [0, 0, 1, 1]], 2, 2)
    assert code.k == 0
    with pytest.raises(ValueError):
        code_distance(code)


def test_accepted_codes_are_isotropic(rng):
    from advshare.symplectic import product_matrix, symplectic_dual

    for _ in range(10):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 5))
        rows = int(rng.integers(0, n + 1))
        code = random_stabilizer(p, n, rows, rng)
        assert not product_matrix(code.check_matrix, code.check_matrix, p).any()
        dual = symplectic_dual(code.f_space())
        for row in code.check_matrix:
            assert dual.contains(row)


def test_random_stabilizer_is_seed_deterministic():
    a = random_stabilizer(3, 4, 3, np.random.default_rng(5))
    b = random_stabilizer(3, 4, 3, np.random.default_rng(5))
    assert a == b


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pauli_mul(identity(2, 2), identity(2, 3)), "operands must share modulus and qudit count"),
        (lambda: commutation_exponent(identity(2, 1), identity(3, 1)),
         "operands must share modulus and qudit count"),
        (lambda: random_stabilizer(2, 2, 3, np.random.default_rng(0)), "need 0 <= num_checks <= n"),
        (lambda: random_stabilizer(2, 2, -1, np.random.default_rng(0)), "need 0 <= num_checks <= n"),
    ],
    ids=["pauli_mul", "commutation_exponent", "too-many-checks", "negative-checks"],
)
def test_refusals_name_the_mismatch(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_to_matrix_refuses_a_huge_operator_by_its_power():
    # 2**15000 has more decimal digits than Python formats by default.
    with pytest.raises(BudgetExceededError) as err:
        to_matrix(identity(2, 15000))
    assert str(err.value) == "dense dimension 2**15000 exceeds budget 4096"
