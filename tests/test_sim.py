import dataclasses
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advshare import clifford, gfp, sim
from advshare.access import share_sets
from advshare.advance import EAQECCPlan, construct_eaqecc, is_advance_shareable, normal_form
from advshare.clifford import (
    CliffordCircuit,
    _place_digits,
    _register,
    _unregister,
    apply_circuit_tensor,
    gate,
)
from advshare.codefile import parse_code_file
from advshare.errors import (
    AdvShareError,
    BudgetExceededError,
    InvariantError,
    UncorrectableErasureError,
)
from advshare.pauli import (
    PauliOperator,
    f_inv,
    f_map,
    half_turn_parities,
    half_turn_parity,
    omega,
    random_stabilizer,
    single,
    to_matrix,
    validate_stabilizer,
    zeta,
)
from advshare.sim import (
    AccessLabel,
    QuditState,
    apply_circuit,
    apply_pauli,
    classify_access,
    correctable_erasure,
    encode_advance,
    encode_with_reference,
    entropic_audit,
    entropy,
    erase_and_decode,
    fidelity,
    make_epr,
    measure_pauli,
    mutual_information_table,
    random_state,
    reconstruct,
    reduced_density,
    simulate_protocol,
)
from advshare.symplectic import owned_columns
from test_clifford import random_pauli
from tests_util_gfp import ref_rref, ref_solve

#: Registers of the compiled-Pauli sweep hold at most this many amplitudes.
KERNEL_REGISTER_LIMIT = 256

# Dense leakage of any two shares of the four-qubit fixture, in log-2 units:
# exactly half the 2k available correlations (frozen from a dense run).
TWO_SHARE_LEAKAGE = 2.0


# ---------------------------------------------------------------------------
# slow references: Paulis one qudit at a time


def slow_apply_pauli_tensor(arr, op, axes=None):
    """Reference: apply w^phase X(x) Z(z); Z acts first, X (a cyclic shift) second."""
    p = op.p
    if axes is None:
        axes = list(range(op.n))
    out = np.asarray(arr, dtype=complex)
    w = np.exp(2j * np.pi / p)
    for q, axis in enumerate(axes):
        if op.z[q]:
            diag = w ** (int(op.z[q]) * np.arange(p))
            shape = [1] * out.ndim
            shape[axis] = p
            out = out * diag.reshape(shape)
        if op.x[q]:
            out = np.roll(out, int(op.x[q]), axis=axis)
    if op.phase:
        out = out * (w**op.phase)
    return out


def slow_eigenvalue_exponent(arr, op, axes=None):
    """Reference: tau with op|psi> = zeta**tau |psi>, from one dense product."""
    moved = slow_apply_pauli_tensor(arr, op, axes)
    lam = complex(np.vdot(arr.reshape(-1), moved.reshape(-1)))
    assert abs(abs(lam) - 1.0) < 1e-9
    assert np.linalg.norm(moved.reshape(-1) - lam * arr.reshape(-1)) < 1e-7
    return int(round(np.angle(lam) / (np.pi / op.p))) % (2 * op.p)


def eigenvalue_exponent(arr, op, axes=None):
    """The compiled batched check :func:`sim._exponents`, for one Pauli."""
    kernels = sim.compile_paulis(op.p, op.n, [op])
    return sim._exponents(_register(np.asarray(arr, dtype=complex), op.p, op.n, axes), kernels)[0, 0]


def slow_measure_pauli(arr, op, rng, axes=None):
    """Reference: build every power, then every eigen-branch, one at a time."""
    p = op.p
    parity = half_turn_parity(op)
    powers = [np.asarray(arr, dtype=complex)]
    for _ in range(p - 1):
        powers.append(slow_apply_pauli_tensor(powers[-1], op, axes))
    zp = zeta(p)
    branches, probs, taus = [], [], []
    for j in range(p):
        tau = (2 * j + parity) % (2 * p)
        lam = zp**tau
        branch = sum(lam ** (-t) * powers[t] for t in range(p)) / p
        branches.append(branch)
        probs.append(float(np.linalg.norm(branch.reshape(-1)) ** 2))
        taus.append(tau)
    probs_arr = np.clip(np.array(probs), 0.0, None)
    probs_arr = probs_arr / probs_arr.sum()
    pick = int(rng.choice(p, p=probs_arr))
    return taus[pick], branches[pick] / np.linalg.norm(branches[pick].reshape(-1))


def slow_erase_and_decode(state, code, syndrome, erased, rng):
    """Reference decoder: roll-based measure-and-reset, measurement and correction."""
    p, n = code.p, code.n
    err = sorted(set(int(j) for j in erased))
    arr = state.tensor()
    for j in err:
        moved = np.moveaxis(arr, j - 1, 0)
        probs = np.array([float(np.linalg.norm(moved[i]) ** 2) for i in range(p)])
        probs = np.clip(probs, 0.0, None)
        outcome = int(rng.choice(p, p=probs / probs.sum()))
        collapsed = np.zeros_like(moved)
        collapsed[outcome] = moved[outcome] / np.linalg.norm(moved[outcome])
        arr = np.roll(np.moveaxis(collapsed, 0, j - 1), -outcome, axis=j - 1)
    measured = []
    for g in code.generators():
        tau, arr = slow_measure_pauli(arr, g, rng)
        measured.append(tau)
    deltas = [((got - want) % (2 * p)) // 2 for got, want in zip(measured, syndrome)]
    h = code.check_matrix
    err0 = [j - 1 for j in err]
    rows = np.concatenate([h[:, [n + j for j in err0]], (-h[:, err0]) % p], axis=1)
    u = gfp.solve(rows, np.array([(-d) % p for d in deltas], dtype=np.int64), p)
    full = np.zeros(2 * n, dtype=np.int64)
    for idx, j in enumerate(err0):
        full[j] = u[idx]
        full[n + j] = u[len(err0) + idx]
    arr = slow_apply_pauli_tensor(arr, f_inv(full, p))
    assert tuple(slow_eigenvalue_exponent(arr, g) for g in code.generators()) == syndrome
    return QuditState(p, n, arr.reshape(-1)), tuple(measured), full


def slow_simulate_protocol(plan, seed, trials, accessible_sets):
    """Reference transcript: the draws of simulate_protocol, decoded by the references."""
    code = plan.code
    rng = np.random.default_rng(seed)
    out = []
    for acc in accessible_sets:
        for _ in range(trials):
            secret = random_state(code.p, code.k, rng)
            shared, _ = encode_advance(plan, secret, 4096)
            syndrome = tuple(
                slow_eigenvalue_exponent(shared.tensor(), g) for g in code.generators()
            )
            erased = tuple(j for j in range(1, code.n + 1) if j not in acc)
            state, measured, correction = slow_erase_and_decode(
                shared, code, syndrome, erased, rng
            )
            rho = sim._secret_density(state, plan)
            fid = float(np.real(secret.amplitudes.conj() @ rho @ secret.amplitudes))
            out.append((syndrome, measured, tuple(int(v) for v in correction), fid))
    return out


def slow_compile_rows(p, n, rows, phases=None):
    """Reference tables: each generator's powers composed gather by gather.

    P|d> = w**(phase + z.d) |d + x>, so (P v)[j] = w**e[j] v[s[j]] with
    digits(s[j]) = digits(j) - x and e[j] = phase + z.(digits(j) - x);
    P**t = P P**(t-1) composes the gathers step by step and adds the integer
    exponents mod p.
    """
    r = len(rows)
    place, digits = _place_digits(p, n)
    roots = omega(p) ** np.arange(p)
    src = np.empty((r, p - 1, p**n), dtype=np.int32)
    phase_vectors = np.empty((r, p - 1, p**n), dtype=complex)
    shifts = rows[:, :n].astype(np.int8).reshape(r, n, 1)
    weights = np.empty((r, 2, n), dtype=np.int64)
    weights[:, 0] = place
    weights[:, 1] = rows[:, n:]
    shifted = np.empty_like(digits)
    for i in range(r):
        np.subtract(digits, shifts[i], out=shifted)
        shifted %= p
        step_src, step_exp = np.einsum(
            "aq,qj->aj", weights[i], shifted, dtype=np.int32, casting="same_kind"
        )
        step_exp = (step_exp + (0 if phases is None else phases[i])) % p
        power_src, power_exp = step_src, step_exp
        for t in range(p - 1):
            if t:
                power_src = power_src[step_src]
                power_exp = (step_exp + power_exp[step_src]) % p
            src[i, t] = power_src
            np.take(roots, power_exp, out=phase_vectors[i, t])
    parity = half_turn_parities(rows, p)
    taus = (2 * np.arange(p)[None, :] + parity[:, None]) % (2 * p)
    turns = (-taus[:, :, None] * np.arange(p)) % (2 * p)
    branch = (zeta(p) ** np.arange(2 * p))[turns] / p
    rows_s = sim._symplectic_rows(rows, p)
    return sim.PauliKernels(p, src, phase_vectors, taus, branch, place, digits, rows_s)


def register_layout(p, n, extra, order):
    """Tensor shape with register qudit q on axis order[q], extras elsewhere."""
    shape = [0] * (n + len(extra))
    for q in range(n):
        shape[order[q]] = p
    for size, axis in zip(extra, order[n:]):
        shape[axis] = size
    return shape


def dense_power(arr, op, t, axes):
    """Reference: to_matrix(op)**t on the register axes of a tensor."""
    n = op.n
    front = list(range(n))
    moved = np.moveaxis(arr, axes, front)
    flat = np.linalg.matrix_power(to_matrix(op), t) @ moved.reshape(op.p**n, -1)
    return np.moveaxis(flat.reshape(moved.shape), front, axes)


@st.composite
def pauli_cases(draw, p):
    """A random Pauli, phase included, and a tensor layout that carries its
    qudits on shuffled axes among 0-2 extra axes."""
    n_max = 1
    while p ** (n_max + 1) <= KERNEL_REGISTER_LIMIT:
        n_max += 1
    n = draw(st.integers(1, n_max))
    digits = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    op = PauliOperator(p, draw(digits), draw(digits), draw(st.integers(0, p - 1)))
    extra = draw(st.lists(st.integers(1, 3), max_size=2))
    order = draw(st.permutations(range(n + len(extra))))
    seed = draw(st.integers(0, 2**32 - 1))
    return op, extra, list(order), seed


@pytest.fixture
def four_qubit_pipeline(four_qubit):
    plan = construct_eaqecc(four_qubit, [4])
    return four_qubit, construct_eaqecc(four_qubit, [4])


def test_epr_qubit_amplitudes():
    state = make_epr(2)
    expected = np.zeros(4)
    expected[0] = expected[3] = 1 / np.sqrt(2)
    assert np.allclose(state.amplitudes, expected)
    assert abs(state.amplitudes[0] - 0.7071067811865475) < 1e-12


def test_epr_qutrit_amplitudes():
    state = make_epr(3)
    assert abs(state.amplitudes[0] - 1 / np.sqrt(3)) < 1e-12
    assert abs(state.amplitudes[4] - 1 / np.sqrt(3)) < 1e-12
    assert abs(state.amplitudes[8] - 1 / np.sqrt(3)) < 1e-12
    assert np.count_nonzero(np.abs(state.amplitudes) > 1e-12) == 3


def test_epr_halves_maximally_mixed():
    for p in (2, 3):
        state = make_epr(p)
        for axis in (0, 1):
            rho = reduced_density(state, [axis])
            assert np.abs(rho - np.eye(p) / p).max() < 1e-12
            assert abs(entropy(rho, p) - 1.0) < 1e-12


def test_state_norm_validation():
    with pytest.raises(ValueError):
        QuditState(2, 1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        QuditState(2, 2, np.array([1.0, 0.0]))


def test_apply_pauli_matches_dense(rng):
    for _ in range(20):
        p = int(rng.choice([2, 3]))
        m = int(rng.integers(1, 3))
        state = random_state(p, m, rng)
        op = PauliOperator(
            p, rng.integers(0, p, m), rng.integers(0, p, m), int(rng.integers(p))
        )
        direct = apply_pauli(state, op).amplitudes
        dense = to_matrix(op) @ state.amplitudes
        assert np.abs(direct - dense).max() < 1e-12


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_corrections_read_the_shifted_digits_and_their_exact_phase(data):
    """Column c of a correction block reads entry place @ ((d - x_c) % p) of
    column c with phase exponent z_c @ ((d - x_c) % p) % p, both formed here
    one column at a time: every output entry must be exactly that entry
    times exactly that root, and apply_pauli must match its dense reference."""
    p = data.draw(st.sampled_from(gfp.PRIMES), label="p")
    n = data.draw(st.integers(1, 5), label="n")
    b = data.draw(st.integers(1, 5), label="columns")
    entries = st.lists(st.integers(0, p - 1), min_size=2 * n * b, max_size=2 * n * b)
    corrections = np.array(data.draw(entries, label="corrections")).reshape(2 * n, b)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    flat = rng.normal(size=(p**n, b)) + 1j * rng.normal(size=(p**n, b))
    place, digits = _place_digits(p, n)
    out = sim._apply_corrections(flat, corrections, p, place, digits)
    roots = omega(p) ** np.arange(p)
    d = np.indices((p,) * n).reshape(n, -1)
    for c in range(b):
        x, z = corrections[:n, c], corrections[n:, c]
        src = place @ ((d - x[:, None]) % p)
        exps = z @ ((d - x[:, None]) % p) % p
        assert np.array_equal(out[:, c], flat[src, c] * roots[exps])
    op = PauliOperator(p, corrections[:n, 0], corrections[n:, 0], seed % p)
    state = QuditState(p, n, flat[:, 0] / np.linalg.norm(flat[:, 0]))
    dense = slow_apply_pauli_tensor(state.tensor(), op).reshape(-1)
    assert np.abs(apply_pauli(state, op).amplitudes - dense).max() < 1e-12


def test_norm_preserved_by_circuits(rng):
    from tests_util_circuits import random_circuit  # local helper below

    for _ in range(10):
        p = int(rng.choice([2, 3]))
        m = int(rng.integers(1, 3))
        state = random_state(p, m, rng)
        circ = random_circuit(p, m, 8, rng)
        out = apply_circuit(state, circ)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


def test_measure_pauli_on_eigenstate(rng):
    state = make_epr(2)  # +1 eigenstate of XX and ZZ
    for op in (PauliOperator(2, [1, 1], [0, 0]), PauliOperator(2, [0, 0], [1, 1])):
        tau, arr = measure_pauli(state.tensor(), op, rng)
        assert tau == 0
        assert np.abs(arr - state.tensor()).max() < 1e-12


def test_measure_pauli_statistics(rng):
    # |0> measured in the X basis: both outcomes equally likely.
    outcomes = []
    for _ in range(200):
        arr = np.array([1.0, 0.0], dtype=complex)
        tau, _ = measure_pauli(arr, single(2, 1, 0, x=1), rng)
        outcomes.append(tau)
    frac = outcomes.count(0) / len(outcomes)
    assert 0.35 < frac < 0.65


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda rng: apply_circuit_tensor(np.ones((2, 2)), CliffordCircuit(3, 2, (gate("F", 0),))),
            r"register axes \[0, 1\] are not 2 distinct axes of size 3 in shape \(2, 2\)",
        ),
        (
            lambda rng: measure_pauli(np.ones(27) / np.sqrt(27), PauliOperator(3, [1, 0], [0, 1]), rng),
            r"register axes \[0, 1\] are not 2 distinct axes of size 3 in shape \(27,\)",
        ),
        (
            lambda rng: measure_pauli(np.ones((3, 3, 3)), single(2, 3, 0, x=1), rng),
            r"register axes \[0, 1, 2\] are not 3 distinct axes of size 2 in shape \(3, 3, 3\)",
        ),
        (
            lambda rng: reduced_density(make_epr(2), [0, 0]),
            r"register axes \[0, 0\] are not 2 distinct axes of size 2 in shape \(2, 2\)",
        ),
        (
            lambda rng: measure_pauli(np.ones((2, 2)), single(2, 1, 0, x=1), rng, axes=[2]),
            r"register axes \[2\] are not 1 distinct axes of size 2 in shape \(2, 2\)",
        ),
        (
            lambda rng: measure_pauli(np.ones((2, 2)), single(2, 1, 0, x=1), rng, axes=[0, 1]),
            r"register axes \[0, 1\] are not 1 distinct axes of size 2 in shape \(2, 2\)",
        ),
    ],
    ids=["wrong-size", "too-few-axes", "wrong-p", "repeated-axis", "out-of-range", "extra-axis"],
)
def test_a_register_off_the_tensor_is_refused_with_its_axes_and_shape(rng, call, message):
    """A wrong size, too few axes, a repeated, out-of-range or extra axis."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(rng)


def test_reduced_density_reads_the_register_view(rng):
    """Negative and unordered axes name the same register as their positives."""
    state = random_state(3, 3, rng)
    rho = reduced_density(state, [2, 0])
    assert np.array_equal(reduced_density(state, [-1, 0]), rho)
    mat = np.transpose(state.tensor(), [2, 0, 1]).reshape(9, 3)
    assert np.array_equal(rho, mat @ mat.conj().T)

def test_encode_produces_joint_eigenstate(four_qubit_pipeline, rng):
    code, plan = four_qubit_pipeline
    secret = random_state(2, 2, rng)
    shared, syndrome = encode_advance(plan, secret)
    assert len(syndrome) == 2
    zp = np.exp(1j * np.pi / 2)
    for i in range(2):
        moved = apply_pauli(shared, code.generator(i))
        assert (
            np.abs(moved.amplitudes - zp ** syndrome[i] * shared.amplitudes).max()
            < 1e-9
        )


def test_encode_advance_share_maximally_mixed(four_qubit_pipeline, rng):
    code, plan = four_qubit_pipeline
    secret = random_state(2, 2, rng)
    shared, _ = encode_advance(plan, secret)
    rho = reduced_density(shared, [3])
    assert np.abs(rho - np.eye(2) / 2).max() < 1e-10


def test_encode_with_reference_single_share_mixed(four_qubit_pipeline):
    code, plan = four_qubit_pipeline
    state, _ = encode_with_reference(plan)
    for share in range(1, 5):
        rho = reduced_density(state, [2 + share - 1])
        assert np.abs(rho - np.eye(2) / 2).max() < 1e-10


def test_encode_budget(four_qubit_pipeline, rng):
    code, plan = four_qubit_pipeline
    secret = random_state(2, 2, rng)
    with pytest.raises(BudgetExceededError):
        encode_advance(plan, secret, budget=8)


def test_erase_nothing_is_identity(four_qubit_pipeline, rng):
    code, plan = four_qubit_pipeline
    secret = random_state(2, 2, rng)
    shared, syndrome = encode_advance(plan, secret)
    result = erase_and_decode(shared, code, syndrome, [], rng)
    assert fidelity(result.state, shared) > 1 - 1e-12
    assert not result.correction.any()


def test_erase_one_share_recovers(four_qubit_pipeline, rng):
    code, plan = four_qubit_pipeline
    secret = random_state(2, 2, rng)
    shared, syndrome = encode_advance(plan, secret)
    for lost in range(1, 5):
        result = erase_and_decode(shared, code, syndrome, [lost], rng)
        assert fidelity(result.state, shared) > 1 - 1e-9
        # correction must be supported on the lost share
        support = {
            j + 1
            for j in range(code.n)
            if result.correction[j] or result.correction[code.n + j]
        }
        assert support <= {lost}


def test_erase_two_shares_refused(four_qubit_pipeline, rng):
    code, plan = four_qubit_pipeline
    secret = random_state(2, 2, rng)
    shared, syndrome = encode_advance(plan, secret)
    with pytest.raises(UncorrectableErasureError):
        erase_and_decode(shared, code, syndrome, [1, 2], rng)


def test_erase_and_decode_validates_its_erased_set_once(four_qubit_pipeline, rng, monkeypatch):
    code, plan = four_qubit_pipeline
    shared, syndrome = encode_advance(plan, random_state(2, 2, rng))
    calls = []
    validated = sim.validated_shares

    def counted(shares, n):
        calls.append(tuple(shares))
        return validated(shares, n)

    monkeypatch.setattr(sim, "validated_shares", counted)
    result = erase_and_decode(shared, code, syndrome, [2, 2], rng)
    assert calls == [(2, 2)]
    assert fidelity(result.state, shared) > 1 - 1e-9
    with pytest.raises(UncorrectableErasureError, match=r"shares \(1, 2\) carry undetectable"):
        erase_and_decode(shared, code, syndrome, [2, 1], rng)


@pytest.mark.parametrize("p", gfp.PRIMES)
def test_erasures_name_the_first_uncorrectable_set_in_input_order(p):
    """Sets are checked one size at a time, but the error names the first
    failing set of the input: (1, 3), although the size-1 group, checked
    first, fails too, at (3,)."""
    # Z1 Z2 and X1 X2^-1 tie shares 1 and 2 together; share 3 is bare.
    code = validate_stabilizer(np.array([[0, 0, 0, 1, 1, 0], [1, p - 1, 0, 0, 0, 0]]), p, 3)
    with pytest.raises(UncorrectableErasureError, match=r"^shares \(1, 3\) carry"):
        sim._erasures(code, [(1,), (1, 3), (3,)])
    with pytest.raises(UncorrectableErasureError, match=r"^shares \(3,\) carry"):
        sim._erasures(code, [(1, 2), (1,), (3,), (1, 3)])
    assert list(sim._erasures(code, [(1,), (1, 2), (2,), (1,)])) == [(1,), (2,), (1, 2)]


@pytest.mark.parametrize("p", gfp.PRIMES)
def test_one_elimination_gives_every_erased_set_its_own_size_s_map(p):
    """Every erased set's map is 0 off its set's slots, and map @ rhs is
    ref_solve's solution for every right-hand side in the image of the
    set's columns.  Sets of mixed sizes come in a shuffled input order, with
    the empty set and the largest correctable set among them, and the maps
    come back grouped by size.  Two Bell pairs on shares (1, 2) and (3, 4)
    join the random codes, so that the sweep holds sets on which some
    generator vanishes, sets whose columns hold a pivot each before the
    rows run out (r_E = 2|E| < r) and sets with free columns (r_E < 2|E|)."""
    rng = np.random.default_rng(p)
    bell_pairs = validate_stabilizer(
        np.array([[0, 0, 0, 0, 1, 1, 0, 0], [1, p - 1, 0, 0, 0, 0, 0, 0],
                  [0, 0, 0, 0, 0, 0, 1, 1], [0, 0, 1, p - 1, 0, 0, 0, 0]]), p, 4
    )
    codes = [random_stabilizer(p, n, r, rng) for n, r in ((3, 2), (4, 3), (5, 3), (5, 4))]
    vanishes = pivot_each = free_column = False
    for code in [*codes, bell_pairs]:
        n, r = code.n, code.num_checks
        subsets = (itertools.combinations(range(1, n + 1), w) for w in range(n + 1))
        sets = [e for e in itertools.chain.from_iterable(subsets) if correctable_erasure(code, e)]
        largest = max(sets, key=len)
        order = [sets[i] for i in rng.permutation(len(sets))]
        order += [(), largest, order[0]]
        maps = sim._erasures(code, order)
        by_size: dict[int, list] = {}
        for err in dict.fromkeys(order):
            by_size.setdefault(len(err), []).append(err)
        assert list(maps) == [err for group in by_size.values() for err in group]
        rows = sim._symplectic_rows(code.check_matrix, p)
        for err, full in maps.items():
            slot = owned_columns([err], n)[0]
            assert not np.delete(full, slot, axis=0).any(), err
            m = rows[:, slot]
            basis, rank, _ = ref_rref(m.T, p)
            if err:
                vanishes |= not m.any(axis=1).all()
                pivot_each |= rank == len(slot) < r
                free_column |= rank < len(slot)
            image = np.concatenate(list(gfp.iter_span(basis[:rank], p))).T
            assert np.array_equal(full[slot] @ image % p, ref_solve(m, image, p)), err
    assert vanishes and pivot_each and free_column


def test_correctable_erasure_thresholds(five_qubit):
    for single_loss in range(1, 6):
        assert correctable_erasure(five_qubit, [single_loss])
    for pair in itertools.combinations(range(1, 6), 2):
        assert correctable_erasure(five_qubit, pair)
    for triple in itertools.combinations(range(1, 6), 3):
        assert not correctable_erasure(five_qubit, triple)


def test_classify_access_example(four_qubit):
    assert classify_access(four_qubit, [1, 2, 3]) is AccessLabel.QUALIFIED
    assert classify_access(four_qubit, [2]) is AccessLabel.FORBIDDEN
    assert classify_access(four_qubit, [1, 4]) is AccessLabel.INTERMEDIATE


def test_classify_access_bounds(four_qubit, five_qubit):
    from advshare.pauli import code_distance

    for code in (four_qubit, five_qubit):
        d = code_distance(code)
        for size in range(code.n + 1):
            for subset in itertools.combinations(range(1, code.n + 1), size):
                label = classify_access(code, subset)
                if size >= code.n + 1 - d:
                    assert label is AccessLabel.QUALIFIED
                if size < d:
                    assert label is AccessLabel.FORBIDDEN


def test_classify_complementarity(four_qubit, five_qubit):
    for code in (four_qubit, five_qubit):
        all_shares = set(range(1, code.n + 1))
        for size in range(code.n + 1):
            for subset in itertools.combinations(sorted(all_shares), size):
                comp = tuple(sorted(all_shares - set(subset)))
                a = classify_access(code, subset)
                b = classify_access(code, comp)
                assert (a is AccessLabel.QUALIFIED) == (b is AccessLabel.FORBIDDEN)


def test_entropic_audit_extremes(four_qubit_pipeline):
    code, plan = four_qubit_pipeline
    assert (
        abs(entropic_audit(plan, [1, 2, 3, 4]) - 4.0)
        < 1e-9
    )
    for share in range(1, 5):
        assert abs(entropic_audit(plan, [share])) < 1e-9


def test_entropic_audit_two_share_leakage(four_qubit_pipeline):
    code, plan = four_qubit_pipeline
    for pair in itertools.combinations(range(1, 5), 2):
        value = entropic_audit(plan, pair)
        assert abs(value - TWO_SHARE_LEAKAGE) < 1e-9
        assert 1e-6 < value < 4.0 - 1e-6


def test_audit_agrees_with_labels(four_qubit_pipeline):
    code, plan = four_qubit_pipeline
    subsets = [
        s for size in range(5) for s in itertools.combinations(range(1, 5), size)
    ]
    table = mutual_information_table(plan, subsets)
    for subset in subsets:
        label = classify_access(code, subset)
        value = table[subset]
        if label is AccessLabel.QUALIFIED:
            assert abs(value - 4.0) < 1e-6
        elif label is AccessLabel.FORBIDDEN:
            assert abs(value) < 1e-6
        else:
            assert 1e-6 < value < 4.0 - 1e-6


@pytest.mark.parametrize("bad", [0, 5, 99])
@pytest.mark.parametrize(
    "name",
    [
        "reconstruct",
        "erase_and_decode",
        "entropic_audit",
        "mutual_information_table",
        "encode_with_reference",
        "simulate_protocol",
    ],
)
def test_share_sets_are_validated_and_canonical(four_qubit_pipeline, name, bad):
    code, plan = four_qubit_pipeline
    secret = random_state(2, 2, np.random.default_rng(1))
    shared, syndrome = encode_advance(plan, secret)

    def amplitudes(state):
        return tuple(state.amplitudes)

    # name -> (call on a share list, a sorted share set, the same set repeated and unordered)
    cases = {
        "reconstruct": (
            lambda js: amplitudes(
                reconstruct(shared, syndrome, plan, js, np.random.default_rng(7))
            ),
            [1, 2, 3],
            [3, 1, 2, 1],
        ),
        "erase_and_decode": (
            lambda js: amplitudes(
                erase_and_decode(shared, code, syndrome, js, np.random.default_rng(7)).state
            ),
            [2],
            [2, 2],
        ),
        "entropic_audit": (
            lambda js: entropic_audit(plan, js),
            [1, 2],
            [2, 1, 2],
        ),
        "mutual_information_table": (
            lambda js: mutual_information_table(plan, [js]),
            [1, 3],
            [3, 3, 1],
        ),
        "encode_with_reference": (
            lambda js: amplitudes(encode_with_reference(construct_eaqecc(code, js))[0]),
            [4],
            [4, 4],
        ),
        "simulate_protocol": (
            lambda js: simulate_protocol(plan, 7, 1, [js]),
            [1, 2, 4],
            [4, 2, 1, 2],
        ),
    }
    call, canonical, spelled = cases[name]
    with pytest.raises(ValueError, match=rf"share index {bad} outside 1\.\.4"):
        call(canonical + [bad])
    assert call(spelled) == call(canonical)


def test_reconstruct_qualified_sets(four_qubit_pipeline, rng):
    code, plan = four_qubit_pipeline
    secret = random_state(2, 2, rng)
    shared, syndrome = encode_advance(plan, secret)
    for subset in itertools.combinations(range(1, 5), 3):
        recovered = reconstruct(shared, syndrome, plan, subset, rng)
        assert fidelity(recovered, secret) > 1 - 1e-9
    full = reconstruct(shared, syndrome, plan, [1, 2, 3, 4], rng)
    assert fidelity(full, secret) > 1 - 1e-9


def test_reconstruct_five_qubit(five_qubit, rng):
    plan = construct_eaqecc(five_qubit, [5])
    secret = random_state(2, 1, rng)
    shared, syndrome = encode_advance(plan, secret)
    for subset in itertools.combinations(range(1, 6), 4):
        recovered = reconstruct(shared, syndrome, plan, subset, rng)
        assert fidelity(recovered, secret) > 1 - 1e-9


def test_reconstruct_qutrit(qutrit, rng):
    plan = construct_eaqecc(qutrit, [3])
    secret = random_state(3, 1, rng)
    shared, syndrome = encode_advance(plan, secret)
    recovered = reconstruct(shared, syndrome, plan, [1, 2], rng)
    assert fidelity(recovered, secret) > 1 - 1e-9


def test_two_pair_advance_sharing(rng):
    from test_advance import CONVERSE_GAP_ROWS
    from advshare.pauli import validate_stabilizer

    code = validate_stabilizer(CONVERSE_GAP_ROWS, 2, 5)
    plan = construct_eaqecc(code, [1, 3])
    assert plan.parameters() == (3, 1, 2)
    assert plan.epr_pairs == ((1, 2), (3, 4))
    secret = random_state(2, 1, rng)
    shared, syndrome = encode_advance(plan, secret)
    # both advance shares together are maximally mixed before distribution
    rho = reduced_density(shared, [0, 2])
    assert np.abs(rho - np.eye(4) / 4).max() < 1e-10
    assert abs(entropy(rho, 2) - 2.0) < 1e-9
    recovered = reconstruct(shared, syndrome, plan, [2, 3, 4, 5], rng)
    assert fidelity(recovered, secret) > 1 - 1e-9


def test_baseline_and_advance_have_same_audits(four_qubit):
    plan0 = construct_eaqecc(four_qubit, [])
    plan4 = construct_eaqecc(four_qubit, [4])
    subsets = [
        s for size in range(5) for s in itertools.combinations(range(1, 5), size)
    ]
    t0 = mutual_information_table(plan0, subsets)
    t4 = mutual_information_table(plan4, subsets)
    for subset in subsets:
        assert abs(t0[subset] - t4[subset]) < 1e-9


def test_simulate_protocol_deterministic(four_qubit_pipeline):
    code, plan = four_qubit_pipeline
    sets = [(1, 2, 3), (2, 3, 4)]
    a = simulate_protocol(plan, seed=42, trials=2, accessible_sets=sets)
    b = simulate_protocol(plan, seed=42, trials=2, accessible_sets=sets)
    assert a == b
    assert all(rec.fidelity > 1 - 1e-9 for rec in a.trials)
    for rec in a.trials:
        support = {
            j + 1
            for j in range(code.n)
            if rec.correction[j] or rec.correction[code.n + j]
        }
        assert support <= set(rec.erased)


def test_one_plan_synthesizes_once_and_the_protocol_never_inverts(four_qubit, monkeypatch):
    """The oracles take the plan alone and run its circuit: on one plan,
    every oracle together synthesizes once, every circuit applied is
    ``plan.circuit`` itself or, in ``reconstruct``, its inverse, and
    ``simulate_protocol`` never inverts."""
    for oracle in (
        encode_advance,
        encode_with_reference,
        entropic_audit,
        mutual_information_table,
        reconstruct,
        simulate_protocol,
    ):
        assert "circuit" not in inspect.signature(oracle).parameters, oracle.__name__
    synthesize, inverse, apply = clifford._synthesize_rows, CliffordCircuit.inverse, sim.apply_circuit_tensor
    synthesized, inverted, applied = [], [], []

    def counted_synthesize(*args):
        synthesized.append(args)
        return synthesize(*args)

    def counted_inverse(self):
        inverted.append(self)
        return inverse(self)

    def counted_apply(arr, circuit, **kw):
        applied.append(circuit)
        return apply(arr, circuit, **kw)

    monkeypatch.setattr(clifford, "_synthesize_rows", counted_synthesize)
    monkeypatch.setattr(CliffordCircuit, "inverse", counted_inverse)
    monkeypatch.setattr(sim, "apply_circuit_tensor", counted_apply)
    plan = construct_eaqecc(four_qubit, [4])
    rng = np.random.default_rng(3)
    secret = random_state(2, 2, rng)
    shared, syndrome = encode_advance(plan, secret)
    encode_with_reference(plan)
    mutual_information_table(plan, [(1, 2, 3), (4,)])
    recovered = reconstruct(shared, syndrome, plan, [1, 2, 3], rng)
    assert fidelity(recovered, secret) > 1 - 1e-9
    assert [c is plan.circuit for c in inverted] == [True]
    assert [c is plan.circuit for c in applied] == [True, True, True, False]
    assert applied[-1] == inverse(plan.circuit)
    sets = [(1, 2, 3), (2, 3, 4), (1, 3, 4), (1, 2, 3, 4)]
    # 2**(4+2) amplitudes fit a budget of 2**6 or more: one circuit call
    # builds V.  Below, blocks of 63 // 2**4 = 3 trials run the circuit once
    # each, 4 calls for the 12 trials.
    for budget, circuit_calls in [(sim.DEFAULT_STATE_BUDGET, 1), (2**6, 1), (2**6 - 1, 4)]:
        applied.clear()
        inverted.clear()
        transcript = simulate_protocol(plan, seed=3, trials=3, accessible_sets=sets, budget=budget)
        assert len(transcript.trials) == 12
        assert all(rec.fidelity > 1 - 1e-9 for rec in transcript.trials)
        assert inverted == []
        assert len(applied) == circuit_calls
        assert all(c is plan.circuit for c in applied)
    assert len(synthesized) == 1


def test_simulate_protocol_refuses_an_uncorrectable_set_before_any_draw(
    four_qubit_pipeline, monkeypatch
):
    code, plan = four_qubit_pipeline
    drawn = []
    # Every draw comes from the generator simulate_protocol makes from its seed.
    monkeypatch.setattr(np.random, "default_rng", lambda *args: drawn.append(args))
    sets = [(1, 2, 3), (3, 4)]
    with pytest.raises(UncorrectableErasureError, match=r"^shares \(1, 2\) carry undetectable"):
        simulate_protocol(plan, seed=3, trials=2, accessible_sets=sets)
    assert drawn == []
    # Without trials nothing is erased, so nothing is refused.
    monkeypatch.undo()
    transcript = simulate_protocol(plan, seed=3, trials=0, accessible_sets=sets)
    assert transcript.trials == ()


def test_simulate_protocol_refuses_a_non_isometric_encoding(four_qubit_pipeline, monkeypatch):
    code, plan = four_qubit_pipeline
    encode = sim._encode

    def skewed(*args):
        columns, syndrome = encode(*args)
        columns = columns.copy()
        columns[:, 1] += 1e-6 * columns[:, 0]
        return columns, syndrome

    monkeypatch.setattr(sim, "_encode", skewed)
    with pytest.raises(InvariantError, match="not an isometry"):
        simulate_protocol(plan, seed=3, trials=1, accessible_sets=[(1, 2, 3)])


def test_simulate_protocol_refuses_a_nan_encoding(four_qubit_pipeline, monkeypatch):
    """A NaN column makes V^dagger V - I NaN, which no tolerance admits."""
    code, plan = four_qubit_pipeline
    encode = sim._encode

    def poisoned(*args):
        columns, syndrome = encode(*args)
        columns = columns.copy()
        columns[:, 1] = np.nan
        return columns, syndrome

    monkeypatch.setattr(sim, "_encode", poisoned)
    with pytest.raises(InvariantError, match="not an isometry"):
        simulate_protocol(plan, seed=3, trials=1, accessible_sets=[(1, 2, 3)])


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("p", gfp.PRIMES)
def test_simulate_protocol_draws_the_secrets_of_random_state(p, k, monkeypatch):
    """Each secret is one normal draw of 2 * p**k values, and equals bit for
    bit what ``random_state`` draws with two on the same generator, while
    NumPy fills normals in order; each trial's decoder uniforms follow it."""
    n = k + 2
    code = random_stabilizer(p, n, n - k, np.random.default_rng([p, k]))
    plan = construct_eaqecc(code, [])
    sets = [
        tuple(s)
        for w in range(n + 1)
        for s in share_sets(n, w).tolist()
        if classify_access(code, s) is AccessLabel.QUALIFIED
    ]
    drawn = []
    encode = sim._encode

    def recorded(plan, secrets, kernels):
        drawn.extend(secrets.T.copy())
        return encode(plan, secrets, kernels)

    monkeypatch.setattr(sim, "_encode", recorded)
    # At a budget of p**n the isometry does not fit: every block of one
    # column runs the circuit on its secret.
    transcript = simulate_protocol(plan, 5, 3, sets, budget=p**n)
    rng = np.random.default_rng(5)
    want = []
    for rec in transcript.trials:
        want.append(random_state(p, k, rng).amplitudes)
        rng.random(len(rec.erased) + code.num_checks)
    assert len(drawn) == len(want) == 3 * len(sets)
    for got, expected in zip(drawn, want):
        assert got.tobytes() == expected.tobytes()


def test_encode_refuses_columns_with_different_syndromes(four_qubit_pipeline, monkeypatch):
    """X on share 1 keeps an encoded column an eigenstate but flips the
    all-Z generator: a block whose columns disagree must not pass."""
    code, plan = four_qubit_pipeline
    apply = sim.apply_circuit_tensor
    flip = sim.compile_paulis(2, 4, [single(2, 4, 0, x=1)])

    def flipped(*args, **kwargs):
        flat = apply(*args, **kwargs).reshape(16, -1).copy()
        flat[:, 1:] = flat[flip.src[0, 0], 1:] * flip.phases[0, 0][:, None]
        return flat

    monkeypatch.setattr(sim, "apply_circuit_tensor", flipped)
    with pytest.raises(InvariantError, match="encoded columns do not share one syndrome"):
        simulate_protocol(plan, seed=3, trials=1, accessible_sets=[(1, 2, 3)])


def test_protocol_fidelity_is_the_circuit_fidelity_off_the_secret(four_qubit_pipeline, monkeypatch):
    """A logical X on the decoded state keeps it in V's image but moves the
    secret: the overlap fidelity must still equal <secret|rho|secret> from
    the inverse circuit and partial trace."""
    code, plan = four_qubit_pipeline
    decode = sim._decode_block
    logical = PauliOperator(2, [1, 1, 0, 0], [0, 0, 0, 0])
    seen = []

    def off_secret(code, flat, *args):
        decoded, measured, corrections = decode(code, flat, *args)
        moved = np.empty_like(decoded)
        for c in range(flat.shape[1]):
            shared = QuditState(2, 4, flat[:, c])
            moved[:, c] = apply_pauli(QuditState(2, 4, decoded[:, c]), logical).amplitudes
            seen.append((shared, QuditState(2, 4, moved[:, c])))
        return moved, measured, corrections

    monkeypatch.setattr(sim, "_decode_block", off_secret)
    sets = [(1, 2, 3), (2, 3, 4), (1, 2, 3, 4)]
    transcript = simulate_protocol(plan, 7, 3, sets)
    for rec, (shared, moved) in zip(transcript.trials, seen, strict=True):
        secret = sim._secret_density(shared, plan)
        rho = sim._secret_density(moved, plan)
        assert abs(rec.fidelity - float(np.real(np.trace(secret @ rho)))) < 1e-12
    assert min(rec.fidelity for rec in transcript.trials) < 0.9


@pytest.mark.parametrize("sets", [[], [(1, 2, 3), (2, 3), (1,)]])
def test_simulate_protocol_runs_a_k0_plan_as_the_reference_does(sets):
    """A 0-qudit secret is any unit scalar, drawn with a random phase: a
    k = 0 transcript equals the reference's, with and without a pair."""
    # The three-qubit GHZ state: XXX, ZZI, IZZ; k = 0, so every set is qualified.
    rows = [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 1, 1]]
    code = validate_stabilizer(rows, 2, 3)
    for shares in [(), (1,)]:
        plan = construct_eaqecc(code, shares)
        transcript = simulate_protocol(plan, 1, 3, sets)
        reference = slow_simulate_protocol(plan, 1, 3, sets)
        assert len(transcript.trials) == len(reference) == 3 * len(sets)
        if not sets:
            # Without trials, the syndrome is that of one secret drawn first.
            _, syndrome = encode_advance(plan, random_state(2, 0, np.random.default_rng(1)))
            assert transcript.syndrome == syndrome
        for rec, (syndrome, measured, correction, fid) in zip(transcript.trials, reference):
            assert syndrome == transcript.syndrome
            assert rec.measured_syndrome == measured
            assert rec.correction == correction
            assert abs(rec.fidelity - 1) < 1e-12 and abs(fid - 1) < 1e-12


def test_simulate_protocol_refuses_negative_trials_before_any_work(
    four_qubit_pipeline, monkeypatch
):
    """trials = -1 once gave a transcript with a syndrome and no trials.  It
    is refused ahead of every check, and before the plan synthesizes."""
    code, plan = four_qubit_pipeline
    work = []
    monkeypatch.setattr(np.random, "default_rng", lambda *args: work.append(args))
    monkeypatch.setattr(sim, "_erasures", lambda *args: work.append(args))
    monkeypatch.setattr(clifford, "_synthesize_rows", lambda *args: work.append(args))
    with pytest.raises(ValueError, match=r"^trials must be at least 0, got -1$"):
        simulate_protocol(plan, seed=3, trials=-1, accessible_sets=[(1, 2, 3)])
    assert work == []


def test_erase_and_decode_budget_names_its_stage(four_qubit_pipeline, rng):
    code, plan = four_qubit_pipeline
    shared, syndrome = encode_advance(plan, random_state(2, 2, rng))
    with pytest.raises(BudgetExceededError, match=r"2\*\*4 exceeds budget 15 \(erase and decode\)"):
        erase_and_decode(shared, code, syndrome, [1], rng, budget=15)
    result = erase_and_decode(shared, code, syndrome, [1], rng, budget=16)
    assert fidelity(result.state, shared) > 1 - 1e-9


def test_state_budget_refuses_before_compiling_the_generators(
    four_qubit_pipeline, rng, monkeypatch
):
    """The generator tables grow with p**n, so every entry point refuses a
    state over the budget before it compiles them."""
    code, plan = four_qubit_pipeline
    secret = random_state(2, 2, rng)

    def refuse(*args):
        raise AssertionError("compiled the generators of an over-budget state")

    monkeypatch.setattr(sim, "_compile_rows", refuse)
    for trials in (0, 1):
        with pytest.raises(BudgetExceededError, match=r"^state size 2\*\*4 exceeds budget 15$"):
            simulate_protocol(plan, 3, trials, [(1, 2, 3)], budget=15)
    with pytest.raises(BudgetExceededError, match=r"^state size 2\*\*4 exceeds budget 15$"):
        encode_advance(plan, secret, budget=15)
    with pytest.raises(BudgetExceededError, match=r"^state size 2\*\*4 x 4 exceeds budget 63$"):
        encode_with_reference(plan, budget=63)


# ---------------------------------------------------------------------------
# compiled Pauli kernels against the slow references


@pytest.mark.parametrize("p", gfp.PRIMES)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_compiled_powers_match_dense_matrix_powers(p, data):
    op, extra, order, seed = data.draw(pauli_cases(p))
    n, axes = op.n, order[: op.n]
    rng = np.random.default_rng(seed)
    shape = register_layout(p, n, extra, order)
    arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    arr /= np.linalg.norm(arr)
    before = arr.copy()
    kernels = sim.compile_paulis(p, n, [op])
    flat = _register(arr, p, n, axes)
    powers = [flat] + [
        flat[src] * phases[:, None] for src, phases in zip(kernels.src[0], kernels.phases[0])
    ]
    for t in range(p):
        got = _unregister(powers[t], arr, n, axes)
        assert got.shape == arr.shape
        assert np.abs(got - dense_power(arr, op, t, axes)).max() < 1e-12
    moved = _unregister(powers[1], arr, n, axes)
    assert np.abs(moved - slow_apply_pauli_tensor(arr, op, axes)).max() < 1e-12
    # The same seeded draw picks the same branch as the reference.
    tau, collapsed = measure_pauli(arr, op, np.random.default_rng(seed), axes=axes)
    ref_tau, ref = slow_measure_pauli(arr, op, np.random.default_rng(seed), axes=axes)
    assert tau == ref_tau
    assert collapsed.shape == arr.shape
    assert np.abs(collapsed - ref).max() < 1e-12
    assert np.array_equal(arr, before)


@st.composite
def encoded_cases(draw, p):
    """A random [[n, k]]_p code with p**(n+k) within the sweep's register
    limit, a seed, and whether to share its first shareable share in advance."""
    cap = 1
    while p ** (cap + 1) <= KERNEL_REGISTER_LIMIT:
        cap += 1
    n = draw(st.integers(1, cap))
    k = draw(st.integers(0, min(n, cap - n)))
    return n, k, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("p", gfp.PRIMES)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_batched_syndrome_matches_per_generator_reference(p, data):
    n, k, advance, seed = data.draw(encoded_cases(p))
    rng = np.random.default_rng(seed)
    code = random_stabilizer(p, n, n - k, rng)
    shareable = [j for j in range(1, n + 1) if is_advance_shareable(code, [j])]
    shares = shareable[:1] if advance else []
    plan = construct_eaqecc(code, shares)
    state, syndrome = encode_advance(plan, random_state(p, k, rng))
    assert syndrome == tuple(slow_eigenvalue_exponent(state.tensor(), g) for g in code.generators())
    state, syndrome = encode_with_reference(plan)
    share_axes = list(range(k, k + n))
    assert syndrome == tuple(
        slow_eigenvalue_exponent(state.tensor(), g, axes=share_axes)
        for g in code.generators()
    )


@pytest.mark.parametrize("p", gfp.PRIMES)
def test_each_eigenvalue_check_raises_on_its_own_failure(p):
    op = single(p, 1, 0, z=1)
    eigen = np.zeros(p, dtype=complex)
    eigen[0] = 1.0
    assert eigenvalue_exponent(eigen, op) == 0
    flat = np.full(p, p**-0.5, dtype=complex)
    with pytest.raises(InvariantError, match=r"not an eigenvector \(\|<G>\| = "):
        eigenvalue_exponent(flat, op)
    # |<G>| within 1e-9 of 1, yet the residual of G|psi> - <G>|psi> is ~1e-5.
    eps = 2e-5
    near = np.zeros(p, dtype=complex)
    near[0], near[1] = np.cos(eps), np.sin(eps)
    with pytest.raises(InvariantError, match="not an eigenvector of the generator"):
        eigenvalue_exponent(near, op)
    # An eigenvalue off the 2p-th roots needs a kernel whose phases are off too.
    kernels = sim.compile_paulis(p, 1, [op])
    skewed = dataclasses.replace(kernels, phases=kernels.phases * np.exp(0.1j))
    with pytest.raises(InvariantError, match="is not a 2p-th root of unity"):
        sim._exponents(eigen.reshape(-1, 1), skewed)


def test_eigenvalue_check_refuses_a_nan_column():
    """A NaN column is no eigenvector: it raises, with no cast of NaN to an
    integer exponent on the way, even behind a good column."""
    code = random_stabilizer(2, 4, 3, np.random.default_rng(4))
    plan = construct_eaqecc(code, [])
    good, _ = encode_advance(plan, random_state(2, 1, np.random.default_rng(5)))
    kernels = sim.compile_paulis(2, 4, code.generators())
    flat = np.stack([good.amplitudes, np.full(16, np.nan + 0j)], axis=1)
    with pytest.raises(InvariantError, match=r"not an eigenvector \(\|<G>\| = nan\)"):
        sim._exponents(flat, kernels)


def test_erase_and_decode_names_the_broken_invariant(four_qubit_pipeline):
    code, plan = four_qubit_pipeline
    rng = np.random.default_rng(11)
    shared, syndrome = encode_advance(plan, random_state(2, 2, rng))
    # X on share 1 flips the all-Z generator; the mixture is no eigenstate of it.
    flipped = apply_pauli(shared, single(2, 4, 0, x=1)).amplitudes
    mixed = 1e-3 * shared.amplitudes + flipped
    perturbed = QuditState(2, 4, mixed / np.linalg.norm(mixed))
    with pytest.raises(InvariantError, match="no correction supported on the erased shares") as info:
        erase_and_decode(perturbed, code, syndrome, [], rng)
    assert isinstance(info.value, RuntimeError) and isinstance(info.value, AdvShareError)


def shipped_pipeline(code_dir, name):
    p, n, rows = parse_code_file((code_dir / f"{name}.code").read_text())
    code = validate_stabilizer(rows, p, n)
    shares = next(([j] for j in range(1, n + 1) if is_advance_shareable(code, [j])), [])
    plan = construct_eaqecc(code, shares)
    return code, plan


def qualified_sets(code):
    """Every qualified share set, by size, each size in lexicographic order."""
    return [
        subset
        for size in range(code.n + 1)
        for subset in itertools.combinations(range(1, code.n + 1), size)
        if classify_access(code, subset) is AccessLabel.QUALIFIED
    ]


@pytest.mark.parametrize("name", ["four_qubit_ghz", "five_qubit", "qutrit_ghz"])
def test_transcripts_match_the_reference_decoder(code_dir, name):
    code, plan = shipped_pipeline(code_dir, name)
    sets = qualified_sets(code)
    transcript = simulate_protocol(plan, 9, 3, sets)
    reference = slow_simulate_protocol(plan, 9, 3, sets)
    assert len(transcript.trials) == len(reference) == 3 * len(sets)
    assert transcript.syndrome == reference[0][0]
    for rec, (syndrome, measured, correction, fid) in zip(transcript.trials, reference):
        assert syndrome == transcript.syndrome
        assert rec.measured_syndrome == measured
        assert rec.correction == correction
        assert abs(rec.fidelity - fid) < 1e-12


#: Shor's [[9,1,3]]_2 code: Z1Z2 and Z2Z3 tie the Z outcomes of qudits 1-3,
#: and likewise within 4-6 and 7-9.
SHOR_ROWS = [
    [0] * 9 + [1, 1, 0, 0, 0, 0, 0, 0, 0],
    [0] * 9 + [0, 1, 1, 0, 0, 0, 0, 0, 0],
    [0] * 9 + [0, 0, 0, 1, 1, 0, 0, 0, 0],
    [0] * 9 + [0, 0, 0, 0, 1, 1, 0, 0, 0],
    [0] * 9 + [0, 0, 0, 0, 0, 0, 1, 1, 0],
    [0] * 9 + [0, 0, 0, 0, 0, 0, 0, 1, 1],
    [1, 1, 1, 1, 1, 1, 0, 0, 0] + [0] * 9,
    [0, 0, 0, 1, 1, 1, 1, 1, 1] + [0] * 9,
]


def test_correlated_erasures_match_the_reference_decoder():
    """Two erased qudits tied by a stabilizer: the outcome of the second
    follows from the first, so only the reference's ascending order
    spends each uniform on the same qudit."""
    code = validate_stabilizer(SHOR_ROWS, 2, 9)
    plan = construct_eaqecc(code, [])
    losses = [(1, 2), (2, 3), (4, 6), (7, 9)]
    sets = [tuple(j for j in range(1, 10) if j not in lost) for lost in losses]
    transcript = simulate_protocol(plan, 9, 3, sets)
    reference = slow_simulate_protocol(plan, 9, 3, sets)
    for rec, (syndrome, measured, correction, fid) in zip(transcript.trials, reference, strict=True):
        assert syndrome == transcript.syndrome
        assert rec.measured_syndrome == measured
        assert rec.correction == correction
        assert abs(rec.fidelity - fid) < 1e-12


@pytest.mark.parametrize("p", gfp.PRIMES)
def test_compile_paulis_converts_and_delegates_to_the_row_core(p, rng):
    """``compile_paulis`` on operators, phases included, and the row core
    on their f-images and phases give equal kernels; on a code's check
    rows the core's default phases are zero, as the generators' are."""
    n = 3 if p < 5 else 2
    ops = [random_pauli(p, n, rng) for _ in range(3)]
    rows = np.array([f_map(op) for op in ops])
    code = random_stabilizer(p, n, n - 1, rng)
    pairs = [
        (sim.compile_paulis(p, n, ops), sim._compile_rows(p, n, rows, [op.phase for op in ops])),
        (sim.compile_paulis(p, n, code.generators()), sim._compile_rows(p, n, code.check_matrix)),
    ]
    for got, want in pairs:
        for name in ("src", "phases", "taus", "branch", "place", "digits", "rows"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


#: Registers of the table sweep hold at most this many amplitudes.
TABLE_REGISTER_LIMIT = 4096


@st.composite
def table_cases(draw, p):
    """0 to n + 1 f-image rows on n qudits, p**n within the table sweep's
    limit: random rows, zero rows, repeats of an earlier row and rows with
    x.z = a*b != 0 mod p on one qudit; phases None or random integers."""
    cap = 1
    while p ** (cap + 1) <= TABLE_REGISTER_LIMIT:
        cap += 1
    n = draw(st.integers(1, cap), label="n")
    rows = []
    for _ in range(draw(st.integers(0, n + 1), label="count")):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "overlap"]))
        row = [0] * (2 * n)
        if kind == "random":
            row = draw(st.lists(st.integers(0, p - 1), min_size=2 * n, max_size=2 * n))
        elif kind == "repeat" and rows:
            row = list(draw(st.sampled_from(rows)))
        elif kind == "overlap":
            q = draw(st.integers(0, n - 1))
            row[q], row[n + q] = draw(st.integers(1, p - 1)), draw(st.integers(1, p - 1))
        rows.append(row)
    random_phases = st.lists(st.integers(-2 * p, 2 * p), min_size=len(rows), max_size=len(rows))
    phases = draw(st.one_of(st.none(), random_phases), label="phases")
    return n, np.array(rows, dtype=np.int64).reshape(len(rows), 2 * n), phases


@pytest.mark.parametrize("p", gfp.PRIMES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_closed_form_tables_equal_the_composed_reference(p, data):
    """Every table entry of the closed-form powers is the integer, and the
    root, that composing each power from the one before gives: the same
    bytes, not only the same amplitudes within a tolerance."""
    n, rows, phases = data.draw(table_cases(p))
    got, want = sim._compile_rows(p, n, rows, phases), slow_compile_rows(p, n, rows, phases)
    for name in ("src", "phases", "taus", "branch", "rows", "place", "digits"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_generator_kernels_compiled_once_per_run(code_dir, monkeypatch):
    """A run compiles the check rows themselves, phase-free, once, and
    builds no Pauli operator: the kernels and the corrections read rows."""
    code, plan = shipped_pipeline(code_dir, "five_qubit")
    compiled = []
    compile_rows = sim._compile_rows

    def counted(p, n, rows, phases=None):
        compiled.append((rows is code.check_matrix, phases))
        return compile_rows(p, n, rows, phases)

    built = []
    check = PauliOperator.__post_init__
    monkeypatch.setattr(sim, "_compile_rows", counted)
    monkeypatch.setattr(PauliOperator, "__post_init__", lambda self: built.append(self) or check(self))
    sets = [(1, 2, 3, 4), (2, 3, 4, 5), (1, 2, 3, 4, 5)]
    simulate_protocol(plan, 4, 3, sets)
    simulate_protocol(plan, 5, 2, sets)
    # One compile of the check matrix per run; corrections compile nothing.
    assert compiled == [(True, None)] * 2
    assert built == []


# ---------------------------------------------------------------------------
# block decoding


@pytest.mark.parametrize("p", gfp.PRIMES)
def test_pick_spends_one_draw_as_choice_does(p):
    """_pick on one rng.random() picks what rng.choice(p, p=w) picks, zero
    weights included, and choice spends exactly that one double: a numpy
    that changes either breaks every seeded transcript, and fails here."""
    rng = np.random.default_rng(p)
    rows, uniforms = [], []
    for _ in range(500):
        weights = rng.random(p) * (rng.random(p) < 0.6)
        if not weights.any():
            weights[rng.integers(p)] = 1.0
        seed = int(rng.integers(2**32))
        chooser = np.random.default_rng(seed)
        want = chooser.choice(p, p=weights / weights.sum())
        draws = np.random.default_rng(seed)
        u = draws.random()
        assert sim._pick(weights / weights.sum(), u, "test") == want
        assert chooser.random() == draws.random()
        rows.append(weights)
        uniforms.append(u)
    # Batched over rows, unnormalised weights pick the same outcomes.
    one_by_one = [sim._pick(w, u, "test") for w, u in zip(rows, uniforms)]
    assert sim._pick(np.array(rows), np.array(uniforms), "test").tolist() == one_by_one


def test_zero_or_nan_weights_raise_naming_the_step(four_qubit_pipeline, rng):
    code, plan = four_qubit_pipeline
    shared, syndrome = encode_advance(plan, random_state(2, 2, rng))
    # A defect upstream could hand the decoder such a state; QuditState would not build it.
    nan_state = QuditState(2, 4, shared.amplitudes)
    object.__setattr__(nan_state, "amplitudes", np.full(16, np.nan + 0j))
    with pytest.raises(InvariantError, match="^erasure outcome weights sum to nan"):
        erase_and_decode(nan_state, code, syndrome, [1], rng)
    with pytest.raises(InvariantError, match="^generator measurement outcome weights sum to nan"):
        erase_and_decode(nan_state, code, syndrome, [], rng)
    with pytest.raises(InvariantError, match="^generator measurement outcome weights sum to 0"):
        measure_pauli(np.zeros((2,) * 4), code.generator(0), rng)
    # In a block, one zero column among good ones raises at the first step.
    erasures = sim._erasures(code, [(1,), ()])
    kernels = sim.compile_paulis(code.p, code.n, code.generators())
    flat = np.stack([shared.amplitudes, np.zeros(16), shared.amplitudes], axis=1)
    for erased, step in [((1,), "erasure"), ((), "generator measurement")]:
        uniforms = [rng.random(len(erased) + code.num_checks) for _ in range(3)]
        maps = np.stack([erasures[erased]] * 3)
        with pytest.raises(InvariantError, match=f"^{step} outcome weights sum to 0"):
            sim._decode_block(code, flat, syndrome, [erased] * 3, maps, uniforms, kernels)


@pytest.mark.parametrize("name", ["four_qubit_ghz", "five_qubit", "qutrit_ghz"])
def test_transcripts_do_not_depend_on_the_block_width(code_dir, name, monkeypatch):
    """One column per block (budget p**n), two or more, and the default
    budget give the same transcript; no block's register exceeds the budget."""
    code, plan = shipped_pipeline(code_dir, name)
    sets = qualified_sets(code)
    decode = sim._decode_block
    registers = []

    def recorded(code, flat, *args):
        registers.append(flat.size)
        return decode(code, flat, *args)

    monkeypatch.setattr(sim, "_decode_block", recorded)
    size = code.p**code.n
    transcripts = []
    for budget in (size, 2 * size, sim.DEFAULT_STATE_BUDGET):
        registers.clear()
        transcripts.append(simulate_protocol(plan, 9, 3, sets, budget))
        assert max(registers) <= budget
        assert sum(registers) == size * 3 * len(sets)
        if budget == size:
            assert set(registers) == {size}
    one = transcripts[0]
    for transcript in transcripts[1:]:
        assert transcript.syndrome == one.syndrome
        for rec, ref in zip(transcript.trials, one.trials, strict=True):
            assert (rec.accessible, rec.erased) == (ref.accessible, ref.erased)
            assert rec.measured_syndrome == ref.measured_syndrome
            assert rec.correction == ref.correction
            assert abs(rec.fidelity - ref.fidelity) < 1e-12


def test_generator_table_of_a_16_qubit_code_is_at_most_half_the_full_table():
    """Every power with an intp index and a complex phase would take
    r * p * p**n * 24 bytes (47 MB here); the stored table takes at most half."""
    code = random_stabilizer(2, 16, 15, np.random.default_rng(1))
    kernels = sim.compile_paulis(code.p, code.n, code.generators())
    full = code.num_checks * 2 * 2**16 * 24
    tables = (kernels.src, kernels.phases, kernels.taus, kernels.branch)
    assert sum(table.nbytes for table in tables) <= full / 2



@pytest.mark.parametrize("p, n", [(2, 14), (3, 8), (5, 5), (7, 4)])
def test_generator_table_compiles_within_130_percent_of_its_size(p, n):
    """The digit arrays are int8 and widen a buffer at a time, so compiling
    the table of a random [[n, 1]]_p code peaks at most 1.3 times the table
    (tracemalloc sees numpy's allocations); every entry matches the closed
    form P**t |d> = w**(t*phase + t*z.d - z.x*t(t+1)/2) |d + t*x>."""
    code = random_stabilizer(p, n, n - 1, np.random.default_rng(1))
    ops = code.generators()
    tracemalloc.start()
    try:
        kernels = sim.compile_paulis(p, n, ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * (kernels.src.nbytes + kernels.phases.nbytes)
    digits = np.indices((p,) * n).reshape(n, -1)
    place = p ** np.arange(n - 1, -1, -1)
    for i, op in enumerate(ops):
        zx = int(op.z @ op.x)
        for t in range(1, p):
            src = place @ ((digits - t * op.x[:, None]) % p)
            exps = (t * op.phase + t * (op.z @ digits) - zx * t * (t + 1) // 2) % p
            assert kernels.src.dtype == np.int32
            assert np.array_equal(kernels.src[i, t - 1], src)
            assert np.array_equal(kernels.phases[i, t - 1], omega(p) ** exps)


#: Registers of the protocol sweep hold at most this many amplitudes, V included.
PROTOCOL_REGISTER_LIMIT = 4096


@st.composite
def protocol_cases(draw, p):
    """A random [[n, k >= 1]]_p code with p**(n+k) within the protocol
    sweep's limit, and a seed for the code, its sets and the transcript."""
    cap = 2
    while p ** (cap + 1) <= PROTOCOL_REGISTER_LIMIT:
        cap += 1
    n = draw(st.integers(1, cap - 1))
    k = draw(st.integers(1, min(n, cap - n)))
    return n, k, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("p", gfp.PRIMES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_protocol_sweep_matches_the_reference_at_both_budgets(p, data):
    n, k, seed = data.draw(protocol_cases(p))
    rng = np.random.default_rng(seed)
    code = random_stabilizer(p, n, n - k, rng)
    structure = code.share_structure
    qualified = [
        tuple(acc)
        for w in range(n + 1)
        for acc, label in zip(
            share_sets(n, w).tolist(),
            structure.labels(w, structure.level(w), structure.level(n - w)[::-1]),
        )
        if label is AccessLabel.QUALIFIED
    ]
    picks = rng.choice(len(qualified), size=min(3, len(qualified)), replace=False)
    sets = [qualified[i] for i in sorted(picks)]
    shareable = [j for j in range(1, n + 1) if is_advance_shareable(code, [j])]
    for shares in [[]] + [shareable[:1]] * bool(shareable):
        plan = construct_eaqecc(code, shares)
        fast = simulate_protocol(plan, seed, 2, sets)
        # At p**n the isometry does not fit, and each secret runs the circuit.
        unfit = simulate_protocol(plan, seed, 2, sets, budget=p**n)
        reference = slow_simulate_protocol(plan, seed, 2, sets)
        assert fast.syndrome == unfit.syndrome == reference[0][0]
        assert len(fast.trials) == len(unfit.trials) == len(reference) == 2 * len(sets)
        for rec, other, (_, measured, correction, fid) in zip(
            fast.trials, unfit.trials, reference
        ):
            assert rec.measured_syndrome == other.measured_syndrome == measured
            assert rec.correction == other.correction == correction
            assert abs(rec.fidelity - fid) < 1e-12
            assert abs(other.fidelity - fid) < 1e-12


@pytest.mark.parametrize("p", gfp.PRIMES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_reference_encoding_holds_each_basis_secret(p, data):
    """Row s of the Choi state, scaled by sqrt(p**k), is the one-secret
    encoding of |s>: the batched columns and the single column agree."""
    n, k, seed = data.draw(protocol_cases(p))
    rng = np.random.default_rng(seed)
    code = random_stabilizer(p, n, n - k, rng)
    shareable = [j for j in range(1, n + 1) if is_advance_shareable(code, [j])]
    for shares in [[]] + [shareable[:1]] * bool(shareable):
        plan = construct_eaqecc(code, shares)
        choi, syndrome = encode_with_reference(plan)
        rows = np.sqrt(p**k) * choi.amplitudes.reshape(p**k, p**n)
        for s, basis in enumerate(np.eye(p**k)):
            shared, alone = encode_advance(plan, QuditState(p, k, basis))
            assert alone == syndrome
            assert np.abs(rows[s] - shared.amplitudes).max() < 1e-12


def test_equal_instances_compare_without_raising(four_qubit_pipeline):
    """Plans and normal forms compare by value, their arrays exactly; states
    and decode results compare by identity (states compare by fidelity)."""
    code, plan = four_qubit_pipeline
    same_code = validate_stabilizer(code.check_matrix.tolist(), 2, 4)
    assert plan == construct_eaqecc(code, (4,)) == EAQECCPlan(same_code, [4, 4])
    assert plan != construct_eaqecc(code, [3])
    assert plan.normal == normal_form(same_code, (4,)) != normal_form(code, [3])
    state = QuditState(2, 1, [1, 0])
    assert state == state and state != QuditState(2, 1, [1, 0])
    result = sim.DecodeResult(state, (0,), np.zeros(2, dtype=np.int64))
    assert result == result
    assert result != sim.DecodeResult(state, (0,), np.zeros(2, dtype=np.int64))


@pytest.mark.parametrize("amplitudes", [[np.nan, 0], [np.nan, np.nan]])
def test_state_refuses_nan_amplitudes(amplitudes):
    # A NaN norm is not within any tolerance of 1.
    with pytest.raises(ValueError) as err:
        QuditState(2, 1, amplitudes)
    assert str(err.value) == "state norm nan is not 1"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda code, plan: fidelity(QuditState(2, 1, [1, 0]), QuditState(3, 1, [1, 0, 0])),
         "states must have identical shape"),
        (lambda code, plan: apply_pauli(QuditState(2, 1, [1, 0]), single(2, 2, 0, x=1)),
         "operator and state must share p and qudit count"),
        (lambda code, plan: encode_advance(plan, QuditState(2, 1, [1, 0])),
         "secret must be 2 qudits of dimension 2"),
        (lambda code, plan: erase_and_decode(
            QuditState(2, 3, np.eye(8)[0]), code, (0, 0), [1], np.random.default_rng(0)),
         "state does not match the code"),
    ],
    ids=["fidelity", "apply_pauli", "secret", "erase_and_decode"],
)
def test_refusals_name_the_mismatch(four_qubit_pipeline, call, message):
    with pytest.raises(ValueError) as err:
        call(*four_qubit_pipeline)
    assert str(err.value) == message
