import itertools

import numpy as np
import pytest

from advshare import sim
from advshare.advance import construct_eaqecc
from advshare.clifford import CliffordCircuit, encoding_circuit
from advshare.errors import BudgetExceededError, UncorrectableErasureError
from advshare.pauli import PauliOperator, single, to_matrix
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

# Dense leakage of any two shares of the four-qubit fixture, in log-2 units:
# exactly half the 2k available correlations (frozen from a dense run).
TWO_SHARE_LEAKAGE = 2.0


@pytest.fixture
def four_qubit_pipeline(four_qubit):
    plan = construct_eaqecc(four_qubit, [4])
    circuit = encoding_circuit(plan)
    return four_qubit, plan, circuit


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


def test_encode_produces_joint_eigenstate(four_qubit_pipeline, rng):
    code, plan, circuit = four_qubit_pipeline
    secret = random_state(2, 2, rng)
    shared, syndrome = encode_advance(code, [4], plan, circuit, secret)
    assert len(syndrome) == 2
    zp = np.exp(1j * np.pi / 2)
    for i in range(2):
        moved = apply_pauli(shared, code.generator(i))
        assert (
            np.abs(moved.amplitudes - zp ** syndrome[i] * shared.amplitudes).max()
            < 1e-9
        )


def test_encode_advance_share_maximally_mixed(four_qubit_pipeline, rng):
    code, plan, circuit = four_qubit_pipeline
    secret = random_state(2, 2, rng)
    shared, _ = encode_advance(code, [4], plan, circuit, secret)
    rho = reduced_density(shared, [3])
    assert np.abs(rho - np.eye(2) / 2).max() < 1e-10


def test_encode_with_reference_single_share_mixed(four_qubit_pipeline):
    code, plan, circuit = four_qubit_pipeline
    state, _ = encode_with_reference(code, [4], plan, circuit)
    for share in range(1, 5):
        rho = reduced_density(state, [2 + share - 1])
        assert np.abs(rho - np.eye(2) / 2).max() < 1e-10


def test_encode_budget(four_qubit_pipeline, rng):
    code, plan, circuit = four_qubit_pipeline
    secret = random_state(2, 2, rng)
    with pytest.raises(BudgetExceededError):
        encode_advance(code, [4], plan, circuit, secret, budget=8)


def test_encode_rejects_mismatched_circuit(four_qubit_pipeline, rng):
    code, plan, _ = four_qubit_pipeline
    wrong = CliffordCircuit(2, 3)
    with pytest.raises(ValueError, match="does not map"):
        encode_advance(code, [4], plan, wrong, random_state(2, 2, rng))


def test_erase_nothing_is_identity(four_qubit_pipeline, rng):
    code, plan, circuit = four_qubit_pipeline
    secret = random_state(2, 2, rng)
    shared, syndrome = encode_advance(code, [4], plan, circuit, secret)
    result = erase_and_decode(shared, code, syndrome, [], rng)
    assert fidelity(result.state, shared) > 1 - 1e-12
    assert not result.correction.any()


def test_erase_one_share_recovers(four_qubit_pipeline, rng):
    code, plan, circuit = four_qubit_pipeline
    secret = random_state(2, 2, rng)
    shared, syndrome = encode_advance(code, [4], plan, circuit, secret)
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
    code, plan, circuit = four_qubit_pipeline
    secret = random_state(2, 2, rng)
    shared, syndrome = encode_advance(code, [4], plan, circuit, secret)
    with pytest.raises(UncorrectableErasureError):
        erase_and_decode(shared, code, syndrome, [1, 2], rng)


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
    code, plan, circuit = four_qubit_pipeline
    assert (
        abs(entropic_audit(code, [4], [1, 2, 3, 4], plan=plan, circuit=circuit) - 4.0)
        < 1e-9
    )
    for share in range(1, 5):
        assert abs(entropic_audit(code, [4], [share], plan=plan, circuit=circuit)) < 1e-9


def test_entropic_audit_two_share_leakage(four_qubit_pipeline):
    code, plan, circuit = four_qubit_pipeline
    for pair in itertools.combinations(range(1, 5), 2):
        value = entropic_audit(code, [4], pair, plan=plan, circuit=circuit)
        assert abs(value - TWO_SHARE_LEAKAGE) < 1e-9
        assert 1e-6 < value < 4.0 - 1e-6


def test_audit_agrees_with_labels(four_qubit_pipeline):
    code, plan, circuit = four_qubit_pipeline
    subsets = [
        s for size in range(5) for s in itertools.combinations(range(1, 5), size)
    ]
    table = mutual_information_table(code, [4], subsets, plan=plan, circuit=circuit)
    for subset in subsets:
        label = classify_access(code, subset)
        value = table[subset]
        if label is AccessLabel.QUALIFIED:
            assert abs(value - 4.0) < 1e-6
        elif label is AccessLabel.FORBIDDEN:
            assert abs(value) < 1e-6
        else:
            assert 1e-6 < value < 4.0 - 1e-6


def test_reconstruct_qualified_sets(four_qubit_pipeline, rng):
    code, plan, circuit = four_qubit_pipeline
    secret = random_state(2, 2, rng)
    shared, syndrome = encode_advance(code, [4], plan, circuit, secret)
    for subset in itertools.combinations(range(1, 5), 3):
        recovered = reconstruct(shared, code, syndrome, plan, circuit, subset, rng)
        assert fidelity(recovered, secret) > 1 - 1e-9
    full = reconstruct(shared, code, syndrome, plan, circuit, [1, 2, 3, 4], rng)
    assert fidelity(full, secret) > 1 - 1e-9


def test_reconstruct_rejects_mismatched_circuit(four_qubit_pipeline, rng):
    code, plan, circuit = four_qubit_pipeline
    shared, syndrome = encode_advance(code, [4], plan, circuit, random_state(2, 2, rng))
    with pytest.raises(ValueError, match="does not map"):
        reconstruct(shared, code, syndrome, plan, CliffordCircuit(2, 3), [1, 2, 3], rng)


def test_reconstruct_five_qubit(five_qubit, rng):
    plan = construct_eaqecc(five_qubit, [5])
    circuit = encoding_circuit(plan)
    secret = random_state(2, 1, rng)
    shared, syndrome = encode_advance(five_qubit, [5], plan, circuit, secret)
    for subset in itertools.combinations(range(1, 6), 4):
        recovered = reconstruct(shared, five_qubit, syndrome, plan, circuit, subset, rng)
        assert fidelity(recovered, secret) > 1 - 1e-9


def test_reconstruct_qutrit(qutrit, rng):
    plan = construct_eaqecc(qutrit, [3])
    circuit = encoding_circuit(plan)
    secret = random_state(3, 1, rng)
    shared, syndrome = encode_advance(qutrit, [3], plan, circuit, secret)
    recovered = reconstruct(shared, qutrit, syndrome, plan, circuit, [1, 2], rng)
    assert fidelity(recovered, secret) > 1 - 1e-9


def test_two_pair_advance_sharing(rng):
    from test_advance import CONVERSE_GAP_ROWS
    from advshare.pauli import validate_stabilizer

    code = validate_stabilizer(CONVERSE_GAP_ROWS, 2, 5)
    plan = construct_eaqecc(code, [1, 3])
    assert plan.parameters() == (3, 1, 2)
    assert plan.epr_pairs == ((1, 2), (3, 4))
    circuit = encoding_circuit(plan)
    secret = random_state(2, 1, rng)
    shared, syndrome = encode_advance(code, [1, 3], plan, circuit, secret)
    # both advance shares together are maximally mixed before distribution
    rho = reduced_density(shared, [0, 2])
    assert np.abs(rho - np.eye(4) / 4).max() < 1e-10
    assert abs(entropy(rho, 2) - 2.0) < 1e-9
    recovered = reconstruct(
        shared, code, syndrome, plan, circuit, [2, 3, 4, 5], rng
    )
    assert fidelity(recovered, secret) > 1 - 1e-9


def test_baseline_and_advance_have_same_audits(four_qubit):
    plan0 = construct_eaqecc(four_qubit, [])
    circ0 = encoding_circuit(plan0)
    plan4 = construct_eaqecc(four_qubit, [4])
    circ4 = encoding_circuit(plan4)
    subsets = [
        s for size in range(5) for s in itertools.combinations(range(1, 5), size)
    ]
    t0 = mutual_information_table(four_qubit, [], subsets, plan=plan0, circuit=circ0)
    t4 = mutual_information_table(four_qubit, [4], subsets, plan=plan4, circuit=circ4)
    for subset in subsets:
        assert abs(t0[subset] - t4[subset]) < 1e-9


def test_simulate_protocol_deterministic(four_qubit_pipeline):
    code, plan, circuit = four_qubit_pipeline
    sets = [(1, 2, 3), (2, 3, 4)]
    a = simulate_protocol(code, [4], plan, circuit, seed=42, trials=2, accessible_sets=sets)
    b = simulate_protocol(code, [4], plan, circuit, seed=42, trials=2, accessible_sets=sets)
    assert a == b
    assert all(rec.fidelity > 1 - 1e-9 for rec in a.trials)
    for rec in a.trials:
        support = {
            j + 1
            for j in range(code.n)
            if rec.correction[j] or rec.correction[code.n + j]
        }
        assert support <= set(rec.erased)


def test_simulate_protocol_checks_and_inverts_once_per_run(four_qubit_pipeline, monkeypatch):
    code, plan, circuit = four_qubit_pipeline
    calls = {"check": 0, "inverse": 0}
    check, inverse = sim._check_plan_matches, CliffordCircuit.inverse

    def counted_check(*args):
        calls["check"] += 1
        return check(*args)

    def counted_inverse(self):
        calls["inverse"] += 1
        return inverse(self)

    monkeypatch.setattr(sim, "_check_plan_matches", counted_check)
    monkeypatch.setattr(CliffordCircuit, "inverse", counted_inverse)
    sets = [(1, 2, 3), (2, 3, 4), (1, 3, 4), (1, 2, 3, 4)]
    transcript = simulate_protocol(
        code, [4], plan, circuit, seed=3, trials=3, accessible_sets=sets
    )
    assert len(transcript.trials) == 12
    assert all(rec.fidelity > 1 - 1e-9 for rec in transcript.trials)
    assert calls == {"check": 1, "inverse": 1}


def test_simulate_protocol_rejects_mismatched_circuit_first(four_qubit_pipeline, monkeypatch):
    code, plan, _ = four_qubit_pipeline
    simulated = []
    monkeypatch.setattr(sim, "random_state", lambda *args: simulated.append(args))
    monkeypatch.setattr(sim, "apply_circuit_tensor", lambda *args, **kw: simulated.append(args))
    with pytest.raises(ValueError, match="does not map"):
        simulate_protocol(
            code,
            [4],
            plan,
            CliffordCircuit(2, 3),
            seed=3,
            trials=2,
            accessible_sets=[(1, 2, 3)],
        )
    assert simulated == []


def test_erase_and_decode_budget_names_its_stage(four_qubit_pipeline, rng):
    code, plan, circuit = four_qubit_pipeline
    shared, syndrome = encode_advance(code, [4], plan, circuit, random_state(2, 2, rng))
    with pytest.raises(BudgetExceededError, match=r"2\*\*4 exceeds budget 15 \(erase and decode\)"):
        erase_and_decode(shared, code, syndrome, [1], rng, budget=15)
    result = erase_and_decode(shared, code, syndrome, [1], rng, budget=16)
    assert fidelity(result.state, shared) > 1 - 1e-9
