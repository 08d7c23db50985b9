import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advshare import gfp
from advshare.advance import construct_eaqecc
from advshare.clifford import (
    CliffordCircuit,
    Gate,
    PhasedPauli,
    _action,
    apply_circuit_tensor,
    conjugate_pauli,
    encoding_circuit,
    gate,
    standard_form,
    symplectic_matrix,
    synthesize,
    to_unitary,
)
from advshare.errors import (
    BudgetExceededError,
    DependentRowsError,
    GramMismatchError,
)
from advshare.pauli import PauliOperator, omega, single, to_matrix, zeta
from tests_util_circuits import random_circuit

#: Wire registers of the fused-versus-reference sweep hold at most this many
#: amplitudes; unitaries are compared up to DENSE_UNITARY_LIMIT.
REGISTER_LIMIT = 4096
DENSE_UNITARY_LIMIT = 256


def random_pauli(p, n, rng):
    return PauliOperator(
        p, rng.integers(0, p, n), rng.integers(0, p, n), int(rng.integers(p))
    )


def gate_tensor(arr, g, p, axes):
    """Reference: apply one gate to a complex tensor whose listed axes are qudits."""
    if g.kind == "F":
        q = axes[0]
        f = omega(p) ** np.outer(np.arange(p), np.arange(p)) / np.sqrt(p)
        arr = np.tensordot(f, arr, axes=([1], [q]))
        return np.moveaxis(arr, 0, q)
    if g.kind in ("P", "Z"):
        q = axes[0]
        j = np.arange(p)
        if g.kind == "Z":
            diag = omega(p) ** (g.param * j)
        elif p == 2:
            diag = zeta(2) ** (g.param * j)
        else:
            diag = omega(p) ** ((g.param * (j * (j - 1) // 2)) % p)
        shape = [1] * arr.ndim
        shape[q] = p
        return arr * diag.reshape(shape)
    if g.kind == "X":
        return np.roll(arr, g.param % p, axis=axes[0])
    if g.kind == "MUL":
        gam_inv = gfp.inv_scalar(g.param, p)
        idx = (gam_inv * np.arange(p)) % p
        return np.take(arr, idx, axis=axes[0])
    if g.kind == "SUM":
        qc, qt = axes
        moved = np.moveaxis(arr, qc, 0)
        slices = [np.roll(moved[a], a, axis=qt - 1 if qt > qc else qt) for a in range(p)]
        return np.moveaxis(np.stack(slices, axis=0), 0, qc)
    raise ValueError(g.kind)


def slow_apply_circuit_tensor(arr, circuit, axes=None):
    """Reference: apply the circuit one gate at a time."""
    if axes is None:
        axes = list(range(circuit.m))
    out = np.asarray(arr, dtype=complex)
    for g in circuit.gates:
        out = gate_tensor(out, g, circuit.p, [axes[q] for q in g.qudits])
    return out


def slow_to_unitary(circuit):
    dim = circuit.p**circuit.m
    eye = np.eye(dim, dtype=complex).reshape((circuit.p,) * circuit.m + (dim,))
    return slow_apply_circuit_tensor(eye, circuit).reshape(dim, dim)


@st.composite
def fused_cases(draw, p):
    """A circuit with every gate kind, same-wire F runs of 1-5, and a tensor
    carrying its wires on shuffled axes among 0-2 extra axes."""
    m_max = 1
    while p ** (m_max + 1) <= REGISTER_LIMIT:
        m_max += 1
    m = draw(st.integers(1, m_max))
    kinds = ["F", "P", "MUL", "X", "Z"] + (["SUM"] if m > 1 else [])
    gates = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(kinds))
        q = draw(st.integers(0, m - 1))
        if kind == "F":
            gates.extend([Gate("F", (q,))] * draw(st.integers(1, 5)))
        elif kind == "SUM":
            t = draw(st.integers(0, m - 2))
            gates.append(Gate("SUM", (q, t + (t >= q))))
        elif kind == "MUL":
            gates.append(Gate("MUL", (q,), draw(st.integers(1, p - 1))))
        elif kind == "P" and p == 2:
            gates.append(Gate("P", (q,), draw(st.integers(0, 3))))
        else:
            gates.append(Gate(kind, (q,), draw(st.integers(0, p - 1))))
    extra = draw(st.lists(st.integers(1, 3), max_size=2))
    order = draw(st.permutations(range(m + len(extra))))
    seed = draw(st.integers(0, 2**32 - 1))
    return CliffordCircuit(p, m, tuple(gates)), extra, list(order), seed


@pytest.mark.parametrize("p", gfp.PRIMES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_fused_kernels_match_gate_by_gate_reference(p, data):
    circuit, extra, order, seed = data.draw(fused_cases(p))
    m = circuit.m
    # Tensor axis order[w] carries wire w; the remaining axes are extras.
    shape = [0] * (m + len(extra))
    for w in range(m):
        shape[order[w]] = p
    for size, axis in zip(extra, order[m:]):
        shape[axis] = size
    rng = np.random.default_rng(seed)
    arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    arr /= np.linalg.norm(arr)
    before = arr.copy()
    axes = order[:m]
    fused = apply_circuit_tensor(arr, circuit, axes=axes)
    assert fused.shape == arr.shape
    assert np.abs(fused - slow_apply_circuit_tensor(arr, circuit, axes=axes)).max() < 1e-12
    assert np.array_equal(arr, before)
    if p**m <= DENSE_UNITARY_LIMIT:
        assert np.abs(to_unitary(circuit) - slow_to_unitary(circuit)).max() < 1e-12


def test_fused_empty_circuit_and_fourier_cycle():
    for p in gfp.PRIMES:
        rng = np.random.default_rng(p)
        arr = rng.normal(size=(p, 2, p)) + 0j
        for circuit in (CliffordCircuit(p, 2), CliffordCircuit(p, 2, (gate("F", 1),) * 4)):
            assert np.abs(apply_circuit_tensor(arr, circuit, axes=[2, 0]) - arr).max() < 1e-12
            assert np.abs(to_unitary(circuit) - np.eye(p * p)).max() < 1e-12


def test_empty_circuit_is_identity():
    assert np.allclose(to_unitary(CliffordCircuit(2, 2)), np.eye(4))


def test_fourier_qubit_is_hadamard():
    u = to_unitary(CliffordCircuit(2, 1, (gate("F", 0),)))
    assert np.allclose(u, np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_sum_gate_permutation():
    u = to_unitary(CliffordCircuit(2, 2, (gate("SUM", 0, 1),)))
    expected = np.zeros((4, 4))
    for x in range(2):
        for y in range(2):
            expected[2 * x + ((x + y) % 2), 2 * x + y] = 1
    assert np.allclose(u, expected)


def test_fourier_qutrit_is_dft():
    u = to_unitary(CliffordCircuit(3, 1, (gate("F", 0),)))
    w = np.exp(2j * np.pi / 3)
    expected = w ** np.outer(np.arange(3), np.arange(3)) / np.sqrt(3)
    assert np.allclose(u, expected)


def test_unitarity_of_random_circuits(rng):
    for _ in range(30):
        p = int(rng.choice([2, 3]))
        m = int(rng.integers(1, 3))
        c = random_circuit(p, m, int(rng.integers(0, 10)), rng)
        u = to_unitary(c)
        assert np.abs(u @ u.conj().T - np.eye(p**m)).max() < 1e-10


def test_circuit_inverse_is_exact(rng):
    for _ in range(20):
        p = int(rng.choice([2, 3]))
        m = int(rng.integers(1, 3))
        c = random_circuit(p, m, int(rng.integers(0, 10)), rng)
        u = to_unitary(c)
        ui = to_unitary(c.inverse())
        assert np.abs(ui @ u - np.eye(p**m)).max() < 1e-10


def test_text_round_trip(rng):
    c = random_circuit(3, 3, 12, rng)
    restored = CliffordCircuit.from_text(c.to_text(), 3, 3)
    assert restored == c


def test_text_rejects_unknown_gate():
    with pytest.raises(ValueError):
        CliffordCircuit.from_text("H 0", 2, 1)


def test_circuit_validates_wires_and_params():
    with pytest.raises(ValueError):
        CliffordCircuit(2, 1, (gate("F", 3),))
    with pytest.raises(ValueError):
        CliffordCircuit(2, 2, (gate("MUL", 0, param=2),))
    with pytest.raises(ValueError):
        CliffordCircuit(2, 2, (gate("SUM", 1, 1),))


def test_conjugate_identity_circuit(rng):
    c = CliffordCircuit(3, 2)
    a = random_pauli(3, 2, rng)
    img = conjugate_pauli(c, a)
    assert img == PhasedPauli.from_pauli(a)


def test_fourier_conjugates_x_to_z():
    c = CliffordCircuit(2, 1, (gate("F", 0),))
    img = conjugate_pauli(c, single(2, 1, 0, x=1))
    assert img.tau == 0
    assert img.x[0] == 0 and img.z[0] == 1


def test_sum_spreads_x():
    c = CliffordCircuit(2, 2, (gate("SUM", 0, 1),))
    img = conjugate_pauli(c, single(2, 2, 0, x=1))
    assert np.array_equal(img.x, [1, 1]) and not img.z.any()
    u = to_unitary(c)
    dense = u @ to_matrix(single(2, 2, 0, x=1)) @ u.conj().T
    assert np.abs(dense - to_matrix(PauliOperator(2, [1, 1], [0, 0]))).max() < 1e-10


def test_symbolic_conjugation_matches_dense(rng):
    for p in gfp.PRIMES:
        for _ in range(30):
            m = int(rng.integers(1, 3))
            c = random_circuit(p, m, int(rng.integers(0, 12)), rng)
            a = random_pauli(p, m, rng)
            img = conjugate_pauli(c, a)
            u = to_unitary(c)
            dense = u @ to_matrix(a) @ u.conj().T
            plain = to_matrix(PauliOperator(p, img.x, img.z))
            # The exact phase: dense = zeta**tau * X(x) Z(z) with the same tau.
            lam = np.vdot(plain.reshape(-1), dense.reshape(-1)) / p**m
            assert round(np.angle(lam) / (np.pi / p)) % (2 * p) == img.tau
            assert np.abs(dense - img.phase_complex() * plain).max() < 1e-10


def test_conjugate_pauli_leaves_its_input_alone(rng):
    for p in gfp.PRIMES:
        for _ in range(10):
            m = int(rng.integers(1, 4))
            c = random_circuit(p, m, int(rng.integers(0, 12)), rng)
            a = random_pauli(p, m, rng)
            phased = PhasedPauli.from_pauli(a)
            x, z = a.x.copy(), a.z.copy()
            for op in (a, phased):
                img = conjugate_pauli(c, op)
                assert not np.shares_memory(img.x, op.x)
                assert not np.shares_memory(img.z, op.z)
                img.x[:] = (img.x + 1) % p
                img.z[:] = (img.z + 1) % p
            assert np.array_equal(a.x, x) and np.array_equal(a.z, z)
            assert np.array_equal(phased.x, x) and np.array_equal(phased.z, z)
            assert phased.tau == 2 * a.phase


def test_gate_actions_match_symbolic_engine():
    for p in (2, 3):
        m = 2
        for g in (
            gate("F", 0),
            gate("P", 1, param=1),
            gate("MUL", 0, param=p - 1),
            gate("SUM", 0, 1),
            gate("SUM", 1, 0),
            gate("X", 0, param=1),
            gate("Z", 1, param=1),
        ):
            c = CliffordCircuit(p, m, (g,))
            assert np.array_equal(symplectic_matrix(c), _action(g, m, p) % p)


def test_circuits_preserve_symplectic_form(rng):
    for _ in range(25):
        p = int(rng.choice([2, 3]))
        m = int(rng.integers(1, 4))
        c = random_circuit(p, m, int(rng.integers(0, 12)), rng)
        s = symplectic_matrix(c)
        omega = standard_form(m) % p
        assert np.array_equal((s.T @ standard_form(m) @ s) % p, omega)


def test_synthesize_source_equals_target(rng):
    source = [single(3, 2, 0, x=1), single(3, 2, 1, z=1)]
    c = synthesize(source, source)
    for s in source:
        img = conjugate_pauli(c, s)
        assert img == PhasedPauli.from_pauli(s)


def test_synthesize_x_to_z_qutrit():
    src = [single(3, 1, 0, x=1)]
    tgt = [single(3, 1, 0, z=1)]
    c = synthesize(src, tgt)
    u = to_unitary(c)
    assert np.abs(u @ to_matrix(src[0]) @ u.conj().T - to_matrix(tgt[0])).max() < 1e-10


def test_synthesize_gram_mismatch():
    src = [single(3, 1, 0, x=1), single(3, 1, 0, z=1)]
    tgt = [single(3, 1, 0, z=1), single(3, 1, 0, x=1)]
    with pytest.raises(GramMismatchError):
        synthesize(src, tgt)


def test_synthesize_dependent_generators():
    src = [single(3, 1, 0, x=1), single(3, 1, 0, x=2)]
    tgt = [single(3, 1, 0, z=1), single(3, 1, 0, z=2)]
    with pytest.raises(DependentRowsError):
        synthesize(src, tgt)


def test_synthesize_random_tuples_full_contract(rng):
    verified = 0
    for _ in range(50):
        p = int(rng.choice([2, 3]))
        m = int(rng.integers(1, 4))
        mixer = random_circuit(p, m, int(rng.integers(0, 10)), rng)
        from advshare import gfp

        rows = np.zeros((0, 2 * m), dtype=np.int64)
        r = int(rng.integers(1, 2 * m + 1))
        while rows.shape[0] < r:
            cand = rng.integers(0, p, 2 * m)
            stacked = np.vstack([rows, cand])
            if gfp.rank(stacked, p) == stacked.shape[0]:
                rows = stacked
        source = [PauliOperator(p, v[:m], v[m:], int(rng.integers(p))) for v in rows]
        target = []
        for s in source:
            img = conjugate_pauli(mixer, s)
            target.append(PauliOperator(p, img.x, img.z, int(rng.integers(p))))
        circ = synthesize(source, target)
        u = to_unitary(circ)
        for s, t in zip(source, target):
            lhs = u @ to_matrix(s) @ u.conj().T
            rhs = to_matrix(t)
            mask = np.abs(rhs) > 1e-9
            lam = (lhs[mask] / rhs[mask])[0]
            assert np.abs(lhs - lam * rhs).max() < 1e-9
            assert abs(abs(lam) - 1) < 1e-9
            tau = round(np.angle(lam) / (np.pi / p)) % (2 * p)
            assert abs(np.exp(1j * np.pi * tau / p) - lam) < 1e-9
            img = conjugate_pauli(circ, s)
            if (img.tau - 2 * t.phase) % 2 == 0:
                assert abs(lam - 1) < 1e-9
            verified += 1
    assert verified >= 50


def test_encoding_circuit_example_contract(four_qubit):
    plan = construct_eaqecc(four_qubit, [4])
    circ = encoding_circuit(plan)
    u = to_unitary(circ)
    for easy, coded in zip(plan.target_generators, plan.source_generators):
        lhs = u @ to_matrix(easy) @ u.conj().T
        assert np.abs(lhs - to_matrix(coded)).max() < 1e-9


def test_to_unitary_budget():
    c = CliffordCircuit(2, 2)
    with pytest.raises(BudgetExceededError):
        to_unitary(c, budget=2)


def test_phased_pauli_odd_phase_not_a_plain_pauli():
    c = CliffordCircuit(2, 1, (gate("P", 0, param=1),))
    img = conjugate_pauli(c, single(2, 1, 0, x=1))
    assert img.tau == 1
    with pytest.raises(ValueError):
        img.as_pauli()
