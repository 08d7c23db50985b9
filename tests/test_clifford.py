import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advshare import clifford, gfp
from advshare.advance import construct_eaqecc, is_advance_shareable
from advshare.clifford import (
    GATE_KINDS,
    CliffordCircuit,
    Gate,
    PhasedPauli,
    _complete_basis,
    _span_reduction,
    apply_circuit_tensor,
    conjugate_pauli,
    encoding_circuit,
    gate,
    symplectic_matrix,
    synthesize,
    to_unitary,
)
from advshare.errors import (
    BudgetExceededError,
    DependentRowsError,
    GramMismatchError,
    InvariantError,
)
from advshare.pauli import PauliOperator, omega, random_stabilizer, single, to_matrix, zeta
from advshare.symplectic import orthogonality_rows, product_matrix
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


def slow_complete_basis(vectors, pairs, radical, p):
    """Reference: complete a tuple to a symplectic basis with one
    ``gfp.solve`` or ``gfp.kernel`` elimination per completed vector."""
    two_m = vectors.shape[1]
    if gfp.rank(vectors, p) < vectors.shape[0]:
        raise DependentRowsError("generator f-images are linearly dependent")

    def rows_of(constraints):
        stacked = np.array(constraints, dtype=np.int64).reshape(len(constraints), two_m)
        return orthogonality_rows(stacked, p)

    basis = []
    for a, b in pairs:
        basis.append((a @ vectors) % p)
        basis.append((b @ vectors) % p)
    radical_vecs = [(c @ vectors) % p for c in radical]
    for j, c in enumerate(radical_vecs):
        constraints = basis + radical_vecs[j:]
        rhs = np.zeros(len(constraints), dtype=np.int64)
        rhs[len(basis)] = 1  # <c, d> = 1, everything else orthogonal
        d = gfp.solve(rows_of(constraints), rhs, p)
        if d is None:
            raise InvariantError("symplectic completion failed: partner system inconsistent")
        basis.append(c)
        basis.append(d)
    while len(basis) < two_m:
        if basis:
            e = gfp.kernel(rows_of(basis), p)[0]
        else:
            e = np.zeros(two_m, dtype=np.int64)
            e[0] = 1
        rhs = np.zeros(len(basis) + 1, dtype=np.int64)
        rhs[-1] = 1
        f = gfp.solve(rows_of(basis + [e]), rhs, p)
        if f is None:
            raise InvariantError("symplectic completion failed: no partner for fresh vector")
        basis.append(e)
        basis.append(f)
    return np.array(basis, dtype=np.int64)


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
    with pytest.raises(ValueError, match="unknown gate line 'H 0'"):
        CliffordCircuit.from_text("H 0", 2, 1)
    for line in ("SUM 0", "P 0", "F", "SUM 0 1 2", "F 0 1", "X 0 a", "MUL 0 1.5"):
        with pytest.raises(ValueError, match=f"gate line '{line}' needs"):
            CliffordCircuit.from_text(f"F 0\n{line}\n", 2, 2)
    assert CliffordCircuit.from_text("X 1 -1  # comment", 3, 2).gates == (Gate("X", (1,), -1),)


def test_circuit_validates_wires_and_params():
    with pytest.raises(ValueError):
        CliffordCircuit(2, 1, (gate("F", 3),))
    with pytest.raises(ValueError):
        CliffordCircuit(2, 2, (gate("MUL", 0, param=2),))
    with pytest.raises(ValueError):
        CliffordCircuit(2, 2, (gate("SUM", 1, 1),))
    with pytest.raises(ValueError, match="unknown gate kind 'H'"):
        CliffordCircuit(2, 1, (Gate("H", (0,)),))
    for bad in (Gate("SUM", (0,)), Gate("F", (0, 1)), Gate("X", ()), Gate("SUM", (0, 1, 2))):
        with pytest.raises(ValueError, match=f"gate {bad.kind} takes"):
            CliffordCircuit(2, 3, (bad,))
    # A bad gate after valid ones is refused as it would be alone.
    valid = (gate("F", 0), gate("SUM", 0, 1), gate("X", 0, param=1))
    for bad, message in (
        (gate("F", 2), "gate F 2 addresses wire 2 outside 0..1"),
        (gate("MUL", 0, param=3), "MUL parameter must be invertible"),
        (gate("SUM", 1, 1), "SUM control and target must differ"),
        (Gate("H", (0,)), "unknown gate kind 'H'"),
        (Gate("SUM", (0,)), "gate SUM takes 2 wire"),
    ):
        with pytest.raises(ValueError, match=message):
            CliffordCircuit(3, 2, valid + (bad,))


def test_singular_change_of_basis_is_an_invariant_error(monkeypatch):
    """A completion that is not a basis cannot pass synthesis's checks."""
    complete_basis = clifford._complete_basis

    def singular(vectors, pairs, radical, p):
        basis = complete_basis(vectors, pairs, radical, p)
        basis[-1] = basis[0]
        return basis

    monkeypatch.setattr(clifford, "_complete_basis", singular)
    source = [single(3, 2, 0, x=1), single(3, 2, 1, z=1)]
    with pytest.raises(InvariantError, match="^change of basis"):
        synthesize(source, source)


@pytest.mark.parametrize(
    "p, pair, message",
    [(2, 0, "does not map source images"), (3, 0, "is not symplectic"), (3, 1, "is not symplectic")],
)
def test_reordered_change_of_basis_is_an_invariant_error(p, pair, message, monkeypatch):
    """Swap one hyperbolic pair of the source completion only.  The first
    pair holds the source image, so the map misses the target, and at odd p,
    where <f, e> = -<e, f>, it also breaks the form; the last pair is fresh,
    so only the symplectic check can see it."""
    complete_basis = clifford._complete_basis
    calls = []

    def reordered(vectors, pairs, radical, p):
        basis = complete_basis(vectors, pairs, radical, p)
        calls.append(basis)
        order = list(range(len(basis)))
        if len(calls) == 1:
            order[2 * pair : 2 * pair + 2] = [2 * pair + 1, 2 * pair]
        return basis[order]

    monkeypatch.setattr(clifford, "_complete_basis", reordered)
    with pytest.raises(InvariantError, match=f"^change of basis {message}"):
        synthesize([single(p, 2, 0, x=1)], [single(p, 2, 1, x=1)])
    assert len(calls) == 2


@st.composite
def completion_cases(draw, p):
    """Tuples of f-images on m wires: empty, isotropic (every vector in the
    radical), a full symplectic basis, random independent, or dependent."""
    m = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["empty", "isotropic", "full", "independent", "dependent"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Columns of a random symplectic matrix form a symplectic basis.
    sp = symplectic_matrix(random_circuit(p, m, 4 * m, rng)).T % p
    if kind == "empty":
        rows = np.zeros((0, 2 * m), dtype=np.int64)
    elif kind == "isotropic":
        # Images of the x-only unit vectors span an isotropic subspace.
        rows = sp[rng.permutation(m)[: draw(st.integers(1, m))]]
    elif kind == "full":
        rows = sp[rng.permutation(2 * m)]
    else:
        rows = np.zeros((0, 2 * m), dtype=np.int64)
        for _ in range(draw(st.integers(1, 2 * m))):
            cand = rng.integers(0, p, 2 * m)
            if gfp.rank(np.vstack([rows, cand]), p) > rows.shape[0]:
                rows = np.vstack([rows, cand])
        if kind == "dependent":
            combo = rng.integers(0, p, rows.shape[0]) @ rows % p
            rows = np.insert(rows, draw(st.integers(0, rows.shape[0])), combo, axis=0)
    return rows


@pytest.mark.parametrize("p", gfp.PRIMES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_completion_matches_one_elimination_per_vector(p, data):
    rows = data.draw(completion_cases(p))
    pairs, radical = _span_reduction(product_matrix(rows, rows, p), p)
    try:
        want = slow_complete_basis(rows, pairs, radical, p)
    except (DependentRowsError, InvariantError) as exc:
        with pytest.raises(type(exc)) as got:
            _complete_basis(rows, pairs, radical, p)
        assert str(got.value) == str(exc)
        return
    got = _complete_basis(rows, pairs, radical, p)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def loop_conjugate_pauli(circuit, op):
    """Reference: conjugate through the circuit one gate at a time."""
    cur = PhasedPauli.from_pauli(op) if isinstance(op, PauliOperator) else op
    p = circuit.p
    x, z, tau = [int(v) for v in cur.x], [int(v) for v in cur.z], cur.tau
    for g in circuit.gates:
        tau += clifford._conjugate_wires(g, x, z, p)
    return PhasedPauli(p, x, z, tau)


def loop_symplectic_matrix(circuit):
    m, p = circuit.m, circuit.p
    out = np.eye(2 * m, dtype=np.int64)
    for g in circuit.gates:
        clifford._conjugate_wires(g, out[:m], out[m:], p)
    return out


def loop_inverse(circuit):
    return [h for g in reversed(circuit.gates) for h in clifford._inverse_gates(g, circuit.p)]


@st.composite
def run_circuits(draw, p):
    """Circuits made of runs of 1..2p+1 equal gates of every kind, some runs
    broken by an equal gate on another wire, and a seed for test Paulis."""
    m = draw(st.integers(2, 4))
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(GATE_KINDS))
        q = draw(st.integers(0, m - 1))
        wires = (q, (q + draw(st.integers(1, m - 1))) % m) if kind == "SUM" else (q,)
        if kind in ("F", "SUM"):
            param = 0
        elif kind == "MUL":
            param = draw(st.integers(1, p - 1))
        elif kind == "P" and p == 2:
            param = draw(st.integers(0, 3))
        else:
            param = draw(st.integers(0, p - 1))
        g = Gate(kind, wires, param)
        # The same gate on wires shifted by s: equal in all but its wires.
        s = draw(st.integers(1, m - 1))
        breaker = Gate(kind, tuple((w + s) % m for w in wires), param)
        length = draw(st.integers(1, 2 * p + 1))
        run = [g] * length
        if draw(st.booleans()):
            run.insert(draw(st.integers(0, length)), breaker)
        gates += run
    return CliffordCircuit(p, m, tuple(gates)), draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("p", gfp.PRIMES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_runs_and_powers_match_the_gate_by_gate_walk(p, data):
    """A run of equal gates goes through ``_conjugate_wires`` as one power:
    conjugation (with its exact tau), the symplectic matrix, the inverse and
    the dense kernels match walking the gates one at a time."""
    circuit, seed = data.draw(run_circuits(p))
    runs = circuit.runs
    assert [g for g, count in runs for _ in range(count)] == list(circuit.gates)
    assert all(count >= 1 for _, count in runs)
    assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))
    rng = np.random.default_rng(seed)
    for _ in range(4):
        a = random_pauli(p, circuit.m, rng)
        got, want = conjugate_pauli(circuit, a), loop_conjugate_pauli(circuit, a)
        assert got == want and got.tau == want.tau
    assert np.array_equal(symplectic_matrix(circuit), loop_symplectic_matrix(circuit))
    assert list(circuit.inverse().gates) == loop_inverse(circuit)
    if p**circuit.m <= DENSE_UNITARY_LIMIT:
        assert np.abs(to_unitary(circuit) - slow_to_unitary(circuit)).max() < 1e-12


@pytest.mark.parametrize("dependent", ["source", "target"])
def test_synthesize_refuses_a_dependent_tuple_with_its_message(dependent):
    """Equal Grams, one tuple dependent: the completion's own elimination
    refuses it before any partner is solved."""
    bad = [single(3, 2, 0, x=1), single(3, 2, 0, x=2)]
    good = [single(3, 2, 0, z=1), single(3, 2, 1, x=1)]
    source, target = (bad, good) if dependent == "source" else (good, bad)
    with pytest.raises(DependentRowsError, match="^generator f-images are linearly dependent$"):
        synthesize(source, target)


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


def test_gate_actions_match_symbolic_engine(rng):
    """The matrix path (rows of an array) and the one-Pauli path (ints) agree:
    column j of symplectic_matrix is the conjugated unit Pauli e_j."""
    for p in gfp.PRIMES:
        for _ in range(10):
            m = int(rng.integers(1, 5))
            c = random_circuit(p, m, int(rng.integers(0, 16)), rng)
            s = symplectic_matrix(c)
            for col, unit in enumerate(np.eye(2 * m, dtype=np.int64)):
                img = conjugate_pauli(c, PhasedPauli(p, unit[:m], unit[m:]))
                assert np.array_equal(s[:, col], np.concatenate([img.x, img.z]))


def test_circuits_preserve_symplectic_form(rng):
    for _ in range(25):
        p = int(rng.choice([2, 3]))
        m = int(rng.integers(1, 4))
        c = random_circuit(p, m, int(rng.integers(0, 12)), rng)
        s = symplectic_matrix(c)
        unit = np.eye(2 * m, dtype=np.int64)
        assert np.array_equal(product_matrix(s.T, s.T, p), product_matrix(unit, unit, p))


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


def loop_decompose_symplectic(matrix, m, p):
    """Reference: ``clifford._decompose_symplectic`` with a gate applied
    ``times`` times as that many full matrix updates."""
    cur = matrix.copy() % p
    ops = []

    def apply(g, times=1):
        for _ in range(times % (4 * p)):
            clifford._conjugate_wires(g, cur[:m], cur[m:], p)
            ops.append(g)

    for q in range(m):
        col = cur[:, q]
        if not col[q:m].any():
            w = q + int(np.nonzero(col[m + q :])[0][0])
            apply(Gate("F", (w,)))
        col = cur[:, q]
        if col[q] == 0:
            w = q + int(np.nonzero(col[q + 1 : m])[0][0]) + 1
            apply(Gate("SUM", (w, q)))
        if cur[q, q] != 1:
            apply(Gate("MUL", (q,), gfp.inv_scalar(int(cur[q, q]), p)))
        for w in range(q + 1, m):
            if cur[w, q]:
                apply(Gate("SUM", (q, w)), times=p - int(cur[w, q]))
        for w in range(q + 1, m):
            if cur[m + w, q]:
                apply(Gate("F", (w,)))
                apply(Gate("SUM", (q, w)), times=p - int(cur[w, q]))
        if cur[m + q, q]:
            apply(Gate("P", (q,), (p - int(cur[m + q, q])) % p))
        for w in range(q + 1, m):
            if cur[m + w, m + q]:
                apply(Gate("SUM", (w, q)), times=int(cur[m + w, m + q]))
            if cur[w, m + q]:
                apply(Gate("F", (w,)))
                apply(Gate("SUM", (w, q)), times=int(cur[m + w, m + q]))
        if cur[q, m + q]:
            gam = int(cur[q, m + q])
            apply(Gate("F", (q,)), times=1 if p == 2 else 3)
            apply(Gate("P", (q,), gam))
            apply(Gate("F", (q,)))
    assert np.array_equal(cur, np.eye(2 * m, dtype=np.int64))
    return [h for g in reversed(ops) for h in clifford._inverse_gates(g, p)]


@pytest.mark.parametrize("p", gfp.PRIMES)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), rows_short=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_decomposition_matches_the_gate_by_gate_loop(p, n, rows_short, seed):
    """Encoders of random codes: one row operation per gate power gives the
    loop's gate list, and the gates realize the encoder's matrix."""
    code = random_stabilizer(p, n, max(0, n - rows_short), np.random.default_rng(seed))
    shares = [1] if is_advance_shareable(code, [1]) else []
    circuit = encoding_circuit(construct_eaqecc(code, shares))
    # The trailing X/Z layer acts trivially on f-images.
    matrix = symplectic_matrix(circuit)
    gates = clifford._decompose_symplectic(matrix, circuit.m, p)
    assert gates == loop_decompose_symplectic(matrix, circuit.m, p)
    assert np.array_equal(symplectic_matrix(CliffordCircuit(p, circuit.m, tuple(gates))), matrix)


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
