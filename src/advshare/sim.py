"""Dense qudit state-vector simulation of the advance-sharing protocol.

States live on m qudits of dimension p as complex vectors of length p**m,
tensor axis q holding qudit q (share s occupies axis s-1 on n-share
states).  Everything here is exact linear algebra at desk scale; budgets
refuse rather than approximate.

The protocol pipeline:

1. :func:`encode_advance` prepares the pre-shareable state: one maximally
   entangled pair per advance share (its partner wire sits in the
   complement), |0> ancillas, and the secret on the remaining wires.  The
   encoding circuit then rotates the complement wires into the code frame,
   leaving an exact joint eigenstate of every check generator; the observed
   eigenvalues are recorded as the syndrome reference.
2. :func:`erase_and_decode` models share loss by measuring the lost qudits
   and resetting them to |0>, measures every generator projectively, solves
   an F_p linear system for a correction supported on the lost shares, and
   applies it, returning to the recorded eigenspace.
3. :func:`reconstruct` undoes the encoding and extracts the secret register.

Eigenvalues of generators are exact roots of unity written zeta**tau with
zeta = exp(i*pi/p); tau is even (a plain w power) unless p = 2 and a
generator has odd x.z overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import gfp
from .access import AccessLabel, share_mask
from .advance import EAQECCPlan, construct_eaqecc
from .clifford import (
    CliffordCircuit,
    apply_circuit_tensor,
    conjugate_pauli,
    encoding_circuit,
)
from .errors import BudgetExceededError, UncorrectableErasureError
from .pauli import PauliOperator, StabilizerCode, f_inv, half_turn_parity, zeta
from .symplectic import SymplecticVector

#: Default cap on dense state sizes (amplitude count p**m).
DEFAULT_STATE_BUDGET = 4096

NORM_TOL = 1e-10
EIGEN_TOL = 1e-9


@dataclass(frozen=True)
class QuditState:
    """A pure state of m qudits of dimension p, unit norm."""

    p: int
    m: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        gfp.check_modulus(self.p)
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.shape[0] != self.p**self.m:
            raise ValueError(
                f"expected {self.p ** self.m} amplitudes, got {amp.shape[0]}"
            )
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"state norm {norm} is not 1")
        object.__setattr__(self, "amplitudes", amp / norm)

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((self.p,) * self.m)

    @classmethod
    def computational(cls, p: int, digits: Sequence[int]) -> "QuditState":
        m = len(digits)
        amp = np.zeros(p**m, dtype=complex)
        idx = 0
        for d in digits:
            idx = idx * p + int(d) % p
        amp[idx] = 1.0
        return cls(p, m, amp)

    @classmethod
    def from_tensor(cls, arr: np.ndarray, p: int) -> "QuditState":
        return cls(p, arr.ndim, arr.reshape(-1))


def random_state(p: int, m: int, rng: np.random.Generator) -> QuditState:
    """Haar-ish random pure state (normalized complex Gaussian)."""
    amp = rng.normal(size=p**m) + 1j * rng.normal(size=p**m)
    return QuditState(p, m, amp / np.linalg.norm(amp))


def make_epr(p: int) -> QuditState:
    """The maximally entangled pair sum_i |ii> / sqrt(p)."""
    amp = np.zeros((p, p), dtype=complex)
    for i in range(p):
        amp[i, i] = 1.0 / np.sqrt(p)
    return QuditState(p, 2, amp.reshape(-1))


def fidelity(a: QuditState, b: QuditState) -> float:
    """|<a|b>|**2 for pure states."""
    if a.p != b.p or a.m != b.m:
        raise ValueError("states must have identical shape")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def _apply_pauli_tensor(
    arr: np.ndarray, op: PauliOperator, axes: Sequence[int] | None = None
) -> np.ndarray:
    """Apply w^phase X(x) Z(z); Z acts first, X (a cyclic shift) second."""
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


def apply_pauli(state: QuditState, op: PauliOperator) -> QuditState:
    if op.p != state.p or op.n != state.m:
        raise ValueError("operator and state must share p and qudit count")
    return QuditState(state.p, state.m, _apply_pauli_tensor(state.tensor(), op).reshape(-1))


def apply_circuit(
    state: QuditState, circuit: CliffordCircuit, wires: Sequence[int] | None = None
) -> QuditState:
    """Apply a circuit; wires[w] is the state axis carrying circuit wire w."""
    arr = apply_circuit_tensor(state.tensor(), circuit, axes=wires)
    return QuditState(state.p, state.m, arr.reshape(-1))


def reduced_density(state: QuditState, keep: Sequence[int]) -> np.ndarray:
    """Density matrix of the listed axes (0-based), tracing out the rest."""
    keep = list(keep)
    rest = [q for q in range(state.m) if q not in keep]
    arr = np.transpose(state.tensor(), keep + rest)
    mat = arr.reshape(state.p ** len(keep), state.p ** len(rest))
    return mat @ mat.conj().T


def entropy(rho: np.ndarray, p: int) -> float:
    """Von Neumann entropy in units of log p."""
    eigs = np.linalg.eigvalsh(rho)
    eigs = np.clip(eigs.real, 0.0, None)
    eigs = eigs[eigs > 1e-14]
    return float(-(eigs * np.log(eigs)).sum() / np.log(p))


# ---------------------------------------------------------------------------
# eigenvalue bookkeeping


def _eigenvalue_exponent(
    arr: np.ndarray, op: PauliOperator, axes: Sequence[int] | None = None
) -> int:
    """tau with op|psi> = zeta**tau |psi>; raises if |psi> is no eigenvector."""
    moved = _apply_pauli_tensor(arr, op, axes)
    lam = complex(np.vdot(arr.reshape(-1), moved.reshape(-1)))
    if abs(abs(lam) - 1.0) > EIGEN_TOL:
        raise RuntimeError(f"state is not an eigenvector (|<G>| = {abs(lam):.3g})")
    if np.linalg.norm(moved.reshape(-1) - lam * arr.reshape(-1)) > 1e-7:
        raise RuntimeError("state is not an eigenvector of the generator")
    two_p = 2 * op.p
    tau = int(round(np.angle(lam) / (np.pi / op.p))) % two_p
    snapped = zeta(op.p) ** tau
    if abs(snapped - lam) > 1e-6:
        raise RuntimeError(f"eigenvalue {lam} is not a 2p-th root of unity")
    return tau


def measure_pauli(
    arr: np.ndarray,
    op: PauliOperator,
    rng: np.random.Generator,
    axes: Sequence[int] | None = None,
) -> tuple[int, np.ndarray]:
    """Projective measurement of a Pauli's eigenvalue on a state tensor.

    Returns ``(tau, collapsed)`` with the realized eigenvalue zeta**tau.
    Outcomes follow the Born rule under the supplied generator.
    """
    p = op.p
    parity = half_turn_parity(op)
    powers = [np.asarray(arr, dtype=complex)]
    for _ in range(p - 1):
        powers.append(_apply_pauli_tensor(powers[-1], op, axes))
    zp = zeta(p)
    branches = []
    probs = []
    taus = []
    for j in range(p):
        tau = (2 * j + parity) % (2 * p)
        lam = zp**tau
        branch = sum(lam ** (-t) * powers[t] for t in range(p)) / p
        weight = float(np.linalg.norm(branch.reshape(-1)) ** 2)
        branches.append(branch)
        probs.append(weight)
        taus.append(tau)
    probs_arr = np.clip(np.array(probs), 0.0, None)
    probs_arr = probs_arr / probs_arr.sum()
    pick = int(rng.choice(p, p=probs_arr))
    collapsed = branches[pick] / np.linalg.norm(branches[pick].reshape(-1))
    return taus[pick], collapsed


def _measure_computational(
    arr: np.ndarray, axis: int, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    p = arr.shape[axis]
    moved = np.moveaxis(arr, axis, 0)
    probs = np.array([float(np.linalg.norm(moved[i]) ** 2) for i in range(p)])
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    outcome = int(rng.choice(p, p=probs))
    collapsed = np.zeros_like(moved)
    collapsed[outcome] = moved[outcome] / np.linalg.norm(moved[outcome])
    return outcome, np.moveaxis(collapsed, 0, axis)


# ---------------------------------------------------------------------------
# encoding


def _compose_factors(
    factors: Sequence[tuple[np.ndarray, tuple[int, ...]]], order: Sequence[int]
) -> np.ndarray:
    """Outer-product factors carrying axis labels, then sort axes by order."""
    amp = np.array(1.0 + 0j)
    labels: list[int] = []
    for arr, axis_labels in factors:
        amp = np.multiply.outer(amp, arr)
        labels.extend(axis_labels)
    perm = [labels.index(lbl) for lbl in order]
    return np.transpose(amp, perm)


def _share_tuple(shares: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(int(j) for j in shares)))


def _check_plan_matches(
    code: StabilizerCode, shares: tuple[int, ...], plan: EAQECCPlan, circuit: CliffordCircuit
) -> None:
    if plan.p != code.p or plan.n != code.n or plan.shares != shares:
        raise ValueError("plan does not match the code and share set")
    if not gfp.row_space_equal(plan.normal.h_prime, code.check_matrix, code.p):
        raise ValueError("plan check rows span a different stabilizer")
    if circuit.p != plan.p or circuit.m != plan.n - plan.c:
        raise ValueError("circuit shape does not match the plan")
    for src, tgt in zip(plan.source_generators, plan.target_generators):
        img = conjugate_pauli(circuit, tgt)
        if not (np.array_equal(img.x, src.x) and np.array_equal(img.z, src.z)):
            raise ValueError("circuit does not map the preparation frame to the code frame")


def _encode_tensor(
    code: StabilizerCode,
    plan: EAQECCPlan,
    circuit: CliffordCircuit,
    secret_factor: tuple[np.ndarray, tuple[int, ...]] | None,
    extra_labels: Sequence[int],
    budget: int,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Shared easy-state builder; labels 1..n are shares, extras go first.

    The caller has checked the plan and circuit against the code.
    """
    p, n = code.p, code.n
    total_qudits = n + len(extra_labels)
    if p**total_qudits > budget:
        raise BudgetExceededError(
            f"state size {p}**{total_qudits} exceeds budget {budget}"
        )
    epr = make_epr(p).tensor()
    ket0 = np.zeros(p, dtype=complex)
    ket0[0] = 1.0
    factors: list[tuple[np.ndarray, tuple[int, ...]]] = []
    for j, partner in plan.epr_pairs:
        factors.append((epr, (j, partner)))
    for z_share in plan.zero_shares:
        factors.append((ket0, (z_share,)))
    if secret_factor is not None:
        factors.append(secret_factor)
    order = list(extra_labels) + list(range(1, n + 1))
    arr = _compose_factors(factors, order)
    offset = len(extra_labels)
    wire_axes = [offset + s - 1 for s in plan.complement]
    arr = apply_circuit_tensor(arr, circuit, axes=wire_axes)
    share_axes = [offset + s - 1 for s in range(1, n + 1)]
    syndrome = tuple(
        _eigenvalue_exponent(arr, code.generator(i), axes=share_axes)
        for i in range(code.num_checks)
    )
    return arr, syndrome


def encode_advance(
    code: StabilizerCode,
    shares: Iterable[int],
    plan: EAQECCPlan,
    circuit: CliffordCircuit,
    secret: QuditState,
    budget: int = DEFAULT_STATE_BUDGET,
) -> tuple[QuditState, tuple[int, ...]]:
    """Encode a k-qudit secret into the n shares, J pairs pre-distributed.

    Returns the shared state (share s on axis s-1) and the recorded
    eigenvalue exponents of the check generators (the syndrome reference
    for later decoding).  The output is an exact joint eigenstate; each
    advance share alone is maximally mixed.
    """
    _check_plan_matches(code, _share_tuple(shares), plan, circuit)
    return _encode_advance(code, plan, circuit, secret, budget)


def _encode_advance(
    code: StabilizerCode,
    plan: EAQECCPlan,
    circuit: CliffordCircuit,
    secret: QuditState,
    budget: int,
) -> tuple[QuditState, tuple[int, ...]]:
    """:func:`encode_advance` for a plan and circuit already checked."""
    if secret.p != code.p or secret.m != code.k:
        raise ValueError(f"secret must be {code.k} qudits of dimension {code.p}")
    secret_factor = None
    if code.k:
        secret_factor = (secret.tensor(), plan.secret_shares)
    elif not np.allclose(secret.amplitudes, [1.0]):
        raise ValueError("k = 0 code admits only the trivial secret")
    arr, syndrome = _encode_tensor(code, plan, circuit, secret_factor, (), budget)
    return QuditState(code.p, code.n, arr.reshape(-1)), syndrome


def encode_with_reference(
    code: StabilizerCode,
    shares: Iterable[int],
    plan: EAQECCPlan,
    circuit: CliffordCircuit,
    budget: int = DEFAULT_STATE_BUDGET,
) -> tuple[QuditState, tuple[int, ...]]:
    """Encode half of a maximally entangled secret, keeping the reference.

    The output has k reference qudits on axes 0..k-1, then the n shares.
    Entropies of reference-vs-share subsystems quantify exactly how much
    secret information a share set holds.
    """
    _check_plan_matches(code, _share_tuple(shares), plan, circuit)
    k = code.k
    epr = make_epr(code.p).tensor()
    ref_labels = tuple(-(t + 1) for t in range(k))
    factors: list[tuple[np.ndarray, tuple[int, ...]]] = [
        (epr, (ref_labels[t], plan.secret_shares[t])) for t in range(k)
    ]
    secret_factor = None
    if k:
        # Secret wires are claimed by the reference pairs; fold them in as a
        # single multi-factor component.
        combined = factors[0][0]
        labels = list(factors[0][1])
        for arr2, lbl2 in factors[1:]:
            combined = np.multiply.outer(combined, arr2)
            labels.extend(lbl2)
        secret_factor = (combined, tuple(labels))
    arr, syndrome = _encode_tensor(
        code, plan, circuit, secret_factor, ref_labels, budget
    )
    return QuditState(code.p, k + code.n, arr.reshape(-1)), syndrome


# ---------------------------------------------------------------------------
# erasure decoding


def correctable_erasure(code: StabilizerCode, erased: Iterable[int]) -> bool:
    """Whether losing the given shares is algebraically recoverable.

    True iff every dual vector supported on the erased shares already lies
    in the check row space (no undetectable damage fits in the hole); the
    code's cached share structure compares the two dimensions.
    """
    return code.share_structure().correctable([share_mask(erased, code.n)])[0]


@dataclass(frozen=True)
class DecodeResult:
    state: QuditState
    measured_syndrome: tuple[int, ...]
    correction: np.ndarray = field(repr=False)


def erase_and_decode(
    state: QuditState,
    code: StabilizerCode,
    syndrome: tuple[int, ...],
    erased: Iterable[int],
    rng: np.random.Generator,
    budget: int = DEFAULT_STATE_BUDGET,
) -> DecodeResult:
    """Lose the erased shares, then recover the recorded eigenspace.

    Lost qudits are measured and reset to |0> (one Kraus branch of the
    erasure channel; the decoder conditions on measured syndromes, so one
    branch exercises the full logic).  A Pauli correction supported on the
    erased shares moves the measured syndrome back to the recorded one.

    Raises :class:`UncorrectableErasureError` when the erased set fails the
    algebraic criterion.
    """
    err = sorted(set(int(j) for j in erased))
    if state.p != code.p or state.m != code.n:
        raise ValueError("state does not match the code")
    if code.p**code.n > budget:
        raise BudgetExceededError(
            f"state size {code.p}**{code.n} exceeds budget {budget} (erase and decode)"
        )
    if not correctable_erasure(code, err):
        raise UncorrectableErasureError(
            f"shares {tuple(err)} carry undetectable damage for this code"
        )
    p, n = code.p, code.n
    arr = state.tensor()
    for j in err:
        outcome, arr = _measure_computational(arr, j - 1, rng)
        if outcome:
            arr = np.roll(arr, -outcome, axis=j - 1)
    measured = []
    for i in range(code.num_checks):
        tau, arr = measure_pauli(arr, code.generator(i), rng)
        measured.append(tau)
    deltas = []
    for got, want in zip(measured, syndrome):
        diff = (got - want) % (2 * p)
        if diff % 2:
            raise RuntimeError("measured syndrome has incompatible phase parity")
        deltas.append((diff // 2) % p)
    h = code.check_matrix
    err0 = [j - 1 for j in err]
    # Unknowns: x then z components on the erased shares.  The correction Q
    # must satisfy <f(Q), h_i>_s = -delta_i for every generator row h_i.
    sys_rows = np.concatenate([h[:, [n + j for j in err0]], (-h[:, err0]) % p], axis=1)
    rhs = np.array([(-d) % p for d in deltas], dtype=np.int64)
    u = gfp.solve(sys_rows, rhs, p)
    if u is None:
        raise RuntimeError("no correction supported on the erased shares solves the syndrome")
    full = np.zeros(2 * n, dtype=np.int64)
    for idx, j in enumerate(err0):
        full[j] = u[idx]
        full[n + j] = u[len(err0) + idx]
    correction = f_inv(SymplecticVector.from_vec(full, p))
    arr = _apply_pauli_tensor(arr, correction)
    for i in range(code.num_checks):
        tau = _eigenvalue_exponent(arr, code.generator(i))
        if tau != syndrome[i]:
            raise RuntimeError("correction failed to restore the recorded eigenspace")
    return DecodeResult(
        state=QuditState(p, n, arr.reshape(-1)),
        measured_syndrome=tuple(measured),
        correction=full,
    )


# ---------------------------------------------------------------------------
# access structure


def classify_access(code: StabilizerCode, accessible: Iterable[int]) -> AccessLabel:
    """Label a share set: reconstructs the secret, learns nothing, or ramp.

    Qualified iff erasing the complement is correctable; forbidden iff the
    set itself could be erased (its complement reconstructs, so by purity
    the set holds nothing); intermediate otherwise.
    """
    return code.share_structure().labels([share_mask(accessible, code.n)])[0]


def entropic_audit(
    code: StabilizerCode,
    shares: Iterable[int],
    accessible: Iterable[int],
    plan: EAQECCPlan | None = None,
    circuit: CliffordCircuit | None = None,
    budget: int = DEFAULT_STATE_BUDGET,
) -> float:
    """Mutual information I(R : A) between reference and a share set.

    The secret is maximally entangled with a k-qudit reference R before
    encoding; the returned value is S(R) + S(A) - S(RA) in units of log p.
    2k means A reconstructs perfectly, 0 means A holds nothing.
    """
    js = tuple(sorted(set(int(j) for j in shares)))
    if plan is None:
        plan = construct_eaqecc(code, js)
    if circuit is None:
        circuit = encoding_circuit(plan)
    state, _ = encode_with_reference(code, js, plan, circuit, budget=budget)
    k = code.k
    acc_axes = [k + int(j) - 1 for j in accessible]
    ref_axes = list(range(k))
    rho_r = reduced_density(state, ref_axes)
    rho_a = reduced_density(state, acc_axes)
    rho_ra = reduced_density(state, ref_axes + acc_axes)
    return entropy(rho_r, code.p) + entropy(rho_a, code.p) - entropy(rho_ra, code.p)


def mutual_information_table(
    code: StabilizerCode,
    shares: Iterable[int],
    subsets: Sequence[tuple[int, ...]],
    plan: EAQECCPlan | None = None,
    circuit: CliffordCircuit | None = None,
    budget: int = DEFAULT_STATE_BUDGET,
) -> dict[tuple[int, ...], float]:
    """I(R : A) for many share sets from a single reference encoding."""
    js = tuple(sorted(set(int(j) for j in shares)))
    if plan is None:
        plan = construct_eaqecc(code, js)
    if circuit is None:
        circuit = encoding_circuit(plan)
    state, _ = encode_with_reference(code, js, plan, circuit, budget=budget)
    k = code.k
    ref_axes = list(range(k))
    s_r = entropy(reduced_density(state, ref_axes), code.p)
    table: dict[tuple[int, ...], float] = {}
    for subset in subsets:
        acc_axes = [k + int(j) - 1 for j in subset]
        s_a = entropy(reduced_density(state, acc_axes), code.p)
        s_ra = entropy(reduced_density(state, ref_axes + acc_axes), code.p)
        table[tuple(sorted(int(j) for j in subset))] = s_r + s_a - s_ra
    return table


def reconstruct(
    state: QuditState,
    code: StabilizerCode,
    syndrome: tuple[int, ...],
    plan: EAQECCPlan,
    circuit: CliffordCircuit,
    accessible: Iterable[int],
    rng: np.random.Generator,
    budget: int = DEFAULT_STATE_BUDGET,
) -> QuditState:
    """Recover the secret from a qualified share set.

    Checks the plan and circuit against the code, erases the complement,
    decodes back to the recorded eigenspace, undoes the encoding circuit,
    and returns the secret register (which must come out pure and
    disentangled).
    """
    _check_plan_matches(code, plan.shares, plan, circuit)
    acc = set(int(j) for j in accessible)
    erased = [j for j in range(1, code.n + 1) if j not in acc]
    decoded = erase_and_decode(state, code, syndrome, erased, rng, budget=budget)
    rho = _secret_density(decoded.state, plan, circuit.inverse())
    eigvals, eigvecs = np.linalg.eigh(rho)
    top = float(eigvals[-1])
    if top < 1 - 1e-6:
        raise RuntimeError(f"secret register not pure after decoding (purity {top:.6f})")
    return QuditState(code.p, code.k, eigvecs[:, -1])


def _secret_density(
    decoded: QuditState, plan: EAQECCPlan, inverse: CliffordCircuit
) -> np.ndarray:
    """Undo the encoding of a decoded state; density of the secret register."""
    arr = apply_circuit_tensor(
        decoded.tensor(), inverse, axes=[s - 1 for s in plan.complement]
    )
    return reduced_density(
        QuditState(decoded.p, decoded.m, arr.reshape(-1)),
        [s - 1 for s in plan.secret_shares],
    )


# ---------------------------------------------------------------------------
# protocol transcripts


@dataclass(frozen=True)
class TrialRecord:
    accessible: tuple[int, ...]
    erased: tuple[int, ...]
    measured_syndrome: tuple[int, ...]
    correction: tuple[int, ...]
    fidelity: float


@dataclass(frozen=True)
class ProtocolTranscript:
    p: int
    n: int
    k: int
    shares: tuple[int, ...]
    seed: int
    syndrome: tuple[int, ...]
    trials: tuple[TrialRecord, ...]


def simulate_protocol(
    code: StabilizerCode,
    shares: Iterable[int],
    plan: EAQECCPlan,
    circuit: CliffordCircuit,
    seed: int,
    trials: int,
    accessible_sets: Sequence[tuple[int, ...]],
    budget: int = DEFAULT_STATE_BUDGET,
) -> ProtocolTranscript:
    """Run encode / erase / decode / reconstruct over the given sets.

    Each accessible set gets ``trials`` independent random secrets; every
    draw comes from one seeded generator, so transcripts rerun bit-exactly.
    The plan and circuit are checked, and the circuit inverted, once per run.
    """
    js = _share_tuple(shares)
    _check_plan_matches(code, js, plan, circuit)
    inverse = circuit.inverse()
    rng = np.random.default_rng(seed)
    records: list[TrialRecord] = []
    reference_syndrome: tuple[int, ...] | None = None
    for acc in accessible_sets:
        for _ in range(trials):
            secret = random_state(code.p, code.k, rng)
            shared, syndrome = _encode_advance(code, plan, circuit, secret, budget)
            if reference_syndrome is None:
                reference_syndrome = syndrome
            erased = tuple(j for j in range(1, code.n + 1) if j not in set(acc))
            decoded = erase_and_decode(shared, code, syndrome, erased, rng, budget=budget)
            rho = _secret_density(decoded.state, plan, inverse)
            fid = float(np.real(secret.amplitudes.conj() @ rho @ secret.amplitudes))
            records.append(
                TrialRecord(
                    accessible=tuple(sorted(acc)),
                    erased=erased,
                    measured_syndrome=decoded.measured_syndrome,
                    correction=tuple(int(v) for v in decoded.correction),
                    fidelity=fid,
                )
            )
    if reference_syndrome is None:
        secret = random_state(code.p, code.k, rng)
        _, reference_syndrome = _encode_advance(code, plan, circuit, secret, budget)
    return ProtocolTranscript(
        p=code.p,
        n=code.n,
        k=code.k,
        shares=js,
        seed=seed,
        syndrome=reference_syndrome,
        trials=tuple(records),
    )
