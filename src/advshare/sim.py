"""Dense qudit state-vector simulation of the advance-sharing protocol.

States live on m qudits of dimension p as complex vectors of length p**m,
tensor axis q holding qudit q (share s occupies axis s-1 on n-share
states).  The (p**m, rest) register layout that kernels act on lives in
:mod:`advshare.clifford`.  Share sets are read by
:func:`advshare.symplectic.validated_shares`: a share outside 1..n raises.
Everything here is exact linear algebra at desk scale; budgets refuse
rather than approximate.

The protocol pipeline:

1. :func:`encode_advance` prepares the pre-shareable state: one maximally
   entangled pair per advance share (its partner wire sits in the
   complement), |0> ancillas, and the secret on the remaining wires.  The
   encoding circuit then rotates the complement wires into the code frame,
   leaving an exact joint eigenstate of every check generator; the observed
   eigenvalues are recorded as the syndrome reference.  The encoding is
   fixed before the secret exists, so every secret is a column of one
   encoding isometry V (p**n x p**k).  One builder encodes the columns of
   a secret matrix with one circuit call, the column index riding along
   as a trailing axis, and checks every column's eigenvalues in one batch:
   one secret is its one-column call, V its identity-matrix call.
   :func:`simulate_protocol` builds V once per run and encodes each block
   of trials' secrets with one matmul; when p**(n+k) exceeds the state
   budget it encodes each block with one circuit call instead.
2. :func:`erase_and_decode` models share loss by measuring the lost qudits
   and resetting them to |0>, measures every generator projectively, solves
   an F_p linear system for a correction supported on the lost shares, and
   applies it, returning to the recorded eigenspace.  A Pauli is monomial,
   so :func:`compile_paulis` turns each generator into one gather index and
   one exact phase vector per power t = 1..p-1, once per protocol run and
   only after the state is known to fit the budget.
   Measuring a generator is one gather that stacks its p powers
   and one p x p matmul with the projector coefficients lambda**-t / p;
   every eigenvalue check (after encoding, after correction) is one batched
   gather over all generators.  One block decoder does this for the
   (p**n, b) columns of b trials at once, and :func:`erase_and_decode` is
   its one-column call.  :func:`simulate_protocol` checks every erased set
   with one rank query per set size (the access table's kept levels answer
   it by row index) and eliminates each distinct set once, into a plain
   (2n x r) array that maps syndrome shifts to the correction
   :func:`gfp.solve` would return; a block stacks its columns' maps and
   applies them with one product.  It draws each trial's randomness in a
   fixed order: the secret, then one uniform per erased qudit (ascending)
   and one per generator.  An outcome is count(cdf <= u) over the
   normalised cumulative Born weights, which is how ``Generator.choice``
   spends one ``random()`` draw.  Blocks are max(1, budget // p**n) columns wide, so no block
   exceeds the state budget.
3. :func:`reconstruct` undoes the encoding and extracts the secret register.
   :func:`simulate_protocol` needs no inverse circuit: a decoded state lies
   in the recorded eigenspace, which is the image of V, so its fidelity is
   its overlap with the encoded state, |<V secret|psi>|**2.

:func:`encode_with_reference` is the Choi state, the secret wires
maximally entangled with a k-qudit reference R: V transposed and scaled by
p**(-k/2).  :func:`entropic_audit` is one row of
:func:`mutual_information_table`, I(R : A) from that encoding.  Every oracle
here runs the plan and circuit its caller gives it; none plans or synthesizes.
A plan is its code and share set, so an oracle takes neither beside it and
checks only that the circuit carries the plan's targets onto its sources.

Eigenvalues of generators are exact roots of unity written zeta**tau with
zeta = exp(i*pi/p); tau is even (a plain w power) unless p = 2 and a
generator has odd x.z overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import gfp
from .access import AccessLabel
from .advance import EAQECCPlan
from .clifford import (
    CliffordCircuit,
    _conjugate_runs,
    _place_digits,
    _register,
    _unregister,
    apply_circuit_tensor,
)
from .errors import BudgetExceededError, InvariantError, UncorrectableErasureError
from .gfp import DEFAULT_STATE_BUDGET
from .pauli import (
    PauliOperator,
    StabilizerCode,
    f_map,
    half_turn_parity,
    omega,
    zeta,
)
from .symplectic import complement, orthogonality_rows, owned_columns, validated_shares

NORM_TOL = 1e-10
EIGEN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class QuditState:
    """A pure state of m qudits of dimension p, unit norm; compare by :func:`fidelity`."""

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
        if not abs(norm - 1.0) <= 1e-8:  # a NaN norm fails this test too
            raise ValueError(f"state norm {norm} is not 1")
        object.__setattr__(self, "amplitudes", amp / norm)

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((self.p,) * self.m)


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


# ---------------------------------------------------------------------------
# Pauli kernels


@dataclass(frozen=True)
class PauliKernels:
    """Gather-and-phase form of the powers of r Paulis on the p**n register.

    ``(P_i**t v)[j] = phases[i, t-1, j] * v[src[i, t-1, j]]`` for
    t = 1..p-1; the identity power t = 0 is not stored.  The register index
    is sum_q d_q p**(n-1-q), qudit 0 the most significant digit.  Each
    phase is looked up from an exact integer w-exponent mod p.  P_i's
    eigenvalues are lambda_ij = zeta**taus[i, j], and
    ``branch[i, j, t] = lambda_ij**-t / p`` are the exact coefficients of
    the projector onto lambda_ij in the powers of P_i.  The table holds
    r * (p-1) * p**n entries of 20 bytes (int32 index, complex phase).
    """

    p: int
    src: np.ndarray = field(repr=False)
    phases: np.ndarray = field(repr=False)
    taus: np.ndarray = field(repr=False)
    branch: np.ndarray = field(repr=False)


def compile_paulis(p: int, n: int, ops: Sequence[PauliOperator]) -> PauliKernels:
    """Compile the powers t = 1..p-1 of each Pauli on the p**n register.

    P|d> = w**(phase + z.d) |d + x>, so (P v)[j] = w**e[j] v[s[j]] with
    digits(s[j]) = digits(j) - x and e[j] = phase + z.(digits(j) - x).
    P**t = P P**(t-1) composes the gathers step by step and adds the integer
    exponents mod p; no float phase is rounded along the way.  Digits are
    int8 and each power is written straight into the table, so compiling
    needs little beyond the table itself.
    """
    r = len(ops)
    place, digits = _place_digits(p, n)
    roots = omega(p) ** np.arange(p)
    src = np.empty((r, p - 1, p**n), dtype=np.int32)
    phases = np.empty((r, p - 1, p**n), dtype=complex)
    shifts = np.array([op.x for op in ops], dtype=np.int8).reshape(r, n, 1)
    weights = np.empty((r, 2, n), dtype=np.int64)
    weights[:, 0] = place
    weights[:, 1] = np.reshape([op.z for op in ops], (r, n))
    shifted = np.empty_like(digits)
    for i, op in enumerate(ops):
        np.subtract(digits, shifts[i], out=shifted)
        shifted %= p
        # einsum widens the int8 digits to int32 one buffer at a time, never
        # as a whole (n, p**n) copy the way a matmul would.
        step_src, step_exp = np.einsum(
            "aq,qj->aj", weights[i], shifted, dtype=np.int32, casting="same_kind"
        )
        step_exp = (step_exp + op.phase) % p
        power_src, power_exp = step_src, step_exp
        for t in range(p - 1):
            if t:
                power_src = power_src[step_src]
                power_exp = (step_exp + power_exp[step_src]) % p
            src[i, t] = power_src
            np.take(roots, power_exp, out=phases[i, t])
    parity = np.array([half_turn_parity(op) for op in ops], dtype=np.int64)
    taus = (2 * np.arange(p)[None, :] + parity[:, None]) % (2 * p)
    turns = (-taus[:, :, None] * np.arange(p)) % (2 * p)
    branch = (zeta(p) ** np.arange(2 * p))[turns] / p
    return PauliKernels(p, src, phases, taus, branch)


def apply_pauli(state: QuditState, op: PauliOperator) -> QuditState:
    if op.p != state.p or op.n != state.m:
        raise ValueError("operator and state must share p and qudit count")
    xz = f_map(op)[:, None]
    flat = _apply_corrections(state.amplitudes[:, None], xz, op.p)
    return QuditState(state.p, state.m, flat[:, 0] * omega(op.p) ** op.phase)


def apply_circuit(state: QuditState, circuit: CliffordCircuit) -> QuditState:
    """Apply a circuit, wire w on qudit w."""
    arr = apply_circuit_tensor(state.tensor(), circuit)
    return QuditState(state.p, state.m, arr.reshape(-1))


def reduced_density(state: QuditState, keep: Sequence[int]) -> np.ndarray:
    """Density matrix of the listed axes (0-based), tracing out the rest."""
    mat = _register(state.tensor(), state.p, len(keep), keep)
    return mat @ mat.conj().T


def entropy(rho: np.ndarray, p: int) -> float:
    """Von Neumann entropy in units of log p."""
    eigs = np.linalg.eigvalsh(rho)
    eigs = np.clip(eigs.real, 0.0, None)
    eigs = eigs[eigs > 1e-14]
    return float(-(eigs * np.log(eigs)).sum() / np.log(p))


# ---------------------------------------------------------------------------
# eigenvalue bookkeeping


def _exponents(flat: np.ndarray, kernels: PauliKernels) -> np.ndarray:
    """tau_ic with P_i|psi_c> = zeta**tau_ic |psi_c>, for every compiled Pauli
    and every unit column of the (p**n, b) matrix ``flat``.

    All P_i|psi_c> come from one batched gather and all
    lambda_ic = <psi_c|P_i|psi_c> from one product.  The first failing
    column, generators in order, raises the first of the three checks it
    fails.
    """
    p = kernels.p
    moved = flat[kernels.src[:, 0]] * kernels.phases[:, 0, :, None]
    lams = np.einsum("ijc,jc->ic", moved, flat.conj())
    residuals = np.linalg.norm(moved - lams[:, None, :] * flat, axis=1)
    taus = np.rint(np.angle(lams) / (np.pi / p)).astype(np.int64) % (2 * p)
    off = np.abs(np.abs(lams) - 1.0) > EIGEN_TOL
    loose = residuals > 1e-7
    skew = np.abs(zeta(p) ** taus - lams) > 1e-6
    failed = np.argwhere((off | loose | skew).T)
    if failed.size:
        c, i = failed[0]
        lam = complex(lams[i, c])
        if off[i, c]:
            raise InvariantError(f"state is not an eigenvector (|<G>| = {abs(lam):.3g})")
        if loose[i, c]:
            raise InvariantError("state is not an eigenvector of the generator")
        raise InvariantError(f"eigenvalue {lam} is not a 2p-th root of unity")
    return taus


def _pick(weights: np.ndarray, uniforms: np.ndarray | float, step: str) -> np.ndarray:
    """Born-rule outcomes along the last axis of ``weights``, one uniform each.

    The outcome is ``count(cdf <= u)`` with the normalised cumulative
    weights: exactly how ``Generator.choice(p, p=w)`` spends its one
    ``random()`` draw, so a zero-weight outcome is never picked.  Weights
    that sum to 0 or are not finite raise, naming the step.
    """
    totals = weights.sum(axis=-1, keepdims=True)
    bad = ~(np.isfinite(totals) & (totals > 0))
    if bad.any():
        raise InvariantError(f"{step} outcome weights sum to {totals[bad][0]}")
    cdf = np.cumsum(weights / totals, axis=-1)
    cdf /= cdf[..., -1:]
    return (cdf <= np.asarray(uniforms)[..., None]).sum(axis=-1)


def _branches(flat: np.ndarray, kernels: PauliKernels, i: int) -> np.ndarray:
    """The p eigen-branches of P_i on a (p**n, rest) register matrix.

    The projector onto lambda_j = zeta**tau_j is sum_t lambda_j**-t P_i**t / p:
    one gather stacks the p powers and one p x p matmul with exact
    coefficients gives every branch, shape (p, p**n, rest).
    """
    p = kernels.p
    stacked = np.concatenate([flat[None], flat[kernels.src[i]] * kernels.phases[i][:, :, None]])
    return (kernels.branch[i] @ stacked.reshape(p, -1)).reshape((p,) + flat.shape)


def measure_pauli(
    arr: np.ndarray,
    op: PauliOperator,
    rng: np.random.Generator,
    axes: Sequence[int] | None = None,
) -> tuple[int, np.ndarray]:
    """Projective measurement of a Pauli's eigenvalue on a state tensor.

    Returns ``(tau, collapsed)`` with the realized eigenvalue zeta**tau.
    Born weights are the squared branch norms, summed over the rest axes;
    one ``rng.random()`` picks.
    """
    arr = np.asarray(arr, dtype=complex)
    kernels = compile_paulis(op.p, op.n, [op])
    branches = _branches(_register(arr, op.p, op.n, axes), kernels, 0)
    rows = branches.reshape(op.p, -1)
    weights = np.einsum("tj,tj->t", rows.conj(), rows).real
    pick = int(_pick(weights, rng.random(), "generator measurement"))
    flat = branches[pick] / np.sqrt(weights[pick])
    return int(kernels.taus[0, pick]), _unregister(flat, arr, op.n, axes)


# ---------------------------------------------------------------------------
# encoding


def _check_plan_matches(plan: EAQECCPlan, circuit: CliffordCircuit) -> None:
    if circuit.p != plan.p or circuit.m != plan.n - plan.c:
        raise ValueError("circuit shape does not match the plan")
    images = [(a.x.tolist(), a.z.tolist()) for a in plan.target_generators]
    _conjugate_runs(circuit.runs, images, circuit.p)
    for (x, z), src in zip(images, plan.source_generators):
        if x != src.x.tolist() or z != src.z.tolist():
            raise ValueError("circuit does not map the preparation frame to the code frame")


def _check_secret(code: StabilizerCode, secret: QuditState) -> None:
    if secret.p != code.p or secret.m != code.k:
        raise ValueError(f"secret must be {code.k} qudits of dimension {code.p}")
    if not code.k and not np.allclose(secret.amplitudes, [1.0]):
        raise ValueError("k = 0 code admits only the trivial secret")


def _check_state_fits(p: int, n: int, width: int, budget: int) -> None:
    """Refuse ``width`` columns of p**n amplitudes over the state budget;
    callers check before compiling the generators, whose tables grow with p**n."""
    if p**n * width > budget:
        columns = "" if width == 1 else f" x {width}"
        raise BudgetExceededError(f"state size {p}**{n}{columns} exceeds budget {budget}")


def _encode(
    plan: EAQECCPlan,
    circuit: CliffordCircuit,
    secrets: np.ndarray,
    kernels: PauliKernels,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Encode each column of a (p**k, b) secret matrix with one circuit call.

    The easy state holds a maximally entangled pair per advance share, |0>
    on each zero share and the secret on the secret shares; the column
    index rides along as a trailing axis.  Returns the (p**n, b) encoded
    columns and their syndrome: every column must be an eigenstate of every
    generator, all with the same eigenvalues.  The caller has checked the
    circuit against the plan and the b columns against the budget with
    :func:`_check_state_fits`, before compiling ``kernels``.
    """
    p, n, k = plan.p, plan.n, plan.k
    width = secrets.shape[1]
    # einsum's integer labels: share s is label s, the column index label 0.
    pair, ket0 = make_epr(p).tensor(), np.eye(p)[0]
    operands: list = []
    for j, partner in plan.epr_pairs:
        operands += [pair, [j, partner]]
    for z_share in plan.zero_shares:
        operands += [ket0, [z_share]]
    operands += [secrets.reshape((p,) * k + (width,)), [*plan.secret_shares, 0]]
    easy = np.einsum(*operands, [*range(1, n + 1), 0])
    arr = apply_circuit_tensor(easy, circuit, axes=[s - 1 for s in plan.complement])
    flat = arr.reshape(p**n, width)
    taus = _exponents(flat, kernels)
    if (taus != taus[:, :1]).any():
        raise InvariantError("encoded columns do not share one syndrome")
    return flat, tuple(int(t) for t in taus[:, 0])


def encode_advance(
    plan: EAQECCPlan,
    circuit: CliffordCircuit,
    secret: QuditState,
    budget: int = DEFAULT_STATE_BUDGET,
) -> tuple[QuditState, tuple[int, ...]]:
    """Encode a k-qudit secret into the plan's n shares, J pairs pre-distributed.

    Returns the shared state (share s on axis s-1) and the recorded
    eigenvalue exponents of the check generators (the syndrome reference
    for later decoding).  The output is an exact joint eigenstate; each
    advance share alone is maximally mixed.
    """
    _check_plan_matches(plan, circuit)
    _check_secret(plan.code, secret)
    _check_state_fits(plan.p, plan.n, 1, budget)
    kernels = compile_paulis(plan.p, plan.n, plan.code.generators())
    flat, syndrome = _encode(plan, circuit, secret.amplitudes[:, None], kernels)
    return QuditState(plan.p, plan.n, flat[:, 0]), syndrome


def encode_with_reference(
    plan: EAQECCPlan,
    circuit: CliffordCircuit,
    budget: int = DEFAULT_STATE_BUDGET,
) -> tuple[QuditState, tuple[int, ...]]:
    """Encode half of a maximally entangled secret, keeping the reference.

    The output has k reference qudits on axes 0..k-1, then the n shares.
    Entropies of reference-vs-share subsystems quantify exactly how much
    secret information a share set holds.  This Choi state is
    sum_s |s> V|s> / sqrt(p**k), the encoding isometry V transposed.
    """
    _check_plan_matches(plan, circuit)
    _check_state_fits(plan.p, plan.n, plan.p**plan.k, budget)
    kernels = compile_paulis(plan.p, plan.n, plan.code.generators())
    v, syndrome = _encoding_isometry(plan, circuit, kernels)
    choi = v.T.reshape(-1) / np.sqrt(v.shape[1])
    return QuditState(plan.p, plan.k + plan.n, choi), syndrome


def _encoding_isometry(
    plan: EAQECCPlan,
    circuit: CliffordCircuit,
    kernels: PauliKernels,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """The encoding isometry V (p**n x p**k) and the syndrome of its image.

    Column s is V|s>: one circuit call encodes every basis secret and one
    eigenvalue check covers every column.
    """
    eye = np.eye(plan.p**plan.k, dtype=complex)
    v, syndrome = _encode(plan, circuit, eye, kernels)
    if np.abs(v.conj().T @ v - eye).max() > NORM_TOL:
        raise InvariantError("encoding is not an isometry (V^dagger V != I)")
    return v, syndrome


# ---------------------------------------------------------------------------
# erasure decoding


def correctable_erasure(code: StabilizerCode, erased: Iterable[int]) -> bool:
    """Whether losing the given shares is algebraically recoverable.

    True iff every dual vector supported on the erased shares already lies
    in the check row space (no undetectable damage fits in the hole); the
    code's cached share structure compares the two dimensions.
    """
    structure = code.share_structure()
    return bool(structure.correctable(*structure.pair([validated_shares(erased, code.n)]))[0])


@dataclass(frozen=True, eq=False)
class DecodeResult:
    state: QuditState
    measured_syndrome: tuple[int, ...]
    correction: np.ndarray = field(repr=False)


def _symplectic_rows(code: StabilizerCode) -> np.ndarray:
    """[h_z | -h_x]: the row i times an (x | z) vector is <f(Q), h_i>_s."""
    return (-orthogonality_rows(code.check_matrix, code.p)) % code.p


def _erasures(
    code: StabilizerCode, sets: Sequence[tuple[int, ...]]
) -> dict[tuple[int, ...], np.ndarray]:
    """The correction map of each distinct erased set (validated share tuples).

    A correction Q on the erased shares must satisfy
    <f(Q), h_i>_s = -delta_i for every generator row h_i.  A set's map
    (2n x r) takes the right-hand sides to the (x | z) vector of the
    particular solution :func:`gfp.solve` returns; its rows off the erased
    shares are 0.  One share-structure query per set size checks that every
    set is correctable before any elimination, and the first failing set in
    input order is named; then one :func:`gfp.solution_maps` call per set
    size eliminates every set of that size.
    """
    distinct = list(dict.fromkeys(sets))
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for err in distinct:
        by_size.setdefault(len(err), []).append(err)
    structure = code.share_structure()
    ok: dict[tuple[int, ...], bool] = {}
    for group in by_size.values():
        ok.update(zip(group, structure.correctable(*structure.pair(group)).tolist()))
    for err in distinct:
        if not ok[err]:
            raise UncorrectableErasureError(
                f"shares {err} carry undetectable damage for this code"
            )
    n, rows = code.n, _symplectic_rows(code)
    out = {}
    for group in by_size.values():
        # Row g: the x slots of set g's erased qudits, then their z slots.
        slots = owned_columns(group, n)
        maps = gfp.solution_maps(rows[:, slots].transpose(1, 0, 2), code.p)
        for err, slot, solver in zip(group, slots, maps):
            out[err] = np.zeros((2 * n, rows.shape[0]), dtype=np.int64)
            out[err][slot] = solver
    return out


def _apply_corrections(flat: np.ndarray, corrections: np.ndarray, p: int) -> np.ndarray:
    """Column c of ``flat`` times X(x_c) Z(z_c), (x_c | z_c) column c of
    ``corrections``: one gather index and one exact phase vector for all."""
    n = corrections.shape[0] // 2
    place, digits = _place_digits(p, n)
    shifted = (digits[:, :, None] - corrections[:n, None, :]) % p
    src = np.tensordot(place, shifted, axes=1)
    exps = np.einsum("qc,qjc->jc", corrections[n:], shifted) % p
    return flat[src, np.arange(flat.shape[1])] * (omega(p) ** np.arange(p))[exps]


def _decode_block(
    code: StabilizerCode,
    flat: np.ndarray,
    syndrome: tuple[int, ...],
    erased: Sequence[tuple[int, ...]],
    maps: np.ndarray,
    uniforms: Sequence[np.ndarray],
    kernels: PauliKernels,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Erase, measure and correct the (p**n, b) columns of b trials at once.

    Column c loses the shares ``erased[c]``, corrects by the map
    ``maps[c]`` from :func:`_erasures` and spends ``uniforms[c]``:
    one uniform per erased qudit in ascending order, then one per
    generator, each picking an outcome by :func:`_pick`.  Per qudit, one
    einsum weighs every column that loses it and one slice assignment
    resets it to |0>; per generator, one gather and one p x p matmul give
    every column's branches.  Returns the decoded columns, the (r, b)
    measured exponents and the (2n, b) corrections; ``flat`` is not
    modified.
    """
    p, n, r = code.p, code.n, code.num_checks
    b = flat.shape[1]
    every = np.arange(b)
    lost = np.zeros((n, b), dtype=bool)
    erase_u, measure_u = np.zeros((n, b)), np.empty((r, b))
    for c, (shares, u) in enumerate(zip(erased, uniforms)):
        qudits = [j - 1 for j in shares]
        lost[qudits, c] = True
        erase_u[qudits, c] = u[: len(qudits)]
        measure_u[:, c] = u[len(qudits) :]
    flat = flat.copy()
    for q in range(n):
        cols = np.flatnonzero(lost[q])
        if not cols.size:
            continue
        view = flat.reshape(p**q, p, -1, b)
        hit = view[..., cols]
        weights = np.einsum("aibc,aibc->ci", hit.conj(), hit).real
        outcome = _pick(weights, erase_u[q, cols], "erasure")
        kept = hit[:, outcome, :, np.arange(cols.size)]
        hit[:] = 0
        hit[:, 0] = np.moveaxis(kept, 0, -1) / np.sqrt(weights[np.arange(cols.size), outcome])
        view[..., cols] = hit
    measured = np.empty((r, b), dtype=np.int64)
    for i in range(r):
        branches = _branches(flat, kernels, i)
        weights = np.einsum("tjc,tjc->ct", branches.conj(), branches).real
        pick = _pick(weights, measure_u[i], "generator measurement")
        measured[i] = kernels.taus[i, pick]
        flat = branches[pick, :, every].T / np.sqrt(weights[every, pick])
    want = np.array(syndrome, dtype=np.int64).reshape(r, 1)
    diff = (measured - want) % (2 * p)
    if (diff % 2).any():
        raise InvariantError("measured syndrome has incompatible phase parity")
    rhs = (-(diff // 2)) % p
    corrections = np.einsum("cqr,rc->qc", maps, rhs) % p
    if ((_symplectic_rows(code) @ corrections - rhs) % p).any():
        raise InvariantError("no correction supported on the erased shares solves the syndrome")
    flat = _apply_corrections(flat, corrections, p)
    if (_exponents(flat, kernels) != want).any():
        raise InvariantError("correction failed to restore the recorded eigenspace")
    return flat, measured, corrections


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
    This is the one-column call of the block decoder; it draws its
    ``e + r`` uniforms up front.

    Raises :class:`UncorrectableErasureError` when the erased set fails the
    algebraic criterion.
    """
    err = validated_shares(erased, code.n)
    if state.p != code.p or state.m != code.n:
        raise ValueError("state does not match the code")
    if code.p**code.n > budget:
        raise BudgetExceededError(
            f"state size {code.p}**{code.n} exceeds budget {budget} (erase and decode)"
        )
    maps = _erasures(code, [err])[err][None]
    uniforms = rng.random(len(err) + code.num_checks)
    kernels = compile_paulis(code.p, code.n, code.generators())
    flat, measured, corrections = _decode_block(
        code, state.amplitudes[:, None], syndrome, [err], maps, [uniforms], kernels
    )
    return DecodeResult(
        state=QuditState(code.p, code.n, flat[:, 0]),
        measured_syndrome=tuple(int(t) for t in measured[:, 0]),
        correction=corrections[:, 0],
    )


# ---------------------------------------------------------------------------
# access structure


def classify_access(code: StabilizerCode, accessible: Iterable[int]) -> AccessLabel:
    """Label a share set: reconstructs the secret, learns nothing, or ramp.

    Qualified iff erasing the complement is correctable; forbidden iff the
    set itself could be erased (its complement reconstructs, so by purity
    the set holds nothing); intermediate otherwise.
    """
    structure = code.share_structure()
    return structure.labels(*structure.pair([validated_shares(accessible, code.n)]))[0]


def entropic_audit(
    plan: EAQECCPlan,
    circuit: CliffordCircuit,
    accessible: Iterable[int],
    budget: int = DEFAULT_STATE_BUDGET,
) -> float:
    """Mutual information I(R : A) between reference and a share set.

    The secret is maximally entangled with a k-qudit reference R before
    encoding; the returned value is S(R) + S(A) - S(RA) in units of log p.
    2k means A reconstructs perfectly, 0 means A holds nothing.  This is
    the one-row :func:`mutual_information_table` of the given encoding.
    """
    acc = validated_shares(accessible, plan.n)
    return mutual_information_table(plan, circuit, [acc], budget)[acc]


def mutual_information_table(
    plan: EAQECCPlan,
    circuit: CliffordCircuit,
    subsets: Sequence[Iterable[int]],
    budget: int = DEFAULT_STATE_BUDGET,
) -> dict[tuple[int, ...], float]:
    """I(R : A) for many share sets from a single reference encoding.

    The encoding is the caller's plan and circuit, which
    :func:`encode_with_reference` checks.  Keys are the sorted distinct
    shares of each subset.
    """
    p, k = plan.p, plan.k
    accs = [validated_shares(subset, plan.n) for subset in subsets]
    state, _ = encode_with_reference(plan, circuit, budget=budget)
    ref_axes = list(range(k))
    s_r = entropy(reduced_density(state, ref_axes), p)
    table: dict[tuple[int, ...], float] = {}
    for acc in accs:
        acc_axes = [k + j - 1 for j in acc]
        s_a = entropy(reduced_density(state, acc_axes), p)
        s_ra = entropy(reduced_density(state, ref_axes + acc_axes), p)
        table[acc] = s_r + s_a - s_ra
    return table


def reconstruct(
    state: QuditState,
    syndrome: tuple[int, ...],
    plan: EAQECCPlan,
    circuit: CliffordCircuit,
    accessible: Iterable[int],
    rng: np.random.Generator,
    budget: int = DEFAULT_STATE_BUDGET,
) -> QuditState:
    """Recover the secret from a qualified share set.

    Checks the circuit against the plan, erases the complement, decodes
    back to the recorded eigenspace, undoes the encoding circuit, and
    returns the secret register (which must come out pure and
    disentangled).
    """
    code = plan.code
    _check_plan_matches(plan, circuit)
    acc = validated_shares(accessible, code.n)
    erased = complement(acc, code.n)
    decoded = erase_and_decode(state, code, syndrome, erased, rng, budget=budget)
    rho = _secret_density(decoded.state, plan, circuit.inverse())
    eigvals, eigvecs = np.linalg.eigh(rho)
    top = float(eigvals[-1])
    if top < 1 - 1e-6:
        raise InvariantError(f"secret register not pure after decoding (purity {top:.6f})")
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
    syndrome: tuple[int, ...]
    trials: tuple[TrialRecord, ...]


def simulate_protocol(
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
    The circuit is checked, one rank query per set size checks
    every erased set, and one p**n column is checked against the budget;
    only then are the generators compiled, once per run, before any draw.
    Each trial draws its secret, then ``e + r`` uniforms for its
    decoder.  Trials run in blocks of ``max(1, budget // p**n)`` columns: a
    block is encoded as ``V @ secrets`` when the isometry V (p**(n+k)) fits
    the budget, else by one circuit call, and decoded by one block-decoder
    call.  The fidelity of a decoded column is its overlap with the encoded
    column.
    """
    code = plan.code
    _check_plan_matches(plan, circuit)
    p, n, k = code.p, code.n, code.k
    runs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for acc in accessible_sets:
        acc = validated_shares(acc, n)
        runs += [(acc, complement(acc, n))] * trials
    erasures = _erasures(code, [erased for _, erased in runs])
    # One column must fit; blocks of max(1, budget // p**n) then fit too.
    _check_state_fits(p, n, 1, budget)
    kernels = compile_paulis(p, n, code.generators())
    isometry = None
    if p ** (n + k) <= budget:
        isometry, image_syndrome = _encoding_isometry(plan, circuit, kernels)

    def encode(secrets: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        if isometry is not None:
            return isometry @ secrets, image_syndrome
        return _encode(plan, circuit, secrets, kernels)

    rng = np.random.default_rng(seed)

    def draw_secret() -> np.ndarray:
        secret = random_state(p, k, rng)
        _check_secret(code, secret)
        return secret.amplitudes

    width = max(1, budget // p**n)
    records: list[TrialRecord] = []
    reference_syndrome: tuple[int, ...] | None = None
    for start in range(0, len(runs), width):
        block = runs[start : start + width]
        lost = [erased for _, erased in block]
        secrets, uniforms = [], []
        for erased in lost:
            secrets.append(draw_secret())
            uniforms.append(rng.random(len(erased) + code.num_checks))
        encoded, syndrome = encode(np.stack(secrets, axis=1))
        if reference_syndrome is None:
            reference_syndrome = syndrome
        maps = np.stack([erasures[erased] for erased in lost])
        decoded, measured, corrections = _decode_block(
            code, encoded, syndrome, lost, maps, uniforms, kernels
        )
        fidelities = np.abs(np.einsum("jc,jc->c", encoded.conj(), decoded)) ** 2
        for c, (acc, erased) in enumerate(block):
            records.append(
                TrialRecord(
                    accessible=acc,
                    erased=erased,
                    measured_syndrome=tuple(int(t) for t in measured[:, c]),
                    correction=tuple(int(v) for v in corrections[:, c]),
                    fidelity=float(fidelities[c]),
                )
            )
    if reference_syndrome is None:
        _, reference_syndrome = encode(draw_secret()[:, None])
    return ProtocolTranscript(syndrome=reference_syndrome, trials=tuple(records))
