"""Clifford circuits on m qudits of prime dimension and their synthesis.

Gate set (q, q' are 0-based wires, parameters live in F_p):

==========  =========================================  ======================
text form   unitary                                    action on (x, z)
==========  =========================================  ======================
``F q``     Fourier: |j> -> sum_k w^{jk} |k> / sqrt p  (x, z) -> (-z, x)
``P q g``   diagonal quadratic phase (see below)       (x, z) -> (x, z + g*x)
``MUL q g`` |j> -> |g*j mod p>, g invertible           (x, z) -> (g*x, z/g)
``SUM q q'``|a, b> -> |a, a + b mod p>                 x' += x;  z -= z'
``X q a``   X^a                                        identity
``Z q b``   Z^b                                        identity
==========  =========================================  ======================

For odd p the phase gate multiplies |j> by w^{g * j(j-1)/2}; for p = 2 it is
diag(1, i^g).  Conjugating a Pauli through a circuit therefore stays inside
the group generated by zeta = exp(i*pi/p) (a 2p-th root of unity): phases
are tracked exactly as integer exponents of zeta, which are even whenever
the result is a plain w power.  Each gate's action on (x | z) and on that
exponent, powers included, is written once in :func:`_conjugate_wires`,
which runs it on a batch of Paulis, each a pair of int lists: one Pauli in
:func:`conjugate_pauli`, the 2m unit columns in :func:`symplectic_matrix`,
the unfinished columns in the synthesis reduction, the synthesis targets
walked back through that reduction's gate powers, and the simulator's
generators in one walk of a circuit.  Operators become f-image rows only
through :func:`advshare.pauli.f_map`; synthesis works on rows, and builds
no operator.

A circuit keeps its gates as maximal runs of equal consecutive gates
(:attr:`CliffordCircuit.runs`, built once by the one splitter
:func:`_runs`), and everything that walks a circuit walks the runs, one
gate power per run: conjugation, the symplectic matrix, the inverse, the
dense compiler and the kind, wire and parameter checks a circuit makes
when it is built.  The inverse of a circuit and the gates of a
decomposition are both undone runs, one helper's work.  The text form
rejects a line without its kind's integer fields.

Synthesis runs on f-image rows: :func:`synthesize` converts its two
operator tuples to rows and phases, and :func:`encoding_circuit` passes a
plan's rows, and the target Gram its constructor checked, to one row core.
It reduces the common Gram of two tuples with equal commutation structure
once, on int lists, completes each tuple's rows to a symplectic basis in
one :class:`advshare.gfp.GaussJordan` form (which also refuses a
dependent tuple), forms the change-of-basis matrix, checks in one
comparison each that it is symplectic and maps the source rows to the
targets, peels it into gate powers column pair by column pair, undoes
those into the gates, and finishes with a Pauli layer that zeroes every
representable phase, read off by walking the targets back through the
same powers and solved for by :func:`advshare.gfp.solve`.  The one
circuit it returns, the only runs split, satisfies U g_i U^dag = phase_i *
b_i for each source/target pair, with phase_i an exact root of unity.

The dense realization compiles a circuit once, on first use, into kernels
on the p**m wire register and keeps them on the (immutable) circuit: each
maximal run of monomial gates becomes one gather and one phase vector whose
entries are exact zeta powers, and each odd same-wire run of Fourier gates
one p x p matmul.  Applying a circuit moves its wire axes to the front
once; other axes ride along.  The gate-by-gate dense path lives on in the
tests as the reference the compiled kernels are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from . import gfp
from .errors import (
    BudgetExceededError,
    DependentRowsError,
    GramMismatchError,
    InvariantError,
)
from .pauli import PauliOperator, exponent_vectors, f_map, omega, zeta
from .symplectic import orthogonality_rows, product_matrix

#: kind -> (wire count, whether the text form carries a parameter)
_ARITY = {
    "F": (1, False),
    "P": (1, True),
    "MUL": (1, True),
    "SUM": (2, False),
    "X": (1, True),
    "Z": (1, True),
}
GATE_KINDS = tuple(_ARITY)


@dataclass(frozen=True)
class Gate:
    kind: str
    qudits: tuple[int, ...]
    param: int = 0

    def __str__(self) -> str:
        fields = [self.kind, *map(str, self.qudits)]
        if _ARITY.get(self.kind, (0, False))[1]:
            fields.append(str(self.param))
        return " ".join(fields)


def gate(kind: str, *qudits: int, param: int = 0) -> Gate:
    return Gate(kind, tuple(int(q) for q in qudits), int(param))


@dataclass(frozen=True)
class CliffordCircuit:
    """An ordered gate list on m qudits of dimension p."""

    p: int
    m: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        gfp.check_modulus(self.p)
        for g, _ in self.runs:
            if g.kind not in _ARITY:
                raise ValueError(f"unknown gate kind {g.kind!r}")
            wires = _ARITY[g.kind][0]
            if len(g.qudits) != wires:
                raise ValueError(f"gate {g.kind} takes {wires} wire(s), got {len(g.qudits)}")
            for q in g.qudits:
                if not 0 <= q < self.m:
                    raise ValueError(f"gate {g} addresses wire {q} outside 0..{self.m - 1}")
            if g.kind == "MUL" and g.param % self.p == 0:
                raise ValueError("MUL parameter must be invertible")
            if g.kind == "SUM" and g.qudits[0] == g.qudits[1]:
                raise ValueError("SUM control and target must differ")

    def __len__(self) -> int:
        return len(self.gates)

    @cached_property
    def runs(self) -> tuple[tuple[Gate, int], ...]:
        """The gates as maximal runs of equal consecutive gates, ``(gate, count)``."""
        return _runs(self.gates)

    @cached_property
    def _kernels(self) -> tuple:
        """Dense kernels that apply the circuit, compiled on first use."""
        return _compile(self)

    def inverse(self) -> "CliffordCircuit":
        return CliffordCircuit(self.p, self.m, tuple(_undo(self.runs, self.p)))

    def to_text(self) -> str:
        return "\n".join(str(g) for g in self.gates)

    @classmethod
    def from_text(cls, text: str, p: int, m: int) -> "CliffordCircuit":
        gates_: list[Gate] = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            kind, *fields = line.split()
            kind = kind.upper()
            if kind not in _ARITY:
                raise ValueError(f"unknown gate line {raw!r}")
            wires, has_param = _ARITY[kind]
            if len(fields) != wires + has_param or not all(
                f.removeprefix("-").isdecimal() for f in fields
            ):
                raise ValueError(f"gate line {raw!r} needs {wires + has_param} integer fields")
            nums = [int(f) for f in fields]
            gates_.append(Gate(kind, tuple(nums[:wires]), *nums[wires:]))
        return cls(p, m, tuple(gates_))


def _runs(gates: Sequence[Gate]) -> tuple[tuple[Gate, int], ...]:
    """Maximal runs of equal consecutive gates, ``(gate, count)``."""
    runs: list[tuple[Gate, int]] = []
    last, count = None, 0
    for g in gates:
        if g is last or g == last:
            count += 1
            continue
        if count:
            runs.append((last, count))
        last, count = g, 1
    if count:
        runs.append((last, count))
    return tuple(runs)


def _inverse_gates(g: Gate, p: int) -> list[Gate]:
    if g.kind == "F":
        order = 2 if p == 2 else 4
        return [g] * (order - 1)
    if g.kind == "P":
        if p == 2:
            return [g] * 3 if g.param % 4 else []
        return [Gate("P", g.qudits, (-g.param) % p)]
    if g.kind == "MUL":
        return [Gate("MUL", g.qudits, gfp.inv_scalar(g.param, p))]
    if g.kind == "SUM":
        return [g] * (p - 1)
    return [Gate(g.kind, g.qudits, (-g.param) % p)]  # X, Z


def _undo(runs: Sequence[tuple[Gate, int]], p: int) -> list[Gate]:
    """The gates undoing ``(gate, times)`` runs: each run inverted, last run first."""
    gates_: list[Gate] = []
    for g, times in reversed(runs):
        gates_ += _inverse_gates(g, p) * times
    return gates_


# ---------------------------------------------------------------------------
# symbolic conjugation


@dataclass(frozen=True)
class PhasedPauli:
    """A Pauli with an exact phase zeta**tau, tau mod 2p.

    Even tau means the operator is w^{tau/2} X(x) Z(z); odd tau (possible
    only for p = 2) carries an extra factor of i.
    """

    p: int
    x: np.ndarray
    z: np.ndarray
    tau: int = 0

    def __post_init__(self):
        x, z = exponent_vectors(self.x, self.z, self.p)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "tau", int(self.tau) % (2 * self.p))

    @classmethod
    def from_pauli(cls, a: PauliOperator) -> "PhasedPauli":
        return cls(a.p, a.x, a.z, 2 * a.phase)

    def phase_complex(self) -> complex:
        return zeta(self.p) ** self.tau

    def as_pauli(self) -> PauliOperator:
        if self.tau % 2:
            raise ValueError("phase is an odd zeta power, not representable as w^t")
        return PauliOperator(self.p, self.x, self.z, self.tau // 2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhasedPauli):
            return NotImplemented
        return (
            self.p == other.p
            and self.tau == other.tau
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )


def conjugate_pauli(
    circuit: CliffordCircuit, op: PauliOperator | PhasedPauli
) -> PhasedPauli:
    """Exact canonical form of U op U^dag for the circuit's unitary U."""
    cur = PhasedPauli.from_pauli(op) if isinstance(op, PauliOperator) else op
    if cur.p != circuit.p or cur.x.shape[0] != circuit.m:
        raise ValueError("operator and circuit must share p and wire count")
    x, z = cur.x.tolist(), cur.z.tolist()
    (tau,) = _conjugate_runs(circuit.runs, [(x, z)], cur.p)
    return PhasedPauli(cur.p, x, z, cur.tau + tau)


def _conjugate_runs(runs: Sequence[tuple[Gate, int]], paulis, p: int) -> list[int]:
    """Conjugate each (x | z) of ``paulis`` through ``(gate, times)`` runs in
    place, in one walk; return each one's tau increment."""
    taus = [0] * len(paulis)
    for g, times in runs:
        if any(steps := _conjugate_wires(g, paulis, p, times)):
            taus = [t + d for t, d in zip(taus, steps)]
    return taus


def _conjugate_wires(g: Gate, paulis, p: int, times: int = 1) -> list[int]:
    """Conjugate each (x | z) of ``paulis`` through g**times in place; return
    each one's tau increment.

    ``paulis`` is a list of (x, z) pairs of int lists indexed by wire: one
    Pauli, the generators a circuit is checked on, or the columns of a
    symplectic matrix.  F goes by ``times % 4``, F^2 being a sign flip that
    adds nothing to tau; ``P``, ``SUM``, ``X`` and ``Z`` powers multiply
    their parameter, and a ``MUL`` power raises it.
    """
    q = g.qudits[0]
    if g.kind == "F":
        turns = times % 4
        sign = -1 if turns >= 2 else 1
        taus = []
        for x, z in paulis:
            a, b = sign * x[q], sign * z[q]
            x[q], z[q] = ((-b) % p, a % p) if turns % 2 else (a % p, b % p)
            taus.append(-2 * a * b if turns % 2 else 0)
        return taus
    if g.kind == "P":
        c = g.param * times
        taus = []
        for x, z in paulis:
            a = x[q]
            z[q] = (z[q] + c * a) % p
            taus.append(c * a if p == 2 else c * a * (a - 1))
        return taus
    if g.kind == "MUL":
        up, down = pow(g.param, times, p), pow(g.param, -times, p)
        for x, z in paulis:
            x[q], z[q] = (x[q] * up) % p, (z[q] * down) % p
        return [0] * len(paulis)
    if g.kind == "SUM":
        qt = g.qudits[1]
        for x, z in paulis:
            x[qt] = (x[qt] + times * x[q]) % p
            z[q] = (z[q] - times * z[qt]) % p
        return [0] * len(paulis)
    if g.kind == "X":
        return [-2 * times * g.param * z[q] for _, z in paulis]
    return [2 * times * g.param * x[q] for x, _ in paulis]  # Z


def symplectic_matrix(circuit: CliffordCircuit) -> np.ndarray:
    """The 2m x 2m matrix of the circuit's action on f-images (columns)."""
    m = circuit.m
    cols = [(unit[:m], unit[m:]) for unit in np.eye(2 * m, dtype=np.int64).tolist()]
    _conjugate_runs(circuit.runs, cols, circuit.p)
    return np.array([x + z for x, z in cols], dtype=np.int64).reshape(2 * m, 2 * m).T


# ---------------------------------------------------------------------------
# dense realization


def _place_digits(p: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Place values and (m, p**m) digits of the register; wire 0 is most significant.

    Digits are int8 (p <= 7), an eighth of int64 digits; a product of
    digits that could leave int8 must be widened where it is formed.
    """
    place = p ** np.arange(m - 1, -1, -1, dtype=np.int64)
    return place, np.indices((p,) * m, dtype=np.int8).reshape(m, p**m)


def _wire_order(ndim: int, m: int, axes: Sequence[int] | None) -> list[int]:
    """Axis permutation putting the register's m axes first, the rest after in order."""
    wires = list(range(m)) if axes is None else [a + ndim if a < 0 else a for a in axes]
    return wires + [a for a in range(ndim) if a not in wires]


def _register(arr: np.ndarray, p: int, m: int, axes: Sequence[int] | None) -> np.ndarray:
    """The (p**m, rest) matrix of a tensor whose m-wire register sits on axes,
    which must be m distinct axes of size p."""
    wires = list(range(m) if axes is None else axes)
    order = _wire_order(arr.ndim, m, wires)
    if len(wires) != m or sorted(order) != list(range(arr.ndim)) or any(
        arr.shape[a] != p for a in order[:m]
    ):
        raise ValueError(
            f"register axes {wires} are not {m} distinct axes of size {p} in shape {arr.shape}"
        )
    return arr.transpose(order).reshape(p**m, -1)


def _unregister(
    flat: np.ndarray, like: np.ndarray, m: int, axes: Sequence[int] | None
) -> np.ndarray:
    """Inverse of :func:`_register`: flat back to the axis layout of like."""
    order = _wire_order(like.ndim, m, axes)
    return flat.reshape([like.shape[a] for a in order]).transpose(np.argsort(order))


def _fourier_kernel(flat: np.ndarray, p: int, q: int, mat: np.ndarray) -> np.ndarray:
    view = flat.reshape(p**q, p, -1)
    return np.matmul(mat, view).reshape(flat.shape)


def _monomial_kernel(
    flat: np.ndarray, index: np.ndarray | None, phase: np.ndarray | None
) -> np.ndarray:
    if index is not None:
        flat = flat[index]
    if phase is not None:
        flat = flat * phase[:, None]
    return flat


def _compile(circuit: CliffordCircuit) -> tuple:
    """Kernels on the (p**m, rest) register view that apply the circuit.

    A maximal run of monomial gates (SUM, MUL, P, X, Z, and F^2 |j> = |-j>)
    maps |j> to zeta**tau(j) |pi(j)>.  Pushing the register's digit array
    through the run gives pi and tau, with tau an exact zeta exponent mod
    2p; the run becomes one gather and one phase vector.  The circuit is
    walked by its runs of equal gates, each pushed through as one power.
    A run of r Fourier gates is F**(r mod 4): the identity, F^2
    (monomial), or one p x p matmul with F or F^-1 = conj(F).
    """
    p, m = circuit.p, circuit.m
    place, start = _place_digits(p, m)
    roots = zeta(p) ** np.arange(2 * p)
    fourier = omega(p) ** np.outer(np.arange(p), np.arange(p)) / np.sqrt(p)
    kernels: list = []
    digits = tau = None

    def flush():
        nonlocal digits, tau
        if digits is None:
            return
        # U|j> = zeta**tau[j] |target[j]>, so out[i] = zeta**tau[src[i]] v[src[i]].
        target = place @ digits
        src = np.empty_like(target)
        src[target] = np.arange(target.size)
        phase = tau[src] % (2 * p)
        index = None if np.array_equal(src, np.arange(src.size)) else src
        phases = roots[phase] if phase.any() else None
        if index is not None or phases is not None:
            kernels.append(partial(_monomial_kernel, index=index, phase=phases))
        digits = tau = None

    for g, run in circuit.runs:
        q = g.qudits[0]
        if g.kind == "F" and run % 2:
            flush()
            mat = fourier if run % 4 == 1 else fourier.conj()
            kernels.append(partial(_fourier_kernel, p=p, q=q, mat=mat))
            continue
        if g.kind == "F" and run % 4 == 0:
            continue
        if digits is None:
            # Gate parameters are any ints, so work on int64 digits.
            digits, tau = start.astype(np.int64), np.zeros(p**m, dtype=np.int64)
        d = digits[q]
        if g.kind == "F":  # F^2
            digits[q] = (-d) % p
        elif g.kind == "P":
            tau += run * g.param * d if p == 2 else run * g.param * d * (d - 1)
        elif g.kind == "Z":
            tau += 2 * run * g.param * d
        elif g.kind == "X":
            digits[q] = (d + run * g.param) % p
        elif g.kind == "MUL":
            digits[q] = (d * pow(g.param, run, p)) % p
        elif g.kind == "SUM":
            qt = g.qudits[1]
            digits[qt] = (digits[qt] + run * d) % p
    flush()
    return tuple(kernels)


def apply_circuit_tensor(
    arr: np.ndarray, circuit: CliffordCircuit, axes: Sequence[int] | None = None
) -> np.ndarray:
    """Apply the circuit to a tensor; axes[w] is the tensor axis of wire w.

    Axes not listed ride along unchanged.  The circuit's kernels are
    compiled on first use and kept on the circuit.
    """
    out = np.asarray(arr, dtype=complex)
    kernels = circuit._kernels
    if not kernels:
        return out
    flat = _register(out, circuit.p, circuit.m, axes)
    for kernel in kernels:
        flat = kernel(flat)
    return _unregister(flat, out, circuit.m, axes)


def to_unitary(
    circuit: CliffordCircuit, budget: int = gfp.DEFAULT_STATE_BUDGET
) -> np.ndarray:
    """Dense unitary of the circuit, dimension p**m."""
    dim = circuit.p**circuit.m
    if dim > budget:
        raise BudgetExceededError(
            f"dense dimension {circuit.p}**{circuit.m} exceeds budget {budget}"
        )
    eye = np.eye(dim, dtype=complex).reshape((circuit.p,) * circuit.m + (dim,))
    out = apply_circuit_tensor(eye, circuit)
    return out.reshape(dim, dim)


# ---------------------------------------------------------------------------
# symplectic basis completion


def _span_reduction(gram: np.ndarray, p: int):
    """Hyperbolic pairs and radical of a tuple, in coefficient space.

    Works entirely from the Gram matrix G, so running it on two tuples with
    equal Grams yields identical coefficients.  Each coefficient vector u is
    an int list kept beside its image ``u @ G``, so that a product
    ``<u, v> = u @ G @ v`` is one dot product, and every combination of
    vectors combines their images alike.  Vector i enters with coefficient
    1 at i, where no earlier vector has any, so it never reduces to zero.
    """
    g = gram.tolist()
    r = len(g)

    def sp(u, v) -> int:
        return sum(a * b for a, b in zip(u[1], v[0])) % p

    def combine(u, s, a, t, b):
        """u - s a + t b, vector and image."""
        return tuple([(x - s * y + t * z) % p for x, y, z in zip(*parts)] for parts in zip(u, a, b))

    pairs: list = []
    radical: list = []
    for i in range(r):
        w = ([int(j == i) for j in range(r)], g[i])
        for a, b in pairs:
            w = combine(w, sp(w, b), a, sp(w, a), b)
        idx = next((idx for idx, c in enumerate(radical) if sp(c, w)), None)
        if idx is None:
            radical.append(w)
            continue
        c = radical.pop(idx)
        inv = gfp.inv_scalar(sp(c, w), p)
        b_new = tuple([x * inv % p for x in part] for part in w)
        radical = [combine(d, sp(d, b_new), c, sp(d, c), b_new) for d in radical]
        pairs.append((c, b_new))
    return [(a[0], b[0]) for a, b in pairs], [c[0] for c in radical]


def _complete_basis(
    vectors: np.ndarray, pairs: list, radical: list, p: int
) -> np.ndarray:
    """Extend a tuple to a full symplectic basis with canonical Gram.

    ``pairs`` and ``radical`` are :func:`_span_reduction` of the tuple's
    Gram.  The output rows come in hyperbolic pairs: first the pairs found
    inside the span, then each radical vector with a solved partner, then
    fresh pairs from the orthogonal complement.  The arrangement (hence the
    Gram of the result) depends only on the input Gram.

    One :class:`advshare.gfp.GaussJordan` form serves the whole completion:
    constraint i enters as its orthogonality row beside unit column i of an
    identity block, one column per constraint, so the form carries
    ``[R | E]`` with ``R = E @ A`` for the constraints A so far.  The pair
    and radical vectors enter first, then each partner and fresh vector as
    it is found.  The pair and radical vectors are an invertible change of
    the input rows, so a dependent tuple leaves a dependent row there, and
    raises ``DependentRowsError`` before any partner is solved.  A partner
    is the form's solution for the unit right-hand side of its vector, and
    a fresh vector its null vector at the first free column: exactly what
    one ``gfp.solve`` or ``gfp.kernel`` call per vector on the same rows
    returns.
    """
    count, two_m = vectors.shape
    half = two_m // 2
    coeffs = [w for pair in pairs for w in pair] + radical
    images = (np.array(coeffs, dtype=np.int64).reshape(len(coeffs), count) @ vectors % p).tolist()
    first = 2 * len(pairs)
    basis, radical_vecs = images[:first], images[first:]
    form = gfp.GaussJordan(two_m, p)
    # One unit column per constraint: 2m of them, unless a dependent tuple
    # brings more.
    block = max(two_m, len(images))

    def constrain(v: list[int]) -> int:
        """Add v's orthogonality row, [-v_z | v_x] as in
        symplectic.orthogonality_rows, with the next unit column; its index."""
        i = len(form.rows) + len(form.dependent)
        unit = [0] * block
        unit[i] = 1
        form.add([-a % p for a in v[half:]] + v[:half] + unit)
        return i

    for v in images:
        constrain(v)
    if form.dependent:
        raise DependentRowsError("generator f-images are linearly dependent")
    for j, c in enumerate(radical_vecs):
        d = form.solution(first + j)  # <c, d> = 1, everything else orthogonal
        if d is None:
            raise InvariantError("symplectic completion failed: partner system inconsistent")
        constrain(d)
        basis += [c, d]
    while len(basis) < two_m:
        e = form.null_vector(form.free_columns()[0])
        f = form.solution(constrain(e))
        if f is None:
            raise InvariantError("symplectic completion failed: no partner for fresh vector")
        constrain(f)
        basis += [e, f]
    return np.array(basis, dtype=np.int64)


# ---------------------------------------------------------------------------
# decomposition of a symplectic matrix into gates


def _decompose_symplectic(matrix: np.ndarray, m: int, p: int) -> list[tuple[Gate, int]]:
    """The ``(gate, times)`` powers reducing a symplectic matrix to the identity.

    Left-applies gate actions, one column pair per wire, and returns the
    powers in order; they realize the inverse exactly (:func:`_undo` gives
    the gates).  The working matrix is 2m columns, each the (x, z) int
    lists of an f-image.  A gate applied ``times`` times conjugates the
    unfinished columns in one :func:`_conjugate_wires` call: step q's gates
    act on wires q and up, and columns j and m + j (j < q) are units on wire j.
    """
    reduced = np.asarray(matrix) % p
    cols = [(reduced[:m, j].tolist(), reduced[m:, j].tolist()) for j in range(2 * m)]
    ops: list[tuple[Gate, int]] = []

    def apply(g: Gate, times: int = 1):
        _conjugate_wires(g, live, p, times)
        ops.append((g, times))

    for q in range(m):
        live = cols[q:m] + cols[m + q :]
        x, z = cols[q]
        if not any(x[q:]):
            apply(Gate("F", (next(w for w in range(q, m) if z[w]),)))
        if x[q] == 0:
            apply(Gate("SUM", (next(w for w in range(q + 1, m) if x[w]), q)))
        if x[q] != 1:
            apply(Gate("MUL", (q,), gfp.inv_scalar(x[q], p)))
        for w in range(q + 1, m):
            if x[w]:
                apply(Gate("SUM", (q, w)), p - x[w])
        for w in range(q + 1, m):
            if z[w]:
                apply(Gate("F", (w,)))
                apply(Gate("SUM", (q, w)), p - x[w])
        if z[q]:
            apply(Gate("P", (q,), (p - z[q]) % p))
        if x[q] != 1 or sum(x) + sum(z) != 1:
            raise InvariantError(f"column {q} not reduced to a unit vector")

        x, z = cols[m + q]
        if z[q] != 1:
            raise InvariantError("symplectic pairing broken during reduction")
        for w in range(q + 1, m):
            if z[w]:
                apply(Gate("SUM", (w, q)), z[w])
            if x[w]:
                apply(Gate("F", (w,)))
                apply(Gate("SUM", (w, q)), z[w])
        if x[q]:
            gam = x[q]
            apply(Gate("F", (q,)), 1 if p == 2 else 3)
            apply(Gate("P", (q,), gam))
            apply(Gate("F", (q,)))
        if any(x) or z[q] != 1 or sum(z) != 1:
            raise InvariantError(f"column {m + q} not reduced to a unit vector")

    if [x + z for x, z in cols] != np.eye(2 * m, dtype=np.int64).tolist():
        raise InvariantError("reduction did not reach the identity")
    return ops


# ---------------------------------------------------------------------------
# synthesis


def synthesize(
    source: Sequence[PauliOperator],
    target: Sequence[PauliOperator],
    m: int | None = None,
    p: int | None = None,
) -> CliffordCircuit:
    """A circuit whose unitary conjugates each source_i into target_i.

    Parameters
    ----------
    source, target : sequences of PauliOperator
        Equal-length tuples on the same wires.  Each tuple's f-images must
        be linearly independent, and the two pairwise commutation-exponent
        matrices must agree entry by entry.
    m, p : int, optional
        Wire count and dimension; inferred from the operators when omitted.

    Returns
    -------
    CliffordCircuit
        U with ``U source_i U^dag = phase_i * target_i``.  Phases are exact
        roots of unity and are normalized to 1 whenever the two operators
        have compatible spectra (always, for plan-derived generator pairs);
        query them with :func:`conjugate_pauli`.  The targets go back
        through the decomposition's gate powers in one walk, which checks
        each against its source and gives the phases the Pauli layer fixes;
        the returned circuit is the only one built and the only runs split.

    Raises
    ------
    GramMismatchError
        If the commutation matrices differ.
    DependentRowsError
        If either tuple has dependent f-images.
    """
    if len(source) != len(target):
        raise ValueError("source and target must have equal length")
    if not source:
        if m is None or p is None:
            raise ValueError("empty tuples require explicit m and p")
        return CliffordCircuit(p, m)
    p = source[0].p if p is None else p
    m = source[0].n if m is None else m
    for a in (*source, *target):
        if a.p != p or a.n != m:
            raise ValueError("all operators must share p and wire count")
    if len(source) > 2 * m:
        raise ValueError(f"{len(source)} generators cannot be independent on {m} wires")

    u_rows = np.array([f_map(a) for a in source])
    v_rows = np.array([f_map(a) for a in target])
    gram = product_matrix(u_rows, u_rows, p)
    if not np.array_equal(gram, product_matrix(v_rows, v_rows, p)):
        raise GramMismatchError(
            "source and target commutation-exponent matrices differ"
        )
    phases = [2 * (a.phase - b.phase) for a, b in zip(source, target)]
    return _synthesize_rows(u_rows, v_rows, p, gram, phases)


def _synthesize_rows(
    u_rows: np.ndarray, v_rows: np.ndarray, p: int, gram: np.ndarray, phases: Sequence[int]
) -> CliffordCircuit:
    """The circuit of :func:`synthesize` from f-image rows, reduced mod p.

    ``u_rows`` and ``v_rows`` are the (r x 2m) images of the source and the
    target tuple, ``gram`` is their common ``product_matrix``, and
    ``phases[i]`` is ``2 * (phase of source_i - phase of target_i)``, the
    zeta exponent the Pauli layer must absorb beside the decomposition's.
    """
    m = u_rows.shape[1] // 2
    if not len(u_rows):
        return CliffordCircuit(p, m)
    # Commutation exponents are the negated symplectic products, so equal
    # Grams of f-images and equal commutation matrices coincide, and one
    # reduction of the Gram serves both completions.
    pairs, radical = _span_reduction(gram, p)
    basis_u = _complete_basis(u_rows, pairs, radical, p)
    basis_v = _complete_basis(v_rows, pairs, radical, p)
    # Hyperbolic pairs give a Gram G with G^-1 = G^T, so the inverse of
    # basis_u^T is G^T times basis_u's orthogonality rows.
    basis_gram = product_matrix(basis_u, basis_u, p)
    t_matrix = (basis_v.T @ basis_gram.T @ orthogonality_rows(basis_u, p)) % p
    # t^T Omega t == Omega, with Omega read from the symplectic product.
    unit = np.eye(2 * m, dtype=np.int64)
    preserved = product_matrix(t_matrix.T, t_matrix.T, p) == product_matrix(unit, unit, p)
    if not preserved.all():
        raise InvariantError("change of basis is not symplectic")
    if not np.array_equal(u_rows @ t_matrix.T % p, v_rows):
        raise InvariantError("change of basis does not map source images to target")

    ops = _decompose_symplectic(t_matrix, m, p)
    gates_ = tuple(_undo(ops, p))

    # Zero out every representable phase with a trailing Pauli layer.  ops
    # realize U^-1 exactly: each target walks back to its source with -tau.
    images = [(row[:m], row[m:]) for row in v_rows.tolist()]
    taus = _conjugate_runs(ops, images, p)
    residues = []
    for (x, z), src, tau, phase in zip(images, u_rows.tolist(), taus, phases):
        if x + z != src:
            raise InvariantError("decomposed circuit does not realize the basis change")
        residues.append((phase - tau) % (2 * p))
    fixable = [i for i, r in enumerate(residues) if r % 2 == 0]
    extra = ()
    if fixable:
        rows = orthogonality_rows(v_rows[fixable], p)
        # Conjugating an operator with image v by the Pauli layer of image w
        # shifts its w-exponent by <v, w>_s = rows @ w.
        rhs = np.array([(-residues[i] // 2) % p for i in fixable], dtype=np.int64)
        correction = gfp.solve(rows, rhs, p)
        if correction is None:
            raise InvariantError("phase correction system inconsistent")
        extra = tuple(
            Gate(kind, (q,), int(e))
            for q in range(m)
            for kind, e in (("X", correction[q]), ("Z", correction[m + q]))
            if e
        )
    return CliffordCircuit(p, m, gates_ + extra)


def encoding_circuit(plan) -> CliffordCircuit:
    """The encoding unitary of an EAQECC plan.

    Conjugates the plan's single-wire preparation generators into its code
    generators, so applying the circuit to the easily prepared state (pair
    halves, |0> ancillas, secret) yields a codeword frame.
    """
    rows = plan.target_rows
    return _synthesize_rows(rows, plan.source_rows, plan.p, plan._target_gram, [0] * len(rows))
