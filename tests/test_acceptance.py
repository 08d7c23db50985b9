"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import itertools
import time

import numpy as np
import pytest

from advshare import gfp
from advshare.advance import (
    construct_eaqecc,
    dual_min_weight,
    is_advance_shareable,
    is_advance_shareable_sufficient,
    normal_form,
)
from advshare.clifford import conjugate_pauli, encoding_circuit, to_unitary
from advshare.codefile import parse_code_file
from advshare.errors import NotAdvanceShareableError
from advshare.pauli import (
    PauliOperator,
    code_distance,
    random_stabilizer,
    to_matrix,
    validate_stabilizer,
)
from advshare.sim import (
    AccessLabel,
    classify_access,
    encode_advance,
    entropic_audit,
    fidelity,
    mutual_information_table,
    random_state,
    reconstruct,
)
from advshare.symplectic import min_symplectic_weight, shorten, symplectic_dual

from test_advance import assert_normal_form_invariants

FIDELITY_TOL = 1e-9
CONTRACT_TOL = 1e-9
AUDIT_TOL = 1e-6


def _passline(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_code_file_parameters(code_dir):
    start = time.perf_counter()
    p, n, rows = parse_code_file((code_dir / "four_qubit_ghz.code").read_text())
    code = validate_stabilizer(rows, p, n)
    d = code_distance(code)
    elapsed = time.perf_counter() - start
    assert (code.n, code.k, d, code.p) == (4, 2, 2, 2)
    assert elapsed < 1.0
    _passline(1, f"[[4,2,2]]_2 from fixture file in {elapsed:.3f}s")


def test_criterion_2_shortening_dimension(four_qubit):
    shortened = shorten(four_qubit.f_space(), [4])
    assert shortened.dim == 0
    assert shortened.dim == four_qubit.num_checks - 2 * 1
    assert is_advance_shareable(four_qubit, [4])
    _passline(2, "shortening on {4} drops dimension 2 -> 0; exact criterion passes")


def test_criterion_3_dual_minimum_weight(four_qubit):
    dual = symplectic_dual(four_qubit.f_space())
    assert dual.dim == 6
    assert 2**dual.dim - 1 == 63
    assert min_symplectic_weight(dual) == 2
    _passline(3, "dual minimum symplectic weight 2 over 63 nonzero codewords")


def test_criterion_4_plan_reproduces_worked_example(four_qubit):
    plan = construct_eaqecc(four_qubit, [4])
    xxx = PauliOperator(2, [1, 1, 1], [0, 0, 0])
    zzz = PauliOperator(2, [0, 0, 0], [1, 1, 1])
    assert plan.source_generators == (xxx, zzz)
    n_eff, k, c = plan.parameters()
    d = code_distance(four_qubit)
    assert (n_eff, k, d, c) == (3, 2, 2, 1)
    _passline(4, "plan generators XXX / ZZZ on 3 qubits; parameters [[3,2,2;1]]_2")


def test_criterion_5_end_to_end_ramp(four_qubit):
    start = time.perf_counter()
    plan = construct_eaqecc(four_qubit, [4])
    circuit = encoding_circuit(plan)
    rng = np.random.default_rng(20240607)
    secret = random_state(2, 2, rng)
    shared, syndrome = encode_advance(plan, circuit, secret)
    worst = 1.0
    for subset in itertools.combinations(range(1, 5), 3):
        recovered = reconstruct(shared, syndrome, plan, circuit, subset, rng)
        worst = min(worst, fidelity(recovered, secret))
    assert worst >= 1 - FIDELITY_TOL
    leak = 0.0
    for share in range(1, 5):
        leak = max(
            leak, abs(entropic_audit(plan, circuit, [share]))
        )
    assert leak <= AUDIT_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passline(
        5,
        f"3-share fidelity >= 1-1e-9 (worst deficit {1 - worst:.2e}), "
        f"singleton leakage <= 1e-6 (max {leak:.2e}), {elapsed:.2f}s",
    )


def _sweep_codes():
    rng = np.random.default_rng(314159)
    codes = []
    while len(codes) < 50:
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 6))
        rows = int(rng.integers(1, n + 1))
        codes.append(random_stabilizer(p, n, rows, rng))
    return codes


def test_criterion_6_exact_criterion_equivalence(four_qubit, five_qubit, qutrit):
    codes = [four_qubit, five_qubit, qutrit] + _sweep_codes()
    checked = 0
    for code in codes:
        for size in range(code.n + 1):
            for shares in itertools.combinations(range(1, code.n + 1), size):
                expected = is_advance_shareable(code, shares)
                try:
                    nf = normal_form(code, shares)
                    assert_normal_form_invariants(code, nf)
                    got = True
                except NotAdvanceShareableError:
                    got = False
                assert got == expected, (code.p, code.n, code.check_matrix, shares)
                checked += 1
    _passline(
        6,
        f"criterion <-> normal form with invariants on {len(codes)} random "
        f"stabilizers, {checked} share sets, zero counterexamples",
    )


def test_criterion_7_sufficient_check_soundness():
    codes = _sweep_codes()
    checked = 0
    converse_failures = 0
    for code in codes:
        threshold = dual_min_weight(code)
        for size in range(1, code.n + 1):
            for shares in itertools.combinations(range(1, code.n + 1), size):
                if size < threshold:
                    assert is_advance_shareable(code, shares), (
                        code.check_matrix,
                        shares,
                    )
                    checked += 1
                elif is_advance_shareable(code, shares):
                    converse_failures += 1
    # A recorded exhibit where the weight shortcut misses a shareable set:
    from test_advance import CONVERSE_GAP_ROWS

    gap = validate_stabilizer(CONVERSE_GAP_ROWS, 2, 5)
    assert is_advance_shareable(gap, [1])
    assert not is_advance_shareable_sufficient(gap, [1])
    _passline(
        7,
        f"sufficient => exact on {checked} certified sets, zero counterexamples; "
        f"converse failures observed: {converse_failures + 1} (incl. recorded exhibit)",
    )


def test_criterion_8_conjugation_contract(four_qubit, five_qubit, qutrit):
    cases = [
        (four_qubit, (4,)),
        (four_qubit, ()),
        (five_qubit, (5,)),
        (five_qubit, (1,)),
        (qutrit, (3,)),
    ]
    worst = 0.0
    total = 0
    for code, shares in cases:
        plan = construct_eaqecc(code, shares)
        circuit = encoding_circuit(plan)
        u = to_unitary(circuit)
        zp = np.exp(1j * np.pi / code.p)
        for easy, coded in zip(plan.target_generators, plan.source_generators):
            img = conjugate_pauli(circuit, easy)
            lhs = u @ to_matrix(easy) @ u.conj().T
            rhs = zp**img.tau * to_matrix(
                PauliOperator(code.p, coded.x, coded.z)
            )
            worst = max(worst, float(np.abs(lhs - rhs).max()))
            total += 1
    assert worst <= CONTRACT_TOL
    _passline(
        8, f"dense conjugation contract on {total} generators, worst residual {worst:.2e}"
    )


def test_criterion_9_access_cross_validation(four_qubit, five_qubit):
    for code, shares in ((four_qubit, (4,)), (five_qubit, (5,))):
        plan = construct_eaqecc(code, shares)
        circuit = encoding_circuit(plan)
        subsets = [
            s
            for size in range(code.n + 1)
            for s in itertools.combinations(range(1, code.n + 1), size)
        ]
        table = mutual_information_table(plan, circuit, subsets)
        top = 2 * code.k
        for subset in subsets:
            label = classify_access(code, subset)
            value = table[subset]
            if label is AccessLabel.QUALIFIED:
                assert abs(value - top) < AUDIT_TOL
            elif label is AccessLabel.FORBIDDEN:
                assert abs(value) < AUDIT_TOL
            else:
                assert AUDIT_TOL < value < top - AUDIT_TOL
    _passline(9, "algebraic labels match entropic audit on all 16 + 32 subsets")


def test_criterion_10_baseline_equivalence(four_qubit):
    subsets = [
        s for size in range(5) for s in itertools.combinations(range(1, 5), size)
    ]
    plan0 = construct_eaqecc(four_qubit, [])
    plan4 = construct_eaqecc(four_qubit, [4])
    t0 = mutual_information_table(plan0, encoding_circuit(plan0), subsets)
    t4 = mutual_information_table(plan4, encoding_circuit(plan4), subsets)
    worst = max(abs(t0[s] - t4[s]) for s in subsets)
    assert worst < AUDIT_TOL
    _passline(
        10,
        f"direct and pair-assisted encodings share one access table "
        f"({len(subsets)} subsets, max audit gap {worst:.2e})",
    )
