#!/usr/bin/env python3
"""From a shareable set to an entanglement-assisted encoding.

For shareable J, the normal-form rows restricted to the complement of J
generate a smaller non-commuting group (the plan's source generators).
Pairing it with single-wire generators of identical commutation structure
(the targets) yields an assisted code with |J| pre-shared entangled pairs,
and a Clifford circuit conjugating targets into sources is the encoder.
The plan is the pair (code, J); everything printed below is derived from it.
"""

import numpy as np

from advshare import construct_eaqecc, encoding_circuit, to_unitary, validate_stabilizer
from advshare.advance import gram_matrix
from advshare.pauli import to_matrix

code = validate_stabilizer(
    [[1, 1, 1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1, 1]], p=2, n=4
)
plan = construct_eaqecc(code, [4])
print(f"plan: J = {plan.shares} on a [[{plan.n},{plan.k}]]_{plan.p} code")

n_eff, k, c = plan.parameters()
print(f"assisted code: length {n_eff}, logical {k}, pairs {c}, ancillas {plan.ell}")
print("source generators:", [str(g) for g in plan.source_generators])
print("target generators:", [str(g) for g in plan.target_generators])
print("entangled pairs (advance share, partner):", plan.epr_pairs)
print("secret wires:", plan.secret_shares)

# The isomorphism contract: identical pairwise commutation exponents.
print("gram(source) == gram(target):",
      np.array_equal(gram_matrix(plan.source_generators),
                     gram_matrix(plan.target_generators)))

circuit = encoding_circuit(plan)
print(f"\nencoding circuit ({len(circuit)} gates):")
print(circuit.to_text())

# Dense verification of the conjugation contract U target U^dag = source.
u = to_unitary(circuit)
print("\nunitarity:", np.abs(u @ u.conj().T - np.eye(u.shape[0])).max())
for easy, coded in zip(plan.target_generators, plan.source_generators):
    residual = np.abs(u @ to_matrix(easy) @ u.conj().T - to_matrix(coded)).max()
    print(f"U ({easy}) U+ -> ({coded}): residual {residual:.2e}")
