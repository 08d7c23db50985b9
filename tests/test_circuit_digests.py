"""Synthesized encoders beyond the ladder sizes, pinned byte for byte.

``golden/circuit_digests.json`` lists random codes (``random_stabilizer``
at p in {2, 3, 5, 7}, n in {9, 11, 13, 15}, k in {1, 2}), each with its
code-file text and, for each share set J tried on it, the sha256 of
``encoding_circuit(construct_eaqecc(code, J)).to_text()``.  The sets are
the empty set, the first shareable single and the first shareable pair in
lexicographic order, where each exists.

To regenerate the file after an announced change of the gate text, call
:func:`write_digests`, e.g. ``python3 tests/test_circuit_digests.py`` with
``src`` on ``PYTHONPATH``.
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

from advshare import advance
from advshare.clifford import encoding_circuit
from advshare.codefile import format_code_file, parse_code_file
from advshare.pauli import random_stabilizer, validate_stabilizer

DIGESTS = Path(__file__).resolve().parent / "golden" / "circuit_digests.json"


def circuit_digest(code, shares: tuple[int, ...]) -> str:
    """sha256 of the gate text of the encoder for share set ``shares``."""
    text = encoding_circuit(advance.construct_eaqecc(code, shares)).to_text()
    return hashlib.sha256(text.encode()).hexdigest()


def _share_sets(code) -> list[tuple[int, ...]]:
    """The empty set, then the first shareable single and pair, if any."""
    sets = [()]
    for size in (1, 2):
        candidates = itertools.combinations(range(1, code.n + 1), size)
        sets += [js for js in candidates if advance.is_advance_shareable(code, js)][:1]
    return sets


def write_digests(path: Path = DIGESTS) -> None:
    """Write the digests of every case as the code in ``src`` synthesizes them."""
    rng = np.random.default_rng(20261019)
    cases = []
    for p in (2, 3, 5, 7):
        for n in (9, 11, 13, 15):
            for k in (1, 2):
                code = random_stabilizer(p, n, n - k, rng)
                cases.append(
                    {
                        "code": format_code_file(code),
                        "plans": [
                            {"shares": list(js), "sha256": circuit_digest(code, js)}
                            for js in _share_sets(code)
                        ],
                    }
                )
    path.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")


def test_encoders_match_their_pinned_digests():
    cases = json.loads(DIGESTS.read_text(encoding="utf-8"))["cases"]
    assert len(cases) == 32
    assert sum(len(case["plans"]) for case in cases) >= 64
    changed = []
    for case in cases:
        p, n, rows = parse_code_file(case["code"])
        code = validate_stabilizer(rows, p, n)
        for plan in case["plans"]:
            if circuit_digest(code, tuple(plan["shares"])) != plan["sha256"]:
                changed.append((case["code"].splitlines()[0], plan["shares"]))
    assert not changed, changed[:3]


if __name__ == "__main__":
    write_digests()
