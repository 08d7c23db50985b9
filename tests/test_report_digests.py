"""Every CLI report whose values are integer-derived, pinned byte for byte.

``golden/cli_digests.json`` lists random codes (``random_stabilizer`` at
p in {2, 3, 5, 7}, n <= 7), each with its code-file text and a list of ops.
An op is an argv (``CODE`` stands for the code file) and the sha256 of
:func:`digest`, which covers the exit code, stdout and stderr.  The ops are
``validate``, ``analyze --max-size 0..3`` and ``demo --trials 0``, with and
without ``--json-only``; ``--J`` that is shareable, not shareable, out of
range or ``none``; and small ``--budget`` values, so that exit 2 and its
message appear.  Each code also runs ``demo --trials 1`` and ``--trials 2``
with ``--json-only``, its shareable ``--J`` and ``none``, which pins the
protocol's integer fields: the syndromes, the corrections and the draw
order that picks them.  Its fidelities come from BLAS, so :func:`digest`
hashes them rounded to 9 decimals; the golden demo reports cover them
within a tolerance.

To regenerate the file after an announced change of the report bytes, call
:func:`write_digests`, e.g. ``python3 tests/test_report_digests.py`` with
``src`` on ``PYTHONPATH``.
"""

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from advshare import advance, cli, gfp
from advshare.codefile import format_code_file
from advshare.pauli import random_stabilizer

DIGESTS = Path(__file__).resolve().parent / "golden" / "cli_digests.json"

#: Codes drawn per prime.
CODES_PER_PRIME = 8


def digest(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of one CLI run.

    A report with transcripts is hashed with each ``fidelities`` entry and
    each ``min_fidelity`` rounded to 9 decimals.
    """
    out, err = io.StringIO(), io.StringIO()
    status = cli.run(argv, stdout=out, stderr=err)
    text = out.getvalue()
    if '"transcripts"' in text:
        report = json.loads(text)
        for row in report["demo"]["transcripts"]:
            row["fidelities"] = [round(f, 9) for f in row["fidelities"]]
            row["min_fidelity"] = round(row["min_fidelity"], 9)
        text = json.dumps(report, indent=2) + "\n"
    return hashlib.sha256(json.dumps([status, text, err.getvalue()]).encode()).hexdigest()


def _ops(code, rng: np.random.Generator) -> list[list[str]]:
    """The argvs run on one code; ``CODE`` stands for its file."""
    n = code.n
    shareable = advance.shareable_sets(code, n)
    others = [
        tuple(int(j) for j in np.flatnonzero(rng.permutation(n) < w) + 1)
        for w in range(1, n + 1)
    ]
    refused = [js for js in others if js not in shareable]
    shares = ["none", str(n + 1), "0," + str(n)]
    protocol = ["none"]
    if shareable:
        shares.append(",".join(map(str, shareable[rng.integers(len(shareable))])))
        protocol.append(shares[-1])
    if refused:
        shares.append(",".join(map(str, refused[rng.integers(len(refused))])))
    ops = [["validate", "CODE"]]
    ops += [["analyze", "CODE", "--max-size", str(size)] for size in range(4)]
    ops += [["demo", "CODE", "--trials", "0", "--J", js] for js in shares]
    for command in ("validate", "analyze", "demo"):
        budget = str(rng.integers(0, 2**n + 1))
        extra = ["--trials", "0", "--J", "none"] if command == "demo" else []
        ops.append([command, "CODE", "--budget", budget, *extra])
    ops = [op + ["--json-only"] if rng.random() < 0.5 else op for op in ops]
    for js in protocol:
        ops += [["demo", "CODE", "--trials", trials, "--J", js, "--json-only"] for trials in "12"]
    return ops


def _cases() -> list[tuple[str, list[list[str]]]]:
    rng = np.random.default_rng(20261019)
    cases = []
    for p in gfp.PRIMES:
        for _ in range(CODES_PER_PRIME):
            n = int(rng.integers(1, 8))
            code = random_stabilizer(p, n, int(rng.integers(0, n + 1)), rng)
            cases.append((format_code_file(code), _ops(code, rng)))
    return cases


def _replay(text: str, argv: list[str], path: Path) -> str:
    path.write_text(text, encoding="utf-8")
    return digest([str(path) if arg == "CODE" else arg for arg in argv])


def write_digests(path: Path = DIGESTS) -> None:
    """Write the digests of every op as the code in ``src`` answers them."""
    work = path.parent / "digest.code"
    cases = [
        {"code": text, "ops": [{"argv": op, "sha256": _replay(text, op, work)} for op in ops]}
        for text, ops in _cases()
    ]
    work.unlink()
    path.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")


def test_reports_match_their_pinned_digests(tmp_path):
    cases = json.loads(DIGESTS.read_text(encoding="utf-8"))["cases"]
    assert sum(len(case["ops"]) for case in cases) >= 150
    work = tmp_path / "digest.code"
    changed = [
        (case["code"], op["argv"])
        for case in cases
        for op in case["ops"]
        if _replay(case["code"], op["argv"], work) != op["sha256"]
    ]
    assert not changed, changed[:3]


if __name__ == "__main__":
    write_digests()
