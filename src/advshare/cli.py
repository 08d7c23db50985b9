"""Command-line front end.

Three subcommands over check-matrix files (see :mod:`advshare.codefile`):

* ``advshare validate FILE`` prints the code parameters.
* ``advshare analyze FILE --max-size M`` lists advance-shareable share sets
  with their certificates.
* ``advshare demo FILE --J 4 --seed 1 --trials 2`` runs the whole protocol:
  plan, encoding circuit, access table, and erase/decode transcripts.

One JSON document goes to stdout (schema shipped as
``advshare/schema/report.schema.json``); a human summary goes to stderr
unless ``--json-only``.  The report's bytes are ``json.dumps(report,
indent=2)``'s, written by :func:`_json_text`: recursively, except that a
list of plain ints or plain strings (matrix rows, syndromes, the circuit's
gates, one ``str`` per run of equal gates) goes in one ``str.join``.  The
access table (held per set size as columns) and the advance-shareable sets
(one list in lexicographic order) are written from one ``%``-template per
set size, which :func:`_json_text` itself writes from a row whose varying
fields are unquoted slots (:class:`_Slot`).  :func:`_emit` sends the report
out piece by piece, the access table one size at a time, so no string of
the whole report is built.  Share indices are 1-based.  Exit codes: 0 success,
1 invalid input, 2 budget exceeded, 3 internal error.  Only the inputs are
checked as input: the counts (a negative ``--budget``, ``--max-size``,
``--trials`` or ``--seed``), the code file, and for ``demo`` the ``--J``
shares (parsed, in range and advance shareable) and ``--trials`` on a
k = 0 code, which the protocol cannot run yet: it has only the trivial
secret, and the simulator draws it with a random global phase that the
encoder rejects.  Any error raised after those checks is internal.
``--budget`` bounds the share sets that every walk visits: the distance,
dual-weight and access-table walks, ``analyze``'s advance-shareable
candidate sets, and a ``demo``'s trials (qualified sets times
``--trials``), so a huge ``--trials`` exits 2 with the code section and
the budget error.
Every refusal writes the usual JSON report, its type, exit code and stderr
lead read from one table; an argparse usage error prints argparse's message
on stderr, writes no report and also exits 1.  A count of 2**64 or more is
written as a power of 2, so a huge n exits 2, never 3.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import advance, codefile, sim
from .access import AccessLabel, check_budget
from .clifford import encoding_circuit
from .errors import (
    AdvShareError,
    BudgetExceededError,
    CodeFileError,
    DependentRowsError,
    NotAdvanceShareableError,
    NotCommutativeError,
)
from .gfp import DEFAULT_ENUM_BUDGET
from .pauli import StabilizerCode, code_distance, validate_stabilizer

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3


class _InputError(Exception):
    """Bad input, found by an input check; :func:`run` exits 1 on it."""


_INPUT_ERRORS = (
    CodeFileError,
    NotCommutativeError,
    DependentRowsError,
    NotAdvanceShareableError,
    ValueError,
    OSError,
)

_REPORTED_ERRORS = (AdvShareError, ValueError, OSError, RuntimeError, AssertionError)

#: How :func:`run` reports an error, first match wins: type, exit code, stderr lead.
_REFUSALS = (
    (_InputError, "invalid-input", EXIT_INVALID, "error"),
    (BudgetExceededError, "budget", EXIT_BUDGET, "budget exceeded"),
    (_REPORTED_ERRORS, "internal", EXIT_INTERNAL, "internal error"),
)


def _input_check(check):
    """Make ``check`` raise its input errors as :class:`_InputError`."""

    @functools.wraps(check)
    def checked(*args):
        try:
            return check(*args)
        except _INPUT_ERRORS as exc:
            raise _InputError(str(exc)) from exc

    return checked


_INFINITY = float("inf")

#: Access labels by their index in :class:`AccessLabel`, as names and as
#: JSON text.
_LABEL_NAMES = tuple(label.value for label in AccessLabel)
_LABEL_TEXTS = tuple(map(encode_basestring_ascii, _LABEL_NAMES))


class _Slot(str):
    """A ``%`` conversion (``%d``, ``%s``, ``%r``) that :func:`_json_text`
    writes unquoted, so that a row with slots writes its own template."""


class _HeldRows:
    """A report's list of rows of one shape, held outside any per-row dict.

    :meth:`pieces` writes the rows in blocks, each block from ``%``-templates
    that :func:`_json_text` writes from a row with slots (``_blocks``).
    """

    def pieces(self, indent: str):
        """The list's JSON text closed at ``indent``, one piece per block."""
        inner = indent + "  "
        opening, sep = "[" + inner, "," + inner
        for block in self._blocks(inner):
            yield opening + sep.join(block)
            opening = sep
        yield indent + "]" if opening == sep else "[]"


class _AccessTable(_HeldRows):
    """The ``demo`` access table, held per set size as columns.

    ``sizes`` holds one tuple per set size: an ``(m, w)`` array of share
    sets, their label codes (indices in :class:`AccessLabel`) and, when
    trials run, their mutual information as floats.  Each nonempty size is
    one block, written from one template over its zipped columns.
    """

    def __init__(self, sizes: list[tuple]):
        self.sizes = sizes

    def _blocks(self, inner: str):
        for sets, codes, *information in self.sizes:
            if len(sets):
                w = sets.shape[1]
                row = {"shares": [_Slot("%d")] * w, "size": w, "label": _Slot("%s")}
                if information:
                    row["mutual_information"] = _Slot("%r")
                columns = [*sets.T.tolist(), map(_LABEL_TEXTS.__getitem__, codes.tolist())]
                columns += (i.tolist() for i in information)
                yield map(_json_text(row, inner).__mod__, zip(*columns))


class _ShareableSets(_HeldRows):
    """The ``analyze`` advance-shareable sets, as share tuples in
    lexicographic order, with the dual minimum weight.  Every listed set
    passes the exact criterion (Theorem 1), and the weight shortcut
    (Theorem 2) certifies exactly the sets below the dual minimum weight,
    so both certificates are constant for a size."""

    def __init__(self, sets: list[tuple[int, ...]], dual_weight: int):
        self.sets = sets
        self.dual_weight = dual_weight

    def _blocks(self, inner: str):
        templates = {}
        for w in set(map(len, self.sets)):
            certificates = {"theorem1": True, "theorem2": w < self.dual_weight}
            row = {"shares": [_Slot("%d")] * w, "certificates": certificates}
            templates[w] = _json_text(row, inner)
        return [[templates[len(s)] % s for s in self.sets]] if self.sets else []


_PLAIN_INTS, _PLAIN_STRS = {int}, {str}


def _json_text(value, indent: str = "\n") -> str:
    """Exactly ``json.dumps(value, indent=2)``, without the stdlib's
    pure-Python indenting encoder.

    Each container's items are rendered recursively and joined in one
    ``str.join``; ``indent`` is the newline and indentation its closing
    bracket sits on.  Strings go through the stdlib's ASCII escaper, ints
    and floats through ``int.__repr__`` and ``float.__repr__``, and NaN
    and +-Infinity are spelled as ``json`` spells them.  Tuples are
    written as lists, and a list whose items are all plain ``int`` (no
    bools or subclasses) or all plain ``str`` in one ``str.join``; dict
    keys must be strings, as in every report.  Any other type raises
    ``TypeError``, as ``json.dumps`` does, except held rows
    (:class:`_HeldRows`), which are joined from their pieces.  A
    :class:`_Slot` is written as it stands, unquoted.
    """
    if isinstance(value, str):
        return value if type(value) is _Slot else encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    if isinstance(value, _HeldRows):
        return "".join(value.pieces(indent))
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        types = set(map(type, value))
        if types == _PLAIN_INTS:
            items = map(int.__repr__, value)
        elif types == _PLAIN_STRS:
            items = map(encode_basestring_ascii, value)
        else:
            items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, v in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _json_text(v, inner))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _pieces(value, indent: str = "\n"):
    """``_json_text(value, indent)`` in pieces: a dict item by item, and held
    rows one size at a time."""
    if isinstance(value, _HeldRows):
        yield from value.pieces(indent)
    elif isinstance(value, dict) and value:
        inner, opening = indent + "  ", "{"
        for key, v in value.items():
            yield opening + inner + encode_basestring_ascii(key) + ": "
            yield from _pieces(v, inner)
            opening = ","
        yield indent + "}"
    else:
        yield _json_text(value, indent)


def _emit(report: dict, stdout) -> None:
    """Write the report as ``json.dumps(report, indent=2)`` and a newline,
    piece by piece, so no string of the whole report is built."""
    stdout.writelines(_pieces(report))
    stdout.write("\n")


def _parameters_string(code: StabilizerCode, distance: int | None, pairs: int | None = None) -> str:
    """``[[n,k,d]]_p``, or with ``pairs`` the assisted ``[[n-c,k,d;c]]_p``;
    d is ``?`` when unknown."""
    d = "?" if distance is None else str(distance)
    if pairs is None:
        return f"[[{code.n},{code.k},{d}]]_{code.p}"
    return f"[[{code.n - pairs},{code.k},{d};{pairs}]]_{code.p}"


@_input_check
def _load(path: str) -> StabilizerCode:
    text = Path(path).read_text(encoding="utf-8")
    p, n, rows = codefile.parse_code_file(text)
    return validate_stabilizer(rows, p, n)


def _code_section(code: StabilizerCode, budget: int) -> dict:
    distance = code_distance(code, budget=budget) if code.k >= 1 else None
    return {
        "p": code.p,
        "n": code.n,
        "k": code.k,
        "distance": distance,
        "parameters": _parameters_string(code, distance),
        "check_matrix": code.check_matrix.tolist(),
    }


def _analyze_section(code: StabilizerCode, max_size: int, budget: int) -> dict:
    threshold = advance.dual_min_weight(code, budget=budget)
    sets = _ShareableSets(advance.shareable_sets(code, max_size, budget=budget), threshold)
    return {"max_size": max_size, "dual_min_weight": threshold, "sets": sets}


@_input_check
def _demo_shares(code: StabilizerCode, text: str, trials: int) -> tuple[int, ...]:
    """The ``--J`` shares, refused unless parsed, in range and advance
    shareable; trials on a k = 0 code are refused too."""
    shares = _parse_shares(text)
    if not advance.is_advance_shareable(code, shares):
        raise NotAdvanceShareableError(
            f"shares {shares} are not advance shareable for this code"
        )
    if trials > 0 and code.k == 0:
        raise ValueError("k = 0 code admits only the trivial secret")
    return shares


def _demo_section(
    code: StabilizerCode,
    shares: tuple[int, ...],
    seed: int,
    trials: int,
    enum_budget: int,
    budget: int,
    distance: int | None,
) -> dict:
    # A table that cannot fit is refused before the plan and circuit are built.
    if code.n >= enum_budget.bit_length():
        check_budget(1 << code.n, enum_budget, "access table")
    plan = advance.construct_eaqecc(code, shares)
    circuit = encoding_circuit(plan)
    length, logical, pairs = plan.parameters()
    nf = plan.normal
    section: dict = {
        "shares": list(shares),
        "seed": seed,
        "trials": trials,
        "normal_form": {
            "shares": list(nf.shares),
            "mu": list(nf.mu),
            "h_prime": nf.h_prime.tolist(),
        },
        "plan": {
            "parameters": _parameters_string(code, distance, pairs),
            "length": length,
            "logical": logical,
            "pairs": pairs,
            "ancillas": plan.ell,
            "source_generators": [str(g) for g in plan.source_generators],
            "target_generators": [str(g) for g in plan.target_generators],
            "epr_pairs": [list(pair) for pair in plan.epr_pairs],
            "zero_shares": list(plan.zero_shares),
            "secret_shares": list(plan.secret_shares),
        },
        "circuit": {
            "wires": circuit.m,
            "gates": [text for g, count in circuit.runs for text in [str(g)] * count],
        },
    }
    # Sets run by size, each size in lexicographic share order; one level of
    # ranks per size, read forwards and reversed, gives every label and, when
    # trials run, the mutual information and the qualified sets.
    structure = code.share_structure()
    sizes = []
    for w in range(code.n + 1):
        ranks = w, structure.level(w), structure.level(code.n - w)[::-1]
        information = [structure.mutual_information(*ranks).astype(float)] if trials > 0 else []
        sizes.append((structure.sets(w), structure.label_codes(*ranks), *information))
    section["access_table"] = _AccessTable(sizes)
    if trials > 0:
        qualified = [s for sets, codes, _ in sizes for s in sets[codes == 0].tolist()]
        check_budget(len(qualified) * trials, enum_budget, "protocol trials")
        transcript = sim.simulate_protocol(plan, circuit, seed, trials, qualified, budget=budget)
        section["syndrome"] = list(transcript.syndrome)
        grouped: dict[tuple[int, ...], list] = {}
        for rec in transcript.trials:
            grouped.setdefault(rec.accessible, []).append(rec)
        section["transcripts"] = [
            {
                "accessible": list(acc),
                "erased": list(records[0].erased),
                "trials": len(records),
                "fidelities": [r.fidelity for r in records],
                "min_fidelity": min(r.fidelity for r in records),
                "measured_syndromes": [list(r.measured_syndrome) for r in records],
                "corrections": [list(r.correction) for r in records],
            }
            for acc, records in grouped.items()
        ]
    return section


def _summarize(report: dict, stream) -> None:
    code = report["code"]
    print(f"code: {code['parameters']}", file=stream)
    if "advance_shareable" in report:
        section = report["advance_shareable"]
        names = [",".join(map(str, s)) for s in section["sets"].sets]
        print(
            f"advance-shareable sets up to size {section['max_size']} "
            f"(dual min weight {section['dual_min_weight']}): "
            + (" ".join("{" + t + "}" for t in names) or "none"),
            file=stream,
        )
    if "demo" in report:
        demo = report["demo"]
        print(
            f"demo: J={{{','.join(map(str, demo['shares']))}}} "
            f"plan {demo['plan']['parameters']} circuit {len(demo['circuit']['gates'])} gates",
            file=stream,
        )
        sizes = demo["access_table"].sizes
        counts = sum(np.bincount(size[1], minlength=len(_LABEL_NAMES)) for size in sizes)
        labels = sorted(zip(_LABEL_NAMES, counts.tolist()))
        print("access table: " + ", ".join(f"{v} {k}" for k, v in labels if v), file=stream)
        if "transcripts" in demo:
            worst = min(t["min_fidelity"] for t in demo["transcripts"])
            print(
                f"reconstruction over {len(demo['transcripts'])} qualified sets: "
                f"min fidelity {worst:.12f}",
                file=stream,
            )


def _parse_shares(text: str | None) -> tuple[int, ...]:
    if not text or text.lower() == "none":
        return ()
    try:
        return tuple(sorted({int(t) for t in text.replace(",", " ").split()}))
    except ValueError:
        raise ValueError(f"cannot parse share list {text!r}") from None


class _UsageError(Exception):
    """An argparse usage error; its text is what argparse would print."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting with argparse's status 2,
    which is this CLI's budget code; :func:`run` turns them into exit 1.
    Subparsers are built from the same class."""

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="advshare",
        description="Advance-sharing analysis for stabilizer-based quantum secret sharing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "analyze", "demo"):
        cmd = sub.add_parser(name)
        cmd.add_argument("file", help="check matrix file (see docs for format)")
        cmd.add_argument(
            "--budget",
            type=int,
            default=None,
            help="cap on share sets visited by the distance, dual-weight and "
            "access-table walks, analyze's advance-shareable candidate sets "
            "and the protocol trials (--trials per qualified set), and on "
            "dense state sizes",
        )
        cmd.add_argument("--json-only", action="store_true")
        if name == "analyze":
            cmd.add_argument("--max-size", type=int, default=1)
        if name == "demo":
            cmd.add_argument("--J", default="", help="comma-separated advance shares")
            cmd.add_argument("--seed", type=int, default=0)
            cmd.add_argument("--trials", type=int, default=1)
    return parser


def _check_counts(args: argparse.Namespace) -> None:
    """Refuse a negative --budget, --max-size, --trials or --seed as input."""
    for option in ("budget", "max_size", "trials", "seed"):
        value = getattr(args, option, None)
        if value is not None and value < 0:
            flag = "--" + option.replace("_", "-")
            raise _InputError(f"{flag} must be at least 0, got {value}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser :func:`run` reuses; parsing leaves it unchanged."""
    return build_parser()


def run(argv: list[str] | None = None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, end="", file=stderr)
        return EXIT_INVALID
    enum_budget = args.budget if args.budget is not None else DEFAULT_ENUM_BUDGET
    state_budget = args.budget if args.budget is not None else sim.DEFAULT_STATE_BUDGET
    report: dict = {"schema_version": SCHEMA_VERSION, "command": args.command}
    try:
        _check_counts(args)
        code = _load(args.file)
        if args.command == "demo" and code.n < enum_budget.bit_length():
            # Ranked first, the table's sizes also answer the distance walk's complements.
            for w in range(code.n + 1):
                code.share_structure().level(w)
        report["code"] = _code_section(code, enum_budget)
        if args.command == "analyze":
            report["advance_shareable"] = _analyze_section(
                code, args.max_size, enum_budget
            )
        elif args.command == "demo":
            shares = _demo_shares(code, args.J, args.trials)
            distance = report["code"]["distance"]
            report["demo"] = _demo_section(
                code, shares, args.seed, args.trials, enum_budget, state_budget, distance
            )
    except (_InputError, *_REPORTED_ERRORS) as exc:
        kind, status, lead = next(row[1:] for row in _REFUSALS if isinstance(exc, row[0]))
        report["error"] = {"type": kind, "message": str(exc)}
        _emit(report, stdout)
        print(f"{lead}: {exc}", file=stderr)
        return status
    _emit(report, stdout)
    if not args.json_only:
        _summarize(report, stderr)
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
