"""Independent check of one CLI report against the benchmark's own algebra.

Every expected value comes from ranks of column-restricted check matrices
(:mod:`perfbench.fp`).  With H the check matrix (r = n - k rows), H_E its
columns owned by the share set E and E' the complement of E:

* dim S_E  = r - rank(H_E')      checks supported inside E;
* dim S⊥_E = 2|E| - rank(H_E)    dual vectors supported inside E;
* E is a correctable erasure iff dim S⊥_E == dim S_E;
* the distance d is the smallest |E| with dim S⊥_E > dim S_E (k >= 1);
* the dual minimum weight is the smallest |E| with dim S⊥_E > 0;
* J is advance shareable iff rank(H_J) == 2|J|.

A report either passes or yields a list of problems; the caller counts a
problem list as a failed op and never retries it.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import jsonschema

from . import fp
from .codes import Code

FIDELITY_TOL = 1e-9
MI_TOL = 1e-6

#: The message of the recorded k = 0 defect: ``demo --trials >= 1`` on a
#: k = 0 code draws a zero-qudit secret with a random global phase, which
#: ``encode_advance`` rejects.
K0_DEFECT = "k = 0 code admits only the trivial secret"


@functools.lru_cache(maxsize=None)
def _validator(schema_path: str):
    schema = json.loads(Path(schema_path).read_text(encoding="utf-8"))
    return jsonschema.Draft7Validator(schema)


class Reference:
    """Expected code parameters, computed lazily from rank tables."""

    def __init__(self, code: Code):
        self.code = code
        self.full = (1 << code.n) - 1
        self._ranks: dict[int, int] = {}

    def ranks(self, masks) -> list[int]:
        missing = [m for m in dict.fromkeys(masks) if m not in self._ranks]
        if missing:
            got = fp.column_ranks(self.code.rows, missing, self.code.p, self.code.n)
            self._ranks.update(zip(missing, (int(v) for v in got)))
        return [self._ranks[m] for m in masks]

    def dims(self, masks) -> list[tuple[int, int]]:
        """(dim S⊥_E, dim S_E) per share mask E."""
        r = self.code.n - self.code.k
        inside = self.ranks(masks)
        outside = self.ranks([self.full ^ m for m in masks])
        return [
            (2 * m.bit_count() - a, r - b) for m, a, b in zip(masks, inside, outside)
        ]

    def _smallest_weight(self, test) -> int:
        for w in range(1, self.code.n + 1):
            masks = fp.masks_of_size(self.code.n, w)
            if any(test(d) for d in self.dims(masks)):
                return w
        raise AssertionError("no share set satisfies the weight test")

    @functools.cached_property
    def distance(self) -> int | None:
        if self.code.k == 0:
            return None
        return self._smallest_weight(lambda d: d[0] > d[1])

    @functools.cached_property
    def dual_min_weight(self) -> int:
        return self._smallest_weight(lambda d: d[0] > 0)

    def shareable(self, masks) -> list[bool]:
        return [rk == 2 * m.bit_count() for m, rk in zip(masks, self.ranks(masks))]

    def labels(self) -> dict[int, str]:
        """Access label of every share mask."""
        masks = list(range(self.full + 1))
        ok = {m: a == b for m, (a, b) in zip(masks, self.dims(masks))}
        out = {}
        for m in masks:
            if ok[self.full ^ m]:
                out[m] = "qualified"
            elif ok[m]:
                out[m] = "forbidden"
            else:
                out[m] = "intermediate"
        return out


def parameters(code: Code, distance: int | None) -> str:
    return f"[[{code.n},{code.k},{'?' if distance is None else distance}]]_{code.p}"


def check_report(report: dict, op, schema_path: str, ref: Reference | None = None) -> list[str]:
    """Problems found in the report of ``op`` (empty when it is correct)."""
    code = op.code
    ref = ref or Reference(code)
    problems = [e.message for e in _validator(schema_path).iter_errors(report)][:3]
    if "error" in report:
        return problems + [f"error report: {report['error']}"]
    if report.get("command") != op.command:
        problems.append(f"command {report.get('command')!r} != {op.command!r}")
    sec = report.get("code", {})
    expected_code = {
        "p": code.p,
        "n": code.n,
        "k": code.k,
        "distance": ref.distance,
        "parameters": parameters(code, ref.distance),
        "check_matrix": code.rows.tolist(),
    }
    for key, want in expected_code.items():
        if sec.get(key) != want:
            problems.append(f"code.{key}: got {sec.get(key)!r}, want {want!r}")
    if op.command == "analyze":
        problems += _check_analyze(report.get("advance_shareable", {}), op, ref)
    if op.command == "demo":
        problems += _check_demo(report.get("demo", {}), op, ref)
    return problems


def _check_analyze(sec: dict, op, ref: Reference) -> list[str]:
    problems = []
    n = ref.code.n
    if sec.get("max_size") != op.max_size:
        problems.append(f"max_size {sec.get('max_size')} != {op.max_size}")
    dmw = ref.dual_min_weight
    if sec.get("dual_min_weight") != dmw:
        problems.append(f"dual_min_weight {sec.get('dual_min_weight')} != {dmw}")
    candidates = [
        m for w in range(1, min(op.max_size, n) + 1) for m in fp.masks_of_size(n, w)
    ]
    expected = sorted(
        fp.mask_to_shares(m, n) for m, ok in zip(candidates, ref.shareable(candidates)) if ok
    )
    listed = [tuple(s.get("shares", ())) for s in sec.get("sets", [])]
    if listed != expected:
        missing = sorted(set(expected) - set(listed))[:3]
        extra = sorted(set(listed) - set(expected))[:3]
        problems.append(f"shareable sets differ: missing {missing}, unexpected {extra}")
    for s in sec.get("sets", []):
        cert = s.get("certificates", {})
        if cert.get("theorem1") is not True:
            problems.append(f"set {s.get('shares')}: theorem1 is not true")
        if cert.get("theorem2") != (len(s.get("shares", ())) < dmw):
            problems.append(f"set {s.get('shares')}: theorem2 {cert.get('theorem2')}")
    return problems


def _check_demo(sec: dict, op, ref: Reference) -> list[str]:
    problems = []
    code = ref.code
    n, k = code.n, code.k
    if tuple(sec.get("shares", ())) != op.J:
        problems.append(f"demo shares {sec.get('shares')} != {list(op.J)}")
    if sec.get("trials") != op.trials:
        problems.append(f"demo trials {sec.get('trials')} != {op.trials}")
    labels = ref.labels()
    table = sec.get("access_table", [])
    order = [m for w in range(n + 1) for m in fp.masks_of_size(n, w)]
    if [fp.shares_to_mask(e.get("shares", ())) for e in table] != order:
        problems.append("access table does not list every subset once, by size")
        return problems
    qualified = []
    for mask, entry in zip(order, table):
        want = labels[mask]
        if entry.get("label") != want:
            problems.append(f"access {entry.get('shares')}: {entry.get('label')} != {want}")
        if want == "qualified":
            qualified.append(tuple(entry.get("shares", ())))
        if op.trials >= 1:
            mi = entry.get("mutual_information")
            target = {"qualified": 2 * k, "forbidden": 0}.get(want)
            if mi is None:
                problems.append(f"access {entry.get('shares')}: no mutual information")
            elif target is not None and abs(mi - target) > MI_TOL:
                problems.append(f"access {entry.get('shares')}: I = {mi}, want {target}")
        elif "mutual_information" in entry:
            problems.append("mutual information reported with --trials 0")
    if op.trials >= 1:
        transcripts = sec.get("transcripts", [])
        if [tuple(t.get("accessible", ())) for t in transcripts] != qualified:
            problems.append("transcripts do not cover exactly the qualified sets")
        for t in transcripts:
            fids = t.get("fidelities", [])
            if len(fids) != op.trials or t.get("trials") != op.trials:
                problems.append(f"transcript {t.get('accessible')}: {len(fids)} trials")
            worst = min(fids + [t.get("min_fidelity", 0.0)])
            if worst < 1 - FIDELITY_TOL:
                problems.append(f"transcript {t.get('accessible')}: fidelity {worst}")
    elif "transcripts" in sec:
        problems.append("transcripts reported with --trials 0")
    return problems[:10]


def is_known_defect(op, exit_code: int, report: dict | None) -> bool:
    """Whether a failure is exactly the recorded k = 0 defect."""
    return (
        op.command == "demo"
        and op.k == 0
        and op.trials >= 1
        and exit_code == 1
        and report is not None
        and K0_DEFECT in report.get("error", {}).get("message", "")
    )
