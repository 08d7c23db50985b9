"""The three workloads: fixed ladders of (command, p, n, k) rungs.

One cycle runs every rung of a workload once, each on a fresh code drawn
from (seed, workload, op index), so no two ops share a code and an
in-process cache cannot reuse work between them.  A run repeats whole
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rung:
    command: str
    p: int
    n: int
    k: int
    trials: int = 0
    max_size: int = 0

    @property
    def label(self) -> str:
        extra = ""
        if self.command == "analyze":
            extra = f" --max-size {self.max_size}"
        elif self.command == "demo":
            extra = f" --trials {self.trials}"
        return f"{self.command} [[{self.n},{self.k}]]_{self.p}{extra}"

    @property
    def span(self) -> int:
        """Dual vectors a distance scan enumerates, p**(n+k)."""
        return self.p ** (self.n + self.k)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rungs: tuple[Rung, ...]
    #: the untimed op that set-up runs once per round
    warmup: Rung
    #: the speed gauge (``run.KERNELS``) that does this workload's kind of
    #: array work: "span" for large span blocks, "rank" for small arrays
    probe: str
    #: Fixed tail quantile q, so a faster program, which fits more ops into a
    #: run, does not shift the tail.  At the seed's speed at least ten ops lie
    #: beyond it.  q * (len(rungs) - 1) is a whole number and len(rungs) is
    #: odd, so with C cycles both q and the median fall in the middle of one
    #: rung's block of C samples, where the Harrell-Davis weights centre.
    tail_quantile: float


def _scan() -> tuple[Rung, ...]:
    codes = [(2, 16, 1), (2, 15, 2), (3, 10, 1), (3, 9, 2),
             (5, 7, 1), (5, 6, 2), (7, 6, 1), (7, 5, 2)]
    rungs = [Rung("validate", 2, 14, 3)]
    for p, n, k in codes:
        rungs.append(Rung("validate", p, n, k))
        rungs.append(Rung("analyze", p, n, k, max_size=1))
    return tuple(rungs)


def _access() -> tuple[Rung, ...]:
    codes = [(2, 9, 1), (2, 9, 0), (2, 8, 2), (3, 8, 0),
             (3, 8, 1), (3, 7, 2), (5, 7, 0), (7, 7, 0)]
    rungs = [Rung("demo", 2, 8, 1, trials=0)]
    for p, n, k in codes:
        rungs.append(Rung("demo", p, n, k, trials=0))
        rungs.append(Rung("analyze", p, n, k, max_size=(n - k) // 2))
    return tuple(rungs)


def _protocol() -> tuple[Rung, ...]:
    codes = [(2, 7, 1, 1), (2, 7, 2, 1), (2, 6, 1, 2), (2, 5, 1, 2),
             (2, 6, 0, 1), (3, 5, 1, 1), (3, 4, 2, 1), (3, 4, 1, 2), (3, 3, 1, 2),
             (5, 3, 1, 1), (5, 2, 1, 2), (7, 2, 1, 2), (7, 3, 0, 1)]
    return tuple(Rung("demo", p, n, k, trials=t) for p, n, k, t in codes)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan",
            "validate and analyze --max-size 1 with dual spans of 2^17-2^20: the "
            "gfp/symplectic/pauli exhaustive scans do nearly all the work",
            _scan(),
            Rung("validate", 3, 10, 1),
            "span",
            0.75,
        ),
        Workload(
            "access",
            "demo --trials 0 and analyze up to (n-k)/2 on n=7-9: access "
            "classification, erasure tests, shortening and rref dominate; no dense state",
            _access(),
            Rung("demo", 3, 8, 0),
            "rank",
            0.875,
        ),
        Workload(
            "protocol",
            "demo --trials 1-2 within the 4096-amplitude budget: encode, decode, gates and "
            "entropy eigensolves dominate; k=0 rungs fail by a known advshare defect, not "
            "a benchmark fault",
            _protocol(),
            Rung("demo", 3, 4, 1, trials=1),
            "rank",
            5 / 6,
        ),
    )
}
