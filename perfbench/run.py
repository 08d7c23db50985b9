"""Benchmark of the advshare command line, driven in-process.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run it from the repository root.  One caller drives
``advshare.cli.run(argv, stdout=..., stderr=...)`` in a closed loop: each op
starts when the previous one has ended, on a code file the benchmark
generated from ``--seed``.  Whole cycles of the workload's ladder run until
another cycle would overrun ``--seconds``.  Every report is checked outside
the timed region against the benchmark's own algebra; an op whose exit
code or report fails counts as failed and is never retried.

Op times are CPU seconds at a reference speed, not wall seconds.  An op's
CPU time (user + system, of this process and of any child it waited for)
excludes the time other tenants of a shared host hold the core; the
program is single-threaded with BLAS pinned to one thread, so on an idle
core CPU and wall time agree.  The core's own speed still drifts by tens
of percent within seconds on a shared host, so between ops the benchmark
times a fixed kernel of its own that does the workload's kind of array
work (:func:`probe`), and each op's CPU time is scaled by the kernel's
``REFERENCE_S`` over the median probe time around it.  Raw CPU and wall
times are kept in the result file.  The median and tail op times are
Harrell-Davis quantile estimates.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each op
twice, untraced and then traced on another code of the same rung, and
prints per-layer metrics per traced op plus the tracing overhead.  The
last line of stdout is one JSON object; the full record (every op, its
code digest, latencies by rung, layer self times) is written to
``perfbench/out/``.  BLAS is pinned to one thread.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, so dense linear algebra runs on one thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import codes, fp  # noqa: E402
from perfbench.check import Reference, check_report, is_known_defect  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Rung, Workload  # noqa: E402

SRC = ROOT / "src"
SCHEMA = SRC / "advshare" / "schema" / "report.schema.json"
OUT = ROOT / "perfbench" / "out"

SETUP_ROUNDS = 7

#: An op's speed is the median of the probes this many slots around it.
PROBE_WINDOW = 3
_RNG = np.random.default_rng(0)
_RANK_STACK = _RNG.integers(0, 5, size=(48, 8, 16))
_SPAN_BASIS = _RNG.integers(0, 2, size=(17, 32))
_SPAN_RADIX = 2 ** np.arange(16, -1, -1)
WARMUP_TIMEOUT_S = 120

#: Stream ids keep the codes of timed ops, warm-ups and untraced twins apart.
TIMED, WARMUP, TWIN = 0, 1, 2

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}

#: Traced functions reported by call count, and by self time, per traced op.
LAYER_CALLS = (
    "gfp.rref", "gfp.kernel", "gfp.solve",
    "symplectic.symplectic_dual", "symplectic.shorten",
    "advance.is_advance_shareable",
    "clifford.conjugate_pauli", "clifford.apply_circuit_tensor",
    "sim.classify_access", "sim.correctable_erasure", "sim.entropy",
    "sim.encode_advance", "sim.erase_and_decode", "sim.measure_pauli",
)
LAYER_SELF = (
    "gfp.rref", "gfp.kernel", "gfp.iter_span",
    "symplectic.symplectic_dual", "symplectic.shorten", "symplectic.min_symplectic_weight",
    "pauli.code_distance", "pauli.validate_stabilizer", "codefile.parse_code_file",
    "advance.is_advance_shareable", "advance.enumerate_advance_shareable",
    "advance.construct_eaqecc",
    "clifford.synthesize", "clifford.conjugate_pauli", "clifford.apply_circuit_tensor",
    "sim.classify_access", "sim.correctable_erasure", "sim.mutual_information_table",
    "sim.entropy", "sim.reduced_density", "sim.simulate_protocol", "sim.encode_advance",
    "sim.erase_and_decode", "sim.measure_pauli",
    "cli.run",
)


def cpu_clock() -> float:
    """CPU seconds of this process plus every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _rank_kernel() -> None:
    """Small-array work, like share-set algebra and dense simulation."""
    for _ in range(3):
        fp.batched_rank(_RANK_STACK, 5)


def _span_kernel() -> None:
    """One 2^14-vector span block and its weights, like a distance scan."""
    coeffs = (np.arange(1 << 14)[:, None] // _SPAN_RADIX[None, :]) % 2
    vectors = (coeffs @ _SPAN_BASIS) % 2
    (vectors != 0).sum(axis=1).min()


#: The speed gauges, by the kind of array work a workload's ops do.  Both
#: are the benchmark's own code and never call into advshare.
KERNELS = {"rank": _rank_kernel, "span": _span_kernel}
#: A kernel's CPU time at the reference speed; op times are reported in
#: seconds at that speed.  On the 2-vCPU Xeon (2.0 GHz) VM the benchmark was
#: tuned on, they took 2.5-5 ms and 15-23 ms, switching within seconds.
REFERENCE_S = {"rank": 0.004, "span": 0.02}


def probe(kind: str) -> float:
    """CPU time of one run of the speed gauge ``KERNELS[kind]``."""
    c0 = cpu_clock()
    KERNELS[kind]()
    return cpu_clock() - c0


def local_speed(probes: list[float], i: int) -> float:
    """Median probe time around slot i; probe i ran just before op i and
    probe i + 1 just after it."""
    return statistics.median(probes[max(0, i + 1 - PROBE_WINDOW): i + 1 + PROBE_WINDOW])


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the order statistics
    weighted by a Beta(q (n+1), (1-q) (n+1)) density over their slots.

    A run holds a few ops of each rung, and a plain sample quantile is one
    op, so it jumps with that op's code; this weighs the ops around it."""
    x = np.sort(np.asarray(values, dtype=float))
    n, cells = len(x), 200
    t = (np.arange(n * cells) + 0.5) / (n * cells)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, cells).sum(axis=1)
    return float(w @ x / w.sum())


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.calls": "calls/op" for name in LAYER_CALLS}
    units.update({f"{name}.self_s": "s/op" for name in LAYER_SELF})
    units.update({
        "gfp.span_vectors": "vectors/op",
        "clifford.gates_applied": "gates/op",
        "clifford.inverse_gates": "gates/op",
        "circuit_gates": "gates/op",
        "advance.shareable_ratio": "ratio",
        "sim.qualified_ratio": "ratio",
        "sim.peak_amplitudes": "amps_computed",
        "trace.overhead_s": "s/op",
    })
    return units


#: Which end-to-end metric, on which workload, each layer metric should move.
LAYER_MAP = {
    "gfp.rref/kernel/solve": "ops_per_s on access; no effect on scan",
    "gfp.span_vectors, gfp.iter_span.self_s": "ops_per_s and op_tail_s on scan",
    "symplectic.symplectic_dual/shorten": "ops_per_s on access",
    "symplectic.min_symplectic_weight, pauli.code_distance": "op_p50_s on scan",
    "pauli.validate_stabilizer, codefile.parse_code_file": "op_p50_s on scan (small)",
    "advance.is_advance_shareable/enumerate_advance_shareable, shareable_ratio":
        "ops_per_s on access",
    "advance.construct_eaqecc, clifford.synthesize": "op_p50_s on protocol",
    "clifford.conjugate_pauli/apply_circuit_tensor": "ops_per_s on protocol",
    "clifford.gates_applied/inverse_gates, circuit_gates":
        "ops_per_s on protocol; circuit_gates is the gate count itself",
    "sim.classify_access/correctable_erasure, qualified_ratio":
        "ops_per_s on access, then on protocol",
    "sim.mutual_information_table/entropy/reduced_density":
        "op_tail_s and peak_rss_mb on protocol",
    "sim.simulate_protocol/encode_advance/erase_and_decode/measure_pauli":
        "ops_per_s on protocol",
    "sim.peak_amplitudes": "peak_rss_mb on protocol",
    "cli.run.self_s": "op_p50_s on access (reports up to ~0.7 MB)",
}


@dataclass
class Op:
    id: int
    cycle: int
    stream: int
    rung: Rung
    code: codes.Code
    J: tuple[int, ...]
    path: Path
    digest: str

    command = property(lambda self: self.rung.command)
    k = property(lambda self: self.rung.k)
    trials = property(lambda self: self.rung.trials)
    max_size = property(lambda self: self.rung.max_size)

    def argv(self) -> list[str]:
        argv = [self.command, str(self.path)]
        if self.command == "analyze":
            argv += ["--max-size", str(self.max_size)]
        if self.command == "demo":
            argv += ["--J", ",".join(map(str, self.J)) or "none"]
            argv += ["--seed", str(self.id), "--trials", str(self.trials)]
        return argv

    def record(self) -> dict:
        c = self.code
        return {
            "id": self.id, "cycle": self.cycle, "stream": self.stream,
            "rung": self.rung.label, "command": self.command,
            "p": c.p, "n": c.n, "k": c.k, "J": list(self.J), "trials": self.trials,
            "code_digest": self.digest,
        }


def execute(op: Op) -> dict:
    """Run one op through the CLI entry point; only the call is timed."""
    from advshare import cli

    out, err = io.StringIO(), io.StringIO()
    crash = None
    c0, t0 = cpu_clock(), time.perf_counter()
    try:
        code = cli.run(op.argv(), stdout=out, stderr=err)
    except Exception as exc:  # an op that crashes is a failed op, not a dead run
        code, crash = None, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, cpu_clock() - c0
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        report = None
    gates = 0
    if report is not None and "demo" in report:
        gates = len(report["demo"].get("circuit", {}).get("gates", []))
    return {
        "wall_s": wall, "cpu_s": cpu, "exit": code,
        "report": report, "crash": crash, "gates": gates,
    }


def judge(op: Op, res: dict, traced: bool = False) -> dict:
    """The op's record, with the independent check's verdict."""
    t0 = time.perf_counter()
    report = res["report"]
    if report is None:
        problems = [res["crash"] or "no JSON report"]
    elif res["exit"] != 0:
        problems = [f"exit {res['exit']}: {report.get('error')}"]
    else:
        problems = check_report(report, op, str(SCHEMA), Reference(op.code))
    rec = op.record()
    rec.update(
        wall_s=res["wall_s"],
        cpu_s=res["cpu_s"],
        check_s=time.perf_counter() - t0,
        exit=res["exit"],
        ok=not problems,
        known_defect=bool(problems) and is_known_defect(op, res["exit"], report),
        problems=problems[:5],
        gates=res["gates"],
        traced=traced,
    )
    return rec


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float, out: Path = OUT):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.code_dir = out / f"{workload.name}-seed{seed}-codes"
        self.code_dir.mkdir(parents=True, exist_ok=True)
        self.workload_index = sorted(WORKLOADS).index(workload.name)

    def make_op(self, stream: int, index: int, cycle: int, rung: Rung) -> Op:
        # Warm-up codes ignore the seed, so set-up does the same work every run.
        seed = 0 if stream == WARMUP else self.seed & 0xFFFFFFFF
        rng = np.random.default_rng([seed, self.workload_index, stream, index])
        code = codes.random_code(rung.p, rung.n, rung.k, rng)
        text = code.text(f"{self.workload.name} seed {seed} stream {stream} op {index}")
        path = self.code_dir / f"s{stream}-op{index}.code"
        path.write_text(text, encoding="utf-8")
        J = codes.advance_share(code) if rung.command == "demo" else ()
        return Op(index, cycle, stream, rung, code, J, path, codes.digest(text))

    def cycle_ops(self, cycle: int, stream: int) -> list[Op]:
        rungs = self.workload.rungs
        return [
            self.make_op(stream, cycle * len(rungs) + i, cycle, rung)
            for i, rung in enumerate(rungs)
        ]

    def fresh_process_op(self, op: Op) -> float:
        """CPU time of a new interpreter importing advshare and running one op."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        script = "import sys; from advshare import cli; sys.exit(cli.run(sys.argv[1:]))"
        c0 = cpu_clock()
        proc = subprocess.Popen(
            [sys.executable, "-c", script, *op.argv()],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # A blocking wait returns on exit; wait(timeout) would poll in 50 ms steps.
        killer = threading.Timer(WARMUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        cpu = cpu_clock() - c0
        if code != 0:
            raise RuntimeError(f"warm-up {op.rung.label} exited {code}")
        return cpu

    def setup(self) -> dict:
        """Set-up, several times: a fresh process imports advshare and runs one
        warm-up op on an extra code, and the first cycle's codes are made."""
        kind = self.workload.probe
        for _ in range(5):
            probe(kind)
        rounds, probes = [], []
        for r in range(SETUP_ROUNDS):
            probes.append([probe(kind) for _ in range(PROBE_WINDOW)])
            process_s = self.fresh_process_op(self.make_op(WARMUP, r, -1, self.workload.warmup))
            c0 = cpu_clock()
            self.cycle_ops(0, TIMED)
            rounds.append(process_s + cpu_clock() - c0)
        probes.append([probe(kind) for _ in range(PROBE_WINDOW)])
        scaled = [
            cpu * REFERENCE_S[kind] / statistics.median(probes[r] + probes[r + 1])
            for r, cpu in enumerate(rounds)
        ]
        # This process's own warm-up, untimed: the smallest rung of each
        # (command, p), so first-call costs of every field size are paid.
        smallest: dict[tuple[str, int], Rung] = {}
        for rung in self.workload.rungs:
            key = (rung.command, rung.p)
            if key not in smallest or rung.span < smallest[key].span:
                smallest[key] = rung
        for i, rung in enumerate(smallest.values()):
            execute(self.make_op(WARMUP, SETUP_ROUNDS + i, -1, rung))
        return {"rounds_cpu_s": rounds, "rounds_s": scaled, "probes_s": probes,
                "median_s": statistics.median(scaled)}

    def loop(self, tracer: Tracer | None) -> list[dict]:
        """Whole cycles until another one would overrun the time budget."""
        kind = self.workload.probe
        results, probes = [], []
        start = time.perf_counter()
        cycle = 0
        while True:
            c0 = time.perf_counter()
            for op in self.cycle_ops(cycle, TIMED):
                if tracer is not None:
                    twin = self.make_op(TWIN, op.id, cycle, op.rung)
                    tracer.disable()
                    probes.append(probe(kind))
                    results.append(judge(twin, execute(twin)))
                    tracer.enable()
                    tracer.op = op.id
                probes.append(probe(kind))
                results.append(judge(op, execute(op), traced=tracer is not None))
            cycle += 1
            now = time.perf_counter()
            if (now - start) + (now - c0) > self.seconds:
                break
        probes.append(probe(kind))
        for i, rec in enumerate(results):
            rec["probe_s"] = local_speed(probes, i)
            rec["ref_s"] = rec["cpu_s"] * REFERENCE_S[kind] / rec["probe_s"]
        return results


# -- metrics ---------------------------------------------------------------


def end_to_end(results: list[dict], setup: dict, quantile: float) -> tuple[dict, dict]:
    times = [r["ref_s"] for r in results]
    tail = harrell_davis(times, quantile)
    values = {
        "setup_s": setup["median_s"],
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": harrell_davis(times, 0.5),
        "op_tail_s": tail,
        "ok_frac": sum(r["ok"] for r in results) / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"quantile": quantile, "samples": len(times), "beyond": sum(t > tail for t in times)}
    return values, info


def per_layer(results: list[dict], tracer: Tracer) -> dict:
    traced = [r for r in results if r["traced"]]
    twins = [r for r in results if not r["traced"]]
    per_op = 1.0 / len(traced)
    self_s = tracer.self_times(r["id"] for r in traced)
    counts = tracer.counts
    values = {f"{name}.calls": counts.get(f"{name}.calls", 0) * per_op for name in LAYER_CALLS}
    values.update({f"{name}.self_s": self_s[name] * per_op for name in LAYER_SELF})
    for name in ("gfp.span_vectors", "clifford.gates_applied", "clifford.inverse_gates"):
        values[name] = counts.get(name, 0) * per_op
    values["circuit_gates"] = sum(r["gates"] for r in traced) * per_op

    def ratio(found: str, calls: str) -> float:
        return counts.get(found, 0) / max(counts.get(calls, 0), 1)

    values["advance.shareable_ratio"] = ratio(
        "advance.shareable_found", "advance.is_advance_shareable.calls")
    values["sim.qualified_ratio"] = ratio("sim.qualified_found", "sim.classify_access.calls")
    # Computed from the inputs, not observed: p**(n+k) of each reference encoding.
    values["sim.peak_amplitudes"] = max(
        (r["p"] ** (r["n"] + r["k"]) for r in traced if r["command"] == "demo" and r["trials"]),
        default=0,
    )
    values["trace.overhead_s"] = statistics.fmean(r["wall_s"] for r in traced) - statistics.fmean(
        r["wall_s"] for r in twins
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the advshare command line.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "advshare" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"error: advshare sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import advshare

    if Path(advshare.__file__).resolve().parent != SRC / "advshare":
        print(f"error: imported advshare from {advshare.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # One core for the whole run, so the probes gauge the core the ops run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed, args.seconds)
    setup = bench.setup()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    results = bench.loop(tracer)

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_env": BLAS_ENV, "python": sys.version.split()[0],
        "numpy": np.__version__, "setup": setup, "layer_map": LAYER_MAP,
    }
    if tracer is not None:
        tracer.disable()
        values, units = per_layer(results, tracer), per_layer_units()
        record["self_s_by_op"] = {
            r["id"]: tracer.self_times([r["id"]]) for r in results if r["traced"]
        }
        tracer.write(OUT / f"{tag}-spans.npz")
    else:
        values, tail = end_to_end(results, setup, workload.tail_quantile)
        units = END_TO_END
        record["tail"] = tail
        print(f"op_tail_s is the p{100 * tail['quantile']:g} of {tail['samples']} ops "
              f"({tail['beyond']} beyond it)")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    latency: dict[str, list[float]] = {}
    for r in results:
        latency.setdefault(r["rung"], []).append(r["ref_s"])
    record.update(metrics=metrics, latency_by_rung_s=latency, ops=results)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    failed = [r for r in results if not r["ok"]]
    for r in failed:
        kind = "known k = 0 defect" if r["known_defect"] else "FAILED"
        print(f"{kind}: op {r['id']} {r['rung']} {r['code_digest']}: {r['problems'][0]}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["ok"] or r["known_defect"] for r in results),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
