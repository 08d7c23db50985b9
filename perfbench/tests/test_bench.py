"""Self-tests of the benchmark: inputs, the independent checker, the tracer.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import statistics

import numpy as np
import pytest

from perfbench import codes, fp, run
from perfbench.check import Reference, check_report, is_known_defect
from perfbench.trace import Tracer
from perfbench.workloads import WORKLOADS, Rung

SCHEMA = str(run.SCHEMA)


def naive_rank(m, p):
    m = [[int(v) % p for v in row] for row in m]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@pytest.fixture
def bench(tmp_path):
    return run.Bench(WORKLOADS["access"], 11, 1.0, out=tmp_path)


def run_op(op):
    res = run.execute(op)
    assert res["exit"] == 0, res["report"]
    return res["report"]


def test_batched_rank_matches_naive_elimination():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = int(rng.choice([2, 3, 5, 7]))
        m = rng.integers(0, p, size=(int(rng.integers(1, 7)), int(rng.integers(1, 9))))
        if rng.random() < 0.5:
            m[int(rng.integers(0, m.shape[0]))] = 0
        assert fp.rank(m, p) == naive_rank(m, p)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quantiles_fall_inside_one_rung_block(name):
    w = WORKLOADS[name]
    rungs = len(w.rungs)
    assert rungs % 2 == 1
    assert w.tail_quantile * (rungs - 1) == pytest.approx(round(w.tail_quantile * (rungs - 1)))


def test_op_speed_is_the_median_of_the_probes_around_it():
    probes = [1.0, 2.0, 9.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    # Op i ran between probe i and probe i + 1.
    assert run.local_speed(probes, 0) == statistics.median(probes[0:4])
    assert run.local_speed(probes, 3) == statistics.median(probes[1:7])
    assert run.local_speed(probes, 6) == statistics.median(probes[4:8])
    assert {w.probe for w in WORKLOADS.values()} == set(run.KERNELS) == set(run.REFERENCE_S)
    for kind in run.KERNELS:
        assert run.probe(kind) > 0


def test_harrell_davis_quantiles():
    values = [0.1 * (i + 1) for i in range(12)]
    assert run.harrell_davis(values, 0.5) == pytest.approx(statistics.median(values))
    assert run.harrell_davis(values[::-1], 0.75) == run.harrell_davis(values, 0.75)
    assert 0.9 < run.harrell_davis(values, 0.75) < 1.0
    assert run.harrell_davis([3.0], 0.5) == 3.0
    scipy_stats = pytest.importorskip("scipy.stats")
    x = np.random.default_rng(3).exponential(size=40)
    for q in (0.5, 0.75, 0.875):
        n = len(x)
        cdf = scipy_stats.beta.cdf(np.arange(n + 1) / n, q * (n + 1), (1 - q) * (n + 1))
        assert run.harrell_davis(x, q) == pytest.approx(np.diff(cdf) @ np.sort(x), rel=1e-4)


def test_loop_scales_each_op_by_its_speed(bench, monkeypatch):
    monkeypatch.setattr(run, "probe", lambda kind: 2 * run.REFERENCE_S[kind])
    bench.seconds = 0.0
    results = bench.loop(None)
    assert len(results) == len(bench.workload.rungs)
    for r in results:
        assert r["ref_s"] == pytest.approx(r["cpu_s"] / 2)


def test_generated_codes_are_valid_stabilizers():
    rng = np.random.default_rng(1)
    for p, n, k in [(2, 9, 1), (3, 6, 0), (5, 4, 2), (7, 3, 1)]:
        code = codes.random_code(p, n, k, rng)
        h = code.rows
        assert h.shape == (n - k, 2 * n)
        assert fp.rank(h, p) == n - k
        products = (h[:, :n] @ h[:, n:].T - h[:, n:] @ h[:, :n].T) % p
        assert not products.any()


def test_same_seed_gives_same_code_bytes(tmp_path):
    rung = Rung("demo", 3, 6, 1, trials=0)
    texts = []
    for seed, sub in [(5, "a"), (5, "b"), (6, "c")]:
        b = run.Bench(WORKLOADS["access"], seed, 1.0, out=tmp_path / sub)
        op = b.make_op(run.TIMED, 3, 0, rung)
        texts.append((op.path.read_bytes(), op.digest, op.J))
    assert texts[0] == texts[1]
    assert texts[0][0] != texts[2][0]


def test_reference_agrees_with_the_library_scans():
    from advshare import advance, pauli

    rng = np.random.default_rng(2)
    for p, n, k in [(2, 7, 1), (2, 6, 2), (3, 5, 1), (5, 4, 1), (7, 3, 1), (3, 5, 0)]:
        code = codes.random_code(p, n, k, rng)
        lib = pauli.validate_stabilizer(code.rows, p, n)
        ref = Reference(code)
        assert ref.dual_min_weight == advance.dual_min_weight(lib)
        if k:
            assert ref.distance == pauli.code_distance(lib)
        masks = list(range(1, 1 << n))
        for mask, ok in zip(masks, ref.shareable(masks)):
            assert ok == advance.is_advance_shareable(lib, fp.mask_to_shares(mask, n))


def test_checker_accepts_true_reports_and_rejects_corrupted_ones(bench):
    demo = bench.make_op(run.TIMED, 0, 0, Rung("demo", 2, 7, 1, trials=1))
    analyze = bench.make_op(run.TIMED, 1, 0, Rung("analyze", 2, 7, 1, max_size=3))
    demo_report, analyze_report = run_op(demo), run_op(analyze)
    assert check_report(demo_report, demo, SCHEMA) == []
    assert check_report(analyze_report, analyze, SCHEMA) == []
    assert analyze_report["advance_shareable"]["sets"], "needs a shareable set to drop"

    flipped = copy.deepcopy(demo_report)
    entry = flipped["demo"]["access_table"][-1]
    entry["label"] = "forbidden" if entry["label"] == "qualified" else "qualified"
    assert any("access" in p for p in check_report(flipped, demo, SCHEMA))

    wrong_d = copy.deepcopy(demo_report)
    wrong_d["code"]["distance"] += 1
    assert any("distance" in p for p in check_report(wrong_d, demo, SCHEMA))

    dropped = copy.deepcopy(analyze_report)
    dropped["advance_shareable"]["sets"].pop()
    problems = check_report(dropped, analyze, SCHEMA)
    assert any("shareable sets differ" in p for p in problems)

    bad_fidelity = copy.deepcopy(demo_report)
    bad_fidelity["demo"]["transcripts"][0]["fidelities"][0] = 0.5
    assert check_report(bad_fidelity, demo, SCHEMA)

    bad_schema = copy.deepcopy(analyze_report)
    bad_schema["schema_version"] = "2"
    assert check_report(bad_schema, analyze, SCHEMA)


def test_k0_defect_is_recognised_and_nothing_else_is(bench):
    op = bench.make_op(run.TIMED, 0, 0, Rung("demo", 2, 4, 0, trials=1))
    res = run.execute(op)
    assert res["exit"] == 1
    assert is_known_defect(op, res["exit"], res["report"])
    other = bench.make_op(run.TIMED, 1, 0, Rung("demo", 2, 4, 1, trials=1))
    assert not is_known_defect(other, 1, res["report"])


def test_self_times_and_remainder_sum_to_traced_wall(bench):
    tracer = Tracer()
    tracer.install()
    try:
        ops = [
            bench.make_op(run.TIMED, i, 0, rung)
            for i, rung in enumerate(
                [Rung("demo", 2, 6, 1, trials=1), Rung("analyze", 3, 5, 1, max_size=2),
                 Rung("validate", 2, 8, 1)]
            )
        ]
        walls = {}
        for op in ops:
            tracer.op = op.id
            res = run.execute(op)
            assert res["exit"] == 0
            walls[op.id] = res["wall_s"]
    finally:
        tracer.disable()
    a = tracer.arrays()
    inside = a["parent"] >= 0
    parents = a["parent"][inside]
    assert (a["start"][inside] >= a["start"][parents]).all()
    assert (a["end"][inside] <= a["end"][parents]).all()
    assert (a["self"] >= -1e-9).all()
    for op in ops:
        by_layer = tracer.self_times([op.id])
        traced = sum(by_layer.values())
        remainder = walls[op.id] - traced
        assert 0 <= remainder < 0.01 + 0.05 * walls[op.id]
        assert traced + remainder == pytest.approx(walls[op.id], abs=1e-9)
        root = (a["op"] == op.id) & (a["parent"] < 0)
        assert traced == pytest.approx(float((a["end"] - a["start"])[root].sum()), abs=1e-6)
    assert tracer.counts["gfp.span_vectors"] > 0
    assert tracer.counts["clifford.gates_applied"] > 0


def test_tracer_restores_the_library(bench):
    from advshare import cli, gfp, sim

    originals = (cli.run, gfp.rref, sim.apply_circuit_tensor, cli.validate_stabilizer)
    tracer = Tracer()
    tracer.install()
    assert cli.validate_stabilizer is not originals[3]
    tracer.disable()
    assert (cli.run, gfp.rref, sim.apply_circuit_tensor, cli.validate_stabilizer) == originals


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == run.per_layer_units()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    results = [{"ref_s": 0.1 * (i + 1), "ok": True} for i in range(12)]
    values, tail = run.end_to_end(results, {"median_s": 1.0}, 0.75)
    assert set(values) == set(e2e)
    assert tail["beyond"] == 3
