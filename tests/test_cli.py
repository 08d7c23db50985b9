import dataclasses
import enum
import hashlib
import io
import json
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from advshare import cli, gfp
from advshare.access import ShareStructure, share_sets
from advshare.codefile import format_code_file, parse_code_file
from advshare.errors import CodeFileError, UncorrectableErasureError
from advshare.pauli import random_stabilizer, validate_stabilizer


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    status = cli.run(argv, stdout=out, stderr=err)
    return status, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def schema():
    text = (
        resources.files("advshare").joinpath("schema/report.schema.json").read_text()
    )
    return json.loads(text)


def test_parse_round_trip(four_qubit, five_qubit, qutrit):
    for code in (four_qubit, five_qubit, qutrit):
        text = format_code_file(code)
        p, n, rows = parse_code_file(text)
        assert (p, n) == (code.p, code.n)
        assert np.array_equal(rows, code.check_matrix)
        assert format_code_file(validate_stabilizer(rows, p, n)) == text


def test_parse_ignores_comments_and_blanks():
    text = "# header comment\n\np=2 n=2   # trailing\n1 1 | 0 0\n"
    p, n, rows = parse_code_file(text)
    assert (p, n) == (2, 2)
    assert rows.shape == (1, 4)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CodeFileError) as err:
        parse_code_file("p=2 n=2\n1 1 0 0\n")
    assert err.value.line == 2
    with pytest.raises(CodeFileError) as err:
        parse_code_file("n=2 p=2\n")
    assert err.value.line == 1
    with pytest.raises(CodeFileError) as err:
        parse_code_file("p=2 n=2\n1 2 | 0 0\n")
    assert err.value.line == 2
    with pytest.raises(CodeFileError):
        parse_code_file("")


def test_validate_reports_parameters(code_dir, schema):
    status, out, err = run_cli(["validate", str(code_dir / "four_qubit_ghz.code")])
    assert status == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["code"]["parameters"] == "[[4,2,2]]_2"
    assert "[[4,2,2]]_2" in err


def test_validate_empty_generator_list(tmp_path, schema):
    path = tmp_path / "empty.code"
    path.write_text("p=2 n=3\n")
    status, out, _ = run_cli(["validate", str(path), "--json-only"])
    assert status == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["code"]["k"] == 3
    assert report["code"]["distance"] == 1
    assert report["code"]["parameters"] == "[[3,3,1]]_2"


def test_validate_names_offending_rows(tmp_path):
    path = tmp_path / "bad.code"
    path.write_text("p=2 n=2\n1 0 | 0 0\n0 0 | 1 0\n")
    status, out, err = run_cli(["validate", str(path), "--json-only"])
    assert status == 1
    report = json.loads(out)
    assert report["error"]["type"] == "invalid-input"
    assert "rows 1 and 2" in report["error"]["message"]


def test_missing_file_is_input_error():
    status, out, _ = run_cli(["validate", "/does/not/exist.code", "--json-only"])
    assert status == 1


def test_budget_exit_code(code_dir):
    status, out, _ = run_cli(
        ["analyze", str(code_dir / "five_qubit.code"), "--budget", "4", "--json-only"]
    )
    assert status == 2
    assert json.loads(out)["error"]["type"] == "budget"


def test_demo_over_the_state_budget_exits_2_before_compiling(tmp_path, monkeypatch):
    """A 14-qubit GHZ code passes the access-table budget, but its 2**14
    amplitudes exceed the default state budget: the demo refuses it before
    any generator table is built."""
    from advshare import sim

    def refuse(*args):
        raise AssertionError("compiled the generators of an over-budget state")

    monkeypatch.setattr(sim, "compile_paulis", refuse)
    path = tmp_path / "ghz14.code"
    path.write_text("p=2 n=14\n" + "1 " * 14 + "| " + "0 " * 14 + "\n" + "0 " * 14 + "| " + "1 " * 14 + "\n")
    status, out, err = run_cli(["demo", str(path), "--trials", "1", "--json-only"])
    assert status == 2
    assert json.loads(out)["error"] == {
        "type": "budget",
        "message": "state size 2**14 exceeds budget 4096",
    }
    assert err == "budget exceeded: state size 2**14 exceeds budget 4096\n"


def test_access_table_budget_names_the_table(code_dir):
    # The distance walk visits 5 + 10 + 10 = 25 sets; the table needs 2^5 = 32.
    status, out, err = run_cli(
        ["demo", str(code_dir / "five_qubit.code"), "--J", "1", "--trials", "0",
         "--budget", "30", "--json-only"]
    )
    assert status == 2
    message = json.loads(out)["error"]["message"]
    assert message == "enumeration limit: 32 share sets exceed budget 30 (access table)"
    assert "(access table)" in err


def test_demo_refuses_an_unfit_table_before_planning(tmp_path, monkeypatch):
    """A rowless code on 15000 shares can never fit its 2**15000-row access
    table, so the demo refuses it before it plans or synthesizes."""
    from advshare import advance

    def refuse(*args):
        raise AssertionError("planned or synthesized for a table that cannot fit")

    monkeypatch.setattr(advance, "construct_eaqecc", refuse)
    monkeypatch.setattr(cli, "encoding_circuit", refuse)
    path = tmp_path / "rowless.code"
    path.write_text("p=2 n=15000\n")
    status, out, err = run_cli(["demo", str(path), "--J", "none", "--trials", "0", "--json-only"])
    assert status == 2
    error = json.loads(out)["error"]
    assert error["type"] == "budget"
    assert error["message"].endswith("(access table)")
    assert "demo" not in json.loads(out)
    assert "(access table)" in err


def test_huge_trials_exit_2_naming_the_protocol_trials(code_dir):
    """Each of the 16 qualified sets of the five-qubit code runs --trials
    times; the budget bounds that count before any run is listed."""
    status, out, err = run_cli(
        ["demo", str(code_dir / "five_qubit.code"), "--J", "1",
         "--trials", "99999999999", "--json-only"]
    )
    assert status == 2
    report = json.loads(out)
    assert "code" in report and "demo" not in report
    assert report["error"] == {
        "type": "budget",
        "message": "enumeration limit: 1599999999984 share sets exceed budget "
        "1048576 (protocol trials)",
    }
    assert "(protocol trials)" in err


@pytest.mark.parametrize("trials, budget, status", [(3, 48, 0), (3, 47, 2), (4, 64, 0)])
def test_trials_run_at_a_budget_of_qualified_sets_times_trials(code_dir, trials, budget, status):
    got, out, _ = run_cli(
        ["demo", str(code_dir / "five_qubit.code"), "--J", "1", "--trials", str(trials),
         "--budget", str(budget), "--json-only"]
    )
    assert got == status
    report = json.loads(out)
    if status:
        assert report["error"]["message"].endswith(f"exceed budget {budget} (protocol trials)")
    else:
        assert sum(t["trials"] for t in report["demo"]["transcripts"]) == 16 * trials

def test_ghz20_passes_under_default_budget(tmp_path, schema):
    # Its dual span has 2^38 vectors; the walks visit 20 and 20 + 190 share sets.
    path = tmp_path / "ghz20.code"
    path.write_text("p=2 n=20\n" + "1 " * 20 + "| " + "0 " * 20 + "\n" + "0 " * 20 + "| " + "1 " * 20 + "\n")
    status, out, _ = run_cli(["validate", str(path), "--json-only"])
    assert status == 0
    assert json.loads(out)["code"]["parameters"] == "[[20,18,2]]_2"
    status, out, _ = run_cli(["analyze", str(path), "--max-size", "1", "--json-only"])
    assert status == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["code"]["distance"] == 2
    assert report["advance_shareable"]["dual_min_weight"] == 2
    assert [s["shares"] for s in report["advance_shareable"]["sets"]] == [[j] for j in range(1, 21)]


def test_analyze_example(code_dir, schema):
    status, out, _ = run_cli(
        ["analyze", str(code_dir / "four_qubit_ghz.code"), "--max-size", "1", "--json-only"]
    )
    assert status == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    sets = report["advance_shareable"]["sets"]
    assert [s["shares"] for s in sets] == [[1], [2], [3], [4]]
    assert all(
        s["certificates"]["theorem1"] and s["certificates"]["theorem2"] for s in sets
    )


def test_analyze_no_pairs_on_example(code_dir):
    _, out, _ = run_cli(
        ["analyze", str(code_dir / "four_qubit_ghz.code"), "--max-size", "2", "--json-only"]
    )
    sets = json.loads(out)["advance_shareable"]["sets"]
    assert max(len(s["shares"]) for s in sets) == 1


def test_analyze_five_qubit_pairs(code_dir):
    _, out, _ = run_cli(
        ["analyze", str(code_dir / "five_qubit.code"), "--max-size", "2", "--json-only"]
    )
    sets = json.loads(out)["advance_shareable"]["sets"]
    assert len(sets) == 15


FIVE_QUBIT_PAIRS = "{1} {1,2} {1,3} {1,4} {1,5} {2} {2,3} {2,4} {2,5} {3} {3,4} {3,5} {4} {4,5} {5}"


@pytest.mark.parametrize("max_size, names", [("2", FIVE_QUBIT_PAIRS), ("0", "none")])
def test_analyze_summary_names_the_sets_in_order(code_dir, max_size, names):
    status, _, err = run_cli(["analyze", str(code_dir / "five_qubit.code"), "--max-size", max_size])
    assert status == 0
    assert err == (
        "code: [[5,1,3]]_2\n"
        f"advance-shareable sets up to size {max_size} (dual min weight 3): {names}\n"
    )


@pytest.mark.parametrize(
    "shares, parameters", [("none", "[[5,1,3;0]]_2"), ("1,2", "[[3,1,3;2]]_2")]
)
def test_demo_plan_parameters_count_the_pairs(code_dir, shares, parameters):
    argv = ["demo", str(code_dir / "five_qubit.code"), "--J", shares, "--trials", "0"]
    status, out, err = run_cli(argv)
    assert status == 0
    assert json.loads(out)["demo"]["plan"]["parameters"] == parameters
    assert f"plan {parameters} circuit " in err


def test_demo_reports_protocol(code_dir, schema):
    status, out, err = run_cli(
        [
            "demo",
            str(code_dir / "four_qubit_ghz.code"),
            "--J",
            "4",
            "--seed",
            "1",
            "--trials",
            "2",
        ]
    )
    assert status == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    demo = report["demo"]
    assert demo["plan"]["parameters"] == "[[3,2,2;1]]_2"
    labels = {tuple(e["shares"]): e["label"] for e in demo["access_table"]}
    assert labels[(1, 2, 3)] == "qualified"
    assert labels[(4,)] == "forbidden"
    assert labels[(1, 2)] == "intermediate"
    assert all(t["min_fidelity"] > 1 - 1e-9 for t in demo["transcripts"])
    assert "min fidelity" in err


def test_demo_trials_zero_skips_simulation(code_dir, schema):
    status, out, _ = run_cli(
        ["demo", str(code_dir / "four_qubit_ghz.code"), "--J", "4", "--trials", "0", "--json-only"]
    )
    assert status == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    demo = report["demo"]
    assert "transcripts" not in demo
    assert "mutual_information" not in demo["access_table"][0]
    assert {e["label"] for e in demo["access_table"]} == {
        "qualified",
        "forbidden",
        "intermediate",
    }


def test_demo_rejects_unshareable_set(code_dir):
    status, out, _ = run_cli(
        ["demo", str(code_dir / "four_qubit_ghz.code"), "--J", "1,2", "--json-only"]
    )
    assert status == 1
    assert "not advance shareable" in json.loads(out)["error"]["message"]


def test_demo_same_seed_byte_identical(code_dir):
    args = [
        "demo",
        str(code_dir / "five_qubit.code"),
        "--J",
        "5",
        "--seed",
        "7",
        "--trials",
        "1",
        "--json-only",
    ]
    _, first, _ = run_cli(args)
    _, second, _ = run_cli(args)
    assert first == second


def test_run_reuses_one_parser_without_carrying_options(code_dir, monkeypatch):
    assert cli.build_parser() is not cli.build_parser()
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    path = str(code_dir / "five_qubit.code")
    run_cli(["demo", path, "--J", "5", "--seed", "7", "--trials", "2", "--json-only"])
    _, out, _ = run_cli(["demo", path, "--json-only"])
    assert built == [1]
    demo = json.loads(out)["demo"]
    assert (demo["shares"], demo["seed"], demo["trials"]) == ([], 0, 1)


def test_demo_five_qubit_qualified_fidelities(code_dir):
    _, out, _ = run_cli(
        [
            "demo",
            str(code_dir / "five_qubit.code"),
            "--J",
            "5",
            "--seed",
            "3",
            "--trials",
            "1",
            "--json-only",
        ]
    )
    demo = json.loads(out)["demo"]
    four_share = [t for t in demo["transcripts"] if len(t["accessible"]) == 4]
    assert len(four_share) == 5
    assert all(t["min_fidelity"] > 1 - 1e-9 for t in four_share)


def test_demo_qutrit(code_dir, schema):
    status, out, _ = run_cli(
        [
            "demo",
            str(code_dir / "qutrit_ghz.code"),
            "--J",
            "3",
            "--seed",
            "2",
            "--trials",
            "1",
            "--json-only",
        ]
    )
    assert status == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["demo"]["plan"]["parameters"] == "[[2,1,2;1]]_3"
    assert all(
        t["min_fidelity"] > 1 - 1e-9 for t in report["demo"]["transcripts"]
    )


def test_numbers_round_trip_losslessly(code_dir):
    _, out, _ = run_cli(
        [
            "demo",
            str(code_dir / "four_qubit_ghz.code"),
            "--J",
            "4",
            "--seed",
            "1",
            "--trials",
            "1",
            "--json-only",
        ]
    )
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report


@pytest.mark.parametrize("name, shares", [("five_qubit.code", "5"), ("qutrit_ghz.code", "3")])
def test_demo_mutual_information_is_exact(code_dir, name, shares):
    args = ["demo", str(code_dir / name), "--J", shares, "--seed", "4", "--trials", "1", "--json-only"]
    status, out, _ = run_cli(args)
    assert status == 0
    assert run_cli(args)[1] == out
    report = json.loads(out)
    k = report["code"]["k"]
    for entry in report["demo"]["access_table"]:
        mi = entry["mutual_information"]
        assert mi == int(mi)
        if entry["label"] == "qualified":
            assert mi == 2 * k
        elif entry["label"] == "forbidden":
            assert mi == 0


def test_broken_invariant_exits_3_as_internal_error(code_dir, monkeypatch):
    from advshare import sim

    compile_paulis = sim.compile_paulis

    def skewed(*args, **kwargs):
        kernels = compile_paulis(*args, **kwargs)
        return dataclasses.replace(kernels, phases=kernels.phases * np.exp(0.1j))

    monkeypatch.setattr(sim, "compile_paulis", skewed)
    status, out, err = run_cli(
        ["demo", str(code_dir / "four_qubit_ghz.code"), "--J", "4", "--trials", "1", "--json-only"]
    )
    assert status == 3
    error = json.loads(out)["error"]
    assert error["type"] == "internal"
    assert error["message"].startswith("eigenvalue ")
    assert error["message"].endswith(" is not a 2p-th root of unity")
    assert err == f"internal error: {error['message']}\n"


def _raise(error):
    def raising(*args, **kwargs):
        raise error

    return raising


@pytest.mark.parametrize(
    "target, error",
    [
        ("encoding_circuit", ValueError("plan has no circuit")),
        ("simulate_protocol", UncorrectableErasureError("shares (1,) carry undetectable damage")),
    ],
)
def test_errors_after_the_input_checks_exit_3_as_internal(code_dir, monkeypatch, target, error):
    """A ValueError or UncorrectableErasureError raised once the counts,
    the code file and --J have passed is a fault, not invalid input."""
    monkeypatch.setattr(cli if target == "encoding_circuit" else cli.sim, target, _raise(error))
    argv = ["demo", str(code_dir / "five_qubit.code"), "--J", "1", "--trials", "1", "--json-only"]
    status, out, err = run_cli(argv)
    assert status == 3
    report = json.loads(out)
    assert report["error"] == {"type": "internal", "message": str(error)}
    assert report["code"]["parameters"] == "[[5,1,3]]_2"
    assert err == f"internal error: {error}\n"


@pytest.mark.parametrize(
    "shares, message",
    [
        ("x", "cannot parse share list 'x'"),
        ("6", "share index 6 outside 1..5"),
        ("1,2,3", "shares (1, 2, 3) are not advance shareable for this code"),
    ],
)
def test_bad_shares_are_invalid_input_with_the_code_section(code_dir, shares, message):
    argv = ["demo", str(code_dir / "five_qubit.code"), "--J", shares, "--json-only"]
    status, out, err = run_cli(argv)
    assert status == 1
    report = json.loads(out)
    assert report["error"] == {"type": "invalid-input", "message": message}
    assert report["code"]["parameters"] == "[[5,1,3]]_2"
    assert err == f"error: {message}\n"


def test_trials_on_a_k0_code_are_invalid_input(tmp_path):
    """A k = 0 code has no secret to share: trials on it are refused as
    input, with the code section, and zero trials still run."""
    path = tmp_path / "ghz3.code"
    path.write_text("p=2 n=3\n1 1 1 | 0 0 0\n0 0 0 | 1 1 0\n0 0 0 | 0 1 1\n")
    status, out, err = run_cli(["demo", str(path), "--trials", "1", "--json-only"])
    assert status == 1
    report = json.loads(out)
    assert report["error"] == {
        "type": "invalid-input",
        "message": "k = 0 code admits only the trivial secret",
    }
    assert report["code"]["k"] == 0
    status, _, _ = run_cli(["demo", str(path), "--trials", "0", "--json-only"])
    assert status == 0


@pytest.mark.parametrize("name", ["four_qubit_ghz", "five_qubit", "qutrit_ghz"])
def test_demo_transcripts_match_the_golden_reports(code_dir, name):
    """``demo --J 1 --trials 3 --seed 7`` against committed reference
    reports: every integer exactly, fidelities within 1e-12."""
    golden = json.loads((Path(__file__).parent / "golden" / f"demo_{name}.json").read_text())
    argv = ["demo", str(code_dir / f"{name}.code"), "--J", "1", "--trials", "3", "--seed", "7"]
    status, out, _ = run_cli(argv + ["--json-only"])
    assert status == 0
    demo = json.loads(out)["demo"]
    for key in ("shares", "seed", "trials", "syndrome", "access_table"):
        assert demo[key] == golden[key]
    assert len(demo["transcripts"]) == len(golden["transcripts"])
    for got, want in zip(demo["transcripts"], golden["transcripts"]):
        for key in ("accessible", "erased", "measured_syndromes", "corrections"):
            assert got[key] == want[key]
        assert len(got["fidelities"]) == len(want["fidelities"])
        assert np.abs(np.subtract(got["fidelities"], want["fidelities"])).max() < 1e-12


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("demo", "--trials", "-1"),
        ("demo", "--seed", "-1"),
        ("analyze", "--max-size", "-1"),
        ("validate", "--budget", "-3"),
    ],
)
def test_negative_counts_are_invalid_input(code_dir, schema, command, option, value):
    argv = [command, str(code_dir / "five_qubit.code"), option, value, "--json-only"]
    status, out, err = run_cli(argv)
    assert status == 1
    report = json.loads(out)
    jsonschema.validate(report, schema)
    message = f"{option} must be at least 0, got {value}"
    assert report["error"] == {"type": "invalid-input", "message": message}
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, usage, message",
    [
        (["demo", "x.code", "--trials", "x"], "usage: advshare demo ",
         "advshare demo: error: argument --trials: invalid int value: 'x'\n"),
        (["frobnicate"], "usage: advshare ", "advshare: error: argument command: invalid choice: "),
        (["validate", "x.code", "--bogus"], "usage: advshare ",
         "advshare: error: unrecognized arguments: --bogus\n"),
    ],
)
def test_usage_errors_exit_1_with_argparse_message(argv, usage, message):
    # Exit 2 is the budget code, so a usage error must not borrow it.
    status, out, err = run_cli(argv)
    assert status == 1
    assert out == ""
    assert err.startswith(usage)
    assert message in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["demo", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: advshare demo ")


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.sampled_from([-0.0, 0.0, 1e-300, 1e300, 5e-324, float("nan"), float("inf"), float("-inf")])
    | st.text()
    | st.text(alphabet=st.sampled_from('"\\/\x00\x1f\x7f\n\t\r\b\féü€😀 \ud800'))
)
_JSON_KEYS = st.text(alphabet=st.sampled_from('ab"\\\n\x01é😀'), max_size=4) | st.text()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.recursive(
        _JSON_SCALARS,
        lambda inner: st.lists(inner, max_size=5)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(_JSON_KEYS, inner, max_size=5),
        max_leaves=40,
    )
)
@example([True, False, True])
@example([1, True, 0, False])
@example([0, False, 2])
@example([_Level.LOW, _Level.HIGH])
@example([1, _Level.HIGH, 3])
@example({"a": [_Level.HIGH], "b": [2**70, -(2**200), 0, -1]})
@example([[2**64, 3], [True], []])
def test_report_writer_matches_json_dumps(tree):
    assert cli._json_text(tree) == json.dumps(tree, indent=2)


def test_report_writer_refuses_what_json_refuses():
    for bad in (np.int64(3), [np.bool_(True)], {"a": {1, 2}}, {"a": object()}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            cli._json_text(bad)
    # Reports key every dict by a string; the writer refuses any other key.
    with pytest.raises(TypeError):
        cli._json_text({1: 2})
    # A float subclass is a float to both.
    assert cli._json_text([np.float64(0.5)]) == json.dumps([np.float64(0.5)], indent=2)


def plain_rows(value):
    """A copy of a report with its held rows written out as plain dicts, in
    row order: the form ``json.dumps`` writes."""
    if isinstance(value, cli._AccessTable):
        rows = []
        for sets, codes, *information in value.sizes:
            columns = sets.tolist(), codes.tolist(), *(i.tolist() for i in information)
            for shares, label, *mi in zip(*columns):
                row = {"shares": shares, "size": len(shares), "label": cli._LABEL_NAMES[label]}
                rows.append(dict(row, mutual_information=mi[0]) if mi else row)
        return rows
    if isinstance(value, cli._ShareableSets):
        return [
            {
                "shares": list(shares),
                "certificates": {"theorem1": True, "theorem2": len(shares) < value.dual_weight},
            }
            for shares in value.sets
        ]
    if isinstance(value, dict):
        return {key: plain_rows(v) for key, v in value.items()}
    if isinstance(value, list):
        return [plain_rows(v) for v in value]
    return value


def test_every_shipped_report_is_written_as_json_dumps(code_dir, monkeypatch):
    """validate, analyze and demo on each shipped code, plus a budget and an
    invalid-input error report: the writer's bytes are json.dumps's of the
    report with its held rows as plain dicts, and the streamed bytes are
    ``_json_text``'s."""
    reports = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, out: reports.append(report) or emit(report, out))
    runs = []
    for path in sorted(code_dir.glob("*.code")):
        runs += [
            ["validate", str(path)],
            ["analyze", str(path), "--max-size", "2"],
            ["demo", str(path), "--J", "1", "--trials", "2", "--seed", "3"],
        ]
    runs += [
        ["analyze", str(code_dir / "five_qubit.code"), "--budget", "4"],
        ["demo", str(code_dir / "five_qubit.code"), "--trials", "-1"],
    ]
    for argv in runs:
        status, out, _ = run_cli(argv + ["--json-only"])
        assert out == json.dumps(plain_rows(reports[-1]), indent=2) + "\n"
        assert out == cli._json_text(reports[-1]) + "\n"
    assert len(reports) == len(runs)
    assert {r.get("error", {}).get("type") for r in reports} == {None, "budget", "invalid-input"}


class _Writes(io.StringIO):
    """A text stream that keeps the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_emit_streams_the_access_table_one_size_at_a_time(tmp_path):
    """The report reaches the stream in pieces, one or more per set size,
    and none holds a third of it: on 10 shares the largest size,
    C(10, 5) = 252 of 1024 rows, is about a quarter of the table."""
    code = random_stabilizer(2, 10, 9, np.random.default_rng(10))
    path = tmp_path / "random.code"
    path.write_text(format_code_file(code), encoding="utf-8")
    out = _Writes()
    argv = ["demo", str(path), "--J", "none", "--trials", "0", "--json-only"]
    assert cli.run(argv, stdout=out) == 0
    assert len(json.loads(out.getvalue())["demo"]["access_table"]) == 2**10
    assert len(out.sizes) > 11
    assert max(out.sizes) < len(out.getvalue()) // 3


@st.composite
def access_tables(draw):
    """An access table held per size on n shares, n from 0 to 7: sizes in any
    order, any subset of each size's sets (so sizes may be empty), label
    codes, and a float mutual information in every size or in none."""
    n = draw(st.integers(0, 7))
    informed = draw(st.booleans())
    sizes = []
    for w in draw(st.permutations(range(n + 1))):
        listing = share_sets(n, w)
        keep = draw(st.lists(st.booleans(), min_size=len(listing), max_size=len(listing)))
        sets = listing[np.array(keep, dtype=bool)]
        codes = draw(st.lists(st.integers(0, 2), min_size=len(sets), max_size=len(sets)))
        size = (sets, np.array(codes, dtype=np.int64))
        if informed:
            values = st.integers(-n, n).map(float) | st.floats(
                allow_nan=False, allow_infinity=False
            )
            mi = draw(st.lists(values, min_size=len(sets), max_size=len(sets)))
            size += (np.array(mi, dtype=float),)
        sizes.append(size)
    return cli._AccessTable(sizes)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=access_tables(), depth=st.sampled_from(["bare", "list", "report"]))
def test_access_rows_are_written_as_json_dumps(table, depth):
    """The per-size template path writes what json.dumps and the generic
    path write for the same rows as plain dicts, at three nesting depths,
    whole or streamed; the strategy includes the empty table, empty sizes
    and the empty ``"shares": []`` row."""
    nest = {
        "bare": lambda t: t,
        "list": lambda t: [t, {"a": t}],
        "report": lambda t: {"demo": {"shares": [], "access_table": t}, "x": 1},
    }[depth]
    rows = plain_rows(table)
    assert "".join(table.pieces("\n")) == json.dumps(rows, indent=2)
    text = cli._json_text(nest(table))
    assert text == json.dumps(nest(rows), indent=2)
    assert text == cli._json_text(nest(rows))
    assert text == "".join(cli._pieces(nest(table)))


@st.composite
def shareable_sets(draw):
    """``analyze`` sets on n shares: any subset of the nonempty sets in
    lexicographic order, and a dual minimum weight in 1..n+1, so that both
    values of theorem2 appear.  theorem1 is true for every listed set."""
    n = draw(st.integers(1, 7))
    listing = sorted(tuple(s) for w in range(1, n + 1) for s in share_sets(n, w).tolist())
    keep = draw(st.lists(st.booleans(), min_size=len(listing), max_size=len(listing)))
    sets = [s for s, kept in zip(listing, keep) if kept]
    return cli._ShareableSets(sets, draw(st.integers(1, n + 1)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sets=shareable_sets(), depth=st.sampled_from(["bare", "list", "report"]))
def test_shareable_rows_are_written_as_json_dumps(sets, depth):
    """The ``analyze`` template path writes what json.dumps and the generic
    path write for the same rows as plain dicts in lexicographic share
    order, at three nesting depths; the strategy includes the empty list."""
    nest = {
        "bare": lambda t: t,
        "list": lambda t: [t, {"a": t}],
        "report": lambda t: {"advance_shareable": {"max_size": 2, "sets": t}, "x": 1},
    }[depth]
    rows = plain_rows(sets)
    written = "".join(sets.pieces("\n"))
    assert [row["shares"] for row in json.loads(written)] == sorted(map(list, sets.sets))
    assert written == json.dumps(rows, indent=2)
    text = cli._json_text(nest(sets))
    assert text == json.dumps(nest(rows), indent=2)
    assert text == cli._json_text(nest(rows))
    assert text == "".join(cli._pieces(nest(sets)))


def test_analyze_walks_the_dual_weight_once(code_dir, monkeypatch):
    """``analyze`` walks the dual minimum weight once, for its own field and
    for the weight certificates."""
    stages = []
    walk = ShareStructure.smallest_size

    def counted(self, holds, last, stage, budget):
        stages.append(stage)
        return walk(self, holds, last, stage, budget)

    monkeypatch.setattr(ShareStructure, "smallest_size", counted)
    for path in sorted(code_dir.glob("*.code")):
        stages.clear()
        status, out, _ = run_cli(["analyze", str(path), "--max-size", "2", "--json-only"])
        assert status == 0
        assert stages.count("dual minimum weight") == 1


@pytest.mark.parametrize("p, n", [(2, 7), (3, 6), (5, 5), (2, 8)])
def test_demo_ranks_each_size_once(tmp_path, monkeypatch, p, n):
    """With its table within the budget, ``demo`` ranks the sizes 1..n once
    each, one elimination per size: the distance walk reads the complements
    of its deficient sets from the table's sizes.  On these codes the walk
    meets deficient sets whose complements' size is not ranked before it."""
    code = random_stabilizer(p, n, n - 1, np.random.default_rng([p, n]))
    path = tmp_path / "random.code"
    path.write_text(format_code_file(code), encoding="utf-8")
    calls = []
    eliminate = ShareStructure._eliminate
    monkeypatch.setattr(
        ShareStructure,
        "_eliminate",
        lambda self, sets, outside: calls.append(outside) or eliminate(self, sets, outside),
    )
    status, _, _ = run_cli(["demo", str(path), "--J", "none", "--trials", "0"])
    assert status == 0
    assert calls == [False] * n


@pytest.mark.parametrize("p, n, trials", [(2, 12, 0), (3, 9, 0), (5, 7, 0), (7, 6, 0), (3, 4, 1)])
def test_large_access_tables_are_written_as_json_dumps(tmp_path, monkeypatch, p, n, trials):
    """Random codes wider than any shipped one: the written report is
    json.dumps of the report, and the summary counts every label."""
    code = random_stabilizer(p, n, n - 1, np.random.default_rng([p, n]))
    path = tmp_path / "random.code"
    path.write_text(format_code_file(code), encoding="utf-8")
    reports = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda report, out: reports.append(report) or emit(report, out))
    status, out, err = run_cli(["demo", str(path), "--J", "none", "--trials", str(trials)])
    assert status == 0
    assert out == json.dumps(plain_rows(reports[0]), indent=2) + "\n"
    assert out == cli._json_text(reports[0]) + "\n"
    table = json.loads(out)["demo"]["access_table"]
    assert len(table) == 2**n
    order = [s for w in range(n + 1) for s in share_sets(n, w).tolist()]
    assert [row["shares"] for row in table] == order
    assert all(("mutual_information" in row) == (trials > 0) for row in table)
    structure = code.share_structure()
    counts: dict[str, int] = {}
    for w in range(n + 1):
        for label in structure.labels(w, structure.level(w), structure.level(n - w)[::-1]):
            counts[label.value] = counts.get(label.value, 0) + 1
    line = "access table: " + ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    assert line in err.splitlines()


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("p=4 n=2\n", 1, "p must be one of (2, 3, 5, 7), got 4"),
        ("p=2 n=0\n", 1, "n must be positive, got 0"),
        ("p=2 n=2\n1 x | 0 0\n", 2, "exponents must be integers"),
        ("p=2 n=2\n1 | 0 0\n", 2, "expected 2 x and 2 z exponents, got 1 and 2"),
        ("# two rows on one qudit\np=2 n=1\n1 | 0\n0 | 1\n", 4, "more than n = 1 generator rows"),
    ],
)
def test_code_file_refusals_name_their_line(tmp_path, text, line, message):
    """The code file is the CLI's outside input: each refusal names its
    line, and the CLI reports it as invalid input."""
    with pytest.raises(CodeFileError) as err:
        parse_code_file(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"
    path = tmp_path / "bad.code"
    path.write_text(text)
    status, out, err_text = run_cli(["validate", str(path), "--json-only"])
    assert status == 1
    error = {"type": "invalid-input", "message": f"line {line}: {message}"}
    assert json.loads(out)["error"] == error
    assert err_text == f"error: line {line}: {message}\n"


@pytest.mark.parametrize("n", [15000, 30000])
def test_a_huge_access_table_is_refused_with_a_short_count(tmp_path, n):
    """2**n has more than 4300 decimal digits, which Python refuses to
    format; the refusal spells the count as a power of 2 and exits 2."""
    path = tmp_path / "rowless.code"
    path.write_text(f"p=2 n={n}\n")
    status, out, err = run_cli(["demo", str(path), "--J", "none", "--trials", "0", "--json-only"])
    assert status == 2
    message = f"enumeration limit: at least 2**{n} share sets exceed budget 1048576 (access table)"
    assert json.loads(out)["error"] == {"type": "budget", "message": message}
    assert len(message) < 200
    assert err == f"budget exceeded: {message}\n"


# ---------------------------------------------------------------------------
# the CLI's contract under random input

#: Rowless share counts whose 2**n has more than Python's 4300 printable digits.
HUGE_N = (14300, 2**16, 10**5)


@st.composite
def code_texts(draw):
    """A random valid code file (p in PRIMES, n <= 5, rowless included), or
    one text mutation of it: a repeated row, a changed entry (possibly out of
    the field), a wrong header, or a rowless file on a huge n."""
    p = draw(st.sampled_from(gfp.PRIMES))
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = format_code_file(random_stabilizer(p, n, draw(st.integers(0, n)), rng)).splitlines()
    mutation = draw(st.sampled_from(["none", "repeat-row", "change-entry", "header", "huge"]))
    if mutation == "repeat-row" and len(lines) > 1:
        row = draw(st.integers(1, len(lines) - 1))
        lines.insert(row, lines[row])
    elif mutation == "change-entry" and len(lines) > 1:
        row = draw(st.integers(1, len(lines) - 1))
        at = draw(st.sampled_from([i for i, ch in enumerate(lines[row]) if ch.isdigit()]))
        lines[row] = lines[row][:at] + str(draw(st.integers(0, p))) + lines[row][at + 1 :]
    elif mutation == "header":
        headers = [f"p={p} n={n + 1}", f"p={p} n=0", f"p=4 n={n}", f"p={p}", f"n={n} p={p}", "p=2 n=x"]
        lines[0] = draw(st.sampled_from(headers))
    elif mutation == "huge":
        lines = [f"p={p} n={draw(st.sampled_from(HUGE_N))}"]
    return "\n".join(lines) + "\n"


@st.composite
def cli_argvs(draw, path):
    """One command on ``path`` with random counts, J lists and seeds.  A
    trial count past the budget is drawn only beside a budget that refuses it."""
    command = draw(st.sampled_from(["validate", "analyze", "demo"]))
    argv = [command, path]
    budget = draw(st.none() | st.integers(-1, 64) | st.sampled_from([2**12, 2**20, 2**64]))
    if budget is not None:
        argv += ["--budget", str(budget)]
    if command == "analyze" and draw(st.booleans()):
        argv += ["--max-size", str(draw(st.integers(-1, 6) | st.just(2**100)))]
    if command == "demo":
        shares = st.lists(st.integers(0, 6), max_size=3).map(lambda js: ",".join(map(str, js)))
        argv += ["--J", draw(st.sampled_from(["none", ""]) | shares)]
        huge = 10**12 if budget is None or budget <= 2**20 else 3
        argv += ["--trials", str(draw(st.integers(-1, 3) | st.just(huge)))]
        argv += ["--seed", str(draw(st.integers(-1, 5) | st.just(2**70)))]
    if draw(st.booleans()):
        argv.append("--json-only")
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzz_the_cli_contract(fuzz_dir, schema, data):
    """Whatever the input, the CLI exits 0, 1 or 2 (never 3, an internal
    error), writes one JSON report that matches the schema, and writes the
    same bytes when run again."""
    text = data.draw(code_texts())
    path = fuzz_dir / f"{hashlib.sha256(text.encode()).hexdigest()[:16]}.code"
    path.write_text(text)
    argv = data.draw(cli_argvs(str(path)))
    first = run_cli(argv)
    status, out, _ = first
    assert status in (0, 1, 2), (argv, text, out)
    jsonschema.validate(json.loads(out), schema)
    assert run_cli(argv) == first
