import os
import subprocess
import sys

import pytest

from conftest import REPO

DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    # A subprocess does not inherit pytest's filterwarnings; -W error makes
    # any warning a demo raises fail it, as it would fail a test.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_gives_the_results_in_its_comments():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["code_distance"](scope["code"]) == 2
    found = scope["enumerate_advance_shareable"](scope["code"], max_size=1)
    assert [s.shares for s in found] == [(1,), (2,), (3,), (4,)]
    assert abs(scope["fidelity"](scope["recovered"], scope["secret"]) - 1) < 1e-9
