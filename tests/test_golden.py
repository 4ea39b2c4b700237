"""The benchmark's in-process ops must reproduce perfbench/golden.json.

The benchmark checks every op's outcome (check names, verdicts and
coker-oracle series) against the golden file; running one pass of each
in-process workload here makes a drift fail the test suite too, not only a
benchmark run.  Each pass runs in a fresh interpreter, as the benchmark runs
it, and writes nothing under perfbench/.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def check_outcomes_match_golden(workload):
    with open(os.path.join(PERFBENCH, "golden.json"), encoding="utf-8") as handle:
        golden = json.load(handle)[workload]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "worker.py"), workload, "0"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    ops = [json.loads(line) for line in proc.stdout.splitlines()]
    got = {op["op"]: op["outcome"] for op in ops}
    assert list(got) == list(golden)
    for name, outcome in golden.items():
        assert got[name] == outcome, name


def test_param_sweep_outcomes_match_golden():
    check_outcomes_match_golden("param-sweep")


def test_catalog_deep_outcomes_match_golden():
    check_outcomes_match_golden("catalog-deep")
