"""The benchmark's ops must reproduce perfbench/golden.json.

The benchmark checks every op's outcome (check names, verdicts and
coker-oracle series; for a CLI command its exit code and the digests of its
report and of every file it writes) against the golden file; running one
pass of each workload here makes a drift fail the test suite too, not only a
benchmark run.  Each in-process pass runs in a fresh interpreter, as the
benchmark runs it; the CLI commands run in this one.  Nothing is written
under perfbench/.
"""

import importlib
import json
import os
import subprocess
import sys

from tmfkit.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load_golden(workload):
    with open(os.path.join(PERFBENCH, "golden.json"), encoding="utf-8") as handle:
        return json.load(handle)[workload]


def check_outcomes_match_golden(workload):
    golden = load_golden(workload)
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


def test_cli_session_outcomes_match_golden(tmp_path, monkeypatch, capsys):
    # the commands of workloads.cli_ops run in order in one directory, as the
    # benchmark runs them, each through tmfkit.cli.main
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    monkeypatch.chdir(tmp_path)
    golden = load_golden("cli-session")
    got = {}
    for name, argv in workloads.cli_ops(0):
        if name == "verify-broken":
            workloads.write_broken(str(tmp_path), 0)
        before = set(os.listdir(tmp_path))
        code = main(argv)
        stdout = capsys.readouterr().out
        emitted = sorted(set(os.listdir(tmp_path)) - before)
        got[name] = workloads.cli_outcome(name, code, stdout, str(tmp_path), emitted)
    assert list(got) == list(golden)
    for name, outcome in golden.items():
        assert got[name] == outcome, name
