"""tmfkit benchmark: one workload, one run.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` (PYTHONPATH=src), never installed.  Every pass starts fresh
interpreters, so per-algebra caches and the RSS high-water mark do not carry
over between passes.  Each op's outcome is checked against ``golden.json``.

``--trace 0`` runs as many passes as fit in S seconds (at least one) and
reports the end-to-end metrics of BENCHMARK.json.  A run stops at 170 s,
the longest a run may take; a pass cut there is still reported, with the
ops it did not finish counted as failed.  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics.
Informational lines start with ``perfbench``; the last line is the JSON
result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench"
SETUP_SAMPLES = 21
RUN_LIMIT_S = 170.0
SPAN_FIELDS = ("calls", "self_s", "total_s")
SPAN_NAMES = {name for name, *_ in spans.FUNCTIONS + spans.METHODS} | {"cli.startup"}


class BenchError(RuntimeError):
    pass


class PassTimeout(BenchError):
    """The run time limit cut a child short; ``stdout`` is what it printed."""

    def __init__(self, cmd: list[str], stdout: bytes | None) -> None:
        super().__init__(f"run time limit reached: {' '.join(cmd)}")
        self.stdout = (stdout or b"").decode("utf-8", "replace")


class Run:
    """Environment and deadline shared by the passes of one run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        # a fixed hash seed keeps set iteration order, and so the traced
        # call counts, identical from run to run
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def child(self, cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise PassTimeout(cmd, None)
        try:
            return subprocess.run(
                cmd, cwd=cwd, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise PassTimeout(cmd, exc.stdout) from exc


def cut_pass(ops: list[dict], unfinished_s: float) -> dict:
    """A pass the run time limit cut short: the unfinished op is failed, and
    so, by their absence, are the ops after it."""
    ops.append({"op": "cut-by-time-limit", "seconds": unfinished_s, "outcome": {"error": "time limit"}})
    return {"ops": ops, "wall_s": sum(op["seconds"] for op in ops), "cut": True}


def suite_pass(run: Run, trace_dir: Path | None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), run.workload, str(run.seed)]
    if trace_dir is not None:
        cmd.append(str(trace_dir / f"{run.workload}.tsv"))
    start = time.perf_counter()
    try:
        proc = run.child(cmd, ROOT)
    except PassTimeout as exc:
        ops = [json.loads(line) for line in exc.stdout.splitlines() if line.startswith('{"op"')]
        elapsed = time.perf_counter() - start
        return cut_pass(ops, max(elapsed - sum(op["seconds"] for op in ops), 0.0))
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    result = {"ops": [line for line in lines if "op" in line]}
    result["wall_s"] = sum(op["seconds"] for op in result["ops"])
    if trace_dir is not None:
        result["trace"] = lines[-1]["trace"]
        result["trace"]["wall_s"] = result["wall_s"]
    return result


def cli_pass(run: Run, trace_dir: Path | None) -> dict:
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=STATE))
    ops, summaries = [], []
    try:
        for index, (name, argv) in enumerate(workloads.cli_ops(run.seed)):
            if name == "verify-broken":
                try:
                    workloads.write_broken(str(workdir), run.seed)
                except (OSError, LookupError, ValueError) as exc:
                    ops.append({"op": name, "seconds": 0.0, "outcome": {"error": f"no broken input: {exc}"}})
                    continue
            before = set(os.listdir(workdir))
            if trace_dir is None:
                cmd = [sys.executable, "-m", "tmfkit.cli", *argv]
            else:
                summary_path = trace_dir / f"cli-op{index:02d}.json"
                cmd = [sys.executable, str(BENCH / "cli_child.py"), str(summary_path), str(index), *argv]
            start = time.perf_counter()
            try:
                proc = run.child(cmd, workdir)
            except PassTimeout:
                return cut_pass(ops, time.perf_counter() - start)
            seconds = time.perf_counter() - start
            emitted = sorted(set(os.listdir(workdir)) - before)
            try:
                outcome = workloads.cli_outcome(name, proc.returncode, proc.stdout, str(workdir), emitted)
            except (ValueError, KeyError, TypeError) as exc:
                outcome = {"error": f"{type(exc).__name__}: {exc}", "stderr": proc.stderr[-500:]}
            ops.append({"op": name, "seconds": seconds, "outcome": outcome})
            if trace_dir is not None:
                summaries.append(json.loads(summary_path.read_text(encoding="utf-8")))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"ops": ops, "wall_s": sum(op["seconds"] for op in ops)}
    if trace_dir is not None:
        result["trace"] = merge_summaries(summaries)
    return result


def run_pass(run: Run, trace_dir: Path | None = None) -> dict:
    if run.workload in workloads.SUITES:
        return suite_pass(run, trace_dir)
    return cli_pass(run, trace_dir)


def merge_summaries(summaries: list[dict]) -> dict:
    out: dict = {key: Counter() for key in (*SPAN_FIELDS, "work")}
    census = Counter()
    for s in summaries:
        for key in (*SPAN_FIELDS, "work"):
            out[key].update(s[key])
        census.update({k: v for k, v in s["census"].items() if k != "max_abs_exp"})
        census["max_abs_exp"] = max(census["max_abs_exp"], s["census"]["max_abs_exp"])
    out["census"] = census
    for key in ("root_s", "wall_s", "spans"):
        out[key] = sum(s[key] for s in summaries)
    return out


def layer_value(name: str, trace: dict, overhead: float) -> float:
    """Value of one per-layer metric of BENCHMARK.json from a trace summary."""
    census = trace["census"]
    samples = census["monomial"] + census["polynomial"] + census["general"]
    special = {
        "trace.overhead_frac": lambda: overhead,
        "trace.root_coverage": lambda: trace["root_s"] / trace["wall_s"],
        "cli.startup_s": lambda: trace["total_s"].get("cli.startup", 0.0),
        "scalars.operand.samples": lambda: samples,
        "scalars.operand.monomial_share": lambda: census["monomial"] / max(samples, 1),
        "scalars.operand.polynomial_share": lambda: census["polynomial"] / max(samples, 1),
        "scalars.operand.general_share": lambda: census["general"] / max(samples, 1),
        "scalars.operand.max_abs_exp": lambda: census["max_abs_exp"],
    }
    if name in special:
        return special[name]()
    if name in trace["work"]:
        return trace["work"][name]
    span, field = name.rsplit(".", 1)
    if field not in SPAN_FIELDS or span not in SPAN_NAMES:
        raise BenchError(f"BENCHMARK.json names an unknown per-layer metric {name!r}")
    return trace[field].get(span, 0)


def compile_sources() -> None:
    """Compile bytecode once, so the first pass does not pay for it."""
    for tree in ("src", "perfbench"):
        if not compileall.compile_dir(str(ROOT / tree), quiet=1):
            raise BenchError(f"bytecode compilation failed in {tree}/")


def import_times(run: Run) -> list[float]:
    """Wall times of fresh interpreters that import tmfkit."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = run.child([sys.executable, "-c", "import tmfkit"], ROOT)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"import tmfkit failed: {proc.stderr[-2000:]}")
    return samples


def meta(run: Run, traced: bool) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = run.child(["git", "rev-parse", "HEAD"], ROOT)
        commit = proc.stdout.strip() or None
    return {
        "workload": run.workload,
        "seed": run.seed,
        "trace": traced,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def describe(name: str, values: list[float]) -> str:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return f"perfbench {name} median={med:.4f} q1={q1:.4f} q3={q3:.4f} n={len(values)}"


def check_golden(workload: str, passes: list[dict]) -> tuple[int, int, list[str]]:
    """Ops attempted, ops whose outcome differs from golden.json (a missing,
    extra or renamed op counts as failed), and a line per mismatch."""
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))[workload]
    attempted, failed, problems = 0, 0, []
    for result in passes:
        got = {op["op"]: op["outcome"] for op in result["ops"]}
        for name in dict.fromkeys([*golden, *got]):
            attempted += 1
            if got.get(name) != golden.get(name):
                failed += 1
                problems.append(f"{name}: {json.dumps(got.get(name))[:300]}")
    return attempted, failed, problems


def measure_layers(run: Run, per_layer: list[dict]) -> tuple[list[dict], dict]:
    """One untraced and one traced pass; the per-layer metric values."""
    trace_dir = STATE / "traces" / f"{run.workload}-seed{run.seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    plain = run_pass(run)
    traced = run_pass(run, trace_dir)
    if plain.get("cut") or traced.get("cut"):
        raise BenchError("run time limit reached before the traced pass ended")
    overhead = traced["wall_s"] / plain["wall_s"] - 1
    print(f"perfbench spans={traced['trace']['spans']} written to {trace_dir.relative_to(ROOT)}")
    values = {m["name"]: layer_value(m["name"], traced["trace"], overhead) for m in per_layer}
    return [plain, traced], values


def measure_end_to_end(run: Run, seconds: float) -> tuple[list[dict], dict]:
    """As many untraced passes as fit in the run time; the end-to-end values
    except ok_frac, which needs the golden check."""
    setup_samples = import_times(run)
    passes: list[dict] = []
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        pass_start = time.perf_counter()
        passes.append(run_pass(run))
        last = time.perf_counter() - pass_start
        if passes[-1].get("cut"):
            break
    walls = [p["wall_s"] for p in passes]
    slowest = [max(op["seconds"] for op in p["ops"]) for p in passes]
    for name, samples in (("wall_s", walls), ("slowest_op_s", slowest), ("setup_s", setup_samples)):
        print(describe(name, samples))
    return passes, {
        "wall_s": statistics.median(walls),
        "slowest_op_s": statistics.median(slowest),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_samples),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tmfkit" / "__init__.py").is_file():
        print("perfbench: no tmfkit source tree at src/tmfkit", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = bench["per_layer" if args.trace else "end_to_end"]
    run = Run(args.workload, args.seed)
    try:
        print("perfbench meta " + json.dumps(meta(run, bool(args.trace))), flush=True)
        compile_sources()
        if args.trace:
            passes, values = measure_layers(run, declared)
        else:
            passes, values = measure_end_to_end(run, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = check_golden(args.workload, passes)
    for problem in problems:
        print(f"perfbench mismatch {problem}")
    for name in dict.fromkeys(op["op"] for op in passes[0]["ops"]):
        times = [op["seconds"] for p in passes for op in p["ops"] if op["op"] == name]
        print(f"perfbench op {name} median_s={statistics.median(times):.4f} n={len(times)}")
    print(f"perfbench fail_frac={failed / attempted:.4f} ({failed}/{attempted})")
    if not args.trace:
        values["ok_frac"] = 1 - failed / attempted
    if set(values) != {m["name"] for m in declared}:
        print(f"perfbench: metrics {sorted(values)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
