"""Trace self-test.

usage: python3 perfbench/selftest.py

For each workload runs two traced passes with seed 0 and checks that
  * both passes match golden.json,
  * every span's call count, every work count and the operand census are
    identical between the passes,
  * top-level spans cover at least 95% of the traced wall time, so no layer
    does its work outside the wrapped functions.
Exits 1 if any check fails.
"""

from __future__ import annotations

import shutil
import sys

import run as bench
import workloads

MIN_COVERAGE = 0.95


def counts(trace: dict) -> dict:
    out = {f"{name}.calls": n for name, n in trace["calls"].items()}
    out.update(trace["work"])
    out.update({f"census.{k}": v for k, v in trace["census"].items()})
    return out


def main() -> int:
    ok = True
    for workload in workloads.WORKLOADS:
        traces, passes = [], []
        for k in (1, 2):
            trace_dir = bench.STATE / "selftest" / f"{workload}-{k}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            result = bench.run_pass(bench.Run(workload, 0), trace_dir)
            passes.append(result)
            traces.append(result["trace"])
        _, failed, _ = bench.check_golden(workload, passes)
        first, second = counts(traces[0]), counts(traces[1])
        differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        coverage = [t["root_s"] / t["wall_s"] for t in traces]
        passed = not failed and not differ and min(coverage) >= MIN_COVERAGE
        ok = ok and passed
        print(
            f"{workload}: {'ok' if passed else 'FAILED'}; golden mismatches {failed}; "
            f"{len(first)} counts, {len(differ)} differ {differ[:5]}; "
            f"spans {traces[0]['spans']}; root coverage {coverage[0]:.4f} {coverage[1]:.4f}",
            flush=True,
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
