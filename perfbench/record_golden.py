"""Record golden.json: each op's outcome from one pass of every workload.

usage: python3 perfbench/record_golden.py

Records with seed 0; the outcomes do not depend on the seed.  Run it from
the root of a checkout whose verdicts are known to be right; the benchmark
then counts every op whose outcome differs as failed.
"""

from __future__ import annotations

import json

import run as bench
import workloads


def main() -> None:
    golden = {}
    for workload in workloads.WORKLOADS:
        result = bench.run_pass(bench.Run(workload, 0))
        golden[workload] = {op["op"]: op["outcome"] for op in result["ops"]}
        print(f"{workload}: {len(golden[workload])} ops in {result['wall_s']:.1f} s", flush=True)
    path = bench.BENCH / "golden.json"
    path.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
