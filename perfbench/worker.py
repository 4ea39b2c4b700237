"""One pass of an in-process workload, in a fresh interpreter.

usage: python perfbench/worker.py WORKLOAD SEED [SPANS_TSV]

Prints one JSON line per op, with its seconds and outcome, as soon as the op
ends, so a pass cut short still reports the ops it finished.  When SPANS_TSV
is given, a last line holds the trace summary; the spans go to SPANS_TSV.
"""

from __future__ import annotations

import json
import sys
import time

import spans
import workloads


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    from tmfkit import catalog

    tracer = None
    if spans_path:
        tracer = spans.Tracer()
        spans.install(tracer)
    for index, (case, n, deep) in enumerate(workloads.SUITES[workload]):
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            report = catalog.run_suite(catalog.build(case, n), seed=seed, deep=deep)
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
            report = exc
        seconds = time.perf_counter() - start
        if isinstance(report, Exception):
            outcome = {"error": f"{type(report).__name__}: {report}"}
        else:
            outcome = workloads.suite_outcome(report)
        op = {"op": workloads.suite_op_name(case, n, deep), "seconds": seconds, "outcome": outcome}
        print(json.dumps(op), flush=True)
    if tracer is not None:
        tracer.write_spans(spans_path)
        print(json.dumps({"trace": tracer.summary()}))


if __name__ == "__main__":
    main()
