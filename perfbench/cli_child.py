"""One tmfkit CLI command with tracing on, in a fresh interpreter.

usage: python perfbench/cli_child.py SUMMARY_JSON OP_INDEX CLI_ARGS...

Runs ``tmfkit.cli.main(CLI_ARGS)`` as ``python -m tmfkit.cli`` would, with
the import of ``tmfkit.cli`` recorded as a ``cli.startup`` span.  Writes the
trace summary to SUMMARY_JSON and the spans next to it (``.tsv``).
"""

from __future__ import annotations

import json
import sys
import time

import spans


def main() -> int:
    start = time.perf_counter()
    import tmfkit.cli

    imported = time.perf_counter()
    summary_path, op = sys.argv[1], int(sys.argv[2])
    tracer = spans.Tracer()
    tracer.op = op
    tracer.add_span("cli.startup", start, imported)
    spans.install(tracer)
    try:
        return tmfkit.cli.main(sys.argv[3:])
    finally:
        summary = tracer.summary()
        summary["wall_s"] = time.perf_counter() - start
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
        tracer.write_spans(summary_path[: -len(".json")] + ".tsv")


if __name__ == "__main__":
    sys.exit(main())
