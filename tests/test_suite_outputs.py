"""The checks and notes of eighteen catalog suites, pinned in suite_outputs.json.

The suites are (c), (h), (d-odd) n = 5, 7, 9, (g) n = 2, 3, 5 and (b) n = 3,
each non-deep and then deep, at seed 0; together they run in about half a
second.  The file is the list of [case, n, deep, checks, notes], with each
check as [name, ok, detail], written one check per line; the sha256 of
json.dumps of that list is the suites' digest.  A change of any verdict,
detail or note shows as a diff, check by check.  After a change that alters
the outputs on purpose, regenerate the file with

    PYTHONPATH=src python tests/test_suite_outputs.py

and read its diff before committing it.
"""

import difflib
import json
from pathlib import Path

import pytest

from tmfkit.catalog import build, run_suite

PINNED = Path(__file__).with_name("suite_outputs.json")
SUITES = [
    ("c", None), ("h", None), ("d-odd", 5), ("d-odd", 7), ("d-odd", 9),
    ("g", 2), ("g", 3), ("g", 5), ("b", 3),
]


def suite_output(case, n, deep):
    report = run_suite(build(case, n), seed=0, deep=deep)
    return [case, n, deep, [list(c) for c in report.checks], list(report.notes)]


def suite_outputs():
    return [suite_output(case, n, deep) for case, n in SUITES for deep in (False, True)]


def pinned_outputs():
    return json.loads(PINNED.read_text())


def pinned_checks(case, n, deep):
    """The pinned [name, ok, detail] checks of one suite."""
    return next(checks for c, m, d, checks, _ in pinned_outputs() if [c, m, d] == [case, n, deep])


def dump(outputs) -> str:
    """JSON text of the outputs with one check per line."""
    suites = []
    for case, n, deep, checks, notes in outputs:
        head = ", ".join(json.dumps(x) for x in (case, n, deep))
        rows = ",\n".join(f"  {json.dumps(c)}" for c in checks)
        suites.append(f" [{head}, [\n{rows}\n ], {json.dumps(notes)}]")
    return "[\n" + ",\n".join(suites) + "\n]\n"


def lines(outputs):
    """One line per check and one per suite's notes, each naming its suite."""
    out = []
    for case, n, deep, checks, notes in outputs:
        suite = case + (f" n={n}" if n is not None else "") + (" deep" if deep else "")
        out += [f"{suite}: {json.dumps(c)}" for c in checks]
        out.append(f"{suite}: notes {json.dumps(notes)}")
    return out


def test_suite_outputs_match_the_pinned_file():
    pinned, actual = pinned_outputs(), suite_outputs()
    if actual != pinned:
        diff = difflib.unified_diff(lines(pinned), lines(actual), "pinned", "actual", lineterm="")
        pytest.fail("suite outputs differ from " + PINNED.name + ":\n" + "\n".join(diff))


if __name__ == "__main__":
    PINNED.write_text(dump(suite_outputs()))
