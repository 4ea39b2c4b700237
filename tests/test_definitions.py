"""Every function, class and method defined in src/tmfkit is named somewhere
else in src/tmfkit, so that dead definitions do not pile up.  KEPT lists the
definitions that only the tests use, each with the reason it stays."""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tmfkit"

_PAPER_NOTION = (
    "a 2-4 line paper notion that acceptance criterion 11 and the tests use; "
    "copying it into tests/ would move code, not remove it"
)

KEPT = {
    "evaluate": "certified F_p slices (ROADMAP item 6) evaluate scalars at t0",
    "is_symmetric": "ROADMAP items 7 and 10 decide whether the suite checks it",
    "symmetric_root": "ROADMAP items 7 and 10 decide whether the suite checks it",
    "c_image_symmetry_witness": (
        "a suite check for it would change perfbench/golden.json, which only a "
        "benchmark change may do"
    ),
    "irrelevant": _PAPER_NOTION,
    "shift_tmf": _PAPER_NOTION,
    "is_reduced": _PAPER_NOTION,
    "is_identity": _PAPER_NOTION,
}


def unused_definitions() -> set[str]:
    """Names of definitions whose name occurs in src/tmfkit only where they
    are defined; dunder methods are called by the language, not by name."""
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    defined: Counter = Counter()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] += 1
    text = "\n".join(sources)
    return {
        name
        for name, count in defined.items()
        if not (name.startswith("__") and name.endswith("__"))
        and len(re.findall(rf"\b{re.escape(name)}\b", text)) <= count
    }


def test_every_definition_is_used_in_src():
    unused = unused_definitions()
    assert not unused - KEPT.keys(), f"unused definitions: {sorted(unused - KEPT.keys())}"
    # a kept name that src now uses leaves the list
    assert not KEPT.keys() - unused, f"used, so no longer kept: {sorted(KEPT.keys() - unused)}"
