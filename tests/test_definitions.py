"""Every function, class and method defined in src/tmfkit is used by an
identifier somewhere in src/tmfkit, so that dead definitions do not pile up.
KEPT lists the definitions that only the tests use, each with the reason it
stays."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tmfkit"

_PAPER_NOTION = (
    "a 2-4 line paper notion that acceptance criterion 11 and the tests use; "
    "copying it into tests/ would move code, not remove it"
)

KEPT = {
    "is_symmetric": "ROADMAP items 7 and 10 decide whether the suite checks it",
    "symmetric_root": "ROADMAP items 7 and 10 decide whether the suite checks it",
    "c_image_symmetry_witness": (
        "a suite check for it would change perfbench/golden.json, which only a "
        "benchmark change may do"
    ),
    "normal_form": (
        "builds the random elements of the rewriting-soundness tests (acceptance "
        "criterion 10); it shares the product step, which test_ncalgebra checks "
        "against an independent word rewriter"
    ),
    "solve": "the oracle that the inverse test of test_gradedmod solves with",
    "irrelevant": _PAPER_NOTION,
    "shift_tmf": _PAPER_NOTION,
}


def _walk(node: ast.AST):
    """ast.walk that skips type annotations: a name that only annotates a
    parameter, a field or a return value is not a use."""
    yield node
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _walk(child)


def unused_definitions() -> set[str]:
    """Names of definitions that no identifier in src/tmfkit uses: no name,
    attribute or import refers to them (comments, strings and type
    annotations do not count); dunder methods are called by the language,
    not by name."""
    defined: set[str] = set()
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in _walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return {
        name
        for name in defined - used
        if not (name.startswith("__") and name.endswith("__"))
    }


def test_every_definition_is_used_in_src():
    unused = unused_definitions()
    assert not unused - KEPT.keys(), f"unused definitions: {sorted(unused - KEPT.keys())}"
    # a kept name that src now uses leaves the list
    assert not KEPT.keys() - unused, f"used, so no longer kept: {sorted(KEPT.keys() - unused)}"
