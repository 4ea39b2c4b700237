"""Rewriting keeps one owner: only ncalgebra names the rewrite budget and
the product cache, so every product draws its budget from _mul_into and no
other module reaches into the cache."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tmfkit"
OWNED = ("REWRITE_FUEL", "_mono_mul_cache")


def test_only_ncalgebra_names_the_rewrite_budget_and_the_product_cache():
    strays = [
        f"{path.name}:{number} names {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "ncalgebra.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        for name in OWNED
        if name in line
    ]
    assert not strays, strays
