"""No line of src/tmfkit is longer than 100 characters, so that a line count
of the source cannot fall by packing lines."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tmfkit"
MAX_LINE = 100


def test_no_src_line_is_over_100_characters():
    long_lines = [
        f"{path.name}:{number} ({len(line)} characters)"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert not long_lines, long_lines
