"""The README's Example block runs as written, so a signature change cannot
leave it stale."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_example_runs(capsys):
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    block = re.search(r"## Example\n\n```python\n(.*?)```", text, re.S)
    assert block, "README has no Example block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out == "True\n[True, True]\n"
