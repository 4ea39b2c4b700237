"""The README's Example and CLI blocks run as written, so a signature change
cannot leave them stale."""

import os
import re
import shlex

from tmfkit.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_example_runs(capsys):
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    block = re.search(r"## Example\n\n```python\n(.*?)```", text, re.S)
    assert block, "README has no Example block"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out == "True\n[True, True]\n"


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # each `tmfkit ...` line of the CLI block, in order, in a fresh directory;
    # iso's seeded negative exits 3, every other line exits 0
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S)
    assert block, "README has no CLI block"
    lines = [ln for ln in block.group(1).splitlines() if ln.startswith("tmfkit ")]
    assert len(lines) == 18
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        expected = 3 if argv[0] == "iso" else 0
        assert main(argv) == expected, line
        capsys.readouterr()
