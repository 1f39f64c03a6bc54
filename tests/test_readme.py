"""The README's library example runs, and every exported name resolves."""

import re
from pathlib import Path

import bkneser

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_every_export_resolves():
    missing = [name for name in bkneser.__all__ if not hasattr(bkneser, name)]
    assert not missing
    assert len(set(bkneser.__all__)) == len(bkneser.__all__)
