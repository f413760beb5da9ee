"""The README's ``python`` examples run as written."""

from __future__ import annotations

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_the_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_every_python_example_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
