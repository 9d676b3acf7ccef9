"""The python blocks of README.md run as written and print what their
comments say: each `print(...)  # text` line must print `text`."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_prints_its_comments(block):
    want = [m.group(1) for m in re.finditer(r"^print\(.*\)\s+#\s*(.*?)\s*$", block, re.M)]
    assert want, "a block with no commented print line checks nothing"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == want
