"""Every ``python`` block of README.md runs, and says what it returns.

A block runs line by line in a namespace of its own.  A line whose comment
starts with a literal (an integer, a tuple or a list) must evaluate to that
literal; a line whose comment is ``raises <Name>`` must raise that
exception.  So a renamed or removed name, or a changed value, fails here
instead of in a reader's session.
"""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
COMMENTED = re.compile(r"^(?P<code>.*?)\s+#\s*(?P<comment>.*)$")
LITERAL = re.compile(r"^(\(.*?\)|\[.*?\]|-?\d+)(?=$|[ ,])")


def run_block(block: str) -> int:
    """Run one block; the number of lines whose stated outcome it checked."""
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        match = COMMENTED.match(line)
        if match is None:
            exec(line, namespace)
            continue
        code, comment = match["code"], match["comment"]
        literal = LITERAL.match(comment)
        if comment.startswith("raises "):
            with pytest.raises(namespace[comment.split()[1]]):
                exec(code, namespace)
        elif literal:
            assert eval(code, namespace) == ast.literal_eval(literal[1]), line
        else:
            exec(code, namespace)
            continue
        checked += 1
    return checked


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs_as_stated(block):
    assert run_block(block) >= 1
