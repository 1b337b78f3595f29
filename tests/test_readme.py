"""The README's annotated command lines, `unitri ARGS  # EXPECTED`, run
in-process: the first line of stdout must be EXPECTED.  Its Python blocks
run too, each in a fresh namespace, and their printed lines are pinned."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from unitri.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"^unitri (.+?)\s+# (.+)$", README.read_text(), re.MULTILINE)
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                           re.MULTILINE | re.DOTALL)
# the printed lines of each block, in README order: the quick tour, then
# the rank-4 example, whose first line is c2*c1 expanded
PRINTED = [
    ["2w+1 holds",
     "5 holds",
     "['1', 'x2*x3 - x3*x2', 'x2*x3^2 - 2*x3*x2*x3 + x3^2*x2']",
     "{(0, 0): '-x2*x3 + x3*x2', (1, 1): '1'}"],
    ["x3*x4^2*x3*x4 - x3*x4^3*x3 - 2*x4*x3*x4*x3*x4 + 2*x4*x3*x4^2*x3"
     " + x4^2*x3^2*x4 - x4^2*x3*x4*x3",
     "fails",
     "holds"],
]


def test_readme_has_annotated_examples():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("args, expected", EXAMPLES)
def test_readme_example(capsys, args, expected):
    code = main(shlex.split(args))
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == expected


def test_readme_python_blocks_print_what_they_say():
    assert len(PYTHON_BLOCKS) == len(PRINTED)
    for block, expected in zip(PYTHON_BLOCKS, PRINTED):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, {})
        assert out.getvalue().splitlines() == expected
