"""The README's annotated command lines, `unitri ARGS  # EXPECTED`, run
in-process: the first line of stdout must be EXPECTED."""

import re
import shlex
from pathlib import Path

import pytest

from unitri.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"^unitri (.+?)\s+# (.+)$", README.read_text(), re.MULTILINE)


def test_readme_has_annotated_examples():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("args, expected", EXAMPLES)
def test_readme_example(capsys, args, expected):
    code = main(shlex.split(args))
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == expected
