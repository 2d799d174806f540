"""The README's examples run as written: its doctests and its `totdk eval` lines."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from totdk.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

# The body of each ```python block, without its fences, so that a closing
# fence is never read as the expected output of the example before it.
DOCTEST_BLOCKS = [
    body
    for body in re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    if ">>> " in body
]

# `totdk eval … # -> value` lines; the value is the first word after the arrow.
EVAL_LINES = re.findall(r"^(totdk eval .*?)\s+# -> (\S+)", README, re.M)


def test_readme_has_examples():
    assert DOCTEST_BLOCKS
    assert len(EVAL_LINES) >= 7


@pytest.mark.parametrize(
    "block", DOCTEST_BLOCKS, ids=[f"block{i}" for i in range(len(DOCTEST_BLOCKS))]
)
def test_readme_doctests(block):
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", "README.md", 0)
    report = []
    runner = doctest.DocTestRunner()
    failed, attempted = runner.run(test, out=report.append)
    assert attempted > 0
    assert failed == 0, "".join(report)


@pytest.mark.parametrize("line,expected", EVAL_LINES)
def test_readme_eval_lines(capsys, line, expected):
    argv = shlex.split(line)
    assert argv[0] == "totdk"
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out == expected + "\n"
