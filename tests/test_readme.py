"""The README's quick session and command block run as written."""

import doctest
import json
import re
import shlex
from pathlib import Path

import pytest

from wdsmooth import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_session():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def command_lines():
    """The ``wdsmooth ...`` lines of the sh block under "Command line"."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("wdsmooth ")]


@pytest.mark.parametrize("line", command_lines())
def test_readme_commands_run(line, capsys):
    words = shlex.split(line, comments=True)
    assert cli.main(words[1:]) == 0
    out = capsys.readouterr().out
    if "--format table" not in line:
        json.loads(out)
