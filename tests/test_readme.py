"""The examples in README.md run as documented.

Every command of the ``## Command line`` block goes through ``cli.main``;
the ``## Library example`` block runs as written and prints what its
comments say.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from vknots.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str) -> str:
    """The first fenced code block under the level-2 ``heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


def _commands() -> list[list[str]]:
    lines = _block("Command line").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.strip()]
    assert commands and all(argv[0] == "vknots" for argv in commands)
    return [argv[1:] for argv in commands]


COMMANDS = _commands()


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv[:2]) for argv in COMMANDS])
def test_readme_command_runs(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    # the cohomologous example compares a non-trivial cocycle with the trivial one
    assert code == (1 if argv[:2] == ["cocycle", "cohomologous"] else 0)
    assert captured.out and captured.err == ""
    assert "Traceback" not in captured.out


def test_readme_library_example_prints_its_comments():
    source = _block("Library example")
    documented = re.findall(r"#\s*(.+)$", source, re.M)
    assert documented == ["4", "4 + 4*t^2"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(source, {})
    assert out.getvalue().splitlines() == documented
