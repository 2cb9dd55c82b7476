"""The README's examples run as written."""

import os
import re
import shlex

import pytest

from wpaoi.cli import run_cli

_README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
_PATH_FLAGS = ("--out", "--trace")


def _blocks(language: str) -> list:
    with open(_README) as fh:
        text = fh.read()
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.M | re.S)


def _cli_lines() -> list:
    return [
        line
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("wpaoi ")
    ]


def test_readme_python_example_runs(capsys):
    (code,) = _blocks("python")
    exec(compile(code, _README, "exec"), {})
    assert capsys.readouterr().out


def test_readme_has_a_command_per_subcommand():
    commands = {shlex.split(line)[1] for line in _cli_lines()}
    assert commands == {"analytic", "simulate", "optimize", "sweep-b", "sweep-p", "validate"}


@pytest.mark.parametrize("line", _cli_lines())
def test_readme_command_line_runs(line, tmp_path, capsys):
    argv = shlex.split(line)[1:]
    # Files the command writes go to the test's directory.
    for i, arg in enumerate(argv[:-1]):
        if arg in _PATH_FLAGS:
            argv[i + 1] = str(tmp_path / os.path.basename(argv[i + 1]))
    assert run_cli(argv) == 0, capsys.readouterr().err
