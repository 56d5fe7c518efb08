"""The README's examples run: the Python block of "Quick start" and every
``kmcrystals ...`` line of "Command line" (as ``python -m kmcrystals.cli``),
each against the package in src/, in a fresh directory, exiting 0."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _blocks(title: str, lang: str) -> list[str]:
    """The ```lang blocks of the README section headed ``## title``."""
    section = README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", section, re.S)


QUICK_START = _blocks("Quick start", "python")
COMMANDS = [line for block in _blocks("Command line", "sh")
            for line in block.splitlines() if line.startswith("kmcrystals ")]


def _run(argv, cwd):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_readme_examples_found():
    assert len(QUICK_START) == 1 and len(COMMANDS) == 6


def test_quick_start_runs(tmp_path):
    proc = _run([sys.executable, "-c", QUICK_START[0]], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", COMMANDS)
def test_command_line_example_runs(command, tmp_path):
    proc = _run([sys.executable, "-m", "kmcrystals.cli", *shlex.split(command)[1:]], tmp_path)
    assert proc.returncode == 0, proc.stderr
