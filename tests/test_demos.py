"""Smoke test: every demo script, and every command line README shows, runs
as documented."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from elemeq.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(  # warnings are errors, as pytest.ini makes them in-process
        [sys.executable, "-W", "error", str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def _readme_commands():
    """Each ``elemeq`` line of README's ``sh`` blocks, ``\\`` continuations
    joined: its arguments, and the code its ``# exit N`` comment gives, else 0."""
    text = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("elemeq "):
                code = re.search(r"#\s*exit (\d+)", line)
                commands.append((line, shlex.split(line, comments=True)[1:], int(code[1]) if code else 0))
    return commands


def test_readme_commands_exit_as_documented(capsys):
    commands = _readme_commands()
    assert len(commands) == 18
    for line, argv, code in commands:
        assert main(argv) == code, line
        capsys.readouterr()
