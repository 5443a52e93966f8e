"""Golden output: stdout and exit code of every command in README's
"Command line" block, byte for byte (``conngerm run-all`` among them).

Stderr carries timing and free-form error wording, so it is not pinned.
The commands are read from README.md, so the block and the golden files
cannot drift apart.  After an intended change of output, regenerate the
files from the repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from conngerm.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"


def readme_commands():
    """argv lists of the ``conngerm`` lines in README's Command line block."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "conngerm", line
            commands.append(words[1:])
    return commands


def command_text(argv):
    return shlex.join(["conngerm", *argv])


def stdout_file(argv):
    return GOLDEN / (re.sub(r"[^A-Za-z0-9]+", "_", " ".join(argv)).strip("_") + ".out")


def run(argv):
    """Exit code and stdout of one in-process ``conngerm`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("argv", readme_commands(), ids=command_text)
def test_readme_command_output_is_pinned(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = run(argv)
    assert code == json.loads(EXIT_CODES.read_text())[command_text(argv)]
    assert out == stdout_file(argv).read_text()


def test_run_all_is_pinned():
    assert ["run-all"] in readme_commands()


def regenerate():
    os.chdir(ROOT)
    codes = {}
    for argv in readme_commands():
        codes[command_text(argv)], out = run(argv)
        stdout_file(argv).write_text(out)
    EXIT_CODES.write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
