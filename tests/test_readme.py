"""The README's examples run as written."""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import betatrust

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
SHELL_BLOCKS = re.findall(r"^```sh\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
# each distinct betatrust command line of the shell blocks, in order
COMMANDS = list(dict.fromkeys(line for block in SHELL_BLOCKS for line in block.splitlines()
                              if line.startswith("betatrust ")))


def test_library_example_runs():
    (library,) = re.findall(r"^## Library\n+```python\n(.*?)^```", README,
                            re.MULTILINE | re.DOTALL)
    namespace = {}
    exec(compile(library, "README.md", "exec"), namespace)
    # the example's network holds the example's request as edge 1 -> 2
    decisions = namespace["run_assessment"](namespace["network"]).decisions
    assert decisions == {(1, 2): namespace["record"].decision}


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_runs(tmp_path, line):
    args = shlex.split(line, comments=True)[1:]
    # run from a scratch directory, so that relative --out paths land there
    env = {**os.environ, "PYTHONPATH": str(Path(betatrust.__file__).parents[1])}
    # -W error: a numpy overflow or invalid-value warning fails the test, as in-process
    cp = subprocess.run([sys.executable, "-W", "error", "-m", "betatrust", *args],
                        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert cp.returncode in ((0, 2) if args[0] == "decide" else (0,)), cp.stderr
    assert cp.stderr == ""
