"""The package root is only a docstring and a version: importing it loads
no submodule, and every name is imported from the module that defines
it, as README's Python example does.  The example is executed here, so
it cannot drift from the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_conngerm_loads_no_submodule():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import sys, conngerm\n"
            "print(sorted(m for m in sys.modules if m.startswith('conngerm.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_python_example_runs():
    """Each line of README's ```python block runs; a line ending in
    "# value" must evaluate to that value."""
    text = (ROOT / "README.md").read_text()
    block = text.split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    checked = 0
    for line in block.splitlines():
        code, _, want = line.partition("#")
        if want:
            assert eval(code, namespace) == ast.literal_eval(want.strip()), line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 2
