"""The library never writes to the terminal; only the command line does."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "betatrust"
LIBRARY = sorted(path for path in PACKAGE.glob("*.py")
                 if path.name not in ("cli.py", "__main__.py"))


def terminal_writes(tree: ast.AST) -> list[str]:
    """Each call to print and each use of sys.stdout or sys.stderr, as 'line: what', by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "print":
            found.append((node.lineno, "print(...)"))
        elif isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr") \
                and isinstance(node.value, ast.Name) and node.value.id == "sys":
            found.append((node.lineno, f"sys.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [(node.lineno, f"from sys import {alias.name}") for alias in node.names
                      if alias.name in ("stdout", "stderr")]
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_the_library_files_are_found():
    assert {"fusion.py", "decision.py", "netsim.py", "documents.py"} <= {
        path.name for path in LIBRARY}


@pytest.mark.parametrize("path", LIBRARY, ids=[path.name for path in LIBRARY])
def test_the_library_never_prints(path):
    assert terminal_writes(ast.parse(path.read_text(), str(path))) == []


def test_the_check_sees_each_kind_of_write():
    source = "import sys\nprint(1)\nsys.stdout.write('x')\nfrom sys import stderr\n"
    assert terminal_writes(ast.parse(source)) == [
        "2: print(...)", "3: sys.stdout", "4: from sys import stderr"]
