"""Every source file parses as Python 3.10, the oldest version pyproject.toml supports.

That covers the package, the tests and the benchmark in perfbench/, which the README tells
users to run; the files are only read."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "betatrust").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py")])


def parses_as_310(source: str) -> bool:
    try:
        ast.parse(source, feature_version=(3, 10))
    except SyntaxError:
        return False
    return True


@pytest.mark.parametrize("path", SOURCES, ids=[str(path.relative_to(ROOT)) for path in SOURCES])
def test_the_source_parses_as_python_310(path):
    assert parses_as_310(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("source, accepted", [
    ("match point:\n    case (0, y):\n        pass\n", True),  # 3.10
    ("try:\n    pass\nexcept* ValueError:\n    pass\n", False),  # 3.11
    ("type Pair = tuple[int, int]\n", False),  # 3.12
    ("def first[T](items: list[T]) -> T:\n    return items[0]\n", False),  # 3.12
], ids=["match", "except-star", "type-alias", "type-parameters"])
def test_the_guard_tells_310_syntax_from_newer(source, accepted):
    assert parses_as_310(source) is accepted
