"""Every Python file parses as the oldest Python that pyproject.toml supports."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _floor() -> tuple[int, int]:
    """The (major, minor) of `requires-python = ">=X.Y"` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert found, "pyproject.toml names no requires-python floor"
    return int(found.group(1)), int(found.group(2))


def _sources() -> list[Path]:
    return sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))


def test_floor_is_read_from_pyproject():
    assert _floor() == (3, 10)


@pytest.mark.parametrize("path", _sources(), ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=_floor())


@pytest.mark.parametrize(
    "source",
    [
        pytest.param("try:\n    pass\nexcept* ValueError:\n    pass\n", id="except-star"),
        pytest.param("type Pair = tuple[int, int]\n", id="type-alias"),
        pytest.param("def first[T](items: list[T]) -> T:\n    return items[0]\n", id="type-parameters"),
    ],
)
def test_newer_syntax_fails_at_the_floor(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=_floor())
