"""Every Python file parses as the oldest Python that pyproject.toml supports,
and uses no standard-library name that Python lacks."""

import ast
import importlib
import re
import sys
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


# Standard-library names added after 3.10, the floor, each (module, name,
# the version that added it), or (module, None, version) for a module added
# whole; a builtin's module is "builtins".
NEWER_STDLIB = [
    ("hashlib", "file_digest", (3, 11)),
    ("datetime", "UTC", (3, 11)),
    ("enum", "StrEnum", (3, 11)),
    ("enum", "ReprEnum", (3, 11)),
    ("typing", "Self", (3, 11)),
    ("typing", "Never", (3, 11)),
    ("typing", "assert_never", (3, 11)),
    ("typing", "LiteralString", (3, 11)),
    ("typing", "reveal_type", (3, 11)),
    ("typing", "assert_type", (3, 11)),
    ("typing", "Required", (3, 11)),
    ("typing", "NotRequired", (3, 11)),
    ("typing", "dataclass_transform", (3, 11)),
    ("typing", "TypeVarTuple", (3, 11)),
    ("typing", "Unpack", (3, 11)),
    ("tomllib", None, (3, 11)),
    ("wsgiref.types", None, (3, 11)),
    ("contextlib", "chdir", (3, 11)),
    ("asyncio", "TaskGroup", (3, 11)),
    ("asyncio", "timeout", (3, 11)),
    ("builtins", "ExceptionGroup", (3, 11)),
    ("builtins", "BaseExceptionGroup", (3, 11)),
    ("sys", "exception", (3, 11)),
    ("operator", "call", (3, 11)),
    ("math", "exp2", (3, 11)),
    ("math", "cbrt", (3, 11)),
    ("re", "NOFLAG", (3, 11)),
    ("logging", "getLevelNamesMapping", (3, 11)),
    ("locale", "getencoding", (3, 11)),
    ("inspect", "getmembers_static", (3, 11)),
    ("itertools", "batched", (3, 12)),
    ("typing", "override", (3, 12)),
    ("typing", "TypeAliasType", (3, 12)),
    ("math", "sumprod", (3, 12)),
    ("os.path", "splitroot", (3, 12)),
    ("calendar", "Month", (3, 12)),
]


def _dotted(node: ast.expr) -> str | None:
    """The dotted name that a chain of attributes on a name spells, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and (base := _dotted(node.value)) is not None:
        return f"{base}.{node.attr}"
    return None


def _newer_stdlib_uses(source: str) -> list[str]:
    """Each use in source of a name in NEWER_STDLIB: an import of it or of its
    module, an attribute of its module (under any alias, or through its
    parent package), or a builtin."""
    names = {(module, name) for module, name, _ in NEWER_STDLIB}
    tree = ast.parse(source)
    # The module each imported name is bound to: `import os.path` binds os.
    imported = {
        alias.asname or alias.name.partition(".")[0]: alias.name if alias.asname else alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if (alias.name, None) in names]
        elif isinstance(node, ast.ImportFrom):
            if (node.module, None) in names:
                found.append(node.module)
            for alias in node.names:
                if (node.module, alias.name) in names or (f"{node.module}.{alias.name}", None) in names:
                    found.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Attribute) and (dotted := _dotted(node.value)) is not None:
            head, _, rest = dotted.partition(".")
            if head in imported:
                module = imported[head] + (f".{rest}" if rest else "")
                if (module, node.attr) in names:
                    found.append(f"{module}.{node.attr}")
        elif isinstance(node, ast.Name) and ("builtins", node.id) in names:
            found.append(node.id)
    return found


@pytest.mark.parametrize("path", _sources(), ids=lambda path: str(path.relative_to(ROOT)))
def test_source_uses_no_standard_library_name_newer_than_the_floor(path):
    assert _newer_stdlib_uses(path.read_text(encoding="utf-8")) == []


def _label(module: str, name: str | None) -> str:
    """How `_newer_stdlib_uses` names a use of (module, name)."""
    return module if name is None else name if module == "builtins" else f"{module}.{name}"


def _snippet(module: str, name: str | None) -> str:
    if name is None:
        return f"import {module}\n"
    if module == "builtins":
        return f"raise {name}('x', [ValueError()])\n"
    return f"import {module}\n{module}.{name}\n"


_IDS = [_label(module, name) for module, name, _ in NEWER_STDLIB]


@pytest.mark.parametrize("module, name, added", NEWER_STDLIB, ids=_IDS)
def test_newer_standard_library_name_is_found(module, name, added):
    assert _newer_stdlib_uses(_snippet(module, name)) == [_label(module, name)]


def _exists(module: str, name: str | None) -> bool:
    """Whether the running interpreter has the module, and its name if given."""
    try:
        found = importlib.import_module(module)
    except ImportError:
        return False
    return name is None or hasattr(found, name)


@pytest.mark.parametrize("module, name, added", NEWER_STDLIB, ids=_IDS)
def test_listed_name_exists_from_its_version_on(module, name, added):
    # A misspelt or misdated entry guards nothing. Each CI leg checks the
    # entries against its own interpreter: the 3.10 leg finds every one
    # absent, and the 3.11 leg the 3.11 ones present.
    assert added > _floor()
    assert _exists(module, name) == (sys.version_info[:2] >= added)


@pytest.mark.parametrize(
    "source, found",
    [
        pytest.param("from hashlib import file_digest\n", ["hashlib.file_digest"], id="from-import"),
        pytest.param("import hashlib as h\nh.file_digest(f, 'sha256')\n", ["hashlib.file_digest"], id="aliased-module"),
        pytest.param("from tomllib import loads\n", ["tomllib"], id="from-new-module"),
        pytest.param("from wsgiref import types\n", ["wsgiref.types"], id="from-package-import-new-module"),
        pytest.param("import os\nos.path.splitroot('/a')\n", ["os.path.splitroot"], id="through-the-package"),
        pytest.param("import os.path as p\np.splitroot('/a')\n", ["os.path.splitroot"], id="aliased-submodule"),
        pytest.param("import itertools\nitertools.pairwise([1, 2])\n", [], id="name-at-the-floor"),
        pytest.param("import hashlib\nhashlib.sha256(b'')\n", [], id="older-name-of-the-module"),
    ],
)
def test_newer_standard_library_name_is_found_in_each_form(source, found):
    assert _newer_stdlib_uses(source) == found
