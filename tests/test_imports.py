"""Every name a module of the package imports is read in that module, so a
deletion that leaves an import behind fails here; and no message formats a
value with ``!r``, which neither bounds its length nor survives an int past
``str``'s limit on digits (``permutations._shown`` does both)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "topshuffle"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module):
    """Each name an ``import`` or ``from … import`` binds, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_the_modules_are_found():
    assert MODULES, f"no modules under {PACKAGE}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unread = [name for name in _imported_names(tree) if name not in read]
    assert not unread, f"{path.name} imports {unread} but never reads them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_f_string_formats_with_repr(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
    ]
    assert not lines, f"{path.name} formats with !r on lines {lines}; use _shown"
