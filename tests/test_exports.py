"""The package's public names: every name in ``uqdim.__all__`` resolves and
is listed once, and the names ``uqdim/__init__.py`` imports from its
submodules are exactly ``__all__``, so a removed or renamed object cannot
stay exported or linger as an unexported import."""

import ast
from pathlib import Path

import uqdim


def test_all_names_resolve():
    missing = [name for name in uqdim.__all__ if not hasattr(uqdim, name)]
    assert missing == []


def test_all_names_listed_once():
    assert len(set(uqdim.__all__)) == len(uqdim.__all__)


def test_submodule_imports_are_all():
    tree = ast.parse(Path(uqdim.__file__).read_text())
    imported = [alias.asname or alias.name
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert sorted(imported) == sorted(uqdim.__all__)
