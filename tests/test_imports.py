"""Every module of the package reads each name it imports; ``__init__``
imports its names to export them."""

import ast
from pathlib import Path

import pytest

import cclose

MODULES = sorted(p for p in Path(cclose.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never loads."""
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    return sorted(imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_found():
    source = "from .ramsey import ceil_sqrt, ramsey_threshold\nimport os.path\nbound = ramsey_threshold\n"
    assert unread_imports(source) == ["ceil_sqrt", "os"]
