"""The package's runtime dependency is numpy alone, beside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spikecl"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _absolute_imports(path):
    """(line, top-level module) of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    foreign = [f"{path.name}:{line} imports {module}"
               for line, module in _absolute_imports(path)
               if module not in ALLOWED]
    assert not foreign, foreign


def test_the_guard_sees_a_foreign_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\nfrom numpy import zeros\nfrom . import x\n"
                    "def f():\n    import scipy.linalg\n")
    assert [m for _, m in _absolute_imports(path) if m not in ALLOWED] \
        == ["scipy"]
