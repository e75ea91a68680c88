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


def test_the_engine_holds_the_training_chain_only():
    """``Tensor`` defines the training chain's forms alone, and every
    module-level function of ``tensor.py`` is called in the package."""
    tree = ast.parse((PACKAGE / "tensor.py").read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef)]
    own = {n.name if isinstance(n, ast.FunctionDef) else n.targets[0].id
           for n in cls.body if not isinstance(n, ast.Expr)}
    assert own == {"__init__", "__slots__", "_make", "shape", "size",
                   "reshape", "transpose", "matmul", "add_bias", "custom_op"}
    callers = {}  # a called name -> the functions that call it
    for path in set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}:
        for f in ast.walk(ast.parse(path.read_text())):
            if isinstance(f, ast.FunctionDef):
                for c in ast.walk(f):
                    if isinstance(c, ast.Call):
                        name = getattr(c.func, "id", getattr(c.func, "attr",
                                                             None))
                        callers.setdefault(name, set()).add(f.name)
    assert [f.name for f in tree.body if isinstance(f, ast.FunctionDef)
            and not callers.get(f.name, set()) - {f.name}] == []


def test_custom_nodes_are_the_lif_window_and_the_loss():
    """In ``src/``, ``custom_op`` builds two kinds of node: a layer's LIF
    window (``spiking.run_window``) and the loss on the last window's
    spikes (``trainer.step_gradients``); the readout after them runs on
    arrays."""
    callers = set()
    for path in PACKAGE.glob("*.py"):
        for f in ast.walk(ast.parse(path.read_text())):
            if isinstance(f, ast.FunctionDef):
                callers |= {f"{path.stem}.{f.name}" for c in ast.walk(f)
                            if isinstance(c, ast.Call)
                            and getattr(c.func, "id", getattr(
                                c.func, "attr", None)) == "custom_op"}
    assert callers == {"spiking.run_window", "trainer.step_gradients"}
