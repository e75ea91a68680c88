"""Smoke test: every demo script runs to the end and prints its summary."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,line", [
    ("continual_run", "TIL average:  0.9900"),
    ("continual_run", "CIL accuracy: 0.5833"),
    ("energy_accounting",
     "snn/dnn ratio is 0.9*T/4.6 = 0.783 at T=4, independent of structure"),
    ("similarity_probe", "trained base task: accuracy 1.000"),
])
def test_demo_runs_and_prints_summary(name, line, capsys):
    _load(name).main()
    assert line in capsys.readouterr().out.splitlines()
