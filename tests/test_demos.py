"""Smoke tests: the demos run to their end against the package, and the
package exports exactly the names its callers use."""

import ast
import runpy
from pathlib import Path

import pytest

import piterbarg

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

# Demo 03, the Brownian validation, takes several seconds and stays out.
SMOKE = {
    "01_fbm_sampling.py": ["grid points, B(0) = 0.0"] * 3 + ["circulant spectra"],
    "02_estimate_with_budget.py": ['"total":', "equivalent CLI call:"],
    "04_convergence_rate.py": ["Brownian rate study", "fitted log-log decay exponent"],
}


@pytest.mark.parametrize("demo", sorted(SMOKE))
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # any figure it writes lands here
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    out = capsys.readouterr().out
    for marker in set(SMOKE[demo]):
        assert out.count(marker) == SMOKE[demo].count(marker), marker


def _root_imports(path: Path) -> set[str]:
    """Names that ``path`` takes from the package: from its root by import or
    attribute, or, inside the package, from any of its modules (constants
    aside)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module == "piterbarg" or node.level):
            names |= {a.name for a in node.names if not a.name.isupper()}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "piterbarg" and node.attr != "__file__"):
            names.add(node.attr)
    return names


def test_public_names_are_the_used_ones():
    # what the CLI, the demos, the benchmark and the acceptance suite use,
    # and the result types of the functions among them
    used = {"BudgetReport", "RateConstant", "RatePoint", "GapPoint", "GapDecayResult"}
    callers = [ROOT / "src" / "piterbarg" / "cli.py", *DEMOS.glob("*.py"),
               *(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    for path in callers:
        used |= _root_imports(path)
    assert set(piterbarg.__all__) == used
