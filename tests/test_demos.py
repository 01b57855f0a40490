"""Smoke tests: the demos run to their end against the package, the
package exports exactly the names its callers use, and no module imports a
name it does not use."""

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


PACKAGE = ROOT / "src" / "piterbarg"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    # every name a module imports is read in it or listed in its __all__
    imported, used = set(), set()
    for node in ast.walk(ast.parse((PACKAGE / module).read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported |= {(a.asname or a.name).split(".")[0]
                             for a in node.names if a.name != "*"}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in {
                getattr(t, "id", None) for t in node.targets}:
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    assert imported <= used, f"unused imports: {sorted(imported - used)}"
