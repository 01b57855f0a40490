"""Smoke test: the sampling demo runs to its end against the package."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_fbm_sampling_demo_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # any figure it writes lands here
    runpy.run_path(str(DEMOS / "01_fbm_sampling.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("grid points, B(0) = 0.0") == 3
    assert "circulant spectra" in out
