"""Smoke tests: every script in scripts/ runs to completion on a tiny input."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert excinfo.value.code == 0
    return capsys.readouterr().out


def test_every_script_is_covered():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == [
        "chsh_vs_epsilon.py",
        "convergence_check.py",
        "separability_landscape.py",
    ]


def test_chsh_vs_epsilon_table(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "chsh_vs_epsilon.py", "--points", "3")
    assert "(quantum 2*sqrt(2))" in out


def test_convergence_check(monkeypatch, capsys):
    out = run_script(
        monkeypatch, capsys, "convergence_check.py", "--epsilon", "0.7", "--theta", "1.2", "--doublings", "2"
    )
    assert out.splitlines()[0].startswith("analytic:")
    assert len(out.splitlines()) == 4


def test_separability_landscape(monkeypatch, capsys):
    out = run_script(
        monkeypatch, capsys, "separability_landscape.py", "--epsilons", "0,1", "--theta-points", "5"
    )
    lines = out.splitlines()
    # the cosine of pi/2 is ~6e-17 > 0, so epsilon = 0 is not compatible there
    assert lines[1] == "epsilon  0.00  xxxSS"
    assert lines[2] == "epsilon  1.00  ccScc"
