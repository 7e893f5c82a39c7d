"""Smoke tests: every example script runs and prints what it promises.

Examples are user-facing documentation; a release where one of them
crashes is broken regardless of the library tests.  Each runs in-process
(via runpy) at a tiny scale where the script accepts one.
"""

import runpy
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(monkeypatch, capsys, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(monkeypatch, capsys):
    # Patch the scale used inside by running at the default; the scene
    # cache keeps repeat runs cheap.
    out = run_example(monkeypatch, capsys, "quickstart.py")
    assert "speedup" in out
    assert "texels/fragment" in out


def test_design_space(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "design_space.py", "0.0625")
    assert "best block" in out
    assert "winner" in out


def test_vr_walkthrough(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "vr_walkthrough.py", "0.0625")
    assert "buffer entries" in out
    assert "of ideal" in out


def test_sli_scaling_study(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "sli_scaling_study.py", "0.0625")
    assert "speedup block" in out
    assert "speedup sli" in out

