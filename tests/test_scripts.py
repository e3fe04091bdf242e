"""The scripts the README documents run to completion on small arguments."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,args,header", [
    ("probe_hard_instances.py", ["--seeds", "1"], "== hard-instance shapes =="),
    ("labeler_sweep.py", ["--size", "12", "--instances", "2"], "instances: n = m = 12"),
])
def test_script_runs(capsys, monkeypatch, script, args, header):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path), run_name="__main__")
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == header
    assert captured.err == ""
