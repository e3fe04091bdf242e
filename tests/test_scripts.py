"""The scripts the README documents run to completion on small arguments,
and the README's CLI examples parse with the CLI's own parser."""

import runpy
import shlex
import sys
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

import pytest

from sumlabel.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


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


def readme_cli_examples() -> list[str]:
    """The ``sumlabel ...`` lines of the README's CLI code block, without
    their trailing comments."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("sumlabel ")]


def test_readme_cli_examples_parse():
    # argparse only: no command runs, so the instance files need not exist
    examples = readme_cli_examples()
    failures, commands = [], set()
    for line in examples:
        err = StringIO()
        try:
            with redirect_stderr(err):
                args = build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            failures.append((line, err.getvalue().strip()))
            continue
        commands.add(args.command)
    assert not failures, failures
    assert commands == {"solve", "label", "bounds", "dual", "gen", "pmf", "experiment",
                        "verify"}, commands
