"""The package's public surface: ``sumlabel.__all__`` against what
``sumlabel/__init__.py`` binds, so a deleted or renamed export cannot
linger on either side, and every public name against the program code
that uses it, so that no function lives in the library for tests alone."""

import ast
import re
from pathlib import Path
from types import ModuleType

import sumlabel

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    assert [name for name in sumlabel.__all__ if not hasattr(sumlabel, name)] == []
    assert len(set(sumlabel.__all__)) == len(sumlabel.__all__)


def test_every_public_binding_is_exported():
    public = {name for name, value in vars(sumlabel).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(public - set(sumlabel.__all__)) == []


def test_every_public_name_has_a_non_test_caller():
    package = ROOT / "src" / "sumlabel"
    public = {node.name
              for path in package.glob("*.py")
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    program = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    program += [path for path in (ROOT / "bench").glob("*.py") if path.name != "test_bench.py"]
    program += list((ROOT / "scripts").glob("*.py"))
    used = set()
    for path in program:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1].split("\n[")[0]
    used.update(re.findall(r':(\w+)"', scripts))
    unused = sorted(public - used)
    assert unused == [], f"public names that only tests call: {unused}"
