"""The package's public surface: ``sumlabel.__all__`` against what
``sumlabel/__init__.py`` binds, so a deleted or renamed export cannot
linger on either side, every public name against the program code
that uses it, so that no function lives in the library for tests alone,
every library name the benchmark's workloads call against the
package, so that a rename cannot break the benchmark unseen, and the
imports of ``generators``, which must stay below every solver."""

import ast
import importlib
import re
from functools import reduce
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


def _dotted(node: ast.Attribute) -> str | None:
    """``"a.b.c"`` for an attribute chain on a plain name, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def test_every_library_name_the_benchmark_calls_resolves():
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    # the submodules the workloads import, imported the same way, since a
    # plain getattr on the package does not load them
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("sumlabel."):
                    importlib.import_module(alias.name)
    dotted = {name for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and (name := _dotted(node)) and name.startswith("sumlabel.")}
    assert "sumlabel.cli.main" in dotted

    def resolves(name: str) -> bool:
        try:
            reduce(getattr, name.split(".")[1:], sumlabel)
        except AttributeError:
            return False
        return True
    assert sorted(name for name in dotted if not resolves(name)) == []


def test_generators_import_no_solver():
    # the generators sit below every solver and labeler, so they import only
    # the error types and the hypergraph; sys.modules cannot show this, since
    # importing sumlabel.generators runs the package __init__ first
    tree = ast.parse((ROOT / "src" / "sumlabel" / "generators.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "sumlabel":
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "sumlabel")
    assert imported == {"errors", "hypergraph"}
