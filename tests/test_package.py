"""The package's public names, the seams between its modules, the scipy
modules each command loads, and the README's library quick tour."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poinar
from poinar import cli


def test_every_exported_name_resolves():
    missing = [name for name in poinar.__all__ if not hasattr(poinar, name)]
    assert not missing
    namespace = {}
    exec("from poinar import *", namespace)
    assert set(poinar.__all__) <= set(namespace)


def test_no_module_reaches_into_another_for_a_private_name():
    # neither ``from .x import _name`` nor ``x._name`` after ``from . import x``
    found = []
    for path in sorted(Path(poinar.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level]
        siblings = {alias.asname or alias.name for node in imports if node.module is None
                    for alias in node.names}
        found += [f"{path.stem}: from .{node.module} import {alias.name}" for node in imports
                  if node.module not in (None, path.stem) for alias in node.names
                  if alias.name.startswith("_")]
        found += [f"{path.stem}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in siblings and node.attr.startswith("_")]
    assert not found


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_every_name_is_imported_from_the_module_that_defines_it():
    # no module re-exports another's names, in the package or to the tests
    package = Path(poinar.__file__).parent
    defined = {path.stem: _top_level_names(ast.parse(path.read_text()))
               for path in package.glob("*.py")}
    found = []
    for path in sorted([*package.glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            source = node.module if node.level else node.module.removeprefix("poinar.")
            if (node.level or node.module.startswith("poinar.")) and source in defined:
                found += [f"{path.name}: {source}.{alias.name}" for alias in node.names
                          if alias.name not in defined[source]]
    assert not found


# Run in a fresh interpreter: this one has long since loaded scipy.optimize,
# which tests/oracles.py imports. Prints the scipy modules loaded at the end.
_LOADED_AFTER = """
import sys
from poinar import cli
argv = sys.argv[1:]
if argv:
    assert cli.main(argv) == 0
print(*sorted(m for m in sys.modules if m.startswith("scipy.")))
"""

_SOLVERS = {"scipy.optimize", "scipy.sparse"}


def _scipy_loaded_by(*argv) -> set[str]:
    src = str(Path(poinar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _LOADED_AFTER, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    root = tmp_path_factory.mktemp("fitted")
    counts = root / "sim" / "counts.csv"
    assert cli.main(["simulate", "--scenario", "hard-0.1", "--series", "8", "--seed", "1",
                     "--out", str(root / "sim")]) == 0
    assert cli.main(["fit", "--counts", str(counts), "--iterations", "30", "--burn-in", "10",
                     "--out", str(root / "fit")]) == 0
    return root, ["--counts", str(counts), "--draws", str(root / "fit" / "draws.jsonl")]


def test_importing_the_package_loads_no_assignment_solver():
    assert not _scipy_loaded_by() & _SOLVERS


@pytest.mark.parametrize("command", ["simulate", "forecast", "evaluate"])
def test_commands_that_solve_no_assignment_load_no_solver(fitted, command):
    root, inputs = fitted
    argv = {
        "simulate": ["--scenario", "easy-0.9", "--series", "8", "--seed", "2"],
        "forecast": inputs,
        "evaluate": inputs,
    }[command]
    assert not _scipy_loaded_by(command, *argv, "--out", str(root / command)) & _SOLVERS


def test_a_narrow_fit_loads_the_dense_solver_alone(fitted):
    root, inputs = fitted
    loaded = _scipy_loaded_by("fit", *inputs[:2], "--iterations", "30", "--burn-in", "10",
                              "--out", str(root / "refit"))
    # scipy.optimize imports parts of scipy.sparse itself, but not its graph routines
    assert "scipy.optimize" in loaded
    assert "scipy.sparse.csgraph" not in loaded


@pytest.mark.slow
def test_readme_quick_tour_runs_as_written(capsys):
    # the python block under the README's "Library quick tour" heading
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("\n## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
    code = tour.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md: Library quick tour", "exec"), {})
    assert capsys.readouterr().out.count("\n") >= code.count("print(")
