"""The package's public names, and the scipy modules each command loads."""

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
