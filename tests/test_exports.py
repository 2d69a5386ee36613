"""Every name the package and its modules export resolves and has a caller
outside the tests, and every module attribute the benchmark's hooks wrap
resolves; of the vector-field layer only the solver's views and its map
from vectors remain; only the CLI formats CSV; no module makes a BLAS
call; a fresh import loads scipy itself but not its transforms."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import mhdwave
from mhdwave.grid import GridSpec
from mhdwave.initial import make_initial_data
from mhdwave.solver import SolverConfig, run

from conftest import count_steps

MODULES = sorted(m.name for m in pkgutil.iter_modules(mhdwave.__path__))
ROOT = Path(__file__).resolve().parents[1]


def _program_names():
    """Every name loaded and every attribute read in the package's modules
    (not ``__init__``) and in the benchmark's modules (not its tests)."""
    paths = [p for p in (ROOT / "src" / "mhdwave").glob("*.py") if p.name != "__init__.py"]
    paths += [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"mhdwave.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_export_has_a_program_caller():
    # an oracle only the tests call lives in tests/conftest.py, not in the package
    called = _program_names()
    uncalled = [f"{name}.{export}" for name in MODULES
                for export in getattr(importlib.import_module(f"mhdwave.{name}"), "__all__", ())
                if export not in called]
    assert uncalled == []


def test_vector_field_layer_stays_in_solver():
    # the program reads u and b from the potentials.  No module names the
    # vector class, and only the solver names the views and the map from
    # vectors to potentials, which the benchmark's resume check reads.
    layer = {"SpectralVectorField", "from_vectors", "_potential", "u_hat", "b_hat", "bt_hat"}
    uses = {}
    for path in sorted((ROOT / "src" / "mhdwave").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef))
                    else None)
            if name in layer:
                uses.setdefault(path.name, set()).add(name)
    assert uses == {"solver.py": {"_potential", "u_hat", "b_hat", "bt_hat"}}


def test_only_the_cli_formats_csv():
    # the CLI's writer is the one owner of the cell format repr(float(x)):
    # no other module reads or writes CSV or calls repr
    uses = set()
    for path in sorted((ROOT / "src" / "mhdwave").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "csv"
                    or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "repr"):
                uses.add(path.name)
    assert uses == {"cli.py"}


def test_package_reexports_public_names():
    # the package imports its names from the modules: each must be in that
    # module's __all__, so a name dropped there cannot linger here
    tree = ast.parse(Path(mhdwave.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"mhdwave.{node.module}")
            for alias in node.names:
                assert hasattr(mhdwave, alias.name)
                assert alias.name in module.__all__, (node.module, alias.name)


def test_benchmark_hooks_find_their_targets(monkeypatch):
    # perfbench wraps these module attributes by name; a missing one leaves
    # its metrics null.  The hooks go on copies, so the modules stay unpatched.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    modules = {name: importlib.import_module(f"mhdwave.{name}")
               for name in ("checkpoint", "decay", "diagnostics", "grid", "initial", "solver")}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    steppers = dict(modules["solver"]._STEPPERS)
    copies = {name: types.SimpleNamespace(**vars(m)) for name, m in modules.items()}
    copies["solver"]._STEPPERS = dict(steppers)
    tracer = spans.Tracer()
    spans.install(tracer, types.SimpleNamespace(**copies))
    assert tracer.absent == []
    for name, m in modules.items():
        assert all(vars(m)[k] is v for k, v in before[name].items())
    assert modules["solver"]._STEPPERS == steppers


# numpy hands these to BLAS, whose OpenBLAS worker threads spin-wait after
# each call.  With np.dot in the energy triple, 2000 observer calls at
# n = 256 took 2.36 s of process CPU for 1.64 s of wall time on a 2-vCPU VM,
# the spinning thread holding the core the checkpoint writer runs on; with
# np.einsum, 1.05 s for 1.06 s.
# einsum's optimize argument may route through tensordot, so it is refused.
_BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg"}


def _blas_uses(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        names = (
            {node.id} if isinstance(node, ast.Name) else
            {node.attr} if isinstance(node, ast.Attribute) else
            {*node.name.split("."), node.asname} if isinstance(node, ast.alias) else
            set((node.module or "").split(".")) if isinstance(node, ast.ImportFrom) else
            set())
        found += [f"{node.lineno}: {name}" for name in sorted(names & _BLAS_NAMES)]
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        if (isinstance(node, ast.Call) and "einsum" in (getattr(node.func, "attr", None),
                                                        getattr(node.func, "id", None))
                and any(k.arg == "optimize" for k in node.keywords)):
            found.append(f"{node.lineno}: einsum(optimize=...)")
    return found


# every module, since any of them may run beside the stepping or a sweep member
@pytest.mark.parametrize("module", MODULES)
def test_no_blas_on_the_step_or_observer_path(module):
    assert _blas_uses(ROOT / "src" / "mhdwave" / f"{module}.py") == []


def test_run_takes_every_step_from_the_stepper_table(monkeypatch):
    # perfbench counts steps and times set-up through this table
    grid = GridSpec(16, 2 * np.pi)
    data = make_initial_data("random_band", {"amplitude": 0.05, "seed": 1}, grid)
    for gamma in (0.0, 0.5):
        steps = count_steps(monkeypatch)
        run(SolverConfig(gamma=gamma, dt=0.1, t_end=0.3, grid=grid), data)
        assert len(steps) == 3


_FRESH_STEP = """
import json, sys
import numpy as np
import mhdwave.cli
from mhdwave import solver
from mhdwave.grid import GridSpec
from mhdwave.initial import make_initial_data

grid = GridSpec(16, 2 * np.pi)
data = make_initial_data("random_band", {"amplitude": 0.05, "seed": 1}, grid)
solver.step_exp(data, solver.SolverConfig(gamma=0.5, dt=0.01, t_end=0.01, grid=grid))
print(json.dumps({"modules": sorted(m for m in sys.modules if m.startswith("scipy")),
                  "fft": hasattr(solver, "_fft")}))
"""


def test_fresh_process_loads_scipy_but_not_its_transforms():
    # the benchmark's environment record reads sys.modules["scipy"] and its
    # transform counter wraps solver._fft; scipy.fft and scipy.special are
    # the import time the numpy transforms save
    src = str(ROOT / "src")
    out = subprocess.run([sys.executable, "-c", _FRESH_STEP], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    seen = json.loads(out.stdout.splitlines()[-1])
    assert "scipy" in seen["modules"]
    assert "scipy.fft" not in seen["modules"] and "scipy.special" not in seen["modules"]
    assert seen["fft"]
