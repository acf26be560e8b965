"""Which public functions of randbc no command runs.

The commands below cover every CLI command and each branch a command takes
on its input: the benchmark's workloads at their tiny sizes, sample, the
three solve paths (CG, MINRES, the LU backstop), the nodal and critical
constraint maps, the two other runge targets and one run that fails.  Every
public function and method they never enter must be listed in NEVER_ENTERED:
an added dead path fails the test, and so does a listed one that a command
starts to run, so the list only shrinks on purpose.
"""

import importlib
import importlib.util
import inspect
import os
import pkgutil
import sys
import threading
from pathlib import Path

import randbc
import randbc.cli

_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

TINY = ["--set", "grid.n=17", "--set", "bc.K=5"]
CURVE = [*TINY, "--set", "M=50", "--set", "N_list=1,2"]
RUNGE = [*TINY, "--set", "runge.lambdas=1e-2,1e-4", "--set", "runge.disk.radius=0.3"]
COMMANDS = [argv for name in workloads.NAMES
            for argv in workloads.commands(name, 0, "tiny")] + [
    ["sample"],
    ["solve", "--set", "grid.n=17", "--set", "coeff.a=1+x"],
    ["solve", "--set", "grid.n=17", "--set", "coeff.a=1+x/2", "--set", "coeff.q=-30"],
    ["solve", "--set", "grid.n=33", "--set", "coeff.a=1+x/2", "--set", "coeff.q=-4096*(1+x)"],
    ["constraint-experiment", *CURVE, "--set", "zeta=nodal"],
    ["constraint-experiment", *CURVE, "--set", "zeta=critical"],
    ["runge", *RUNGE, "--set", "runge.target=harmonic_poly"],
    ["runge", *RUNGE, "--set", "runge.target=dictionary_member"],
    ["conductivity", "--set", "grid.n=17", "--set", "cond.bc=x1;x1"],     # exits 1
]

NEVER_ENTERED = {
    # read by the tests
    "constraints.witness_fields", "constraints.witness_check",   # acceptance test 2
    "grid.Grid2D.boundary_values", "grid.default_window",
    "solver.CoefficientField.anisotropic", "solver.load_field_csv",
    # read by perfbench/: make_reference.py (truncate, boundary_coupling) and
    # tracer.py (boundary_coupling, Stencil.shape as op.matrix.shape)
    "boundary.RandomBoundaryModel.truncate", "solver.DiscreteOperator.boundary_coupling",
    "solver.Stencil.shape",
}


def _function(attr):
    """The plain function behind a method, property or cached attribute."""
    for inner in ("__func__", "fget", "func"):
        attr = getattr(attr, inner, attr)
    attr = inspect.unwrap(attr)
    return attr if inspect.isfunction(attr) else None


def public_functions() -> dict:
    """{module.[Class.]name: code} of every public function and method that
    randbc's own modules define."""
    found = {}
    for short in (info.name for info in pkgutil.iter_modules(randbc.__path__)):
        if short.startswith("_"):          # __main__ runs the CLI when imported
            continue
        module = importlib.import_module(f"randbc.{short}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", value) for attr, value in vars(obj).items()
                           if not attr.startswith("_")]
            else:
                members = [(name, obj)]
            for qualified, member in members:
                function = _function(member)
                if function is not None:
                    found[f"{short}.{qualified}"] = function.__code__
    return found


def test_every_public_function_but_the_listed_ones_runs_under_some_command(tmp_path,
                                                                           capsys):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        for i, argv in enumerate(COMMANDS):
            try:
                randbc.cli.main([*argv, "--out", os.fspath(tmp_path / str(i))])
            except SystemExit as exc:
                codes.append(exc.code)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert codes == [0] * (len(COMMANDS) - 1) + [1], capsys.readouterr().err
    functions = public_functions()
    assert NEVER_ENTERED <= functions.keys()
    assert {name for name, code in functions.items() if code not in entered} == NEVER_ENTERED
