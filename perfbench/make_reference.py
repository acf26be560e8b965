"""Record perfbench/reference.json from the current sources.

    python3 perfbench/make_reference.py

Run it once at the commit that defines the reference, never to make a later
change pass.  It records:
  values      the solve field (every 8th node) and the runge curve, at the
              full and the tiny sizes;
  tolerances  for each runge curve, one relative tolerance per column
              (lambda, eps, boundary_cost): TOL_MARGIN times the largest
              deviation from the recorded curve seen when the same command
              is run on dictionaries solved other valid ways (CG at the
              ALT_RTOLS, and a direct factorization), at least TOL_FLOOR;
  digests     the artifact digests of every workload for REFERENCE_SEEDS; an
              artifact whose digest is the same for all of them is stored
              once under "*" (it does not depend on the seed).
"""

from __future__ import annotations

import csv
import functools
import json
import os
import shutil
import sys

import run
import workloads
from checks import field_sample

REFERENCE_SEEDS = range(10)
ALT_RTOLS = (1e-10, 1e-12)
# The margin leaves room for rounding that differs between machines and
# libraries; the deviations it multiplies are those of a changed solver.
TOL_MARGIN = 100.0
TOL_FLOOR = 1e-12
EMPTY = {"values": {}, "digests": {}}


def _read_curve(path: str) -> list[list[float]]:
    with open(path, newline="") as fh:
        return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]


def _collect_values(values: dict):
    def on_output(out: str):
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        n = int(manifest["config"]["grid.n"])
        if manifest["command"] == "solve":
            values[f"solve@{n}"] = field_sample(os.path.join(out, "solution.csv"), n)
        elif manifest["command"] == "runge":
            values[f"runge@{n}"] = _read_curve(os.path.join(out, "runge_curve.csv"))
    return on_output


def _dictionary_builders() -> dict:
    """Valid alternatives to the CLI's build_dictionary, by name."""
    import numpy as np
    import scipy.sparse.linalg as spla
    from randbc.runge import Dictionary, build_dictionary
    from randbc.solver import assemble

    def direct(grid, coeff, model, K=None):
        model = model.truncate(int(model.K if K is None else K))
        op = assemble(grid, coeff)
        lu = spla.splu(op.matrix.tocsc())
        E = model.basis.evaluate(grid)
        z = np.zeros((model.K, grid.n, grid.n))
        for k in range(model.K):
            z[k, 1:-1, 1:-1] = lu.solve(op.boundary_coupling @ E[k]).reshape(
                grid.n - 2, grid.n - 2)
            z[k, grid.boundary_ix, grid.boundary_iy] = E[k]
        return Dictionary(grid=grid, coeff=coeff, model=model, z=z, operator=op)

    builders = {f"cg rtol={r:g}": functools.partial(build_dictionary, rtol=r)
                for r in ALT_RTOLS}
    builders["direct"] = direct
    return builders


def _runge_tolerances(values: dict, work: str) -> dict:
    """Per-column relative tolerances of each recorded runge curve."""
    os.environ.update(run.child_env())  # before numpy loads OpenBLAS
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import randbc.cli
    tolerances = {}
    for profile in ("tiny", "full"):
        argv = workloads.commands("dictionary", 0, profile)[0]
        saved = randbc.cli.build_dictionary
        deviation = None
        for name, builder in _dictionary_builders().items():
            out = os.path.join(work, f"runge-{profile}-{name.replace(' ', '_')}")
            randbc.cli.build_dictionary = builder
            try:
                if randbc.cli.run(argv + ["--out", out]) != 0:
                    raise RuntimeError(f"runge with the {name} dictionary failed")
            finally:
                randbc.cli.build_dictionary = saved
            curve = _read_curve(os.path.join(out, "runge_curve.csv"))
            with open(os.path.join(out, "manifest.json")) as fh:
                key = f"runge@{json.load(fh)['config']['grid.n']}"
            dev = [max(abs(v - r) / abs(r) for v, r in zip(col, ref_col))
                   for col, ref_col in zip(zip(*curve), zip(*values[key]))]
            print(f"{key} {name}: relative deviation per column {dev}", file=sys.stderr)
            deviation = dev if deviation is None else list(map(max, deviation, dev))
        tolerances[key] = [max(TOL_MARGIN * d, TOL_FLOOR) for d in deviation]
    return tolerances


def main() -> int:
    work = os.path.join(run.HERE, "_work", f"reference-{os.getpid()}")
    os.makedirs(work)
    values: dict = {}
    digests: dict = {}
    index = 0
    try:
        for profile in ("tiny", "full"):
            for name in workloads.NAMES:
                seeds = REFERENCE_SEEDS if profile == "full" else (0,)
                for seed in seeds:
                    argvs = workloads.commands(name, seed, profile)
                    rep = run.repetition(work, index, argvs, False, EMPTY,
                                         _collect_values(values))
                    index += 1
                    if any(record["rc"] != 0 for record in rep["commands"]):
                        print(f"{name} seed {seed} failed: {rep['problems']}", file=sys.stderr)
                        return 1
                    if profile == "full":
                        for key, digest in rep["digests"].items():
                            digests.setdefault(name, {}).setdefault(key, {})[str(seed)] = digest
                    print(f"recorded {profile} {name} seed {seed}", file=sys.stderr)
        tolerances = _runge_tolerances(values, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for per_key in digests.values():
        for key, by_seed in per_key.items():
            if len(set(by_seed.values())) == 1 and len(by_seed) > 1:
                per_key[key] = {"*": next(iter(by_seed.values()))}
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump({"values": values, "tolerances": tolerances, "digests": digests},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
