"""Output checks for one CLI command, and the reference comparison.

`check_command` returns the problems found (an empty list means the command
passed): a nonzero exit, a manifest digest that does not match the file on
disk, or a broken invariant of the command's artifacts.  The `solve` field
and the `runge` curve are also compared with the values make_reference.py
recorded in reference.json.  The solve field may differ by what the solver's
residual contract allows, (n-1)^2 * solver.rtol relative to the reference
scale, since ||A^-1||_inf * ||rhs||_inf is at most of that order for these
operators.  That bound does not carry over to the runge curve, whose eps and
boundary_cost come out of a Tikhonov fit with lambda down to 1e-10; each of
its columns has the relative tolerance make_reference.py measured by
rebuilding the curve from dictionaries solved other valid ways.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

SOLVE_STRIDE = 8


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _metrics(path: str) -> dict:
    return {row["metric"]: row["value"] for row in _rows(path)}


def field_sample(path: str, n: int, stride: int = SOLVE_STRIDE) -> list[float]:
    """Values of an x,y,value field file at nodes whose indices are multiples of stride."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for k, row in enumerate(reader):
            ix, iy = divmod(k, n)
            if ix % stride == 0 and iy % stride == 0:
                out.append(float(row[2]))
    return out


def _invariants(command: str, out: str, config: dict, reference: dict) -> list[str]:
    problems = []
    n = int(config["grid.n"])
    if command == "constraint-experiment":
        rows = _rows(os.path.join(out, "success_curve.csv"))
        successes = [int(r["successes"]) for r in rows]
        if any(b < a for a, b in zip(successes, successes[1:])):
            problems.append(f"successes decrease in N: {successes}")
        summary = _metrics(os.path.join(out, "cover_summary.csv"))
        if int(summary["complete_at_max_N"]) != successes[-1]:
            problems.append(f"complete_at_max_N {summary['complete_at_max_N']} != "
                            f"successes at max N {successes[-1]}")
        if config["tau"] == "auto" and float(rows[-1]["rate"]) < 0.95:
            problems.append(f"rate at max N {rows[-1]['rate']} < 0.95 under tau=auto")
    elif command == "variance-check":
        z = [abs(float(r["z"])) for r in _rows(os.path.join(out, "variance_check.csv"))]
        if not z or max(z) > 4.0:
            problems.append(f"variance-check |z| up to {max(z, default=float('nan'))} > 4")
    elif command == "tail-check":
        if _metrics(os.path.join(out, "tail_summary.csv"))["dominated"] != "1":
            problems.append("tail_summary has dominated != 1")
    elif command == "runge":
        rows = [(float(r["lambda"]), float(r["eps"]), float(r["boundary_cost"]))
                for r in _rows(os.path.join(out, "runge_curve.csv"))]
        eps = [r[1] for r in rows]
        cost = [r[2] for r in rows]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            problems.append("runge eps does not strictly fall down the lambda sweep")
        if any(b <= a for a, b in zip(cost, cost[1:])):
            problems.append("runge boundary_cost does not rise down the lambda sweep")
        ref = reference["values"].get(f"runge@{n}")
        if ref is None:
            problems.append(f"no runge reference for n={n}")
        else:
            tols = reference["tolerances"][f"runge@{n}"]
            if len(ref) != len(rows) or any(
                    abs(v - r) > tol * abs(r) for row, rrow in zip(rows, ref)
                    for v, r, tol in zip(row, rrow, tols)):
                problems.append("runge curve differs from the reference by more than "
                                f"{', '.join(f'{t:.1e}' for t in tols)} relative")
    elif command == "solve":
        ref = reference["values"].get(f"solve@{n}")
        tol = (n - 1) ** 2 * float(config["solver.rtol"])
        values = field_sample(os.path.join(out, "solution.csv"), n)
        if ref is None:
            problems.append(f"no solve reference for n={n}")
        else:
            scale = max(abs(v) for v in ref)
            err = max((abs(v - r) for v, r in zip(values, ref)), default=float("inf"))
            if len(values) != len(ref) or err > tol * scale:
                problems.append(f"solve field differs from the reference by {err:.3e} "
                                f"> {tol * scale:.3e}")
    elif command == "qpat":
        m = _metrics(os.path.join(out, "qpat_metrics.csv"))
        if not float(m["rel_l2_error_valid"]) <= 1e-6:
            problems.append(f"qpat rel_l2_error_valid {m['rel_l2_error_valid']} > 1e-6")
        if m["window_complete"] != "1":
            problems.append("qpat window_complete != 1")
    elif command == "conductivity":
        m = _metrics(os.path.join(out, "conductivity_metrics.csv"))
        if float(m["coverage"]) != 1.0:
            problems.append(f"conductivity coverage {m['coverage']} != 1")
        if not float(m["rel_l2_log_error"]) <= 1e-5:
            problems.append(f"conductivity rel_l2_log_error {m['rel_l2_log_error']} > 1e-5")
    return problems


def check_command(record: dict, reference: dict) -> tuple[list[str], dict]:
    """(problems, {artifact: digest}) for one command run by the child."""
    argv, out = record["argv"], record["out"]
    if record["rc"] != 0:
        detail = record["error"] or f"exit code {record['rc']}"
        return [f"{argv[0]} failed: {detail}"], {}
    try:
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        digests = {}
        problems = []
        for name, digest in sorted(manifest["outputs"].items()):
            digests[name] = sha256(os.path.join(out, name))
            if digests[name] != digest:
                problems.append(f"{argv[0]}: {name} does not match its manifest digest")
        if problems:
            return problems, digests
        return _invariants(argv[0], out, manifest["config"], reference), digests
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"{argv[0]}: unreadable output ({type(exc).__name__}: {exc})"], {}


def reference_status(digests: dict, seed: int, reference: dict) -> dict:
    """Artifacts matching, differing from, or absent from the recorded digests.

    digests maps "<command index>.<command>/<artifact>" to a digest.  The
    reference holds one digest for artifacts that do not depend on the seed
    and per-seed digests for a few seeds for the others.
    """
    status = {"matched": [], "differs": [], "unreferenced": []}
    for key, digest in sorted(digests.items()):
        entry = reference.get(key, {})
        expected = entry.get("*", entry.get(str(seed)))
        if expected is None:
            status["unreferenced"].append(key)
        elif expected == digest:
            status["matched"].append(key)
        else:
            status["differs"].append(key)
    return status
