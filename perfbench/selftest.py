"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload at the "tiny" sizes, untraced and traced, and checks that
each run passes its output checks and emits every metric BENCHMARK.json names,
with its unit.  Then it corrupts the artifacts after the run, twice, and
checks that every command is reported as failed: once by appending a line to
a CSV, which the manifest digest catches, and once by changing a value and
rewriting the manifest digest to match, which only the command's invariants
or its reference comparison can catch.
"""

from __future__ import annotations

import csv
import json
import os
import sys

import checks
import run
import workloads

# command: (artifact, metric row or column, new value from old).  The runge
# and solve changes keep every invariant and break only the reference match.
VALUE_CORRUPTIONS = {
    "constraint-experiment": ("cover_summary.csv", "complete_at_max_N",
                              lambda v: str(int(v) + 1)),
    "variance-check": ("variance_check.csv", "z", lambda v: "10.0"),
    "tail-check": ("tail_summary.csv", "dominated", lambda v: "0"),
    "runge": ("runge_curve.csv", "eps", lambda v: repr(float(v) * (1 + 1e-4))),
    "solve": ("solution.csv", "value", lambda v: repr(float(v) * (1 + 1e-3))),
    "qpat": ("qpat_metrics.csv", "rel_l2_error_valid", lambda v: "1.0"),
    "conductivity": ("conductivity_metrics.csv", "coverage", lambda v: "0.5"),
}


def _append_line(out: str) -> None:
    names = sorted(n for n in os.listdir(out) if n.endswith(".csv"))
    with open(os.path.join(out, names[0]), "a") as fh:
        fh.write("0\n")


def _change_value(out: str) -> None:
    manifest_path = os.path.join(out, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    name, key, change = VALUE_CORRUPTIONS[manifest["command"]]
    path = os.path.join(out, name)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    for row in rows[1:]:
        if header == ["metric", "value"]:
            if row[0] == key:
                row[1] = change(row[1])
        else:
            col = header.index(key)
            row[col] = change(row[col])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    manifest["outputs"][name] = checks.sha256(path)
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    for name in workloads.NAMES:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            detail = run.run(name, 0, 0.0, trace, profile="tiny")
            result = detail["result"]
            label = f"{name} trace={int(trace)}"
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: checks failed: {detail['failures']}")
            for metric in bench[section]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{label}: {metric['name']} missing")
                elif got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{label}: {metric['name']} emitted as {got}")
            print(f"ok {label}: {result['attempted']} commands checked", file=sys.stderr)
        for corrupt in (_append_line, _change_value):
            detail = run.run(name, 0, 0.0, False, profile="tiny", on_output=corrupt)
            label = f"{name} {corrupt.__name__}"
            notes = sorted({note.split(": ", 1)[1] for note in detail["failures"]})
            wrong_check = [note for note in notes if "unreadable output" in note or (
                corrupt is _change_value and "manifest digest" in note)]
            if detail["failed_frac"] != 1.0 or detail["result"]["correct"] or wrong_check:
                problems.append(f"{label}: not every command failed its intended check: "
                                f"failed_frac {detail['failed_frac']}, {notes}")
            else:
                print(f"ok {label}: every command failed: {notes}", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
