"""Benchmark runner: runs one workload of randbc CLI sessions and reports metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a randbc checkout.  Every repetition runs the
workload's commands in a fresh interpreter (child.py) with a fixed
environment: RANDBC_THREADS unset and OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1,
so the only parallelism is the `--threads 2` of the mc-curve commands.
Repetitions start while they would end, on average, within S seconds (at
least two, so artifact digests can be compared across repetitions).

--trace 0 reports the end-to-end metrics (medians over repetitions); --trace 1
alternates untraced and traced repetitions and reports the per-layer metrics
of the traced ones plus trace.overhead_s, the traced minus the untraced median
wall time.  Every command's outputs are checked (checks.py); the last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics.  Quartiles, sample counts, the environment and the reference
comparison go to perfbench/_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# setup_s samples: each repetition's start, one import-only start after each
# repetition, and more import-only starts at the end up to this many.
MIN_SETUP_SAMPLES = 10
CHILD_TIMEOUT_S = 150.0
# No repetition starts that could end after this many seconds of measuring.
RUN_LIMIT_S = 140.0
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RANDBC_THREADS", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _spawn(args: list[str], log_path: str) -> tuple[float, int]:
    started = time.monotonic()
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")] + args,
                                  stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                  cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"child exceeded {CHILD_TIMEOUT_S} s") from exc
    return started, proc.returncode


def _child_output(log_path: str) -> str:
    with open(log_path) as fh:
        return fh.read()


def setup_sample(work: str) -> float:
    log_path = os.path.join(work, "setup.log")
    started, rc = _spawn(["--setup-only"], log_path)
    text = _child_output(log_path)
    if rc != 0:
        raise BenchmarkError(f"importing randbc failed:\n{text[-2000:]}")
    doc = json.loads(text.strip().splitlines()[-1])
    expected = os.path.join(ROOT, "src", "randbc")
    if not os.path.abspath(doc["randbc_path"]).startswith(expected + os.sep):
        raise BenchmarkError(f"randbc was imported from {doc['randbc_path']}, not {expected}")
    return doc["imported_at"] - started


def repetition(work: str, index: int, argvs: list[list[str]], traced: bool,
               reference: dict, on_output=None) -> dict:
    """Run one repetition in a fresh child; check and then delete its outputs."""
    rep_dir = os.path.join(work, f"rep{index}")
    os.makedirs(rep_dir)
    spec = {"trace": traced,
            "commands": [[argv, os.path.join(rep_dir, f"cmd{j}")]
                         for j, argv in enumerate(argvs)]}
    spec_path = os.path.join(rep_dir, "spec.json")
    result_path = os.path.join(rep_dir, "result.json")
    log_path = os.path.join(rep_dir, "child.log")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    started, rc = _spawn([spec_path, result_path], log_path)
    if rc != 0:
        raise BenchmarkError(f"repetition {index} crashed:\n{_child_output(log_path)[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = result.pop("imported_at") - started
    result["traced"] = traced
    result["problems"] = []
    result["digests"] = {}
    for j, record in enumerate(result["commands"]):
        if on_output is not None:
            on_output(record["out"])
        problems, digests = checks.check_command(record, reference)
        record["problems"] = problems
        result["problems"].extend(problems)
        for name, digest in digests.items():
            result["digests"][f"{j}.{record['argv'][0]}/{name}"] = digest
        record["digests"] = digests
    shutil.rmtree(rep_dir)
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def failed_commands(reps: list[dict]) -> tuple[int, int, list[str]]:
    """(failed, nondeterministic, notes): commands that failed a check, and those
    whose artifacts differ from the same command's in the first repetition (same
    commit, environment and seed must give equal bytes), which also fail."""
    failed = nondeterministic = 0
    notes = []
    first = reps[0]["commands"]
    for index, rep in enumerate(reps):
        for j, record in enumerate(rep["commands"]):
            if record["problems"]:
                failed += 1
                notes.extend(f"rep{index}: {p}" for p in record["problems"])
            elif index > 0 and first[j]["digests"] and record["digests"] != first[j]["digests"]:
                failed += 1
                nondeterministic += 1
                notes.append(f"rep{index}: {record['argv'][0]} artifacts differ from rep0")
    return failed, nondeterministic, notes


def declared_metrics(section: str) -> dict[str, str]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc[section]}


def _metrics(values: dict, units: dict, section: str) -> dict:
    declared = declared_metrics(section)
    if declared != units:
        raise BenchmarkError(f"{section} metrics in BENCHMARK.json do not match the "
                             f"metrics computed: {sorted(set(declared) ^ set(units))}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run(workload: str, seed: int, seconds: float, trace: bool,
        profile: str = "full", on_output=None) -> dict:
    """Run the workload; returns the detail document (its "result" is the last line).

    on_output, when given, is called with each command's output directory
    after the child finishes and before the checks.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "randbc", "__init__.py")):
        raise BenchmarkError(f"no randbc sources under {ROOT}/src")
    argvs = workloads.commands(workload, seed, profile)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    work = os.path.join(HERE, "_work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup_sample(work)  # warm-up: bytecode caches and the page cache
        reps, setups = [], []
        began = time.monotonic()
        durations = []
        while True:
            elapsed = time.monotonic() - began
            # Start another repetition while it would end, on average, before
            # the measuring time is up, so runs measure about `seconds`.
            wanted = (len(reps) < 2 or (trace and not any(r["traced"] for r in reps))
                      or elapsed + 0.5 * statistics.mean(durations) < seconds)
            if not wanted or (reps and elapsed + max(durations) > RUN_LIMIT_S):
                break
            traced = trace and len(reps) % 2 == 1
            started = time.monotonic()
            reps.append(repetition(work, len(reps), argvs, traced, reference, on_output))
            setups += [reps[-1]["setup_s"], setup_sample(work)]
            durations.append(time.monotonic() - started)
        if trace and not any(r["traced"] for r in reps):
            raise BenchmarkError(f"no time left for a traced repetition in {RUN_LIMIT_S} s")
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(setup_sample(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    stats = {"wall_s": summary([r["wall_s"] for r in plain]),
             "setup_s": summary(setups),
             "cpu_s": summary([r["cpu_s"] for r in plain]),
             "peak_rss_mb": summary([r["peak_rss_mb"] for r in plain])}
    failed, nondeterministic, notes = failed_commands(reps)
    attempted = sum(len(r["commands"]) for r in reps)
    if trace:
        layer_units = tracer.layer_metric_units()
        values = {name: statistics.median(r["layers"][name] for r in traced_reps)
                  for name in layer_units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced_reps) - stats["wall_s"]["median"])
        metrics = _metrics(values, layer_units, "per_layer")
    else:
        metrics = _metrics({k: v["median"] for k, v in stats.items()},
                           END_TO_END_UNITS, "end_to_end")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "profile": profile, "commands": argvs,
        "repetitions": {"untraced": len(plain), "traced": len(traced_reps)},
        "end_to_end": stats,
        "failed_frac": failed / attempted,
        "failures": notes,
        "nondeterministic_commands": nondeterministic,
        "reference": checks.reference_status(
            reps[0]["digests"], seed, reference["digests"].get(workload, {})),
        "environment": reps[0]["environment"],
        "result": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    out_dir = os.path.join(HERE, "_results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(detail, fh, indent=1)
    wall = detail["end_to_end"]["wall_s"]
    print(f"{args.workload} seed={args.seed}: wall_s median {wall['median']:.4f} "
          f"[q1 {wall['q1']:.4f}, q3 {wall['q3']:.4f}, n={wall['n']}], "
          f"failed_frac {detail['failed_frac']:.3g}, nondeterministic commands "
          f"{detail['nondeterministic_commands']}, reference differs: "
          f"{detail['reference']['differs'] or 'none'}, unreferenced artifacts: "
          f"{len(detail['reference']['unreferenced'])}; detail in perfbench/_results/{name}")
    for note in detail["failures"]:
        print(f"  failure: {note}")
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
