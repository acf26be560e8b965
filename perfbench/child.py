"""One benchmark repetition in a fresh interpreter.

    python3 child.py SPEC.json RESULT.json     run the commands in SPEC
    python3 child.py --setup-only              print the import-finished time

The first thing the script does is import `randbc.cli`, which is what every
CLI call pays; it records `time.monotonic()` right after, and the parent
subtracts its own clock reading taken just before starting the process.  It
then runs the spec's CLI commands in this process, one after the other, and
writes one JSON result once at the end.
"""

import time

import randbc.cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(path) for name in names)


def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    pinned = {k: v for k, v in os.environ.items()
              if k.startswith(("OPENBLAS", "OMP_", "MKL_", "RANDBC", "PYTHON"))}
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas.get("version", "unknown"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "env": dict(sorted(pinned.items())), "randbc_path": randbc.__file__}


def run(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    commands = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    wall0 = time.perf_counter()
    for argv, out_dir in spec["commands"]:
        sid = tracer.open(f"cli.{argv[0]}") if tracer else None
        error = None
        try:
            rc = randbc.cli.run(argv + ["--out", out_dir])
        except Exception:  # a crash is a failed command, not a failed benchmark
            rc, error = None, traceback.format_exc(limit=5)
        finally:
            if tracer:
                tracer.close(sid)
        if tracer:
            tracer.count(sid, output_bytes=_tree_bytes(out_dir) if os.path.isdir(out_dir) else 0)
        commands.append({"argv": argv, "out": out_dir, "rc": rc, "error": error})
    wall = time.perf_counter() - wall0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "imported_at": IMPORTED_AT,
        "wall_s": wall,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "commands": commands,
        "environment": _environment(),
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans)
    return result


def main() -> int:
    if sys.argv[1:] == ["--setup-only"]:
        print(json.dumps({"imported_at": IMPORTED_AT, "randbc_path": randbc.__file__}))
        return 0
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
