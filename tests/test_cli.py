"""Command line interface: config resolution, outputs, manifests, exit codes."""

import argparse
import builtins
import csv
import errno
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import randbc
from randbc.cli import (_DIGEST_CHUNK, COMMANDS, REGISTRY, OutputWriter, _build_parser,
                        _collect_overrides, _fmt, _rel_l2_error, resolve_config, run)
from randbc.solver import CoefficientField, assemble, load_field_csv


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


def test_registry_covers_the_documented_keys():
    for key in ("grid.n", "omega_prime.lo", "omega_prime.hi", "coeff.a",
                "coeff.q", "solver.rtol", "solver.maxiter", "bc.family",
                "bc.K", "bc.sigma.c", "bc.sigma.s", "seed", "threads"):
        assert key in REGISTRY


def test_table_csv_bytes_match_the_csv_module(tmp_path):
    header = ["metric", "value"]
    rows = [("tau", 0.1), ("complete_at_max_N", 1947), ("M", np.int64(2000)),
            ("dominated", True), ("window_complete", np.False_), ("family", "rademacher"),
            ("rate", np.float64(1.0) / 3.0), ("tiny", -2.5e-300), ("big", 1e16),
            ("zero", -0.0), ("missing", float("nan")), ("over", float("-inf"))]
    ref = tmp_path / "reference.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([[_fmt(v) for v in row] for row in rows])
    out = OutputWriter(str(tmp_path / "out"))
    out.csv("table.csv", header, rows)
    assert (tmp_path / "out" / "table.csv").read_bytes() == ref.read_bytes()
    assert out.written == ["table.csv"]


def test_config_precedence_defaults_file_overrides(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# comment line\ngrid.n = 21\nseed = 4\n")
    cfg = resolve_config("solve", str(cfgfile), {"grid.n": "25"})
    assert cfg["grid.n"] == 25
    assert cfg["seed"] == 4
    assert cfg["bc.family"] == "gaussian"


def test_cond_bc_is_the_default_pair_or_two_stripped_expressions():
    assert resolve_config("conductivity", None, {})["cond.bc"] is None
    cfg = resolve_config("conductivity", None, {"cond.bc": "x ; x*y + y"})
    assert cfg["cond.bc"] == ("x", "x*y + y")


def test_unknown_keys_are_rejected_with_the_valid_key_list(tmp_path, capsys):
    rc = run(["solve", "--out", str(tmp_path / "o"), "--set", "no.such.key=1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "no.such.key" in err
    assert "grid.n" in err


def test_bad_value_exits_with_the_config_code(tmp_path, capsys):
    rc = run(["solve", "--out", str(tmp_path / "o"), "--set", "grid.n=banana"])
    assert rc == 2
    assert "grid.n" in capsys.readouterr().err


@pytest.mark.parametrize("command, pair", [
    ("constraint-experiment", "tau=abc"),
    ("qpat", "qpat.bc=const:abc"),
    ("solve", "coeff.a=().__class__.__base__.__subclasses__()"),
    ("solve", "coeff.a='abc'"),
])
def test_malformed_value_is_a_config_error_not_a_traceback(command, pair, tmp_path):
    src = os.path.dirname(os.path.dirname(randbc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "randbc", command,
                           "--out", str(tmp_path / "o"), "--set", pair],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name, content", [
    ("binary.cfg", b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256))),
    ("manifest.json", b'{"config": [1, 2]}'),
], ids=["not-utf8", "config-not-a-map"])
def test_malformed_config_file_is_a_config_error_not_a_traceback(name, content,
                                                                 tmp_path):
    path = tmp_path / name
    path.write_bytes(content)
    src = os.path.dirname(os.path.dirname(randbc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "randbc", "solve",
                           "--out", str(tmp_path / "o"), "--config", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr
    assert "Traceback" not in proc.stderr


# (key, command, bad value): one row for every registry key.
BAD_VALUES = [
    ("seed", "sample", "-1"),
    ("threads", "constraint-experiment", "-1"),
    ("grid.n", "solve", "2.5"),
    ("omega_prime.lo", "constraint-experiment", "0.25"),
    ("omega_prime.hi", "constraint-experiment", "inf,0.75"),
    ("coeff.a", "solve", "().__class__"),
    ("coeff.q", "solve", "'abc'"),
    ("solver.rtol", "solve", "inf"),
    ("solver.rtol", "solve", "2"),
    ("solver.maxiter", "solve", "many"),
    ("solver.maxiter", "solve", "-1"),
    ("bc.family", "sample", "cauchy"),
    ("bc.K", "sample", "4.5"),
    ("bc.sigma.c", "sample", "nan"),
    ("bc.sigma.c", "sample", "1e301"),
    ("bc.sigma.s", "sample", "inf"),
    ("zeta", "constraint-experiment", "hessian"),
    ("zeta.direction", "constraint-experiment", "1,nan"),
    ("N", "qpat", "0"),
    ("N_list", "constraint-experiment", "1,x"),
    ("M", "constraint-experiment", "lots"),
    ("tau", "constraint-experiment", "inf"),
    ("solve.bc", "solve", "x +"),
    ("sample.count", "sample", "0"),
    ("runge.target", "runge", "cube"),
    ("runge.pole", "runge", "0.9"),
    ("runge.disk.center", "runge", "nan,0.5"),
    ("runge.disk.radius", "runge", "inf"),
    ("runge.lambdas", "runge", "1e-2,inf"),
    ("runge.index", "runge", "five"),
    ("runge.degree", "runge", "two"),
    ("runge.part", "runge", "abs"),
    ("qpat.mu", "qpat", "mu(x)"),
    ("qpat.bc", "qpat", "const:inf"),
    ("qpat.tau", "qpat", "inf"),
    ("cond.a", "conductivity", "exp("),
    ("cond.bc", "conductivity", "x1"),
    ("cond.tau", "conductivity", "nan"),
    ("cond.anchor", "conductivity", "0.5,inf"),
    # out of range under a command that does not read the key
    ("solver.rtol", "runge", "2"),
    ("solver.rtol", "runge", "0"),
    ("solver.maxiter", "variance-check", "-1"),
    ("threads", "sample", "-1"),
    ("N", "tail-check", "0"),
    ("N_list", "sample", "0,1"),
    ("sample.count", "solve", "0"),
]


def test_a_bad_value_for_every_registry_key_exits_with_the_config_code(tmp_path,
                                                                     capsys):
    assert {key for key, _, _ in BAD_VALUES} == set(REGISTRY)
    for key, command, value in BAD_VALUES:
        small = [] if key == "grid.n" else ["--set", "grid.n=17"]
        rc = run([command, "--out", str(tmp_path / key), *small,
                  "--set", f"{key}={value}"])
        err = capsys.readouterr().err
        assert rc == 2, (key, value, err)
        assert "configuration error" in err, (key, value, err)
        assert key in err, (key, value, err)


# (key, command, upper bound): every size key, and the magnitude bc.sigma.c,
# under each command that reads it.
SIZE_BOUNDS = [
    ("grid.n", "solve", 4097),
    ("bc.K", "sample", 1025),
    ("bc.K", "tail-check", 1025),
    ("M", "constraint-experiment", 10**7),
    ("M", "variance-check", 10**7),
    ("M", "tail-check", 10**7),
    ("N", "qpat", 1024),
    ("N_list", "constraint-experiment", 1024),
    ("sample.count", "sample", 10**6),
    ("bc.sigma.c", "sample", 1e300),
    ("bc.sigma.c", "variance-check", 1e300),
    ("bc.sigma.c", "tail-check", 1e300),
    ("bc.sigma.c", "constraint-experiment", 1e300),
]


@pytest.mark.parametrize("key, command, bound", SIZE_BOUNDS)
@pytest.mark.parametrize("excess", ["30-digits", "bound+1"])
def test_a_size_past_its_bound_exits_with_the_config_code_at_once(key, command, bound,
                                                                  excess, tmp_path, capsys):
    # Unbounded, these ran into numpy's size limits with a traceback, or, for
    # qpat's N, kept solving.  An exception escaping run() would print one.
    value = "9" * 30 if excess == "30-digits" else str(bound + 1)
    if isinstance(bound, float):    # a magnitude: 1e308, and the next float up
        value = "1e308" if excess == "30-digits" else repr(math.nextafter(bound, math.inf))
    if key == "N_list":
        value = "1,2," + value
    start = time.perf_counter()
    rc = run([command, "--out", str(tmp_path / "o"), "--set", f"{key}={value}"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "configuration error" in err and f"must be <= {bound}" in err
    assert elapsed < 0.5
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("pair, code", [
    ("coeff.a=x/0", 2),
    ("solve.bc=where(x>0, 1/x, 0)", 0),
], ids=["nan-coefficient", "guarded-division"])
def test_field_expressions_print_no_floating_point_warnings(pair, code, tmp_path):
    src = os.path.dirname(os.path.dirname(randbc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "randbc", "solve", "--out",
                           str(tmp_path / "o"), "--set", "grid.n=17", "--set", pair],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code
    assert "Warning" not in proc.stderr
    if code == 2:
        assert proc.stderr == "randbc: configuration error: coefficients must be finite\n"
    else:
        assert proc.stderr == ""


@pytest.mark.parametrize("value", ["1e160", "1e200", "1e308", "1e-310", "1e-200*(1+x)",
                                   "1e-160"])
@pytest.mark.parametrize("key, command", [("coeff.a", "solve"), ("cond.a", "conductivity")])
def test_overflowing_coefficients_exit_with_the_config_code_and_no_warning(key, command,
                                                                           value, tmp_path):
    # harmonic-mean face weights overflow for a above about 1.3e154, and the
    # products in them may leave the normal floats for a below about 1.5e-154
    src = os.path.dirname(os.path.dirname(randbc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "randbc", command, "--out",
                           str(tmp_path / "o"), "--set", "grid.n=17",
                           "--set", f"{key}={value}"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("randbc: configuration error: diffusion coefficient a ")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, pair", [
    ("solve", "coeff.a=1/x"), ("solve", "coeff.q=1/x"), ("qpat", "qpat.mu=1/x"),
    ("conductivity", "cond.a=1/x"), ("solve", "solve.bc=1/x"), ("qpat", "qpat.bc=1/x"),
    ("conductivity", "cond.bc=1/x;y"),
])
def test_a_non_finite_input_field_exits_with_the_config_code(command, pair, tmp_path,
                                                             capsys):
    out = tmp_path / "o"
    rc = run([command, "--out", str(out), "--set", "grid.n=17", "--set", pair])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "configuration error" in err and "Traceback" not in err
    assert not out.exists()


def test_a_diffusion_scale_just_above_the_underflow_bound_still_solves(tmp_path):
    outs = [tmp_path / "unit", tmp_path / "tiny"]
    for out, a in zip(outs, ["1+x", "1e-150*(1+x)"]):
        assert run(["solve", "--out", str(out), "--set", "grid.n=17",
                    "--set", f"coeff.a={a}"]) == 0
    unit, tiny = (load_field_csv(out / "solution.csv")[1] for out in outs)
    assert np.abs(tiny - unit).max() <= 1e-14


# Every coefficient key under each command that reads it, at tiny sizes.
COEFFICIENT_RUNS = [
    ("solve", key, []) for key in ("coeff.a", "coeff.q")] + [
    ("runge", key, ["--set", "bc.K=5", "--set", "runge.lambdas=1e-2,1e-4",
                    "--set", "runge.disk.radius=0.3", "--set", "runge.target=dictionary_member",
                    "--set", "runge.index=2"]) for key in ("coeff.a", "coeff.q")] + [
    ("constraint-experiment", key, ["--set", "bc.K=5", "--set", "M=50", "--set", "N_list=1,2"])
    for key in ("coeff.a", "coeff.q")] + [
    ("qpat", "qpat.mu", ["--set", "bc.K=5"]),
    ("conductivity", "cond.a", []),
]
COEFFICIENT_VALUES = ["0", "-1", "1e200", "-1e200", "1e308", "1e-308", "1e-310", "x/0",
                      "exp(1000*x)", "9" * 30]
# The NaNs README documents: the reconstructed fields where no value is justified.
DOCUMENTED_NANS = {"mu_hat.csv", "log_a_hat.csv"}


def _assert_exits_cleanly(argv, out, capsys) -> int:
    """Runs argv in-process, so that the error::RuntimeWarning filter turns a
    warning into a failure; a failed run leaves no outputs, a run that
    succeeds writes only finite floats (bar the documented NaNs)."""
    rc = run([argv[0], "--out", str(out), "--set", "grid.n=17", *argv[1:]])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2), (argv, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if rc != 0:
        assert len(err.splitlines()) == 1, (argv, err)
        assert not out.exists(), argv
        return rc
    for path in out.glob("*.csv"):
        with open(path, newline="") as fh:
            for row in list(csv.reader(fh))[1:]:
                floats = [float(v) for v in row if _is_float(v)]
                if {path.name, f"{path.name}:{row[0]}"} & DOCUMENTED_NANS:
                    floats = [v for v in floats if not math.isnan(v)]
                assert all(map(math.isfinite, floats)), (argv, path.name)
    return rc


# Conductivity inputs whose Jacobian region covers part of the window: split in
# two, empty, and cut by a high threshold.
PARTIAL_COVERAGE = [
    ["conductivity", "--set", "cond.a=1", "--set", "cond.bc=x1;x2*(x1-0.5)",
     "--set", "cond.anchor=0.3,0.3"],
    ["conductivity", "--set", "cond.bc=x1;x1"],
    ["conductivity", "--set", "cond.tau=0.95"],
]


def test_every_coefficient_value_exits_cleanly_with_finite_outputs(tmp_path, capsys):
    runs = [[command, *extra, "--set", f"{key}={value}"] for (command, key, extra), value
            in itertools.product(COEFFICIENT_RUNS, COEFFICIENT_VALUES)]
    codes = [_assert_exits_cleanly(argv, tmp_path / str(i), capsys)
             for i, argv in enumerate(runs + PARTIAL_COVERAGE)]
    assert codes[-len(PARTIAL_COVERAGE):] == [0, 1, 0]


# Every command that reads the weight scale bc.sigma.c, at tiny sizes.
SCALE_RUNS = [
    ["sample", "--set", "bc.K=3", "--set", "sample.count=2"],
    ["tail-check", "--set", "bc.K=5", "--set", "M=1000"]] + [
    ["variance-check", "--set", "bc.K=5", "--set", "M=50", "--set", f"zeta={zeta}"]
    for zeta in ("jacobian", "augmented")] + [
    ["constraint-experiment", "--set", "bc.K=5", "--set", "M=50", "--set", "N_list=1,2",
     "--set", f"zeta={zeta}"] for zeta in ("jacobian", "augmented")] + [
    ["runge", *COEFFICIENT_RUNS[2][2]],
]
SCALE_VALUES = ["1e-300", "1e-160", "1e-45", "1", "1e60", "1e160", "1e300"]
# Krylov solves whose r.z underflows (rtol 1e-300) or overflows (data ~ 1e300).
EXTREME_SOLVES = [
    ["solve", "--set", "coeff.a=1+x", "--set", "solver.rtol=1e-300"],
    ["conductivity", "--set", "solver.rtol=1e-300"],
    ["conductivity", "--set", "cond.bc=1e300*x1;x2"],
]


def test_every_weight_scale_exits_cleanly_with_finite_outputs(tmp_path, capsys):
    runs = [argv + ["--set", f"bc.sigma.c={c}"]
            for argv, c in itertools.product(SCALE_RUNS, SCALE_VALUES)]
    codes = [_assert_exits_cleanly(argv, tmp_path / str(i), capsys)
             for i, argv in enumerate(runs + EXTREME_SOLVES)]
    assert 2 not in codes[-len(EXTREME_SOLVES):]
    # every command computes at the scales in the middle of the range
    middle = [rc for argv, rc in zip(runs, codes) if argv[-1].endswith(("=1e-45", "=1"))]
    assert middle == [0] * len(middle)
    # success counts do not depend on the weight scale
    for i, (argv, rc) in enumerate(zip(runs, codes)):
        if argv[0] == "constraint-experiment" and rc == 0:
            unit = runs.index(argv[:-1] + ["bc.sigma.c=1"])
            assert _successes(tmp_path / str(i)) == _successes(tmp_path / str(unit)), argv


def test_an_explicit_subnormal_threshold_exits_with_the_config_code(tmp_path, capsys):
    # the c = 1 auto tau times c^2; counted against it, the c = 1e-160 run
    # wrote 20/50 and 48/50 successes where c = 1 writes 20/50 and 49/50
    argv = ["constraint-experiment", "--set", "grid.n=17", "--set", "bc.K=5",
            "--set", "M=50", "--set", "N_list=1,2", "--set", "zeta=jacobian",
            "--set", "bc.sigma.c=1e-160"]
    out = tmp_path / "subnormal"
    assert run([*argv, "--out", str(out), "--set", "tau=3.227601005865069e-323"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("randbc: configuration error: tau must be 0 or a finite normal")
    assert not out.exists()
    for i, tau in enumerate(["0", repr(float(np.finfo(float).tiny))]):
        assert run([*argv, "--out", str(tmp_path / str(i)), "--set", f"tau={tau}"]) == 0


def _successes(out) -> list[str]:
    with open(out / "success_curve.csv", newline="") as fh:
        return [row["successes"] for row in csv.DictReader(fh)]


@pytest.mark.parametrize("suffix", [".csv", "manifest.json"])
def test_a_failed_write_exits_1_and_leaves_no_outputs(suffix, tmp_path, capsys,
                                                      monkeypatch):
    # ENOSPC on writing any output with the suffix, after its file is made,
    # as a write that fails part way leaves it
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        if "w" in mode and str(file).endswith(suffix):
            real_open(file, mode, *args, **kwargs).close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", failing_open)
    out = tmp_path / "o"
    rc = run(["sample", "--out", str(out), "--set", "sample.count=3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("randbc: run failed: cannot write the outputs (")
    assert not out.exists()


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


BENCH_QPAT = ["--set", "qpat.bc=random",
              "--set", "qpat.mu=1+0.5*exp(-20*((x-0.4)**2+(y-0.6)**2))"]


def traced_run_peak(argv, tmp_path, traced_memory, warm_argv=None) -> int:
    """The tracemalloc peak of one in-process run of argv, after an untraced
    run of warm_argv (default: argv) filled the process-wide caches."""
    outs = iter(str(tmp_path / f"o{i}") for i in range(2))

    def runner(a):
        def run_once():
            assert run(a + ["--out", next(outs)]) == 0
        return run_once
    return traced_memory(runner(argv), warm=runner(warm_argv or argv))[0]


@pytest.mark.parametrize("argv, budget", [
    (["solve"], 10),
    (["qpat", "--set", "N=4"] + BENCH_QPAT, 20),
    (["conductivity"], 18),
], ids=["solve", "qpat", "conductivity"])
def test_commands_peak_within_their_field_budgets(argv, budget, tmp_path, traced_memory):
    n = 129
    peak = traced_run_peak(argv + ["--set", f"grid.n={n}"], tmp_path, traced_memory)
    assert peak <= budget * n ** 2 * 8, peak / (n ** 2 * 8)


def test_qpat_command_memory_does_not_grow_with_the_illuminations(tmp_path, traced_memory):
    # At n=129 a field (133 KB) is well above the peak's run-to-run jitter and
    # the N x K coefficient rows (8.4 KB at N=32).
    n = 129

    def peak(N):
        argv = ["qpat", "--set", f"grid.n={n}", "--set", f"N={N}"] + BENCH_QPAT
        return traced_run_peak(argv, tmp_path / str(N), traced_memory,
                               warm_argv=["qpat", "--set", f"grid.n={n}"] + BENCH_QPAT)
    assert peak(32) - peak(1) < n ** 2 * 8


def test_qpat_without_any_valid_node_exits_with_the_runtime_code(tmp_path, capsys):
    out = tmp_path / "qpat"
    rc = run(["qpat", "--out", str(out), "--set", "grid.n=17",
              "--set", "qpat.bc=const:0"])
    assert rc == 1
    assert "clears tau" in capsys.readouterr().err
    assert not out.exists()


def test_solver_failure_exits_with_the_runtime_code(tmp_path, capsys):
    out = tmp_path / "o"
    rc = run(["solve", "--out", str(out), "--set", "grid.n=65",
              "--set", "coeff.a=exp(x)",
              "--set", "solver.maxiter=2", "--set", "solver.rtol=1e-14"])
    assert rc == 1
    assert "residual" in capsys.readouterr().err
    # failed runs leave no partial outputs behind
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    # a variable absorption keeps the forward solve iterative
    ("qpat", ["--set", "qpat.mu=1+0.5*exp(-20*((x-0.4)**2+(y-0.6)**2))"]),
    ("conductivity", []),
], ids=["qpat", "conductivity"])
def test_imaging_commands_honor_maxiter(command, extra, tmp_path, capsys):
    out = tmp_path / command
    rc = run([command, "--out", str(out), "--set", "grid.n=33",
              "--set", "solver.maxiter=1", "--set", "solver.rtol=1e-14"] + extra)
    assert rc == 1
    assert "residual" in capsys.readouterr().err
    assert not out.exists()


def test_iterative_solves_run_on_the_one_cg_loop(tmp_path, monkeypatch):
    # scipy's Krylov solvers must stay unused: every iterative solve, and the
    # conductivity potential integration, goes through conjugate_gradients.
    import scipy.sparse.linalg

    import randbc.inverse
    import randbc.solver

    def forbidden(*args, **kwargs):
        raise AssertionError("scipy Krylov solver called")

    monkeypatch.setattr(scipy.sparse.linalg, "cg", forbidden)
    monkeypatch.setattr(scipy.sparse.linalg, "lsqr", forbidden)
    loops = []
    loop = randbc.solver.conjugate_gradients

    def counting(*args, **kwargs):
        loops.append(args[1].size)
        return loop(*args, **kwargs)

    monkeypatch.setattr(randbc.solver, "conjugate_gradients", counting)
    monkeypatch.setattr(randbc.inverse, "conjugate_gradients", counting)
    for command, extra in [
            ("solve", ["--set", "coeff.a=exp(x)"]),
            ("qpat", ["--set", "qpat.mu=1+0.5*exp(-20*((x-0.4)**2+(y-0.6)**2))"]),
            ("conductivity", [])]:
        before = len(loops)
        rc = run([command, "--out", str(tmp_path / command), "--set", "grid.n=33"]
                 + extra)
        assert rc == 0
        assert len(loops) > before, command


def test_conductivity_integration_honors_maxiter(tmp_path, capsys):
    # 20 iterations let both forward solves converge but not the potential
    # integration, which needs about 1.3 n
    from randbc.grid import build_grid
    from randbc.inverse import conductivity_forward

    grid = build_grid(33)
    conductivity_forward(grid, np.exp(grid.X), maxiter=20)
    out = tmp_path / "o"
    rc = run(["conductivity", "--out", str(out), "--set", "grid.n=33",
              "--set", "solver.maxiter=20"])
    assert rc == 1
    assert "after 20 iterations" in capsys.readouterr().err
    assert not out.exists()


def test_exhausted_memory_exits_with_the_runtime_code(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 24.0 TiB for an array")

    monkeypatch.setattr("randbc.cli.tail_check", no_memory)
    out = tmp_path / "oom"
    rc = run(["tail-check", "--out", str(out), "--set", "M=1000", "--set", "bc.K=9"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "randbc: run failed: out of memory (Unable to allocate 24.0 TiB" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_solve_writes_solution_and_manifest(tmp_path):
    out = tmp_path / "solve"
    rc = run(["solve", "--out", str(out), "--set", "grid.n=17", "--seed", "3"])
    assert rc == 0
    m = manifest(out)
    assert m["command"] == "solve"
    assert m["config"]["grid.n"] == "17"
    assert m["outputs"]["solution.csv"] == "sha256:" + sha256(out / "solution.csv")


def test_manifest_digest_of_an_output_spanning_many_read_chunks(tmp_path):
    out = tmp_path / "solve"
    assert run(["solve", "--out", str(out), "--set", "grid.n=129"]) == 0
    path = out / "solution.csv"
    size = path.stat().st_size
    assert size > 4 * _DIGEST_CHUNK and size % _DIGEST_CHUNK
    assert manifest(out)["outputs"] == {"solution.csv": "sha256:" + sha256(path)}


@pytest.mark.parametrize("chunks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 0)])
def test_manifest_digest_at_chunk_boundaries(chunks, extra, tmp_path):
    out = OutputWriter(str(tmp_path / "out"))
    blob = tmp_path / "out" / "blob.bin"
    size = chunks * _DIGEST_CHUNK + extra
    blob.write_bytes(np.random.default_rng(size).bytes(size))
    out.written.append("blob.bin")
    out.manifest(resolve_config("solve", None, {}))
    assert manifest(tmp_path / "out")["outputs"] == {"blob.bin": "sha256:" + sha256(blob)}


def test_solve_with_negative_potential_meets_the_residual_contract(tmp_path):
    # default coeff.a = 1 and solve.bc = x*x - y*y; q = -5 is above the
    # certificate's -lambda_1/2 (about -9.9), and the constant stencil solves
    # by sine transform
    out = tmp_path / "solve"
    rc = run(["solve", "--out", str(out), "--set", "grid.n=33", "--set", "coeff.q=-5"])
    assert rc == 0
    grid, u = load_field_csv(out / "solution.csv")
    op = assemble(grid, CoefficientField.isotropic(grid, 1.0, -5.0))
    assert op.spd
    rhs = op.boundary_coupling @ grid.boundary_values(u)
    assert np.abs(op.apply(u)).max() <= 1e-10 * np.abs(rhs).max()


def test_sample_writes_draws_and_norms(tmp_path):
    out = tmp_path / "sample"
    rc = run(["sample", "--out", str(out), "--set", "sample.count=3",
              "--set", "bc.K=9", "--seed", "1"])
    assert rc == 0
    assert (out / "samples.csv").exists()
    assert (out / "sample_norms.csv").exists()


def test_sample_memory_grows_by_at_most_32_bytes_per_coefficient(tmp_path,
                                                                 traced_memory):
    def peak(count):
        return traced_run_peak(["sample", "--set", f"sample.count={count}"],
                               tmp_path / str(count), traced_memory, warm_argv=["sample"])
    K = int(REGISTRY["bc.K"][1])
    assert peak(8000) - peak(2000) <= 32 * 6000 * K


def test_experiment_rerun_from_manifest_is_byte_identical(tmp_path):
    base = tmp_path / "exp"
    args = ["constraint-experiment", "--set", "grid.n=17", "--set", "bc.K=9",
            "--set", "N_list=1,2", "--set", "M=50", "--seed", "6"]
    assert run(args + ["--out", str(base)]) == 0
    rerun = tmp_path / "rerun"
    assert run(["constraint-experiment", "--config", str(base / "manifest.json"),
                "--out", str(rerun), "--threads", "2"]) == 0
    names = ("success_curve.csv", "cover_summary.csv", "cover_field.csv")
    for name in names:
        assert (base / name).read_bytes() == (rerun / name).read_bytes()
    assert manifest(base)["outputs"] == manifest(rerun)["outputs"]
    assert manifest(rerun)["outputs"] == {name: "sha256:" + sha256(rerun / name)
                                          for name in names}
    lines = (base / "cover_field.csv").read_text().splitlines()
    assert lines[0] == "x,y,value,label"
    assert len(lines) > 1
    labels = {int(row.rsplit(",", 1)[1]) for row in lines[1:]}
    assert labels <= {1, 2}


@pytest.mark.parametrize("env", [None, "3"], ids=["unset", "set"])
def test_zero_threads_matches_the_serial_run(env, tmp_path, monkeypatch):
    # threads=0 runs one worker; the environment sets no worker count.
    serial = tmp_path / "serial"
    args = ["constraint-experiment", "--set", "grid.n=17", "--set", "bc.K=9",
            "--set", "N_list=1,2", "--set", "M=50", "--seed", "6"]
    assert run(args + ["--out", str(serial), "--threads", "1"]) == 0
    if env is None:
        monkeypatch.delenv("RANDBC_THREADS", raising=False)
    else:
        monkeypatch.setenv("RANDBC_THREADS", env)
    zero = tmp_path / "zero"
    assert run(args + ["--out", str(zero), "--threads", "0"]) == 0
    assert manifest(serial)["outputs"] == manifest(zero)["outputs"]
    assert manifest(zero)["workers"] == manifest(serial)["workers"] == 1


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("argv", [
    ["constraint-experiment", "--set", "grid.n=65", "--set", "bc.K=33",
     "--set", "zeta=jacobian", "--set", "M=50", "--set", "N_list=1,32"],
    ["qpat", "--set", "grid.n=257", "--set", "bc.K=33", "--set", "N=4"] + BENCH_QPAT,
], ids=["jacobian", "qpat"])
def test_outputs_do_not_depend_on_the_blas_thread_setting(argv, tmp_path):
    # A multithreaded BLAS splits long dot products and GEMMs across threads,
    # which changes their last bits; randbc runs at one BLAS thread whatever
    # the environment asks for.
    src = os.path.dirname(os.path.dirname(randbc.__file__))
    outputs = []
    for blas in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
        env["PYTHONPATH"] = src
        if blas is not None:
            env["OPENBLAS_NUM_THREADS"] = blas
        out = tmp_path / f"blas-{blas}"
        proc = subprocess.run([sys.executable, "-m", "randbc", *argv, "--seed", "0",
                               "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(manifest(out)["outputs"])
    assert outputs[0] == outputs[1] == outputs[2]


def test_variance_check_outputs(tmp_path):
    out = tmp_path / "var"
    rc = run(["variance-check", "--out", str(out), "--set", "grid.n=17",
              "--set", "bc.K=9", "--set", "M=300"])
    assert rc == 0
    header = (out / "variance_check.csv").read_text().splitlines()[0]
    assert header == "x,y,mc,series,z"


@pytest.mark.parametrize("zeta", ["jacobian", "augmented"])
def test_variance_check_runs_for_multi_argument_maps(zeta, tmp_path):
    out = tmp_path / "var"
    assert run(["variance-check", "--out", str(out), "--set", f"zeta={zeta}",
                "--set", "M=2000"]) == 0
    assert len((out / "variance_check.csv").read_text().splitlines()) == 10


def test_variance_check_runs_at_a_huge_weight_scale(tmp_path):
    # the sums are taken in units of 2^e, so the squares of zeta ~ 1e100 do not
    # overflow them; only E[zeta^2] itself is mapped back
    out = tmp_path / "o"
    assert run(["variance-check", "--out", str(out), "--set", "grid.n=17",
                "--set", "bc.K=5", "--set", "M=100", "--set", "bc.sigma.c=1e100"]) == 0
    with open(out / "variance_check.csv", newline="") as fh:
        rows = [[float(v) for v in row.values()] for row in csv.DictReader(fh)]
    assert len(rows) == 9 and np.isfinite(rows).all()
    assert all(1e190 < r[2] < 1e210 for r in rows)


@pytest.mark.parametrize("c", ["1e200"])
def test_variance_check_fails_cleanly_when_its_sums_overflow(c, tmp_path):
    # E[zeta^2] ~ c^2 and its series overflow float64 at c = 1e200
    src = os.path.dirname(os.path.dirname(randbc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "randbc", "variance-check", "--out",
                           str(tmp_path / "o"), "--set", "grid.n=17", "--set", "bc.K=5",
                           "--set", "M=100", "--set", f"bc.sigma.c={c}"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("randbc: run failed: variance check overflows")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("c", ["1e155", "1e300"])
def test_tail_check_runs_at_a_huge_weight_scale(c, tmp_path):
    # the draws' squares would overflow above about 1e154; the norms are
    # taken from the law in units of 2^e and mapped back
    src = os.path.dirname(os.path.dirname(randbc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "o"
    proc = subprocess.run([sys.executable, "-m", "randbc", "tail-check", "--out", str(out),
                           "--set", "grid.n=17", "--set", "bc.K=5", "--set", "M=1000",
                           "--set", f"bc.sigma.c={c}"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    with open(out / "tail_curve.csv", newline="") as fh:
        curve = [[float(v) for v in row.values()] for row in csv.DictReader(fh)]
    with open(out / "tail_summary.csv", newline="") as fh:
        summary = {row["metric"]: row["value"] for row in csv.DictReader(fh)}
    assert len(curve) == 24 and np.isfinite(curve).all()
    assert np.isfinite(float(summary["c1_hat"]))
    assert summary["dominated"] == "1"


def test_constraint_experiment_runs_at_a_huge_weight_scale(tmp_path):
    # success is scale-free: c = 1e200 gives the counts that c = 1 gives
    out = tmp_path / "ce"
    assert run(["constraint-experiment", "--out", str(out), "--seed", "0",
                "--set", "grid.n=17", "--set", "bc.K=5", "--set", "M=50",
                "--set", "N_list=1,2", "--set", "bc.sigma.c=1e200"]) == 0
    with open(out / "success_curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["N"], r["successes"], r["M"]) for r in rows] == [("1", "32", "50"),
                                                                ("2", "49", "50")]


def test_tail_check_outputs(tmp_path):
    out = tmp_path / "tail"
    rc = run(["tail-check", "--out", str(out), "--set", "M=1000",
              "--set", "bc.K=9", "--set", "bc.family=rademacher"])
    assert rc == 0
    assert (out / "tail_curve.csv").exists()
    assert (out / "tail_summary.csv").exists()


@pytest.mark.parametrize("a", ["1e-100", "1e30", "9" * 30])
def test_runge_dictionary_member_target_runs_at_every_diffusion_scale(a, tmp_path):
    out = tmp_path / "rg"
    assert run(["runge", "--out", str(out), "--set", "grid.n=17", "--set", "bc.K=5",
                "--set", "runge.disk.radius=0.3", "--set", "runge.target=dictionary_member",
                "--set", "runge.index=2", "--set", f"coeff.a={a}"]) == 0
    assert (out / "runge_curve.csv").exists()


def test_runge_curve_outputs(tmp_path):
    out = tmp_path / "runge"
    rc = run(["runge", "--out", str(out), "--set", "grid.n=33",
              "--set", "bc.K=9", "--set", "runge.target=fundamental_solution",
              "--set", "runge.lambdas=1e-2,1e-4,1e-6"])
    assert rc == 0
    lines = (out / "runge_curve.csv").read_text().splitlines()
    assert lines[0] == "lambda,eps,boundary_cost"
    assert len(lines) == 4


@pytest.mark.parametrize("pair, code", [
    ("runge.lambdas=1e308", 2),
    ("bc.sigma.c=1e-300", 2),
    ("bc.sigma.c=1e300", 0),
], ids=["huge-lambda", "tiny-sigma", "huge-sigma"])
def test_runge_never_warns_or_writes_a_non_finite_curve(pair, code, tmp_path):
    # lambda / sigma^2 overflows in the first two; 1 / sigma^2 underflows to 0
    # in the third, which leaves the normal equations unregularized
    src = os.path.dirname(os.path.dirname(randbc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "o"
    proc = subprocess.run([sys.executable, "-m", "randbc", "runge", "--out", str(out),
                           "--set", "grid.n=33", "--set", "bc.K=9", "--set", pair],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    if code == 2:
        assert proc.stderr.startswith("randbc: configuration error: regularization ")
        assert not out.exists()
    else:
        with open(out / "runge_curve.csv", newline="") as fh:
            curve = [[float(v) for v in row.values()] for row in csv.DictReader(fh)]
        assert len(curve) == 9 and np.isfinite(curve).all()
        assert all(row[2] > 0.0 for row in curve)       # boundary_cost


def _metrics(path) -> dict:
    return dict(line.split(",") for line in path.read_text().splitlines()[1:])


@pytest.mark.parametrize("mu, bound", [("0", 0.0), ("1e10", 1e-6), ("1e200", 1e-6)])
def test_qpat_error_is_finite_at_every_absorption_scale(mu, bound, tmp_path):
    # At mu = 1e10 the reconstruction's Poisson data and forcing cancel to
    # 1e-5 of their size; mu = 0 has no relative error and reports the RMS one.
    out = tmp_path / "qpat"
    assert run(["qpat", "--out", str(out), "--set", "grid.n=17",
                "--set", f"qpat.mu={mu}"]) == 0
    rows = _metrics(out / "qpat_metrics.csv")
    assert all(map(math.isfinite, (float(v) for v in rows.values())))
    assert float(rows["rel_l2_error_valid"]) <= bound


def test_relative_error_is_the_plain_formula_and_keeps_its_scale():
    rng = np.random.default_rng(5)
    ref = 1.0 + rng.random(50)
    diff = 1e-6 * rng.standard_normal(50)
    plain = float(np.sqrt(np.sum(diff ** 2))) / float(np.sqrt(np.sum(ref ** 2)))
    assert _rel_l2_error(diff, ref) == plain
    for scale in (1e-300, 1e-160, 1e160, 1e300):
        assert _rel_l2_error(diff * scale, ref * scale) == pytest.approx(plain, rel=1e-12)
    zero = np.zeros(50)
    assert _rel_l2_error(diff, zero) == float(np.sqrt(np.mean(diff ** 2)))
    assert _rel_l2_error(zero, zero) == 0.0


def test_qpat_command_round_trip(tmp_path):
    out = tmp_path / "qpat"
    rc = run(["qpat", "--out", str(out), "--set", "grid.n=33"])
    assert rc == 0
    assert (out / "mu_hat.csv").exists()
    assert (out / "qpat_metrics.csv").exists()


def test_conductivity_command_round_trip(tmp_path):
    out = tmp_path / "cond"
    rc = run(["conductivity", "--out", str(out), "--set", "grid.n=33"])
    assert rc == 0
    assert (out / "log_a_hat.csv").exists()
    assert (out / "conductivity_metrics.csv").exists()


def test_conductivity_leaves_a_component_without_gauge_unreconstructed(tmp_path, capsys):
    out = tmp_path / "cond"
    rc = run(["conductivity", "--out", str(out), "--set", "grid.n=65",
              "--set", "cond.a=exp(x+y)", "--set", "cond.bc=x; (x-0.5)*(y-0.5)",
              "--set", "cond.tau=0.05", "--set", "cond.anchor=0.3,0.3"])
    assert rc == 0
    assert capsys.readouterr().err == ""    # the split is reported in the metrics
    rows = dict(line.split(",") for line in
                (out / "conductivity_metrics.csv").read_text().splitlines()[1:])
    assert rows["components"] == "2"
    assert float(rows["reconstructed_fraction"]) < float(rows["coverage"])
    assert float(rows["rel_l2_log_error"]) <= 1e-4
    grid, log_a_hat = load_field_csv(out / "log_a_hat.csv")
    done = np.isfinite(log_a_hat)
    assert np.std(log_a_hat[done] - (grid.X + grid.Y)[done]) <= 1e-4
    # nearest nodes to (0.3, 0.3) and (0.7, 0.3) lie in different components
    assert done[19, 19] and np.isnan(log_a_hat[45, 19])


def test_malformed_field_expression_is_a_config_error(tmp_path, capsys):
    rc = run(["solve", "--out", str(tmp_path / "o"),
              "--set", "coeff.a=import os"])
    assert rc == 2
    assert "coeff.a" in capsys.readouterr().err


def test_existing_output_directory_with_files_is_refused(tmp_path, capsys):
    out = tmp_path / "busy"
    out.mkdir()
    (out / "leftover.txt").write_text("x")
    rc = run(["solve", "--out", str(out), "--set", "grid.n=17"])
    assert rc == 2


def test_benchmark_workloads_run_without_scipy(block_scipy, tmp_path):
    # every command of the benchmark's workloads, at its tiny sizes, in an
    # interpreter where importing scipy raises ImportError
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    code = f"""
import json
import os
sys.path.insert(0, {perfbench!r})
import randbc.cli
import workloads

codes = []
for name in workloads.NAMES:
    for j, argv in enumerate(workloads.commands(name, 0, "tiny")):
        out = os.path.join({str(tmp_path)!r}, f"{{name}}-{{j}}")
        codes.append((argv[0], randbc.cli.run(argv + ["--out", out])))
print(json.dumps(codes))
"""
    proc = block_scipy(code)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(codes) == 8
    assert all(rc == 0 for _, rc in codes), (codes, proc.stderr)


def test_the_benchmark_tracer_counts_every_linear_solve(tmp_path):
    # perfbench/tracer.py wraps solve_dirichlet in every randbc namespace and
    # asks it for SolveInfo; the four Poisson solves of qpat go through it too.
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    code = f"""
import json
import os
import sys
sys.path.insert(0, {perfbench!r})
import tracer as tracing
import workloads

tracer = tracing.Tracer()
tracing.install(tracer)
import randbc.cli

codes = []
for j, argv in enumerate(workloads.commands("imaging", 0, "tiny")):
    out = os.path.join({str(tmp_path)!r}, f"imaging-{{j}}")
    codes.append(randbc.cli.run(argv + ["--out", out]))
layers = tracing.layer_metrics(tracer.spans)
print(json.dumps([codes, {{k: v for k, v in layers.items() if k.startswith("solver.")}}]))
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(randbc.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    codes, layers = json.loads(proc.stdout.strip().splitlines()[-1])
    assert codes == [0, 0, 0]
    assert layers["solver.solve_dirichlet.calls"] == 11
    assert layers["solver.solve_poisson.calls"] == 4
    assert 0.0 < layers["solver.solve_dirichlet.residual_ratio_max"] <= 1.0


def test_each_shared_option_is_honored_before_the_command(tmp_path, monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("bc.K = 5\n")
    sample = ["sample", "--set", "sample.count=2"]
    cases = {
        "config": (["--config", str(cfgfile)], ("bc.K", "5")),
        "seed": (["--seed", "5"], ("seed", "5")),
        "threads": (["--threads", "3"], ("threads", "3")),
        "set": (["--set", "grid.n=17"], ("grid.n", "17")),
    }
    for name, (before, (key, value)) in cases.items():
        out = tmp_path / name
        assert run(before + sample + ["--out", str(out)]) == 0
        assert manifest(out)["config"][key] == value
    out = tmp_path / "out-before"
    assert run(["--out", str(out)] + sample) == 0
    assert (out / "samples.csv").exists()
    assert os.listdir(cwd) == []
    # a value before the command reaches the run, not just the manifest
    seeded = tmp_path / "seeded"
    assert run(["--seed", "5"] + sample + ["--out", str(seeded)]) == 0
    assert (seeded / "samples.csv").read_bytes() == (tmp_path / "seed" / "samples.csv").read_bytes()
    default = tmp_path / "default-seed"
    assert run(sample + ["--out", str(default)]) == 0
    assert (seeded / "samples.csv").read_bytes() != (default / "samples.csv").read_bytes()


def test_options_on_both_sides_of_the_command_merge(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "both"
    assert run(["--set", "grid.n=17", "--set", "bc.K=5", "--seed", "1", "--threads", "2",
                "--out", str(tmp_path / "unused"),
                "sample", "--set", "bc.K=7", "--set", "sample.count=2", "--seed", "2",
                "--out", str(out)]) == 0
    config = manifest(out)["config"]
    # pairs from both places merge; after the command wins on the same key
    assert (config["grid.n"], config["bc.K"], config["sample.count"]) == ("17", "7", "2")
    assert (config["seed"], config["threads"]) == ("2", "2")
    assert not (tmp_path / "unused").exists()


def test_manifest_records_the_workers_that_ran(tmp_path, monkeypatch):
    import randbc.experiments
    monkeypatch.setattr(randbc.experiments, "_usable_cpus", lambda: 2)
    args = ["constraint-experiment", "--threads", "8", "--set", "grid.n=17",
            "--set", "bc.K=9", "--set", "M=50", "--set", "N_list=1,2"]
    base = tmp_path / "base"
    assert run(args + ["--out", str(base)]) == 0
    doc = manifest(base)
    assert doc["workers"] == 2
    assert doc["config"]["threads"] == "8"       # what was asked for
    replay = tmp_path / "replay"
    assert run(["constraint-experiment", "--config", str(base / "manifest.json"),
                "--out", str(replay)]) == 0
    assert manifest(replay) == doc
    solo = tmp_path / "solo"
    assert run(["sample", "--out", str(solo)]) == 0
    assert "workers" not in manifest(solo)


# command -> ({named flag: the key it sets}, per-command defaults, help string)
SURFACE = {
    "solve": ({"--n": "grid.n", "--a": "coeff.a", "--q": "coeff.q",
               "--bc": "solve.bc", "--rtol": "solver.rtol"},
              {}, "solve one Dirichlet problem and dump the field"),
    "sample": ({"--family": "bc.family", "--K": "bc.K", "--count": "sample.count",
                "--c": "bc.sigma.c", "--s": "bc.sigma.s"},
               {}, "draw boundary functions and report their norms"),
    "constraint-experiment": ({"--zeta": "zeta", "--N-list": "N_list", "--M": "M",
                               "--tau": "tau", "--n": "grid.n", "--family": "bc.family"},
                              {}, "success curve of the non-vanishing event vs N"),
    "variance-check": ({"--zeta": "zeta", "--M": "M", "--K": "bc.K", "--n": "grid.n"},
                       {"M": "10000", "bc.K": "17", "grid.n": "33"},
                       "Monte-Carlo second moment against the exact series"),
    "tail-check": ({"--family": "bc.family", "--M": "M", "--K": "bc.K"},
                   {"M": "10000"}, "survival of the boundary norm vs a gaussian tail fit"),
    "runge": ({"--target": "runge.target", "--pole": "runge.pole",
               "--disk": ("runge.disk.center", "runge.disk.radius"), "--K": "bc.K",
               "--lambdas": "runge.lambdas", "--index": "runge.index", "--n": "grid.n"},
              {}, "interior approximation tradeoff curve"),
    "qpat": ({"--mu": "qpat.mu", "--bc": "qpat.bc", "--N": "N", "--tau": "qpat.tau",
              "--n": "grid.n"}, {}, "photoacoustic absorption round trip"),
    "conductivity": ({"--a": "cond.a", "--bc": "cond.bc", "--tau": "cond.tau",
                      "--anchor": "cond.anchor", "--n": "grid.n"},
                     {}, "scalar conductivity round trip"),
}


def test_command_flags_defaults_and_help_are_the_documented_surface(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    parser = _build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(SURFACE)
    shared = {"-h", "--help", "--config", "--seed", "--threads", "--out", "--set"}
    listing = parser.format_help()
    defaults = {key: default for key, (_, default) in REGISTRY.items()}
    for command, (flags, command_defaults, help_text) in SURFACE.items():
        named = {opt for action in subparsers.choices[command]._actions
                 for opt in action.option_strings} - shared
        assert named == set(flags), command
        raw = resolve_config(command, None, {}).raw
        assert {k: v for k, v in raw.items() if defaults[k] != v} == command_defaults
        assert set(raw) == set(REGISTRY)
        assert re.search(rf"^\s+{re.escape(command)}\s+{re.escape(help_text)}$",
                         listing, re.MULTILINE), command


def test_every_named_flag_spelled_out_in_full_sets_its_key():
    # Through the top-level parser, which sees the whole command line: it must
    # not read sample's --s as an abbreviation of --seed or --set.
    parser = _build_parser()
    for command, (_, _, flags, _) in COMMANDS.items():
        for flag, key in flags.items():
            if isinstance(key, tuple):
                value, expected = "0.4,0.6,0.1", {key[0]: "0.4,0.6", key[1]: "0.1"}
            else:
                value, expected = "7", {key: "7"}
            args = parser.parse_args([command, flag, value])
            assert _collect_overrides(args) == (expected, ".", None), (command, flag)


@pytest.mark.parametrize("argv", [
    ["sample", "--s", "2"],
    ["sample", "--s=2"],
    ["--seed", "3", "sample", "--s", "2"],
], ids=["separate", "equals", "after-seed"])
def test_sample_smoothness_flag_reaches_the_run(argv, tmp_path):
    out = tmp_path / "out"
    assert run(argv + ["--set", "sample.count=2", "--out", str(out)]) == 0
    assert manifest(out)["config"]["bc.sigma.s"] == "2"
