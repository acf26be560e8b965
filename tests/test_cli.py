"""Command line interface: config resolution, outputs, manifests, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import randbc
from randbc.cli import REGISTRY, resolve_config, run
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
    ("solver.maxiter", "solve", "many"),
    ("bc.family", "sample", "cauchy"),
    ("bc.K", "sample", "4.5"),
    ("bc.sigma.c", "sample", "nan"),
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


def test_solve_writes_solution_and_manifest(tmp_path):
    out = tmp_path / "solve"
    rc = run(["solve", "--out", str(out), "--set", "grid.n=17", "--seed", "3"])
    assert rc == 0
    m = manifest(out)
    assert m["command"] == "solve"
    assert m["config"]["grid.n"] == "17"
    assert m["outputs"]["solution.csv"] == "sha256:" + sha256(out / "solution.csv")


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


def test_experiment_rerun_from_manifest_is_byte_identical(tmp_path):
    base = tmp_path / "exp"
    args = ["constraint-experiment", "--set", "grid.n=17", "--set", "bc.K=9",
            "--set", "N_list=1,2", "--set", "M=50", "--seed", "6"]
    assert run(args + ["--out", str(base)]) == 0
    rerun = tmp_path / "rerun"
    assert run(["constraint-experiment", "--config", str(base / "manifest.json"),
                "--out", str(rerun), "--threads", "2"]) == 0
    for name in ("success_curve.csv", "cover_summary.csv", "cover_field.csv"):
        assert (base / name).read_bytes() == (rerun / name).read_bytes()
    assert manifest(base)["outputs"] == manifest(rerun)["outputs"]
    lines = (base / "cover_field.csv").read_text().splitlines()
    assert lines[0] == "x,y,value,label"
    assert len(lines) > 1
    labels = {int(row.rsplit(",", 1)[1]) for row in lines[1:]}
    assert labels <= {1, 2}


def test_worker_env_fallback_matches_serial_run(tmp_path, monkeypatch):
    serial = tmp_path / "serial"
    args = ["constraint-experiment", "--set", "grid.n=17", "--set", "bc.K=9",
            "--set", "N_list=1,2", "--set", "M=50", "--seed", "6"]
    assert run(args + ["--out", str(serial), "--threads", "1"]) == 0
    monkeypatch.setenv("RANDBC_THREADS", "3")
    enviro = tmp_path / "env"
    assert run(args + ["--out", str(enviro), "--threads", "0"]) == 0
    assert manifest(serial)["outputs"] == manifest(enviro)["outputs"]


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


def test_tail_check_outputs(tmp_path):
    out = tmp_path / "tail"
    rc = run(["tail-check", "--out", str(out), "--set", "M=1000",
              "--set", "bc.K=9", "--set", "bc.family=rademacher"])
    assert rc == 0
    assert (out / "tail_curve.csv").exists()
    assert (out / "tail_summary.csv").exists()


def test_runge_curve_outputs(tmp_path):
    out = tmp_path / "runge"
    rc = run(["runge", "--out", str(out), "--set", "grid.n=33",
              "--set", "bc.K=9", "--set", "runge.target=fundamental_solution",
              "--set", "runge.lambdas=1e-2,1e-4,1e-6"])
    assert rc == 0
    lines = (out / "runge_curve.csv").read_text().splitlines()
    assert lines[0] == "lambda,eps,boundary_cost"
    assert len(lines) == 4


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


def test_conductivity_leaves_a_component_without_gauge_unreconstructed(tmp_path):
    out = tmp_path / "cond"
    with pytest.warns(RuntimeWarning) as caught:
        rc = run(["conductivity", "--out", str(out), "--set", "grid.n=65",
                  "--set", "cond.a=exp(x+y)", "--set", "cond.bc=x; (x-0.5)*(y-0.5)",
                  "--set", "cond.tau=0.05", "--set", "cond.anchor=0.3,0.3"])
    assert rc == 0
    assert any("splits into 2 components" in str(w.message) for w in caught)
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
