"""Command-line front end.

    randbc [--config FILE] [--seed S] [--threads T] [--out DIR] [--set k=v]...
           COMMAND [flags]

Commands: solve, sample, constraint-experiment, variance-check, tail-check,
runge, qpat, conductivity.  Configuration is a flat key = value registry:
defaults, then per-command defaults, then the config file, then --set pairs,
then named flags.  A config file is either `key = value` lines (# comments)
or a previously written manifest.json, which replays the exact resolved
configuration of the run that produced it.

Every run writes its CSV artifacts plus manifest.json (resolved config and
sha256 of each output) into --out.  Exit status: 0 success, 1 runtime/domain
failure, 2 configuration error.  RANDBC_THREADS sets the worker count when
--threads/threads is 0 (auto); thread count never changes emitted numbers.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

from .boundary import FAMILIES, RandomBoundaryModel, sample_coeffs
from .constraints import ConstraintMap, extract_cover, save_cover_csv
from .errors import ConfigError, DomainError
from .experiments import (TrialConfig, success_curve, tail_check,
                          trial_fields, variance_identity_check)
from .expressions import evaluate_field_expression
from .grid import build_grid, disk_mask, rect_mask
from .inverse import (conductivity_forward, conductivity_reconstruct,
                      qpat_forward, qpat_reconstruct_multi)
from .runge import TARGET_KINDS, build_dictionary, make_target, tradeoff_curve
from .solver import CoefficientField, assemble, save_field_csv, solve_dirichlet
from .streams import derive_rng

COMMANDS = ("solve", "sample", "constraint-experiment", "variance-check",
            "tail-check", "runge", "qpat", "conductivity")

ZETA_KINDS = ("nodal", "critical", "jacobian", "augmented")


def _parse_int(s: str) -> int:
    return int(s.strip())


def _parse_float(s: str) -> float:
    v = float(s.strip())
    if not math.isfinite(v):
        raise ValueError("expected a finite number")
    return v


def _parse_point(s: str):
    parts = [p for p in s.split(",") if p.strip()]
    if len(parts) != 2:
        raise ValueError("expected two comma-separated numbers")
    return (_parse_float(parts[0]), _parse_float(parts[1]))


def _parse_floatlist(s: str):
    parts = [p for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected at least one number")
    return [_parse_float(p) for p in parts]


def _parse_intlist(s: str):
    parts = [p for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected at least one integer")
    return [int(p) for p in parts]


def _parse_str(s: str) -> str:
    return s.strip()


def _parse_tau(s: str):
    v = s.strip()
    return v if v == "auto" else _parse_float(v)


def _parse_qpat_bc(s: str) -> str:
    v = s.strip()
    if v.startswith("const:"):
        _parse_float(v.split(":", 1)[1])
    return v


def _parse_cond_bc(s: str):
    """None for the default traces x1, x2; else the two boundary expressions."""
    v = s.strip()
    if v == "x1,x2":
        return None
    if ";" not in v:
        raise ValueError("expected 'x1,x2' or two ';'-separated expressions")
    return tuple(e.strip() for e in v.split(";", 1))


def _parse_choice(options):
    def parse(s: str) -> str:
        v = s.strip()
        if v not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return v
    return parse


# key -> (parser, default string)
REGISTRY = {
    "seed": (_parse_int, "0"),
    "threads": (_parse_int, "0"),
    "grid.n": (_parse_int, "65"),
    "omega_prime.lo": (_parse_point, "0.25,0.25"),
    "omega_prime.hi": (_parse_point, "0.75,0.75"),
    "coeff.a": (_parse_str, "1"),
    "coeff.q": (_parse_str, "0"),
    "solver.rtol": (_parse_float, "1e-10"),
    "solver.maxiter": (_parse_int, "0"),
    "bc.family": (_parse_choice(FAMILIES), "gaussian"),
    "bc.K": (_parse_int, "33"),
    "bc.sigma.c": (_parse_float, "1"),
    "bc.sigma.s": (_parse_float, "1.5"),
    "zeta": (_parse_choice(ZETA_KINDS), "critical"),
    "zeta.direction": (_parse_point, "1,0"),
    "N": (_parse_int, "1"),
    "N_list": (_parse_intlist, "1,2,4,8,16"),
    "M": (_parse_int, "200"),
    "tau": (_parse_tau, "auto"),
    "solve.bc": (_parse_str, "x*x - y*y"),
    "sample.count": (_parse_int, "8"),
    "runge.target": (_parse_choice(TARGET_KINDS), "fundamental_solution"),
    "runge.pole": (_parse_point, "0.9,0.9"),
    "runge.disk.center": (_parse_point, "0.5,0.5"),
    "runge.disk.radius": (_parse_float, "0.2"),
    "runge.lambdas": (_parse_floatlist,
                      "1e-2,1e-3,1e-4,1e-5,1e-6,1e-7,1e-8,1e-9,1e-10"),
    "runge.index": (_parse_int, "5"),
    "runge.degree": (_parse_int, "2"),
    "runge.part": (_parse_choice(("re", "im")), "re"),
    "qpat.mu": (_parse_str, "1"),
    "qpat.bc": (_parse_qpat_bc, "const:1"),
    "qpat.tau": (_parse_float, "1e-8"),
    "cond.a": (_parse_str, "exp(x1)"),
    "cond.bc": (_parse_cond_bc, "x1,x2"),
    "cond.tau": (_parse_float, "1e-6"),
    "cond.anchor": (_parse_point, "0.5,0.5"),
}

COMMAND_DEFAULTS = {
    "tail-check": {"M": "10000"},
    "variance-check": {"M": "10000", "bc.K": "17", "grid.n": "33"},
}


class RunConfig:
    """Resolved flat configuration: raw strings plus typed access."""

    def __init__(self, command: str, raw: dict):
        self.command = command
        self.raw = raw

    def __getitem__(self, key: str):
        parser, _ = REGISTRY[key]
        try:
            return parser(self.raw[key])
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {self.raw[key]!r} ({exc})") from exc


def _read_config_file(path: str):
    """Returns (command_or_None, {key: raw string}) from text or manifest."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if path.endswith(".json"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "config" not in doc:
            raise ConfigError(f"{path} is not a run manifest (no 'config' map)")
        cfg = {str(k): str(v) for k, v in doc["config"].items()}
        return doc.get("command"), cfg
    pairs = {}
    command = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key == "command":
            command = value
            continue
        pairs[key] = value
    return command, pairs


def _check_keys(pairs: dict, source: str) -> None:
    unknown = [k for k in pairs if k not in REGISTRY]
    if unknown:
        raise ConfigError(
            f"unknown config key(s) {unknown} in {source}; valid keys: "
            + ", ".join(sorted(REGISTRY)))


def resolve_config(command, file_path, overrides: dict) -> RunConfig:
    """defaults -> per-command defaults -> file -> overrides (CLI)."""
    file_command, file_pairs = (None, {})
    if file_path:
        file_command, file_pairs = _read_config_file(file_path)
    if command is None:
        command = file_command
    if command is None:
        raise ConfigError("no command given (either the CLI or the config file "
                          "must name one)")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; valid: {', '.join(COMMANDS)}")
    _check_keys(file_pairs, file_path or "<config>")
    _check_keys(overrides, "command line")
    raw = {k: default for k, (_, default) in REGISTRY.items()}
    raw.update(COMMAND_DEFAULTS.get(command, {}))
    raw.update(file_pairs)
    raw.update(overrides)
    cfg = RunConfig(command, raw)
    for key in raw:
        cfg[key]  # parse everything now so bad values fail before any work
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value file or a manifest.json to replay")
    common.add_argument("--seed", help="master seed (nonnegative integer)")
    common.add_argument("--threads", help="worker threads; 0 = RANDBC_THREADS or 1")
    common.add_argument("--out", default=None, help="output directory (default .)")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override any config key")

    parser = argparse.ArgumentParser(
        prog="randbc",
        parents=[common],
        description="Elliptic PDE lab: random boundary data, constraint "
                    "non-vanishing, interior approximation, hybrid imaging.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve", parents=[common],
                       help="solve one Dirichlet problem and dump the field")
    p.add_argument("--n", dest="grid.n")
    p.add_argument("--a", dest="coeff.a")
    p.add_argument("--q", dest="coeff.q")
    p.add_argument("--bc", dest="solve.bc")
    p.add_argument("--rtol", dest="solver.rtol")

    p = sub.add_parser("sample", parents=[common],
                       help="draw boundary functions and report their norms")
    p.add_argument("--family", dest="bc.family")
    p.add_argument("--K", dest="bc.K")
    p.add_argument("--count", dest="sample.count")
    p.add_argument("--c", dest="bc.sigma.c")
    p.add_argument("--s", dest="bc.sigma.s")

    p = sub.add_parser("constraint-experiment", parents=[common],
                       help="success curve of the non-vanishing event vs N")
    p.add_argument("--zeta", dest="zeta")
    p.add_argument("--N-list", dest="N_list")
    p.add_argument("--M", dest="M")
    p.add_argument("--tau", dest="tau")
    p.add_argument("--n", dest="grid.n")
    p.add_argument("--family", dest="bc.family")

    p = sub.add_parser("variance-check", parents=[common],
                       help="Monte-Carlo second moment against the exact series")
    p.add_argument("--zeta", dest="zeta")
    p.add_argument("--M", dest="M")
    p.add_argument("--K", dest="bc.K")
    p.add_argument("--n", dest="grid.n")

    p = sub.add_parser("tail-check", parents=[common],
                       help="survival of the boundary norm vs a gaussian tail fit")
    p.add_argument("--family", dest="bc.family")
    p.add_argument("--M", dest="M")
    p.add_argument("--K", dest="bc.K")

    p = sub.add_parser("runge", parents=[common],
                       help="interior approximation tradeoff curve")
    p.add_argument("--target", dest="runge.target")
    p.add_argument("--pole", dest="runge.pole")
    p.add_argument("--disk", dest="_runge_disk", metavar="CX,CY,R")
    p.add_argument("--K", dest="bc.K")
    p.add_argument("--lambdas", dest="runge.lambdas")
    p.add_argument("--index", dest="runge.index")
    p.add_argument("--n", dest="grid.n")

    p = sub.add_parser("qpat", parents=[common],
                       help="photoacoustic absorption round trip")
    p.add_argument("--mu", dest="qpat.mu")
    p.add_argument("--bc", dest="qpat.bc")
    p.add_argument("--N", dest="N")
    p.add_argument("--tau", dest="qpat.tau")
    p.add_argument("--n", dest="grid.n")

    p = sub.add_parser("conductivity", parents=[common],
                       help="scalar conductivity round trip")
    p.add_argument("--a", dest="cond.a")
    p.add_argument("--bc", dest="cond.bc")
    p.add_argument("--tau", dest="cond.tau")
    p.add_argument("--anchor", dest="cond.anchor")
    p.add_argument("--n", dest="grid.n")
    return parser


_GLOBAL_DESTS = {"config", "seed", "threads", "out", "set", "command"}


def _collect_overrides(args: argparse.Namespace) -> tuple[dict, str, str | None]:
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    for dest, value in vars(args).items():
        if dest in _GLOBAL_DESTS or value is None:
            continue
        if dest == "_runge_disk":
            parts = [p for p in value.split(",") if p.strip()]
            if len(parts) != 3:
                raise ConfigError(f"--disk expects CX,CY,R, got {value!r}")
            overrides["runge.disk.center"] = f"{parts[0]},{parts[1]}"
            overrides["runge.disk.radius"] = parts[2]
            continue
        overrides[dest] = value
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    out_dir = args.out if args.out is not None else "."
    return overrides, out_dir, args.config


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


class OutputWriter:
    """Creates artifacts under the output directory, removing them on failure."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.written: list[str] = []
        try:
            os.makedirs(out_dir, exist_ok=True)
            if os.listdir(out_dir):
                raise ConfigError(
                    f"output directory {out_dir!r} is not empty; refusing to mix runs")
            probe = os.path.join(out_dir, ".write_probe")
            with open(probe, "w") as fh:
                fh.write("")
            os.remove(probe)
        except OSError as exc:
            raise ConfigError(f"output directory {out_dir!r} is not writable: {exc}") from exc

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def csv(self, name: str, header, rows) -> None:
        with open(self.path(name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
        self.written.append(name)

    def field(self, name: str, grid, field) -> None:
        save_field_csv(grid, field, self.path(name))
        self.written.append(name)

    def cover(self, name: str, grid, cfields, labeling) -> None:
        save_cover_csv(grid, cfields, labeling, self.path(name))
        self.written.append(name)

    def cleanup(self) -> None:
        for name in self.written:
            try:
                os.remove(self.path(name))
            except OSError:
                pass
        try:
            os.rmdir(self.out_dir)
        except OSError:
            pass

    def manifest(self, cfg: RunConfig) -> None:
        outputs = {}
        for name in self.written:
            digest = hashlib.sha256()
            with open(self.path(name), "rb") as fh:
                digest.update(fh.read())
            outputs[name] = "sha256:" + digest.hexdigest()
        doc = {"command": cfg.command,
               "config": {k: cfg.raw[k] for k in sorted(cfg.raw)},
               "outputs": outputs}
        with open(self.path("manifest.json"), "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _threads(cfg: RunConfig) -> int:
    t = cfg["threads"]
    if t < 0:
        raise ConfigError(f"threads must be >= 0, got {t}")
    if t == 0:
        env = os.environ.get("RANDBC_THREADS", "").strip()
        if env:
            try:
                t = int(env)
            except ValueError as exc:
                raise ConfigError(f"RANDBC_THREADS={env!r} is not an integer") from exc
            if t < 1:
                raise ConfigError(f"RANDBC_THREADS must be >= 1, got {t}")
        else:
            t = 1
    return t


def _grid(cfg: RunConfig):
    return build_grid(cfg["grid.n"])


def _window(cfg: RunConfig, grid):
    return rect_mask(grid, cfg["omega_prime.lo"], cfg["omega_prime.hi"])


def _field_expr(expr: str, key: str, X, Y) -> np.ndarray:
    try:
        return evaluate_field_expression(expr, X, Y)
    except ConfigError as exc:
        raise ConfigError(f"bad expression for {key}: {exc}") from exc


def _coeff(cfg: RunConfig, grid) -> CoefficientField:
    a = _field_expr(cfg["coeff.a"], "coeff.a", grid.X, grid.Y)
    q = _field_expr(cfg["coeff.q"], "coeff.q", grid.X, grid.Y)
    return CoefficientField.isotropic(grid, a=a, q=q)


def _model(cfg: RunConfig) -> RandomBoundaryModel:
    return RandomBoundaryModel.power_law(K=cfg["bc.K"], c=cfg["bc.sigma.c"],
                                         s=cfg["bc.sigma.s"], family=cfg["bc.family"])


def _solver_opts(cfg: RunConfig):
    rtol = cfg["solver.rtol"]
    maxiter = cfg["solver.maxiter"]
    return rtol, (None if maxiter == 0 else maxiter)


def _boundary_expr(cfg_value: str, grid, key: str) -> np.ndarray:
    bx = grid.xs[grid.boundary_ix]
    by = grid.xs[grid.boundary_iy]
    return _field_expr(cfg_value, key, bx, by)


def _trial_config(cfg: RunConfig, grid, N: int) -> TrialConfig:
    cmap = ConstraintMap(cfg["zeta"], direction=cfg["zeta.direction"])
    return TrialConfig(grid=grid, coeff=_coeff(cfg, grid), model=_model(cfg),
                       cmap=cmap, N=N, mask=_window(cfg, grid))


def cmd_solve(cfg: RunConfig, out: OutputWriter) -> None:
    grid = _grid(cfg)
    coeff = _coeff(cfg, grid)
    g = _boundary_expr(cfg["solve.bc"], grid, "solve.bc")
    rtol, maxiter = _solver_opts(cfg)
    op = assemble(grid, coeff)
    u = solve_dirichlet(op, g, rtol=rtol, maxiter=maxiter)
    out.field("solution.csv", grid, u)


def cmd_sample(cfg: RunConfig, out: OutputWriter) -> None:
    from .boundary import BoundaryFunction, sigma_norm, surrogate_h12_norm
    model = _model(cfg)
    count = cfg["sample.count"]
    if count < 1:
        raise ConfigError(f"sample.count must be >= 1, got {count}")
    coeffs = sample_coeffs(model, derive_rng(cfg["seed"], 0), count)
    rows = [(i, k + 1, coeffs[i, k])
            for i in range(count) for k in range(model.K)]
    out.csv("samples.csv", ["sample", "k", "coeff"], rows)
    norm_rows = []
    for i in range(count):
        bf = BoundaryFunction(coeffs=coeffs[i])
        norm_rows.append((i, sigma_norm(bf, model), surrogate_h12_norm(bf)))
    out.csv("sample_norms.csv", ["sample", "sigma_norm", "h12_surrogate"], norm_rows)


def cmd_constraint_experiment(cfg: RunConfig, out: OutputWriter) -> None:
    grid = _grid(cfg)
    N_list = cfg["N_list"]
    trial = _trial_config(cfg, grid, max(N_list))
    result = success_curve(trial, N_list, cfg["M"], tau=cfg["tau"],
                           master_seed=cfg["seed"], threads=_threads(cfg))
    rows = [(r.N, r.successes, r.M, r.rate, r.lo95, r.hi95, r.tau)
            for r in result.rows]
    out.csv("success_curve.csv", ["N", "successes", "M", "rate", "lo95", "hi95", "tau"],
            rows)
    out.csv("cover_summary.csv", ["metric", "value"],
            [("tau", result.tau),
             ("complete_at_max_N", result.cover_complete_count),
             ("M", result.M)])
    if result.tau > 0.0:
        # One representative draw at the largest N, labeled at the resolved
        # threshold, so the cover geometry can be plotted from the artifacts.
        fields = trial_fields(trial, cfg["seed"])
        out.cover("cover_field.csv", grid, fields, extract_cover(fields, result.tau))


def cmd_variance_check(cfg: RunConfig, out: OutputWriter) -> None:
    grid = _grid(cfg)
    trial = _trial_config(cfg, grid, 1)
    rows = variance_identity_check(trial, M=cfg["M"], master_seed=cfg["seed"])
    out.csv("variance_check.csv", ["x", "y", "mc", "series", "z"],
            [(r.x, r.y, r.mc, r.series, r.z) for r in rows])


def cmd_tail_check(cfg: RunConfig, out: OutputWriter) -> None:
    report = tail_check(_model(cfg), cfg["M"], master_seed=cfg["seed"])
    out.csv("tail_curve.csv", ["t", "survival", "bound"],
            [(r.t, r.survival, r.bound) for r in report.rows])
    out.csv("tail_summary.csv", ["metric", "value"],
            [("c1_hat", report.c1_hat), ("dominated", report.dominated),
             ("M", report.M), ("family", report.family)])


def cmd_runge(cfg: RunConfig, out: OutputWriter) -> None:
    grid = _grid(cfg)
    coeff = _coeff(cfg, grid)
    model = _model(cfg)
    dictionary = build_dictionary(grid, coeff, model)
    disk = disk_mask(grid, cfg["runge.disk.center"], cfg["runge.disk.radius"])
    kind = cfg["runge.target"]
    target = make_target(kind, grid, disk, dictionary=dictionary,
                         index=cfg["runge.index"], pole=cfg["runge.pole"],
                         degree=cfg["runge.degree"], part=cfg["runge.part"])
    curve = tradeoff_curve(target, dictionary, cfg["runge.lambdas"])
    out.csv("runge_curve.csv", ["lambda", "eps", "boundary_cost"],
            [(r.lam, r.eps_achieved, r.boundary_cost) for r in curve])


def cmd_qpat(cfg: RunConfig, out: OutputWriter) -> None:
    grid = _grid(cfg)
    window = _window(cfg, grid)
    mu = _field_expr(cfg["qpat.mu"], "qpat.mu", grid.X, grid.Y)
    rtol, maxiter = _solver_opts(cfg)
    N = cfg["N"]
    if N < 1:
        raise ConfigError(f"N must be >= 1, got {N}")
    bc_spec = cfg["qpat.bc"]
    if bc_spec.startswith("const:"):
        value = float(bc_spec.split(":", 1)[1])
        bcs = [np.full(grid.boundary_count, value) for _ in range(N)]
    elif bc_spec == "random":
        from .boundary import evaluate as eval_bf
        from .boundary import BoundaryFunction
        model = _model(cfg)
        coeffs = sample_coeffs(model, derive_rng(cfg["seed"], 0), N)
        bcs = [eval_bf(BoundaryFunction(coeffs=coeffs[i]), grid) for i in range(N)]
    else:
        bcs = [_boundary_expr(bc_spec, grid, "qpat.bc") for _ in range(N)]
    datasets = qpat_forward(grid, mu, bcs, rtol=rtol, maxiter=maxiter)
    tau = cfg["qpat.tau"]
    recon = qpat_reconstruct_multi(datasets, tau, window=window, rtol=rtol,
                                   maxiter=maxiter)
    valid, mu_hat = recon.mask_valid, recon.mu_hat
    err = mu_hat[valid] - mu[valid]
    denom = float(np.sqrt(np.sum(mu[valid] ** 2)))
    rel = float(np.sqrt(np.sum(err ** 2))) / denom if denom > 0 else float("nan")
    out.field("mu_hat.csv", grid, mu_hat)
    out.csv("qpat_metrics.csv", ["metric", "value"],
            [("rel_l2_error_valid", rel),
             ("valid_fraction_window", float(valid[window.indices].mean())),
             ("window_complete", recon.complete),
             ("N", N), ("tau", tau)])


def cmd_conductivity(cfg: RunConfig, out: OutputWriter) -> None:
    grid = _grid(cfg)
    window = _window(cfg, grid)
    a = _field_expr(cfg["cond.a"], "cond.a", grid.X, grid.Y)
    rtol, maxiter = _solver_opts(cfg)
    exprs = cfg["cond.bc"]
    bcs = None if exprs is None else tuple(_boundary_expr(e, grid, "cond.bc")
                                           for e in exprs)
    data = conductivity_forward(grid, a, bcs=bcs, rtol=rtol, maxiter=maxiter)
    recon = conductivity_reconstruct(data, cfg["cond.tau"], anchor=cfg["cond.anchor"],
                                     window=window, rtol=rtol, maxiter=maxiter)
    log_true = np.log(a)
    done = np.isfinite(recon.log_a_hat)
    diff = recon.log_a_hat[done] - log_true[done]
    denom = float(np.sqrt(np.sum(log_true[done] ** 2)))
    rel = (float(np.sqrt(np.sum(diff ** 2))) / denom if denom > 0
           else float(np.sqrt(np.mean(diff ** 2))))
    out.field("log_a_hat.csv", grid, recon.log_a_hat)
    out.csv("conductivity_metrics.csv", ["metric", "value"],
            [("coverage", recon.coverage), ("components", recon.components),
             ("reconstructed_fraction", recon.reconstructed_fraction),
             ("rel_l2_log_error", rel), ("tau", cfg["cond.tau"])])


DISPATCH = {
    "solve": cmd_solve,
    "sample": cmd_sample,
    "constraint-experiment": cmd_constraint_experiment,
    "variance-check": cmd_variance_check,
    "tail-check": cmd_tail_check,
    "runge": cmd_runge,
    "qpat": cmd_qpat,
    "conductivity": cmd_conductivity,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        overrides, out_dir, config_path = _collect_overrides(args)
        cfg = resolve_config(args.command, config_path, overrides)
        out = OutputWriter(out_dir)
        try:
            DISPATCH[cfg.command](cfg, out)
        except BaseException:
            out.cleanup()
            raise
        out.manifest(cfg)
        return 0
    except ConfigError as exc:
        print(f"randbc: configuration error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"randbc: run failed: {exc}", file=sys.stderr)
        return 1

def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
