"""Command-line front end.

    randbc [--config FILE] [--seed S] [--threads T] [--out DIR] [--set k=v]...
           COMMAND [flags]

COMMANDS, the table after the command handlers, is the one list of commands:
each row gives the handler, the help line, the named flags with the key each
one sets, and the per-command defaults; the parser, the per-command defaults
and the dispatch are all read from it.  The shared options may come before
COMMAND, after it, or both: a value given after COMMAND wins, and --set pairs
from both places are merged, those after COMMAND winning on the same key.
Configuration is a flat key = value registry (REGISTRY), whose parsers also
hold each key's range; resolve_config parses every key once, before any work.
Precedence: defaults, then per-command defaults, then the config file, then
--set pairs, then named flags.  A config file is either `key = value` lines
(# comments) or a previously written manifest.json, which replays the exact
resolved configuration of the run that produced it.

Every run writes its CSV artifacts plus manifest.json (resolved config,
sha256 of each output and, for constraint-experiment, the number of workers
that ran) into --out.  The digests are streamed from each written file, in
fixed-size chunks, after the run.  Exit status: 0 success, 1 runtime, domain
or write failure or exhausted memory, 2 configuration error.  --threads/threads
is the worker count, 0 and 1 both meaning one worker; at most one worker runs
per CPU the process may use, and thread count never changes emitted numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys

import numpy as np

from .boundary import (FAMILIES, RandomBoundaryModel, sample_coeffs, sigma_norm,
                       surrogate_h12_norm)
from .constraints import KIND_ARITY, ConstraintMap, extract_cover, save_cover_csv
from .errors import ConfigError, DomainError
from .experiments import (TrialConfig, success_curve, tail_check,
                          trial_fields, variance_identity_check)
from .expressions import evaluate_field_expression
from .grid import build_grid, disk_mask, rect_mask
from .inverse import (conductivity_forward, conductivity_reconstruct,
                      qpat_forward, qpat_reconstruct_multi)
from .runge import TARGET_KINDS, build_dictionary, make_target, tradeoff_curve
from .solver import (CoefficientField, OnDemand, assemble, root_sum_squares,
                     save_field_csv, solve_dirichlet)
from .streams import derive_rng


def _number(cast, lo=None, hi=None):
    """Parser of one finite number of type cast, within [lo, hi] where given."""
    def parse(s: str):
        v = cast(s.strip())
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError("expected a finite number")
        if lo is not None and v < lo:
            raise ValueError(f"must be >= {lo}")
        if hi is not None and v > hi:
            raise ValueError(f"must be <= {hi}")
        return v
    return parse


def _items(parse_one, count=None):
    """Parser of a comma-separated tuple: exactly count items, or at least one."""
    def parse(s: str):
        parts = [p for p in s.split(",") if p.strip()]
        if count is not None and len(parts) != count:
            raise ValueError(f"expected {count} comma-separated numbers")
        if not parts:
            raise ValueError("expected at least one number")
        return tuple(parse_one(p) for p in parts)
    return parse


_float = _number(float)
_point = _items(_float, count=2)
_draws = _number(int, 1, 1024)      # N and each N_list entry


def _parse_str(s: str) -> str:
    return s.strip()


def _parse_tau(s: str):
    v = s.strip()
    return v if v == "auto" else _float(v)


def _parse_qpat_bc(s: str) -> str:
    v = s.strip()
    if v.startswith("const:"):
        _float(v.split(":", 1)[1])
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


# key -> (parser, default string).  The upper bounds on sizes turn values
# that no machine can run into configuration errors before any allocation;
# the one on bc.sigma.c keeps every sampled coefficient finite.
REGISTRY = {
    "seed": (_number(int), "0"),
    "threads": (_number(int, 0), "0"),
    "grid.n": (_number(int, hi=4097), "65"),
    "omega_prime.lo": (_point, "0.25,0.25"),
    "omega_prime.hi": (_point, "0.75,0.75"),
    "coeff.a": (_parse_str, "1"),
    "coeff.q": (_parse_str, "0"),
    # the open interval (0, 1)
    "solver.rtol": (_number(float, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)),
                    "1e-10"),
    "solver.maxiter": (_number(int, 0), "0"),
    "bc.family": (_parse_choice(FAMILIES), "gaussian"),
    "bc.K": (_number(int, hi=1025), "33"),
    "bc.sigma.c": (_number(float, hi=1e300), "1"),
    "bc.sigma.s": (_float, "1.5"),
    "zeta": (_parse_choice(KIND_ARITY), "critical"),
    "zeta.direction": (_point, "1,0"),
    "N": (_draws, "1"),
    "N_list": (_items(_draws), "1,2,4,8,16"),
    "M": (_number(int, hi=10**7), "200"),
    "tau": (_parse_tau, "auto"),
    "solve.bc": (_parse_str, "x*x - y*y"),
    "sample.count": (_number(int, 1, 10**6), "8"),
    "runge.target": (_parse_choice(TARGET_KINDS), "fundamental_solution"),
    "runge.pole": (_point, "0.9,0.9"),
    "runge.disk.center": (_point, "0.5,0.5"),
    "runge.disk.radius": (_float, "0.2"),
    "runge.lambdas": (_items(_float), "1e-2,1e-3,1e-4,1e-5,1e-6,1e-7,1e-8,1e-9,1e-10"),
    "runge.index": (_number(int), "5"),
    "runge.degree": (_number(int), "2"),
    "runge.part": (_parse_choice(("re", "im")), "re"),
    "qpat.mu": (_parse_str, "1"),
    "qpat.bc": (_parse_qpat_bc, "const:1"),
    "qpat.tau": (_float, "1e-8"),
    "cond.a": (_parse_str, "exp(x1)"),
    "cond.bc": (_parse_cond_bc, "x1,x2"),
    "cond.tau": (_float, "1e-6"),
    "cond.anchor": (_point, "0.5,0.5"),
}


class RunConfig:
    """Resolved flat configuration: raw strings and their values, parsed once."""

    def __init__(self, command: str, raw: dict):
        self.command = command
        self.raw = raw
        self._values = {}
        for key, text in raw.items():
            try:
                self._values[key] = REGISTRY[key][0](text)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key}: {text!r} ({exc})") from exc

    def __getitem__(self, key: str):
        return self._values[key]


def _read_config_file(path: str):
    """Returns (command_or_None, {key: raw string}) from text or manifest."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if path.endswith(".json"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
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
    raw.update(COMMANDS[command][3])
    raw.update(file_pairs)
    raw.update(overrides)
    return RunConfig(command, raw)


def _shared_options(after_command: bool) -> argparse.ArgumentParser:
    """The options every position accepts.  After COMMAND they default to
    SUPPRESS, since argparse copies a subcommand's values over those parsed
    before it, and collect --set pairs under their own dest."""
    default = argparse.SUPPRESS if after_command else None
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=default,
                        help="key = value file or a manifest.json to replay")
    common.add_argument("--seed", default=default, help="master seed (nonnegative integer)")
    common.add_argument("--threads", default=default,
                        help="worker threads (0 or 1: one worker)")
    common.add_argument("--out", default=default, help="output directory (default .)")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        dest="set_after" if after_command else "set",
                        default=default if after_command else [],
                        help="override any config key")
    return common


def _build_parser() -> argparse.ArgumentParser:
    common = _shared_options(after_command=True)
    parser = argparse.ArgumentParser(   # no abbreviations: it reads the whole line
        prog="randbc", allow_abbrev=False,
        parents=[_shared_options(after_command=False)],
        description="Elliptic PDE lab: random boundary data, constraint "
                    "non-vanishing, interior approximation, hybrid imaging.")
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, key in flags.items():
            p.add_argument(flag, dest=flag,
                           metavar=key.upper() if isinstance(key, str) else "CX,CY,R")
    return parser


def _collect_overrides(args: argparse.Namespace) -> tuple[dict, str, str | None]:
    overrides = {}
    for item in args.set + getattr(args, "set_after", []):
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    flags = COMMANDS[args.command][2] if args.command else {}
    for flag, key in flags.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if isinstance(key, str):
            overrides[key] = value
            continue
        parts = [p for p in value.split(",") if p.strip()]
        if len(parts) != 3:
            raise ConfigError(f"{flag} expects CX,CY,R, got {value!r}")
        overrides[key[0]] = f"{parts[0]},{parts[1]}"
        overrides[key[1]] = parts[2]
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


_DIGEST_CHUNK = 1 << 16     # bytes of an output read at once to digest it
_CSV_BLOCK = 1 << 12        # rows of a table formatted and written at once


class OutputWriter:
    """Creates artifacts under the output directory, removing them on failure."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.written: list[str] = []
        self.workers: int | None = None     # recorded in the manifest if set
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
        """The path of a new output, recorded before it is written, so that
        cleanup also removes one written in part (the manifest too)."""
        self.written.append(name)
        return os.path.join(self.out_dir, name)

    def csv(self, name: str, header, rows) -> None:
        # The bytes csv.writer would emit: every field is a number or a fixed
        # identifier, so none needs quoting; "\r\n" line ends.  rows may be
        # any iterable; it is read _CSV_BLOCK rows at a time.
        lines = (",".join([_fmt(v) for v in row]) + "\r\n"
                 for row in itertools.chain([header], rows))
        with open(self.path(name), "w", newline="") as fh:
            while block := list(itertools.islice(lines, _CSV_BLOCK)):
                fh.write("".join(block))

    def field(self, name: str, grid, field) -> None:
        save_field_csv(grid, field, self.path(name))

    def cover(self, name: str, grid, mask, labeling) -> None:
        save_cover_csv(grid, mask, labeling, self.path(name))

    def cleanup(self) -> None:
        for name in self.written:
            with contextlib.suppress(OSError):
                os.remove(os.path.join(self.out_dir, name))
        with contextlib.suppress(OSError):
            os.rmdir(self.out_dir)

    def manifest(self, cfg: RunConfig) -> None:
        # hashlib loads OpenSSL's libcrypto (about 3.6 MB of RSS): import it
        # only after the command's work, and read no output whole.
        import hashlib
        outputs = {}
        for name in self.written:
            digest = hashlib.sha256()
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                while chunk := fh.read(_DIGEST_CHUNK):
                    digest.update(chunk)
            outputs[name] = "sha256:" + digest.hexdigest()
        doc = {"command": cfg.command,
               "config": {k: cfg.raw[k] for k in sorted(cfg.raw)},
               "outputs": outputs}
        if self.workers is not None:
            doc["workers"] = self.workers
        with open(self.path("manifest.json"), "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


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
    maxiter = cfg["solver.maxiter"]
    return cfg["solver.rtol"], (None if maxiter == 0 else maxiter)


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
    model = _model(cfg)
    count = cfg["sample.count"]
    coeffs = sample_coeffs(model, derive_rng(cfg["seed"], 0), count)
    out.csv("samples.csv", ["sample", "k", "coeff"],
            ((i, k, a) for i, row in enumerate(coeffs)
             for k, a in enumerate(row.tolist(), start=1)))
    out.csv("sample_norms.csv", ["sample", "sigma_norm", "h12_surrogate"],
            zip(range(count), sigma_norm(coeffs, model), surrogate_h12_norm(coeffs)))


def cmd_constraint_experiment(cfg: RunConfig, out: OutputWriter) -> None:
    grid = _grid(cfg)
    N_list = cfg["N_list"]
    trial = _trial_config(cfg, grid, max(N_list))
    result = success_curve(trial, N_list, cfg["M"], tau=cfg["tau"],
                           master_seed=cfg["seed"], threads=cfg["threads"])
    out.workers = result.workers
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
        rows = trial_fields(trial, cfg["seed"])
        out.cover("cover_field.csv", grid, trial.mask, extract_cover(rows, result.tau))


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


def _rel_l2_error(diff: np.ndarray, ref: np.ndarray) -> float:
    """||diff||_2 / ||ref||_2, or the RMS of diff where ref is all zero; both
    norms in units of one 2^e, max |ref| in [2^(e-1), 2^e), so neither overflows."""
    if not ref.any():
        with np.errstate(over="ignore", under="ignore"):
            return float(np.sqrt(np.mean(diff ** 2)))
    e = np.frexp(np.abs(ref).max())[1]
    return (float(root_sum_squares(np.ldexp(diff, -e)))
            / float(root_sum_squares(np.ldexp(ref, -e))))


def cmd_qpat(cfg: RunConfig, out: OutputWriter) -> None:
    grid = _grid(cfg)
    window = _window(cfg, grid)
    mu = _field_expr(cfg["qpat.mu"], "qpat.mu", grid.X, grid.Y)
    rtol, maxiter = _solver_opts(cfg)
    N = cfg["N"]
    bc_spec = cfg["qpat.bc"]
    # N traces that keep one boundary walk's values, or none for random ones.
    if bc_spec == "random":
        model = _model(cfg)
        coeffs = sample_coeffs(model, derive_rng(cfg["seed"], 0), N)
        basis = model.basis.evaluate(grid)
        bcs = OnDemand(lambda i: coeffs[i] @ basis, range(N))
    else:
        trace = (float(bc_spec.split(":", 1)[1]) if bc_spec.startswith("const:")
                 else _boundary_expr(bc_spec, grid, "qpat.bc"))
        bcs = np.broadcast_to(trace, (N, grid.boundary_count))
    datasets = qpat_forward(grid, mu, bcs, rtol=rtol, maxiter=maxiter)
    tau = cfg["qpat.tau"]
    recon = qpat_reconstruct_multi(grid, datasets, tau, window=window, rtol=rtol,
                                   maxiter=maxiter)
    valid, mu_hat = recon.mask_valid, recon.mu_hat
    out.field("mu_hat.csv", grid, mu_hat)
    out.csv("qpat_metrics.csv", ["metric", "value"],
            [("rel_l2_error_valid", _rel_l2_error(mu_hat[valid] - mu[valid], mu[valid])),
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
    rel = _rel_l2_error(recon.log_a_hat[done] - log_true[done], log_true[done])
    out.field("log_a_hat.csv", grid, recon.log_a_hat)
    out.csv("conductivity_metrics.csv", ["metric", "value"],
            [("coverage", recon.coverage), ("components", recon.components),
             ("reconstructed_fraction", recon.reconstructed_fraction),
             ("rel_l2_log_error", rel), ("tau", cfg["cond.tau"])])


# name -> (handler, help, {named flag: the key it sets}, per-command defaults).
# --disk CX,CY,R is the one flag that sets two keys.
COMMANDS = {
    "solve": (cmd_solve, "solve one Dirichlet problem and dump the field",
              {"--n": "grid.n", "--a": "coeff.a", "--q": "coeff.q", "--bc": "solve.bc",
               "--rtol": "solver.rtol"}, {}),
    "sample": (cmd_sample, "draw boundary functions and report their norms",
               {"--family": "bc.family", "--K": "bc.K", "--count": "sample.count",
                "--c": "bc.sigma.c", "--s": "bc.sigma.s"}, {}),
    "constraint-experiment": (
        cmd_constraint_experiment, "success curve of the non-vanishing event vs N",
        {"--zeta": "zeta", "--N-list": "N_list", "--M": "M", "--tau": "tau",
         "--n": "grid.n", "--family": "bc.family"}, {}),
    "variance-check": (cmd_variance_check,
                       "Monte-Carlo second moment against the exact series",
                       {"--zeta": "zeta", "--M": "M", "--K": "bc.K", "--n": "grid.n"},
                       {"M": "10000", "bc.K": "17", "grid.n": "33"}),
    "tail-check": (cmd_tail_check, "survival of the boundary norm vs a gaussian tail fit",
                   {"--family": "bc.family", "--M": "M", "--K": "bc.K"}, {"M": "10000"}),
    "runge": (cmd_runge, "interior approximation tradeoff curve",
              {"--target": "runge.target", "--pole": "runge.pole",
               "--disk": ("runge.disk.center", "runge.disk.radius"), "--K": "bc.K",
               "--lambdas": "runge.lambdas", "--index": "runge.index", "--n": "grid.n"},
              {}),
    "qpat": (cmd_qpat, "photoacoustic absorption round trip",
             {"--mu": "qpat.mu", "--bc": "qpat.bc", "--N": "N", "--tau": "qpat.tau",
              "--n": "grid.n"}, {}),
    "conductivity": (cmd_conductivity, "scalar conductivity round trip",
                     {"--a": "cond.a", "--bc": "cond.bc", "--tau": "cond.tau",
                      "--anchor": "cond.anchor", "--n": "grid.n"}, {}),
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        overrides, out_dir, config_path = _collect_overrides(args)
        cfg = resolve_config(args.command, config_path, overrides)
        out = OutputWriter(out_dir)
        try:
            COMMANDS[cfg.command][0](cfg, out)
            out.manifest(cfg)
        except BaseException:
            out.cleanup()
            raise
        return 0
    except ConfigError as exc:
        print(f"randbc: configuration error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"randbc: run failed: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"randbc: run failed: out of memory{detail}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"randbc: run failed: cannot write the outputs ({exc})", file=sys.stderr)
        return 1

def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
