"""Monte-Carlo studies of constraint non-vanishing under random boundary data.

Solutions for random boundary draws are synthesized from the basis
dictionary by linearity (u = sum_k a_k z_k), so a whole experiment costs K
PDE solves regardless of the number of draws.  A dictionary keeps no
solution fields: each reader solves the K modes once and keeps only their
values and gradients at its nodes (constraints.restrict), and the window's
are kept on the TrialConfig, so success_curve and trial_fields share one
pass.  Every reader evaluates the map by one batched product of coefficient
rows with the map's feature rows (_constraint_rows); trial_fields returns
the (N, m) values, which extract_cover labels directly.  Covered studies:

  success_curve           P(min over window of max_l |zeta^l| >= tau) vs N,
                          with nested (coupled) draws across N and Wilson
                          score intervals;
  variance_identity_check E zeta(u)^2 against its closed form d! det S, the
                          sigma^2-weighted Gram determinant of the map's d
                          feature rows, scored as z-values;
  tail_check              survival of the spectral boundary norm against a
                          fitted gaussian tail 2 exp(-c1 t^2);
  concentration_check     deviation of empirical means of zeta^2 around the
                          series value against a fitted mixed bound.

Randomness is keyed per work item (seed, repetition index).  success_curve
runs its repetitions in one contiguous block per worker, reusing the block's
product buffers and reducing each repetition by exact block maxima, so a
repetition's floats never depend on its block: thread count changes wall time
only, never a single emitted number.

The three checks stream their draws from one generator in chunks of _CHUNK
samples, which give the same numbers as one large draw, and carry their
reductions in numpy's own order, so memory does not grow with M.  The
exception is a quantile: tail_check keeps the M norms and
concentration_check the M deviations of one N, 8 bytes per sample.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boundary import RandomBoundaryModel, mode_frequencies, sample_coeffs
from .constraints import ConstraintMap, det, feature_rows, restrict
from .errors import ConfigError, DomainError
from .grid import Grid2D, SubdomainMask, default_window
from .runge import Dictionary, build_dictionary
from .solver import CoefficientField
from .streams import derive_rng

Z95 = 1.959963984540054

_CHUNK = 2048       # samples per streamed chunk; a multiple of 64 rows


@dataclass(frozen=True, eq=False)
class TrialConfig:
    """One experiment setting: equation, boundary law, map, window, N draws;
    its dictionary and window_parts are made on first use and kept."""

    grid: Grid2D
    coeff: CoefficientField
    model: RandomBoundaryModel
    cmap: ConstraintMap
    N: int
    mask: SubdomainMask | None = None

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or isinstance(self.N, bool):
            raise ConfigError(f"N must be an integer, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        if self.N < 1:
            raise ConfigError(f"need at least one measurement, got N={self.N}")
        if self.mask is None:
            object.__setattr__(self, "mask", default_window(self.grid))
        if self.mask.grid_n != self.grid.n:
            raise ConfigError("mask grid size does not match the experiment grid")
        if self.mask.count == 0:
            raise DomainError("observation window contains no grid nodes")

    @cached_property
    def dictionary(self) -> Dictionary:
        """The basis dictionary; each of its readers solves the K modes once."""
        return build_dictionary(self.grid, self.coeff, self.model)

    @cached_property
    def window_parts(self) -> tuple:
        """restrict's (vals, gxs, gys) of the dictionary's modes on the window."""
        return restrict(self.grid, self.dictionary.z, *self.mask.indices)


def _constraint_rows(feats: list, coeffs: np.ndarray, out=None) -> np.ndarray:
    """(N, m) constraint values of N synthesized measurement tuples.

    feats are the map's d feature rows, each (K, m); coeffs has shape
    (N, d, K).  out (optional) is d lists of d (N, m) buffers that take the
    products; the values are formed in them (det in place).
    """
    d = len(feats)
    out = out or [[None] * d for _ in range(d)]
    for f, row in zip(feats, out):
        for i in range(d):
            row[i] = np.matmul(coeffs[:, i, :], f, out=row[i])
    return det(out, in_place=True)


def _spans(count: int, size: int):
    """Consecutive [lo, hi) spans of `size` covering range(count).

    A one-element remainder joins the span before it: numpy takes a one-row
    product by a dot product, which rounds differently from the gemv and
    gemm kernels that take the same row inside a longer block.
    """
    bounds = list(range(0, count, size)) + [count]
    if len(bounds) > 2 and count - bounds[-2] == 1:
        del bounds[-2]
    return zip(bounds[:-1], bounds[1:])


def _survival(samples: np.ndarray, t) -> np.ndarray:
    """Fraction of samples >= each t, sorting samples in place.

    The counts are exact, so this is (samples >= t).mean() bit for bit
    without its M-byte mask.
    """
    samples.sort()
    return (samples.size - np.searchsorted(samples, t, side="left")) / samples.size


def trial_fields(cfg: TrialConfig, trial_seed: int) -> np.ndarray:
    """Draw one trial's N measurements: their (N, m) constraint values on the
    window's nodes (cfg.mask.indices order), kept for inspection."""
    coeffs = sample_coeffs(cfg.model, derive_rng(trial_seed), cfg.N * cfg.cmap.arity)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _constraint_rows(feature_rows(cfg.cmap, *cfg.window_parts),
                                coeffs.reshape(cfg.N, cfg.cmap.arity, cfg.model.K))
    if not np.isfinite(rows).all():
        raise DomainError("constraint values overflow float64 at this weight scale")
    return rows


def wilson_interval(successes: int, total: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if total <= 0 or not (0 <= successes <= total):
        raise ConfigError(f"invalid count {successes}/{total}")
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2.0 * total)) / denom
    half = z * np.sqrt(phat * (1.0 - phat) / total + z * z / (4.0 * total * total)) / denom
    # center - half and center + half cancel inexactly at the two endpoints
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == total else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class SuccessRow:
    N: int
    successes: int
    M: int
    rate: float
    lo95: float
    hi95: float
    tau: float


@dataclass(eq=False)
class SuccessCurveResult:
    rows: list
    tau: float
    min_max: np.ndarray          # (M, len(N_values)) per-trial nested min-max
    N_values: list
    M: int
    workers: int                 # threads the repetitions ran on

    @property
    def cover_complete_count(self) -> int:
        """Trials whose cover at the largest N is complete at tau: max_l |zeta^l|
        >= tau at every window node is exactly min-max >= tau."""
        return self.rows[-1].successes


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def success_curve(cfg: TrialConfig, N_values, M: int, tau="auto",
                  master_seed: int = 0, threads: int = 1) -> SuccessCurveResult:
    """Empirical success probability of min-max >= tau across N, coupled draws.

    Draws are nested: each repetition draws coefficients for the largest N
    once and every smaller N uses a prefix, so per-trial min-max is exactly
    non-decreasing in N.  tau="auto" calibrates the threshold to the
    empirical 5% quantile (floor(0.05 M)-th smallest) of min-max at the
    largest N.

    Repetitions run in max(1, min(threads, M, usable CPUs)) contiguous blocks,
    one per worker (os.sched_getaffinity where the platform has it); the result's
    workers field records that count.  A worker allocates its (N_max, m)
    products once, evaluates the map in place in them, and merges the maxima
    of |zeta| over [N_{j-1}, N_j) into a running maximum.  Max is exact and
    each repetition uses only its own stream derive_rng(master_seed, rep), so
    min_max is bitwise the same for every thread count.
    """
    if not isinstance(M, (int, np.integer)) or M < 50:
        raise ConfigError(f"need at least 50 repetitions for the curve, got M={M!r}")
    M = int(M)
    Ns = sorted({int(N) for N in N_values})
    if len(Ns) == 0:
        raise ConfigError("N_values must be nonempty")
    if Ns[0] < 1:
        raise ConfigError(f"measurement counts must be >= 1, got {Ns[0]}")
    N_max = Ns[-1]
    arity = cfg.cmap.arity
    feats = feature_rows(cfg.cmap, *cfg.window_parts)
    K, m = cfg.model.K, cfg.mask.count
    blocks = list(zip([0] + Ns[:-1], Ns))             # [N_{j-1}, N_j)
    min_max = np.empty((M, len(Ns)))

    def run_reps(start: int, stop: int) -> None:
        prods = [[np.empty((N_max, m)) for _ in range(arity)] for _ in feats]
        cur = np.empty(m)
        blk = np.empty(m)
        for rep in range(start, stop):
            rng = derive_rng(master_seed, rep)
            coeffs = sample_coeffs(cfg.model, rng, N_max * arity).reshape(N_max, arity, K)
            with np.errstate(over="ignore", invalid="ignore"):  # checked in min_max
                rows = _constraint_rows(feats, coeffs, prods)
            np.abs(rows, out=rows)
            cur.fill(0.0)                             # identity of max over |zeta|
            for j, (lo, hi) in enumerate(blocks):
                np.maximum(cur, rows[lo:hi].max(axis=0, out=blk), out=cur)
                min_max[rep, j] = cur.min()

    workers = max(1, min(threads, M, _usable_cpus()))
    bounds = [M * w // workers for w in range(workers + 1)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_reps, bounds[:-1], bounds[1:]))
    else:
        run_reps(0, M)
    if not np.isfinite(min_max).all():
        raise DomainError("constraint values overflow float64 at this weight scale")

    if isinstance(tau, str):
        if tau != "auto":
            raise ConfigError(f"tau must be a nonnegative number or 'auto', got {tau!r}")
        k = max(1, int(np.floor(0.05 * M)))
        tau_val = float(np.sort(min_max[:, -1])[k - 1])
        if tau_val <= 0.0:
            raise DomainError("auto threshold collapsed to zero; draws are degenerate")
    else:
        tau_val = float(tau)
        if not (0.0 <= tau_val < math.inf):
            raise ConfigError(f"tau must be a finite nonnegative number, got {tau}")

    rows_out = []
    for j, N in enumerate(Ns):
        successes = int(np.sum(min_max[:, j] >= tau_val))
        lo, hi = wilson_interval(successes, M)
        rows_out.append(SuccessRow(N=N, successes=successes, M=M,
                                   rate=successes / M, lo95=lo, hi95=hi, tau=tau_val))
    return SuccessCurveResult(rows=rows_out, tau=tau_val, min_max=min_max,
                              N_values=Ns, M=M, workers=workers)


DEFAULT_PROBE_FRACTIONS = (0.3125, 0.5, 0.6875)


def default_probes() -> list[tuple[float, float]]:
    """3 x 3 probe lattice inside the standard window (exact nodes for dyadic n)."""
    return [(fx, fy) for fx in DEFAULT_PROBE_FRACTIONS for fy in DEFAULT_PROBE_FRACTIONS]


@dataclass(frozen=True)
class VarianceRow:
    x: float
    y: float
    mc: float
    series: float
    z: float


def _second_moment_series(feats: list, sig2: np.ndarray) -> np.ndarray:
    """E zeta^2 = d! det S, S_ij = sum_k sig2_k F_ik F_jk: exact by Cauchy-Binet
    for independent zero-mean coefficients of any family."""
    d = len(feats)
    S = [[sig2 @ (feats[i] * feats[j]) for j in range(d)] for i in range(d)]
    return math.factorial(d) * det(S)


def variance_identity_check(cfg: TrialConfig, M: int = 10000,
                            master_seed: int = 0) -> list[VarianceRow]:
    """Monte-Carlo E[zeta(u)^2] against the exact closed form at the
    default_probes.

    Every map is supported (see _second_moment_series).  z scores use the
    sample standard error.  The M draws of derive_rng(master_seed, 0) are
    streamed in chunks, twice: one pass sums zeta^2, a second regenerates the
    stream and sums (zeta^2 - mc)^2.  Row 0 of the chunk buffer carries the
    running sums, so each column adds its samples in order, as numpy's
    axis-0 reduction does; for two or more probes mc and z are bitwise
    sq.mean(0) and the value from sq.std(0, ddof=1) of the whole (M, probes)
    array of squares sq.
    """
    if not isinstance(M, (int, np.integer)) or M < 2:
        raise ConfigError(f"need at least two samples, got M={M!r}")
    M = int(M)

    ixs, iys = [], []
    for p in default_probes():
        ix, iy = cfg.grid.nearest_node(p)
        if not cfg.mask.member[ix, iy]:
            raise ConfigError(f"probe {p!r} snaps to ({ix}, {iy}) outside the window")
        ixs.append(ix)
        iys.append(iy)
    feats = feature_rows(cfg.cmap, *restrict(cfg.grid, cfg.dictionary.z, ixs, iys))
    units, e = cfg.model.in_units()
    series = _second_moment_series(feats, units.sigma ** 2)
    arity, K = cfg.cmap.arity, cfg.model.K
    buf = np.empty((_CHUNK + 2, len(ixs)))      # running sums, then a span's rows

    def column_sum(mc=None) -> np.ndarray:
        """Sum over the samples of zeta^2, or of (zeta^2 - mc)^2 given mc."""
        rng = derive_rng(master_seed, 0)
        buf[0] = 0.0                              # 0 + s == s for s >= +0
        for lo, hi in _spans(M, _CHUNK):
            coeffs = sample_coeffs(units, rng, arity * (hi - lo))
            sq = buf[1:hi - lo + 1]
            np.square(_constraint_rows(feats, coeffs.reshape(hi - lo, arity, K)), out=sq)
            if mc is not None:
                np.square(np.subtract(sq, mc, out=sq), out=sq)
            buf[0] = np.add.reduce(buf[:hi - lo + 1], axis=0)
        return buf[0].copy()

    # numpy's mean and std(ddof=1), operation for operation, in units of 2^e,
    # where z does not depend on the weight scale; zeta^2 scales as 2^(2 d e).
    mc = column_sum() / M
    se = np.sqrt(column_sum(mc) / (M - 1)) / np.sqrt(M)
    diff = mc - series
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0.0, diff / se,
                     np.where(diff == 0.0, 0.0, np.inf * np.sign(diff)))
    with np.errstate(over="ignore"):
        mc, series = (np.ldexp(v, 2 * len(feats) * e) for v in (mc, series))
    if not all(np.isfinite(v).all() for v in (mc, series, se)):
        raise DomainError(f"variance check overflows float64 (sigma_1 = {cfg.model.sigma[0]:.6g})")
    xs = cfg.grid.xs
    return [VarianceRow(x=float(xs[ixs[j]]), y=float(xs[iys[j]]),
                        mc=float(mc[j]), series=float(series[j]), z=float(z[j]))
            for j in range(len(ixs))]


@dataclass(frozen=True)
class TailRow:
    t: float
    survival: float
    bound: float


@dataclass(frozen=True)
class TailReport:
    c1_hat: float
    rows: list
    dominated: bool
    M: int
    family: str


def tail_check(model: RandomBoundaryModel, M: int, master_seed: int = 0) -> TailReport:
    """Fit the largest c1 with 2 exp(-c1 t^2) >= P(||phi|| >= t) on a t-grid:
    the norms' quantiles at 24 geometric levels from 1/2 down to 5/M.

    The norm is the spectral H^{1/2} surrogate of the sampled boundary data.
    The (M, K) draws of derive_rng(master_seed, 0) are streamed in chunks;
    only the M norms (8 bytes per sample) are kept, for the quantiles and
    the survival counts.  The draws are taken from the law in units of 2^e
    (RandomBoundaryModel.in_units), where no sum of squares overflows; t is
    mapped back by 2^e and c1 by 2^-2e, exactly.
    """
    if not isinstance(M, (int, np.integer)) or M < 1000:
        raise ConfigError(f"tail check needs at least 1000 samples, got M={M!r}")
    M = int(M)
    m = mode_frequencies(model.K).astype(float)
    weights = np.sqrt(1.0 + m * m)
    units, e = model.in_units()
    rng = derive_rng(master_seed, 0)
    nrm = np.empty(M)
    for lo, hi in _spans(M, _CHUNK):
        draws = sample_coeffs(units, rng, hi - lo)
        np.matmul(np.square(draws, out=draws), weights, out=nrm[lo:hi])
    np.sqrt(nrm, out=nrm)
    t_grid = np.quantile(nrm, 1.0 - np.geomspace(0.5, 5.0 / M, 24), overwrite_input=True)
    survival = _survival(nrm, t_grid)
    usable = (t_grid > 0.0) & (survival > 0.0)
    if not np.any(usable):
        raise DomainError("no usable tail points; sampled norms are degenerate")
    c1 = float(np.min(np.log(2.0 / survival[usable]) / t_grid[usable] ** 2))
    try:
        c1_hat = math.ldexp(c1, -2 * e)
    except OverflowError:
        raise DomainError("tail constant c1 overflows float64 at this weight scale") from None
    bound = 2.0 * np.exp(-c1 * t_grid ** 2)
    rows = [TailRow(t=math.ldexp(t_grid[j], e), survival=float(survival[j]),
                    bound=float(bound[j])) for j in range(len(t_grid))]
    dominated = bool(np.all(bound >= survival - 1e-12))
    return TailReport(c1_hat=c1_hat, rows=rows, dominated=dominated, M=M,
                      family=model.family)


@dataclass(frozen=True)
class ConcentrationRow:
    N: int
    t: float
    p_emp: float
    bound: float


@dataclass(frozen=True)
class ConcentrationReport:
    C_hat: float
    mu: float
    rows: list


def concentration_check(cfg: TrialConfig, N_values, M: int,
                        master_seed: int = 0) -> ConcentrationReport:
    """Deviation of mean_l zeta(u_l)^2 from the series mean at the node
    nearest (0.5, 0.5), with a fitted mixed bound 2 exp(-C min(N t^2, t N))
    per sampled (N, t), t the deviations' quantiles at survival levels 0.5 to 0.02.

    Each N streams derive_rng(master_seed, N) in chunks of whole
    repetitions, a multiple of 64 of them, so every chunk's product rows
    keep their alignment in one (M N, K) product and each repetition's mean
    is unchanged.  Only the M deviations (8 bytes per repetition) are kept.
    """
    if cfg.cmap.arity != 1:
        raise ConfigError("concentration check is implemented for arity-1 maps")
    if not isinstance(M, (int, np.integer)) or M < 100:
        raise ConfigError(f"need at least 100 repetitions, got M={M!r}")
    M = int(M)
    Ns = sorted({int(N) for N in N_values})
    if not Ns or Ns[0] < 1:
        raise ConfigError(f"bad N_values {N_values!r}")

    ix, iy = cfg.grid.nearest_node((0.5, 0.5))
    if not cfg.mask.member[ix, iy]:
        raise ConfigError("probe (0.5, 0.5) lies outside the window")
    feats = feature_rows(cfg.cmap, *restrict(cfg.grid, cfg.dictionary.z, [ix], [iy]))
    w = feats[0][:, 0]
    mu = float(_second_moment_series(feats, cfg.model.sigma ** 2)[0])

    rows = []
    fits = []
    dev = np.empty(M)
    for N in Ns:
        rng = derive_rng(master_seed, N)
        for lo, hi in _spans(M, 64 * max(1, _CHUNK // (64 * N))):
            vals = np.square(sample_coeffs(cfg.model, rng, (hi - lo) * N) @ w)
            d = dev[lo:hi]
            np.abs(np.subtract(vals.reshape(hi - lo, N).mean(axis=1), mu, out=d), out=d)
        ts = np.quantile(dev, 1.0 - np.array([0.5, 0.2, 0.1, 0.05, 0.02]), overwrite_input=True)
        for t, p in zip(ts.tolist(), _survival(dev, ts).tolist()):
            p_emp = p if t > 0.0 else 1.0
            rows.append([N, t, p_emp])
            if t > 0.0 and p_emp > 0.0:
                fits.append(np.log(2.0 / p_emp) / min(N * t * t, t * N))
    C_hat = float(min(fits)) if fits else float("inf")
    out = [ConcentrationRow(N=r[0], t=r[1], p_emp=r[2],
                            bound=float(2.0 * np.exp(-C_hat * min(r[0] * r[1] ** 2,
                                                                  r[1] * r[0]))))
           for r in rows]
    return ConcentrationReport(C_hat=C_hat, mu=mu, rows=out)
