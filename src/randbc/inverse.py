"""Hybrid imaging on top of the elliptic lab: photoacoustic absorption and
scalar conductivity from interior data.

Photoacoustic: u solves -Delta u + mu u = 0 with known illumination, the
measured interior energy is H = mu u; since Delta u = H, one Poisson solve
recovers u and then mu = H / u wherever |u| clears a threshold.  With several
illuminations each node uses the one with the largest recovered |u|.

Conductivity: for fields u_i of -div(a grad u_i) = 0, the log-gradient
g = grad log a solves the 2x2 system  [grad u_i] . g = -Delta u_i  nodewise;
where the measurement Jacobian det[grad u1 grad u2] clears a threshold the
system inverts, and log a is recovered from g by least-squares potential
integration over the valid-node graph: its normal equations are the graph
Laplacian with the anchor node's unknown fixed (the gauge), which is SPD and
is solved by conjugate gradients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError, DomainError, SolverError
from .grid import Grid2D, SubdomainMask, default_window
from .solver import (CoefficientField, ScalarField, assemble,
                     conjugate_gradients, gradient, laplacian, solve_dirichlet,
                     solve_poisson)


@dataclass(eq=False)
class QpatData:
    """One photoacoustic measurement: interior energy and the illumination trace."""

    grid: Grid2D
    H: ScalarField
    boundary_u: np.ndarray
    mu_true: ScalarField | None = None


def qpat_forward(grid: Grid2D, mu, bcs, rtol: float = 1e-10,
                 maxiter=None) -> list[QpatData]:
    """Forward photoacoustic measurements for absorption mu, one per illumination
    trace in bcs; the operator is assembled once for all of them."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (grid.n, grid.n):
        raise ConfigError(f"mu must have shape {(grid.n, grid.n)}, got {mu.shape}")
    if not np.all(np.isfinite(mu)):
        raise DomainError("absorption must be finite")
    if np.any(mu < 0.0):
        raise ConfigError("absorption must be nonnegative")
    op = assemble(grid, CoefficientField.isotropic(grid, a=1.0, q=mu))
    out = []
    for bc in bcs:
        u = solve_dirichlet(op, bc, rtol=rtol, maxiter=maxiter)
        out.append(QpatData(grid=grid, H=mu * u,
                            boundary_u=np.asarray(bc, dtype=float).copy(),
                            mu_true=mu.copy()))
    return out


@dataclass(eq=False)
class QpatMultiResult:
    mu_hat: ScalarField
    mask_valid: np.ndarray
    labels: np.ndarray           # (n, n) 1-based measurement index per node
    complete: bool               # all of the window is valid


def qpat_reconstruct_multi(datasets, tau: float, window: SubdomainMask | None = None,
                           rtol: float = 1e-10, maxiter=None) -> QpatMultiResult:
    """Multi-illumination absorption: each node uses its largest |u| measurement
    (DomainError when no node's |u| clears tau)."""
    datasets = list(datasets)
    if len(datasets) == 0:
        raise ConfigError("need at least one measurement")
    if not (tau > 0.0):
        raise ConfigError(f"threshold must be positive, got tau={tau}")
    grid = datasets[0].grid
    for d in datasets[1:]:
        if d.grid.n != grid.n:
            raise ConfigError("measurements live on different grids")
    if window is None:
        window = default_window(grid)
    u_recs = np.stack([solve_poisson(grid, d.H, d.boundary_u, rtol=rtol, maxiter=maxiter)
                       for d in datasets])
    Hs = np.stack([d.H for d in datasets])
    pick = np.abs(u_recs).argmax(axis=0)
    u_best = np.take_along_axis(u_recs, pick[None], axis=0)[0]
    H_best = np.take_along_axis(Hs, pick[None], axis=0)[0]
    valid = np.abs(u_best) >= tau
    if not valid.any():
        raise DomainError(f"recovered |u| clears tau={tau} at no node")
    mu_hat = np.full((grid.n, grid.n), np.nan)
    mu_hat[valid] = H_best[valid] / u_best[valid]
    complete = bool(valid[window.indices].all())
    return QpatMultiResult(mu_hat=mu_hat, mask_valid=valid, labels=pick + 1,
                           complete=complete)


@dataclass(eq=False)
class ConductivityData:
    """Two interior voltage fields for a scalar conductivity."""

    grid: Grid2D
    u: np.ndarray                # (2, n, n)
    a_true: ScalarField | None = None


def conductivity_forward(grid: Grid2D, a, bcs=None, rtol: float = 1e-10,
                         maxiter=None) -> ConductivityData:
    """Solve the two measurement fields; default boundary traces are x1 and x2."""
    a = np.asarray(a, dtype=float)
    if a.shape != (grid.n, grid.n):
        raise ConfigError(f"a must have shape {(grid.n, grid.n)}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("conductivity must be finite")
    if np.any(a <= 0.0):
        raise ConfigError("conductivity must be strictly positive")
    if bcs is None:
        bcs = (grid.boundary_values(grid.X), grid.boundary_values(grid.Y))
    if len(bcs) != 2:
        raise ConfigError("exactly two boundary traces are required")
    op = assemble(grid, CoefficientField.isotropic(grid, a=a, q=0.0))
    u = np.stack([solve_dirichlet(op, np.asarray(bc, dtype=float), rtol=rtol,
                                  maxiter=maxiter)
                  for bc in bcs])
    return ConductivityData(grid=grid, u=u, a_true=a.copy())


@dataclass(eq=False)
class ConductivityResult:
    log_a_hat: ScalarField       # NaN outside the anchor's component of the region
    region: np.ndarray           # (n, n) bool, |Jacobian| >= tau inside the window
    coverage: float              # fraction of the window in the region
    jacobian: ScalarField
    components: int              # connected components of the region
    reconstructed_fraction: float   # fraction of the window in the anchor's component


def _potential_edges(grid: Grid2D, region: np.ndarray, gx_log: np.ndarray,
                     gy_log: np.ndarray):
    """Node ids of the region, and the (i, j, rhs) of each edge between
    neighboring region nodes, rhs being the midpoint-rule integral of the
    log-gradient from node i to node j."""
    node_id = np.full((grid.n, grid.n), -1, dtype=np.int64)
    rix, riy = np.nonzero(region)
    node_id[rix, riy] = np.arange(rix.size)
    ii, jj, rhs = [], [], []
    for gcomp, (dx, dy) in ((gx_log, (1, 0)), (gy_log, (0, 1))):
        six, siy = np.nonzero(region[:grid.n - dx, :grid.n - dy]
                              & region[dx:, dy:])
        tix, tiy = six + dx, siy + dy
        ii.append(node_id[six, siy])
        jj.append(node_id[tix, tiy])
        rhs.append(0.5 * grid.h * (gcomp[six, siy] + gcomp[tix, tiy]))
    return node_id, np.concatenate(ii), np.concatenate(jj), np.concatenate(rhs)


def conductivity_reconstruct(data: ConductivityData, tau: float,
                             anchor=(0.5, 0.5), anchor_value: float | None = None,
                             window: SubdomainMask | None = None, rtol: float = 1e-10,
                             maxiter=None) -> ConductivityResult:
    """Recover log a where the measurement Jacobian clears tau.

    The gauge constant is fixed so log_a_hat(anchor) equals anchor_value
    (defaults to the true value when the data carries it, else 0).  Only the
    anchor's connected component of that region is reconstructed: elsewhere
    the gauge is unknown, so log_a_hat is NaN there.  Warns when the usable
    region covers less than 99% of the window or splits into components.
    The integration meets ||L x - A^T b||_inf <= rtol * ||A^T b||_inf on the
    gauge-fixed Laplacian L, within maxiter CG iterations (default 20 n).
    """
    from scipy.sparse.csgraph import connected_components

    if not (tau > 0.0):
        raise ConfigError(f"threshold must be positive, got tau={tau}")
    if not (rtol > 0.0):
        raise ConfigError(f"rtol must be positive, got {rtol}")
    grid = data.grid
    if window is None:
        window = default_window(grid)
    if window.grid_n != grid.n:
        raise ConfigError("window grid size does not match the data grid")

    u1, u2 = data.u[0], data.u[1]
    g1x, g1y = gradient(grid, u1)
    g2x, g2y = gradient(grid, u2)
    jac = g1x * g2y - g1y * g2x
    region = window.member & grid.interior_mask & (np.abs(jac) >= tau)
    coverage = float(region.sum()) / window.count
    if coverage < 0.99:
        warnings.warn(
            f"measurement Jacobian clears tau={tau} on only {coverage:.1%} "
            "of the window; reconstruction is partial", RuntimeWarning,
            stacklevel=2)
    if not region.any():
        raise DomainError("Jacobian threshold leaves no node to reconstruct")
    aix, aiy = grid.nearest_node(anchor)
    if not region[aix, aiy]:
        raise DomainError(f"anchor {anchor!r} lies outside the reconstructed region")

    lap1 = laplacian(grid, u1)
    lap2 = laplacian(grid, u2)
    with np.errstate(divide="ignore", invalid="ignore"):
        gx_log = np.where(region, (-lap1 * g2y + lap2 * g1y) / jac, 0.0)
        gy_log = np.where(region, (lap1 * g2x - lap2 * g1x) / jac, 0.0)

    node_id, i, j, b = _potential_edges(grid, region, gx_log, gy_log)
    count = int(region.sum())
    components, labels = connected_components(
        sparse.coo_matrix((np.ones(i.size), (i, j)), shape=(count, count)),
        directed=False)
    part, reconstructed = region, coverage
    if components > 1:
        part = np.zeros_like(region)
        part[region] = labels == labels[node_id[aix, aiy]]
        reconstructed = float(part.sum()) / window.count
        warnings.warn(
            f"the region splits into {components} components; only the anchor's "
            f"({reconstructed:.1%} of the window) is reconstructed", RuntimeWarning,
            stacklevel=2)
        node_id, i, j, b = _potential_edges(grid, part, gx_log, gy_log)
    if i.size == 0:
        raise DomainError("the anchor's component of the region has no edges")

    # Least-squares potential integration over the component's graph: with
    # incidence A (row e is x_j - x_i), A^T A is the graph Laplacian.  Fixing
    # the anchor's unknown at 0 turns its row and column into the identity.
    rix, riy = np.nonzero(part)
    count = rix.size
    anchor_id = node_id[aix, aiy]
    diag = (np.bincount(i, minlength=count) + np.bincount(j, minlength=count)).astype(float)
    rhs = np.bincount(j, b, minlength=count) - np.bincount(i, b, minlength=count)
    diag[anchor_id], rhs[anchor_id] = 1.0, 0.0
    free = (i != anchor_id) & (j != anchor_id)
    fi, fj = i[free], j[free]
    lap = sparse.coo_matrix(
        (np.concatenate([diag, -np.ones(2 * fi.size)]),
         (np.concatenate([np.arange(count), fi, fj]),
          np.concatenate([np.arange(count), fj, fi]))),
        shape=(count, count)).tocsr()
    if maxiter is None:
        maxiter = 20 * grid.n
    x, _, _ = conjugate_gradients(lap, rhs, rtol * np.abs(rhs).max(), maxiter)

    if anchor_value is None:
        if data.a_true is not None:
            anchor_value = float(np.log(data.a_true[aix, aiy]))
        else:
            anchor_value = 0.0
    log_a_hat = np.full((grid.n, grid.n), np.nan)
    log_a_hat[rix, riy] = x + anchor_value
    return ConductivityResult(log_a_hat=log_a_hat, region=region, coverage=coverage,
                              jacobian=jac, components=components,
                              reconstructed_fraction=reconstructed)
