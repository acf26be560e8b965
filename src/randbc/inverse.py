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
integration over the valid-node graph, gauge-fixed at an anchor node.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .errors import ConfigError, DomainError, SolverError
from .grid import Grid2D, SubdomainMask, default_window
from .solver import (CoefficientField, ScalarField, assemble, gradient,
                     laplacian, solve_dirichlet, solve_poisson)


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
class QpatResult:
    mu_hat: ScalarField          # NaN where invalid
    mask_valid: np.ndarray       # (n, n) bool
    u_rec: ScalarField


def qpat_reconstruct(data: QpatData, tau: float, rtol: float = 1e-10,
                     maxiter=None) -> QpatResult:
    """Recover absorption from one measurement wherever |u| >= tau (DomainError
    when that is nowhere)."""
    if not (tau > 0.0):
        raise ConfigError(f"threshold must be positive, got tau={tau}")
    grid = data.grid
    u_rec = solve_poisson(grid, data.H, data.boundary_u, rtol=rtol, maxiter=maxiter)
    valid = np.abs(u_rec) >= tau
    if not valid.any():
        raise DomainError(f"recovered |u| clears tau={tau} at no node")
    mu_hat = np.full((grid.n, grid.n), np.nan)
    mu_hat[valid] = data.H[valid] / u_rec[valid]
    return QpatResult(mu_hat=mu_hat, mask_valid=valid, u_rec=u_rec)


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
    log_a_hat: ScalarField       # NaN outside the reconstructed region
    region: np.ndarray           # (n, n) bool, |Jacobian| >= tau inside the window
    coverage: float              # fraction of the window reconstructed
    jacobian: ScalarField


def conductivity_reconstruct(data: ConductivityData, tau: float,
                             anchor=(0.5, 0.5), anchor_value: float | None = None,
                             window: SubdomainMask | None = None) -> ConductivityResult:
    """Recover log a where the measurement Jacobian clears tau.

    The gauge constant is fixed so log_a_hat(anchor) equals anchor_value
    (defaults to the true value when the data carries it, else 0).  Warns when
    the usable region covers less than 99% of the window.
    """
    if not (tau > 0.0):
        raise ConfigError(f"threshold must be positive, got tau={tau}")
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

    lap1 = laplacian(grid, u1)
    lap2 = laplacian(grid, u2)
    with np.errstate(divide="ignore", invalid="ignore"):
        gx_log = np.where(region, (-lap1 * g2y + lap2 * g1y) / jac, 0.0)
        gy_log = np.where(region, (lap1 * g2x - lap2 * g1x) / jac, 0.0)

    # Least-squares potential integration over the valid-node graph.
    node_id = np.full((grid.n, grid.n), -1, dtype=np.int64)
    rix, riy = np.nonzero(region)
    node_id[rix, riy] = np.arange(rix.size)
    rows, cols, vals, rhs = [], [], [], []
    edge = 0
    for axis, gcomp in ((0, gx_log), (1, gy_log)):
        if axis == 0:
            ok = region[:-1, :] & region[1:, :]
            six, siy = np.nonzero(ok)
            tix, tiy = six + 1, siy
        else:
            ok = region[:, :-1] & region[:, 1:]
            six, siy = np.nonzero(ok)
            tix, tiy = six, siy + 1
        if six.size == 0:
            continue
        i = node_id[six, siy]
        j = node_id[tix, tiy]
        e = np.arange(edge, edge + i.size)
        edge += i.size
        rows.extend([e, e])
        cols.extend([j, i])
        vals.extend([np.ones(i.size), -np.ones(i.size)])
        rhs.append(0.5 * grid.h * (gcomp[six, siy] + gcomp[tix, tiy]))
    if edge == 0:
        raise DomainError("reconstructed region has no connected edges")
    A = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(edge, rix.size)).tocsr()
    b = np.concatenate(rhs)
    sol, istop, iters = spla.lsqr(A, b, atol=1e-13, btol=1e-13, iter_lim=50 * rix.size)[:3]
    if istop not in (0, 1, 2):
        # 0: b = 0, 1: a solution, 2: a least-squares solution; anything else
        # (ill-conditioning, the iteration limit) leaves log a unjustified.
        raise SolverError(f"potential integration stopped with lsqr istop={istop} "
                          f"after {iters} iterations", iterations=iters)

    aix, aiy = grid.nearest_node(anchor)
    if not region[aix, aiy]:
        raise DomainError(f"anchor {anchor!r} lies outside the reconstructed region")
    if anchor_value is None:
        if data.a_true is not None:
            anchor_value = float(np.log(data.a_true[aix, aiy]))
        else:
            anchor_value = 0.0
    sol = sol - sol[node_id[aix, aiy]] + anchor_value

    log_a_hat = np.full((grid.n, grid.n), np.nan)
    log_a_hat[rix, riy] = sol
    return ConductivityResult(log_a_hat=log_a_hat, region=region,
                              coverage=coverage, jacobian=jac)
