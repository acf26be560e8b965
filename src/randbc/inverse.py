"""Hybrid imaging on top of the elliptic lab: photoacoustic absorption and
scalar conductivity from interior data.

Photoacoustic: u solves -Delta u + mu u = 0 with known illumination, the
measured interior energy is H = mu u; since Delta u = H, one Poisson solve
recovers u and then mu = H / u wherever |u| clears a threshold.  The Poisson
solve is a sign-flipped solve_dirichlet (solver.solve_poisson), so it meets
the same contract and a traced run counts it with the forward solves.  With
several illuminations every node keeps the largest |u| so far; each
illumination's H is solved when it is read, so one H is held at a time.

Conductivity: for fields u_i of -div(a grad u_i) = 0, the log-gradient
g = grad log a solves the 2x2 system  [grad u_i] . g = -Delta u_i  nodewise;
where the measurement Jacobian det[grad u1 grad u2] clears a threshold the
system inverts, and log a is recovered from g by least-squares potential
integration over the valid-node graph: its normal equations are the graph
Laplacian with the anchor node's unknown fixed (the gauge), a masked
five-point stencil that is SPD and is solved by conjugate gradients.  The
graph's components come from numpy labelling (min-label propagation with
pointer jumping).  The log-gradient is formed in the gradients it consumes and
the integration on the component's bounding box, to bound memory.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .grid import Grid2D, SubdomainMask, default_window
from .solver import (CoefficientField, DiscreteOperator, ScalarField, SolveInfo, Stencil,
                     assemble, conjugate_gradients, default_maxiter, gradient,
                     laplace_operator, laplacian, neighbor_field, solve_dirichlet,
                     solve_poisson)


@dataclass(eq=False)
class QpatData:
    """One photoacoustic measurement: interior energy and the illumination trace."""

    grid: Grid2D
    H: ScalarField
    boundary_u: np.ndarray


class QpatMeasurements(Sequence):
    """The photoacoustic measurements of one absorption, solved on access:
    self[i] solves illumination i on the one forward operator and returns a
    new QpatData, whose H is the solve's own field.

    Nothing of size n^2 is kept per illumination, and traces are read when
    their measurement is.  Slices are measurements too, and iterating keeps
    no reference to a measurement once it is handed out, so a reader that
    drops each one holds one H at a time.
    """

    def __init__(self, op: DiscreteOperator, mu: np.ndarray, traces, rtol: float, maxiter,
                 indices: range | None = None):
        self.operator = op
        self.mu = mu
        self.traces = traces        # sequence of boundary traces
        self.rtol = rtol
        self.maxiter = maxiter
        self._indices = range(len(traces)) if indices is None else indices

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return QpatMeasurements(self.operator, self.mu, self.traces, self.rtol,
                                    self.maxiter, self._indices[i])
        bc = np.array(self.traces[self._indices[i]], dtype=float)
        u = solve_dirichlet(self.operator, bc, rtol=self.rtol, maxiter=self.maxiter)
        np.multiply(self.mu, u, out=u)      # H = mu u, in the solve's own field
        return QpatData(grid=self.operator.grid, H=u, boundary_u=bc)

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


def qpat_forward(grid: Grid2D, mu, bcs, rtol: float = 1e-10,
                 maxiter=None) -> QpatMeasurements:
    """Forward photoacoustic measurements for absorption mu, one per illumination
    trace in the sequence bcs, each solved when it is read; the operator is
    assembled once for all of them."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (grid.n, grid.n):
        raise ConfigError(f"mu must have shape {(grid.n, grid.n)}, got {mu.shape}")
    if not np.all(np.isfinite(mu)):
        raise DomainError("absorption must be finite")
    if np.any(mu < 0.0):
        raise ConfigError("absorption must be nonnegative")
    op = assemble(grid, CoefficientField.isotropic(grid, a=1.0, q=mu))
    return QpatMeasurements(op, mu, bcs, rtol, maxiter)


@dataclass(eq=False)
class QpatMultiResult:
    mu_hat: ScalarField
    mask_valid: np.ndarray
    labels: np.ndarray           # (n, n) 1-based measurement index per node
    complete: bool               # all of the window is valid


def qpat_reconstruct_multi(datasets, tau: float, window: SubdomainMask | None = None,
                           rtol: float = 1e-10, maxiter=None) -> QpatMultiResult:
    """Multi-illumination absorption from a sequence of QpatData, such as
    qpat_forward's: each node uses its largest |u| measurement, the first of
    equal ones (DomainError when no node's |u| clears tau).  The measurements
    are read once, in order, and each is dropped before the next is read, so
    a QpatMeasurements is solved one illumination at a time."""
    if len(datasets) == 0:
        raise ConfigError("need at least one measurement")
    if not (tau > 0.0):
        raise ConfigError(f"threshold must be positive, got tau={tau}")
    # A QpatMeasurements' grid, read without solving its first measurement.
    grid = (datasets.operator if isinstance(datasets, QpatMeasurements)
            else datasets[0]).grid
    if window is None:
        window = default_window(grid)
    if window.grid_n != grid.n:
        raise ConfigError("window grid size does not match the data grid")
    shape, op = (grid.n, grid.n), laplace_operator(grid)
    # At each node the best |u| so far (any |u| beats -1), its mu = H / u and label.
    best, mu_hat, labels = np.full(shape, -1.0), np.empty(shape), np.empty(shape, np.intp)
    label = 0
    for d in datasets:
        label += 1
        if d.grid.n != grid.n:
            raise ConfigError("measurements live on different grids")
        u = solve_poisson(grid, d.H, d.boundary_u, rtol=rtol, maxiter=maxiter, op=op)
        better = np.abs(u) > best          # strict: a tie keeps the first, as argmax does
        np.maximum(best, np.abs(u), out=best)
        with np.errstate(all="ignore"):    # where |u| misses tau, mu is dropped below
            np.divide(d.H, u, out=mu_hat, where=better)
        labels[better] = label
        del d, u, better                   # before the next measurement is read
    valid = best >= tau
    if not valid.any():
        raise DomainError(f"recovered |u| clears tau={tau} at no node")
    mu_hat[~valid] = np.nan
    complete = bool(valid[window.indices].all())
    return QpatMultiResult(mu_hat=mu_hat, mask_valid=valid, labels=labels,
                           complete=complete)


@dataclass(eq=False)
class ConductivityData:
    """Two interior voltage fields for a scalar conductivity."""

    grid: Grid2D
    u: np.ndarray                # (2, n, n)
    a_true: ScalarField | None = None   # the conductivity as given, not copied


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
        bcs = (grid.xs[grid.boundary_ix], grid.xs[grid.boundary_iy])
    if len(bcs) != 2:
        raise ConfigError("exactly two boundary traces are required")
    op = assemble(grid, CoefficientField.isotropic(grid, a=a, q=0.0))
    u = np.empty((2, grid.n, grid.n))
    for field, bc in zip(u, bcs):
        solve_dirichlet(op, bc, rtol=rtol, maxiter=maxiter, out=field)
    return ConductivityData(grid=grid, u=u, a_true=a)


@dataclass(eq=False)
class ConductivityResult:
    log_a_hat: ScalarField       # NaN outside the anchor's component of the region
    region: np.ndarray           # (n, n) bool, |Jacobian| >= tau inside the window
    coverage: float              # fraction of the window in the region
    components: int              # connected components of the region
    reconstructed_fraction: float   # fraction of the window in the anchor's component
    integration: SolveInfo       # the potential integration's CG solve


def _edge_bands(mask: np.ndarray, offsets=((1, 0), (-1, 0), (0, 1), (0, -1))) -> dict:
    """The 4-neighbor bands (dx, dy) in offsets of the graph on mask's nodes:
    1.0 where a node and its (dx, dy) neighbor both lie in mask."""
    return {(dx, dy): (mask & neighbor_field(mask, dx, dy)).astype(float)
            for dx, dy in offsets}


def _components(mask: np.ndarray) -> tuple[int, np.ndarray]:
    """The 4-connected components of mask: their number, and at each node of
    mask the smallest row-major index in its component.

    Min-label propagation with pointer jumping: every sweep lowers each
    node's label to the least among its own and its neighbors', and then
    replaces it by the label of the node it names.  Labels only ever name
    nodes of the same component, and they stop changing once each component
    carries its least index.
    """
    index = np.arange(mask.size).reshape(mask.shape)
    label = np.where(mask, index, mask.size)   # mask.size: above every index
    while True:
        new = label.copy()
        np.minimum(new[1:], label[:-1], out=new[1:])
        np.minimum(new[:-1], label[1:], out=new[:-1])
        np.minimum(new[:, 1:], label[:, :-1], out=new[:, 1:])
        np.minimum(new[:, :-1], label[:, 1:], out=new[:, :-1])
        new[~mask] = mask.size
        new[mask] = new.reshape(-1)[new[mask]]
        if np.array_equal(new, label):
            return int(np.count_nonzero(label[mask] == index[mask])), label
        label = new


def _normal_equations(part: np.ndarray, anchor, log_gradient, h: float):
    """(L, A^T b) of the least-squares integration of log_gradient over part's graph:
    with incidence A (row e is x_j - x_i), L = A^T A with the anchor's unknown fixed
    at 0, a Stencil on part's padded bounding box, and A^T b a field on that box,
    zero off L.mask, whose row-major order is part's nodes'."""
    rows, cols = (np.flatnonzero(part.any(axis=axis)) for axis in (1, 0))
    box = np.s_[rows[0] - 1:rows[-1] + 2, cols[0] - 1:cols[-1] + 2]
    inside = part[box]
    gx, gy = (np.where(inside, g[box], 0.0) for g in log_gradient)
    anchor = (anchor[0] - box[0].start, anchor[1] - box[1].start)
    edges = _edge_bands(inside)
    free = inside.copy()
    free[anchor] = False
    center = sum(edges.values())
    center[anchor] = 1.0
    lap = Stencil(inside, center, {offset: -w for offset, w
                                   in _edge_bands(free, ((1, 0), (0, 1))).items()})
    # A^T b: the midpoint-rule integrals of the log-gradient along the edges
    # into each node, less those along the edges out of it.
    half_h = 0.5 * h
    out_x = np.where(edges[1, 0], half_h * (gx + neighbor_field(gx, 1, 0)), 0.0)
    out_y = np.where(edges[0, 1], half_h * (gy + neighbor_field(gy, 0, 1)), 0.0)
    atb = (neighbor_field(out_x, -1, 0) + neighbor_field(out_y, 0, -1)) - (out_x + out_y)
    atb[anchor] = 0.0
    return lap, atb


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
    if not (tau > 0.0):
        raise ConfigError(f"threshold must be positive, got tau={tau}")
    if not (0.0 < rtol < 1.0):
        raise ConfigError(f"rtol must lie in (0, 1), got {rtol}")
    grid = data.grid
    if window is None:
        window = default_window(grid)
    if window.grid_n != grid.n:
        raise ConfigError("window grid size does not match the data grid")

    u1, u2 = data.u[0], data.u[1]
    g1x, g1y = gradient(grid, u1)
    g2x, g2y = gradient(grid, u2)
    jac = g1x * g2y
    jac -= g1y * g2x
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

    # The log-gradient in the gradients it consumes: (lap2 g1y - lap1 g2y) / jac and
    # (lap1 g2x - lap2 g1x) / jac, where b - a is -a + b bit for bit.
    with np.errstate(divide="ignore", invalid="ignore"):
        lap = laplacian(grid, u1)
        g2x *= lap
        g2y *= lap
        lap = laplacian(grid, u2)
        gx_log = np.subtract(np.multiply(g1y, lap, out=g1y), g2y, out=g1y)
        gy_log = np.subtract(g2x, np.multiply(g1x, lap, out=g1x), out=g2x)
        gx_log /= jac
        gy_log /= jac
    del g1x, g1y, g2x, g2y, lap, jac

    components, label = _components(region)
    part, reconstructed = region, coverage
    if components > 1:
        part = label == label[aix, aiy]
        reconstructed = float(part.sum()) / window.count
        warnings.warn(
            f"the region splits into {components} components; only the anchor's "
            f"({reconstructed:.1%} of the window) is reconstructed", RuntimeWarning,
            stacklevel=2)
    if part.sum() == 1:
        raise DomainError("the anchor's component of the region has no edges")

    lap, rhs = _normal_equations(part, (aix, aiy), (gx_log, gy_log), grid.h)
    if maxiter is None:
        maxiter = default_maxiter(grid)
    x, iterations, residual = conjugate_gradients(lap, rhs, rtol * np.abs(rhs).max(),
                                                  maxiter)

    if anchor_value is None:
        anchor_value = 0.0 if data.a_true is None else float(np.log(data.a_true[aix, aiy]))
    log_a_hat = np.full((grid.n, grid.n), np.nan)
    log_a_hat[part] = x[lap.mask] + anchor_value
    return ConductivityResult(log_a_hat=log_a_hat, region=region, coverage=coverage,
                              components=components,
                              reconstructed_fraction=reconstructed,
                              integration=SolveInfo("cg", iterations, residual))
