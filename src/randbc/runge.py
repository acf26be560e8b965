"""Quantitative interior approximation from global solutions.

A dictionary gives the solutions z_k of L z_k = 0 whose boundary data are the
basis elements e_k.  build_dictionary() assembles the operator once and keeps
no solution field: z is an OnDemand whose z[k] solves mode k when it is read,
into temporaries each reading thread reuses, and returns a new field, so each
reader reduces the K fields as it goes (the disk block of the normal
equations, a target's one member) and memory does not grow with K n^2.  Given
a local target h solving the same equation on a disk D, tradeoff_curve()
finds, at each weight lambda of a sweep, coefficients c minimizing

    || sum_k c_k z_k - h ||_{L2(D)}^2 + lambda * sum_k c_k^2 / sigma_k^2,

by a dense eigendecomposition of the normal equations (numpy.linalg.eigh;
eigenvalues floored at 1e-14 * trace).  Small lambda buys interior accuracy
eps at the price of a large weighted boundary cost; the sweep traces that
exchange.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .boundary import RandomBoundaryModel
from .errors import ConfigError, DomainError
from .grid import Grid2D, SubdomainMask
from .solver import (CoefficientField, DiscreteOperator, OnDemand, assemble, laplacian,
                     norms, root_sum_squares, solve_dirichlet)

TARGET_KINDS = ("dictionary_member", "fundamental_solution", "harmonic_poly")


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Basis solutions: z[k] solves the PDE with boundary data e_{k+1}.

    z is an OnDemand from build_dictionary, or a (K, n, n) array of solved
    fields; every reader takes z[k] once per k.
    """

    grid: Grid2D
    coeff: CoefficientField
    model: RandomBoundaryModel
    z: Sequence                 # OnDemand, or a (K, n, n) array
    operator: DiscreteOperator

    @property
    def K(self) -> int:
        return len(self.z)


def build_dictionary(grid: Grid2D, coeff: CoefficientField,
                     model: RandomBoundaryModel, rtol: float = 1e-11) -> Dictionary:
    """Assemble the operator of the model's K basis problems, which are
    solved when read (the only PDE solves experiments need)."""
    op = assemble(grid, coeff)
    data = model.basis.evaluate(grid)       # (K, boundary_count) boundary values e_k
    local = threading.local()               # .work: this thread's solve temporaries

    def solve_k(k):
        work = getattr(local, "work", None)
        if work is None:
            work = local.work = {}
        return solve_dirichlet(op, data[k], rtol=rtol, work=work)

    return Dictionary(grid=grid, coeff=coeff, model=model,
                      z=OnDemand(solve_k, range(model.K)), operator=op)


@dataclass(frozen=True, eq=False)
class LocalTarget:
    """A field solving the local equation on a disk D, with its H1(D) size."""

    kind: str
    h: np.ndarray               # full-grid values (only D and a 1-ring matter)
    disk: SubdomainMask
    h1_norm: float
    residual_rel: float
    params: dict
    needs_identity: bool


def _interior_sub(mask: SubdomainMask, grid: Grid2D) -> SubdomainMask:
    """Nodes of the mask whose four neighbors are also members (stencil-safe)."""
    m = mask.member
    inner = np.zeros_like(m)
    inner[1:-1, 1:-1] = (m[1:-1, 1:-1] & m[2:, 1:-1] & m[:-2, 1:-1]
                         & m[1:-1, 2:] & m[1:-1, :-2])
    return SubdomainMask(member=inner, kind=mask.kind,
                         params=dict(mask.params, shrunk=True), grid_n=grid.n)


def make_target(kind: str, grid: Grid2D, disk: SubdomainMask, *,
                dictionary: Dictionary | None = None, index: int = 1,
                pole=(0.9, 0.9), degree: int = 2, part: str = "re") -> LocalTarget:
    """Build a target with a verified local residual (<= 100 h^2 relative)."""
    if kind not in TARGET_KINDS:
        raise ConfigError(f"unknown target kind {kind!r}; pick one of {TARGET_KINDS}")
    if disk.kind != "disk":
        raise ConfigError("targets are defined on disk masks")
    if disk.grid_n != grid.n:
        raise ConfigError(f"disk was built for n={disk.grid_n}, grid has n={grid.n}")

    needs_identity = False
    if kind == "dictionary_member":
        if dictionary is None:
            raise ConfigError("dictionary_member target needs a dictionary")
        if dictionary.grid.n != grid.n:
            raise ConfigError("dictionary grid does not match")
        if not (1 <= index <= dictionary.K):
            raise ConfigError(f"member index {index} outside 1..{dictionary.K}")
        h = dictionary.z[index - 1].copy()
        params = {"index": int(index)}
    elif kind == "fundamental_solution":
        px, py = float(pole[0]), float(pole[1])
        if not (0.0 < px < 1.0 and 0.0 < py < 1.0):
            raise ConfigError(f"pole {pole!r} must lie strictly inside the square")
        cx, cy = disk.params["center"]
        radius = disk.params["radius"]
        if (px - cx) ** 2 + (py - cy) ** 2 <= radius * radius:
            raise ConfigError(f"pole {pole!r} lies inside the closed target disk")
        rsq = (grid.X - px) ** 2 + (grid.Y - py) ** 2
        with np.errstate(divide="ignore"):
            h = -np.log(rsq) / (4.0 * np.pi)
        params = {"pole": (px, py)}
        needs_identity = True
    else:
        degree = int(degree)
        if not (0 <= degree <= 4):
            raise ConfigError(f"harmonic polynomial degree must be 0..4, got {degree}")
        if part not in ("re", "im"):
            raise ConfigError(f"part must be 're' or 'im', got {part!r}")
        zpow = (grid.X + 1j * grid.Y) ** degree
        h = zpow.real.copy() if part == "re" else zpow.imag.copy()
        params = {"degree": degree, "part": part}
        needs_identity = True

    size = norms(grid, h, disk)
    h1 = size.h1 if size.h1 > 0.0 else 1.0
    inner = _interior_sub(disk, grid)
    if kind == "dictionary_member":
        # L_h h in units of a's scale, max |diag L_h| h^2 / 4 (1 for -Laplace)
        unit = float(np.abs(dictionary.operator.matrix.center).max()) * grid.h * grid.h / 4.0
        resid_field = np.zeros((grid.n, grid.n))
        resid_field[1:-1, 1:-1] = dictionary.operator.apply(h) / unit
    else:
        resid_field = -laplacian(grid, h)
    if inner.count:
        rvals = resid_field[inner.indices]
        resid = float(np.sqrt(grid.h * grid.h * np.sum(rvals ** 2))) / h1
    else:
        resid = 0.0
    if resid > 100.0 * grid.h * grid.h:
        raise DomainError(
            f"target does not satisfy the local equation: relative residual "
            f"{resid:.3e} > {100.0 * grid.h * grid.h:.3e} (pole too close to the disk?)")
    return LocalTarget(kind=kind, h=h, disk=disk, h1_norm=float(h1),
                       residual_rel=resid, params=params,
                       needs_identity=needs_identity)


@dataclass(frozen=True)
class RungeResult:
    c: np.ndarray
    eps_achieved: float
    boundary_cost: float
    lam: float
    floored_modes: int


def _normal_equations(target: LocalTarget, dictionary: Dictionary):
    """Check that target and dictionary fit; gather the dictionary and target
    values on the disk, Zd (K, m) and hv (m,), and form the Gram system
    G = h^2 Zd Zd^T, b = h^2 Zd hv.  Each z[k] is read once."""
    grid = dictionary.grid
    if target.disk.grid_n != grid.n:
        raise ConfigError("target and dictionary live on different grids")
    if target.needs_identity and not dictionary.coeff.is_identity():
        raise ConfigError(
            f"{target.kind} targets solve the constant-coefficient equation; "
            "the dictionary was built with different coefficients")
    if np.any(dictionary.model.sigma <= 0.0):
        raise ConfigError("approximation needs strictly positive weights sigma_k")

    idx = target.disk.indices
    # Filled (m, K) and used transposed: the layout of a cube's z[:, ix, iy],
    # which the Gram and residual products' rounding depends on.
    Zd = np.empty((idx[0].size, dictionary.K))
    for k in range(dictionary.K):
        Zd[:, k] = dictionary.z[k][idx]
    Zd = Zd.T                                     # (K, m)
    hv = target.h[idx]
    h2 = grid.h * grid.h
    G = h2 * (Zd @ Zd.T)
    G = 0.5 * (G + G.T)
    b = h2 * (Zd @ hv)
    return Zd, hv, G, b


def _tikhonov(target: LocalTarget, dictionary: Dictionary, system,
              lam: float) -> RungeResult:
    """The sweep's point at weight lam from the Gram system of _normal_equations."""
    Zd, hv, G, b = system
    sigma = dictionary.model.sigma
    h2 = dictionary.grid.h * dictionary.grid.h
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        M = G + lam * np.diag(1.0 / sigma ** 2)
    if not np.isfinite(M).all():
        raise ConfigError(f"regularization lambda / sigma^2 overflows at lambda = {lam:.6g} "
                          f"(smallest sigma {sigma.min():.6g})")

    w, V = np.linalg.eigh(M)
    floor = 1e-14 * float(np.trace(M))
    floored = int(np.sum(w < floor))
    w = np.maximum(w, floor)
    c = V @ ((V.T @ b) / w)

    resid = Zd.T @ c - hv
    eps = float(np.sqrt(h2 * np.sum(resid ** 2))) / target.h1_norm
    cost = float(root_sum_squares(c / sigma)) / target.h1_norm
    return RungeResult(c=c, eps_achieved=eps, boundary_cost=cost, lam=lam,
                       floored_modes=floored)


def tradeoff_curve(target: LocalTarget, dictionary: Dictionary, lambdas):
    """The minimizer at each lambda of a descending positive sweep, with
    eps_achieved = ||sum c_k z_k - h||_{L2(D)} / ||h||_{H1(D)} and
    boundary_cost = (sum c_k^2 / sigma_k^2)^{1/2} / ||h||_{H1(D)}; the Gram
    system is formed once and each lambda takes its own eigendecomposition."""
    lams = [float(x) for x in lambdas]
    if len(lams) == 0:
        return []
    if any(not (x > 0.0) for x in lams):
        raise ConfigError("lambda sweep values must be positive")
    if any(b >= a for a, b in zip(lams, lams[1:])):
        raise ConfigError("lambda sweep must be strictly descending")
    system = _normal_equations(target, dictionary)
    return [_tikhonov(target, dictionary, system, lam) for lam in lams]
