"""Finite differences for  L u = -div(a grad u) + q u  on the unit square.

Scalar diffusion uses the conservative five-point stencil with harmonic-mean
face coefficients; symmetric-matrix diffusion adds the centered cross-term
corners (a nine-point stencil).  Both assemblies are symmetric by
construction: face and corner weights are written with commutative
expressions, so A equals its transpose bit-for-bit.

Dirichlet data is a vector over the boundary walk of the grid.  The solve
contract is a residual guarantee, ||A u_int - rhs||_inf <= rtol * ||rhs||_inf,
checked after every solve.  Three paths meet it:

- A constant five-point stencil (scalar a and q whose assembled diagonal and
  off-diagonal weights are each one value, compared bitwise, since
  harm(a, a) need not round back to a) is diagonalized by the 2-D sine
  transform (DST-I), with eigenvalues d + 2 o (cos(j pi h) + cos(k pi h)).
  The solve is direct, S (S r / lambda) (2 / (n - 1))^2, whatever the sign
  of q, as long as no eigenvalue vanishes; S is built on numpy.fft, which
  importing numpy already loads.
- Other operators certified positive definite take conjugate gradients
  (conjugate_gradients, the loop potential integration in randbc.inverse
  shares) preconditioned by a symmetric geometric-multigrid V-cycle.  CG stops
  on the contract's own inf-norm, confirmed on the true residual, and raises
  SolverError after maxiter iterations.  The certificate
  is a closed-form spectral bound: every harmonic-mean face weight is at least
  min(a)/h^2, so for scalar a

      lambda_min(A) >= min(a) * lambda_1 + min(q),
      lambda_1 = 8 sin^2(pi h / 2) / h^2,

  lambda_1 being the smallest eigenvalue of the five-point Dirichlet
  Laplacian.  Scalar a with min(q) >= -min(a) * lambda_1 / 2 is certified
  (the factor 1/2 is a fixed margin against rounding and poor conditioning).
  The multigrid hierarchy is built once per operator and shared by every
  right-hand side solved with it.
- Sparse LU with iterative refinement serves the rest: matrix a, and q below
  the certificate with a variable stencil.

Only CG reads maxiter; the sine-transform and LU solves are direct.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .errors import ConfigError, DomainError, SolverError
from .grid import Grid2D, SubdomainMask, build_grid

ScalarField = np.ndarray  # (n, n) float array indexed [ix, iy]


def _as_field(grid: Grid2D, value, name: str) -> np.ndarray:
    out = np.asarray(value, dtype=float)
    if out.ndim == 0:
        out = np.full((grid.n, grid.n), float(out))
    if out.shape != (grid.n, grid.n):
        raise ConfigError(f"{name} must be scalar or shape {(grid.n, grid.n)}, got {out.shape}")
    return out


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Diffusion a (scalar or symmetric 2x2 per node) and potential q.

    lambda_bound records the ellipticity constant: eigenvalues of a lie in
    [1/lambda_bound, lambda_bound] and |q| <= lambda_bound.
    """

    a: np.ndarray            # (n, n) or (n, n, 2, 2)
    q: np.ndarray            # (n, n)
    lambda_bound: float

    @property
    def is_scalar(self) -> bool:
        return self.a.ndim == 2

    @classmethod
    def isotropic(cls, grid: Grid2D, a=1.0, q=0.0, lambda_bound=None) -> "CoefficientField":
        a = _as_field(grid, a, "a")
        q = _as_field(grid, q, "q")
        field = cls(a=a, q=q, lambda_bound=_auto_lambda(a, q, lambda_bound))
        field.validate(grid)
        return field

    @classmethod
    def anisotropic(cls, grid: Grid2D, a11, a12, a22, q=0.0,
                    lambda_bound=None) -> "CoefficientField":
        a11 = _as_field(grid, a11, "a11")
        a12 = _as_field(grid, a12, "a12")
        a22 = _as_field(grid, a22, "a22")
        q = _as_field(grid, q, "q")
        a = np.empty((grid.n, grid.n, 2, 2))
        a[..., 0, 0] = a11
        a[..., 0, 1] = a12
        a[..., 1, 0] = a12
        a[..., 1, 1] = a22
        field = cls(a=a, q=q, lambda_bound=_auto_lambda(a, q, lambda_bound))
        field.validate(grid)
        return field

    def min_eigenvalues(self) -> np.ndarray:
        """Nodewise smallest eigenvalue of the diffusion matrix."""
        if self.is_scalar:
            return self.a
        a11 = self.a[..., 0, 0]
        a12 = self.a[..., 0, 1]
        a22 = self.a[..., 1, 1]
        half_tr = 0.5 * (a11 + a22)
        disc = np.sqrt(np.maximum(0.25 * (a11 - a22) ** 2 + a12 ** 2, 0.0))
        return half_tr - disc

    def validate(self, grid: Grid2D) -> None:
        if self.q.shape != (grid.n, grid.n):
            raise ConfigError(f"q has shape {self.q.shape}, expected {(grid.n, grid.n)}")
        expect = (grid.n, grid.n) if self.is_scalar else (grid.n, grid.n, 2, 2)
        if self.a.shape != expect:
            raise ConfigError(f"a has shape {self.a.shape}, expected {expect}")
        if not np.all(np.isfinite(self.a)) or not np.all(np.isfinite(self.q)):
            raise ConfigError("coefficients must be finite")
        if not self.is_scalar and not np.array_equal(self.a[..., 0, 1], self.a[..., 1, 0]):
            raise ConfigError("matrix diffusion must be symmetric at every node")
        lam = self.lambda_bound
        if not (np.isfinite(lam) and lam >= 1.0):
            raise ConfigError(f"ellipticity bound must be finite and >= 1, got {lam}")
        mineig = self.min_eigenvalues()
        # Tolerate roundoff at the binding node when the bound was auto-fitted.
        slack = 1e-12 * max(1.0, lam)
        bad = mineig < 1.0 / lam - slack
        if np.any(bad):
            ix, iy = np.argwhere(bad)[0]
            raise ConfigError(
                f"ellipticity violated at node ({ix}, {iy}): "
                f"min eigenvalue {mineig[ix, iy]:.6g} < 1/lambda = {1.0 / lam:.6g}")
        if np.any(np.abs(self.q) > lam + slack):
            ix, iy = np.argwhere(np.abs(self.q) > lam + slack)[0]
            raise ConfigError(
                f"|q| exceeds lambda at node ({ix}, {iy}): {self.q[ix, iy]:.6g}")

    def is_identity(self) -> bool:
        return self.is_scalar and np.all(self.a == 1.0) and np.all(self.q == 0.0)


def _auto_lambda(a: np.ndarray, q: np.ndarray, given) -> float:
    if given is not None:
        return float(given)
    if a.ndim == 2:
        mineig = a
        amax = np.abs(a).max()
    else:
        a11 = a[..., 0, 0]
        a12 = a[..., 0, 1]
        a22 = a[..., 1, 1]
        half_tr = 0.5 * (a11 + a22)
        mineig = half_tr - np.sqrt(np.maximum(0.25 * (a11 - a22) ** 2 + a12 ** 2, 0.0))
        amax = max(np.abs(a11).max(), np.abs(a12).max(), np.abs(a22).max())
    floor = mineig.min()
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(q)):
        raise ConfigError("coefficients must be finite")
    if floor <= 0.0:
        ix, iy = np.argwhere(mineig <= 0.0)[0]
        raise ConfigError(
            f"diffusion is not elliptic at node ({ix}, {iy}): min eigenvalue {floor:.6g}")
    qmax = np.abs(q).max()
    return float(max(1.0, amax, qmax, 1.0 / floor))


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Interior operator plus the map from boundary values to interior rhs.

    matrix is symmetric CSR over interior nodes in row-major (ix, iy) order;
    boundary_coupling @ g is the right-hand-side contribution of Dirichlet
    data g given along the grid's boundary walk.
    """

    grid: Grid2D
    coeff: CoefficientField
    matrix: sparse.csr_matrix
    boundary_coupling: sparse.csr_matrix
    spd: bool
    stencil: tuple[float, float] | None   # (diagonal, off-diagonal) if constant

    def apply(self, field: ScalarField) -> np.ndarray:
        """L_h applied to a full-grid field; returns (n-2, n-2) interior values."""
        n = self.grid.n
        u_int = np.asarray(field)[1:-1, 1:-1].reshape(-1)
        g = self.grid.boundary_values(field)
        out = self.matrix @ u_int - self.boundary_coupling @ g
        return out.reshape(n - 2, n - 2)

    @cached_property
    def multigrid(self) -> "Multigrid":
        """The V-cycle preconditioner of an SPD operator, built on first use."""
        return Multigrid(self.matrix, self.grid.n - 2)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """(n-2, n-2) eigenvalues of a constant stencil, indexed like the DST-I modes."""
        d, o = self.stencil
        c = np.cos(np.pi * self.grid.h * np.arange(1, self.grid.n - 1))
        return d + 2.0 * o * (c[:, None] + c[None, :])


_SMOOTHING_WEIGHT = 0.8   # damped Jacobi
_COARSEST_SIDE = 8        # factor directly at <= 64 unknowns


def _interpolation_1d(m: int) -> sparse.csr_matrix:
    """Linear interpolation from m // 2 coarse nodes, sitting at the odd fine
    indices, to m fine nodes with zero Dirichlet values beyond either end."""
    j = np.arange(m // 2)
    rows = np.concatenate([2 * j + 1, 2 * j, 2 * j + 2])
    cols = np.concatenate([j, j, j])
    vals = np.repeat([1.0, 0.5, 0.5], j.size)
    keep = rows < m
    return sparse.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(m, j.size))


class Multigrid:
    """Symmetric V-cycle for an SPD interior matrix on a side x side lattice.

    Prolongation is the tensor product of 1-D linear interpolation, coarse
    operators are Galerkin products P^T A P, and each level smooths with one
    damped Jacobi sweep before and one after its coarse correction; the
    coarsest level is factored.  With a symmetric smoother on both sides the
    cycle is a symmetric positive definite map, so it can precondition CG.
    """

    def __init__(self, matrix: sparse.csr_matrix, side: int):
        self.levels = []   # (A, weighted inverse diagonal, P, R = P^T) from fine to coarse
        A = matrix
        while side > _COARSEST_SIDE:
            P1 = _interpolation_1d(side)
            P = sparse.kron(P1, P1, format="csr")
            R = P.T.tocsr()
            self.levels.append((A, _SMOOTHING_WEIGHT / A.diagonal(), P, R))
            # Not R @ A @ P: that product sums in another order and moves bits.
            A = (P.T @ A @ P).tocsr()
            side //= 2
        self.coarsest = spla.splu(A.tocsc())

    def __call__(self, r: np.ndarray, level: int = 0) -> np.ndarray:
        """Apply the cycle from `level` down to the residual r."""
        if level == len(self.levels):
            return self.coarsest.solve(r)
        A, wdinv, P, R = self.levels[level]
        x = wdinv * r
        x += P @ self(R @ (r - A @ x), level + 1)
        x += wdinv * (r - A @ x)
        return x


def _harm(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    # Commutative in floating point, so facing rows agree bit-for-bit.
    return (2.0 * (p * r)) / (p + r)


def laplacian_floor(grid: Grid2D) -> float:
    """Smallest eigenvalue of the five-point Dirichlet Laplacian -Delta_h."""
    return 8.0 * np.sin(0.5 * np.pi * grid.h) ** 2 / (grid.h * grid.h)


def assemble(grid: Grid2D, coeff: CoefficientField) -> DiscreteOperator:
    """Assemble the interior system and the boundary-coupling map."""
    coeff.validate(grid)
    n = grid.n
    h2 = grid.h * grid.h
    ix, iy = np.meshgrid(np.arange(1, n - 1), np.arange(1, n - 1), indexing="ij")
    q_c = coeff.q[ix, iy]

    if coeff.is_scalar:
        a = coeff.a
        a_c = a[ix, iy]
        west = _harm(a[ix - 1, iy], a_c) / h2
        east = _harm(a[ix + 1, iy], a_c) / h2
        south = _harm(a[ix, iy - 1], a_c) / h2
        north = _harm(a[ix, iy + 1], a_c) / h2
        center = west + east + south + north + q_c
        offsets = [(-1, 0, -west), (1, 0, -east), (0, -1, -south), (0, 1, -north),
                   (0, 0, center)]
    else:
        a11 = coeff.a[..., 0, 0]
        a12 = coeff.a[..., 0, 1]
        a22 = coeff.a[..., 1, 1]
        west = _harm(a11[ix - 1, iy], a11[ix, iy]) / h2
        east = _harm(a11[ix + 1, iy], a11[ix, iy]) / h2
        south = _harm(a22[ix, iy - 1], a22[ix, iy]) / h2
        north = _harm(a22[ix, iy + 1], a22[ix, iy]) / h2
        quarter = 0.25 / h2
        ne = -(a12[ix + 1, iy] + a12[ix, iy + 1]) * quarter
        sw = -(a12[ix - 1, iy] + a12[ix, iy - 1]) * quarter
        se = (a12[ix + 1, iy] + a12[ix, iy - 1]) * quarter
        nw = (a12[ix - 1, iy] + a12[ix, iy + 1]) * quarter
        center = west + east + south + north + q_c
        offsets = [(-1, 0, -west), (1, 0, -east), (0, -1, -south), (0, 1, -north),
                   (1, 1, ne), (-1, -1, sw), (1, -1, se), (-1, 1, nw),
                   (0, 0, center)]

    m = (n - 2) ** 2
    row_idx = ((ix - 1) * (n - 2) + (iy - 1)).reshape(-1)
    border_pos = np.full((n, n), -1, dtype=np.int64)
    border_pos[grid.boundary_ix, grid.boundary_iy] = np.arange(grid.boundary_count)

    rows_ii, cols_ii, vals_ii = [], [], []
    rows_ib, cols_ib, vals_ib = [], [], []
    for dx, dy, weight in offsets:
        cx = (ix + dx).reshape(-1)
        cy = (iy + dy).reshape(-1)
        w = np.asarray(weight).reshape(-1)
        inner = (cx >= 1) & (cx <= n - 2) & (cy >= 1) & (cy <= n - 2)
        rows_ii.append(row_idx[inner])
        cols_ii.append((cx[inner] - 1) * (n - 2) + (cy[inner] - 1))
        vals_ii.append(w[inner])
        outer = ~inner
        rows_ib.append(row_idx[outer])
        cols_ib.append(border_pos[cx[outer], cy[outer]])
        vals_ib.append(w[outer])

    matrix = sparse.coo_matrix(
        (np.concatenate(vals_ii), (np.concatenate(rows_ii), np.concatenate(cols_ii))),
        shape=(m, m)).tocsr()
    coupling = -sparse.coo_matrix(
        (np.concatenate(vals_ib), (np.concatenate(rows_ib), np.concatenate(cols_ib))),
        shape=(m, grid.boundary_count)).tocsr()
    spd = bool(coeff.is_scalar
               and coeff.q.min() >= -0.5 * coeff.a.min() * laplacian_floor(grid))
    stencil = None
    if coeff.is_scalar:
        # Compared on the assembled weights: _harm(a, a) need not round back to a.
        w, d = west.flat[0], center.flat[0]
        if all(np.all(f == w) for f in (west, east, south, north)) and np.all(center == d):
            stencil = (float(d), float(-w))
    return DiscreteOperator(grid=grid, coeff=coeff, matrix=matrix,
                            boundary_coupling=coupling, spd=spd, stencil=stencil)


@dataclass
class SolveInfo:
    method: str
    iterations: int
    residual_inf: float


def _dst1_rows(x: np.ndarray) -> np.ndarray:
    """Unnormalized DST-I of each row, sum_i x_i sin(pi i k / (m + 1)), from the
    FFT of the odd extension [0, x, 0, -reversed x]."""
    k, m = x.shape
    ext = np.zeros((k, 2 * (m + 1)))
    ext[:, 1:m + 1] = x
    ext[:, m + 2:] = -x[:, ::-1]
    return -0.5 * np.fft.rfft(ext).imag[:, 1:m + 1]


def _dst1_2d(x: np.ndarray) -> np.ndarray:
    """2-D DST-I of a square array; the transform is symmetric, so S x S."""
    return _dst1_rows(_dst1_rows(x).T).T


def conjugate_gradients(matrix, rhs: np.ndarray, target: float, maxiter: int,
                        precond=None) -> tuple[np.ndarray, int, float]:
    """Solve matrix x = rhs for SPD matrix by (preconditioned) CG from x = 0.

    Stops once the recurrence residual has ||r||_inf <= target, then checks the
    true residual ||rhs - matrix x||_inf; if that misses the target it replaces
    the recurrence residual and the iteration goes on.  Returns (x, iterations,
    true residual); raises SolverError at maxiter or when r.z is not finite.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = r if precond is None else precond(r)
    p = z.copy()
    rz = r @ z
    res = np.abs(r).max()
    iterations = 0
    while not res <= target:
        if iterations == maxiter or not np.isfinite(rz):
            res = np.abs(rhs - matrix @ x).max()
            raise SolverError(
                f"conjugate gradients stalled after {iterations} iterations: "
                f"residual {res:.3e} > target {target:.3e}",
                residual=res, iterations=iterations)
        Ap = matrix @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        iterations += 1
        res = np.abs(r).max()
        if res <= target:
            r = rhs - matrix @ x
            res = np.abs(r).max()
            if res <= target:
                break
        z = r if precond is None else precond(r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return x, iterations, float(res)


def _solve_interior(op: DiscreteOperator, rhs: np.ndarray, rtol: float,
                    maxiter) -> tuple[np.ndarray, SolveInfo]:
    scale = np.abs(rhs).max() if rhs.size else 0.0
    if scale == 0.0:
        return np.zeros_like(rhs), SolveInfo("trivial", 0, 0.0)
    if maxiter is None:
        maxiter = 20 * op.grid.n
    target = rtol * scale
    if op.stencil is not None:
        m = op.grid.n - 2
        x = (_dst1_2d(_dst1_2d(rhs.reshape(m, m)) / op.eigenvalues)
             * (2.0 / (m + 1)) ** 2).reshape(-1)
        res = np.abs(op.matrix @ x - rhs).max()
        if not res <= target:
            raise SolverError(f"sine-transform solve residual {res:.3e} > target "
                              f"{target:.3e}", residual=res, iterations=0)
        return x, SolveInfo("dst", 0, float(res))
    if op.spd:
        x, iters, res = conjugate_gradients(op.matrix, rhs, target, maxiter, op.multigrid)
        return x, SolveInfo("cg-multigrid", iters, res)
    try:
        lu = spla.splu(op.matrix.tocsc())
    except RuntimeError as exc:
        raise SolverError(f"direct factorization failed: {exc}", residual=np.inf) from exc
    x = lu.solve(rhs)
    res = np.abs(op.matrix @ x - rhs).max()
    refinements = 0
    while res > target and refinements < 3:
        x = x + lu.solve(rhs - op.matrix @ x)
        res = np.abs(op.matrix @ x - rhs).max()
        refinements += 1
    if not res <= target:
        raise SolverError(
            f"direct solve residual {res:.3e} > target {target:.3e} "
            f"after {refinements} refinement steps", residual=res, iterations=refinements)
    return x, SolveInfo("lu", refinements, float(res))


def solve_dirichlet(op: DiscreteOperator, g, rtol: float = 1e-10, maxiter=None,
                    forcing=None, want_info: bool = False):
    """Solve L u = forcing with Dirichlet trace g along the boundary walk.

    g has one value per boundary-walk node; forcing (optional) is a full-grid
    field read at interior nodes.  Returns the full (n, n) solution field.
    """
    grid = op.grid
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.boundary_count,):
        raise ConfigError(
            f"boundary data must have shape ({grid.boundary_count},), got {g.shape}")
    if not np.all(np.isfinite(g)):
        raise DomainError("boundary data must be finite")
    if not (rtol > 0.0):
        raise ConfigError(f"rtol must be positive, got {rtol}")
    rhs = op.boundary_coupling @ g
    if forcing is not None:
        forcing = np.asarray(forcing, dtype=float)
        if forcing.shape != (grid.n, grid.n):
            raise ConfigError(f"forcing must have shape {(grid.n, grid.n)}")
        if not np.all(np.isfinite(forcing)):
            raise DomainError("forcing must be finite")
        rhs = rhs + forcing[1:-1, 1:-1].reshape(-1)
    x, info = _solve_interior(op, rhs, rtol, maxiter)
    u = np.zeros((grid.n, grid.n))
    u[1:-1, 1:-1] = x.reshape(grid.n - 2, grid.n - 2)
    u[grid.boundary_ix, grid.boundary_iy] = g
    if want_info:
        return u, info
    return u


@lru_cache(maxsize=8)
def _laplace_operator_cached(n: int) -> DiscreteOperator:
    grid = build_grid(n)
    return assemble(grid, CoefficientField.isotropic(grid))


def laplace_operator(grid: Grid2D) -> DiscreteOperator:
    """The (-Laplace) operator on this grid size, cached across calls."""
    return _laplace_operator_cached(grid.n)


def solve_poisson(grid: Grid2D, rhs, g, rtol: float = 1e-10, maxiter=None) -> ScalarField:
    """Solve  Delta u = rhs  with Dirichlet trace g (note the sign: Delta, not -Delta)."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (grid.n, grid.n):
        raise ConfigError(f"rhs must have shape {(grid.n, grid.n)}, got {rhs.shape}")
    if not np.all(np.isfinite(rhs)):
        raise DomainError("Poisson right-hand side must be finite")
    op = laplace_operator(grid)
    return solve_dirichlet(op, g, rtol=rtol, maxiter=maxiter, forcing=-rhs)


def gradient(grid: Grid2D, field: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Central differences inside, second-order one-sided at the edges."""
    f = np.asarray(field, dtype=float)
    if f.shape != (grid.n, grid.n):
        raise ConfigError(f"field must have shape {(grid.n, grid.n)}, got {f.shape}")
    gx, gy = np.gradient(f, grid.h, edge_order=2)
    return gx, gy


def laplacian(grid: Grid2D, field: ScalarField) -> np.ndarray:
    """Five-point discrete Laplacian; zero on the boundary ring."""
    f = np.asarray(field, dtype=float)
    if f.shape != (grid.n, grid.n):
        raise ConfigError(f"field must have shape {(grid.n, grid.n)}, got {f.shape}")
    out = np.zeros_like(f)
    out[1:-1, 1:-1] = (f[2:, 1:-1] + f[:-2, 1:-1] + f[1:-1, 2:] + f[1:-1, :-2]
                       - 4.0 * f[1:-1, 1:-1]) / (grid.h * grid.h)
    return out


@dataclass(frozen=True)
class FieldNorms:
    l2: float
    h1: float
    linf: float


def norms(grid: Grid2D, field: ScalarField, mask: SubdomainMask) -> FieldNorms:
    """Lattice L2, H1 and sup norms over a mask (L2 weight h^2 per node)."""
    if mask.count == 0:
        raise DomainError("cannot take norms over an empty mask")
    if mask.grid_n != grid.n:
        raise ConfigError(f"mask was built for n={mask.grid_n}, grid has n={grid.n}")
    f = np.asarray(field, dtype=float)
    vals = f[mask.indices]
    h2 = grid.h * grid.h
    l2sq = h2 * float(np.sum(vals ** 2))
    gx, gy = gradient(grid, f)
    gsq = h2 * float(np.sum(gx[mask.indices] ** 2 + gy[mask.indices] ** 2))
    return FieldNorms(l2=np.sqrt(l2sq), h1=np.sqrt(l2sq + gsq),
                      linf=float(np.abs(vals).max()))


def save_field_csv(grid: Grid2D, field: ScalarField, path) -> None:
    """Write x,y,value rows (row-major in x) with full float precision."""
    f = np.asarray(field, dtype=float)
    if f.shape != (grid.n, grid.n):
        raise ConfigError(f"field must have shape {(grid.n, grid.n)}, got {f.shape}")
    coords = [repr(x) for x in grid.xs.tolist()]
    # The bytes csv.writer would emit: unquoted fields, "\r\n" line ends.
    with open(path, "w", newline="") as fh:
        fh.write("x,y,value\r\n")
        for x, row in zip(coords, f.tolist()):
            fh.write("".join([f"{x},{y},{v!r}\r\n" for y, v in zip(coords, row)]))


def load_field_csv(path) -> tuple[Grid2D, ScalarField]:
    """Inverse of save_field_csv."""
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    if data.ndim != 2 or data.shape[1] != 3:
        raise ConfigError(f"{path} is not an x,y,value field file")
    count = data.shape[0]
    n = int(round(np.sqrt(count)))
    if n * n != count:
        raise ConfigError(f"{path} holds {count} rows, not a square lattice")
    grid = build_grid(n)
    return grid, data[:, 2].reshape(n, n)
