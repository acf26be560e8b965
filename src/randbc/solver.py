"""Finite differences for  L u = -div(a grad u) + q u  on the unit square.

Scalar diffusion uses the conservative five-point stencil with harmonic-mean
face coefficients; symmetric-matrix diffusion adds the centered cross-term
corners (a nine-point stencil).  Both assemblies are symmetric by
construction: face and corner weights are written with commutative
expressions, and the operator is a Stencil that stores each coupling once,
so A equals its transpose bit-for-bit.  A weight that overflows (harmonic
means of a above about 1.3e154) or may underflow (a below about 1.5e-154,
where a product of two a leaves the normal floats) is a ConfigError.
Everything here runs on numpy alone except the LU backstop, which imports
scipy inside its branch and reads CSC off the Stencil's bands there.

Dirichlet data g come as a vector along the grid's boundary walk; every
vector the solves compute on is an (n, n) lattice field.  A Stencil keeps
L_h's weights at every node, the ring's couplings to the interior included,
and its product is a sum of shifted 1-D slices with a zero ring.  On a field
u holding g on its ring, that product is L_h u inside (DiscreteOperator.apply);
on the field holding g alone it is the data's coupling, and the right-hand
side is b + forcing with b = 0.0 - A [g on the ring]: subtracted from +0.0,
so that a coupling that sums to zero reads +0.0.  boundary_coupling @ g is
b's interior as a vector over the unknowns.  No solve reads it; it stays for
readers of the coupled data alone (the benchmark's tracer and reference
builder).  The solve contract is a residual guarantee, ||A u_int - rhs||_inf
<= rtol * (||b||_inf + ||forcing||_inf), checked after every solve: a scale
that b and forcing cannot cancel, so roundoff in a solution driven by large
terms of opposite sign meets it.  Three paths meet it, and a fourth backs
the last:

- A constant five-point stencil (decided on the coefficients alone: scalar a
  that is one value off the four corners and q that is one value inside; its
  diagonal and off-diagonal weights d and o come from the same arithmetic on
  a 3 x 3 patch, since harm(a, a) need not round back to a, and its Stencil
  holds them as zero-stride broadcasts) is diagonalized by the 2-D sine
  transform (DST-I), with eigenvalues d + 2 o (cos(j pi h) + cos(k pi h)),
  formed a block of rows at a time.
  The solve is direct, S (S r / lambda) (2 / (n - 1))^2, whatever the sign
  of q, as long as no eigenvalue vanishes; S is built on numpy.fft, which
  importing numpy already loads.  The Dirichlet part of r is -o g on the
  rows and columns next to the ring and zero elsewhere, so its transform is
  taken in closed form (Buzbee, Golub & Nielson 1970): with the sides
  L, R, B, T = u[1:-1, 0], u[1:-1, -1], u[0, 1:-1], u[-1, 1:-1] of the
  assembled u and s_1, s_m the first and last rows of S,

      S r S = S(-o L) (x) s_1 + S(-o R) (x) s_m + s_1 (x) S(-o B) + s_m (x) S(-o T),

  four 1-D transforms in one batch; only a forcing term takes a 2-D forward
  transform, read in place.  No (n-2, n-2) right-hand side is formed: the
  coupled data live on the border of the block of unknowns, so max |b| is
  taken there.  The residual is L_h u - forcing, one Stencil product, the
  form of apply.
- Other operators certified positive definite take conjugate gradients
  (conjugate_gradients, the loop potential integration in randbc.inverse
  shares) preconditioned by the same sine transform between two diagonal
  scalings (Concus & Golub 1973): M^-1 r = s S (S (s r) / lambda) (2 / (n - 1))^2
  with s = (h^2 / 4 diag A)^(-1/2), so that s A s has the Laplacian's diagonal
  4 / h^2, and lambda the eigenvalues of the stencil (4 / h^2 + max(0,
  mean(q s^2)), -1 / h^2).  For a Lipschitz a the iteration count does not
  grow with n; for a discontinuous a of high contrast it does.  CG stops on
  the contract's own inf-norm, confirmed on the true residual, and raises
  SolverError after maxiter iterations.  The certificate is a closed-form
  spectral bound: every harmonic-mean face weight is at least min(a)/h^2, so
  for scalar a

      lambda_min(A) >= min(a) * lambda_1 + min(q),
      lambda_1 = 8 sin^2(pi h / 2) / h^2,

  lambda_1 being the smallest eigenvalue of the five-point Dirichlet
  Laplacian.  Scalar a with min(q) >= -min(a) * lambda_1 / 2 is certified
  (the factor 1/2 is a fixed margin against rounding and poor conditioning),
  and it keeps diag A positive.  The preconditioner is built once per
  operator and shared by every solve, each of which holds its own buffers.
- MINRES (minres; Paige & Saunders 1975) serves the rest: matrix a, and q
  below the certificate with a variable stencil, definite or not, as long
  as 0 is not an eigenvalue.  Its preconditioner is the same transform
  with s read off the diffusion part D of diag A (always positive, where q
  may make the whole diagonal vanish or change sign), s = (h^2 / 4 D)^(-1/2),
  and lambda the absolute values of the eigenvalues of (4 / h^2 + mean(q s^2),
  -1 / h^2), floored at lambda_1: the inverse of the modulus of the
  constant-coefficient model, exact for it, SPD, and with no resonance of
  the model left to grow.  It stops as CG does.
- Sparse LU with iterative refinement (scipy's splu) takes over where MINRES
  misses the target within maxiter: potentials so far below the spectrum of
  -div(a grad) that the model is far from A (q = -4096 (1 + x) at n = 33, or
  -1e5 (1 + x) at n = 129).  It solves the interior of the right-hand side
  and checks rhs - A u on the lattice as the Krylov loops do.  A singular
  operator (q = -lambda_k of -div(a grad)) has no solution to converge to:
  both fail, MINRES at maxiter.

CG and MINRES read maxiter (default_maxiter when None); the sine-transform
and LU solves are direct.

solve_dirichlet is the one solve entry: solve_poisson (Delta u = rhs, so
L u = -rhs for L = -Delta) returns -v for the solve of L v = rhs with trace -g,
bitwise the same u, as every step of the three paths is odd in (g, forcing).
OnDemand is the sequence of solves that are made when read (a dictionary's
basis solutions, a set of illuminations): nothing of size n^2 is kept per item.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, SolverError
from .grid import Grid2D, SubdomainMask, build_grid

ScalarField = np.ndarray  # (n, n) float array indexed [ix, iy]

_DST_ROWS = 32      # rows per FFT batch of a sine transform


def _as_field(grid: Grid2D, value, name: str) -> np.ndarray:
    """value as an (n, n) field; a scalar becomes a read-only broadcast view."""
    out = np.asarray(value, dtype=float)
    if out.ndim == 0:
        out = np.broadcast_to(out, (grid.n, grid.n))
    if out.shape != (grid.n, grid.n):
        raise ConfigError(f"{name} must be scalar or shape {(grid.n, grid.n)}, got {out.shape}")
    return out


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Diffusion a (scalar or symmetric 2x2 per node) and potential q, checked
    once when made: q is (n, n), a is (n, n) or (n, n, 2, 2), both finite, and
    a is symmetric with a positive smallest eigenvalue at every node."""

    a: np.ndarray            # (n, n) or (n, n, 2, 2)
    q: np.ndarray            # (n, n)

    def __post_init__(self):
        a, q = self.a, self.q
        if q.ndim != 2 or a.shape not in (q.shape, q.shape + (2, 2)):
            raise ConfigError(f"a has shape {a.shape} and q {q.shape}; expected "
                              "q (n, n) and a (n, n) or (n, n, 2, 2)")
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(q)):
            raise ConfigError("coefficients must be finite")
        if a.ndim == 4 and not np.array_equal(a[..., 0, 1], a[..., 1, 0]):
            raise ConfigError("matrix diffusion must be symmetric at every node")
        # The smallest eigenvalue of a at each node.
        mineig = a if a.ndim == 2 else 0.5 * (a[..., 0, 0] + a[..., 1, 1]) - np.sqrt(
            np.maximum(0.25 * (a[..., 0, 0] - a[..., 1, 1]) ** 2 + a[..., 0, 1] ** 2, 0.0))
        if np.any(mineig <= 0.0):
            ix, iy = np.argwhere(mineig <= 0.0)[0]
            raise ConfigError(f"diffusion is not elliptic at node ({ix}, {iy}): "
                              f"min eigenvalue {mineig.min():.6g}")

    @property
    def is_scalar(self) -> bool:
        return self.a.ndim == 2

    @classmethod
    def isotropic(cls, grid: Grid2D, a=1.0, q=0.0) -> "CoefficientField":
        return cls(a=_as_field(grid, a, "a"), q=_as_field(grid, q, "q"))

    @classmethod
    def anisotropic(cls, grid: Grid2D, a11, a12, a22, q=0.0) -> "CoefficientField":
        a11 = _as_field(grid, a11, "a11")
        a12 = _as_field(grid, a12, "a12")
        a22 = _as_field(grid, a22, "a22")
        a = np.empty((grid.n, grid.n, 2, 2))
        a[..., 0, 0] = a11
        a[..., 0, 1] = a12
        a[..., 1, 0] = a12
        a[..., 1, 1] = a22
        return cls(a=a, q=_as_field(grid, q, "q"))

    def is_identity(self) -> bool:
        return self.is_scalar and np.all(self.a == 1.0) and np.all(self.q == 0.0)


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """The operator L_h on the lattice of one grid.

    matrix is a symmetric Stencil on the interior nodes, the ring's couplings
    to them included.  A constant stencil (stencil = (d, o), decided from the
    coefficients) holds d and o as zero-stride (n, n) broadcasts, so its
    matrix keeps no lattice field.
    """

    grid: Grid2D
    coeff: CoefficientField
    spd: bool
    stencil: tuple[float, float] | None   # (diagonal, off-diagonal) if constant
    matrix: "Stencil"

    @property
    def boundary_coupling(self) -> "_BoundaryCoupling":
        """A view whose @ g is the (n-2)^2 interior right-hand side of Dirichlet
        data g along the boundary walk, in row-major order (see the module
        docstring); it holds nothing and solves nothing."""
        return _BoundaryCoupling(self)

    def apply(self, field: ScalarField) -> np.ndarray:
        """L_h u at the interior nodes, (n-2, n-2), for a full-grid field u that
        holds its Dirichlet values on the ring: one Stencil product."""
        u = np.ascontiguousarray(field, dtype=float)
        return self.matrix.product(u, np.empty_like(u), np.empty_like(u))[1:-1, 1:-1]

    @cached_property
    def preconditioner(self) -> Callable[..., np.ndarray]:
        """The Krylov solves' M^-1 on lattice fields (see the module docstring),
        built on first use, SPD as every lambda is positive.  apply(r, out=None,
        work=None) writes M^-1 r into out, its transform into work's buffer."""
        n, h2 = self.grid.n, self.grid.h * self.grid.h
        # MINRES scales by the diffusion part of diag A, which is positive
        # where q makes the whole diagonal vanish or change sign.
        diagonal = (self.matrix.center if self.spd
                    else _weights(self.grid.h, self.coeff.a, 0.0)[0])
        scale = (0.25 * h2 * diagonal.reshape(n, n)[1:-1, 1:-1]) ** -0.5
        shift = float(np.mean(self.coeff.q[1:-1, 1:-1] * scale ** 2))
        if self.spd:
            eigenvalues = _stencil_eigenvalues(self.cosines, 4.0 / h2 + max(0.0, shift),
                                               -1.0 / h2)
        else:
            eigenvalues = _stencil_eigenvalues(self.cosines, 4.0 / h2 + shift, -1.0 / h2)
            np.abs(eigenvalues, out=eigenvalues)
            np.maximum(eigenvalues, laplacian_floor(self.grid), out=eigenvalues)

        def apply(r: np.ndarray, out=None, work: dict | None = None) -> np.ndarray:
            z = (np.empty(n * n) if out is None else out).reshape(n, n)
            z[[0, -1]] = z[:, [0, -1]] = 0.0
            inner, buf = z[1:-1, 1:-1], _scratch(work, "transform", scale.shape)
            np.multiply(scale, r.reshape(n, n)[1:-1, 1:-1], out=inner)
            sxs = _dst1_2d(inner, work, buf, out=inner)
            sxs /= eigenvalues
            np.multiply(scale, _sine_solve(sxs, work, out=buf), out=inner)
            return z.reshape(r.shape)
        return apply

    @cached_property
    def cosines(self) -> np.ndarray:
        """cos(j pi h), j = 1 .. n-2: the DST-I modes' part of a stencil's eigenvalues."""
        return np.cos(np.pi * self.grid.h * np.arange(1, self.grid.n - 1))

    @cached_property
    def edge_sines(self) -> np.ndarray:
        """(2, n-2) rows s_1[p] = sin(pi p / (m + 1)) and s_m[p] = sin(pi p m / (m + 1)),
        m = n - 2: the DST-I modes at the first and last interior rows."""
        m = self.grid.n - 2
        p = np.arange(1, m + 1)
        # Angles folded into [0, pi/2], and s_m[p] = (-1)^(p+1) s_1[p]: taken at
        # its large angle, sin(pi p m / (m + 1)) is off by up to about 1e-13.
        s1 = np.sin(np.pi * np.minimum(p, m + 1 - p) / (m + 1))
        return np.stack((s1, np.where(p % 2 == 1, s1, -s1)))


# The neighbors that follow a node in row-major order; a symmetric stencil
# stores its coupling to each of them, and reads the other four from them.
FORWARD = ((0, 1), (1, -1), (1, 0), (1, 1))


class Stencil:
    """A symmetric operator of at most nine points on the nodes of a lattice.

    Its unknowns are the True nodes of mask, an (nx, ny) bool array whose
    outer ring is False, in row-major order.  center and forward[dx, dy]
    ((dx, dy) in FORWARD) are (nx, ny) weights, read only (so they may be
    broadcasts): a node's diagonal entry and its coupling to its (dx, dy)
    neighbor; the backward couplings are the forward ones read from the
    other end, so the operator is symmetric by construction.  A node off the
    mask other than the ring must carry zero weights; the ring's couplings
    to the nodes are the boundary data's (see DiscreteOperator).

    Vectors are C-contiguous (nx, ny) lattice fields.  A neighbor is a fixed
    shift of the flat index, so product() is a sum of contiguous shifted 1-D
    slices; a shift wraps only from ring node to ring node, and product()
    zeroes the ring of its result.
    """

    def __init__(self, mask: np.ndarray, center: np.ndarray, forward: dict):
        self.mask = mask
        self.center = center.reshape(-1)
        ny = mask.shape[1]
        self._shifts = [(dx * ny + dy, w.reshape(-1)) for (dx, dy), w in forward.items()]

    @property
    def shape(self) -> tuple[int, int]:
        count = int(np.count_nonzero(self.mask))
        return (count, count)

    def product(self, v: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """out = A v for a lattice field v, the ring of out zero; returns out.
        tmp, a lattice field, holds each band's products."""
        v, flat, tmp = v.reshape(-1), out.reshape(-1), tmp.reshape(-1)
        np.multiply(self.center, v, out=flat)
        size = v.size
        for k, w in self._shifts:
            w = w[:size - k]
            t = tmp[:size - k]
            flat[:size - k] += np.multiply(w, v[k:], out=t)
            flat[k:] += np.multiply(w, v[:size - k], out=t)
        ring = flat.reshape(self.mask.shape)
        ring[[0, -1]] = ring[:, [0, -1]] = 0.0
        return out

    def tocsr(self):
        """The CSR matrix over the unknowns, read off product()'s bands as the
        diagonals of the flat lattice, zeros dropped.  The LU backstop (as
        tocsc), the tests and the benchmark's direct reference builder read
        it, so scipy is imported here."""
        from scipy import sparse

        size = self.center.size
        offsets, diagonals = [0], [self.center]
        for k, w in self._shifts:
            offsets += [k, -k]
            diagonals += [w[:size - k]] * 2
        nodes = np.flatnonzero(self.mask)
        csr = sparse.diags(diagonals, offsets, shape=(size, size), format="csr")
        return csr[nodes][:, nodes]

    def tocsc(self):
        return self.tocsr().tocsc()


def _harm(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    # 2 p r / (p + r), commutative in floating point, so facing rows agree
    # bit-for-bit; computed in place in one new array.
    out = np.multiply(p, r)
    out *= 2.0
    out /= p + r
    return out


def laplacian_floor(grid: Grid2D) -> float:
    """Smallest eigenvalue of the five-point Dirichlet Laplacian -Delta_h."""
    return 8.0 * np.sin(0.5 * np.pi * grid.h) ** 2 / (grid.h * grid.h)


def neighbor_field(field: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """field at each node's (dx, dy) neighbor, |dx|, |dy| <= 1; zero (False)
    where that neighbor is off the lattice."""
    n, m = field.shape[:2]
    return np.pad(field, 1)[1 + dx:n + 1 + dx, 1 + dy:m + 1 + dy]


def _weights(h: float, a: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, dict]:
    """The weights of L_h on the lattice for scalar (n, n) or matrix (n, n, 2, 2)
    a: each node's diagonal weight, and forward[dx, dy], (dx, dy) in FORWARD, its
    coupling to its (dx, dy) neighbor.  ConfigError if a weight is not finite
    (harmonic means overflow for a above about 1.3e154) or if a product p r in
    a harmonic mean may leave the normal floats (a below about 1.5e-154)."""
    h2 = h * h
    a11, a22 = (a, a) if a.ndim == 2 else (a[..., 0, 0], a[..., 1, 1])
    smallest = float(a.min() if a.ndim == 2 else min(a11.min(), a22.min()))
    if smallest * smallest < np.finfo(float).tiny:
        raise ConfigError("diffusion coefficient a is too small to assemble: a stencil "
                          f"weight underflows (min a = {smallest:.6g})")
    # Temporaries are made in place, and a node's west and south faces are read
    # off its neighbors' east and north ones, so a few lattice fields are held.
    with np.errstate(over="ignore", invalid="ignore"):
        east = _harm(a11, neighbor_field(a11, 1, 0))
        east /= h2
        north = _harm(a22, neighbor_field(a22, 0, 1))
        north /= h2
        center = east.copy()
        center[1:] += east[:-1]               # + west
        center[:, 1:] += north[:, :-1]        # + south
        center += north
        center += q
        forward = {(0, 1): np.negative(north, out=north),
                   (1, 0): np.negative(east, out=east)}
        if a.ndim == 4:
            a12, quarter = a[..., 0, 1], 0.25 / h2
            east12 = neighbor_field(a12, 1, 0)
            forward[1, 1] = -(east12 + neighbor_field(a12, 0, 1)) * quarter
            forward[1, -1] = (east12 + neighbor_field(a12, 0, -1)) * quarter
    if not all(np.isfinite(w).all() for w in forward.values()):
        raise ConfigError("diffusion coefficient a is too large to assemble: a stencil "
                          f"weight overflows (max |a| = {np.abs(a).max():.6g})")
    if not np.isfinite(center).all():
        raise ConfigError("potential q is too large to assemble: a diagonal stencil "
                          f"weight overflows (max |q| = {np.abs(q).max():.6g})")
    return center, {offset: forward[offset] for offset in FORWARD if offset in forward}


def _uniform_weights(h: float, coeff: CoefficientField) -> tuple[float, float] | None:
    """(d, o), the diagonal and off-diagonal weights of L_h at every interior
    node (faces to the ring included), for scalar coefficients with one a at
    every node but the four corners (which no interior face reads) and one q at
    the interior nodes: _weights on a 3 x 3 patch.  None for any other
    coefficients, even if their weights happen to be one value."""
    a, q = coeff.a, coeff.q
    alpha, beta = a[0, 1], q[1, 1]
    for part, value in ((a[1:-1], alpha), (a[0, 1:-1], alpha), (a[-1, 1:-1], alpha),
                        (q[1:-1, 1:-1], beta)):
        if not part.min() == value == part.max():
            return None
    center, forward = _weights(h, np.full((3, 3), alpha), np.full((3, 3), beta))
    return float(center[1, 1]), float(forward[1, 0][0, 1])


def assemble(grid: Grid2D, coeff: CoefficientField) -> DiscreteOperator:
    """Assemble L_h's Stencil; a constant stencil's weights are two broadcast
    values (see DiscreteOperator)."""
    if coeff.q.shape != (grid.n, grid.n):
        raise ConfigError(f"coefficients have shape {coeff.q.shape}, expected "
                          f"{(grid.n, grid.n)} for this grid")
    stencil = _uniform_weights(grid.h, coeff) if coeff.is_scalar else None
    if stencil is None:
        center, forward = _weights(grid.h, coeff.a, coeff.q)
    else:
        center, o = (np.broadcast_to(w, (grid.n, grid.n)) for w in stencil)
        forward = {(0, 1): o, (1, 0): o}
    # Certified after the weights' overflow check, which a too large for it fails.
    spd = bool(coeff.is_scalar
               and coeff.q.min() >= -0.5 * coeff.a.min() * laplacian_floor(grid))
    return DiscreteOperator(grid=grid, coeff=coeff, spd=spd, stencil=stencil,
                            matrix=Stencil(grid.interior_mask, center, forward))


@dataclass
class SolveInfo:
    method: str
    iterations: int
    residual_inf: float


def _scratch(work: dict | None, name: str, shape: tuple, dtype=float) -> np.ndarray:
    """A temporary array, zero when made: the one work keeps under (name,
    shape), made on first use, or a new one when work is None.  A caller that
    passes the same work to a run of solves pays for its temporaries once."""
    if work is None:
        return np.zeros(shape, dtype)
    buf = work.get((name, shape))
    if buf is None:
        buf = work[name, shape] = np.zeros(shape, dtype)
    return buf


def _dst1_rows(x: np.ndarray, work: dict | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized DST-I of each row, sum_i x_i sin(pi i k / (m + 1)), from the
    FFT of the odd extension [0, x, 0, -reversed x], written into out if given.

    Rows go _DST_ROWS at a time through one extension buffer (kept in work);
    each row's FFT is the same whatever the batch.
    out may be x itself, but not a transposed view of it.
    """
    k, m = x.shape
    rows = min(k, _DST_ROWS)
    ext = _scratch(work, "ext", (rows, 2 * (m + 1)))    # columns 0, m + 1 stay 0
    if out is None:
        out = np.empty((k, m))
    for lo in range(0, k, rows):
        hi = min(lo + rows, k)
        e = ext[:hi - lo]
        e[:, 1:m + 1] = x[lo:hi]
        np.negative(x[lo:hi, ::-1], out=e[:, m + 2:])
        np.multiply(np.fft.rfft(e).imag[:, 1:m + 1], -0.5, out=out[lo:hi])
    return out


def _dst1_2d(x: np.ndarray, work: dict | None = None, buf: np.ndarray | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
    """2-D DST-I of a square array; the transform is symmetric, so S x S.  The
    rows' pass goes into buf and the columns' into out, if given, which holds
    the result's transpose; out may be x."""
    return _dst1_rows(_dst1_rows(x, work, out=buf).T, work, out=out).T


def _boundary_transform(op: DiscreteOperator, u: ScalarField, work: dict | None = None,
                        out: np.ndarray | None = None) -> np.ndarray:
    """_dst1_2d of the (n-2, n-2) boundary_coupling @ g of a constant stencil,
    in closed form from the four sides of u, which holds g on its ring;
    written into out if given."""
    sides = np.stack((u[1:-1, 0], u[1:-1, -1], u[0, 1:-1], u[-1, 1:-1]))
    sides *= -op.stencil[1]
    left, right, bottom, top = _dst1_rows(sides, work)
    s1, sm = op.edge_sines
    # The four outer products as one product of rank 4.
    return np.matmul(np.stack((left, right, s1, sm), axis=1),
                     np.stack((s1, sm, bottom, top)), out=out)


def _stencil_eigenvalues(c: np.ndarray, d: float, o: float, rows=slice(None),
                         out: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues d + 2 o (c_j + c_k) of the constant five-point stencil (d, o)
    for c = DiscreteOperator.cosines, indexed like the DST-I modes: the
    (n-2, n-2) table, or its rows j in the slice rows, written into out if given."""
    out = np.add.outer(c[rows], c, out=out)
    out *= 2.0 * o
    out += d
    return out


def _sine_solve(transform: np.ndarray, work: dict | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """S transform (2 / (m + 1))^2, the (m, m) x with A x = r for transform =
    S r / lambda, lambda the eigenvalues of A; overwrites transform.
    x is the transpose of a C-ordered (m, m) array, out if given (it must not
    overlap transform), so every pass writes contiguous rows."""
    x = _dst1_2d(transform, work, transform, out=out)
    x *= (2.0 / (transform.shape[0] + 1)) ** 2
    return x


def conjugate_gradients(matrix: Stencil, rhs: np.ndarray, target: float, maxiter: int,
                        precond: Callable[..., np.ndarray] | None = None,
                        out: np.ndarray | None = None) -> tuple[np.ndarray, int, float]:
    """Solve matrix x = rhs for an SPD Stencil by (preconditioned) CG from x = 0.

    rhs and x are lattice fields, zero off the stencil's unknowns; x is out
    (C-contiguous) if given.  Besides them the iteration runs in place on
    four lattice fields: r, p, A p and a spare for z, alpha p and scratch.
    precond, if given, is an SPD map of lattice fields, zero off the unknowns,
    that precond(r, out, work) writes into out (DiscreteOperator.preconditioner
    is one).  Stops once the recurrence residual has
    ||r||_inf <= target, then checks the true residual ||rhs - matrix x||_inf;
    if that misses the target it replaces the recurrence residual and the
    iteration goes on.  Returns (x, iterations, true residual); raises
    SolverError at maxiter or when r.z is not a positive finite number.
    """
    b = rhs.reshape(-1)
    x = np.empty(b.size) if out is None else out.reshape(-1)
    x.fill(0.0)
    r, Ap, spare, work = b.copy(), np.empty_like(b), np.empty_like(b), {}
    res = np.abs(r, out=spare).max()
    z = r if precond is None else precond(r, spare, work)
    p = z.copy()
    with np.errstate(over="ignore"):
        rz = r @ z
    iterations = 0
    while not res <= target:
        if iterations >= maxiter or not 0.0 < rz < np.inf:
            res = np.abs(b - matrix.product(x, Ap, spare)).max()
            raise SolverError(
                f"conjugate gradients stalled after {iterations} iterations: "
                f"residual {res:.3e} > target {target:.3e}",
                residual=res, iterations=iterations)
        matrix.product(p, Ap, spare)
        alpha = rz / (p @ Ap)
        x += np.multiply(p, alpha, out=spare)
        r -= np.multiply(Ap, alpha, out=Ap)
        iterations += 1
        res = np.abs(r, out=spare).max()
        if res <= target:                # the true residual rhs - matrix x
            np.subtract(b, matrix.product(x, Ap, spare), out=r)
            res = np.abs(r, out=spare).max()
            if res <= target:
                break
        z = r if precond is None else precond(r, spare, work)
        with np.errstate(over="ignore"):
            rz, rz_old = r @ z, rz
        p *= rz / rz_old                 # then p + z: bitwise z + beta p
        p += z
    return x.reshape(rhs.shape), iterations, float(res)


def minres(matrix: Stencil, rhs: np.ndarray, target: float, maxiter: int,
           precond: Callable[..., np.ndarray],
           out: np.ndarray | None = None) -> tuple[np.ndarray, int, float]:
    """Solve matrix x = rhs for a symmetric nonsingular Stencil, definite or not,
    by preconditioned MINRES (Paige & Saunders 1975) from x = 0.

    The conventions are conjugate_gradients': lattice fields, zero off the
    unknowns, x is out if given, and precond is an SPD map that precond(r, out,
    work) writes into out.  Besides x and rhs it holds eight lattice fields:
    the residual r, the Lanczos vectors r1, r2 (unnormalized, in the
    residual's space) and y = M^-1 r2, which rotate, v = y / beta, the last
    two directions w and a spare.  r follows the recurrence
    r_k = sn^2 r_(k-1) - (phibar cs / beta) r2, its coefficient computed as
    phi / gamma (the same number, with no division by a vanishing beta).  Stops
    once ||r||_inf <= target, then checks the true residual ||rhs - matrix x||_inf;
    if that misses the target it replaces r and the iteration goes on.  Returns
    (x, iterations, true residual); raises SolverError at maxiter or when beta
    is not a positive finite number.
    """
    b = rhs.reshape(-1)
    x = np.empty(b.size) if out is None else out.reshape(-1)
    x.fill(0.0)
    r, r1, r2, work = b.copy(), np.empty_like(b), b.copy(), {}
    y, v, w, w_old, spare = (np.zeros_like(b) for _ in range(5))
    res = np.abs(r, out=spare).max()
    beta = np.sqrt(r2 @ precond(r2, y, work))
    oldb, phibar, cs, sn, dbar, epsln = beta, beta, -1.0, 0.0, 0.0, 0.0
    iterations = 0
    while not res <= target:
        if iterations >= maxiter or not 0.0 < beta < np.inf:
            res = np.abs(b - matrix.product(x, v, spare)).max()
            raise SolverError(
                f"MINRES stalled after {iterations} iterations: "
                f"residual {res:.3e} > target {target:.3e}",
                residual=res, iterations=iterations)
        np.multiply(y, 1.0 / beta, out=v)
        matrix.product(v, y, spare)          # the Lanczos step, into y
        if iterations:
            y -= np.multiply(r1, beta / oldb, out=spare)
        alfa = v @ y
        y -= np.multiply(r2, alfa / beta, out=spare)
        r1, r2, y = r2, y, r1
        oldb, beta = beta, np.sqrt(r2 @ precond(r2, y, work))
        # The last rotation on the new column of T, then the rotation that
        # annihilates its beta.
        oldeps, delta = epsln, cs * dbar + sn * alfa
        gbar, epsln, dbar = sn * dbar - cs * alfa, sn * beta, -cs * beta
        gamma = np.hypot(gbar, beta)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        # w = (v - oldeps w_(k-2) - delta w_(k-1)) / gamma, over w_(k-2)
        w_old *= -oldeps
        w_old -= np.multiply(w, delta, out=spare)
        w_old += v
        w_old /= gamma
        w, w_old = w_old, w
        x += np.multiply(w, phi, out=spare)
        r *= sn * sn
        r -= np.multiply(r2, phi / gamma, out=spare)
        iterations += 1
        res = np.abs(r, out=spare).max()
        if res <= target:                    # the true residual rhs - matrix x
            np.subtract(b, matrix.product(x, r, spare), out=r)
            res = np.abs(r, out=spare).max()
    return x.reshape(rhs.shape), iterations, float(res)


def _sine_solve_interior(op: DiscreteOperator, u: ScalarField, forcing: np.ndarray | None,
                         rtol: float, work: dict | None) -> SolveInfo:
    """_solve_interior for a constant stencil, by the sine transform, with no
    (n-2, n-2) right-hand side: the coupled data b are nonzero only on the
    border of the block of unknowns, so max |b| is taken there.  The residual
    L_h u - f is the form apply takes, one product of op.matrix."""
    n = op.grid.n
    d, o = op.stencil
    c = -o                                  # the ring's coupling weight
    # b on the block's rows 0 and m-1 (corners: both ring neighbors) and on
    # columns 0 and m-1 between them.
    rows = np.multiply(u[[0, -1], 1:-1], c)
    rows[:, 0] += c * u[[1, -2], 0]
    rows[:, -1] += c * u[[1, -2], -1]
    cols = np.multiply(u[2:-2][:, [0, -1]].T, c)
    scale = max(_max_abs(rows), _max_abs(cols)) + _max_abs(forcing)
    if scale == 0.0:
        return SolveInfo("trivial", 0, 0.0)
    target = rtol * scale
    m = n - 2
    fields = [_scratch(work, name, (n * n,)) for name in ("product", "lattice")]
    product, lattice = (f[:m * m].reshape(m, m) for f in fields)
    if forcing is None:
        transform, spare = _boundary_transform(op, u, work, out=product), lattice
    else:
        sfs = _dst1_2d(forcing, work, lattice, out=product)
        transform, spare = _boundary_transform(op, u, work, out=lattice), product
        transform += sfs
    block = _scratch(work, "eigenvalues", (min(m, _DST_ROWS), m))
    for lo in range(0, m, _DST_ROWS):       # the eigenvalues, a block of rows at a time
        hi = min(lo + _DST_ROWS, m)
        transform[lo:hi] /= _stencil_eigenvalues(op.cosines, d, o, np.s_[lo:hi],
                                                 out=block[:hi - lo])
    u[1:-1, 1:-1] = _sine_solve(transform, work, out=spare)
    r = op.matrix.product(u, *fields).reshape(n, n)[1:-1, 1:-1]
    if forcing is not None:
        r -= forcing
    res = np.abs(r, out=r).max()
    if not res <= target:
        raise SolverError(f"sine-transform solve residual {res:.3e} > target "
                          f"{target:.3e}", residual=res, iterations=0)
    return SolveInfo("dst", 0, float(res))


def _max_abs(x: np.ndarray | None) -> float:
    """max |x| without a copy; 0.0 for None."""
    return 0.0 if x is None else max(x.max(), -x.min())


def _dirichlet_rhs(op: DiscreteOperator, u: ScalarField) -> np.ndarray:
    """The data's right-hand side b = 0.0 - A u on the lattice, for u holding
    Dirichlet data on its ring and zero inside."""
    rhs = op.matrix.product(u, np.empty_like(u), np.empty_like(u))
    return np.subtract(0.0, rhs, out=rhs)


@dataclass(frozen=True)
class _BoundaryCoupling:
    """DiscreteOperator.boundary_coupling: @ g is the interior of _dirichlet_rhs."""

    op: DiscreteOperator

    def __matmul__(self, g) -> np.ndarray:
        grid = self.op.grid
        u = np.zeros((grid.n, grid.n))
        u[grid.boundary_ix, grid.boundary_iy] = g
        return _dirichlet_rhs(self.op, u)[1:-1, 1:-1].reshape(-1)


def default_maxiter(grid: Grid2D) -> int:
    """The iteration cap of a Krylov solve whose maxiter is None: 20 n."""
    return 20 * grid.n


def _solve_interior(op: DiscreteOperator, u: ScalarField, forcing: np.ndarray | None,
                    rtol: float, maxiter) -> SolveInfo:
    """Solve L u = forcing into the interior of u, which holds the Dirichlet data
    on its ring and zero inside, by conjugate gradients for a certified operator
    and MINRES for any other, both preconditioned by op.preconditioner and run
    in u, whose ring they leave zero; sparse LU where MINRES stalls."""
    rhs = _dirichlet_rhs(op, u)
    scale = _max_abs(rhs) + _max_abs(forcing)
    if forcing is not None:
        rhs[1:-1, 1:-1] += forcing
    if scale == 0.0:
        return SolveInfo("trivial", 0, 0.0)
    if maxiter is None:
        maxiter = default_maxiter(op.grid)
    target = rtol * scale
    if op.spd:
        _, iters, res = conjugate_gradients(op.matrix, rhs, target, maxiter,
                                            op.preconditioner, out=u)
        return SolveInfo("cg-sine", iters, res)
    try:
        _, iters, res = minres(op.matrix, rhs, target, maxiter, op.preconditioner, out=u)
        return SolveInfo("minres", iters, res)
    except SolverError as exc:
        stalled = exc
    from scipy.sparse.linalg import splu   # the one path that needs scipy

    try:
        lu = splu(op.matrix.tocsc())
    except RuntimeError as exc:
        raise SolverError(f"{stalled}; direct factorization failed: {exc}",
                          residual=np.inf) from exc
    u.fill(0.0)                             # the ring MINRES left, NaN if gamma was 0
    inner, r, tmp = u[1:-1, 1:-1], np.empty_like(u), np.empty_like(u)
    inner[...] = lu.solve(rhs[1:-1, 1:-1].reshape(-1)).reshape(inner.shape)
    for refinements in range(4):
        np.subtract(rhs, op.matrix.product(u, r, tmp), out=r)     # rhs - A u
        res = np.abs(r).max()
        if not res > target or refinements == 3:
            break
        inner += lu.solve(r[1:-1, 1:-1].reshape(-1)).reshape(inner.shape)
    if not res <= target:
        raise SolverError(
            f"{stalled}; direct solve residual {res:.3e} > target {target:.3e} "
            f"after {refinements} refinement steps", residual=res, iterations=refinements)
    return SolveInfo("lu", refinements, float(res))


def solve_dirichlet(op: DiscreteOperator, g, rtol: float = 1e-10, maxiter=None,
                    forcing=None, want_info: bool = False, work: dict | None = None,
                    out: np.ndarray | None = None):
    """Solve L u = forcing with Dirichlet trace g along the boundary walk.

    g has one value per boundary-walk node; forcing (optional) is a full-grid
    field read at interior nodes, never copied.  Returns the (n, n) solution
    field: out (C-contiguous) if given, else a new one.  work (optional) is a
    dict in which the sine-transform path keeps its transform and product
    temporaries, so that a run of solves sharing it allocates them once; one
    work must not serve two solves at a time.
    """
    grid = op.grid
    if forcing is not None:
        forcing = np.asarray(forcing, dtype=float)
        if forcing.shape != (grid.n, grid.n):
            raise ConfigError(f"forcing must have shape {(grid.n, grid.n)}")
        if not np.all(np.isfinite(forcing)):
            raise ConfigError("forcing must be finite")
        forcing = forcing[1:-1, 1:-1]
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.boundary_count,):
        raise ConfigError(
            f"boundary data must have shape ({grid.boundary_count},), got {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ConfigError("boundary data must be finite")
    if not (0.0 < rtol < 1.0):
        raise ConfigError(f"rtol must lie in (0, 1), got {rtol}")
    if out is None:
        u = np.zeros((grid.n, grid.n))
    elif out.shape != (grid.n, grid.n) or not out.flags.c_contiguous:
        raise ConfigError(f"out must be a C-contiguous array of shape {(grid.n, grid.n)}")
    else:
        u = out
        u.fill(0.0)
    ring = (grid.boundary_ix, grid.boundary_iy)
    u[ring] = g
    if op.stencil is not None:
        info = _sine_solve_interior(op, u, forcing, rtol, work)
    else:
        info = _solve_interior(op, u, forcing, rtol, maxiter)
        u[ring] = g
    return (u, info) if want_info else u


def laplace_operator(grid: Grid2D) -> DiscreteOperator:
    """The (-Laplace) operator on this grid, assembled on each call."""
    return assemble(grid, CoefficientField.isotropic(grid))


def solve_poisson(grid: Grid2D, rhs, g, rtol: float = 1e-10, maxiter=None,
                  op: DiscreteOperator | None = None) -> ScalarField:
    """Solve  Delta u = rhs  (not -Delta) with trace g, on op or laplace_operator(grid),
    as -v for the Dirichlet solve L v = rhs with trace -g (see the module docstring)."""
    u = solve_dirichlet(op or laplace_operator(grid), -np.asarray(g, dtype=float), rtol,
                        maxiter, forcing=rhs)
    return np.negative(u, out=u)


class OnDemand(Sequence):
    """make(i) for each i of indices, made when read and never kept.

    Integer indices, negative ones too, index indices; a slice is an
    OnDemand over the sliced range.  Each read makes a new item, and
    iteration keeps no reference to an item once it is handed out.
    """

    def __init__(self, make: Callable, indices: range):
        self.make = make
        self.indices = indices

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return OnDemand(self.make, self.indices[i])
        return self.make(self.indices[i])

    def __iter__(self):
        for i in self.indices:
            yield self.make(i)


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


def root_sum_squares(x, axis=None, weights=None):
    """sqrt(sum(weights * x^2)) over axis, each reduced slice summed in units of
    2^e, its largest |x| in [2^(e-1), 2^e): exact scaling (Blue, ACM TOMS 1978), so
    the plain formula's bits wherever it is in range, and finite wherever the root
    is.  One temporary holds (w r) r, r = x 2^-e, as (w r 2^-h) x with h = e // 2."""
    x = np.asarray(x, dtype=float)
    e = np.frexp(np.maximum(x.max(axis, keepdims=True), -x.min(axis, keepdims=True)))[1]
    h = e // 2
    sq = np.ldexp(x, -e - h)
    if weights is not None:
        sq *= weights
    sq *= x
    total = np.sum(np.ldexp(sq, h - e, out=sq), axis, keepdims=True)
    return np.ldexp(np.sqrt(total), e).squeeze(axis)


def save_field_csv(grid: Grid2D, field: ScalarField, path) -> None:
    """Write x,y,value rows (row-major in x) with full float precision."""
    f = np.asarray(field, dtype=float)
    if f.shape != (grid.n, grid.n):
        raise ConfigError(f"field must have shape {(grid.n, grid.n)}, got {f.shape}")
    coords = [repr(x) for x in grid.xs.tolist()]
    # The bytes csv.writer would emit: unquoted fields, "\r\n" line ends.
    with open(path, "w", newline="") as fh:
        fh.write("x,y,value\r\n")
        for x, row in zip(coords, f):     # one row's Python floats at a time
            fh.write("".join([f"{x},{y},{v!r}\r\n" for y, v in zip(coords, row.tolist())]))


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
