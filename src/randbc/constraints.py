"""Pointwise constraint maps on tuples of solution fields.

Four maps, each with a known witness tuple that evaluates to exactly 1:

  nodal      zeta(u) = u                          witness (1,)
  critical   zeta(u) = e . grad u                 witness (x1,) for e = (1, 0)
  jacobian   zeta(u1, u2) = det[grad u1 grad u2]  witness (x1, x2)
  augmented  zeta(u1, u2, u3) = det of the 3x3    witness (1, x1, x2)
             matrix with rows (u_i), (d/dx1 u_i), (d/dx2 u_i)

Gradients are lattice gradients (central inside, one-sided second order at
the edges), so on dyadic grids the witness values are exact floats.  Each map
is the determinant of its feature rows (feature_rows).  The 3x3 determinant
sums its positive and its negative monomials each in ascending order, then
subtracts, so swapping two arguments flips the sign bit-for-bit; the sum is
canonical, not exactly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .grid import Grid2D, SubdomainMask
from .solver import gradient

KIND_ARITY = {"nodal": 1, "critical": 1, "jacobian": 2, "augmented": 3}


@dataclass(frozen=True)
class ConstraintMap:
    kind: str
    direction: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        if self.kind not in KIND_ARITY:
            raise ConfigError(
                f"unknown constraint map {self.kind!r}; pick one of {sorted(KIND_ARITY)}")
        d = (float(self.direction[0]), float(self.direction[1]))
        norm = math.hypot(d[0], d[1])
        if not (norm > 0.0) or not np.isfinite(norm):
            raise ConfigError(f"direction must be a nonzero vector, got {self.direction}")
        object.__setattr__(self, "direction", (d[0] / norm, d[1] / norm))

    @property
    def arity(self) -> int:
        return KIND_ARITY[self.kind]


@dataclass(frozen=True, eq=False)
class ConstraintField:
    """zeta evaluated at every node of a mask (values align with mask.indices)."""

    values: np.ndarray
    mask: SubdomainMask


def feature_rows(cmap: ConstraintMap, vals, gxs, gys) -> list:
    """The map's d feature rows; each row is indexed by argument slot."""
    if cmap.kind == "nodal":
        return [vals]
    if cmap.kind == "critical":
        d0, d1 = cmap.direction
        return [d0 * gxs + d1 * gys]
    if cmap.kind == "jacobian":
        return [gxs, gys]
    return [vals, gxs, gys]


def det(F, in_place: bool = False):
    """Elementwise determinant of a d x d (d <= 3) list of equal-shape arrays.

    F[r][i] is feature r of argument i.  For d = 3 each monomial multiplies
    in role order (F0[i] * F1[j]) * F2[k], so permuting arguments only
    reorders the same floats; sorting each sign group before summing makes
    the result depend on the group alone.  in_place lets d = 2 overwrite
    F[0][0] and F[1][0] with its two products and return F[0][0]; the
    operations, and so the bits, are those of a fresh evaluation.
    """
    d = len(F)
    if d == 1:
        return F[0][0]
    if d == 2:
        a, b = (F[0][0], F[1][0]) if in_place else (None, None)
        a = np.multiply(F[0][0], F[1][1], out=a)
        return np.subtract(a, np.multiply(F[1][0], F[0][1], out=b), out=a)

    def group_sum(perms):
        s = np.sort([(F[0][i] * F[1][j]) * F[2][k] for i, j, k in perms], axis=0)
        return (s[0] + s[1]) + s[2]

    return (group_sum(((0, 1, 2), (1, 2, 0), (2, 0, 1)))
            - group_sum(((0, 2, 1), (1, 0, 2), (2, 1, 0))))


def values_from_parts(cmap: ConstraintMap, vals, gxs, gys) -> np.ndarray:
    """Constraint values from pre-restricted node values and gradients.

    vals/gxs/gys: sequences of (m,) arrays, one per tuple slot, already
    restricted to the evaluation nodes.
    """
    parts = (np.asarray(p, dtype=float) for p in (vals, gxs, gys))
    return det(feature_rows(cmap, *parts))


def zeta_eval(cmap: ConstraintMap, fields, grid: Grid2D,
              mask: SubdomainMask) -> ConstraintField:
    """Evaluate the map on a tuple of full-grid fields over a mask."""
    fields = tuple(np.asarray(f, dtype=float) for f in fields)
    if len(fields) != cmap.arity:
        raise ConfigError(
            f"{cmap.kind} needs {cmap.arity} field(s), got {len(fields)}")
    for f in fields:
        if f.shape != (grid.n, grid.n):
            raise ConfigError(
                f"fields must have shape {(grid.n, grid.n)}, got {f.shape}")
    if mask.grid_n != grid.n:
        raise ConfigError(f"mask was built for n={mask.grid_n}, grid has n={grid.n}")
    idx = mask.indices
    vals = [f[idx] for f in fields]
    grads = [gradient(grid, f) for f in fields]
    gxs = [g[0][idx] for g in grads]
    gys = [g[1][idx] for g in grads]
    return ConstraintField(values=values_from_parts(cmap, vals, gxs, gys), mask=mask)


def _common_mask(cfields) -> SubdomainMask:
    if len(cfields) == 0:
        raise DomainError("need at least one constraint field")
    mask = cfields[0].mask
    for cf in cfields[1:]:
        if cf.mask is not mask and not np.array_equal(cf.mask.member, mask.member):
            raise ConfigError("constraint fields live on different masks")
        if cf.values.shape != cfields[0].values.shape:
            raise ConfigError("constraint fields have mismatched sizes")
    return mask


def max_abs(cfields) -> tuple[np.ndarray, float]:
    """Pointwise max_l |zeta^l| over the mask and its minimum over nodes."""
    _common_mask(cfields)
    stacked = np.abs(np.stack([cf.values for cf in cfields]))
    pointwise = stacked.max(axis=0)
    return pointwise, float(pointwise.min())


@dataclass(frozen=True)
class CoverLabeling:
    """Per-node index (1-based) of the measurement realizing max_l |zeta^l|."""

    label: np.ndarray
    threshold: float
    complete: bool


def extract_cover(cfields, tau: float) -> CoverLabeling:
    """Label each node by the argmax measurement; complete iff max >= tau everywhere.

    Ties resolve to the smallest index.
    """
    if not (tau > 0.0):
        raise ConfigError(f"threshold must be positive, got tau={tau}")
    _common_mask(cfields)
    stacked = np.abs(np.stack([cf.values for cf in cfields]))
    label = stacked.argmax(axis=0) + 1
    pointwise = stacked.max(axis=0)
    return CoverLabeling(label=label, threshold=float(tau),
                         complete=bool(np.all(pointwise >= tau)))


def save_cover_csv(grid: Grid2D, cfields, labeling: CoverLabeling, path) -> None:
    """Write x,y,value,label rows over the masked nodes.

    value is the decision quantity max_l |zeta^l| at the node; label is the
    1-based index of the measurement realizing it, as stored in labeling.
    """
    pointwise, _ = max_abs(cfields)
    mask = cfields[0].mask
    if labeling.label.shape != pointwise.shape:
        raise ConfigError(
            f"labeling covers {labeling.label.shape} nodes, fields {pointwise.shape}")
    xs = grid.xs.tolist()
    ixs, iys = (idx.tolist() for idx in mask.indices)
    # The bytes csv.writer would emit: unquoted fields, "\r\n" line ends.
    with open(path, "w", newline="") as fh:
        fh.write("x,y,value,label\r\n")
        fh.write("".join([f"{xs[i]!r},{xs[j]!r},{v!r},{int(label)}\r\n" for i, j, v, label
                          in zip(ixs, iys, pointwise.tolist(), labeling.label.tolist())]))


def witness_fields(cmap: ConstraintMap, grid: Grid2D):
    """The canonical tuple whose constraint value is identically 1."""
    ones = np.ones((grid.n, grid.n))
    if cmap.kind == "nodal":
        return (ones,)
    if cmap.kind == "critical":
        d0, d1 = cmap.direction
        return (d0 * grid.X + d1 * grid.Y,)
    if cmap.kind == "jacobian":
        return (grid.X.copy(), grid.Y.copy())
    return (ones, grid.X.copy(), grid.Y.copy())


def witness_check(cmap: ConstraintMap, grid: Grid2D, mask: SubdomainMask) -> float:
    """Minimum of zeta over the mask on the witness tuple (should be ~1)."""
    cf = zeta_eval(cmap, witness_fields(cmap, grid), grid, mask)
    return float(cf.values.min())


def holder_seminorm(cfield: ConstraintField, grid: Grid2D, alpha: float = 0.5,
                    max_nodes: int = 1500) -> float:
    """Empirical C^alpha seminorm sup |z(x)-z(y)| / |x-y|_inf^alpha (diagnostic).

    Subsamples the mask deterministically when it is large.
    """
    if not (0.0 < alpha <= 1.0):
        raise ConfigError(f"alpha must lie in (0, 1], got {alpha}")
    ix, iy = cfield.mask.indices
    v = cfield.values
    if ix.size > max_nodes:
        step = int(np.ceil(ix.size / max_nodes))
        ix, iy, v = ix[::step], iy[::step], v[::step]
    x = ix * grid.h
    y = iy * grid.h
    dx = np.abs(x[:, None] - x[None, :])
    dy = np.abs(y[:, None] - y[None, :])
    dist = np.maximum(dx, dy)
    dv = np.abs(v[:, None] - v[None, :])
    off = dist > 0.0
    if not np.any(off):
        return 0.0
    return float((dv[off] / dist[off] ** alpha).max())
