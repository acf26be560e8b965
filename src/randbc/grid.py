"""Discrete geometry of the closed unit square.

A Grid2D is the uniform (n x n)-node lattice on [0,1]^2 with spacing
h = 1/(n-1).  Scalar fields live on the full lattice as (n, n) arrays indexed
[ix, iy], so axis 0 is the x1 direction.  The boundary is a single
counterclockwise walk of the 4(n-1) edge nodes starting at the origin,
parametrized by arclength s = index * h in [0, 4).

Subdomains are boolean node masks produced by pure coordinate predicates, so
refining n -> 2n-1 never changes the membership of a surviving node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError

Point = tuple[float, float]


@dataclass(frozen=True, eq=False)
class Grid2D:
    """Uniform lattice on the closed unit square with a boundary walk."""

    n: int
    h: float
    xs: np.ndarray          # (n,) node coordinates along either axis
    boundary_ix: np.ndarray  # (4(n-1),) walk indices, counterclockwise from (0, 0)
    boundary_iy: np.ndarray
    boundary_s: np.ndarray   # (4(n-1),) arclength of each walk node

    @property
    def X(self) -> np.ndarray:
        """(n, n) coordinates X[ix, iy] = xs[ix], made anew on each access, so
        the lattice keeps no field."""
        return np.repeat(self.xs[:, None], self.n, axis=1)

    @property
    def Y(self) -> np.ndarray:
        """(n, n) coordinates Y[ix, iy] = xs[iy], made anew on each access."""
        return np.repeat(self.xs[None, :], self.n, axis=0)

    @property
    def boundary_count(self) -> int:
        return 4 * (self.n - 1)

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros((self.n, self.n), dtype=bool)
        mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = True
        return mask

    @cached_property
    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    def boundary_values(self, field: np.ndarray) -> np.ndarray:
        """Trace of a lattice field along the boundary walk."""
        return np.asarray(field)[self.boundary_ix, self.boundary_iy]

    def nearest_node(self, point) -> tuple[int, int]:
        px, py = float(point[0]), float(point[1])
        if not (0.0 <= px <= 1.0 and 0.0 <= py <= 1.0):
            raise ConfigError(f"point {point!r} lies outside the unit square")
        return (int(round(px * (self.n - 1))), int(round(py * (self.n - 1))))


def build_grid(n: int) -> Grid2D:
    """Build the n x n lattice; n >= 8 so every stencil has interior room."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ConfigError(f"grid size must be an integer, got {n!r}")
    n = int(n)
    if n < 8:
        raise ConfigError(f"grid needs at least 8 nodes per side, got n={n}")
    denom = n - 1
    # Coordinates by division (i/denom, not i*h) so the far corner is exactly 1.0.
    xs = np.arange(n, dtype=float) / denom
    k = np.arange(n - 1)
    edge = np.full(n - 1, n - 1)
    zero = np.zeros(n - 1, dtype=int)
    bix = np.concatenate([k, edge, edge - k, zero])
    biy = np.concatenate([zero, k, edge, edge - k])
    s = np.arange(4 * (n - 1), dtype=float) / denom
    return Grid2D(n=n, h=1.0 / denom, xs=xs,
                  boundary_ix=bix, boundary_iy=biy, boundary_s=s)


@dataclass(frozen=True, eq=False)
class SubdomainMask:
    """Boolean node-membership mask for a coordinate-defined subdomain."""

    member: np.ndarray      # (n, n) bool
    kind: str               # "rectangle" | "disk"
    params: dict
    grid_n: int

    @cached_property
    def indices(self) -> tuple[np.ndarray, np.ndarray]:
        return np.nonzero(self.member)

    @property
    def count(self) -> int:
        return int(self.member.sum())


def rect_mask(grid: Grid2D, lo: Point, hi: Point) -> SubdomainMask:
    """Closed axis-aligned rectangle [lo1, hi1] x [lo2, hi2] strictly inside."""
    lo = (float(lo[0]), float(lo[1]))
    hi = (float(hi[0]), float(hi[1]))
    for c in range(2):
        if not (0.0 < lo[c] < hi[c] < 1.0):
            raise ConfigError(
                f"rectangle must satisfy 0 < lo < hi < 1 per axis, got lo={lo}, hi={hi}")
    xs = grid.xs
    member = (((xs >= lo[0]) & (xs <= hi[0]))[:, None]
              & ((xs >= lo[1]) & (xs <= hi[1]))[None, :])
    return SubdomainMask(member=member, kind="rectangle",
                         params={"lo": lo, "hi": hi}, grid_n=grid.n)


def disk_mask(grid: Grid2D, center: Point, radius: float) -> SubdomainMask:
    """Closed disk, strictly inside the square, radius at least 4h."""
    cx, cy = float(center[0]), float(center[1])
    radius = float(radius)
    if radius < 4.0 * grid.h:
        raise ConfigError(
            f"disk radius {radius} is below the resolvable minimum 4h = {4.0 * grid.h}")
    if not (cx - radius > 0.0 and cx + radius < 1.0
            and cy - radius > 0.0 and cy + radius < 1.0):
        raise ConfigError(
            f"disk(center=({cx}, {cy}), radius={radius}) is not strictly inside the unit square")
    member = ((grid.xs[:, None] - cx) ** 2 + (grid.xs[None, :] - cy) ** 2
              <= radius ** 2)
    return SubdomainMask(member=member, kind="disk",
                         params={"center": (cx, cy), "radius": radius}, grid_n=grid.n)


def default_window(grid: Grid2D) -> SubdomainMask:
    """The standard interior observation window [1/4, 3/4]^2."""
    return rect_mask(grid, (0.25, 0.25), (0.75, 0.75))
