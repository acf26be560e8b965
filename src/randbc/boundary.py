"""Random Dirichlet data as truncated series in a trigonometric boundary basis.

The boundary walk has total length 4, so the basis over arclength s in [0, 4)
is e_1 = 1/2, e_{2m} = cos(2 pi m s / 4)/sqrt(2), e_{2m+1} = sin(2 pi m s / 4)/sqrt(2),
orthonormal for the lattice inner product <f, g> = h * sum_j f(s_j) g(s_j).
A boundary function is phi = sum_k a_k e_k with independent coefficients
a_k = sigma_k xi_k; xi_k standard gaussian, Rademacher, or uniform on
[-sqrt(3), sqrt(3)] (all mean zero, variance one), with decaying weights
sigma_k = c k^{-s}.

The weighted coefficient norm ||phi||_sigma^2 = sum a_k^2 / sigma_k^2 and the
spectral H^{1/2} surrogate (sum (1 + m_k^2)^{1/2} a_k^2)^{1/2} (m_k the mode
frequency) drive the tail and concentration experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError
from .grid import Grid2D

FAMILIES = ("gaussian", "rademacher", "uniform")


def mode_frequencies(K: int) -> np.ndarray:
    """Frequency m of each basis element: 0, 1, 1, 2, 2, ..."""
    k = np.arange(1, K + 1)
    return k // 2


@dataclass(frozen=True, eq=False)
class BoundaryBasis:
    """Truncated trigonometric basis on the boundary walk; K odd keeps cos/sin pairs."""

    K: int

    def __post_init__(self):
        if not isinstance(self.K, (int, np.integer)) or isinstance(self.K, bool):
            raise ConfigError(f"basis truncation must be an integer, got {self.K!r}")
        if self.K < 1 or self.K % 2 == 0:
            raise ConfigError(f"basis truncation must be odd and >= 1, got K={self.K}")

    def evaluate(self, grid: Grid2D) -> np.ndarray:
        """(K, 4(n-1)) matrix of basis values along the boundary walk."""
        if self.K - 1 >= 4 * (grid.n - 1):
            raise ConfigError(
                f"K={self.K} aliases on the {4 * (grid.n - 1)}-node boundary walk; "
                f"need K - 1 < 4(n - 1)")
        return _basis_matrix(self.K, grid.n)


@lru_cache(maxsize=64)
def _basis_matrix(K: int, n: int) -> np.ndarray:
    s = np.arange(4 * (n - 1), dtype=float) / (n - 1)
    out = np.empty((K, s.size))
    out[0] = 0.5
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for m in range(1, (K - 1) // 2 + 1):
        ang = (0.5 * np.pi * m) * s
        out[2 * m - 1] = np.cos(ang) * inv_sqrt2
        if 2 * m < K:
            out[2 * m] = np.sin(ang) * inv_sqrt2
    return out


@dataclass(frozen=True, eq=False)
class RandomBoundaryModel:
    """Coefficient law: family plus per-mode weights sigma (>= 0, finite)."""

    basis: BoundaryBasis
    sigma: np.ndarray
    family: str = "gaussian"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; pick one of {FAMILIES}")
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (self.basis.K,):
            raise ConfigError(
                f"sigma must have shape ({self.basis.K},), got {sigma.shape}")
        if not np.all(np.isfinite(sigma)) or np.any(sigma < 0.0):
            raise ConfigError("sigma weights must be finite and nonnegative")
        object.__setattr__(self, "sigma", sigma)

    @property
    def K(self) -> int:
        return self.basis.K

    @classmethod
    def power_law(cls, K: int = 33, c: float = 1.0, s: float = 1.5,
                  family: str = "gaussian") -> "RandomBoundaryModel":
        """sigma_k = c k^{-s}; s > 1 keeps sum sigma_k finite, c > 0 nondegenerate."""
        if not (c > 0.0):
            raise ConfigError(f"weight scale c must be positive, got {c}")
        if not (s > 1.0):
            raise ConfigError(f"decay exponent must exceed 1, got s={s}")
        basis = BoundaryBasis(K)
        k = np.arange(1, K + 1, dtype=float)
        return cls(basis=basis, sigma=c * k ** (-s), family=family)

    def truncate(self, K: int) -> "RandomBoundaryModel":
        """Prefix sub-model on the first K basis elements."""
        if K > self.K:
            raise ConfigError(f"cannot extend model from K={self.K} to K={K}")
        return RandomBoundaryModel(basis=BoundaryBasis(K), sigma=self.sigma[:K],
                                   family=self.family)


def sample_coeffs(model: RandomBoundaryModel, rng: np.random.Generator,
                  count: int) -> np.ndarray:
    """(count, K) i.i.d. coefficient rows a_k = sigma_k xi_k."""
    if count < 0:
        raise ConfigError(f"sample count must be nonnegative, got {count}")
    K = model.K
    if model.family == "gaussian":
        xi = rng.standard_normal((count, K))
    elif model.family == "rademacher":
        xi = 2.0 * rng.integers(0, 2, size=(count, K)).astype(float) - 1.0
    else:
        root3 = np.sqrt(3.0)
        xi = rng.uniform(-root3, root3, size=(count, K))
    return xi * model.sigma


def sigma_norm(coeffs, model: RandomBoundaryModel) -> np.ndarray:
    """Weighted coefficient norm (sum a_k^2 / sigma_k^2)^{1/2} of each (..., K)
    row; +inf for a row with a coefficient on a zero weight."""
    a = np.asarray(coeffs, dtype=float)
    if a.shape[-1:] != (model.K,):
        raise ConfigError(f"coefficients have shape {a.shape}, model has K={model.K}")
    live = model.sigma > 0.0
    q = np.compress(live, a, axis=-1)   # C-contiguous: each row sums in 1-D order
    np.square(np.divide(q, model.sigma[live], out=q), out=q)
    off = np.any(np.compress(~live, a, axis=-1) != 0.0, axis=-1)
    return np.where(off, np.inf, np.sqrt(np.sum(q, axis=-1)))


def surrogate_h12_norm(coeffs) -> np.ndarray:
    """Spectral H^{1/2} surrogate (sum sqrt(1 + m_k^2) a_k^2)^{1/2} of each
    (..., K) row."""
    a = np.asarray(coeffs, dtype=float)
    m = mode_frequencies(a.shape[-1]).astype(float)
    weights = np.sqrt(1.0 + m * m)
    a = a.reshape(-1, m.size)
    with np.errstate(over="ignore"):
        t = weights * a
        norm = np.sqrt(np.sum(np.multiply(t, a, out=t), axis=-1))
    big = ~np.isfinite(norm)
    if big.any():               # a * a overflows above about 1e154: rescale first
        top = np.abs(a[big]).max(axis=-1)
        r = a[big] / top[:, None]
        norm[big] = top * np.sqrt(np.sum(weights * r * r, axis=-1))
    return norm.reshape(np.shape(coeffs)[:-1])


@dataclass(frozen=True)
class CovarianceSummary:
    variances: np.ndarray
    max_offdiag_correlation: float


def empirical_covariance(samples) -> CovarianceSummary:
    """Per-mode sample variances and the largest |off-diagonal correlation| of
    an (M, K) coefficient array."""
    A = np.asarray(samples, dtype=float)
    if A.ndim != 2 or A.shape[0] < 2:
        raise DomainError("empirical covariance needs at least two samples")
    variances = A.var(axis=0, ddof=1)
    live = variances > 0.0
    max_off = 0.0
    if live.sum() >= 2:
        corr = np.corrcoef(A[:, live], rowvar=False)
        off = corr - np.diag(np.diag(corr))
        max_off = float(np.abs(off).max())
    return CovarianceSummary(variances=variances, max_offdiag_correlation=max_off)
