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

from collections.abc import Sequence
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


@dataclass(frozen=True, eq=False)
class BoundaryFunction:
    """One realized boundary datum, stored by its basis coefficients."""

    coeffs: np.ndarray

    @property
    def K(self) -> int:
        return self.coeffs.shape[-1]


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


def sample(model: RandomBoundaryModel, rng: np.random.Generator) -> BoundaryFunction:
    """Draw one boundary function."""
    return BoundaryFunction(coeffs=sample_coeffs(model, rng, 1)[0])


def evaluate(bf: BoundaryFunction, grid: Grid2D) -> np.ndarray:
    """Values of the boundary function along the grid's boundary walk."""
    coeffs = np.asarray(bf.coeffs, dtype=float)
    basis = BoundaryBasis(coeffs.shape[0])
    return coeffs @ basis.evaluate(grid)


class SampledTraces(Sequence):
    """The boundary-walk values of (count, K) coefficient rows, evaluated on
    access: self[i] is evaluate(BoundaryFunction(coeffs[i]), grid), and no
    trace is kept."""

    def __init__(self, coeffs: np.ndarray, grid: Grid2D):
        self.coeffs = coeffs
        self.grid = grid

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i: int) -> np.ndarray:
        return evaluate(BoundaryFunction(coeffs=self.coeffs[i]), self.grid)


def sigma_norm(bf: BoundaryFunction, model: RandomBoundaryModel) -> float:
    """Weighted coefficient norm (sum a_k^2 / sigma_k^2)^{1/2}; +inf if a
    coefficient sits on a zero weight."""
    a = np.asarray(bf.coeffs, dtype=float)
    if a.shape != (model.K,):
        raise ConfigError(f"coefficients have shape {a.shape}, model has K={model.K}")
    live = model.sigma > 0.0
    if np.any(a[~live] != 0.0):
        return float("inf")
    return float(np.sqrt(np.sum((a[live] / model.sigma[live]) ** 2)))


def surrogate_h12_norm(bf: BoundaryFunction) -> float:
    """Spectral H^{1/2} surrogate (sum sqrt(1 + m_k^2) a_k^2)^{1/2}."""
    a = np.asarray(bf.coeffs, dtype=float)
    m = mode_frequencies(a.shape[0]).astype(float)
    return float(np.sqrt(np.sum(np.sqrt(1.0 + m * m) * a * a)))


@dataclass(frozen=True)
class CovarianceSummary:
    variances: np.ndarray
    max_offdiag_correlation: float


def empirical_covariance(samples) -> CovarianceSummary:
    """Per-mode sample variances and the largest |off-diagonal correlation|.

    samples: (M, K) coefficient array or a sequence of BoundaryFunction.
    """
    if isinstance(samples, np.ndarray):
        A = np.asarray(samples, dtype=float)
    else:
        A = np.stack([np.asarray(s.coeffs, dtype=float) for s in samples])
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
