"""Trigonometric trace basis and the random boundary model."""

import numpy as np
import pytest

from randbc.boundary import (BoundaryBasis, RandomBoundaryModel,
                             empirical_covariance, mode_frequencies,
                             sample_coeffs, sigma_norm, surrogate_h12_norm)
from randbc.errors import ConfigError, DomainError
from randbc.grid import build_grid
from randbc.streams import derive_rng


def test_mode_frequencies_pair_up():
    np.testing.assert_array_equal(mode_frequencies(6), [0, 1, 1, 2, 2, 3])


def test_first_mode_is_the_constant_one_half():
    g = build_grid(17)
    b = BoundaryBasis(5).evaluate(g)
    np.testing.assert_allclose(b[0], 0.5, rtol=0, atol=1e-15)


def test_second_mode_is_the_scaled_cosine():
    g = build_grid(17)
    b = BoundaryBasis(5).evaluate(g)
    np.testing.assert_allclose(
        b[1], np.cos(np.pi * g.boundary_s / 2.0) / np.sqrt(2.0),
        rtol=0, atol=1e-14)
    # a one-hot weight on the constant mode synthesizes the constant 1
    np.testing.assert_allclose(np.array([2.0, 0.0, 0.0, 0.0, 0.0]) @ b, 1.0,
                               rtol=0, atol=1e-15)


def test_basis_is_orthonormal_under_the_trace_quadrature():
    g = build_grid(17)
    b = BoundaryBasis(9).evaluate(g)
    gram = g.h * (b @ b.T)
    np.testing.assert_allclose(gram, np.eye(9), rtol=0, atol=1e-12)


def test_basis_size_must_be_odd_and_resolvable():
    with pytest.raises(ConfigError):
        BoundaryBasis(6)
    with pytest.raises(ConfigError):
        BoundaryBasis(0)
    g = build_grid(9)
    # K - 1 modes must stay below the boundary Nyquist limit 4(n-1)
    BoundaryBasis(31).evaluate(g)
    with pytest.raises(ConfigError):
        BoundaryBasis(33).evaluate(g)


def test_power_law_weights_and_validation():
    m = RandomBoundaryModel.power_law(K=5, c=1.0, s=1.5)
    np.testing.assert_allclose(
        m.sigma, [1.0, 2.0 ** -1.5, 3.0 ** -1.5, 4.0 ** -1.5, 5.0 ** -1.5],
        rtol=1e-15)
    with pytest.raises(ConfigError):
        RandomBoundaryModel.power_law(K=5, c=-1.0)
    with pytest.raises(ConfigError):
        RandomBoundaryModel.power_law(K=5, s=1.0)


def test_truncation_keeps_a_prefix():
    m = RandomBoundaryModel.power_law(K=9, c=2.0, s=2.0)
    t = m.truncate(5)
    assert t.basis.K == 5
    np.testing.assert_array_equal(t.sigma, m.sigma[:5])


def test_family_laws_of_sampled_coefficients():
    m_r = RandomBoundaryModel.power_law(K=7, family="rademacher")
    m_u = RandomBoundaryModel.power_law(K=7, family="uniform")
    m_g = RandomBoundaryModel.power_law(K=7, family="gaussian")
    a_r = sample_coeffs(m_r, derive_rng(0, 1), 500)
    np.testing.assert_array_equal(np.abs(a_r), np.broadcast_to(m_r.sigma, a_r.shape))
    a_u = sample_coeffs(m_u, derive_rng(0, 2), 500)
    assert np.all(np.abs(a_u) <= np.sqrt(3.0) * m_u.sigma + 1e-12)
    np.testing.assert_allclose(a_u.std(axis=0), m_u.sigma, rtol=0.2)
    a_g = sample_coeffs(m_g, derive_rng(0, 3), 2000)
    np.testing.assert_allclose(a_g.std(axis=0), m_g.sigma, rtol=0.2)
    with pytest.raises(ConfigError):
        RandomBoundaryModel.power_law(K=5, family="cauchy")


def test_sampling_is_reproducible_from_the_stream_key():
    m = RandomBoundaryModel.power_law(K=9)
    a1 = sample_coeffs(m, derive_rng(11, 4), 3)
    a2 = sample_coeffs(m, derive_rng(11, 4), 3)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, sample_coeffs(m, derive_rng(11, 5), 3))


def test_weighted_and_smoothness_norms_frozen_values():
    m = RandomBoundaryModel.power_law(K=5, c=1.0, s=1.5)
    a = np.array([0.5, -0.25, 0.1, 0.0, 0.3])
    assert sigma_norm(a, m) == pytest.approx(3.5028559776273984, rel=1e-13)
    assert surrogate_h12_norm(a) == pytest.approx(0.7441616768196482, rel=1e-13)


@pytest.mark.parametrize("c", [1e150, 1e200, 1e300])
def test_smoothness_norm_is_finite_up_to_the_weight_scale_bound(c):
    # a * a overflows above about 1e154; the sum is then taken on a / max|a|
    unit = RandomBoundaryModel.power_law(K=33, c=1.0, s=1.5)
    scaled = RandomBoundaryModel.power_law(K=33, c=c, s=1.5)
    norm = surrogate_h12_norm(sample_coeffs(scaled, derive_rng(3, 0), 4))
    assert np.isfinite(norm).all()
    ref = surrogate_h12_norm(sample_coeffs(unit, derive_rng(3, 0), 4))
    np.testing.assert_allclose(norm, c * ref, rtol=1e-14, atol=0.0)


def test_weighted_norm_is_infinite_off_the_model_support():
    basis = BoundaryBasis(3)
    m = RandomBoundaryModel(basis=basis, sigma=np.array([1.0, 0.0, 0.5]),
                            family="gaussian")
    assert sigma_norm(np.array([1.0, 0.2, 0.0]), m) == np.inf
    assert np.isfinite(sigma_norm(np.array([1.0, 0.0, 1.0]), m))
    with pytest.raises(ConfigError):
        sigma_norm(np.zeros((2, 5)), m)


def test_empirical_covariance_recovers_the_weights():
    m = RandomBoundaryModel.power_law(K=5, c=1.0, s=1.5)
    a = sample_coeffs(m, derive_rng(5, 0), 4000)
    summ = empirical_covariance(a)
    np.testing.assert_allclose(summ.variances, m.sigma ** 2, rtol=0.15)
    assert summ.max_offdiag_correlation <= 0.1
    with pytest.raises(DomainError):
        empirical_covariance(a[:1])


def test_boundary_evaluation_matches_direct_synthesis():
    g = build_grid(17)
    a = sample_coeffs(RandomBoundaryModel.power_law(K=9), derive_rng(2, 8), 1)[0]
    ang = 0.5 * np.pi * g.boundary_s
    direct = 0.5 * a[0] + sum(
        (a[2 * m - 1] * np.cos(m * ang) + a[2 * m] * np.sin(m * ang)) / np.sqrt(2.0)
        for m in range(1, 5))
    np.testing.assert_allclose(a @ BoundaryBasis(9).evaluate(g), direct,
                               rtol=0, atol=1e-14)


def _sigma_norm_of_one_row(a, model):
    live = model.sigma > 0.0
    if np.any(a[~live] != 0.0):
        return np.inf
    return np.sqrt(np.sum((a[live] / model.sigma[live]) ** 2))


def _h12_norm_of_one_row(a):
    m = mode_frequencies(a.size).astype(float)
    weights = np.sqrt(1.0 + m * m)
    with np.errstate(over="ignore"):
        total = np.sum(weights * a * a)
    if np.isfinite(total):
        return np.sqrt(total)
    top = np.abs(a).max()
    return top * np.sqrt(np.sum(weights * (a / top) * (a / top)))


def _row_by_row(norm, rows, *args):
    return np.array([norm(row, *args) for row in rows])


@pytest.mark.parametrize("family", ["gaussian", "rademacher", "uniform"])
def test_row_wise_norms_equal_the_row_by_row_norms_bitwise(family):
    m = RandomBoundaryModel.power_law(K=33, family=family)
    rows = sample_coeffs(m, derive_rng(6, 1), 40)
    assert sigma_norm(rows, m).tobytes() == _row_by_row(_sigma_norm_of_one_row, rows, m).tobytes()
    assert (surrogate_h12_norm(rows).tobytes()
            == _row_by_row(_h12_norm_of_one_row, rows).tobytes())
    assert sigma_norm(rows.reshape(4, 10, 33), m).shape == (4, 10)
    assert surrogate_h12_norm(rows.reshape(4, 10, 33)).shape == (4, 10)


def test_row_wise_sigma_norm_is_infinite_only_on_rows_off_the_support():
    sigma = RandomBoundaryModel.power_law(K=9).sigma.copy()
    sigma[[2, 5]] = 0.0
    m = RandomBoundaryModel(basis=BoundaryBasis(9), sigma=sigma, family="gaussian")
    rows = sample_coeffs(m, derive_rng(6, 2), 12)
    rows[[1, 7], 5] = 0.25
    norms = sigma_norm(rows, m)
    assert norms.tobytes() == _row_by_row(_sigma_norm_of_one_row, rows, m).tobytes()
    np.testing.assert_array_equal(np.isinf(norms), np.isin(np.arange(12), [1, 7]))


def test_row_wise_smoothness_norm_rescales_only_the_rows_that_overflow():
    unit = RandomBoundaryModel.power_law(K=33, c=1.0, s=1.5)
    huge = RandomBoundaryModel.power_law(K=33, c=1e200, s=1.5)
    rows = np.empty((64, 33))
    rows[0::2] = sample_coeffs(huge, derive_rng(7, 0), 32)
    rows[1::2] = sample_coeffs(unit, derive_rng(7, 1), 32)
    norms = surrogate_h12_norm(rows)
    assert norms.tobytes() == _row_by_row(_h12_norm_of_one_row, rows).tobytes()
    assert np.isfinite(norms).all()
    assert (norms[0::2] > 1e150).all() and (norms[1::2] < 1e3).all()
