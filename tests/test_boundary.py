"""Trigonometric trace basis and the random boundary model."""

import numpy as np
import pytest

from randbc.boundary import (BoundaryBasis, BoundaryFunction,
                             RandomBoundaryModel, empirical_covariance,
                             evaluate, mode_frequencies, sample,
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
    bf = BoundaryFunction(coeffs=np.array([2.0, 0.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(evaluate(bf, g), 1.0, rtol=0, atol=1e-15)


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
    f1 = sample(m, derive_rng(11, 4))
    f2 = sample(m, derive_rng(11, 4))
    np.testing.assert_array_equal(f1.coeffs, f2.coeffs)
    g = build_grid(17)
    np.testing.assert_array_equal(evaluate(f1, g), evaluate(f2, g))


def test_weighted_and_smoothness_norms_frozen_values():
    m = RandomBoundaryModel.power_law(K=5, c=1.0, s=1.5)
    bf = BoundaryFunction(coeffs=np.array([0.5, -0.25, 0.1, 0.0, 0.3]))
    assert sigma_norm(bf, m) == pytest.approx(3.5028559776273984, rel=1e-13)
    assert surrogate_h12_norm(bf) == pytest.approx(0.7441616768196482, rel=1e-13)


@pytest.mark.parametrize("c", [1e150, 1e200, 1e300])
def test_smoothness_norm_is_finite_up_to_the_weight_scale_bound(c):
    # a * a overflows above about 1e154; the sum is then taken on a / max|a|
    unit = RandomBoundaryModel.power_law(K=33, c=1.0, s=1.5)
    scaled = RandomBoundaryModel.power_law(K=33, c=c, s=1.5)
    rows = zip(sample_coeffs(scaled, derive_rng(3, 0), 4),
               sample_coeffs(unit, derive_rng(3, 0), 4))
    for big, ref in rows:
        big, ref = BoundaryFunction(coeffs=big), BoundaryFunction(coeffs=ref)
        norm = surrogate_h12_norm(big)
        assert np.isfinite(norm)
        assert norm == pytest.approx(c * surrogate_h12_norm(ref), rel=1e-14)


def test_weighted_norm_is_infinite_off_the_model_support():
    basis = BoundaryBasis(3)
    m = RandomBoundaryModel(basis=basis, sigma=np.array([1.0, 0.0, 0.5]),
                            family="gaussian")
    bf = BoundaryFunction(coeffs=np.array([1.0, 0.2, 0.0]))
    assert sigma_norm(bf, m) == np.inf
    bf2 = BoundaryFunction(coeffs=np.array([1.0, 0.0, 1.0]))
    assert np.isfinite(sigma_norm(bf2, m))


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
    m = RandomBoundaryModel.power_law(K=9)
    bf = sample(m, derive_rng(2, 8))
    b = BoundaryBasis(9).evaluate(g)
    np.testing.assert_allclose(evaluate(bf, g), bf.coeffs @ b, rtol=0, atol=1e-14)
