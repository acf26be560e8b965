"""Dictionary-based local approximation with weighted Tikhonov control."""

import numpy as np
import pytest

from randbc.errors import ConfigError, DomainError
from randbc.grid import disk_mask
from randbc.runge import approximate, build_dictionary, make_target, tradeoff_curve


@pytest.fixture(scope="module")
def disk65(grid65):
    return disk_mask(grid65, (0.5, 0.5), 0.2)


def test_dictionary_shape_and_constant_member(dict65, grid65):
    assert dict65.z.shape == (33, grid65.n, grid65.n)
    # the first basis mode is the constant 1/2, whose harmonic extension
    # is the same constant
    np.testing.assert_allclose(dict65.z[0], 0.5, rtol=0, atol=1e-10)


def test_dictionary_members_satisfy_the_equation(dict65, grid65):
    # each member obeys the interior residual contract of its solve
    op = dict65.operator
    for k in (0, 7, 32):
        bc = grid65.boundary_values(dict65.z[k])
        rhs_scale = np.abs(op.boundary_coupling @ bc).max()
        assert np.abs(op.apply(dict65.z[k])).max() <= 1e-11 * rhs_scale


def test_member_target_is_reachable(dict65, grid65, disk65):
    t = make_target("dictionary_member", grid65, disk65,
                    dictionary=dict65, index=5)
    assert t.kind == "dictionary_member"
    assert t.residual_rel <= 100.0 * grid65.h ** 2
    r = approximate(t, dict65, lam=1e-14)
    assert r.eps_achieved <= 1e-6
    # mode 5 dominates the recovered combination (members are nearly
    # collinear on the disk, so exact unit recovery is not expected)
    assert np.argmax(np.abs(r.c)) == 4
    assert abs(r.c[4] - 1.0) <= 0.05


def test_unregularized_member_recovery_reports_singularity(dict65, grid65, disk65):
    t = make_target("dictionary_member", grid65, disk65,
                    dictionary=dict65, index=5)
    with pytest.raises(DomainError, match="lambda"):
        approximate(t, dict65, lam=0.0)


def test_enlarging_the_dictionary_never_hurts(grid65, ident65, model33, disk65):
    short = build_dictionary(grid65, ident65, model33, K=17)
    t = make_target("fundamental_solution", grid65, disk65,
                    dictionary=None, pole=(0.9, 0.9))
    full = build_dictionary(grid65, ident65, model33)
    e_short = approximate(t, short, lam=1e-6).eps_achieved
    e_full = approximate(t, full, lam=1e-6).eps_achieved
    assert e_full <= e_short + 1e-12


def test_solution_satisfies_the_normal_equations(dict65, grid65, disk65):
    t = make_target("fundamental_solution", grid65, disk65, pole=(0.9, 0.9))
    lam = 1e-6
    r = approximate(t, dict65, lam=lam)
    sel = disk65.member
    zmat = dict65.z[:, sel]
    h2 = grid65.h ** 2
    gram = h2 * (zmat @ zmat.T) + lam * np.diag(dict65.model.sigma ** -2.0)
    rhs = h2 * (zmat @ t.h[sel])
    resid = np.abs(gram @ r.c - rhs).max()
    assert resid <= 1e-8 * max(np.abs(rhs).max(), 1e-30)


def test_heavy_regularization_suppresses_the_boundary_cost(dict65, grid65, disk65):
    t = make_target("fundamental_solution", grid65, disk65, pole=(0.9, 0.9))
    r = approximate(t, dict65, lam=1e12)
    sel = disk65.member
    null_eps = np.sqrt(np.sum(t.h[sel] ** 2) * grid65.h ** 2) / t.h1_norm
    assert r.boundary_cost <= 1e-6
    assert r.eps_achieved == pytest.approx(null_eps, rel=1e-6)


def test_tradeoff_curve_is_validated_and_ordered(dict65, grid65, disk65):
    t = make_target("fundamental_solution", grid65, disk65, pole=(0.9, 0.9))
    lams = [1e-2, 1e-4, 1e-6]
    curve = tradeoff_curve(t, dict65, lams)
    assert [r.lam for r in curve] == lams
    with pytest.raises(ConfigError):
        tradeoff_curve(t, dict65, [1e-6, 1e-4])
    with pytest.raises(ConfigError):
        tradeoff_curve(t, dict65, [1e-4, 0.0])


def test_boundary_cost_formula(dict65, grid65, disk65):
    t = make_target("dictionary_member", grid65, disk65,
                    dictionary=dict65, index=3)
    r = approximate(t, dict65, lam=1e-8)
    by_hand = np.linalg.norm(r.c / dict65.model.sigma) / t.h1_norm
    assert r.boundary_cost == pytest.approx(by_hand, rel=1e-12)


def test_analytic_targets_verify_their_equation(grid65, disk65):
    t = make_target("fundamental_solution", grid65, disk65,
                    pole=(0.85, 0.9), part="im")
    assert t.residual_rel <= 100.0 * grid65.h ** 2
    p = make_target("harmonic_poly", grid65, disk65, degree=3)
    assert p.residual_rel <= 100.0 * grid65.h ** 2


def test_fundamental_target_pole_must_lie_outside(grid65, disk65):
    with pytest.raises(ConfigError):
        make_target("fundamental_solution", grid65, disk65, pole=(0.5, 0.55))


def test_member_target_requires_a_dictionary_and_valid_index(grid65, disk65, dict65):
    with pytest.raises(ConfigError):
        make_target("dictionary_member", grid65, disk65, dictionary=None, index=1)
    with pytest.raises(ConfigError):
        make_target("dictionary_member", grid65, disk65,
                    dictionary=dict65, index=34)


def test_tradeoff_curve_is_approximate_at_each_lambda(dict65, grid65, disk65):
    t = make_target("dictionary_member", grid65, disk65, dictionary=dict65, index=3)
    lams = [1e-2, 1e-5, 1e-8]
    for r, lam in zip(tradeoff_curve(t, dict65, lams), lams):
        one = approximate(t, dict65, lam)
        np.testing.assert_array_equal(r.c, one.c)
        assert (r.eps_achieved, r.boundary_cost, r.lam, r.floored_modes) == (
            one.eps_achieved, one.boundary_cost, one.lam, one.floored_modes)
