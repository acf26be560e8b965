"""Dictionary-based local approximation with weighted Tikhonov control."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from randbc.boundary import RandomBoundaryModel
from randbc.errors import ConfigError, DomainError
from randbc.grid import build_grid, disk_mask
from randbc.runge import (Dictionary, _normal_equations, approximate, build_dictionary,
                          make_target, tradeoff_curve)
from randbc.solver import CoefficientField


@pytest.fixture(scope="module")
def disk65(grid65):
    return disk_mask(grid65, (0.5, 0.5), 0.2)


def test_dictionary_shape_and_constant_member(dict65, grid65):
    assert (len(dict65.z), *dict65.z[0].shape) == (33, grid65.n, grid65.n)
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


def test_member_residual_is_at_rounding_level_for_every_scale_of_a(grid17, model9):
    # L_h h scales with a; its unit, max |diag L_h| h^2 / 4, scales with it
    disk = disk_mask(grid17, (0.5, 0.5), 0.3)
    for a in (1e-100, 1.0, 1e30):
        d = build_dictionary(grid17, CoefficientField.isotropic(grid17, a=a), model9)
        t = make_target("dictionary_member", grid17, disk, dictionary=d, index=2)
        assert t.residual_rel < 1e-10, a


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
    zmat = np.stack([dict65.z[k][sel] for k in range(dict65.K)])
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


def _dense(dictionary):
    """The same dictionary with every member solved into a (K, n, n) array."""
    return Dictionary(grid=dictionary.grid, coeff=dictionary.coeff, model=dictionary.model,
                      z=np.stack([dictionary.z[k] for k in range(dictionary.K)]),
                      operator=dictionary.operator)


def test_members_are_solved_on_access_into_new_arrays(dict65):
    first, again = dict65.z[4], dict65.z[4]
    assert first is not again
    np.testing.assert_array_equal(first, again)
    first[:] = 0.0                      # a reader may keep and change what it got
    assert np.any(dict65.z[4] != 0.0)
    assert dict65.K == len(dict65.z) == 33
    np.testing.assert_array_equal(dict65.z[-1], dict65.z[32])
    with pytest.raises(IndexError):
        dict65.z[33]


def test_threads_reading_one_dictionary_get_the_serial_fields(dict65):
    serial = [dict65.z[k] for k in range(dict65.K)]
    with ThreadPoolExecutor(2) as pool:
        for _ in range(3):
            for k, field in enumerate(pool.map(dict65.z.__getitem__, range(dict65.K))):
                np.testing.assert_array_equal(field, serial[k])


@pytest.mark.parametrize("kind", ["dictionary_member", "fundamental_solution"])
def test_dense_and_on_demand_dictionaries_agree_bitwise(kind, dict65, grid65, disk65):
    dense = _dense(dict65)
    lams = [1e-2, 1e-5, 1e-8]
    curves = []
    for d in (dict65, dense):
        t = make_target(kind, grid65, disk65, dictionary=d, index=5)
        curves.append((t, tradeoff_curve(t, d, lams)))
    (t_lazy, lazy), (t_dense, full) = curves
    np.testing.assert_array_equal(t_lazy.h, t_dense.h)
    # the Gram system of the cube's disk block z[:, ix, iy], bit for bit
    Zd = dense.z[:, disk65.indices[0], disk65.indices[1]]
    gram = grid65.h ** 2 * (Zd @ Zd.T)
    _, _, G, b = _normal_equations(t_lazy, dict65)
    np.testing.assert_array_equal(G, 0.5 * (gram + gram.T))
    np.testing.assert_array_equal(b, grid65.h ** 2 * (Zd @ t_lazy.h[disk65.indices]))
    assert t_lazy.residual_rel == t_dense.residual_rel
    for a, b in zip(lazy, full):
        np.testing.assert_array_equal(a.c, b.c)
        assert (a.eps_achieved, a.boundary_cost) == (b.eps_achieved, b.boundary_cost)


def test_the_runge_path_never_holds_the_solved_cube(traced_memory):
    grid = build_grid(129)
    coeff = CoefficientField.isotropic(grid)
    model = RandomBoundaryModel.power_law(K=33, c=1.0, s=1.5, family="gaussian")
    disk = disk_mask(grid, (0.5, 0.5), 0.2)
    cube = model.K * grid.n ** 2 * 8

    def run(kind):
        d = build_dictionary(grid, coeff, model)
        t = make_target(kind, grid, disk, dictionary=d, index=5)
        tradeoff_curve(t, d, [1e-2, 1e-6])

    for kind in ("fundamental_solution", "dictionary_member"):
        peak, _ = traced_memory(lambda: run(kind))
        assert peak < 0.5 * cube, (kind, peak / cube)
