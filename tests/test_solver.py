"""Discrete elliptic operator assembly and the Dirichlet solve contract."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse import linalg as spla

import randbc.solver
from randbc.boundary import RandomBoundaryModel
from randbc.errors import ConfigError, SolverError
from randbc.grid import build_grid, default_window
from randbc.runge import build_dictionary
from randbc.solver import (CoefficientField, assemble, conjugate_gradients,
                           gradient, laplacian, laplacian_floor, load_field_csv,
                           norms, save_field_csv, solve_dirichlet, solve_poisson)


def exact_harmonic(g):
    # sin(pi x) sinh(pi y) / sinh(pi) is harmonic with simple traces
    return np.sin(np.pi * g.X) * np.sinh(np.pi * g.Y) / np.sinh(np.pi)


def smooth_a(g):
    return 1.0 + 0.5 * np.exp(-20.0 * ((g.X - 0.4) ** 2 + (g.Y - 0.6) ** 2))


def solve_with_exact(n, a_fn=None, q=0.0):
    g = build_grid(n)
    a = 1.0 if a_fn is None else a_fn(g)
    coeff = CoefficientField.isotropic(g, a, q)
    op = assemble(g, coeff)
    u_ex = exact_harmonic(g)
    u = solve_dirichlet(op, g.boundary_values(u_ex))
    return g, u, u_ex


def test_system_matrix_is_exactly_symmetric():
    g = build_grid(17)
    coeff = CoefficientField.isotropic(g, smooth_a(g), 0.3)
    op = assemble(g, coeff)
    assert (op.matrix - op.matrix.T).nnz == 0


def test_anisotropic_matrix_is_exactly_symmetric():
    g = build_grid(17)
    a11 = 1.0 + 0.2 * g.X
    a22 = 1.2 + 0.1 * g.Y
    a12 = 0.15 * g.X * g.Y
    coeff = CoefficientField.anisotropic(g, a11, a12, a22, q=0.1)
    op = assemble(g, coeff)
    assert not op.spd
    assert (op.matrix - op.matrix.T).nnz == 0


def test_interior_stencil_row_of_the_laplacian():
    g = build_grid(9)
    op = assemble(g, CoefficientField.isotropic(g))
    # row of the interior node (4, 4) in the (n-2)^2 interior ordering
    k = (4 - 1) * (g.n - 2) + (4 - 1)
    row = op.matrix.getrow(k).toarray().ravel()
    h2 = g.h ** 2
    assert row[k] == pytest.approx(4.0 / h2, rel=1e-14)
    neighbors = np.sort(np.delete(np.nonzero(row)[0], np.searchsorted(
        np.nonzero(row)[0], k)))
    assert len(np.nonzero(row)[0]) == 5
    for j in neighbors:
        assert row[j] == pytest.approx(-1.0 / h2, rel=1e-14)
    # doubling the coefficient doubles every entry
    op2 = assemble(g, CoefficientField.isotropic(g, 2.0))
    assert (op2.matrix - 2.0 * op.matrix).nnz == 0


def test_zero_boundary_data_gives_the_zero_solution():
    g = build_grid(17)
    op = assemble(g, CoefficientField.isotropic(g))
    u = solve_dirichlet(op, np.zeros(g.boundary_s.shape[0]))
    assert np.all(u == 0.0)


def test_zero_order_term_contracts_constant_data():
    g = build_grid(17)
    op = assemble(g, CoefficientField.isotropic(g, 1.0, 1.0))
    u = solve_dirichlet(op, np.ones(g.boundary_s.shape[0]))
    inner = u[1:-1, 1:-1]
    assert np.all(inner > 0.0)
    assert np.all(inner < 1.0)


def test_laplace_solution_converges_at_second_order():
    errs = {}
    for n in (17, 33):
        g, u, u_ex = solve_with_exact(n)
        errs[n] = np.abs(u - u_ex).max()
    ratio = errs[17] / errs[33]
    assert 3.5 <= ratio <= 4.5


def test_quadratic_harmonic_polynomial_is_resolved_to_solver_tolerance():
    # the five point stencil is exact on x^2 - y^2, so the only error is
    # the linear-solver residual
    g = build_grid(33)
    op = assemble(g, CoefficientField.isotropic(g))
    u_ex = g.X ** 2 - g.Y ** 2
    u = solve_dirichlet(op, g.boundary_values(u_ex), rtol=1e-13)
    assert np.abs(u - u_ex).max() <= 1e-10


def test_residual_contract_holds_on_both_solver_paths():
    g = build_grid(17)
    rtol = 1e-11
    bc = np.cos(3.0 * g.boundary_s)
    for coeff in (CoefficientField.isotropic(g, smooth_a(g), 0.2),
                  CoefficientField.anisotropic(g, 1.0 + 0.2 * g.X,
                                               0.1 * g.X * g.Y,
                                               1.1 + 0.1 * g.Y)):
        op = assemble(g, coeff)
        u, info = solve_dirichlet(op, bc, rtol=rtol, want_info=True)
        rhs = op.boundary_coupling @ bc
        res = np.abs(op.apply(u)).max()
        assert res <= rtol * np.abs(rhs).max()
        assert info.method == ("cg-multigrid" if op.spd else "lu")
        assert info.residual_inf == pytest.approx(res, rel=1e-6, abs=1e-30)


def test_cg_and_lu_paths_agree_on_the_same_equation():
    # a12 = 0 keeps the continuous problem identical; the nine point and
    # five point stencils then agree to discretization accuracy
    g = build_grid(33)
    a = smooth_a(g)
    bc = np.sin(2.0 * np.pi * g.boundary_s / 4.0)
    u_cg = solve_dirichlet(assemble(g, CoefficientField.isotropic(g, a)), bc)
    u_lu = solve_dirichlet(
        assemble(g, CoefficientField.anisotropic(g, a, np.zeros_like(a), a)), bc)
    assert np.abs(u_cg - u_lu).max() <= 5e-3


def test_discrete_maximum_principle_for_zero_order_free_equation():
    g = build_grid(17)
    coeff = CoefficientField.isotropic(g, smooth_a(g))
    op = assemble(g, coeff)
    rng = np.random.default_rng(7)
    bc = rng.standard_normal(g.boundary_s.shape[0])
    u = solve_dirichlet(op, bc)
    assert u.min() >= bc.min() - 1e-9
    assert u.max() <= bc.max() + 1e-9


def disk_a(g):
    return np.where((g.X - 0.5) ** 2 + (g.Y - 0.5) ** 2 < 0.09, 0.1, 10.0)


def q_threshold(g, a):
    """The lowest potential the closed-form certificate accepts for this a."""
    return -0.5 * np.min(a) * laplacian_floor(g)


SPD_COEFFICIENTS = {
    "one": lambda g: (1.0, 0.0),
    "exp": lambda g: (np.exp(g.X), 0.0),
    "disk": lambda g: (disk_a(g), 0.0),
    "bump": lambda g: (1.0, 5.0 * np.exp(-20.0 * ((g.X - 0.4) ** 2 + (g.Y - 0.6) ** 2))),
    "negq": lambda g: (np.exp(g.X), 0.999 * q_threshold(g, np.exp(g.X))),
}


def multigrid_cg(op, rhs, atol):
    """Multigrid-preconditioned CG on op, bypassing the solver's path choice."""
    precond = spla.LinearOperator(op.matrix.shape, matvec=op.multigrid)
    iters = []
    x, code = spla.cg(op.matrix, rhs, rtol=0.0, atol=atol, maxiter=200, M=precond,
                      callback=iters.append)
    assert code == 0
    return x, len(iters)


@pytest.mark.parametrize("coeff", sorted(SPD_COEFFICIENTS))
@pytest.mark.parametrize("n", [9, 17, 50, 65, 100, 129])
def test_multigrid_cg_meets_the_contract_in_few_iterations(n, coeff):
    g = build_grid(n)
    a, q = SPD_COEFFICIENTS[coeff](g)
    op = assemble(g, CoefficientField.isotropic(g, a, q))
    assert op.spd
    rtol = 1e-10
    bc = np.cos(3.0 * g.boundary_s) + 0.3 * np.sin(7.0 * g.boundary_s)
    rhs = op.boundary_coupling @ bc
    if op.stencil is None:
        u, info = solve_dirichlet(op, bc, rtol=rtol, want_info=True)
        assert info.method == "cg-multigrid"
        iterations, res = info.iterations, np.abs(op.apply(u)).max()
    else:
        # a = 1 solves by sine transform; drive the multigrid it would use.
        x, iterations = multigrid_cg(op, rhs, rtol * np.abs(rhs).max())
        res = np.abs(op.matrix @ x - rhs).max()
    assert iterations <= 25
    assert res <= rtol * np.abs(rhs).max()


@pytest.mark.parametrize("coeff", sorted(SPD_COEFFICIENTS))
@pytest.mark.parametrize("n", [17, 65, 129])
def test_cg_loop_meets_the_inf_norm_target_no_later_than_scipy_cg(n, coeff):
    g = build_grid(n)
    a, q = SPD_COEFFICIENTS[coeff](g)
    op = assemble(g, CoefficientField.isotropic(g, a, q))
    bc = np.cos(3.0 * g.boundary_s) + 0.3 * np.sin(7.0 * g.boundary_s)
    rhs = op.boundary_coupling @ bc
    target = 1e-10 * np.abs(rhs).max()
    x, iterations, res = conjugate_gradients(op.matrix, rhs, target, 200, op.multigrid)
    assert res == np.abs(rhs - op.matrix @ x).max() <= target
    _, reference_iterations = multigrid_cg(op, rhs, target)
    assert 0 < iterations <= reference_iterations


def test_cg_loop_reports_the_iteration_cap():
    g = build_grid(33)
    op = assemble(g, CoefficientField.isotropic(g, np.exp(g.X)))
    rhs = op.boundary_coupling @ np.cos(g.boundary_s)
    with pytest.raises(SolverError, match="after 2 iterations") as caught:
        conjugate_gradients(op.matrix, rhs, 1e-14 * np.abs(rhs).max(), 2, op.multigrid)
    assert caught.value.iterations == 2
    assert caught.value.residual > 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("precond", [False, True], ids=["plain", "multigrid"])
def test_cg_loop_rejects_a_non_finite_right_hand_side(bad, precond):
    g = build_grid(17)
    op = assemble(g, CoefficientField.isotropic(g, np.exp(g.X)))
    rhs = op.boundary_coupling @ np.cos(g.boundary_s)
    rhs[7] = bad
    with pytest.raises(SolverError) as caught:
        conjugate_gradients(op.matrix, rhs, 1e-10, 100,
                            op.multigrid if precond else None)
    assert caught.value.iterations == 0


@pytest.mark.parametrize("n", [9, 17, 50, 65, 100, 129])
def test_multigrid_preconditioner_is_symmetric(n):
    g = build_grid(n)
    rng = np.random.default_rng(n)
    for coeff in ("disk", "negq"):
        a, q = SPD_COEFFICIENTS[coeff](g)
        op = assemble(g, CoefficientField.isotropic(g, a, q))
        v, w = rng.standard_normal((2, op.matrix.shape[0]))
        Mv, Mw = op.multigrid(v), op.multigrid(w)
        scale = max(np.linalg.norm(Mv) * np.linalg.norm(w),
                    np.linalg.norm(v) * np.linalg.norm(Mw))
        assert abs(Mv @ w - v @ Mw) <= 1e-12 * scale
        assert v @ Mv > 0.0


@pytest.mark.parametrize("n", [50, 65, 129])
def test_stored_restriction_is_the_transpose_bit_for_bit(n):
    g = build_grid(n)
    op = assemble(g, CoefficientField.isotropic(g, np.exp(g.X)))
    rng = np.random.default_rng(n)
    for A, _, P, R in op.multigrid.levels:
        r = rng.standard_normal(A.shape[0])
        assert np.array_equal(R @ r, P.T @ r)


@pytest.mark.parametrize("kind", ["one", "exp", "disk"])
@pytest.mark.parametrize("n", [9, 17, 33])
def test_spectrum_obeys_the_closed_form_lower_bound(n, kind):
    g = build_grid(n)
    a, _ = SPD_COEFFICIENTS[kind](g)
    q = 0.999 * q_threshold(g, a)
    op = assemble(g, CoefficientField.isotropic(g, a, q))
    assert op.spd
    lam_min = np.linalg.eigvalsh(op.matrix.toarray())[0]
    bound = np.min(a) * laplacian_floor(g) + q
    assert bound > 0.0
    assert lam_min >= bound * (1.0 - 1e-9)


@pytest.mark.parametrize("n", [9, 17, 33])
def test_bound_is_attained_for_unit_diffusion_and_constant_potential(n):
    g = build_grid(n)
    for q in (0.0, 2.5, 0.999 * q_threshold(g, 1.0)):
        op = assemble(g, CoefficientField.isotropic(g, 1.0, q))
        lam_min = np.linalg.eigvalsh(op.matrix.toarray())[0]
        assert lam_min == pytest.approx(laplacian_floor(g) + q, rel=1e-9)


@pytest.mark.parametrize("a_fn, q_fn", [
    (lambda g: np.exp(g.X), lambda g, a: 1.001 * q_threshold(g, a)),
    (disk_a, lambda g, a: -5.0),
], ids=["exp-past-threshold", "disk-q=-5"])
def test_uncertified_potentials_keep_the_lu_path(a_fn, q_fn):
    g = build_grid(33)
    a = a_fn(g)
    op = assemble(g, CoefficientField.isotropic(g, a, q_fn(g, a)))
    assert not op.spd
    rtol = 1e-10
    bc = np.cos(3.0 * g.boundary_s)
    u, info = solve_dirichlet(op, bc, rtol=rtol, want_info=True)
    assert info.method == "lu"
    assert np.abs(op.apply(u)).max() <= rtol * np.abs(op.boundary_coupling @ bc).max()


def test_dictionary_builds_one_hierarchy_for_all_its_solves(monkeypatch):
    built = []

    class Counting(randbc.solver.Multigrid):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(randbc.solver, "Multigrid", Counting)
    g = build_grid(33)
    model = RandomBoundaryModel.power_law(K=9, c=1.0, s=1.5, family="gaussian")
    dictionary = build_dictionary(g, CoefficientField.isotropic(g, np.exp(g.X)), model)
    assert dictionary.K == 9
    assert len(built) == 1
    assert isinstance(dictionary.operator.multigrid, Counting)


def test_solver_error_reports_residual_and_iterations():
    g = build_grid(33)
    op = assemble(g, CoefficientField.isotropic(g, np.exp(g.X)))
    bc = np.cos(g.boundary_s)
    with pytest.raises(SolverError) as ei:
        solve_dirichlet(op, bc, rtol=1e-14, maxiter=2)
    assert ei.value.iterations == 2
    assert ei.value.residual > 0


def test_coefficient_validation_names_the_offending_node():
    g = build_grid(9)
    a = np.ones_like(g.X)
    a[3, 4] = -2.0
    with pytest.raises(ConfigError, match=r"\(3, 4\)"):
        CoefficientField.isotropic(g, a)
    with pytest.raises(ConfigError):
        CoefficientField.isotropic(g, np.full_like(g.X, np.nan))


def test_anisotropic_validation_rejects_indefinite_tensor():
    g = build_grid(9)
    one = np.ones_like(g.X)
    with pytest.raises(ConfigError):
        CoefficientField.anisotropic(g, one, 2.0 * one, one)


def test_forcing_term_and_poisson_wrapper():
    g = build_grid(33)
    u_ex = g.X ** 3 * g.Y
    rhs = 6.0 * g.X * g.Y
    u = solve_poisson(g, rhs, g.boundary_values(u_ex))
    assert np.abs(u - u_ex).max() <= 1e-3


def test_gradient_and_laplacian_shapes_and_linear_exactness():
    g = build_grid(17)
    f = 2.0 * g.X - 3.0 * g.Y + 1.0
    gx, gy = gradient(g, f)
    np.testing.assert_allclose(gx, 2.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gy, -3.0, rtol=0, atol=1e-12)
    lap = laplacian(g, g.X ** 2 + g.Y ** 2)
    interior = lap[1:-1, 1:-1]
    np.testing.assert_allclose(interior, 4.0, rtol=0, atol=1e-9)
    # the boundary ring carries no stencil and is zeroed
    assert np.all(lap[0, :] == 0.0)


def test_window_norms_of_constant_field():
    g = build_grid(17)
    w = default_window(g)
    f = np.ones_like(g.X)
    nm = norms(g, f, w)
    assert nm.linf == 1.0
    assert nm.l2 == pytest.approx(g.h * np.sqrt(w.count), rel=1e-14)
    assert nm.h1 == pytest.approx(nm.l2, rel=1e-12)


def test_field_csv_round_trip_is_exact(tmp_path):
    g = build_grid(9)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.X.shape)
    p = tmp_path / "field.csv"
    save_field_csv(g, f, p)
    g2, f2 = load_field_csv(p)
    assert g2.n == g.n
    np.testing.assert_array_equal(f2, f)


def test_field_csv_bytes_match_the_csv_module(tmp_path):
    g = build_grid(257)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(g.X.shape) * 10.0 ** rng.integers(-300, 300, g.X.shape)
    f.flat[:7] = [0.0, -0.0, 1e-5, 1e-4, 1e16, 1.0 / 3.0, -2.5e-300]
    ref = tmp_path / "reference.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "value"])
        for ix in range(g.n):
            for iy in range(g.n):
                writer.writerow([repr(float(g.xs[ix])), repr(float(g.xs[iy])),
                                 repr(float(f[ix, iy]))])
    out = tmp_path / "field.csv"
    save_field_csv(g, f, out)
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("a, q", [(1.0, 0.0), (1.0, 2.5), (1.0, -5.0), (0.1, 0.0)])
@pytest.mark.parametrize("n", [9, 17, 65, 129])
def test_sine_transform_solve_matches_multigrid_cg(n, a, q):
    g = build_grid(n)
    op = assemble(g, CoefficientField.isotropic(g, a, q))
    assert op.stencil is not None and op.spd
    bc = np.cos(3.0 * g.boundary_s) + 0.3 * np.sin(7.0 * g.boundary_s)
    u, info = solve_dirichlet(op, bc, want_info=True)
    assert (info.method, info.iterations) == ("dst", 0)
    rhs = op.boundary_coupling @ bc
    x, _ = multigrid_cg(op, rhs, 1e-15 * np.abs(rhs).max())
    dst = u[1:-1, 1:-1].reshape(-1)
    assert np.abs(dst - x).max() <= 1e-11 * np.abs(x).max()


def test_constant_potential_below_the_certificate_solves_by_sine_transform():
    g = build_grid(33)
    op = assemble(g, CoefficientField.isotropic(g, 1.0, -30.0))
    assert not op.spd
    rtol = 1e-10
    bc = np.cos(3.0 * g.boundary_s)
    u, info = solve_dirichlet(op, bc, rtol=rtol, want_info=True)
    assert info.method == "dst"
    assert np.abs(op.apply(u)).max() <= rtol * np.abs(op.boundary_coupling @ bc).max()


def test_stencil_eigenvalues_are_the_spectrum():
    g = build_grid(9)
    op = assemble(g, CoefficientField.isotropic(g, 0.1, -3.0))
    np.testing.assert_allclose(np.sort(op.eigenvalues.ravel()),
                               np.linalg.eigvalsh(op.matrix.toarray()), rtol=1e-12)


def ring_a(g):
    """Constant inside, different on the boundary ring."""
    a = np.full_like(g.X, 2.0)
    a[g.boundary_mask] = 1.0
    return a


def compensated(g):
    """Variable a with q chosen so that every diagonal entry is one value."""
    a = 1.0 + 0.5 * g.X
    weights = assemble(g, CoefficientField.isotropic(g, a)).matrix.diagonal()
    # weights.max() - weights is exact (they lie within a factor 2), so the
    # assembled diagonal weights + q rounds to weights.max() at every node
    q = np.zeros_like(a)
    q[1:-1, 1:-1] = (weights.max() - weights).reshape(g.n - 2, g.n - 2)
    return CoefficientField.isotropic(g, a, q)


@pytest.mark.parametrize("make", [
    lambda g: CoefficientField.isotropic(g, 1.0, SPD_COEFFICIENTS["bump"](g)[1]),
    lambda g: CoefficientField.isotropic(g, np.exp(g.X)),
    lambda g: CoefficientField.isotropic(g, ring_a(g)),
    compensated,
    lambda g: CoefficientField.anisotropic(g, 1.0, 0.2, 1.0),
], ids=["q-bump", "a=exp(x)", "a-ring", "constant-diagonal", "matrix-a"])
def test_variable_or_matrix_coefficients_are_not_constant_stencils(make):
    g = build_grid(17)
    op = assemble(g, make(g))
    if make is compensated:
        assert np.ptp(op.matrix.diagonal()) == 0.0
    assert op.stencil is None
    u, info = solve_dirichlet(op, np.cos(g.boundary_s), want_info=True)
    assert info.method == ("cg-multigrid" if op.spd else "lu")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_sine_transform_result_raises():
    # finite data whose transform overflows
    g = build_grid(9)
    op = assemble(g, CoefficientField.isotropic(g))
    with pytest.raises(SolverError, match="residual"):
        solve_dirichlet(op, np.full(g.boundary_count, 1e306))


def test_importing_the_cli_does_not_load_scipy_fft():
    # numpy.fft carries the sine transform; scipy.fft would add import time
    src = os.path.dirname(os.path.dirname(randbc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, randbc.cli; print('scipy.fft' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("m", [1, 2, 7, 31])
def test_sine_transform_matches_the_dense_sine_sum(m):
    x = np.random.default_rng(m).standard_normal((3, m))
    i = np.arange(1, m + 1)
    S = np.sin(np.pi * np.outer(i, i) / (m + 1))
    np.testing.assert_allclose(randbc.solver._dst1_rows(x), x @ S, rtol=0, atol=1e-13)
