"""Discrete elliptic operator assembly and the Dirichlet solve contract."""

import csv
import json

import numpy as np
import pytest
from scipy.sparse import linalg as spla

import randbc.cli
import randbc.solver
from randbc.boundary import BoundaryBasis, RandomBoundaryModel, sample_coeffs
from randbc.errors import ConfigError, SolverError
from randbc.grid import build_grid, default_window
from randbc.inverse import qpat_forward
from randbc.runge import build_dictionary
from randbc.solver import (FORWARD, CoefficientField, OnDemand, Stencil, assemble,
                           conjugate_gradients, gradient, laplacian, laplacian_floor,
                           load_field_csv, neighbor_field, norms, save_field_csv,
                           solve_dirichlet, solve_poisson)
from randbc.streams import derive_rng

from conftest import lattice_operator


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
    A = assemble(g, coeff).matrix.tocsr()
    assert (A - A.T).nnz == 0


def test_anisotropic_matrix_is_exactly_symmetric():
    g = build_grid(17)
    a11 = 1.0 + 0.2 * g.X
    a22 = 1.2 + 0.1 * g.Y
    a12 = 0.15 * g.X * g.Y
    coeff = CoefficientField.anisotropic(g, a11, a12, a22, q=0.1)
    op = assemble(g, coeff)
    assert not op.spd
    A = op.matrix.tocsr()
    assert (A - A.T).nnz == 0


def dense_lattice(bands, n):
    dense = np.zeros((n * n, n * n))
    for (dx, dy), weights in bands.items():
        for ix in range(n):
            for iy in range(n):
                if 0 <= ix + dx < n and 0 <= iy + dy < n:
                    dense[ix * n + iy, (ix + dx) * n + iy + dy] = weights[ix, iy]
    return dense


@pytest.mark.parametrize("n", [3, 4, 6])
def test_lattice_operator_matches_a_dense_build(n):
    rng = np.random.default_rng(n)
    offsets = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    bands = {o: rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.8)
             for o in offsets}
    for chosen in (bands, {o: bands[o] for o in offsets[::2]}):
        op = lattice_operator(chosen)
        dense = dense_lattice(chosen, n)
        np.testing.assert_array_equal(op.toarray(), dense)
        assert op.nnz == np.count_nonzero(dense)   # zeros are not stored


def lattice(mask, x):
    """The lattice field holding x at the True nodes of mask, in row-major
    order, and zero elsewhere."""
    v = np.zeros(mask.shape)
    v[mask] = x
    return v


def product(matrix, v):
    """A Stencil's product of the lattice field v, into a new field."""
    return matrix.product(v, np.empty_like(v), np.empty_like(v))


def matvec(matrix, x):
    """A x over a Stencil's unknowns, through its lattice product."""
    return product(matrix, lattice(matrix.mask, x))[matrix.mask]


def symmetric_bands(center, forward):
    bands = {(0, 0): center}
    for (dx, dy), w in forward.items():
        bands[dx, dy] = w
        bands[-dx, -dy] = neighbor_field(w, -dx, -dy)
    return bands


@pytest.mark.parametrize("n", [3, 4, 6, 9])
def test_stencil_product_matches_the_lattice_operator(n):
    rng = np.random.default_rng(n)
    center = rng.standard_normal((n, n))
    weights = {o: rng.standard_normal((n, n)) for o in FORWARD}
    full = np.ones((n, n), dtype=bool)
    for offsets in (((0, 1), (1, 0)), FORWARD):   # five and nine points
        forward = {o: weights[o] for o in offsets}
        # the whole n x n lattice, and a random subset of its nodes
        for mask in (full, rng.random((n, n)) < 0.6):
            nodes = np.flatnonzero(mask)
            csr = lattice_operator(symmetric_bands(center * mask, forward))[nodes][:, nodes]
            # an outer ring of non-nodes around the lattice, and zero weights on
            # every coupling that touches a non-node
            A = Stencil(np.pad(mask, 1), np.pad(center * mask, 1),
                        {o: np.pad(w * (mask & neighbor_field(mask, *o)), 1)
                         for o, w in forward.items()})
            assert A.shape == csr.shape
            x = rng.standard_normal(nodes.size)
            bound = 1e-15 * (abs(csr) @ np.abs(x))
            Ax = product(A, lattice(A.mask, x))
            assert np.all(np.abs(Ax[A.mask] - csr @ x) <= bound)
            assert np.all(Ax[~A.mask] == 0.0)
            np.testing.assert_array_equal(A.tocsr().toarray(), csr.toarray())


def csr_boundary_coupling(g, coeff):
    """The sorted CSR boundary coupling, as assembly built it from the
    lattice operator's interior rows."""
    h2 = g.h * g.h
    a11 = coeff.a if coeff.is_scalar else coeff.a[..., 0, 0]
    a22 = coeff.a if coeff.is_scalar else coeff.a[..., 1, 1]
    east = randbc.solver._harm(a11, neighbor_field(a11, 1, 0)) / h2
    north = randbc.solver._harm(a22, neighbor_field(a22, 0, 1)) / h2
    forward = {(1, 0): -east, (0, 1): -north}
    if not coeff.is_scalar:
        a12 = coeff.a[..., 0, 1]
        forward[1, 1] = -(neighbor_field(a12, 1, 0) + neighbor_field(a12, 0, 1)) * 0.25 / h2
        forward[1, -1] = (neighbor_field(a12, 1, 0) + neighbor_field(a12, 0, -1)) * 0.25 / h2
    bands = symmetric_bands(np.zeros((g.n, g.n)), forward)
    rows = lattice_operator(bands)[np.flatnonzero(g.interior_mask)]
    return -rows[:, g.boundary_ix * g.n + g.boundary_iy].sorted_indices()


@pytest.mark.parametrize("kind", ["one", "random", "matrix"])
@pytest.mark.parametrize("n", [9, 17, 65])
def test_walk_coupling_is_bitwise_the_sorted_csr_product(kind, n):
    # A scalar-a row holds at most two boundary terms, whose sum does not
    # depend on their order.  Matrix a gives rows of up to five, which the
    # lattice product adds in its own order: within the summation bound.
    g = build_grid(n)
    rng = np.random.default_rng(n)
    a, q = 0.5 + rng.random((2, n, n))
    if kind == "one":
        coeff = CoefficientField.isotropic(g, 1.0, q)
    elif kind == "random":
        coeff = CoefficientField.isotropic(g, a, q)
    else:
        coeff = CoefficientField.anisotropic(g, a, 0.4 * rng.random((n, n)) - 0.2, a, q)
    op = assemble(g, coeff)
    csr = csr_boundary_coupling(g, coeff)
    for _ in range(3):
        bc = rng.standard_normal(g.boundary_count) * 10.0 ** rng.integers(-5, 5)
        bc[::5] = 0.0
        bc[1::7] *= -0.0
        got, want = op.boundary_coupling @ bc, csr @ bc
        if kind == "matrix":
            eps = np.finfo(float).eps
            assert np.all(np.abs(got - want) <= 2.0 * eps * (abs(csr) @ np.abs(bc)))
        else:
            assert got.tobytes() == want.tobytes()


def dense_assembly(g, coeff):
    """Interior matrix and boundary coupling of L_h, written node by node."""
    n, h2 = g.n, g.h ** 2
    a11 = coeff.a if coeff.is_scalar else coeff.a[..., 0, 0]
    a22 = coeff.a if coeff.is_scalar else coeff.a[..., 1, 1]
    a12 = np.zeros((n, n)) if coeff.is_scalar else coeff.a[..., 0, 1]
    harm = lambda p, r: (2.0 * (p * r)) / (p + r)
    walk = {(int(x), int(y)): k for k, (x, y) in enumerate(zip(g.boundary_ix,
                                                               g.boundary_iy))}
    m = n - 2
    matrix = np.zeros((m * m, m * m))
    coupling = np.zeros((m * m, g.boundary_count))
    for ix in range(1, n - 1):
        for iy in range(1, n - 1):
            w = harm(a11[ix - 1, iy], a11[ix, iy]) / h2
            e = harm(a11[ix + 1, iy], a11[ix, iy]) / h2
            s = harm(a22[ix, iy - 1], a22[ix, iy]) / h2
            nn = harm(a22[ix, iy + 1], a22[ix, iy]) / h2
            weights = {(0, 0): w + e + s + nn + coeff.q[ix, iy],
                       (-1, 0): -w, (1, 0): -e, (0, -1): -s, (0, 1): -nn,
                       (1, 1): -(a12[ix + 1, iy] + a12[ix, iy + 1]) * 0.25 / h2,
                       (-1, -1): -(a12[ix - 1, iy] + a12[ix, iy - 1]) * 0.25 / h2,
                       (1, -1): (a12[ix + 1, iy] + a12[ix, iy - 1]) * 0.25 / h2,
                       (-1, 1): (a12[ix - 1, iy] + a12[ix, iy + 1]) * 0.25 / h2}
            row = (ix - 1) * m + iy - 1
            for (dx, dy), weight in weights.items():
                jx, jy = ix + dx, iy + dy
                if (jx, jy) in walk:
                    coupling[row, walk[jx, jy]] = -weight
                else:
                    matrix[row, (jx - 1) * m + jy - 1] = weight
    return matrix, coupling


@pytest.mark.parametrize("kind", ["scalar", "matrix"])
def test_assembly_matches_a_dense_reference(kind):
    g = build_grid(9)
    rng = np.random.default_rng(9)
    a11, a22 = 2.0 + rng.random((2, g.n, g.n))
    a12 = 0.3 * rng.random((g.n, g.n))
    q = rng.standard_normal((g.n, g.n))
    if kind == "scalar":
        coeff = CoefficientField.isotropic(g, a11, q)
    else:
        coeff = CoefficientField.anisotropic(g, a11, a12, a22, q)
    op = assemble(g, coeff)
    matrix, coupling = dense_assembly(g, coeff)
    A = op.matrix.tocsr()
    np.testing.assert_allclose(A.toarray(), matrix, rtol=1e-15, atol=0.0)
    walk = op.boundary_coupling
    columns = np.column_stack([walk @ e for e in np.eye(g.boundary_count)])
    np.testing.assert_allclose(columns, coupling, rtol=1e-15, atol=0.0)
    assert A.nnz == np.count_nonzero(matrix)
    assert np.count_nonzero(columns) == np.count_nonzero(coupling)


def test_interior_stencil_row_of_the_laplacian():
    g = build_grid(9)
    op = assemble(g, CoefficientField.isotropic(g))
    # row of the interior node (4, 4) in the (n-2)^2 interior ordering
    k = (4 - 1) * (g.n - 2) + (4 - 1)
    row = op.matrix.tocsr().getrow(k).toarray().ravel()
    h2 = g.h ** 2
    assert row[k] == pytest.approx(4.0 / h2, rel=1e-14)
    neighbors = np.sort(np.delete(np.nonzero(row)[0], np.searchsorted(
        np.nonzero(row)[0], k)))
    assert len(np.nonzero(row)[0]) == 5
    for j in neighbors:
        assert row[j] == pytest.approx(-1.0 / h2, rel=1e-14)
    # doubling the coefficient doubles every entry
    op2 = assemble(g, CoefficientField.isotropic(g, 2.0))
    assert (op2.matrix.tocsr() - 2.0 * op.matrix.tocsr()).nnz == 0


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
        assert info.method == ("cg-sine" if op.spd else "minres")
        assert info.residual_inf == pytest.approx(res, rel=1e-6, abs=1e-30)


@pytest.mark.parametrize("method", ["dst", "cg-sine", "minres"])
def test_a_solve_whose_data_and_forcing_cancel_meets_the_contract(method):
    # Data of size 1e6 on the ring and a forcing that cancels their coupling
    # b up to an O(1) interior field: b + f is ~1e-7 of |b| and |f|, so a
    # residual at roundoff of the large terms misses rtol * max |b + f|.
    g = build_grid(17)
    coeff = {"dst": CoefficientField.isotropic(g),
             "cg-sine": CoefficientField.isotropic(g, smooth_a(g)),
             "minres": CoefficientField.anisotropic(g, 1.0 + 0.2 * g.X, 0.1 * g.X * g.Y,
                                                    1.1 + 0.1 * g.Y)}[method]
    op = assemble(g, coeff)
    inside = np.sin(np.pi * g.X) * np.sin(np.pi * g.Y)
    u_star = np.where(g.boundary_mask, 1e6 * (1.0 + g.X + g.Y), inside)
    forcing = np.zeros_like(u_star)
    forcing[1:-1, 1:-1] = op.apply(u_star)
    bc = g.boundary_values(u_star)
    rtol = 1e-10
    u, info = solve_dirichlet(op, bc, rtol=rtol, forcing=forcing, want_info=True)
    assert info.method == method
    b, f = op.boundary_coupling @ bc, forcing[1:-1, 1:-1].reshape(-1)
    assert np.abs(b + f).max() < 1e-6 * np.abs(b).max()
    residual = np.abs(op.apply(u) - forcing[1:-1, 1:-1]).max()
    if method == "minres":
        # MINRES reports its own rhs - A x, summed in another order than apply
        assert info.residual_inf == pytest.approx(residual, rel=1e-6)
    else:
        assert info.residual_inf == residual
    assert max(info.residual_inf, residual) <= rtol * (np.abs(b).max() + np.abs(f).max())
    # MINRES stops at an interior error of 1.5e-4 here, CG at 1.6e-3
    atol = 1e-3 if method == "minres" else 1e-2
    np.testing.assert_allclose(u[1:-1, 1:-1], inside[1:-1, 1:-1], rtol=0, atol=atol)


def dense_spectrum(op) -> np.ndarray:
    """The eigenvalues of op's matrix over the unknowns, ascending."""
    return np.linalg.eigvalsh(op.matrix.tocsr().toarray())


INDEFINITE_DIFFUSIONS = {
    "scalar": lambda g, q: CoefficientField.isotropic(g, 1.0 + 0.5 * g.X, q),
    "matrix": lambda g, q: CoefficientField.anisotropic(g, 1.0 + 0.2 * g.X, 0.1 * g.X * g.Y,
                                                        1.0 + 0.1 * g.Y, q),
}


@pytest.mark.parametrize("kind", sorted(INDEFINITE_DIFFUSIONS))
def test_minres_solves_potentials_between_the_first_eigenvalues(kind):
    # q = -lambda between consecutive eigenvalues lambda_k < lambda_k+1 of
    # -div(a grad) makes L indefinite with k negative eigenvalues
    g = build_grid(33)
    make = INDEFINITE_DIFFUSIONS[kind]
    lam = dense_spectrum(assemble(g, make(g, 0.0)))[:4]
    rtol, bc = 1e-10, np.cos(3.0 * g.boundary_s)
    for q in -0.5 * (lam[:-1] + lam[1:]):
        op = assemble(g, make(g, q))
        u, info = solve_dirichlet(op, bc, rtol=rtol, want_info=True)
        assert info.method == "minres"
        b = op.boundary_coupling @ bc
        assert np.abs(op.apply(u)).max() <= rtol * np.abs(b).max()
        x = np.linalg.solve(op.matrix.tocsr().toarray(), b)
        assert np.abs(u[1:-1, 1:-1].reshape(-1) - x).max() <= 1e-8 * np.abs(x).max()


@pytest.mark.parametrize("n, factor", [
    (33, 1000.0), (65, 1000.0), (129, 1000.0), (65, 4096.0), (129, 4096.0)])
def test_minres_solves_strongly_indefinite_potentials_within_the_default_cap(n, factor):
    # q = -factor (1 + x) passes hundreds of eigenvalues of -div(a grad); the
    # preconditioner's modulus of the constant-coefficient model keeps MINRES
    # below the default 20 n iterations (about 100 and 400-500), so LU never
    # takes over
    g = build_grid(n)
    op = assemble(g, CoefficientField.isotropic(g, 1.0 + 0.5 * g.X, -factor * (1.0 + g.X)))
    bc, rtol = np.cos(3.0 * g.boundary_s), 1e-10
    u, info = solve_dirichlet(op, bc, rtol=rtol, want_info=True)
    assert info.method == "minres"
    b = op.boundary_coupling @ bc
    assert np.abs(op.apply(u)).max() <= rtol * np.abs(b).max()
    x = spla.spsolve(op.matrix.tocsc(), b)
    assert np.abs(u[1:-1, 1:-1].reshape(-1) - x).max() <= 1e-8 * np.abs(x).max()


@pytest.mark.parametrize("q_fn, maxiter", [
    (lambda g: np.full_like(g.X, -30.0), 2),
    (lambda g: -4096.0 * (1.0 + g.X), None),
], ids=["maxiter=2", "past-the-default-cap"])
def test_lu_takes_over_where_minres_misses_the_target(q_fn, maxiter):
    # q = -4096 (1 + x) at n = 33 needs about 1,100 MINRES iterations, past
    # the default 660; sparse LU then solves it as it did before MINRES
    g = build_grid(33)
    op = assemble(g, CoefficientField.isotropic(g, 1.0 + 0.5 * g.X, q_fn(g)))
    bc, rtol = np.cos(3.0 * g.boundary_s), 1e-10
    u, info = solve_dirichlet(op, bc, rtol=rtol, maxiter=maxiter, want_info=True)
    assert info.method == "lu"
    b = op.boundary_coupling @ bc
    residual = np.abs(op.apply(u)).max()
    assert residual <= rtol * np.abs(b).max()
    assert info.residual_inf == pytest.approx(residual, rel=1e-6)
    x = np.linalg.solve(op.matrix.tocsr().toarray(), b)
    assert np.abs(u[1:-1, 1:-1].reshape(-1) - x).max() <= 1e-8 * np.abs(x).max()


@pytest.mark.parametrize("kind", sorted(INDEFINITE_DIFFUSIONS))
def test_a_potential_at_the_first_eigenvalue_raises_a_solver_error(kind):
    # MINRES stalls at the cap, then the LU backstop misses the target
    g = build_grid(33)
    make = INDEFINITE_DIFFUSIONS[kind]
    lam1 = dense_spectrum(assemble(g, make(g, 0.0)))[0]
    op = assemble(g, make(g, -lam1))
    with pytest.raises(SolverError, match="^MINRES stalled after 660 iterations: .*; "
                                          "direct solve residual") as ei:
        solve_dirichlet(op, np.cos(3.0 * g.boundary_s))
    assert ei.value.iterations == 3
    assert ei.value.residual > 0


def test_cg_and_minres_paths_agree_on_the_same_equation():
    # a12 = 0 keeps the continuous problem identical; the nine point and
    # five point stencils then agree to discretization accuracy
    g = build_grid(33)
    a = smooth_a(g)
    bc = np.sin(2.0 * np.pi * g.boundary_s / 4.0)
    u_cg = solve_dirichlet(assemble(g, CoefficientField.isotropic(g, a)), bc)
    u_minres = solve_dirichlet(
        assemble(g, CoefficientField.anisotropic(g, a, np.zeros_like(a), a)), bc)
    assert np.abs(u_cg - u_minres).max() <= 5e-3


def test_discrete_maximum_principle_for_zero_order_free_equation():
    g = build_grid(17)
    coeff = CoefficientField.isotropic(g, smooth_a(g))
    op = assemble(g, coeff)
    rng = np.random.default_rng(7)
    bc = rng.standard_normal(g.boundary_s.shape[0])
    u = solve_dirichlet(op, bc)
    assert u.min() >= bc.min() - 1e-9
    assert u.max() <= bc.max() + 1e-9


def zero_one_diagonal_weight(g, a):
    """q that makes the diagonal weight of a's stencil exactly zero at the
    centre node and leaves q = 0 elsewhere."""
    center = assemble(g, CoefficientField.isotropic(g, a)).matrix.center.reshape(g.n, g.n)
    q = np.zeros_like(a)
    q[g.n // 2, g.n // 2] = -center[g.n // 2, g.n // 2]
    return q


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


def precondition(op, v):
    """The operator's preconditioner M^-1 applied to v over its unknowns."""
    mask = op.matrix.mask
    return op.preconditioner(lattice(mask, v))[mask]


def preconditioned_cg(op, rhs, atol):
    """Sine-preconditioned CG on op by scipy, bypassing the solver's path choice."""
    precond = spla.LinearOperator(op.matrix.shape, matvec=lambda v: precondition(op, v))
    iters = []
    x, code = spla.cg(op.matrix.tocsr(), rhs, rtol=0.0, atol=atol, maxiter=200, M=precond,
                      callback=iters.append)
    assert code == 0
    return x, len(iters)


# The most iterations the disk family takes at n <= 129 is 90 (n = 129):
# with a discontinuous a of contrast 100 the count grows with n.
DISK_ITERATIONS = 100


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
        assert info.method == "cg-sine"
        iterations, res = info.iterations, np.abs(op.apply(u)).max()
    else:
        # a = 1 solves by sine transform; drive the preconditioner it would use.
        x, iterations = preconditioned_cg(op, rhs, rtol * np.abs(rhs).max())
        res = np.abs(matvec(op.matrix, x) - rhs).max()
    if coeff == "disk":
        assert iterations <= min(DISK_ITERATIONS, 20 * n)
    else:
        assert iterations <= 8
    assert res <= rtol * np.abs(rhs).max()


@pytest.mark.parametrize("coeff", ["exp", "bump", "negq"])
def test_sine_preconditioned_cg_iterations_do_not_grow_with_n(coeff):
    counts = []
    for n in (17, 65, 129, 257):
        g = build_grid(n)
        a, q = SPD_COEFFICIENTS[coeff](g)
        op = assemble(g, CoefficientField.isotropic(g, a, q))
        bc = np.cos(3.0 * g.boundary_s) + 0.3 * np.sin(7.0 * g.boundary_s)
        _, info = solve_dirichlet(op, bc, want_info=True)
        assert info.method == "cg-sine"
        counts.append(info.iterations)
    assert len(set(counts)) == 1 and counts[0] <= 8, counts


@pytest.mark.parametrize("coeff", sorted(SPD_COEFFICIENTS))
@pytest.mark.parametrize("n", [17, 65, 129])
def test_cg_loop_meets_the_inf_norm_target_no_later_than_scipy_cg(n, coeff):
    g = build_grid(n)
    a, q = SPD_COEFFICIENTS[coeff](g)
    op = assemble(g, CoefficientField.isotropic(g, a, q))
    bc = np.cos(3.0 * g.boundary_s) + 0.3 * np.sin(7.0 * g.boundary_s)
    rhs = op.boundary_coupling @ bc
    target = 1e-10 * np.abs(rhs).max()
    mask = op.matrix.mask
    x, iterations, res = conjugate_gradients(op.matrix, lattice(mask, rhs), target, 200,
                                             op.preconditioner)
    assert res == np.abs(rhs - matvec(op.matrix, x[mask])).max() <= target
    _, reference_iterations = preconditioned_cg(op, rhs, target)
    assert 0 < iterations <= reference_iterations


def reference_cg(matrix, rhs, target, maxiter, precond=None):
    """The same iteration written with a new array for every vector it forms;
    the solver's in-place loop must match it bit for bit."""
    b = rhs.reshape(-1)
    x = np.zeros_like(b)
    r = b.copy()
    z = r if precond is None else precond(r)
    p = z.copy()
    rz = r @ z
    res = np.abs(r).max()
    iterations = 0
    while not res <= target:
        assert iterations < maxiter
        Ap = matrix.product(p, np.empty_like(b), np.empty_like(b))
        alpha = rz / (p @ Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        iterations += 1
        res = np.abs(r).max()
        if res <= target:
            r = b - matrix.product(x, np.empty_like(b), np.empty_like(b))
            res = np.abs(r).max()
            if res <= target:
                break
        z = r if precond is None else precond(r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return x.reshape(rhs.shape), iterations, float(res)


def holed_stencil(n):
    """A diagonally dominant five-point Stencil on the interior less a disk,
    with zero weights off it."""
    g = build_grid(n)
    mask = g.interior_mask & ((g.X - 0.5) ** 2 + (g.Y - 0.5) ** 2 > 0.05)
    return Stencil(mask, 4.25 * mask, {o: -1.0 * (mask & neighbor_field(mask, *o))
                                       for o in ((1, 0), (0, 1))})


@pytest.mark.parametrize("coeff, precond",
                         [(c, p) for c in sorted(SPD_COEFFICIENTS) for p in (False, True)]
                         + [("holed", False)])
@pytest.mark.parametrize("n", [17, 65])
def test_cg_loop_is_bitwise_the_allocating_iteration(n, coeff, precond):
    if coeff == "holed":
        matrix, target = holed_stencil(n), 1e-10
        rhs = lattice(matrix.mask, np.cos(np.arange(matrix.shape[0], dtype=float)))
        apply = None
    else:
        g = build_grid(n)
        a, q = SPD_COEFFICIENTS[coeff](g)
        op = assemble(g, CoefficientField.isotropic(g, a, q))
        matrix, apply = op.matrix, (op.preconditioner if precond else None)
        bc = np.cos(3.0 * g.boundary_s) + 0.3 * np.sin(7.0 * g.boundary_s)
        rhs = lattice(matrix.mask, op.boundary_coupling @ bc)
        target = 1e-10 * np.abs(rhs).max()
    x, iterations, res = conjugate_gradients(matrix, rhs, target, 20 * n, apply)
    x_ref, iterations_ref, res_ref = reference_cg(matrix, rhs, target, 20 * n, apply)
    assert x.tobytes() == x_ref.tobytes()
    assert (iterations, res) == (iterations_ref, res_ref)


@pytest.mark.parametrize("n", [9, 33])
def test_preconditioner_into_a_reused_buffer_is_bitwise_the_fresh_one(n):
    g = build_grid(n)
    a, q = SPD_COEFFICIENTS["negq"](g)
    op = assemble(g, CoefficientField.isotropic(g, a, q))
    rng = np.random.default_rng(n)
    work = {}
    out = np.full((n, n), np.nan)    # a buffer whose ring holds stale values
    for _ in range(3):
        r = lattice(op.matrix.mask, rng.standard_normal(op.matrix.shape[0]))
        z = op.preconditioner(r, out, work)
        assert np.shares_memory(z, out)
        assert z.tobytes() == op.preconditioner(r).tobytes()


def test_sine_preconditioned_cg_holds_under_eight_lattice_fields(traced_memory):
    g = build_grid(129)
    op = assemble(g, CoefficientField.isotropic(g, np.exp(g.X)))
    rhs = lattice(op.matrix.mask, op.boundary_coupling @ np.cos(3.0 * g.boundary_s))
    target = 1e-10 * np.abs(rhs).max()
    peak, _ = traced_memory(
        lambda: conjugate_gradients(op.matrix, rhs, target, 200, op.preconditioner))
    assert peak < 8 * g.n ** 2 * 8


def test_cg_loop_reports_the_iteration_cap():
    g = build_grid(33)
    op = assemble(g, CoefficientField.isotropic(g, np.exp(g.X)))
    rhs = lattice(op.matrix.mask, op.boundary_coupling @ np.cos(g.boundary_s))
    with pytest.raises(SolverError, match="after 2 iterations") as caught:
        conjugate_gradients(op.matrix, rhs, 1e-14 * np.abs(rhs).max(), 2, op.preconditioner)
    assert caught.value.iterations == 2
    assert caught.value.residual > 0.0
    with pytest.raises(SolverError, match="after 0 iterations"):
        conjugate_gradients(op.matrix, rhs, 1e-14 * np.abs(rhs).max(), -3,
                            op.preconditioner)


@pytest.mark.parametrize("scale, rtol", [(1.0, 1e-300), (1e300, 1e-10)],
                         ids=["r.z-underflows", "r.z-overflows"])
def test_cg_loop_breaks_down_on_r_z_with_a_finite_residual(scale, rtol):
    # like MINRES's beta, r.z must be a positive finite number to go on; the
    # error reports the true residual of the last (finite) iterate
    g = build_grid(17)
    op = assemble(g, CoefficientField.isotropic(g, np.exp(g.X)))
    rhs = lattice(op.matrix.mask, op.boundary_coupling @ (scale * np.cos(g.boundary_s)))
    with pytest.raises(SolverError, match="stalled") as caught:
        conjugate_gradients(op.matrix, rhs, rtol * np.abs(rhs).max(), 500,
                            op.preconditioner)
    assert caught.value.iterations < 500
    assert 0.0 < caught.value.residual < np.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("precond", [False, True], ids=["plain", "multigrid"])
def test_cg_loop_rejects_a_non_finite_right_hand_side(bad, precond):
    g = build_grid(17)
    op = assemble(g, CoefficientField.isotropic(g, np.exp(g.X)))
    rhs = lattice(op.matrix.mask, op.boundary_coupling @ np.cos(g.boundary_s))
    rhs[1, 8] = bad                  # the interior node 7 in row-major order
    with pytest.raises(SolverError) as caught:
        conjugate_gradients(op.matrix, rhs, 1e-10, 100,
                            op.preconditioner if precond else None)
    assert caught.value.iterations == 0


@pytest.mark.parametrize("n", [9, 17, 50, 65, 100, 129])
def test_multigrid_preconditioner_is_symmetric(n):
    g = build_grid(n)
    rng = np.random.default_rng(n)
    for coeff in ("disk", "negq"):
        a, q = SPD_COEFFICIENTS[coeff](g)
        op = assemble(g, CoefficientField.isotropic(g, a, q))
        v, w = rng.standard_normal((2, op.matrix.shape[0]))
        Mv, Mw = precondition(op, v), precondition(op, w)
        scale = max(np.linalg.norm(Mv) * np.linalg.norm(w),
                    np.linalg.norm(v) * np.linalg.norm(Mw))
        assert abs(Mv @ w - v @ Mw) <= 1e-12 * scale
        assert v @ Mv > 0.0


@pytest.mark.parametrize("kind", ["one", "exp", "disk"])
@pytest.mark.parametrize("n", [9, 17, 33])
def test_spectrum_obeys_the_closed_form_lower_bound(n, kind):
    g = build_grid(n)
    a, _ = SPD_COEFFICIENTS[kind](g)
    q = 0.999 * q_threshold(g, a)
    op = assemble(g, CoefficientField.isotropic(g, a, q))
    assert op.spd
    lam_min = np.linalg.eigvalsh(op.matrix.tocsr().toarray())[0]
    bound = np.min(a) * laplacian_floor(g) + q
    assert bound > 0.0
    assert lam_min >= bound * (1.0 - 1e-9)


@pytest.mark.parametrize("n", [9, 17, 33])
def test_bound_is_attained_for_unit_diffusion_and_constant_potential(n):
    g = build_grid(n)
    for q in (0.0, 2.5, 0.999 * q_threshold(g, 1.0)):
        op = assemble(g, CoefficientField.isotropic(g, 1.0, q))
        lam_min = np.linalg.eigvalsh(op.matrix.tocsr().toarray())[0]
        assert lam_min == pytest.approx(laplacian_floor(g) + q, rel=1e-9)


@pytest.mark.parametrize("a_fn, q_fn", [
    (lambda g: np.exp(g.X), lambda g, a: 1.001 * q_threshold(g, a)),
    (disk_a, lambda g, a: -5.0),
    # q makes diagonal weights negative, or one exactly zero: the
    # preconditioner's scaling reads the diffusion part of diag A, so that
    # it stays SPD and finite
    (lambda g: 1.0 + 0.5 * g.X, lambda g, a: -1e5 * (1.0 + g.X)),
    (lambda g: 1.0 + g.X, lambda g, a: zero_one_diagonal_weight(g, a)),
], ids=["exp-past-threshold", "disk-q=-5", "negative-diagonal", "zero-diagonal"])
def test_uncertified_potentials_take_minres(a_fn, q_fn):
    # a RuntimeWarning is an error here (pyproject's filterwarnings)
    g = build_grid(33)
    a = a_fn(g)
    op = assemble(g, CoefficientField.isotropic(g, a, q_fn(g, a)))
    assert not op.spd
    rtol = 1e-10
    bc = np.cos(3.0 * g.boundary_s)
    u, info = solve_dirichlet(op, bc, rtol=rtol, want_info=True)
    assert info.method == "minres"
    assert np.abs(op.apply(u)).max() <= rtol * np.abs(op.boundary_coupling @ bc).max()


def test_dictionary_builds_one_sine_preconditioner_for_all_its_solves(monkeypatch):
    built = []
    eigenvalues = randbc.solver._stencil_eigenvalues

    def counting(*args):
        # a = exp(x) is no constant stencil, so only the preconditioner asks
        built.append(args)
        return eigenvalues(*args)

    monkeypatch.setattr(randbc.solver, "_stencil_eigenvalues", counting)
    g = build_grid(33)
    model = RandomBoundaryModel.power_law(K=9, c=1.0, s=1.5, family="gaussian")
    dictionary = build_dictionary(g, CoefficientField.isotropic(g, np.exp(g.X)), model)
    assert dictionary.K == 9
    for k in range(dictionary.K):      # the modes are solved when read
        dictionary.z[k]
    assert len(built) == 1
    assert "preconditioner" in vars(dictionary.operator)   # cached on the operator


@pytest.mark.parametrize("rtol", [0.0, -1e-3, 1.0, 2.0, np.nan])
def test_rtol_outside_the_unit_interval_is_a_config_error(rtol):
    # at rtol >= 1 the starting guess x = 0 already meets the contract
    g = build_grid(17)
    op = assemble(g, CoefficientField.isotropic(g, 1.0 + g.X))
    with pytest.raises(ConfigError, match="rtol"):
        solve_dirichlet(op, np.cos(g.boundary_s), rtol=rtol)


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


def test_a_directly_built_field_is_checked_like_the_factories():
    q = np.zeros((9, 9))
    a = CoefficientField.anisotropic(build_grid(9), 2.0, 0.5, 2.0).a.copy()
    a[4, 5, 1, 0] = 0.25
    with pytest.raises(ConfigError, match="symmetric at every node"):
        CoefficientField(a=a, q=q)
    with pytest.raises(ConfigError, match="^coefficients must be finite$"):
        CoefficientField(a=np.full((9, 9), np.inf), q=q)
    with pytest.raises(ConfigError, match=r"not elliptic at node \(0, 0\)"):
        CoefficientField(a=np.zeros((9, 9)), q=q)
    with pytest.raises(ConfigError, match="shape"):
        CoefficientField(a=np.ones((9, 9, 2)), q=q)


def test_assembly_rejects_coefficients_built_on_another_grid():
    coeff = CoefficientField.isotropic(build_grid(17), 1.0 + build_grid(17).X)
    with pytest.raises(ConfigError, match=r"shape \(17, 17\), expected \(33, 33\)"):
        assemble(build_grid(33), coeff)
    with pytest.raises(ConfigError, match="shape"):
        assemble(build_grid(9), CoefficientField.anisotropic(build_grid(17), 2.0, 0.5, 2.0))


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
    f.flat[:10] = [0.0, -0.0, 1e-5, 1e-4, 1e16, 1.0 / 3.0, -2.5e-300,
                   np.nan, np.inf, -np.inf]
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
    x, _ = preconditioned_cg(op, rhs, 1e-15 * np.abs(rhs).max())
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
    eigenvalues = randbc.solver._stencil_eigenvalues(op.cosines, *op.stencil)
    np.testing.assert_allclose(np.sort(eigenvalues.ravel()),
                               np.linalg.eigvalsh(op.matrix.tocsr().toarray()), rtol=1e-12)


def ring_a(g):
    """Constant inside, different on the boundary ring."""
    a = np.full_like(g.X, 2.0)
    a[g.boundary_mask] = 1.0
    return a


def compensated(g):
    """Variable a with q chosen so that every diagonal entry is one value."""
    a = 1.0 + 0.5 * g.X
    weights = assemble(g, CoefficientField.isotropic(g, a)).matrix.tocsr().diagonal()
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
        assert np.ptp(op.matrix.tocsr().diagonal()) == 0.0
    assert op.stencil is None
    u, info = solve_dirichlet(op, np.cos(g.boundary_s), want_info=True)
    assert info.method == ("cg-sine" if op.spd else "minres")


def test_weights_that_round_to_one_value_are_not_a_constant_stencil():
    # Constancy is decided on the coefficients: a q far below the diagonal's
    # last bit leaves every weight one value, and the operator still takes CG.
    g = build_grid(65)
    op = assemble(g, CoefficientField.isotropic(g, 1.0, 1e-30 * g.X))
    csr = op.matrix.tocsr()
    assert np.ptp(csr.diagonal()) == 0.0 and np.ptp(csr.data[csr.data < 0.0]) == 0.0
    assert op.stencil is None
    rtol, bc = 1e-10, np.cos(3.0 * g.boundary_s)
    u, info = solve_dirichlet(op, bc, rtol=rtol, want_info=True)
    assert info.method == "cg-sine"
    assert info.residual_inf <= rtol * np.abs(op.boundary_coupling @ bc).max()
    assert np.abs(op.apply(u)).max() <= rtol * np.abs(op.boundary_coupling @ bc).max()


def band_assembly(g, coeff):
    """Assembly as it was when every operator kept its lattice bands: the bands
    {(dx, dy): (n, n) weights} and the constant stencil (d, o), compared
    bitwise on the assembled weights, or None."""
    h2 = g.h * g.h
    a11, a22 = ((coeff.a, coeff.a) if coeff.is_scalar
                else (coeff.a[..., 0, 0], coeff.a[..., 1, 1]))
    east = randbc.solver._harm(a11, neighbor_field(a11, 1, 0)) / h2
    north = randbc.solver._harm(a22, neighbor_field(a22, 0, 1)) / h2
    west = neighbor_field(east, -1, 0)
    south = neighbor_field(north, 0, -1)
    center = west + east
    center += south
    center += north
    center += coeff.q
    for face in (west, east, south, north):
        np.negative(face, out=face)
    bands = {(-1, 0): west, (1, 0): east, (0, -1): south, (0, 1): north, (0, 0): center}
    if not coeff.is_scalar:
        a12 = coeff.a[..., 0, 1]
        ne = -(neighbor_field(a12, 1, 0) + neighbor_field(a12, 0, 1)) * (0.25 / h2)
        se = (neighbor_field(a12, 1, 0) + neighbor_field(a12, 0, -1)) * (0.25 / h2)
        bands.update({(1, 1): ne, (-1, -1): neighbor_field(ne, -1, -1),
                      (1, -1): se, (-1, 1): neighbor_field(se, -1, 1)})
    stencil = None
    inner = np.s_[1:-1, 1:-1]
    o, d = west[1, 1], center[1, 1]
    if (coeff.is_scalar and all(np.all(f[inner] == o) for f in (west, east, south, north))
            and np.all(center[inner] == d)):
        stencil = (float(d), float(o))
    return bands, stencil


def holds_no_weight_field(matrix):
    """Every weight array of the Stencil is a zero-stride broadcast."""
    return all(w.strides == (0,) for w in [matrix.center] + [w for _, w in matrix._shifts])


def band_walk_coupling(g, bands):
    """(rows, cols, weights) of the boundary coupling, read off the bands over
    the whole lattice and sorted by row, then walk position."""
    n = g.n
    walk = np.zeros((n, n), dtype=np.intp)   # 1 + walk position on the boundary
    walk[g.boundary_ix, g.boundary_iy] = np.arange(1, g.boundary_count + 1)
    row = np.zeros((n, n), dtype=np.intp)
    row[1:-1, 1:-1] = np.arange((n - 2) ** 2).reshape(n - 2, n - 2)
    rows, cols, weights = [], [], []
    for (dx, dy), w in bands.items():
        col = neighbor_field(walk, dx, dy) - 1
        hit = g.interior_mask & (col >= 0) & (w != 0.0)
        rows.append(row[hit])
        cols.append(col[hit])
        weights.append(-w[hit])
    rows, cols, weights = (np.concatenate(x) for x in (rows, cols, weights))
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], weights[order]


def corner_a(g):
    """One value at every node but the four corners, which no interior face reads."""
    a = np.full((g.n, g.n), 0.7)
    a[[0, 0, -1, -1], [0, -1, 0, -1]] = (3.0, 0.1, 9.0, 2.0)
    return a


def ring_q(g):
    """Zero inside, varying on the boundary ring, which no interior weight reads."""
    q = np.zeros((g.n, g.n))
    q[g.boundary_mask] = np.cos(g.boundary_s)
    return q


def one_ulp_a(g):
    a = np.ones((g.n, g.n))
    a[3, 4] = np.nextafter(1.0, 2.0)
    return a


@pytest.mark.parametrize("make", [
    lambda g: CoefficientField.isotropic(g),
    lambda g: CoefficientField.isotropic(g, 0.1, 2.5),
    lambda g: CoefficientField.isotropic(g, 3.0, -30.0),
    lambda g: CoefficientField.isotropic(g, corner_a(g), 0.3),
    lambda g: CoefficientField.isotropic(g, 1.0, ring_q(g)),
    lambda g: CoefficientField.isotropic(g, one_ulp_a(g)),
    lambda g: CoefficientField.isotropic(g, np.exp(g.X)),
    compensated,
    lambda g: CoefficientField.anisotropic(g, 1.0 + 0.2 * g.X, 0.1 * g.X * g.Y, 1.2, 0.1),
], ids=["one", "a=0.1,q=2.5", "a=3,q=-30", "a-corners", "q-ring", "a-one-ulp", "a=exp(x)",
        "constant-diagonal", "matrix-a"])
@pytest.mark.parametrize("n", [8, 17, 64])
def test_assembly_is_bitwise_the_band_assembly(make, n):
    g = build_grid(n)
    coeff = make(g)
    bands, stencil = band_assembly(g, coeff)
    op = assemble(g, coeff)
    assert op.stencil == stencil
    if stencil is not None:      # two weights, broadcast: no lattice field
        assert holds_no_weight_field(op.matrix)
    # One walk node at a time, a row meets one coupling term: the columns
    # are the coupling's weights bit for bit.
    rows, cols, weights = band_walk_coupling(g, bands)
    want = np.zeros(((n - 2) ** 2, g.boundary_count))
    want[rows, cols] = weights
    got = np.column_stack([op.boundary_coupling @ e for e in np.eye(g.boundary_count)])
    assert got.tobytes() == want.tobytes()
    ref = Stencil(g.interior_mask, bands[0, 0],
                  {offset: bands[offset] for offset in FORWARD if offset in bands})
    csr, ref_csr = op.matrix.tocsr(), ref.tocsr()
    for part in ("data", "indices", "indptr"):
        assert getattr(csr, part).tobytes() == getattr(ref_csr, part).tobytes()
    # The ring's own weights feed only ring outputs, which product() zeroes:
    # the weights are compared at the unknowns and on faces that touch one.
    inside = g.interior_mask.reshape(-1)
    assert op.matrix.center[inside].tobytes() == ref.center[inside].tobytes()
    assert [k for k, _ in op.matrix._shifts] == [k for k, _ in ref._shifts]
    for (k, w), (_, w_ref) in zip(op.matrix._shifts, ref._shifts):
        touch = inside[:inside.size - k] | inside[k:]
        assert w[:w.size - k][touch].tobytes() == w_ref[:w_ref.size - k][touch].tobytes()


def test_a_constant_operator_holds_no_lattice_field_after_a_solve(traced_memory):
    g = build_grid(129)
    bc = np.cos(3.0 * g.boundary_s)
    forcing = g.X * g.Y
    kept = []

    def assemble_and_solve():
        op = assemble(g, CoefficientField.isotropic(g, 0.5, -3.0))
        solve_dirichlet(op, bc)
        solve_poisson(g, forcing, bc, op=op)
        # What the benchmark's tracer reads after each solve.
        assert op.matrix.shape == ((g.n - 2) ** 2,) * 2
        assert (op.boundary_coupling @ bc).shape == ((g.n - 2) ** 2,)
        kept.append(op)

    _, held = traced_memory(assemble_and_solve)
    assert held < 0.25 * g.n ** 2 * 8          # O(n): coefficients and weights are views
    op = kept[-1]
    assert op.stencil is not None
    assert holds_no_weight_field(op.matrix)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_sine_transform_result_raises():
    # finite data whose transform overflows
    g = build_grid(9)
    op = assemble(g, CoefficientField.isotropic(g))
    with pytest.raises(SolverError, match="residual"):
        solve_dirichlet(op, np.full(g.boundary_count, 1e306))


def test_importing_the_cli_does_not_load_scipy_fft(block_scipy, modules_loaded_by):
    # numpy.fft carries the sine transform, and no solve imports scipy:
    # importing it would add about 0.25 s to every command
    loaded = modules_loaded_by("randbc.cli")
    assert sorted(m for m in loaded if m.partition(".")[0] == "scipy") == []
    blocked = block_scipy("import randbc.cli")
    assert blocked.returncode == 0, blocked.stderr


def test_uncertified_solves_run_without_scipy(block_scipy, tmp_path):
    # the CLI's variable a with q below the certificate, and a library
    # matrix-a solve, in an interpreter where importing scipy raises
    out = str(tmp_path / "o")
    code = f"""
import json
import numpy as np
import randbc.cli
from randbc.solver import (CoefficientField, assemble, load_field_csv,
                           solve_dirichlet)


def contract_ratio(op, u, bc):
    return float(np.abs(op.apply(u)).max()
                 / (1e-10 * np.abs(op.boundary_coupling @ bc).max()))


rc = randbc.cli.run(["solve", "--out", {out!r}, "--set", "grid.n=33",
                     "--set", "coeff.a=1+x/2", "--set", "coeff.q=-30"])
g, u = load_field_csv({out!r} + "/solution.csv")
bc = g.boundary_values(u)
cli = contract_ratio(assemble(g, CoefficientField.isotropic(g, 1 + g.X / 2, -30.0)), u, bc)
op = assemble(g, CoefficientField.anisotropic(g, 1 + 0.2 * g.X, 0.1 * g.X * g.Y,
                                              1 + 0.1 * g.Y))
v, info = solve_dirichlet(op, bc, want_info=True)
print(json.dumps([rc, cli, info.method, contract_ratio(op, v, bc),
                  sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""
    proc = block_scipy(code)
    assert proc.returncode == 0, proc.stderr
    rc, cli, method, library, scipy_modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rc == 0, proc.stderr
    assert 0.0 < cli <= 1.0 and 0.0 < library <= 1.0, (cli, library)
    assert method == "minres"
    assert scipy_modules == []


def test_importing_the_cli_does_not_load_openssl(modules_loaded_by):
    # hashlib loads OpenSSL's libcrypto (about 3.6 MB of RSS) through
    # _hashlib; only the manifest's digests need it, after the run
    assert not {"hashlib", "_hashlib"} & modules_loaded_by("randbc.cli")


@pytest.mark.parametrize("m", [1, 2, 7, 31])
def test_sine_transform_matches_the_dense_sine_sum(m):
    x = np.random.default_rng(m).standard_normal((3, m))
    i = np.arange(1, m + 1)
    S = np.sin(np.pi * np.outer(i, i) / (m + 1))
    np.testing.assert_allclose(randbc.solver._dst1_rows(x), x @ S, rtol=0, atol=1e-13)


@pytest.mark.parametrize("a, q", [(1.0, 0.0), (1.0, 2.5), (1.0, -5.0), (0.1, 0.0)])
@pytest.mark.parametrize("n", [8, 9, 17, 65, 193])
def test_closed_form_boundary_transform_is_the_dense_transform(n, a, q):
    g = build_grid(n)
    op = assemble(g, CoefficientField.isotropic(g, a, q))
    assert op.stencil is not None
    m = n - 2
    bc = np.random.default_rng(n).standard_normal(g.boundary_count)
    dense = randbc.solver._dst1_2d((op.boundary_coupling @ bc).reshape(m, m))
    u = np.zeros((n, n))
    u[g.boundary_ix, g.boundary_iy] = bc
    closed = randbc.solver._boundary_transform(op, u)
    np.testing.assert_allclose(closed, dense, rtol=0, atol=1e-13 * np.abs(dense).max())


@pytest.mark.parametrize("n", [8, 9, 65, 193])
def test_edge_sines_are_accurate_to_rounding(n):
    # sin(pi p m / (m + 1)) taken at its large angle is off by up to about 1e-13
    g = build_grid(n)
    op = assemble(g, CoefficientField.isotropic(g))
    m = n - 2
    pi = np.longdouble("3.14159265358979323846264338327950288")
    angles = np.outer((1, m), np.arange(1, m + 1)) % (2 * (m + 1))
    reference = np.sin(pi * angles.astype(np.longdouble) / (m + 1)).astype(float)
    np.testing.assert_allclose(op.edge_sines, reference, rtol=0, atol=1e-15)


@pytest.mark.parametrize("kind", ["one", "scalar", "matrix"])
@pytest.mark.parametrize("n", [8, 17, 33])
def test_apply_on_the_lattice_is_the_product_over_the_unknowns(kind, n):
    # apply adds the interior and ring terms in one product: to the summation
    # bound of the up to nine products of each side, and the subtraction
    g = build_grid(n)
    rng = np.random.default_rng(n)
    a11, a22 = 2.0 + rng.random((2, n, n))
    if kind == "one":
        coeff = CoefficientField.isotropic(g)
    elif kind == "scalar":
        coeff = CoefficientField.isotropic(g, a11, rng.standard_normal((n, n)))
    else:
        coeff = CoefficientField.anisotropic(g, a11, 0.3 * rng.random((n, n)), a22)
    op = assemble(g, coeff)
    u = rng.standard_normal((n, n))
    u[0, 3] = -1.0   # a negative ring value
    inner, ring = u[1:-1, 1:-1].reshape(-1), g.boundary_values(u)
    expected = matvec(op.matrix, inner) - op.boundary_coupling @ ring
    terms = (abs(op.matrix.tocsr()) @ np.abs(inner)
             + abs(csr_boundary_coupling(g, coeff)) @ np.abs(ring))
    eps = np.finfo(float).eps
    assert np.all(np.abs(op.apply(u).reshape(-1) - expected) <= 20.0 * eps * terms)


@pytest.mark.parametrize("kind", ["one", "scalar", "matrix"])
@pytest.mark.parametrize("n", [8, 17, 33])
def test_apply_is_bitwise_one_stencil_product(kind, n):
    g = build_grid(n)
    rng = np.random.default_rng(n)
    a11, a22 = 2.0 + rng.random((2, n, n))
    if kind == "one":
        coeff = CoefficientField.isotropic(g)
    elif kind == "scalar":
        coeff = CoefficientField.isotropic(g, a11, rng.standard_normal((n, n)))
    else:
        coeff = CoefficientField.anisotropic(g, a11, 0.3 * rng.random((n, n)), a22)
    op = assemble(g, coeff)
    u = rng.standard_normal((n, n))
    Au = product(op.matrix, u)
    assert op.apply(u).tobytes() == Au[1:-1, 1:-1].tobytes()
    assert np.all(Au[g.boundary_mask] == 0.0)


@pytest.mark.parametrize("a, q", [(1.0, 0.0), (0.1, -5.0)])
@pytest.mark.parametrize("with_forcing", [False, True])
def test_sine_transform_residual_is_the_residual_over_the_unknowns(a, q, with_forcing):
    g = build_grid(65)
    op = assemble(g, CoefficientField.isotropic(g, a, q))
    bc = np.cos(3.0 * g.boundary_s) + 0.3 * np.sin(7.0 * g.boundary_s)
    forcing = 50.0 * np.sin(5.0 * g.X) * g.Y if with_forcing else None
    rtol = 1e-10
    u, info = solve_dirichlet(op, bc, rtol=rtol, forcing=forcing, want_info=True)
    assert info.method == "dst"
    rhs = op.boundary_coupling @ bc
    f = 0.0
    if with_forcing:
        f = forcing[1:-1, 1:-1]
        rhs = rhs + f.reshape(-1)
    assert info.residual_inf == np.abs(op.apply(u) - f).max()    # L_h u - f, as apply reads it
    assert info.residual_inf <= rtol * np.abs(rhs).max()
    np.testing.assert_array_equal(g.boundary_values(u), bc)


def test_poisson_solve_with_forcing_meets_the_contract():
    g = build_grid(65)
    rhs = 6.0 * g.X * g.Y
    bc = g.boundary_values(g.X ** 3 * g.Y)
    u = solve_poisson(g, rhs, bc, rtol=1e-12)
    op = randbc.solver.laplace_operator(g)
    # L u = -rhs at the interior nodes, to the contract's tolerance
    scale = np.abs(op.boundary_coupling @ bc - rhs[1:-1, 1:-1].reshape(-1)).max()
    assert np.abs(op.apply(u) + rhs[1:-1, 1:-1]).max() <= 1e-12 * scale


POISSON_OPERATORS = {
    "dst": lambda g: CoefficientField.isotropic(g, 0.5, -3.0),
    "cg-sine": lambda g: CoefficientField.isotropic(g, 1.0 + 0.5 * g.X, 1.0),
    "minres-scalar": lambda g: CoefficientField.isotropic(g, 1.0 + 0.5 * g.X, -60.0),
    "minres-matrix": lambda g: CoefficientField.anisotropic(g, 1.0 + 0.5 * g.X, 0.2 * g.Y, 1.5),
}


@pytest.mark.parametrize("kind", sorted(POISSON_OPERATORS))
def test_poisson_solve_is_bitwise_the_dirichlet_solve_of_the_negated_forcing(kind):
    # solve_poisson solves L v = rhs with trace -g and returns -v; every path
    # is odd in (g, forcing), so that is L u = -rhs with trace g bit for bit.
    g = build_grid(33)
    op = assemble(g, POISSON_OPERATORS[kind](g))
    bc = np.cos(3.0 * g.boundary_s) + 0.3 * np.sin(7.0 * g.boundary_s)
    rhs = 40.0 * np.sin(5.0 * g.X) * g.Y - 7.0
    ref, info = solve_dirichlet(op, bc, forcing=-rhs, want_info=True)
    assert kind.startswith(info.method)
    assert solve_poisson(g, rhs, bc, op=op).tobytes() == ref.tobytes()


def test_each_poisson_solve_goes_through_solve_dirichlet_once(monkeypatch):
    calls = []
    dirichlet = randbc.solver.solve_dirichlet

    def counting(*args, **kwargs):
        calls.append(args[0])
        return dirichlet(*args, **kwargs)

    monkeypatch.setattr(randbc.solver, "solve_dirichlet", counting)
    g = build_grid(17)
    bc = np.cos(3.0 * g.boundary_s)
    op = randbc.solver.laplace_operator(g)
    solve_poisson(g, g.X * g.Y, bc)
    solve_poisson(g, g.X * g.Y, bc, op=op)
    assert len(calls) == 2 and calls[1] is op


def test_sine_transform_solve_transforms_only_what_it_must(monkeypatch):
    # The boundary data take one batched 1-D transform of the four sides and
    # the inverse two; a forcing term adds its own 2-D transform.  The
    # residual is one Stencil product, apply's.
    calls = {"rfft": 0, "product": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "rfft", counted("rfft", np.fft.rfft))
    monkeypatch.setattr(Stencil, "product", counted("product", Stencil.product))
    g = build_grid(33)
    op = assemble(g, CoefficientField.isotropic(g, 1.0, 2.5))
    bc = np.cos(3.0 * g.boundary_s)
    solve_dirichlet(op, bc)
    assert calls == {"rfft": 3, "product": 1}
    solve_poisson(g, g.X * g.Y, bc)
    assert calls == {"rfft": 8, "product": 2}


@pytest.mark.parametrize("n", [17, 33])
def test_cg_returns_a_field_zero_off_the_mask(n):
    matrix = holed_stencil(n)
    rhs = lattice(matrix.mask, np.cos(np.arange(matrix.shape[0], dtype=float)))
    x, _, _ = conjugate_gradients(matrix, rhs, 1e-10, 20 * n)
    assert x.shape == rhs.shape and np.any(x[matrix.mask] != 0.0)
    assert np.all(x[~matrix.mask] == 0.0)
    out = np.full(rhs.shape, np.nan)         # stale values are overwritten
    y, _, _ = conjugate_gradients(matrix, rhs, 1e-10, 20 * n, out=out)
    assert np.shares_memory(y, out) and y.tobytes() == x.tobytes()


def test_solve_into_a_non_contiguous_buffer_is_a_config_error():
    g = build_grid(17)
    op = assemble(g, CoefficientField.isotropic(g, np.exp(g.X)))
    with pytest.raises(ConfigError, match="C-contiguous"):
        solve_dirichlet(op, np.cos(g.boundary_s), out=np.zeros((g.n, g.n)).T)


def _cli_random_traces(monkeypatch, tmp_path):
    """The random illumination traces cmd_qpat hands to qpat_forward (n=17,
    K=9, N=5, seed 3), checked against the command's draws times the basis."""
    seen = []
    forward = randbc.cli.qpat_forward

    def capture(grid, mu, bcs, **kwargs):
        seen.append((grid, bcs))
        return forward(grid, mu, bcs, **kwargs)

    monkeypatch.setattr(randbc.cli, "qpat_forward", capture)
    argv = ["qpat", "--set", "grid.n=17", "--set", "bc.K=9", "--set", "N=5",
            "--set", "qpat.bc=random", "--seed", "3", "--out", str(tmp_path / "qpat")]
    assert randbc.cli.run(argv) == 0
    [(grid, traces)] = seen
    coeffs = sample_coeffs(RandomBoundaryModel.power_law(K=9), derive_rng(3, 0), 5)
    basis = BoundaryBasis(9).evaluate(grid)
    assert [t.tobytes() for t in traces] == [(c @ basis).tobytes() for c in coeffs]
    return traces


@pytest.mark.parametrize("kind", ["dictionary", "qpat", "traces"])
def test_on_demand_sequences_index_and_slice_as_their_listed_items(
        kind, dict65, grid65, monkeypatch, tmp_path):
    if kind == "dictionary":
        seq, key, field = dict65.z, np.ndarray.tobytes, lambda z: z
    elif kind == "qpat":
        mu = 1.0 + 0.5 * np.exp(-50.0 * ((grid65.X - 0.5) ** 2 + (grid65.Y - 0.5) ** 2))
        s = grid65.boundary_s
        seq = qpat_forward(grid65, mu, [1.5 + np.cos(k * s) for k in range(4)])
        key, field = (lambda d: (d.H.tobytes(), d.boundary_u.tobytes())), (lambda d: d.H)
    else:
        seq = _cli_random_traces(monkeypatch, tmp_path)
        key, field = np.ndarray.tobytes, lambda t: t
    assert isinstance(seq, OnDemand)
    n = len(seq)
    listed = [key(item) for item in seq]
    assert len(listed) == n
    assert [key(seq[i]) for i in range(-n, n)] == listed + listed
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            seq[i]
    for part in (np.s_[1:3], np.s_[::-2], np.s_[1:], np.s_[2:0:-1], np.s_[n + 1:]):
        view = seq[part]
        assert isinstance(view, OnDemand) and len(view) == len(listed[part])
        assert [key(item) for item in view] == listed[part]
        assert [key(view[i]) for i in range(-len(view), 0)] == listed[part]
    assert [key(item) for item in seq[::-1][1:3]] == listed[::-1][1:3]   # a slice of a slice
    assert [key(item) for item in seq[1:][::-2]] == listed[1:][::-2]
    for i in (2, -1):
        first, again = seq[i], seq[i]
        assert key(first) == key(again) and field(first) is not field(again)
