"""Internal-data reconstructions: absorption and conductivity round trips."""

import numpy as np
import pytest
from scipy import ndimage, sparse
from scipy.sparse import linalg as spla

import randbc.inverse
from randbc.errors import ConfigError, DomainError, SolverError
from randbc.grid import build_grid, default_window
from randbc.inverse import (conductivity_forward, conductivity_reconstruct,
                            qpat_forward, qpat_reconstruct_multi)
from randbc.solver import gradient, laplacian, solve_poisson

from conftest import lattice_operator


@pytest.fixture(scope="module")
def grid():
    return build_grid(65)


@pytest.fixture(scope="module")
def mu_bump(grid):
    return 1.0 + 0.5 * np.exp(-50.0 * ((grid.X - 0.5) ** 2 + (grid.Y - 0.5) ** 2))


def test_absorption_round_trip_from_exact_data(grid, mu_bump):
    bc = np.ones(grid.boundary_s.shape[0])
    [data] = qpat_forward(grid, mu_bump, [bc])
    res = qpat_reconstruct_multi(grid, [data], tau=0.1)
    w = default_window(grid)
    assert np.all(res.mask_valid[w.member])
    err = res.mu_hat[res.mask_valid] - mu_bump[res.mask_valid]
    rel = np.linalg.norm(err) / np.linalg.norm(mu_bump[res.mask_valid])
    assert rel <= 1e-8
    assert np.all(np.isnan(res.mu_hat[~res.mask_valid]))


def test_absorption_validation(grid, mu_bump):
    bc = np.ones(grid.boundary_s.shape[0])
    with pytest.raises(ConfigError):
        qpat_forward(grid, -mu_bump, [bc])
    bad = mu_bump.copy()
    bad[3, 3] = np.nan
    with pytest.raises(ConfigError, match="^coefficients must be finite$"):
        qpat_forward(grid, bad, [bc])
    [data] = qpat_forward(grid, mu_bump, [bc])
    with pytest.raises(ConfigError):
        qpat_reconstruct_multi(grid, [data], tau=0.0)


@pytest.mark.parametrize("n", [17, 129])
def test_absorption_window_must_match_the_data_grid(grid, mu_bump, n):
    [data] = qpat_forward(grid, mu_bump, [np.ones(grid.boundary_s.shape[0])])
    with pytest.raises(ConfigError, match="window grid size"):
        qpat_reconstruct_multi(grid, [data], tau=0.1, window=default_window(build_grid(n)))


def test_threshold_masks_out_the_small_field_region(grid, mu_bump):
    # an illumination vanishing on part of the boundary makes u small
    # near that part, which the validity mask must exclude
    s = grid.boundary_s
    bc = np.clip(np.sin(np.pi * s / 4.0), 0.0, None)
    [data] = qpat_forward(grid, mu_bump, [bc])
    res = qpat_reconstruct_multi(grid, [data], tau=0.2)
    assert not res.mask_valid.all()
    valid_err = np.abs(res.mu_hat[res.mask_valid] - mu_bump[res.mask_valid])
    assert valid_err.max() <= 1e-6 * mu_bump.max()


@pytest.mark.parametrize("tau", [0.1, 0.2])
@pytest.mark.parametrize("trace", ["const", "half"])
def test_multi_reconstruction_of_one_measurement_is_the_single_one(trace, tau, grid,
                                                                    mu_bump):
    s = grid.boundary_s
    bc = (np.ones(s.shape[0]) if trace == "const"
          else np.clip(np.sin(np.pi * s / 4.0), 0.0, None))
    [data] = qpat_forward(grid, mu_bump, [bc])
    # the single-measurement formula: one Poisson solve, then mu = H / u
    u = solve_poisson(grid, data.H, data.boundary_u)
    valid = np.abs(u) >= tau
    single = np.full((grid.n, grid.n), np.nan)
    single[valid] = data.H[valid] / u[valid]
    multi = qpat_reconstruct_multi(grid, [data], tau=tau)
    np.testing.assert_array_equal(multi.mask_valid, valid)
    assert multi.mu_hat.tobytes() == single.tobytes()


def test_no_node_clearing_tau_is_a_domain_error(grid, mu_bump):
    [data] = qpat_forward(grid, mu_bump, [np.zeros(grid.boundary_s.shape[0])])
    with pytest.raises(DomainError):
        qpat_reconstruct_multi(grid, [data], tau=0.1)
    with pytest.raises(DomainError):
        qpat_reconstruct_multi(grid, [data, data], tau=0.1)


def test_multi_illumination_stitches_a_complete_cover(grid, mu_bump):
    s = grid.boundary_s
    bc1 = np.clip(np.sin(np.pi * s / 2.0), 0.0, None)
    bc2 = np.clip(-np.sin(np.pi * s / 2.0), 0.0, None)
    d1, d2 = qpat_forward(grid, mu_bump, [bc1, bc2])
    single = qpat_reconstruct_multi(grid, [d1], tau=0.2)
    multi = qpat_reconstruct_multi(grid, [d1, d2], tau=0.2)
    assert multi.mask_valid.sum() > single.mask_valid.sum()
    assert set(np.unique(multi.labels)) <= {1, 2}
    err = multi.mu_hat[multi.mask_valid] - mu_bump[multi.mask_valid]
    assert np.abs(err).max() <= 1e-6 * mu_bump.max()
    # a constant illumination alone already covers the window
    bc = np.ones(grid.boundary_s.shape[0])
    full = qpat_reconstruct_multi(grid, qpat_forward(grid, mu_bump, [bc]), tau=0.1)
    assert full.complete


@pytest.mark.parametrize("case", ["tie", "later", "mixed"])
def test_streamed_choice_is_bitwise_the_stacked_argmax(case, grid, mu_bump):
    s = grid.boundary_s
    ones = np.ones(s.shape[0])
    bcs = {"tie": [ones, ones],
           "later": [ones, 2.0 * ones],
           "mixed": [np.clip(np.sin(np.pi * s / 2.0), 0.0, None),
                     np.clip(-np.sin(np.pi * s / 2.0), 0.0, None), 0.3 * ones]}[case]
    datasets = qpat_forward(grid, mu_bump, bcs)
    got = qpat_reconstruct_multi(grid, datasets, tau=0.2)
    # the reference stacks every recovered u and takes argmax's first-index choice
    u = np.stack([solve_poisson(grid, d.H, d.boundary_u) for d in datasets])
    pick = np.abs(u).argmax(axis=0)[None]
    u_best = np.take_along_axis(u, pick, axis=0)[0]
    H_best = np.take_along_axis(np.stack([d.H for d in datasets]), pick, axis=0)[0]
    valid = np.abs(u_best) >= 0.2
    mu_hat = np.full((grid.n, grid.n), np.nan)
    mu_hat[valid] = H_best[valid] / u_best[valid]
    assert got.mu_hat.tobytes() == mu_hat.tobytes()
    np.testing.assert_array_equal(got.mask_valid, valid)
    assert got.labels.dtype == pick.dtype
    np.testing.assert_array_equal(got.labels, pick[0] + 1)
    assert set(np.unique(got.labels)) == {"tie": {1}, "later": {2}, "mixed": {1, 2, 3}}[case]


def test_qpat_reconstruction_memory_does_not_grow_with_the_illuminations(
        grid, mu_bump, traced_memory):
    s = grid.boundary_s
    datasets = qpat_forward(grid, mu_bump, [1.5 + np.cos(k * s) for k in range(8)])

    def peak(count):
        return traced_memory(
            lambda: qpat_reconstruct_multi(grid, datasets[:count], tau=0.1))[0]
    assert peak(8) - peak(1) < grid.n ** 2 * 8


def test_no_lattice_field_outlives_a_qpat_round_trip(traced_memory):
    def round_trip(n):
        g = build_grid(n)
        bc = np.ones(g.boundary_count)
        qpat_reconstruct_multi(g, qpat_forward(g, 1.0 + g.X, [bc]), tau=0.1)

    # Warmed on another size, so nothing kept for this one is counted as a cache.
    _, held = traced_memory(lambda: round_trip(77), warm=lambda: round_trip(33))
    assert held < 77 ** 2 * 8


def test_qpat_forward_assembles_one_operator_for_all_traces(grid, mu_bump, monkeypatch):
    calls = []
    assemble = randbc.inverse.assemble

    def counting(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(randbc.inverse, "assemble", counting)
    s = grid.boundary_s
    bcs = [np.ones(s.shape[0]), np.cos(s), np.sin(s)]
    datasets = qpat_forward(grid, mu_bump, bcs)
    assert len(calls) == 1
    for d, bc in zip(datasets, bcs):
        np.testing.assert_array_equal(d.boundary_u, bc)


def test_measurements_are_solved_when_read_and_bitwise_alike(grid, mu_bump, monkeypatch):
    solves = []
    solve = randbc.inverse.solve_dirichlet

    def counting(*args, **kwargs):
        solves.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(randbc.inverse, "solve_dirichlet", counting)
    s = grid.boundary_s
    bcs = [1.5 + np.cos(k * s) for k in range(4)]
    datasets = qpat_forward(grid, mu_bump, bcs)
    assert len(datasets) == 4 and not solves
    first = [d.H.tobytes() for d in datasets]
    assert len(solves) == 4
    assert [d.H.tobytes() for d in datasets] == first            # a second iteration
    lazy = qpat_reconstruct_multi(grid, datasets[2:3], tau=0.1)
    listed = qpat_reconstruct_multi(grid, [datasets[2]], tau=0.1)
    assert lazy.mu_hat.tobytes() == listed.mu_hat.tobytes()


def test_conductivity_forward_keeps_no_copy(grid, traced_memory):
    g = build_grid(129)
    a = np.exp(g.X)
    kept = []
    peak, _ = traced_memory(lambda: kept.append(conductivity_forward(g, a)))
    assert peak < 16.5 * g.n ** 2 * 8
    assert kept[-1].a_true is a and kept[-1].u.shape == (2, g.n, g.n)


def test_every_solve_honors_maxiter(grid, mu_bump):
    bc = np.ones(grid.boundary_s.shape[0])
    strict = dict(rtol=1e-14, maxiter=1)
    with pytest.raises(SolverError):    # a measurement is solved when it is read
        qpat_forward(grid, mu_bump, [bc], **strict)[0]
    [data] = qpat_forward(grid, mu_bump, [bc])
    # The Poisson step is a direct sine-transform solve: no iteration count to
    # cap, but an unattainable residual target still raises.
    unattainable = dict(rtol=1e-20, maxiter=1)
    with pytest.raises(SolverError):
        qpat_reconstruct_multi(grid, [data], tau=0.1, **unattainable)
    with pytest.raises(SolverError):
        conductivity_forward(grid, np.exp(grid.X), **strict)
    fields = conductivity_forward(grid, np.exp(grid.X))
    with pytest.raises(SolverError):
        conductivity_reconstruct(fields, tau=1e-3, **unattainable)


def test_conductivity_round_trip(grid):
    a = np.exp(grid.X)
    data = conductivity_forward(grid, a)
    res = conductivity_reconstruct(data, tau=1e-3)
    assert res.coverage == 1.0
    w = default_window(grid)
    sel = res.region & w.member
    err = res.log_a_hat[sel] - grid.X[sel]
    rel = np.linalg.norm(err) / np.linalg.norm(grid.X[sel])
    assert rel <= 1e-3
    assert np.all(np.isnan(res.log_a_hat[~res.region]))


def test_conductivity_gauge_scaling_invariance(grid):
    # multiplying the conductivity by a constant leaves the fields, hence
    # the anchored reconstruction, unchanged
    a = np.exp(grid.X)
    r1 = conductivity_reconstruct(conductivity_forward(grid, a),
                                  tau=1e-3, anchor_value=0.0)
    r2 = conductivity_reconstruct(conductivity_forward(grid, 2.0 * a),
                                  tau=1e-3, anchor_value=0.0)
    np.testing.assert_array_equal(r1.region, r2.region)
    np.testing.assert_allclose(r1.log_a_hat[r1.region],
                               r2.log_a_hat[r2.region], rtol=0, atol=1e-9)


def test_conductivity_anchor_defaults_to_the_true_value(grid):
    a = np.exp(grid.X)
    data = conductivity_forward(grid, a)
    res = conductivity_reconstruct(data, tau=1e-3)
    ia, ja = grid.nearest_node((0.5, 0.5))
    assert res.log_a_hat[ia, ja] == pytest.approx(grid.X[ia, ja], abs=1e-6)


def test_conductivity_reports_poor_jacobian_coverage(grid):
    a = np.exp(grid.X)
    data = conductivity_forward(grid, a)
    res = conductivity_reconstruct(data, tau=0.95)
    assert res.coverage < 0.99
    # an unreachable threshold cannot be reconstructed at all
    with pytest.raises(DomainError):
        conductivity_reconstruct(data, tau=10.0)


def test_conductivity_custom_boundary_traces(grid):
    a = np.exp(grid.X)
    bcs = (grid.boundary_values(grid.X + grid.Y),
           grid.boundary_values(grid.X - grid.Y))
    data = conductivity_forward(grid, a, bcs=bcs)
    res = conductivity_reconstruct(data, tau=1e-3)
    assert res.coverage >= 0.99
    sel = res.region & default_window(grid).member
    err = res.log_a_hat[sel] - grid.X[sel]
    assert np.linalg.norm(err) / np.linalg.norm(grid.X[sel]) <= 1e-2


def test_conductivity_validation(grid):
    a = np.exp(grid.X)
    bad = a.copy()
    bad[2, 2] = -1.0
    with pytest.raises(ConfigError):
        conductivity_forward(grid, bad)
    with pytest.raises(ConfigError):
        conductivity_forward(grid, a, bcs=(np.zeros(grid.boundary_s.shape[0]),))
    data = conductivity_forward(grid, a)
    with pytest.raises(ConfigError):
        conductivity_reconstruct(data, tau=-1.0)
    for rtol in (0.0, 1.0, 2.0, np.nan):
        with pytest.raises(ConfigError, match="rtol"):
            conductivity_reconstruct(data, tau=1e-3, rtol=rtol)


def test_conductivity_rejects_an_unconverged_potential_integration(grid):
    data = conductivity_forward(grid, np.exp(grid.X))
    with pytest.raises(SolverError, match="after 1 iterations") as caught:
        conductivity_reconstruct(data, tau=1e-3, rtol=1e-20, maxiter=1)
    assert caught.value.iterations == 1
    assert caught.value.residual > 0.0


def test_conductivity_reconstruction_peaks_under_twelve_fields(grid, traced_memory):
    data = conductivity_forward(grid, np.exp(grid.X))
    peak, _ = traced_memory(lambda: conductivity_reconstruct(data, tau=1e-3))
    assert peak < 12 * grid.n ** 2 * 8


def split_region_data(grid):
    """Fields whose Jacobian vanishes near x = 1/2, splitting the region at tau=0.05."""
    a = np.exp(grid.X + grid.Y)
    bcs = (grid.boundary_values(grid.X),
           grid.boundary_values((grid.X - 0.5) * (grid.Y - 0.5)))
    return conductivity_forward(grid, a, bcs=bcs)


@pytest.mark.parametrize("case", ["connected", "split"])
def test_potential_integration_matches_a_direct_solve(case, grid):
    # Rebuild the anchor's component from the data, and the log-gradient on
    # it, then solve the normal equations of its incidence matrix, gauge-fixed
    # at the anchor, by LU.
    if case == "connected":
        data, kwargs = conductivity_forward(grid, np.exp(grid.X)), dict(tau=1e-3)
    else:
        data, kwargs = split_region_data(grid), dict(tau=0.05, anchor=(0.3, 0.3))
    res = conductivity_reconstruct(data, anchor_value=0.25, **kwargs)
    (g1x, g1y), (g2x, g2y) = gradient(grid, data.u[0]), gradient(grid, data.u[1])
    lap1, lap2 = laplacian(grid, data.u[0]), laplacian(grid, data.u[1])
    jac = g1x * g2y - g1y * g2x
    region = (default_window(grid).member & grid.interior_mask
              & (np.abs(jac) >= kwargs["tau"]))
    labels, _ = ndimage.label(region)   # 4-connected components
    part = labels == labels[grid.nearest_node(kwargs.get("anchor", (0.5, 0.5)))]
    node_id = np.full(part.shape, -1)
    node_id[part] = np.arange(part.sum())
    i, j, b = [], [], []
    for gcomp, (dx, dy) in (((-lap1 * g2y + lap2 * g1y) / jac, (1, 0)),
                            ((lap1 * g2x - lap2 * g1x) / jac, (0, 1))):
        six, siy = np.nonzero(part[:grid.n - dx, :grid.n - dy] & part[dx:, dy:])
        i.append(node_id[six, siy])
        j.append(node_id[six + dx, siy + dy])
        b.append(0.5 * grid.h * (gcomp[six, siy] + gcomp[six + dx, siy + dy]))
    i, j, b = np.concatenate(i), np.concatenate(j), np.concatenate(b)
    e = np.arange(i.size)
    count = int(part.sum())
    A = sparse.csr_matrix((np.r_[np.ones(i.size), -np.ones(i.size)],
                           (np.r_[e, e], np.r_[j, i])), shape=(i.size, count))
    anchor = node_id[grid.nearest_node(kwargs.get("anchor", (0.5, 0.5)))]
    keep = np.arange(count) != anchor
    lap = (A.T @ A).tocsr()[keep][:, keep]
    expect = np.full(count, 0.25)
    expect[keep] += spla.splu(lap.tocsc()).solve((A.T @ b)[keep])
    got = res.log_a_hat[part]   # row-major, the order node ids follow
    assert np.abs(got - expect).max() <= 1e-8 * np.abs(expect).max()
    assert got[anchor] == 0.25
    assert np.isnan(res.log_a_hat[~part]).all()
    info = res.integration
    assert info.method == "cg"
    assert 0 < info.iterations <= 20 * grid.n
    assert 0.0 < info.residual_inf <= 1e-10 * np.abs((A.T @ b)[keep]).max()


def test_conductivity_reconstructs_only_the_anchors_component(grid):
    # the Jacobian of (x, (x-0.5)(y-0.5)) vanishes near x = 1/2 and splits the
    # region; the far component's gauge is unknown, so it must stay NaN
    a = np.exp(grid.X + grid.Y)
    data = split_region_data(grid)
    res = conductivity_reconstruct(data, tau=0.05, anchor=(0.3, 0.3))
    assert res.components == 2
    done = np.isfinite(res.log_a_hat)
    assert done[grid.nearest_node((0.3, 0.3))]
    assert np.all(res.region[done])
    assert (res.region & ~done).any()
    # no reconstructed node has an unreconstructed neighbor in the region,
    # so the reconstructed nodes are the anchor's whole component
    for axis in (0, 1):
        for shift in (1, -1):
            assert not (done & np.roll(res.region & ~done, shift, axis)).any()
    w = default_window(grid)
    assert res.reconstructed_fraction == done[w.member].mean() < res.coverage
    err = res.log_a_hat[done] - np.log(a)[done]
    assert np.std(err) <= 1e-4


def test_connected_region_reports_one_component(grid):
    data = conductivity_forward(grid, np.exp(grid.X))
    res = conductivity_reconstruct(data, tau=1e-3)
    assert res.components == 1
    assert res.reconstructed_fraction == res.coverage == 1.0


def snake(n):
    """A one-node-wide path winding back and forth through an n x n box."""
    mask = np.zeros((n, n), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


@pytest.mark.parametrize("case", range(8))
def test_component_labels_give_the_partition_of_scipy_csgraph(case):
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(case)
    if case == 0:
        mask = snake(31)
    else:
        shape = tuple(rng.integers(3, 40, size=2))
        mask = rng.random(shape) < rng.uniform(0.3, 0.7)
    count, label = randbc.inverse._components(mask)
    nodes = np.flatnonzero(mask)
    graph = lattice_operator(randbc.inverse._edge_bands(mask))[nodes][:, nodes]
    expect_count, expect = connected_components(graph, directed=False)
    assert count == expect_count
    got = label[mask]
    assert len(set(zip(got, expect))) == len(set(got)) == count
    # each component carries its smallest row-major index
    first = {}
    for node, part in zip(nodes, got):
        first.setdefault(part, node)
    assert all(part == node for part, node in first.items())
