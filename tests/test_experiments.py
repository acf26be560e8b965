"""Monte Carlo studies over the random boundary model."""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import randbc.experiments
import randbc.runge
from randbc.boundary import (BoundaryBasis, RandomBoundaryModel, sample_coeffs,
                             surrogate_h12_norm)
from randbc.constraints import ConstraintMap, extract_cover, feature_rows, restrict, zeta_eval
from randbc.errors import ConfigError, DomainError
from randbc.grid import rect_mask
from randbc.runge import Dictionary
from randbc.experiments import (_CHUNK, TrialConfig, _constraint_rows,
                                _spans, _survival, concentration_check,
                                default_probes, success_curve, tail_check,
                                trial_fields, variance_identity_check,
                                wilson_interval)
from randbc.streams import derive_rng


@pytest.fixture()
def cfg17(grid17, ident17, model9):
    return TrialConfig(grid=grid17, coeff=ident17, model=model9,
                       cmap=ConstraintMap("nodal"), N=4)


def test_wilson_interval_frozen_values():
    assert wilson_interval(190, 200) == pytest.approx(
        (0.9104218518612239, 0.972617354399236), rel=1e-13)
    assert wilson_interval(0, 200) == pytest.approx(
        (0.0, 0.018845326377266575), abs=1e-12)
    assert wilson_interval(200, 200) == pytest.approx(
        (0.9811546736227335, 1.0), rel=1e-13)
    assert wilson_interval(12, 60) == pytest.approx(
        (0.11828505322897494, 0.317818058056279), rel=1e-13)
    with pytest.raises(ConfigError):
        wilson_interval(5, 0)


@pytest.mark.parametrize("M", [7, 50, 2000])
def test_wilson_interval_endpoints_are_exact(M):
    assert wilson_interval(0, M)[0] == 0.0
    assert wilson_interval(M, M)[1] == 1.0


def test_injected_constant_field_gives_its_magnitude_exactly(cfg17, grid17):
    c = 3.25
    values = zeta_eval(ConstraintMap("nodal"), (np.full(grid17.X.shape, c),),
                       grid17, cfg17.mask)
    assert extract_cover(values[None], 1.0).value.min() == c


def test_trial_labels_appear_at_a_reference_threshold(cfg17):
    rows = trial_fields(cfg17, 1)
    labels = extract_cover(rows, 1e-6)
    assert labels.label.min() >= 1
    assert labels.label.max() <= cfg17.N
    assert labels.complete == (labels.value.min() >= 1e-6)
    np.testing.assert_array_equal(labels.value, np.abs(rows).max(axis=0))
    np.testing.assert_array_equal(
        labels.value, np.abs(rows)[labels.label - 1, np.arange(cfg17.mask.count)])


def test_trial_fields_are_the_rows_of_the_trial_seeds_stream(cfg17):
    rows = trial_fields(cfg17, 7)
    assert rows.shape == (cfg17.N, cfg17.mask.count)
    coeffs = sample_coeffs(cfg17.model, derive_rng(7), cfg17.N)
    np.testing.assert_array_equal(rows, coeffs @ cfg17.window_parts[0])
    # the values of the synthesized fields, up to rounding
    z = cfg17.dictionary.z
    u = np.tensordot(coeffs, np.stack([z[k] for k in range(len(z))]), 1)
    for l in range(cfg17.N):
        np.testing.assert_allclose(zeta_eval(cfg17.cmap, [u[l]], cfg17.grid, cfg17.mask),
                                   rows[l], rtol=0, atol=1e-12)


def test_trials_are_reproducible_and_seed_sensitive(cfg17):
    a = trial_fields(cfg17, 9)
    assert trial_fields(cfg17, 9).tobytes() == a.tobytes()
    assert not np.array_equal(trial_fields(cfg17, 10), a)


def test_success_curve_is_nested_and_calibrated(cfg17):
    res = success_curve(cfg17, [1, 2, 4], M=60, tau="auto", master_seed=3)
    assert res.min_max.shape == (60, 3)
    # coupled draws make per-trial min-max exactly monotone in N
    assert np.all(np.diff(res.min_max, axis=1) >= 0.0)
    # auto threshold is the floor(0.05 M)-th smallest value at the top N
    k = max(1, int(np.floor(0.05 * 60)))
    assert res.tau == np.sort(res.min_max[:, -1])[k - 1]
    assert res.rows[-1].rate >= (60 - k + 1) / 60 - 1e-12
    # rates are monotone along N for nested draws and a common threshold
    rates = [r.rate for r in res.rows]
    assert rates == sorted(rates)
    for row in res.rows:
        assert 0.0 <= row.lo95 <= row.rate <= row.hi95 <= 1.0


def test_zero_threshold_accepts_everything(cfg17):
    res = success_curve(cfg17, [1, 2], M=50, tau=0.0, master_seed=0)
    assert all(row.rate == 1.0 for row in res.rows)
    assert res.cover_complete_count == res.M


def test_success_curve_input_validation(cfg17):
    with pytest.raises(ConfigError):
        success_curve(cfg17, [1, 2], M=49)
    with pytest.raises(ConfigError):
        success_curve(cfg17, [], M=50)
    with pytest.raises(ConfigError):
        success_curve(cfg17, [0, 2], M=50)
    with pytest.raises(ConfigError):
        success_curve(cfg17, [1, 2], M=50, tau=-0.5)
    for tau in (np.inf, np.nan):
        with pytest.raises(ConfigError):
            success_curve(cfg17, [1, 2], M=50, tau=tau)


@pytest.mark.parametrize("threads", [2, 3, 7, 60])
def test_worker_count_does_not_change_results(threads, cfg17, monkeypatch):
    pools = []

    class RecordingExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.workers = max_workers
            self.blocks = []
            pools.append(self)

        def submit(self, fn, /, *args, **kwargs):
            self.blocks.append(args)
            return super().submit(fn, *args, **kwargs)

    M = 53
    monkeypatch.setattr(randbc.experiments, "ThreadPoolExecutor", RecordingExecutor)
    # more CPUs than repetitions, so every thread count here is taken as given
    monkeypatch.setattr(randbc.experiments, "_usable_cpus", lambda: 64)
    r1 = success_curve(cfg17, [1, 4], M=M, tau="auto", master_seed=7, threads=1)
    assert pools == []
    assert r1.workers == 1
    rt = success_curve(cfg17, [1, 4], M=M, tau="auto", master_seed=7, threads=threads)
    assert rt.workers == min(threads, M)
    np.testing.assert_array_equal(r1.min_max, rt.min_max)
    assert r1.tau == rt.tau
    assert [r.successes for r in r1.rows] == [r.successes for r in rt.rows]
    assert r1.cover_complete_count == rt.cover_complete_count
    # one nonempty contiguous block per worker, never more workers than repetitions
    (pool,) = pools
    workers = min(threads, M)
    assert pool.workers == workers
    assert len(pool.blocks) == workers
    starts, stops = zip(*pool.blocks)
    assert starts[0] == 0 and stops[-1] == M
    assert list(starts[1:]) == list(stops[:-1])
    assert all(stop > start for start, stop in pool.blocks)


@pytest.mark.parametrize("cpus", [None, 1, 3])
def test_worker_count_is_capped_at_the_usable_cpus(cpus, cfg17, monkeypatch):
    pools = []

    class InlineExecutor:
        """Records max_workers and runs each task in the calling thread."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(randbc.experiments, "ThreadPoolExecutor", InlineExecutor)
    if cpus is None:
        cpus = randbc.experiments._usable_cpus()
    else:
        monkeypatch.setattr(randbc.experiments, "_usable_cpus", lambda: cpus)
    assert cpus >= 1
    M = 60
    r1 = success_curve(cfg17, [1, 4], M=M, tau="auto", master_seed=7, threads=1)
    rt = success_curve(cfg17, [1, 4], M=M, tau="auto", master_seed=7, threads=2000)
    np.testing.assert_array_equal(r1.min_max, rt.min_max)
    assert pools == ([min(cpus, M)] if cpus > 1 else [])
    assert rt.workers == min(cpus, M)


def test_dense_and_on_demand_dictionaries_restrict_to_the_same_bits(cfg17, dict17):
    dense = Dictionary(grid=dict17.grid, coeff=dict17.coeff, model=dict17.model,
                       z=np.stack([dict17.z[k] for k in range(dict17.K)]),
                       operator=dict17.operator)
    ix, iy = cfg17.mask.indices
    lazy, full = restrict(dict17.grid, dict17.z, ix, iy), restrict(dense.grid, dense.z, ix, iy)
    for a, b in zip(lazy, full):
        np.testing.assert_array_equal(a, b)


def test_a_config_solves_its_window_modes_once(grid17, ident17, model9, monkeypatch):
    solved = []
    solve = randbc.runge.solve_dirichlet

    def counting(*args, **kwargs):
        solved.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(randbc.runge, "solve_dirichlet", counting)
    cfg = TrialConfig(grid=grid17, coeff=ident17, model=model9,
                      cmap=ConstraintMap("critical"), N=2)
    success_curve(cfg, [1, 2], M=50)
    trial_fields(cfg, 3)
    assert len(solved) == model9.K
    parts = cfg.window_parts
    assert cfg.window_parts is parts
    quarter = rect_mask(grid17, (0.25, 0.25), (0.5, 0.5))
    with pytest.raises(FrozenInstanceError):
        cfg.mask = quarter
    other = TrialConfig(grid=grid17, coeff=ident17, model=model9,
                        cmap=ConstraintMap("critical"), N=2, mask=quarter)
    trial_fields(other, 3)
    assert len(solved) == 2 * model9.K
    assert other.window_parts[0].shape == (model9.K, other.mask.count)


@pytest.mark.parametrize("perm", [(1, 0, 2), (0, 2, 1), (2, 1, 0)])
def test_batched_augmented_rows_flip_sign_exactly_under_transpositions(perm, grid17,
                                                                       ident17, model9):
    cfg = TrialConfig(grid=grid17, coeff=ident17, model=model9,
                      cmap=ConstraintMap("augmented"), N=8)
    feats = feature_rows(cfg.cmap, *cfg.window_parts)
    coeffs = sample_coeffs(model9, derive_rng(31, 0), 8 * 3).reshape(8, 3, model9.K)
    rows = _constraint_rows(feats, coeffs)
    assert rows.shape == (8, cfg.mask.count)
    np.testing.assert_array_equal(_constraint_rows(feats, coeffs[:, perm, :]), -rows)


def _reference_complete_count(cfg, N_max, M, tau, master_seed):
    """Covers complete at tau, counted the long way: redraw each repetition's
    N_max constraint rows and label them with extract_cover."""
    feats = feature_rows(cfg.cmap, *cfg.window_parts)
    arity, K = cfg.cmap.arity, cfg.model.K
    complete = 0
    for rep in range(M):
        rng = derive_rng(master_seed, rep)
        coeffs = sample_coeffs(cfg.model, rng, N_max * arity).reshape(N_max, arity, K)
        complete += extract_cover(_constraint_rows(feats, coeffs), tau).complete
    return complete


def _reference_min_max(cfg, Ns, M, master_seed):
    """min over nodes of max_{l < N_j} |zeta^l|, from each repetition's full rows."""
    feats = feature_rows(cfg.cmap, *cfg.window_parts)
    arity, K = cfg.cmap.arity, cfg.model.K
    out = np.empty((M, len(Ns)))
    for rep in range(M):
        coeffs = sample_coeffs(cfg.model, derive_rng(master_seed, rep), Ns[-1] * arity)
        rows = np.abs(_constraint_rows(feats, coeffs.reshape(-1, arity, K)))
        out[rep] = [rows[:N].max(axis=0).min() for N in Ns]
    return out


@pytest.mark.parametrize("kind", ["nodal", "critical", "jacobian", "augmented"])
def test_cover_complete_count_matches_labeling_every_repetition(kind, grid17, ident17,
                                                                model9):
    Ns = [1, 3, 4]
    cfg = TrialConfig(grid=grid17, coeff=ident17, model=model9,
                      cmap=ConstraintMap(kind), N=4)
    auto = success_curve(cfg, Ns, M=50, tau="auto", master_seed=5)
    explicit_tau = float(np.median(auto.min_max[:, -1]))
    explicit = success_curve(cfg, Ns, M=50, tau=explicit_tau, master_seed=5)
    reference = _reference_min_max(cfg, Ns, M=50, master_seed=5)
    for res in (auto, explicit):
        assert res.tau > 0.0
        assert res.min_max.tobytes() == reference.tobytes()
        assert res.cover_complete_count == _reference_complete_count(
            cfg, N_max=4, M=50, tau=res.tau, master_seed=5)
    assert 0 < explicit.cover_complete_count < explicit.M


def test_default_probes_snap_to_window_nodes(grid17):
    pts = default_probes()
    assert len(pts) == 9
    for x, y in pts:
        assert 0.25 <= x <= 0.75 and 0.25 <= y <= 0.75
        ix, iy = grid17.nearest_node((x, y))
        assert (grid17.xs[ix], grid17.xs[iy]) == (x, y)


def test_variance_identity_on_the_small_model(cfg17):
    rows = variance_identity_check(cfg17, M=4000, master_seed=1)
    assert len(rows) == 9
    assert all(abs(r.z) <= 5.0 for r in rows)
    assert all(r.series > 0.0 for r in rows)


def test_variance_identity_for_the_bilinear_map(grid17, ident17):
    m7 = RandomBoundaryModel.power_law(K=7, c=1.0, s=1.5)
    cfg = TrialConfig(grid=grid17, coeff=ident17, model=m7,
                      cmap=ConstraintMap("jacobian"), N=2)
    rows = variance_identity_check(cfg, M=3000, master_seed=2)
    assert all(abs(r.z) <= 5.0 for r in rows)


@pytest.mark.parametrize("kind, K", [("augmented", 9), ("jacobian", 17)])
def test_variance_identity_for_every_map_and_size(kind, K, grid17, ident17):
    model = RandomBoundaryModel.power_law(K=K, c=1.0, s=1.5)
    cfg = TrialConfig(grid=grid17, coeff=ident17, model=model,
                      cmap=ConstraintMap(kind), N=1)
    rows = variance_identity_check(cfg, M=4000, master_seed=0)
    assert len(rows) == 9
    assert all(abs(r.z) <= 5.0 for r in rows)
    assert all(r.series > 0.0 for r in rows)


def _probe_parts(cfg):
    nodes = [cfg.grid.nearest_node(p) for p in default_probes()]
    ixs = np.array([ix for ix, _ in nodes])
    iys = np.array([iy for _, iy in nodes])
    return restrict(cfg.grid, cfg.dictionary.z, ixs, iys)


def test_series_matches_brute_force_sums_over_modes(grid17, ident17):
    for kind, K in (("jacobian", 7), ("augmented", 5)):
        model = RandomBoundaryModel.power_law(K=K, c=1.0, s=1.5)
        cfg = TrialConfig(grid=grid17, coeff=ident17, model=model,
                          cmap=ConstraintMap(kind), N=1)
        series = np.array([r.series for r in variance_identity_check(cfg, M=2)])
        vals, gxs, gys = _probe_parts(cfg)
        s2 = model.sigma ** 2
        brute = np.zeros(len(series))
        if kind == "jacobian":
            # E zeta^2 = sum_ij s_i s_j (gx_i gy_j - gy_i gx_j)^2
            for i in range(K):
                for j in range(K):
                    t = gxs[i] * gys[j] - gys[i] * gxs[j]
                    brute += s2[i] * s2[j] * t * t
        else:
            # E zeta^2 = sum_ijk s_i s_j s_k det[v; gx; gy](modes i, j, k)^2
            for i in range(K):
                for j in range(K):
                    for k in range(K):
                        for p in range(len(series)):
                            cols = [i, j, k]
                            mat = np.array([vals[cols, p], gxs[cols, p], gys[cols, p]])
                            brute[p] += s2[i] * s2[j] * s2[k] * np.linalg.det(mat) ** 2
        np.testing.assert_allclose(series, brute, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("cmap", [ConstraintMap("nodal"), ConstraintMap("critical"),
                                  ConstraintMap("critical", direction=(1.0, 2.0))])
def test_single_argument_series_is_the_weighted_square_sum(cmap, cfg17):
    cfg = TrialConfig(grid=cfg17.grid, coeff=cfg17.coeff, model=cfg17.model,
                      cmap=cmap, N=1)
    series = np.array([r.series for r in variance_identity_check(cfg, M=2)])
    vals, gxs, gys = _probe_parts(cfg)
    if cmap.kind == "nodal":
        w = vals
    else:
        d0, d1 = cmap.direction
        w = d0 * gxs + d1 * gys
    np.testing.assert_array_equal(series, (cfg.model.sigma ** 2) @ (w * w))


def test_variance_identity_degenerate_single_mode(grid17, ident17):
    sigma = np.zeros(9)
    sigma[0] = 1.0
    model = RandomBoundaryModel(basis=BoundaryBasis(9), sigma=sigma,
                                family="gaussian")
    cfg = TrialConfig(grid=grid17, coeff=ident17, model=model,
                      cmap=ConstraintMap("nodal"), N=1)
    rows = variance_identity_check(cfg, M=1000, master_seed=0)
    assert all(abs(r.z) <= 5.0 for r in rows)


def test_variance_identity_zero_model_is_exactly_zero(grid17, ident17):
    model = RandomBoundaryModel(basis=BoundaryBasis(5), sigma=np.zeros(5),
                                family="gaussian")
    cfg = TrialConfig(grid=grid17, coeff=ident17, model=model,
                      cmap=ConstraintMap("nodal"), N=1)
    for row in variance_identity_check(cfg, M=64, master_seed=0):
        assert row.mc == 0.0
        assert row.series == 0.0
        assert row.z == 0.0


def _image(x: float, k: int):
    """x 2^k, or None where it overflows float64."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return None


def _or_none(fn):
    try:
        return fn()
    except DomainError:
        return None


@pytest.mark.parametrize("k", [-990, -400, 100])
def test_power_of_two_weight_scales_give_exact_images(k, grid17, ident17):
    # sums of squares are taken in units of a power of two, so multiplying
    # the weights by 2^k maps every output by its power of 2^k, bit for bit,
    # or fails where that image overflows
    base, scaled = (RandomBoundaryModel.power_law(K=9, c=math.ldexp(3.7, j))
                    for j in (0, k))
    h12 = surrogate_h12_norm(sample_coeffs(base, derive_rng(2, 0), 16))
    assert (surrogate_h12_norm(sample_coeffs(scaled, derive_rng(2, 0), 16)).tobytes()
            == np.ldexp(h12, k).tobytes())

    ref, got = tail_check(base, 1000), _or_none(lambda: tail_check(scaled, 1000))
    if _image(ref.c1_hat, -2 * k) is None:
        assert got is None
    else:
        assert got.c1_hat == math.ldexp(ref.c1_hat, -2 * k)
        assert [(r.t, r.survival, r.bound) for r in got.rows] == [
            (math.ldexp(r.t, k), r.survival, r.bound) for r in ref.rows]
        assert got.dominated == ref.dominated

    for kind in ("critical", "jacobian", "augmented"):
        ref, got = (_or_none(lambda: variance_identity_check(
            TrialConfig(grid=grid17, coeff=ident17, model=m, cmap=ConstraintMap(kind), N=1),
            M=200)) for m in (base, scaled))
        d = 2 * ConstraintMap(kind).arity * k
        images = [(_image(r.mc, d), _image(r.series, d), r.z) for r in ref]
        if any(None in row for row in images):
            assert got is None
        else:
            assert [(r.mc, r.series, r.z) for r in got] == images


@pytest.mark.parametrize("family", ["gaussian", "rademacher", "uniform"])
@pytest.mark.parametrize("K", [7, 33])
def test_chunked_draws_from_one_generator_equal_one_draw(family, K):
    # the premise of the streamed checks: chunk boundaries do not move a bit
    model = RandomBoundaryModel.power_law(K=K, family=family)
    sizes = (_CHUNK + 1, 17, 1, 333, 5)
    whole = sample_coeffs(model, derive_rng(4, 0), sum(sizes))
    rng = derive_rng(4, 0)
    np.testing.assert_array_equal(
        whole, np.concatenate([sample_coeffs(model, rng, c) for c in sizes]))


def test_spans_cover_the_range_without_a_one_element_tail():
    assert list(_spans(5, 2)) == [(0, 2), (2, 5)]
    assert list(_spans(6, 2)) == [(0, 2), (2, 4), (4, 6)]
    assert list(_spans(1, 4)) == [(0, 1)]
    assert list(_spans(0, 4)) == []
    for count in (2 * _CHUNK, 2 * _CHUNK + 1, 2 * _CHUNK + 2):
        spans = list(_spans(count, _CHUNK))
        assert [lo for lo, _ in spans[1:]] == [hi for _, hi in spans[:-1]]
        assert spans[0][0] == 0 and spans[-1][1] == count
        assert all(hi - lo > 1 for lo, hi in spans)


def test_survival_counts_equal_the_mask_means():
    x = np.random.default_rng(3).integers(0, 50, size=1001).astype(float)
    t = np.array([-1.0, 0.0, 10.0, 10.5, 49.0, 50.0, np.nan])
    expect = np.array([(x >= s).mean() for s in t])
    np.testing.assert_array_equal(_survival(x.copy(), t), expect)


@pytest.mark.parametrize("family", ["gaussian", "rademacher", "uniform"])
@pytest.mark.parametrize("kind", ["nodal", "critical", "jacobian", "augmented"])
def test_streamed_variance_reductions_equal_the_one_shot_ones(kind, family, grid17,
                                                              ident17):
    model = RandomBoundaryModel.power_law(K=9, family=family)
    cfg = TrialConfig(grid=grid17, coeff=ident17, model=model,
                      cmap=ConstraintMap(kind), N=1)
    M = 5 * _CHUNK // 2
    rows = variance_identity_check(cfg, M=M, master_seed=3)

    feats, arity = feature_rows(cfg.cmap, *_probe_parts(cfg)), cfg.cmap.arity
    rng = derive_rng(3, 0)
    sq = np.concatenate([
        _constraint_rows(feats, sample_coeffs(model, rng, arity * (hi - lo))
                         .reshape(hi - lo, arity, 9)) ** 2
        for lo, hi in _spans(M, _CHUNK)])
    series = np.array([r.series for r in rows])
    z = (sq.mean(axis=0) - series) / (sq.std(axis=0, ddof=1) / np.sqrt(M))
    np.testing.assert_array_equal([r.mc for r in rows], sq.mean(axis=0))
    np.testing.assert_array_equal([r.z for r in rows], z)


def _peak_growth(traced_memory, check) -> int:
    small, large = 3 * _CHUNK + 17, 30 * _CHUNK + 17

    def peak(M):
        return traced_memory(lambda: check(M), warm=lambda: check(small))[0]
    return peak(large) - peak(small)


@pytest.mark.parametrize("kind", ["nodal", "critical", "jacobian", "augmented"])
def test_variance_check_memory_does_not_grow_with_M(kind, grid17, ident17, model9,
                                                    traced_memory):
    cfg = TrialConfig(grid=grid17, coeff=ident17, model=model9,
                      cmap=ConstraintMap(kind), N=1)
    assert _peak_growth(traced_memory,
                        lambda M: variance_identity_check(cfg, M=M)) <= 64 * 1024


def test_tail_and_concentration_memory_grow_by_at_most_8_bytes_per_sample(cfg17,
                                                                         traced_memory):
    cfg = TrialConfig(grid=cfg17.grid, coeff=cfg17.coeff, model=cfg17.model,
                      cmap=ConstraintMap("critical"), N=1)
    bound = 8 * 27 * _CHUNK + 64 * 1024
    assert _peak_growth(traced_memory, lambda M: tail_check(cfg.model, M)) <= bound
    assert _peak_growth(traced_memory,
                        lambda M: concentration_check(cfg, [4, 16], M)) <= bound


@pytest.mark.parametrize("family", ["gaussian", "rademacher", "uniform"])
def test_tail_bound_dominates_for_every_family(family):
    m = RandomBoundaryModel.power_law(K=9, c=1.0, s=1.5, family=family)
    rep = tail_check(m, M=2000, master_seed=0)
    assert rep.c1_hat > 0.0
    assert rep.dominated
    assert all(row.survival <= row.bound + 1e-12 for row in rep.rows)
    assert rep.family == family


def test_tail_check_requires_enough_samples(model9):
    with pytest.raises(ConfigError):
        tail_check(model9, M=999)


def test_concentration_of_empirical_means(cfg17):
    cfg = TrialConfig(grid=cfg17.grid, coeff=cfg17.coeff, model=cfg17.model,
                      cmap=ConstraintMap("nodal"), N=1)
    rep = concentration_check(cfg, [4, 16], M=300, master_seed=0)
    assert rep.C_hat > 0.0
    assert np.isfinite(rep.mu)
    by_n = {}
    for row in rep.rows:
        assert 0.0 <= row.p_emp <= 1.0
        assert row.bound >= 0.0
        by_n.setdefault(row.N, []).append(row.t)
    # averaging more draws tightens the deviation quantiles level by level
    t4, t16 = by_n[4], by_n[16]
    assert len(t4) == len(t16)
    assert all(b <= a for a, b in zip(t4, t16))


def test_concentration_rejects_multi_argument_maps(grid17, ident17, model9):
    cfg = TrialConfig(grid=grid17, coeff=ident17, model=model9,
                      cmap=ConstraintMap("jacobian"), N=2)
    with pytest.raises(ConfigError):
        concentration_check(cfg, [4, 16], M=300)
