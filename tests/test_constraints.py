"""Pointwise constraint maps: witnesses, multilinearity, covers."""

import csv
import math
from collections.abc import Sequence

import numpy as np
import pytest

from randbc.constraints import (KIND_ARITY, ConstraintMap, CoverLabeling, det,
                                extract_cover, feature_rows, restrict,
                                save_cover_csv, witness_check, witness_fields)
from randbc.errors import ConfigError, DomainError
from randbc.grid import build_grid, default_window
from randbc.solver import gradient
from randbc.streams import derive_rng

ALL_KINDS = ("nodal", "critical", "jacobian", "augmented")


def test_arity_table():
    assert KIND_ARITY == {"nodal": 1, "critical": 1, "jacobian": 2, "augmented": 3}


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        ConstraintMap("hessian")


def test_direction_is_normalized_and_nonzero():
    cm = ConstraintMap("critical", direction=(3.0, 4.0))
    assert cm.direction == pytest.approx((0.6, 0.8), rel=1e-15)
    with pytest.raises(ConfigError):
        ConstraintMap("critical", direction=(0.0, 0.0))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_witness_identities_are_exact_on_the_grid(kind, grid33):
    w = default_window(grid33)
    assert witness_check(ConstraintMap(kind), grid33, w) == 1.0


def test_witness_fields_have_the_right_arity(grid17):
    for kind in ALL_KINDS:
        fields = witness_fields(ConstraintMap(kind), grid17)
        assert len(fields) == KIND_ARITY[kind]


def _zeta(g, cm, fields, mask=None):
    """The map at the mask's nodes (default: every node of the grid), in
    mask.indices order, from one restriction of the tuple."""
    ix, iy = np.indices(g.X.shape).reshape(2, -1) if mask is None else mask.indices
    return det(feature_rows(cm, *restrict(g, fields, ix, iy)))


def test_nodal_and_critical_values(grid17):
    g = grid17
    w = default_window(g)
    f = 2.0 * g.X - g.Y
    values = _zeta(g, ConstraintMap("nodal"), [f], w)
    np.testing.assert_allclose(values, (2.0 * g.X - g.Y)[w.member].ravel(),
                               rtol=0, atol=1e-14)
    values = _zeta(g, ConstraintMap("critical", direction=(0.0, 1.0)), [f], w)
    np.testing.assert_allclose(values, -1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["jacobian", "augmented"])
def test_multilinearity_in_the_last_slot(kind, grid17):
    g = grid17
    rng = derive_rng(404, 0)
    cm = ConstraintMap(kind)
    arity = KIND_ARITY[kind]
    for _ in range(20):
        fields = [rng.standard_normal(g.X.shape) for _ in range(arity + 1)]
        al, be = rng.standard_normal(2)
        head, v, w = fields[:arity - 1], fields[-2], fields[-1]
        lhs = _zeta(g, cm, head + [al * v + be * w])
        r1 = _zeta(g, cm, head + [v])
        r2 = _zeta(g, cm, head + [w])
        rhs = al * r1 + be * r2
        scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-30)
        assert np.abs(lhs - rhs).max() / scale <= 1e-12


@pytest.mark.parametrize("kind,swap", [("jacobian", (1, 0)),
                                       ("augmented", (1, 0, 2)),
                                       ("augmented", (0, 2, 1)),
                                       ("augmented", (2, 1, 0))])
def test_argument_transposition_flips_the_sign_exactly(kind, swap, grid17):
    g = grid17
    rng = derive_rng(404, 1)
    cm = ConstraintMap(kind)
    for _ in range(10):
        fields = [rng.standard_normal(g.X.shape) for _ in range(KIND_ARITY[kind])]
        base = _zeta(g, cm, fields)
        perm = _zeta(g, cm, [fields[i] for i in swap])
        np.testing.assert_array_equal(perm, -base)


def test_det3_is_within_the_summation_bound_of_an_exactly_rounded_sum():
    # Two 3-term sums and one subtraction: first-order error at most
    # 16 u = 8 eps times the largest monomial magnitude.
    rng = derive_rng(404, 2)
    F = [[rng.standard_normal(4000) * 10.0 ** rng.integers(-3, 4, 4000)
          for _ in range(3)] for _ in range(3)]
    signed = [(1.0, (0, 1, 2)), (1.0, (1, 2, 0)), (1.0, (2, 0, 1)),
              (-1.0, (0, 2, 1)), (-1.0, (1, 0, 2)), (-1.0, (2, 1, 0))]
    monomials = np.array([sign * ((F[0][i] * F[1][j]) * F[2][k])
                          for sign, (i, j, k) in signed])
    reference = np.array([math.fsum(monomials[:, node])
                          for node in range(monomials.shape[1])])
    bound = 8.0 * np.finfo(float).eps * np.abs(monomials).max(axis=0)
    assert np.all(np.abs(det(F) - reference) <= bound)


def test_restrict_reads_each_field_once_at_the_nodes(grid17):
    fields = [grid17.X ** 2, grid17.X * grid17.Y]
    ix, iy = default_window(grid17).indices
    reads = []

    class Recording(Sequence):
        def __len__(self):
            return len(fields)

        def __getitem__(self, k):
            f = fields[k]
            reads.append(k)
            return f

    vals, gxs, gys = restrict(grid17, Recording(), ix, iy)
    assert sorted(reads) == [0, 1]
    assert vals.shape == gxs.shape == gys.shape == (2, ix.size)
    for k, f in enumerate(fields):
        gx, gy = gradient(grid17, f)
        np.testing.assert_array_equal(vals[k], f[ix, iy])
        np.testing.assert_array_equal(gxs[k], gx[ix, iy])
        np.testing.assert_array_equal(gys[k], gy[ix, iy])


def test_cover_value_is_the_pointwise_sup_and_its_min_the_window_min(grid17):
    w = default_window(grid17)
    a = np.full(w.count, 0.5)
    b = np.linspace(-2.0, 0.1, w.count)
    cover = extract_cover(np.array([a, b]), 0.5)
    np.testing.assert_array_equal(cover.value, np.maximum(0.5, np.abs(b)))
    assert cover.value.min() == 0.5
    assert cover.complete


def test_cover_extraction_labels_thresholds_and_ties(grid17):
    w = default_window(grid17)
    m = w.count
    half = m // 2
    a = np.zeros(m); a[:half] = 1.0; a[half:] = 0.1
    b = np.zeros(m); b[:half] = 0.05; b[half:] = -1.0
    fields = np.array([a, b])
    cover = extract_cover(fields, 0.5)
    assert cover.complete
    assert cover.threshold == 0.5
    np.testing.assert_array_equal(cover.label[:half], 1)
    np.testing.assert_array_equal(cover.label[half:], 2)
    # ties resolve to the lowest measurement index
    np.testing.assert_array_equal(extract_cover(np.ones((2, m)), 0.5).label, 1)
    # raising the threshold keeps the argmax labels but the cover is incomplete
    sparse = extract_cover(fields, 2.0)
    assert not sparse.complete
    np.testing.assert_array_equal(sparse.label, cover.label)
    for tau in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError):
            extract_cover(fields, tau)
    # no measurement at all, as rows or as a flat array, labels nothing
    for empty in (np.empty((0, m)), np.empty(0)):
        with pytest.raises(DomainError):
            extract_cover(empty, 0.5)


def test_save_cover_csv_round_trips_values_and_labels(grid17, tmp_path):
    w = default_window(grid17)
    m = w.count
    half = m // 2
    a = np.zeros(m); a[:half] = 1.0; a[half:] = 0.1
    b = np.zeros(m); b[:half] = 0.05; b[half:] = -1.0
    cover = extract_cover(np.array([a, b]), 0.5)
    path = tmp_path / "cover.csv"
    save_cover_csv(grid17, w, cover, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "value", "label"]
    assert len(rows) == m + 1
    ixs, iys = w.indices
    pointwise = np.maximum(np.abs(a), np.abs(b))
    for j in (0, half, m - 1):
        got = rows[1 + j]
        assert float(got[0]) == grid17.xs[ixs[j]]
        assert float(got[1]) == grid17.xs[iys[j]]
        assert float(got[2]) == pointwise[j]
        assert int(got[3]) == cover.label[j]
    # a labeling whose node count disagrees with the mask is rejected
    for bad in (CoverLabeling(label=cover.label[:-1], value=cover.value[:-1],
                              threshold=0.5, complete=True),
                CoverLabeling(label=cover.label, value=cover.value[:-1],
                              threshold=0.5, complete=True)):
        with pytest.raises(ConfigError):
            save_cover_csv(grid17, w, bad, tmp_path / "bad.csv")


def test_save_cover_csv_bytes_match_the_csv_module(tmp_path):
    g = build_grid(257)
    w = default_window(g)
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((3, w.count)) * 10.0 ** rng.integers(-300, 300, w.count)
    rows[:, :7] = [0.0, -0.0, 1e-5, 1e-4, 1e16, 1.0 / 3.0, -2.5e-300]
    cover = extract_cover(rows, 0.5)
    pointwise = np.abs(rows).max(axis=0)
    ixs, iys = w.indices
    ref = tmp_path / "reference.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "value", "label"])
        for j in range(pointwise.size):
            writer.writerow([repr(float(g.xs[ixs[j]])), repr(float(g.xs[iys[j]])),
                             repr(float(pointwise[j])), int(cover.label[j])])
    out = tmp_path / "cover.csv"
    save_cover_csv(g, w, cover, out)
    assert out.read_bytes() == ref.read_bytes()


def test_save_cover_csv_memory_grows_by_at_most_8_bytes_per_node(tmp_path, traced_memory):
    def peak(n):
        g = build_grid(n)
        w = default_window(g)
        cover = CoverLabeling(label=np.arange(w.count) % 7 + 1,
                              value=np.linspace(0.5, 2.0, w.count), threshold=0.5,
                              complete=True)
        path = tmp_path / f"cover{n}.csv"
        return traced_memory(lambda: save_cover_csv(g, w, cover, path))[0], w.count

    (small, m_small), (large, m_large) = peak(129), peak(513)
    assert large - small <= 8 * (m_large - m_small)
