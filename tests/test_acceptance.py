"""Acceptance battery.

Each test prints exactly one line, "ACCEPTANCE <k> <name>: PASS" or
"... FAIL", and enforces the corresponding tolerance with asserts.
Random studies pin their master seeds, so outcomes are reproducible.
"""

import time

import numpy as np
import pytest

from randbc.boundary import RandomBoundaryModel
from randbc.cli import run as cli_run
from randbc.constraints import ConstraintMap, det, feature_rows, restrict, witness_check
from randbc.experiments import (TrialConfig, success_curve, tail_check,
                                variance_identity_check)
from randbc.grid import build_grid, default_window, disk_mask
from randbc.inverse import (conductivity_forward, conductivity_reconstruct,
                            qpat_forward, qpat_reconstruct_multi)
from randbc.runge import approximate, make_target, tradeoff_curve
from randbc.solver import CoefficientField, assemble, solve_dirichlet
from randbc.streams import derive_rng


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"acceptance {num} {name}: {detail}"


@pytest.fixture(scope="module")
def curves33(grid33, ident33):
    """Success curves for the three coefficient families, shared by 5 and 6."""
    out = {}
    for family in ("gaussian", "rademacher", "uniform"):
        model = RandomBoundaryModel.power_law(K=33, c=1.0, s=1.5, family=family)
        cfg = TrialConfig(grid=grid33, coeff=ident33, model=model,
                          cmap=ConstraintMap("critical"), N=16)
        out[family] = success_curve(cfg, [1, 2, 4, 8, 16], M=200,
                                    tau="auto", master_seed=0)
    return out


def test_acceptance_01_solver_convergence():
    errs = {}
    elapsed = None
    for n in (33, 65):
        g = build_grid(n)
        op = assemble(g, CoefficientField.isotropic(g))
        u_ex = np.sin(np.pi * g.X) * np.sinh(np.pi * g.Y) / np.sinh(np.pi)
        t0 = time.perf_counter()
        u = solve_dirichlet(op, g.boundary_values(u_ex))
        if n == 65:
            elapsed = time.perf_counter() - t0
        errs[n] = np.abs(u - u_ex).max()
    ratio = errs[33] / errs[65]
    ok = 3.5 <= ratio <= 4.5 and elapsed <= 2.0
    report(1, "solver-convergence", ok,
           f"error ratio {ratio:.3f}, fine solve {elapsed * 1e3:.1f} ms")


def test_acceptance_02_witness_identities(grid65):
    w = default_window(grid65)
    vals = {kind: witness_check(ConstraintMap(kind), grid65, w)
            for kind in ("nodal", "critical", "jacobian", "augmented")}
    ok = all(abs(v - 1.0) <= 1e-12 for v in vals.values())
    report(2, "witness-identities", ok,
           ", ".join(f"{k}={v:.15f}" for k, v in vals.items()))


def test_acceptance_03_multilinearity_antisymmetry(grid17):
    g = grid17
    rng = derive_rng(2024, 3)

    ix, iy = np.indices(g.X.shape).reshape(2, -1)

    def zeta(kind, fields):
        return det(feature_rows(ConstraintMap(kind), *restrict(g, fields, ix, iy)))

    worst = 0.0
    swaps_exact = True
    arity = {"nodal": 1, "critical": 1, "jacobian": 2, "augmented": 3}
    for _ in range(100):
        pool = [rng.standard_normal(g.X.shape) for _ in range(4)]
        al, be = rng.standard_normal(2)
        for kind, m in arity.items():
            head = pool[:m - 1]
            v, w = pool[-2], pool[-1]
            lhs = zeta(kind, head + [al * v + be * w])
            rhs = al * zeta(kind, head + [v]) + be * zeta(kind, head + [w])
            scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-30)
            worst = max(worst, np.abs(lhs - rhs).max() / scale)
        base3 = zeta("jacobian", pool[:2])
        if not np.array_equal(zeta("jacobian", [pool[1], pool[0]]), -base3):
            swaps_exact = False
        base4 = zeta("augmented", pool[:3])
        for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
            if not np.array_equal(zeta("augmented", [pool[i] for i in perm]),
                                  -base4):
                swaps_exact = False
    ok = worst <= 1e-12 and swaps_exact
    report(3, "multilinearity-antisymmetry", ok,
           f"worst linearity defect {worst:.2e}, transposition flips exact: "
           f"{swaps_exact}")


def test_acceptance_04_variance_identity(grid33, ident33):
    t0 = time.perf_counter()
    model = RandomBoundaryModel.power_law(K=17, c=1.0, s=1.5, family="gaussian")
    zs = []
    for kind in ("nodal", "critical"):
        cfg = TrialConfig(grid=grid33, coeff=ident33, model=model,
                          cmap=ConstraintMap(kind), N=1)
        rows = variance_identity_check(cfg, M=10000, master_seed=0)
        zs.extend(abs(r.z) for r in rows)
    elapsed = time.perf_counter() - t0
    passing = sum(z <= 5.0 for z in zs)
    ok = passing >= 0.95 * len(zs) and elapsed <= 300.0
    report(4, "variance-identity", ok,
           f"{passing}/{len(zs)} cells with |z|<=5, max |z| {max(zs):.2f}, "
           f"{elapsed:.2f} s")


def test_acceptance_05_success_curve_families(curves33):
    t0 = time.perf_counter()
    ga = curves33["gaussian"]
    nested = all(np.all(np.diff(c.min_max, axis=1) >= 0.0)
                 for c in curves33.values())
    row16 = ga.rows[-1]
    rate_ok = row16.rate >= 0.95
    # family agreement is asserted in the success regime N in {8, 16};
    # bounded-coefficient laws provably stay below any calibrated
    # threshold at N = 1, so small-N intervals cannot be compared
    overlap_ok = True
    for j in (-2, -1):
        los = [c.rows[j].lo95 for c in curves33.values()]
        his = [c.rows[j].hi95 for c in curves33.values()]
        overlap_ok = overlap_ok and (max(los) <= min(his))
    elapsed = time.perf_counter() - t0
    ok = nested and rate_ok and overlap_ok and elapsed <= 600.0
    report(5, "success-curve-families", ok,
           f"nested exact: {nested}; gaussian N=16 rate {row16.rate:.3f} in "
           f"[{row16.lo95:.3f}, {row16.hi95:.3f}]; N=8/16 intervals overlap: "
           f"{overlap_ok}")


def test_acceptance_06_cover_completeness(curves33):
    frac = {fam: c.cover_complete_count / c.M for fam, c in curves33.items()}
    ok = all(f >= 0.95 for f in frac.values())
    report(6, "cover-completeness", ok,
           ", ".join(f"{fam} {f:.3f}" for fam, f in frac.items()))


def test_acceptance_07_reachable_target(grid65, dict65):
    disk = disk_mask(grid65, (0.5, 0.5), 0.2)
    target = make_target("dictionary_member", grid65, disk,
                         dictionary=dict65, index=1)
    res = approximate(target, dict65, lam=1e-12)
    ok = res.eps_achieved <= 1e-6
    report(7, "reachable-target", ok,
           f"eps_achieved {res.eps_achieved:.2e} at lambda=1e-12")


def test_acceptance_08_tradeoff_curve(grid65, dict65):
    disk = disk_mask(grid65, (0.5, 0.5), 0.2)
    target = make_target("fundamental_solution", grid65, disk, pole=(0.9, 0.9))
    lams = [10.0 ** -p for p in range(2, 11)]
    curve = tradeoff_curve(target, dict65, lams)
    eps = [r.eps_achieved for r in curve]
    cost = [r.boundary_cost for r in curve]
    ok = (len(curve) >= 6 and eps[-1] < eps[0] and cost[-1] > cost[0])
    report(8, "approximation-tradeoff", ok,
           f"{len(curve)} points; eps {eps[0]:.3e} -> {eps[-1]:.3e}, "
           f"cost {cost[0]:.3e} -> {cost[-1]:.3e}")


def test_acceptance_09_absorption_round_trip():
    g = build_grid(129)
    mu = 1.0 + 0.5 * np.exp(-50.0 * ((g.X - 0.5) ** 2 + (g.Y - 0.5) ** 2))
    [data] = qpat_forward(g, mu, [np.ones(g.boundary_s.shape[0])])
    res = qpat_reconstruct_multi(g, [data], tau=0.1)
    w = default_window(g)
    covered = bool(np.all(res.mask_valid[w.member]))
    err = res.mu_hat[res.mask_valid] - mu[res.mask_valid]
    rel = np.linalg.norm(err) / np.linalg.norm(mu[res.mask_valid])
    ok = covered and rel <= 0.02
    report(9, "absorption-round-trip", ok,
           f"rel L2 error {rel:.2e}, window covered: {covered}")


def test_acceptance_10_conductivity_round_trip():
    g = build_grid(129)
    a = np.exp(g.X)
    data = conductivity_forward(g, a)
    res = conductivity_reconstruct(data, tau=1e-3)
    w = default_window(g)
    frac = float(res.region[w.member].mean())
    sel = res.region & w.member
    rel = (np.linalg.norm(res.log_a_hat[sel] - g.X[sel])
           / np.linalg.norm(g.X[sel]))
    ok = frac >= 0.99 and rel <= 0.05
    report(10, "conductivity-round-trip", ok,
           f"region covers {frac:.3f} of window, rel L2 log error {rel:.2e}")


def test_acceptance_11_tail_dominance():
    stats = {}
    for family in ("gaussian", "rademacher", "uniform"):
        model = RandomBoundaryModel.power_law(K=33, c=1.0, s=1.5, family=family)
        rep = tail_check(model, M=10000, master_seed=0)
        stats[family] = (rep.c1_hat, rep.dominated)
    ok = all(c > 0.0 and dom for c, dom in stats.values())
    report(11, "tail-dominance", ok,
           ", ".join(f"{fam} c1={c:.3f} dominated={dom}"
                     for fam, (c, dom) in stats.items()))


def test_acceptance_12_deterministic_reruns(tmp_path):
    base = tmp_path / "base"
    args = ["constraint-experiment", "--set", "grid.n=33", "--set", "bc.K=17",
            "--set", "N_list=1,2,4", "--set", "M=60", "--seed", "11"]
    rc0 = cli_run(args + ["--out", str(base), "--threads", "1"])
    rerun = tmp_path / "rerun"
    rc1 = cli_run(["constraint-experiment", "--config",
                   str(base / "manifest.json"), "--out", str(rerun),
                   "--threads", "8"])
    same = all((base / n).read_bytes() == (rerun / n).read_bytes()
               for n in ("success_curve.csv", "cover_summary.csv"))
    ok = rc0 == 0 and rc1 == 0 and same
    report(12, "deterministic-reruns", ok,
           f"byte-identical CSVs across 1 and 8 workers: {same}")
