"""Acceptance suite: one test (or clause) per criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Known red check: `test_criterion3_closed_form_tolerance`.  The Y-update is
first order with the one-step multiplier (1 + a h), so for the linear
benchmark the global error is e*h + O(h^2) = 0.0419 at h = 1/64, which is
above the 0.02 target; no variant of the update's inner iterations changes
the constant's size, and a second-order update would break the companion
halving check.  See README ("Known failing check").
"""

import math
import time

import numpy as np
import pytest

from abdsde.cli import run
from abdsde.comparison import run_comparison
from abdsde.condexp import RegressionBackend
from abdsde.delays import (affine_delay, constant_delay, DelaySpec,
                           segment_interval, validate_delay)
from abdsde.duality import duality_check, LinearDualityCoeffs, measurability_check
from abdsde.errors import Infeasible
from abdsde.generators import (audit_lipschitz, builtin_generator,
                               with_lipschitz)
from abdsde.grids import make_grid
from abdsde.paths import backward_integral, sample_paths
from abdsde.scenario import make_scenario
from abdsde.solver import (constant_initial, contraction_params,
                           default_initial, picard_iterate,
                           solve_backward_sweep, weighted_distance)
from abdsde.terminal import constant_terminal, TerminalSpec
from abdsde.tree import oracle_solve, tree_for_grid


def _report(tag: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance {tag}] {status}{suffix}")
    return ok


# -------------------------------------------------------------------- 1 ---

def test_criterion1_oracle_equivalence():
    start = time.time()
    grid = make_grid(0.6, 0.4, 0.2)  # 5 steps, 1024 atoms
    tree = tree_for_grid(grid)
    delay = DelaySpec(constant_delay(0.4), constant_delay(0.4))
    term = TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0})
    cases = [
        ("zero", {}),
        ("linear_bsde", {"a": 1.0, "rho": 1.0}),
        ("example41_f1", {}),
        ("example41_f2", {}),
        ("anticipated_drift", {}),  # delta = 2 grid steps
    ]
    worst = 0.0
    for name, params in cases:
        gen = builtin_generator(name, **params)
        scen = make_scenario(grid, gen, term,
                             delay=delay if gen.anticipates else None)
        sweep = solve_backward_sweep(scen, tree.ensemble, tree.backend())
        exact = oracle_solve(scen, tree)
        worst = max(worst,
                    float(np.abs(sweep.Y - exact.Y).max()),
                    float(np.abs(sweep.Z - exact.Z).max()))
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    assert _report("1 oracle equivalence", ok,
                   f"max diff {worst:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------------- 2 ---

def test_criterion2_contraction():
    start = time.time()
    grid = make_grid(0.75, 0.25, 0.25)  # 4-step tree
    tree = tree_for_grid(grid)
    gen = builtin_generator("example41_f1")
    audit = audit_lipschitz(gen, samples=2000, seed=11)
    assert audit.passed and abs(audit.observed_alpha1 - 1.0 / 3.0) < 1e-9
    delay = DelaySpec(constant_delay(0.25), constant_delay(0.25))
    scen = make_scenario(grid, gen,
                         TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0}),
                         delay=delay)
    params = contraction_params(gen.lip, scen.M)
    assert params.cbar == pytest.approx((1.0 + 1.0 / 3.0) / 2.0)

    tol = 1e-9
    sol0, log = picard_iterate(scen, tree.ensemble, tree.backend(), tol=tol,
                               init=constant_initial(scen, tree.ensemble, 0.0))
    ratios = [log[i + 1] / log[i] for i in range(1, len(log) - 1) if log[i] > 0]
    ratios_ok = all(r <= params.cbar + 0.05 for r in ratios)

    sol10, _ = picard_iterate(scen, tree.ensemble, tree.backend(), tol=tol,
                              init=constant_initial(scen, tree.ensemble, 10.0))
    dist = weighted_distance(sol0, sol10, params)
    elapsed = time.time() - start
    ok = ratios_ok and dist <= 10 * tol and elapsed < 30.0
    assert _report("2 contraction", ok,
                   f"cbar {params.cbar:.4f}, ratios {[f'{r:.2e}' for r in ratios]}, "
                   f"init gap {dist:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------------- 3 ---

def _linear_y0(h: float, P: int = 10**5) -> float:
    grid = make_grid(1.0, 0.0, h)
    scen = make_scenario(grid, builtin_generator("linear_bsde", a=1.0, rho=1.0),
                         constant_terminal(1.0))
    paths = sample_paths(grid, 1, 1, P, seed=7)
    sol = solve_backward_sweep(scen, paths, RegressionBackend())
    return float(sol.Y[:, 0, 0].mean())


def test_criterion3_closed_form_tolerance():
    # Known red: the first-order scheme error is e*h = 0.042 at h = 1/64.
    start = time.time()
    err = abs(_linear_y0(1.0 / 64) - (2 * math.e - 1))
    elapsed = time.time() - start
    ok = err <= 0.02 and elapsed < 120.0
    assert _report("3a closed-form value", ok,
                   f"|Y0 - (2e-1)| = {err:.4f} vs 0.02, {elapsed:.1f}s")


def test_criterion3_error_halves():
    start = time.time()
    err32 = abs(_linear_y0(1.0 / 32) - (2 * math.e - 1))
    err64 = abs(_linear_y0(1.0 / 64) - (2 * math.e - 1))
    ratio = err64 / err32
    elapsed = time.time() - start
    ok = 0.5 * 0.7 <= ratio <= 0.5 * 1.3 and elapsed < 120.0
    assert _report("3b error halving", ok,
                   f"ratio {ratio:.3f}, {elapsed:.1f}s")


# -------------------------------------------------------------------- 4 ---

def test_criterion4_anticipated_deterministic_value():
    start = time.time()
    grid = make_grid(1.0, 0.5, 1.0 / 64)
    gen = builtin_generator("anticipated_drift")
    delay = DelaySpec(constant_delay(0.5), constant_delay(0.5))
    scen = make_scenario(grid, gen, constant_terminal(1.0), delay=delay)
    paths = sample_paths(grid, 1, 1, 4096, seed=7)
    sol = solve_backward_sweep(scen, paths, RegressionBackend())
    err = abs(float(sol.Y[:, 0, 0].mean()) - 2.125)
    elapsed = time.time() - start
    ok = err <= 0.02 and elapsed < 60.0
    assert _report("4 anticipated deterministic", ok,
                   f"|Y0 - 2.125| = {err:.5f}, {elapsed:.1f}s")


# -------------------------------------------------------------------- 5 ---

def test_criterion5_segmentation():
    start = time.time()
    grid_a = make_grid(1.0, 0.4, 0.05)
    spec_a = validate_delay(
        DelaySpec(constant_delay(0.4), constant_delay(0.4)), grid_a)
    seg_a = segment_interval(spec_a, grid_a)
    const_ok = (seg_a.N == 3
                and np.allclose(seg_a.points, (1.0, 0.6, 0.2, 0.0), atol=1e-12))

    grid_b = make_grid(1.0, 1.0, 1.0 / 64)
    spec_b = validate_delay(
        DelaySpec(affine_delay(0.5, 0.5), affine_delay(0.5, 0.5)), grid_b)
    seg_b = segment_interval(spec_b, grid_b)
    affine_ok = (seg_b.N == 2
                 and abs(seg_b.points[1] - 1.0 / 3.0) <= grid_b.h
                 and seg_b.points[2] == 0.0)

    grid_c = make_grid(0.75, 0.25, 0.25)
    tree = tree_for_grid(grid_c)
    delay_c = DelaySpec(constant_delay(0.25), constant_delay(0.25))
    scen = make_scenario(grid_c, builtin_generator("example41_f1"),
                         TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0}),
                         delay=delay_c)
    glob = solve_backward_sweep(scen, tree.ensemble, tree.backend())
    # piece by piece: application i of the frozen-anticipation map settles
    # segment i, so N applications reproduce the global sweep
    segd = default_initial(scen, tree.ensemble)
    for _ in range(segment_interval(scen.delay, grid_c).N):
        segd = solve_backward_sweep(scen, tree.ensemble, tree.backend(), frozen=segd)
    equiv = float(np.abs(glob.Y - segd.Y).max())
    elapsed = time.time() - start
    ok = const_ok and affine_ok and equiv <= 1e-12 and elapsed < 5.0
    assert _report("5 segmentation", ok,
                   f"points {seg_a.points} / t1 {seg_b.points[1]:.5f}, "
                   f"segmented-global {equiv:.1e}, {elapsed:.1f}s")


# -------------------------------------------------------------------- 6 ---

def _example41_pair(grid):
    delay = DelaySpec(constant_delay(grid.K), constant_delay(grid.K))
    s1 = make_scenario(grid, builtin_generator("example41_f1"),
                       TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.5}),
                       delay=delay)
    s2 = make_scenario(grid, builtin_generator("example41_f2"),
                       TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0}),
                       delay=delay)
    return s1, s2


def test_criterion6_comparison():
    start = time.time()
    grid_t = make_grid(0.6, 0.4, 0.2)  # 5-step tree
    tree = tree_for_grid(grid_t)
    s1, s2 = _example41_pair(grid_t)
    tree_report = run_comparison(s1, s2, tree.ensemble, tree.backend(),
                                 epsilon=0.0)
    tree_ok = tree_report.min_margin.min() >= -1e-10

    grid_m = make_grid(0.5, 0.5, 1.0 / 32)
    m1, m2 = _example41_pair(grid_m)
    paths = sample_paths(grid_m, 1, 1, 10**4, seed=21)
    mc_report = run_comparison(m1, m2, paths, RegressionBackend())
    mc_ok = mc_report.epsilon > 0 and mc_report.violation_fraction() == 0.0
    elapsed = time.time() - start
    ok = tree_ok and mc_ok and elapsed < 120.0
    assert _report("6 comparison", ok,
                   f"tree min margin {tree_report.min_margin.min():.2e}, "
                   f"eps* {mc_report.epsilon:.4f}, "
                   f"v(eps*) {mc_report.violation_fraction():.4f}, {elapsed:.1f}s")


# -------------------------------------------------------------------- 7 ---

def test_criterion7_duality():
    start = time.time()
    rho_only = duality_check(
        LinearDualityCoeffs(rho=0.5, delta=0.25, t0=0.25,
                            terminal=TerminalSpec(name="constant",
                                                  params={"value": 2.0})),
        T=1.0, h=0.25, P=1024, n_outer=16, inner=64, seed=5)
    rho_ok = rho_only.max_residual <= 1e-12

    det = LinearDualityCoeffs(mu=0.2, mu_bar=0.1, delta=0.25, t0=0.25)
    rates = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        rep = duality_check(det, T=1.0, h=h, P=512, n_outer=8, inner=32, seed=5)
        rates.append(rep.mean_residual / h)
    det_ok = max(rates) / min(rates) < 1.3  # residual ~ C h, stable C

    stoch = LinearDualityCoeffs(mu=0.1, mu_bar=0.05, sigma=(0.1,),
                                sigma_bar=(0.0,), kappa=(0.1,), rho=0.2,
                                delta=0.25, t0=0.25)
    rep_s = duality_check(stoch, T=1.0, h=1 / 32, P=8192, n_outer=64,
                          inner=2048, seed=11)
    elapsed = time.time() - start
    ok = rho_ok and det_ok and rep_s.passed and elapsed < 180.0
    assert _report("7 duality", ok,
                   f"rho max {rho_only.max_residual:.1e}, C spread "
                   f"{max(rates) / min(rates):.3f}, stoch mean "
                   f"{rep_s.mean_residual:.4f} vs tol {rep_s.tol_mean:.4f}, "
                   f"{elapsed:.1f}s")


# -------------------------------------------------------------------- 8 ---

def test_criterion8_measurability():
    start = time.time()
    # exact tree: Z vanishes identically for the B-measurable scenario
    grid_t = make_grid(0.6, 0.2, 0.2)
    tree = tree_for_grid(grid_t)
    coeffs_t = LinearDualityCoeffs(mu=0.2, mu_bar=0.1, kappa=(0.2,), rho=0.1,
                                   delta=0.2, t0=0.2)
    sol_t = solve_backward_sweep(coeffs_t.scenario(grid_t), tree.ensemble,
                                 tree.backend())
    z_tree = float(np.abs(sol_t.Z[:, : grid_t.n_T]).max())
    tree_ok = z_tree == 0.0

    # Monte Carlo: the Z norm shrinks along a 3-level (h, P) ladder and the
    # finest level leaves at most 1e-3 of Y's variance unexplained by B
    coeffs = LinearDualityCoeffs(mu=0.1, mu_bar=0.05, sigma=(0.1,),
                                 kappa=(0.1,), rho=0.2, delta=0.25, t0=0.25)
    norms = []
    last = None
    for h, P in ((1 / 8, 4096), (1 / 16, 16384), (1 / 32, 65536)):
        grid = coeffs.grid_for(1.0, h)
        paths = sample_paths(grid, 1, 1, P, seed=42)
        sol = solve_backward_sweep(coeffs.scenario(grid), paths,
                                   RegressionBackend())
        last = measurability_check(sol, paths, grid.index_of(0.25))
        norms.append(last.z_norm)
    ladder_ok = norms[0] > norms[1] > norms[2]
    r2_ok = 1.0 - last.min_r2 <= 1e-3
    elapsed = time.time() - start
    ok = tree_ok and ladder_ok and r2_ok and elapsed < 120.0
    assert _report("8 measurability", ok,
                   f"tree max|Z| {z_tree:.1e}, ladder {[f'{n:.4f}' for n in norms]}, "
                   f"1-R2 {1.0 - last.min_r2:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------------- 9 ---

def test_criterion9_infrastructure(tmp_path):
    start = time.time()
    # byte-identical CSV on rerun
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(
        "grid: {T: 1.0, K: 0.0, h: 0.125}\n"
        "generator: {name: linear_bsde, params: {a: 1.0, rho: 1.0}}\n"
        "terminal: {name: constant, params: {value: 1.0}}\n"
        "paths: {count: 2048, seed: 7}\n")
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run("solve", str(scenario), out1) == 0
    assert run("solve", str(scenario), out2) == 0
    csv_ok = open(out1, "rb").read() == open(out2, "rb").read()

    # backward-integral closed form for G = B at h = 1/256 on 1e4 paths
    grid = make_grid(1.0, 0.0, 1.0 / 256)
    paths = sample_paths(grid, 1, 1, 10**4, seed=7)
    B = np.concatenate([np.zeros((10**4, 1, 1)), np.cumsum(paths.dB, axis=1)],
                       axis=1)
    bwd = backward_integral(B[:, :, :, None], paths, 0, grid.n_end)[:, 0]
    closed = 0.5 * (B[:, -1, 0] ** 2 + 1.0)
    integral_err = abs(float((bwd - closed).mean()))
    integral_ok = integral_err <= 1e-3

    # feasibility rejection, from metadata and from a scenario file
    with pytest.raises(Infeasible):
        contraction_params(
            with_lipschitz(builtin_generator("example41_f1"),
                           alpha1=0.7, alpha2=0.4).lip, M=1.0)
    bad = tmp_path / "infeasible.yaml"
    bad.write_text(
        "grid: {T: 1.0, K: 0.5, h: 0.25}\n"
        "delay: {delta: 0.5}\n"
        "generator: {name: example41_f1, lipschitz: {c: 10.0, alpha1: 0.7, alpha2: 0.4}}\n"
        "terminal: {name: constant, params: {value: 1.0}}\n")
    feasibility_ok = run("solve", str(bad), str(tmp_path / "x.csv")) == 2

    # audits pass for every builtin, and fail for the mis-declared control
    builtins = [
        ("zero", {}), ("constant_rho", {"rho": 2.0}),
        ("linear_bsde", {"a": 1.0, "rho": 1.0}), ("anticipated_drift", {}),
        ("example41_f1", {}), ("example41_f2", {}), ("example41_g", {}),
        ("example42_f1", {}), ("example42_ftilde", {}), ("example42_f2", {}),
        ("duality_linear", {"mu": 0.1, "mu_bar": 0.05, "sigma": [0.1],
                            "sigma_bar": [0.0], "kappa": [0.1], "rho": 0.2}),
    ]
    audits_ok = all(
        audit_lipschitz(builtin_generator(name, **params), 2000, seed=11).passed
        for name, params in builtins)
    control = with_lipschitz(builtin_generator("linear_bsde", a=1.0, rho=1.0),
                             c=0.25)
    control_ok = not audit_lipschitz(control, 2000, seed=11).passed

    elapsed = time.time() - start
    ok = (csv_ok and integral_ok and feasibility_ok and audits_ok
          and control_ok and elapsed < 60.0)
    assert _report("9 infrastructure", ok,
                   f"csv {csv_ok}, integral err {integral_err:.2e}, "
                   f"audits {audits_ok}/{control_ok}, {elapsed:.1f}s")
