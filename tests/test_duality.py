import os
import sys
import threading

import numpy as np
import pytest

import abdsde.paths
from abdsde.condexp import RegressionBackend
from abdsde.duality import (_bracket, duality_check, duality_rhs,
                            LinearDualityCoeffs, measurability_check,
                            solve_delayed_dsde)
from abdsde.errors import NonFinite, ValidationError
from abdsde.paths import sample_paths
from abdsde.solver import solve_backward_sweep
from abdsde.terminal import TerminalSpec


def test_coeffs_require_start_after_delay():
    with pytest.raises(ValidationError):
        LinearDualityCoeffs(delta=0.5, t0=0.25)


def test_profiles_reject_path_reading_terminals():
    coeffs = LinearDualityCoeffs(
        terminal=TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0}))
    with pytest.raises(ValidationError):
        coeffs.profiles(coeffs.grid_for(1.0, 0.25))


def test_delayed_path_boundary_conditions_exact():
    coeffs = LinearDualityCoeffs(mu=0.3, mu_bar=0.2, sigma=(0.2,),
                                 kappa=(0.1,), delta=0.25, t0=0.5)
    grid = coeffs.grid_for(1.0, 0.125)
    paths = sample_paths(grid, 1, 1, 256, seed=1)
    k0 = grid.index_of(0.5)
    X = solve_delayed_dsde(coeffs, paths, k0)
    assert np.all(X[:, :k0] == 0.0)
    assert np.all(X[:, k0] == 1.0)


def test_delayed_deterministic_exponential_first_order():
    errs = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        coeffs = LinearDualityCoeffs(mu=0.8, delta=0.25, t0=0.25)
        grid = coeffs.grid_for(1.0, h)
        paths = sample_paths(grid, 1, 1, 8, seed=2)
        X = solve_delayed_dsde(coeffs, paths, grid.index_of(0.25))
        got = X[0, grid.n_T]
        errs.append(abs(got - np.exp(0.8 * 0.75)))
    assert errs[-1] < 0.02
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    assert all(0.3 < r < 0.7 for r in ratios)  # order-1 convergence


def test_delayed_stochastic_exponential_is_mean_one():
    coeffs = LinearDualityCoeffs(sigma=(0.4,), delta=0.25, t0=0.25)
    grid = coeffs.grid_for(1.0, 1 / 16)
    paths = sample_paths(grid, 1, 1, 10**5, seed=3)
    X = solve_delayed_dsde(coeffs, paths, grid.index_of(0.25))
    terminal = X[:, grid.n_T]
    stderr = terminal.std(ddof=1) / np.sqrt(len(terminal))
    assert abs(terminal.mean() - 1.0) < 5 * stderr


def test_rho_only_duality_exact():
    coeffs = LinearDualityCoeffs(rho=0.5, delta=0.25, t0=0.25,
                                 terminal=TerminalSpec(name="constant",
                                                       params={"value": 2.0}))
    report = duality_check(coeffs, T=1.0, h=0.25, P=512, n_outer=8,
                           inner=16, seed=5)
    assert report.max_residual <= 1e-12
    assert report.passed


def test_deterministic_duality_first_order_with_stable_constant():
    ratios = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        coeffs = LinearDualityCoeffs(mu=0.2, mu_bar=0.1, delta=0.25, t0=0.25)
        report = duality_check(coeffs, T=1.0, h=h, P=256, n_outer=4,
                               inner=8, seed=5)
        assert report.passed
        ratios.append(report.mean_residual / h)
    assert max(ratios) / min(ratios) < 1.3  # residual ~ C h with stable C


def _anticipated_ode_reference(mu, mu_bar, delta, T, t_eval, n=200000):
    # third route: fine-grid backward integration of the deterministic
    # anticipated equation -Y'(t) = mu Y(t) + mu_bar Y(t + delta), Y = 1
    # at and beyond the horizon
    hh = (T + delta) / n
    n_T = round(T / hh)
    n_d = round(delta / hh)
    Y = np.ones(n + 1)
    for k in range(n_T - 1, -1, -1):
        Y[k] = Y[k + 1] + hh * (mu * Y[k + 1] + mu_bar * Y[k + n_d])
    return float(Y[round(t_eval / hh)])


def test_both_duality_sides_converge_to_the_ode_reference():
    coeffs = LinearDualityCoeffs(mu=0.2, mu_bar=0.1, delta=0.25, t0=0.25)
    reference = _anticipated_ode_reference(0.2, 0.1, 0.25, 1.0, 0.25)
    errs_solver, errs_rhs = [], []
    for h in (1 / 32, 1 / 64):
        rep = duality_check(coeffs, T=1.0, h=h, P=128, n_outer=4, inner=4,
                            seed=5, tol_mean=1.0)
        errs_solver.append(abs(float(rep.y_t0[0]) - reference))
        errs_rhs.append(abs(float(rep.rhs[0]) - reference))
        assert errs_solver[-1] <= 2 * h * 0.05
        assert errs_rhs[-1] <= 2 * h * 0.05
    assert errs_solver[1] < errs_solver[0]
    assert errs_rhs[1] < errs_rhs[0]


def test_stochastic_residual_ladder_trends_to_zero():
    coeffs = LinearDualityCoeffs(mu=0.1, mu_bar=0.05, sigma=(0.1,),
                                 kappa=(0.1,), rho=0.2, delta=0.25, t0=0.25)
    residuals = []
    for h, P, inner in ((1 / 8, 1024, 128), (1 / 16, 4096, 512),
                        (1 / 32, 16384, 2048)):
        rep = duality_check(coeffs, T=1.0, h=h, P=P, n_outer=16, inner=inner,
                            seed=31, tol_mean=1.0)
        residuals.append(rep.mean_residual)
    assert residuals[0] > residuals[1] > residuals[2]


def test_stochastic_duality_self_calibrated():
    coeffs = LinearDualityCoeffs(mu=0.1, mu_bar=0.05, sigma=(0.1,),
                                 sigma_bar=(0.0,), kappa=(0.1,), rho=0.2,
                                 delta=0.25, t0=0.25)
    report = duality_check(coeffs, T=1.0, h=1 / 32, P=2048, n_outer=12,
                           inner=256, seed=11)
    assert report.passed, (report.mean_residual, report.tol_mean)


def test_rhs_estimates_concentrate_with_inner_paths():
    # the representation conditions on the B-future only: inner averaging
    # over W must concentrate, so the inner standard error shrinks
    coeffs = LinearDualityCoeffs(mu=0.1, sigma=(0.3,), kappa=(0.1,), rho=0.1,
                                 delta=0.25, t0=0.25)
    grid = coeffs.grid_for(1.0, 1 / 16)
    outer = sample_paths(grid, 1, 1, 4, seed=7)
    k0 = grid.index_of(0.25)
    _, se_small = duality_rhs(coeffs, outer.dB, grid, k0, inner=64, seed=(1,))
    _, se_large = duality_rhs(coeffs, outer.dB, grid, k0, inner=1024, seed=(2,))
    assert se_large.mean() < 0.5 * se_small.mean()


def test_measurability_deterministic_case():
    coeffs = LinearDualityCoeffs(mu=0.2, mu_bar=0.1, rho=0.3,
                                 delta=0.25, t0=0.25)
    grid = coeffs.grid_for(1.0, 1 / 8)
    paths = sample_paths(grid, 1, 1, 512, seed=9)
    sol = solve_backward_sweep(coeffs.scenario(grid), paths, RegressionBackend())
    report = measurability_check(sol, paths, grid.index_of(0.25))
    assert report.z_norm <= 1e-10
    assert report.min_r2 == 1.0
    assert report.passed


def test_z_norm_shrinks_along_refinement_ladder():
    coeffs = LinearDualityCoeffs(mu=0.1, mu_bar=0.05, sigma=(0.1,),
                                 kappa=(0.1,), rho=0.2, delta=0.25, t0=0.25)
    norms = []
    for h, P in ((1 / 4, 1024), (1 / 8, 4096), (1 / 16, 16384)):
        grid = coeffs.grid_for(1.0, h)
        paths = sample_paths(grid, 1, 1, P, seed=42)
        sol = solve_backward_sweep(coeffs.scenario(grid), paths,
                                   RegressionBackend())
        norms.append(measurability_check(sol, paths, grid.index_of(0.25)).z_norm)
    assert norms[0] > norms[1] > norms[2]


def test_duality_with_delayed_diffusion_and_eta_terminal():
    # sigma_bar couples X to its own past through dW, and the nonzero eta
    # profile activates the eta-weighted part of the terminal integral
    coeffs = LinearDualityCoeffs(
        mu=0.1, mu_bar=0.05, sigma=(0.1,), sigma_bar=(0.08,), kappa=(0.0,),
        rho=0.1, delta=0.25, t0=0.25,
        terminal=TerminalSpec(name="affine",
                              params={"value": 1.0, "slope": 0.4, "eta": 0.3}))
    report = duality_check(coeffs, T=1.0, h=1 / 16, P=2048, n_outer=12,
                           inner=256, seed=17)
    assert report.passed, (report.mean_residual, report.tol_mean)


def test_tree_duality_exact_for_scalar_drift_families():
    # on the exact tree the representation is an algebraic identity for the
    # proportional-drift and pure-source cases (the delayed/anticipated
    # cross terms are only first-order consistent, so they are excluded)
    from abdsde.duality import duality_rhs
    from abdsde.tree import tree_for_grid

    for kwargs in ({"mu": 0.4}, {"rho": 0.7}):
        coeffs = LinearDualityCoeffs(delta=0.25, t0=0.25, **kwargs)
        grid = coeffs.grid_for(0.75, 0.25)
        tree = tree_for_grid(grid)
        sol = solve_backward_sweep(coeffs.scenario(grid), tree.ensemble,
                                   tree.backend())
        k0 = grid.index_of(0.25)
        outer = tree.ensemble.dB[:5]
        rhs, _ = duality_rhs(coeffs, outer, grid, k0, inner=2, seed=(8,))
        resid = np.abs(sol.Y[:5, k0, 0] - rhs)
        assert resid.max() <= 1e-9


def test_duality_rhs_is_b_measurable_in_the_limit():
    # two independent inner batches on the same outer B-path must agree
    # up to inner Monte Carlo error
    coeffs = LinearDualityCoeffs(mu=0.1, sigma=(0.2,), kappa=(0.1,), rho=0.1,
                                 delta=0.25, t0=0.25)
    grid = coeffs.grid_for(1.0, 1 / 16)
    outer = sample_paths(grid, 1, 1, 3, seed=13)
    k0 = grid.index_of(0.25)
    est_a, se_a = duality_rhs(coeffs, outer.dB, grid, k0, inner=2048, seed=(3,))
    est_b, se_b = duality_rhs(coeffs, outer.dB, grid, k0, inner=2048, seed=(4,))
    assert np.all(np.abs(est_a - est_b) < 5 * (se_a + se_b))


@pytest.mark.parametrize("n_outer,inner", [(0, 8), (4, 0)])
def test_duality_check_needs_outer_and_inner_paths(n_outer, inner):
    coeffs = LinearDualityCoeffs(mu=0.2, delta=0.25, t0=0.25)
    with pytest.raises(ValidationError, match="n_outer >= 1 and inner >= 1"):
        duality_check(coeffs, T=1.0, h=0.125, P=256, n_outer=n_outer,
                      inner=inner, seed=5)


def test_calibration_without_a_fitting_grid_raises_unless_it_passes():
    # t0 = 0.375 with delta = 0.25 fits no grid coarser than h = 0.125, so
    # C is unknown; the residuals exceed tol_mean without it
    coeffs = LinearDualityCoeffs(mu=0.2, mu_bar=0.1, delta=0.25, t0=0.375)
    with pytest.raises(ValidationError, match="tried h = 0.25, 0.5"):
        duality_check(coeffs, T=1.0, h=0.125, P=256, n_outer=4, inner=8, seed=5)
    coeffs = LinearDualityCoeffs(mu=0.2, mu_bar=0.1, delta=0.25, t0=0.25)
    report = duality_check(coeffs, T=1.0, h=0.125, P=256, n_outer=4, inner=8,
                           seed=5)
    assert report.rate_constant > 0.0 and report.passed


def _serial_rhs(coeffs, outer_dB, grid, k0, inner, seed):
    # one full (inner, n_steps, d + l) draw per outer path, its B half
    # overwritten by the outer path's
    est, stderr = [], []
    for j, dB in enumerate(outer_dB):
        paths = sample_paths(grid, coeffs.d, coeffs.l, inner, seed + (j,))
        paths.dB[:] = dB
        vals = _bracket(coeffs, solve_delayed_dsde(coeffs, paths, k0), grid, k0)
        est.append(vals.mean())
        stderr.append(vals.std(ddof=1) / np.sqrt(inner))
    return np.array(est), np.array(stderr)


@pytest.mark.parametrize("d,l", [(1, 1), (2, 1), (2, 2)])
def test_duality_rhs_bits_do_not_depend_on_the_work_split(monkeypatch, d, l):
    coeffs = LinearDualityCoeffs(mu=0.1, mu_bar=0.05, sigma=(0.1,) * d,
                                 sigma_bar=(0.07,) * d, kappa=(0.1, 0.13)[:l],
                                 rho=0.2, delta=0.25, t0=0.25)
    grid = coeffs.grid_for(1.0, 1 / 16)
    k0 = grid.index_of(0.25)
    outer = sample_paths(grid, d, l, 5, seed=3).dB
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches than cores: 3 workers
    try:
        for workers, rows in ((1, 4096), (2, 1000), (3, 1000)):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=workers: set(range(n)))
            monkeypatch.setattr(abdsde.paths, "_DRAW_ROWS", rows)
            runs.append(duality_rhs(coeffs, outer, grid, k0, 2500, (9,)))
    finally:
        sys.setswitchinterval(interval)
    for est, stderr in runs[1:]:
        assert np.array_equal(est, runs[0][0])
        assert np.array_equal(stderr, runs[0][1])
    if l == 1:
        # with l > 1, OpenBLAS's (P, l) @ (l,) product in the serial route
        # need not give equal rows equal bits
        est, stderr = _serial_rhs(coeffs, outer, grid, k0, 2500, (9,))
        assert np.array_equal(est, runs[0][0])
        assert np.array_equal(stderr, runs[0][1])


def test_a_worker_failure_surfaces_as_non_finite():
    # kappa = 1 / dB of outer path 0 at node 4: 1 - kappa dB_4 vanishes there
    # in the inner forward solve, while the backward solve stays finite
    grid = LinearDualityCoeffs().grid_for(1.0, 1 / 8)
    dB = sample_paths(grid, 1, 1, 256, seed=5).dB
    coeffs = LinearDualityCoeffs(mu=0.1, kappa=(1.0 / dB[0, 4, 0],),
                                 delta=0.25, t0=0.25)
    threads = threading.active_count()
    with pytest.raises(NonFinite, match="degenerate at node 4"):
        duality_rhs(coeffs, dB[:4], grid, grid.index_of(0.25), 8, (1,))
    with pytest.raises(NonFinite, match="degenerate at node 4"):
        duality_check(coeffs, T=1.0, h=1 / 8, P=256, n_outer=4, inner=8,
                      seed=5, tol_mean=1.0)
    assert threading.active_count() == threads
