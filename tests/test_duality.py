import inspect
import os
import sys
import threading

import numpy as np
import pytest

import abdsde.duality
import abdsde.paths
from abdsde.condexp import RegressionBackend, RegressionBasis
from abdsde.duality import (_bracket, _denominators, _forward, duality_check,
                            duality_rhs, LinearDualityCoeffs,
                            measurability_check, solve_delayed_dsde)
from abdsde.errors import NonCommensurate, NonFinite, ValidationError
from abdsde.paths import PathEnsemble, sample_paths
from abdsde.solver import solve_backward_sweep
from abdsde.terminal import TerminalSpec
from abdsde.tree import tree_for_grid
from tree_helpers import stacked_steps


def test_coeffs_require_start_after_delay():
    with pytest.raises(ValidationError):
        LinearDualityCoeffs(delta=0.5, t0=0.25)


@pytest.mark.parametrize("delta,t0", [(float("nan"), 0.25), (0.25, float("nan"))],
                         ids=["nan_delta", "nan_t0"])
def test_coeffs_reject_a_nan_delay_or_start(delta, t0):
    # a NaN delta used to be accepted and solved on a K = 0 grid, and
    # duality_check reported PASS there
    with pytest.raises(ValidationError, match="need t0 >= delta > 0"):
        LinearDualityCoeffs(mu=0.1, mu_bar=0.05, sigma=(0.1,), kappa=(0.1,),
                            rho=0.2, delta=delta, t0=t0)


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
        rep = duality_check(coeffs, T=1.0, h=h, P=128, n_outer=4, inner=4, seed=5)
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
        rep = duality_check(coeffs, T=1.0, h=h, P=P, n_outer=16, inner=inner, seed=31)
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
        sol = solve_backward_sweep(coeffs.scenario(grid), tree,
                                   tree.backend())
        k0 = grid.index_of(0.25)
        outer = stacked_steps(tree)[1][:5]
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


def test_duality_check_needs_no_more_outer_paths_than_paths():
    coeffs = LinearDualityCoeffs(mu=0.2, delta=0.25, t0=0.25)
    with pytest.raises(ValidationError, match="n_outer = 300 exceeds the path count P = 256"):
        duality_check(coeffs, T=1.0, h=0.125, P=256, n_outer=300, inner=8, seed=5)


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


def test_a_start_off_the_run_grid_raises_before_any_draw(monkeypatch):
    # t0 = 0.3 is no node of the h = 1/8 grid: the run's grid is checked
    # before its pass draws, and no calibration grid is tried
    draws = []
    monkeypatch.setattr(abdsde.duality, "sample_paths",
                        lambda *args, **kwargs: draws.append(args))
    coeffs = LinearDualityCoeffs(mu=0.2, delta=0.25, t0=0.3)
    with pytest.raises(NonCommensurate, match="time=0.3"):
        duality_check(coeffs, T=1.0, h=1 / 8, P=256, n_outer=4, inner=8, seed=5)
    assert draws == []


def _serial_rhs(coeffs, outer_dB, grid, k0, inner, seed):
    # per outer path, one direct Philox draw of the W-increments on the
    # forward steps k0..n_T - 1, in an ensemble whose B-paths are all the
    # outer path's; W on the other steps is NaN, so a read of it would raise
    est, stderr = [], []
    for j, dB in enumerate(outer_dB):
        key = np.random.SeedSequence(seed + (j,))
        rng = np.random.Generator(np.random.Philox(seed=key))
        dW = np.full((inner, grid.n_steps, coeffs.d), np.nan)
        dW[:, k0:grid.n_T] = rng.standard_normal(
            (inner, grid.n_T - k0, coeffs.d)) * np.sqrt(grid.h)
        paths = PathEnsemble(grid=grid, dW=dW,
                             dB=np.repeat(dB[None], inner, axis=0))
        vals = _bracket(coeffs, solve_delayed_dsde(coeffs, paths, k0).T, grid, k0)
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
    est, stderr = _serial_rhs(coeffs, outer, grid, k0, 2500, (9,))
    assert np.array_equal(est, runs[0][0])
    assert np.array_equal(stderr, runs[0][1])


@pytest.mark.parametrize("d,l", [(1, 1), (2, 2)])
def test_duality_rhs_is_unbiased_for_the_noise_free_forward_solve(d, l):
    # each Euler step is linear in X and its noise term has zero mean given
    # B, so E[X_k | B] is the solve with dW = 0, and _bracket is linear:
    # every estimate lies within 4 inner stderrs of the bracket of that solve
    coeffs = LinearDualityCoeffs(
        mu=0.1, mu_bar=0.05, sigma=(0.3, 0.2)[:d], sigma_bar=(0.15, 0.1)[:d],
        kappa=(0.1, 0.13)[:l], rho=0.2, delta=0.25, t0=0.25)
    grid = coeffs.grid_for(1.0, 1 / 16)
    k0 = grid.index_of(0.25)
    outer = sample_paths(grid, d, l, 4, seed=17).dB
    est, stderr = duality_rhs(coeffs, outer, grid, k0, 4096, (23,))
    no_noise = np.zeros((1, grid.n_T - k0, d))
    for j, dB in enumerate(outer):
        denom = _denominators(coeffs, dB, grid, k0)
        mean = _bracket(coeffs, _forward(coeffs, no_noise, denom, grid, k0),
                        grid, k0)[0]
        assert stderr[j] > 0.0
        assert abs(est[j] - mean) <= 4.0 * stderr[j], (j, est[j], mean, stderr[j])


def test_duality_rhs_draws_only_w_on_the_forward_steps(monkeypatch):
    # an inner path reads W on steps k0..n_T - 1 and the outer path's B, so
    # one call draws n_outer * inner * (n_T - k0) * d normals and no more
    shapes = []
    draw = abdsde.paths.increment_blocks

    def recording(P, shape, h, seed):
        for start, block in draw(P, shape, h, seed):
            shapes.append(block.shape)
            yield start, block

    # sample_paths looks the name up in abdsde.paths: a return to a full
    # (n_steps, d + l) draw through it is recorded too
    monkeypatch.setattr(abdsde.paths, "increment_blocks", recording)
    monkeypatch.setattr(abdsde.duality, "increment_blocks", recording)
    d, l, n_outer, inner = 2, 2, 3, 5000  # inner is not a multiple of the rows
    coeffs = LinearDualityCoeffs(mu=0.1, sigma=(0.1, 0.2), sigma_bar=(0.0, 0.0),
                                 kappa=(0.1, 0.13), delta=0.25, t0=0.5)
    grid = coeffs.grid_for(1.0, 1 / 16)
    k0 = grid.index_of(0.5)
    outer = sample_paths(grid, d, l, n_outer, seed=3).dB
    shapes.clear()
    duality_rhs(coeffs, outer, grid, k0, inner, (9,))
    assert {shape[1:] for shape in shapes} == {(grid.n_T - k0, d)}
    assert sum(np.prod(shape) for shape in shapes) \
        == n_outer * inner * (grid.n_T - k0) * d


def _row_major_forward(coeffs, paths, k0):
    # the Euler steps written path-major with a temporary per term, the
    # reference for the bits of the node-major kernel; 1 - kappa dB_k sums
    # over l left to right
    grid = paths.grid
    dd = grid.index_of(coeffs.delta)
    sigma = np.asarray(coeffs.sigma)
    sigma_bar = np.asarray(coeffs.sigma_bar)
    X = np.zeros((paths.n_paths, grid.n_T + 1))
    X[:, k0] = 1.0
    for k in range(k0, grid.n_T):
        x = X[:, k]
        x_del = X[:, k - dd]
        drift = (coeffs.mu * x + coeffs.mu_bar * x_del) * grid.h
        diff_w = (x[:, None] * sigma[None, :]
                  + x_del[:, None] * sigma_bar[None, :])
        dot = paths.dB[:, k, 0] * coeffs.kappa[0]
        for i in range(1, coeffs.l):
            dot = dot + paths.dB[:, k, i] * coeffs.kappa[i]
        X[:, k + 1] = (x + drift + np.einsum("pd,pd->p", diff_w, paths.dW[:, k])) \
            / (1.0 - dot)
    return X


def _row_major_bracket(coeffs, X, grid, k0):
    # both integrals of the functional (rho, mu_bar and sigma_bar nonzero)
    # on path-major values
    dd = grid.index_of(coeffs.delta)
    xi, eta = coeffs.profiles(grid)
    out = X[:, grid.n_T] * xi[0]
    out = out + coeffs.rho * np.trapezoid(X[:, k0: grid.n_T + 1], dx=grid.h, axis=1)
    weights = coeffs.mu_bar * xi + float(np.sum(coeffs.sigma_bar)) * eta
    x_del = X[:, grid.n_T - dd: grid.n_T + 1]
    return out + np.trapezoid(x_del * weights[None, :], dx=grid.h, axis=1)


@pytest.mark.parametrize("d,l", [(1, 1), (2, 1), (2, 2)])
def test_forward_kernel_keeps_the_bits_of_the_row_major_steps(d, l):
    # t0 = 0.5 > delta, so the delayed terms act from node k0 + dd on; both
    # integrals span at least 8 steps, where np.trapezoid's sum is pairwise
    coeffs = LinearDualityCoeffs(
        mu=0.1, mu_bar=0.05, sigma=(0.1, 0.12)[:d], sigma_bar=(0.07, 0.04)[:d],
        kappa=(0.1, 0.13)[:l], rho=0.2, delta=0.25, t0=0.5,
        terminal=TerminalSpec(name="affine",
                              params={"value": 1.0, "slope": 0.4, "eta": 0.3}))
    grid = coeffs.grid_for(1.0, 1 / 32)
    k0 = grid.index_of(0.5)
    paths = sample_paths(grid, d, l, 300, seed=21)
    X = solve_delayed_dsde(coeffs, paths, k0)
    reference = _row_major_forward(coeffs, paths, k0)
    assert X.shape == reference.shape
    assert np.array_equal(X, reference)
    assert np.array_equal(_bracket(coeffs, X.T, grid, k0),
                          _row_major_bracket(coeffs, reference, grid, k0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_blow_up_names_the_first_non_finite_node():
    # sigma = 1e103 overflows every path within a few steps, not all at the
    # same node; the reference gives each path's first step that is not finite
    coeffs = LinearDualityCoeffs(sigma=(1e103,), delta=0.25, t0=0.25)
    grid = coeffs.grid_for(1.0, 1 / 8)
    k0 = grid.index_of(0.25)
    paths = sample_paths(grid, 1, 1, 64, seed=5)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(_row_major_forward(coeffs, paths, k0)[:, k0 + 1:])
    nodes = k0 + np.argmin(finite, axis=1)
    assert not finite[:, -1].any() and len(set(nodes)) > 1
    with pytest.raises(NonFinite, match=f"blew up at node {nodes.min()}$"):
        solve_delayed_dsde(coeffs, paths, k0)
    # mu = 1e300: X_{k0+1} = 1 + mu h is finite on every inner path and
    # mu X_{k0+1} overflows, so the step at node k0 + 1 blows up
    coeffs = LinearDualityCoeffs(mu=1e300, delta=0.25, t0=0.25)
    threads = threading.active_count()
    with pytest.raises(NonFinite, match=f"blew up at node {k0 + 1}$"):
        duality_rhs(coeffs, paths.dB[:4], grid, k0, 8, (1,))
    assert threading.active_count() == threads


def test_duality_check_rejects_t0_beyond_the_horizon_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew paths")

    coeffs = LinearDualityCoeffs(mu=0.2, mu_bar=0.1, delta=0.25, t0=1.25)
    with monkeypatch.context() as patch:
        patch.setattr(abdsde.duality, "sample_paths", no_draw)
        with pytest.raises(ValidationError, match="t0 = 1.25 is beyond the horizon"):
            duality_check(coeffs, T=1.0, h=0.125, P=256, n_outer=4, inner=8,
                          seed=5)
    # the forward kernel rejects a start node past the horizon node too
    grid = coeffs.grid_for(1.0, 0.125)
    paths = sample_paths(grid, 1, 1, 8, seed=5)
    with pytest.raises(ValidationError, match="start node 9 is outside"):
        solve_delayed_dsde(coeffs, paths, grid.n_T + 1)
    # t0 = T starts the forward solve on its last node: no step, one check
    coeffs = LinearDualityCoeffs(mu=0.2, mu_bar=0.1, delta=0.25, t0=1.0)
    report = duality_check(coeffs, T=1.0, h=0.125, P=256, n_outer=4, inner=8,
                           seed=5)
    assert report.passed


def test_duality_check_fits_by_regression_on_the_basis_it_is_given(monkeypatch):
    # it takes a basis, not a backend: an exact backend used to be accepted
    # and raised BackendMismatch only after the draw, or was never consulted
    params = inspect.signature(duality_check).parameters
    assert "backend" not in params
    assert params["basis"].default == RegressionBasis()
    coeffs = LinearDualityCoeffs(mu=0.2, kappa=(0.1,), sigma=(0.1,), rho=0.2,
                                 delta=0.25, t0=0.25)
    tree = tree_for_grid(coeffs.grid_for(0.5, 0.125))
    with pytest.raises(TypeError, match="backend"):
        duality_check(coeffs, T=0.5, h=0.125, P=256, n_outer=4, inner=8, seed=5,
                      backend=tree.backend())
    backends = []

    class Stop(Exception):
        pass

    def first_pass(*args):
        backends.append(args[-1])
        raise Stop  # before the draw

    monkeypatch.setattr(abdsde.duality, "_grid_pass", first_pass)
    basis = RegressionBasis(degree=3, ridge=1e-6)
    with pytest.raises(Stop):
        duality_check(coeffs, T=0.5, h=0.125, P=256, n_outer=4, inner=8, seed=5,
                      basis=basis)
    assert type(backends[0]) is RegressionBackend and backends[0].basis is basis


def test_duality_check_rejects_a_path_reading_terminal_before_drawing(monkeypatch):
    # the representation reads a deterministic profile; a scaled_wt terminal
    # used to be drawn and solved before duality_rhs raised in its pool
    def no_draw(*args, **kwargs):
        raise AssertionError("drew paths")

    coeffs = LinearDualityCoeffs(
        mu=0.2, mu_bar=0.1, delta=0.25, t0=0.5,
        terminal=TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0}))
    monkeypatch.setattr(abdsde.duality, "sample_paths", no_draw)
    with pytest.raises(ValidationError, match="deterministic terminal profile"):
        duality_check(coeffs, T=1.0, h=0.125, P=256, n_outer=4, inner=8, seed=5)


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
        duality_check(coeffs, T=1.0, h=1 / 8, P=256, n_outer=4, inner=8, seed=5)
    assert threading.active_count() == threads


@pytest.mark.parametrize("params,match", [
    ({"sigma": (0.1,), "sigma_bar": (0.0, 0.0)}, "share a dimension"),
    ({"delta": 0.0}, "delta must be positive"),
    ({"delta": -0.25}, "delta must be positive"),
], ids=["sigma-bar-dim", "delta-zero", "delta-negative"])
def test_coefficients_that_break_a_rule_raise_validation_error(params, match):
    with pytest.raises(ValidationError, match=match):
        LinearDualityCoeffs(**params)
