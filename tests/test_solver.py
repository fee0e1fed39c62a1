import inspect
import math
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from abdsde import cli, delays, solver
from abdsde.condexp import RegressionBackend
from abdsde.delays import affine_delay, constant_delay, DelaySpec, segment_interval
from abdsde.errors import (Infeasible, NoConvergence, NonFinite, NonTermination,
                           ShapeMismatch, ValidationError)
from abdsde.generators import builtin_generator, GeneratorSpec, LipschitzData
from abdsde.grids import make_grid
from abdsde.paths import sample_paths
from abdsde.scenario import Scenario
from abdsde.solver import (constant_initial, contraction_params,
                           default_initial, picard_iterate, SolutionProcess,
                           solve_backward_sweep, weighted_distance, weighted_norm)
from abdsde.terminal import constant_terminal, TerminalData, TerminalSpec
from abdsde.tree import build_tree, oracle_solve, tree_for_grid, TreeModel


# ---------------------------------------------------------------------------
# contraction constants
# ---------------------------------------------------------------------------

def test_contraction_params_worked_example():
    p = contraction_params(LipschitzData(c=1.0, alpha1=0.25, alpha2=0.25), M=1.0)
    assert p.cbar == pytest.approx(0.75)
    assert p.gamma == pytest.approx(3.0)
    assert p.beta == pytest.approx(11.0)


def test_contraction_params_default_lambda():
    lip = LipschitzData(c=2.0, alpha1=0.2, alpha2=0.1)
    p = contraction_params(lip, M=1.0)
    # the default lambda makes cbar = (1 + alpha1 + alpha2*M)/2
    assert p.cbar == pytest.approx((1.0 + 0.2 + 0.1) / 2.0)
    assert p.cbar < 1.0 and p.beta > p.lam0 > 0.0


def test_contraction_params_infeasible():
    with pytest.raises(Infeasible):
        contraction_params(LipschitzData(c=1.0, alpha1=0.7, alpha2=0.4), M=1.0)
    with pytest.raises(Infeasible, match="contraction factor 1 >= 1"):
        # a feasible load an ulp below 1: (1 - load)/2 + load rounds to 1
        contraction_params(LipschitzData(c=1.0, alpha1=math.nextafter(1.0, 0.0)), M=1.0)


def test_contraction_params_takes_lambda0_from_the_data_alone():
    assert list(inspect.signature(contraction_params).parameters) == ["lip", "M"]


def test_contraction_params_degenerate_c():
    p = contraction_params(LipschitzData(c=0.0, alpha1=0.5), M=1.0)
    assert p.cbar == pytest.approx(0.5)
    assert p.gamma == pytest.approx(1e-6)


# ---------------------------------------------------------------------------
# weighted norm
# ---------------------------------------------------------------------------

def _process(grid, y, z):
    return SolutionProcess(grid=grid, Y=y, Z=z)


def test_solution_process_checks_the_node_count():
    grid = make_grid(1.0, 0.5, 0.25)  # 7 nodes
    with pytest.raises(ShapeMismatch):
        _process(grid, np.zeros((8, 6, 1)), np.zeros((8, 7, 1, 1)))
    with pytest.raises(ShapeMismatch):
        _process(grid, np.zeros((8, 7, 1)), np.zeros((8, 8, 1, 1)))


def test_weighted_norm_zero_process():
    grid = make_grid(1.0, 0.5, 0.25)
    sol = _process(grid, np.zeros((8, 7, 1)), np.zeros((8, 7, 1, 1)))
    p = contraction_params(LipschitzData(c=1.0), M=1.0)
    assert weighted_norm(sol, p) == 0.0


def test_weighted_norm_plain_l2_special_case():
    from abdsde.solver import ContractionParams
    grid = make_grid(1.0, 0.0, 0.25)
    rng = np.random.default_rng(0)
    y = rng.normal(size=(16, 5, 1))
    z = rng.normal(size=(16, 5, 1, 1))
    sol = _process(grid, y, z)
    plain = ContractionParams(lam0=1.0, beta=0.0, gamma=1.0, cbar=0.5)
    expected = math.sqrt(float(np.mean((y[:, :, 0] ** 2
                                        + z[:, :, 0, 0] ** 2).sum(axis=1) * 0.25)))
    assert weighted_norm(sol, plain) == pytest.approx(expected, rel=1e-12)


def test_weighted_norm_equivalence_bounds():
    from abdsde.solver import ContractionParams
    grid = make_grid(1.0, 0.5, 0.25)
    rng = np.random.default_rng(1)
    plain = ContractionParams(lam0=1.0, beta=0.0, gamma=1.0, cbar=0.5)
    for _ in range(20):
        y = rng.normal(size=(4, 7, 1))
        z = rng.normal(size=(4, 7, 1, 1))
        sol = _process(grid, y, z)
        beta, gamma = rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)
        p = ContractionParams(lam0=1.0, beta=beta, gamma=gamma, cbar=0.5)
        base = weighted_norm(sol, plain)
        value = weighted_norm(sol, p)
        assert value >= math.sqrt(min(gamma, 1.0)) * base - 1e-12
        assert value <= math.sqrt(math.exp(beta * 1.5) * max(gamma, 1.0)) * base + 1e-12


# ---------------------------------------------------------------------------
# backward sweep closed forms
# ---------------------------------------------------------------------------

def test_zero_generator_exact():
    grid = make_grid(1.0, 0.5, 0.25)
    scen = Scenario(grid, builtin_generator("zero"), constant_terminal(2.0))
    paths = sample_paths(grid, 1, 1, 256, seed=1)
    sol = solve_backward_sweep(scen, paths, RegressionBackend())
    assert np.all(sol.Y == 2.0)
    assert np.all(sol.Z == 0.0)


def test_terminal_part_pinned_bitwise():
    grid = make_grid(0.5, 0.5, 0.25)
    gen = builtin_generator("anticipated_drift")
    delay = DelaySpec(constant_delay(0.5), constant_delay(0.5))
    scen = Scenario(grid, gen, constant_terminal(1.0, eta=0.25), delay=delay)
    paths = sample_paths(grid, 1, 1, 128, seed=2)
    term = scen.terminal_data(paths)
    sol = solve_backward_sweep(scen, paths, RegressionBackend())
    for k in range(grid.n_T, grid.n_end + 1):
        assert np.array_equal(sol.Y[:, k], term.xi_at(k))
        assert np.array_equal(sol.Z[:, k], term.eta_at(k))


def test_linear_closed_form_first_order_convergence():
    # Y_t = 2 e^{T-t} - 1; the one-step multiplier (1+h) gives error ~ e*h
    errs = {}
    for h in (1 / 16, 1 / 32):
        grid = make_grid(1.0, 0.0, h)
        scen = Scenario(grid, builtin_generator("linear_bsde", a=1.0, rho=1.0),
                        constant_terminal(1.0))
        paths = sample_paths(grid, 1, 1, 128, seed=3)
        sol = solve_backward_sweep(scen, paths, RegressionBackend())
        errs[h] = abs(sol.Y[0, 0, 0] - (2 * math.e - 1))
        assert errs[h] == pytest.approx(math.e * h, rel=0.1)
    assert errs[1 / 32] / errs[1 / 16] == pytest.approx(0.5, abs=0.05)


def test_anticipated_deterministic_closed_form():
    # piecewise solution: 2 - t on [1/2, 1], 2.125 - 1.5 t + t^2/2 on [0, 1/2]
    grid = make_grid(1.0, 0.5, 1 / 64)
    gen = builtin_generator("anticipated_drift")
    delay = DelaySpec(constant_delay(0.5), constant_delay(0.5))
    scen = Scenario(grid, gen, constant_terminal(1.0), delay=delay)
    paths = sample_paths(grid, 1, 1, 128, seed=4)
    sol = solve_backward_sweep(scen, paths, RegressionBackend())
    y = sol.Y[0, :, 0]
    t = grid.times
    upper = t >= 0.5
    assert np.allclose(y[upper & (t <= 1.0)], (2.0 - t)[upper & (t <= 1.0)],
                       atol=1e-12)
    lower = t <= 0.5
    exact = 2.125 - 1.5 * t + 0.5 * t ** 2
    assert np.abs(y[lower] - exact[lower]).max() <= 2 * grid.h


def test_affine_delay_deterministic_closed_form():
    # delta(t) = 0.5 + 0.5 t, f = anticipated mean, xi = 1:
    # Y = 2 - t on [1/3, 1] and Y = 25/12 - 1.5 t + 0.75 t^2 on [0, 1/3],
    # so Y_0 = 25/12.  Odd nodes snap by h/4, hence the warning filter.
    errs = []
    for h in (1 / 32, 1 / 64):
        grid = make_grid(1.0, 1.0, h)
        delay = DelaySpec(affine_delay(0.5, 0.5), affine_delay(0.5, 0.5))
        with pytest.warns(UserWarning, match="snapping"):
            scen = Scenario(grid, builtin_generator("anticipated_drift"),
                            constant_terminal(1.0), delay=delay)
        paths = sample_paths(grid, 1, 1, 128, seed=2)
        sol = solve_backward_sweep(scen, paths, RegressionBackend())
        errs.append(abs(float(sol.Y[0, 0, 0]) - 25.0 / 12.0))
        assert errs[-1] <= h
    assert errs[1] < errs[0]


def test_two_dimensional_w_martingale_representation():
    # zero generator, xi = 0.5 (W_T,1 + W_T,2): Z should recover (0.5, 0.5)
    grid = make_grid(1.0, 0.0, 1 / 16)
    paths = sample_paths(grid, 2, 1, 20000, seed=3)
    w_T = paths.w_at(grid.n_T)
    xi = (0.5 * (w_T[:, 0] + w_T[:, 1]))[:, None, None]
    term = TerminalData(grid=grid, xi=xi,
                        eta=np.zeros((20000, 1, 1, 2)))
    scen = Scenario(grid, builtin_generator("zero", d=2), term)
    sol = solve_backward_sweep(scen, paths, RegressionBackend())
    z_mean = sol.Z[:, 8, 0, :].mean(axis=0)
    assert np.allclose(z_mean, 0.5, atol=0.02)
    assert abs(sol.Y[:, 0, 0].mean()) < 0.05


def test_nonfinite_generator_detected():
    spec = builtin_generator("linear_bsde", a=1.0)
    # finite at the origin (so construction passes), infinite on the sweep
    exploding = GeneratorSpec(
        name="explodes", m=1, d=1, l=1,
        f=lambda t, y, z, e: np.where(np.abs(y) > 0.5, np.inf, 0.0),
        g=spec.g, lip=LipschitzData(c=0.0))
    grid = make_grid(0.5, 0.0, 0.25)
    scen = Scenario(grid, exploding, constant_terminal(1.0))
    paths = sample_paths(grid, 1, 1, 128, seed=4)
    with pytest.raises(NonFinite):
        solve_backward_sweep(scen, paths, RegressionBackend())


@pytest.mark.parametrize("grid, make_paths", [
    (make_grid(1.0, 0.0, 1 / 16),
     lambda: sample_paths(make_grid(1.0, 0.0, 1 / 64), 1, 1, 256, seed=3)),
    (make_grid(1.0, 0.0, 1 / 16),
     lambda: sample_paths(make_grid(1.0, 0.0, 1 / 8), 1, 1, 256, seed=3)),
    (make_grid(0.75, 0.25, 0.25), lambda: build_tree(4, 0.25)),  # n_T 4, not 3
], ids=["finer", "coarser", "tree_n_T"])
def test_paths_on_another_grid_are_rejected_naming_both_grids(grid, make_paths):
    # finer paths used to give a fit of the wrong steps without an error,
    # coarser ones an out-of-range step
    scen = Scenario(grid, builtin_generator("linear_bsde", a=1.0),
                    TerminalSpec(name="scaled_wt", params={"a": 1.0, "b": 0.0}))
    paths = make_paths()
    if isinstance(paths, TreeModel):
        routes = [lambda: solve_backward_sweep(scen, paths, paths.backend()),
                  lambda: oracle_solve(scen, paths)]
    else:
        routes = [lambda: solve_backward_sweep(scen, paths, RegressionBackend())]
    for route in routes:
        with pytest.raises(ShapeMismatch) as raised:
            route()
        assert str(paths.grid) in str(raised.value)
        assert str(grid) in str(raised.value)


def test_terminal_data_on_another_grid_are_rejected_naming_both_grids():
    # both grids have n_T 4 and n_end 5; checking only the path count read
    # W_1 as if it were W_2 (mean Y_0 5.08, no error)
    built_on, grid = make_grid(1.0, 0.25, 0.25), make_grid(2.0, 0.5, 0.5)
    assert (built_on.n_T, built_on.n_end) == (grid.n_T, grid.n_end)
    term = TerminalSpec(name="scaled_wt", params={"a": 1.0, "b": 1.0}).build(
        built_on, sample_paths(built_on, 1, 1, 500, seed=3), m=1, d=1)
    scen = Scenario(grid, builtin_generator("linear_bsde", a=1.0), term)
    with pytest.raises(ShapeMismatch) as raised:
        solve_backward_sweep(scen, sample_paths(grid, 1, 1, 500, seed=3),
                             RegressionBackend())
    assert str(built_on) in str(raised.value) and str(grid) in str(raised.value)


def test_terminal_data_for_another_path_count_raise_shape_mismatch():
    # as a frozen process of another path count does (it was ValidationError)
    grid = make_grid(1.0, 0.0, 0.25)
    term = TerminalSpec(name="scaled_wt", params={"a": 1.0}).build(
        grid, sample_paths(grid, 1, 1, 400, seed=3), m=1, d=1)
    scen = Scenario(grid, builtin_generator("linear_bsde", a=1.0), term)
    with pytest.raises(ShapeMismatch, match="different path count"):
        solve_backward_sweep(scen, sample_paths(grid, 1, 1, 500, seed=3),
                             RegressionBackend())


@pytest.mark.parametrize("gen_dims,path_dims", [((2, 1), (1, 1)), ((1, 2), (1, 1)),
                                                 ((1, 1), (1, 2)), ((1, 1), (2, 1))],
                         ids=["gen_d2", "gen_l2", "paths_l2", "paths_d2"])
def test_paths_with_other_driver_dimensions_raise_shape_mismatch(gen_dims, path_dims):
    # a generator d = 2 on d = 1 paths ran with both Z columns fitted on the
    # same dW, l = 1 on l = 2 paths read mean Y_0 2.380 for 2.371, and d = 1
    # on d = 2 paths raised numpy's "non-broadcastable output operand"
    grid = make_grid(1.0, 0.0, 0.25)
    d, l = gen_dims
    scen = Scenario(grid, builtin_generator("linear_bsde", d=d, l=l),
                    TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0}))
    paths = sample_paths(grid, *path_dims, 300, seed=3)
    with pytest.raises(ShapeMismatch, match=r"the paths carry \(d, l\)"):
        solve_backward_sweep(scen, paths, RegressionBackend())


def test_a_frozen_process_on_another_grid_is_rejected_naming_both_grids():
    # both grids have 17 nodes; comparing only the node counts read the
    # frozen process as if it lay on the scenario grid (mean Y_0 6.58)
    gen = builtin_generator("linear_bsde", a=1.0)
    fine, other = make_grid(1.0, 0.0, 1 / 16), make_grid(2.0, 0.0, 1 / 8)
    assert fine.n_nodes == other.n_nodes
    frozen = solve_backward_sweep(Scenario(fine, gen, constant_terminal(1.0)),
                                  sample_paths(fine, 1, 1, 500, seed=3),
                                  RegressionBackend())
    scen = Scenario(other, gen, constant_terminal(1.0))
    paths = sample_paths(other, 1, 1, 500, seed=3)
    with pytest.raises(ShapeMismatch) as raised:
        solve_backward_sweep(scen, paths, RegressionBackend(), frozen=frozen)
    assert str(fine) in str(raised.value) and str(other) in str(raised.value)


def test_picard_no_convergence_error():
    grid = make_grid(0.75, 0.25, 0.25)
    gen = builtin_generator("example41_f1")
    delay = DelaySpec(constant_delay(0.25), constant_delay(0.25))
    scen = Scenario(grid, gen, constant_terminal(1.0), delay=delay)
    paths = sample_paths(grid, 1, 1, 256, seed=5)
    with pytest.raises(NoConvergence):
        picard_iterate(scen, paths, RegressionBackend(), tol=1e-12, max_iter=1,
                       init=constant_initial(scen, paths, 50.0))


def test_picard_takes_its_norm_from_the_scenario():
    # the contraction constants follow from the scenario's Lipschitz data
    # and M; no caller sets them
    assert list(inspect.signature(picard_iterate).parameters) == [
        "scenario", "paths", "backend", "tol", "max_iter", "init"]


def test_picard_rejects_a_nan_tolerance_before_sweeping(monkeypatch):
    # no distance is below a NaN tol: all max_iter sweeps ran, then
    # NoConvergence was raised
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept")

    grid = make_grid(0.75, 0.25, 0.25)
    scen = Scenario(grid, builtin_generator("zero"), constant_terminal(1.0))
    paths = sample_paths(grid, 1, 1, 16, seed=5)
    monkeypatch.setattr(solver, "solve_backward_sweep", no_sweep)
    with pytest.raises(ValidationError, match="tol must be positive"):
        picard_iterate(scen, paths, RegressionBackend(), tol=float("nan"))


def test_implicit_iters_flips_error_sign():
    grid = make_grid(1.0, 0.0, 1 / 16)
    gen = builtin_generator("linear_bsde", a=1.0, rho=1.0)
    paths = sample_paths(grid, 1, 1, 128, seed=3)
    explicit = solve_backward_sweep(
        Scenario(grid, gen, constant_terminal(1.0), implicit_iters=1),
        paths, RegressionBackend())
    refined = solve_backward_sweep(
        Scenario(grid, gen, constant_terminal(1.0), implicit_iters=8),
        paths, RegressionBackend())
    exact = 2 * math.e - 1
    assert explicit.Y[0, 0, 0] < exact < refined.Y[0, 0, 0]


# ---------------------------------------------------------------------------
# frozen-anticipation map and fixed-point iteration
# ---------------------------------------------------------------------------

def _example41_tree_setup():
    grid = make_grid(0.75, 0.25, 0.25)
    tree = tree_for_grid(grid)
    gen = builtin_generator("example41_f1")
    delay = DelaySpec(constant_delay(0.25), constant_delay(0.25))
    term = TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0})
    scen = Scenario(grid, gen, term, delay=delay)
    return scen, tree


def test_sweep_is_fixed_point_of_map():
    scen, tree = _example41_tree_setup()
    sweep = solve_backward_sweep(scen, tree, tree.backend())
    mapped = solve_backward_sweep(scen, tree, tree.backend(), frozen=sweep)
    assert np.abs(mapped.Y - sweep.Y).max() <= 1e-10
    assert np.abs(mapped.Z - sweep.Z).max() <= 1e-10


def test_map_ignores_frozen_input_for_zero_generator():
    grid = make_grid(0.5, 0.0, 0.25)
    tree = tree_for_grid(grid)
    xi = TerminalSpec(name="scaled_wt", params={"a": 1.0, "b": 0.0})
    scen = Scenario(grid, builtin_generator("zero"), xi)
    a = solve_backward_sweep(scen, tree, tree.backend(),
                             frozen=constant_initial(scen, tree, 0.0))
    b = solve_backward_sweep(scen, tree, tree.backend(),
                             frozen=constant_initial(scen, tree, 10.0))
    assert np.array_equal(a.Y, b.Y)
    assert np.array_equal(a.Z, b.Z)


def test_map_contracts_random_inputs():
    scen, tree = _example41_tree_setup()
    params = contraction_params(scen.generator.lip, scen.M)
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = default_initial(scen, tree)
        v = default_initial(scen, tree)
        n_T = scen.grid.n_T
        u.Y[:, :n_T] += rng.normal(size=u.Y[:, :n_T].shape)
        v.Y[:, :n_T] += rng.normal(size=v.Y[:, :n_T].shape)
        u.Z[:, :n_T] += rng.normal(size=u.Z[:, :n_T].shape)
        v.Z[:, :n_T] += rng.normal(size=v.Z[:, :n_T].shape)
        iu = solve_backward_sweep(scen, tree, tree.backend(), frozen=u)
        iv = solve_backward_sweep(scen, tree, tree.backend(), frozen=v)
        num = weighted_distance(iu, iv, params)
        den = weighted_distance(u, v, params)
        assert num <= (params.cbar + 0.05) * den


def test_picard_zero_generator_one_iteration():
    grid = make_grid(0.5, 0.0, 0.25)
    tree = tree_for_grid(grid)
    scen = Scenario(grid, builtin_generator("zero"), constant_terminal(1.5))
    sol, log = picard_iterate(scen, tree, tree.backend(), tol=1e-9)
    assert len(log) == 1 and log[0] == 0.0
    assert np.all(sol.Y == 1.5)


def test_picard_ratios_bounded_by_contraction_factor():
    scen, tree = _example41_tree_setup()
    params = contraction_params(scen.generator.lip, scen.M)
    sol, log = picard_iterate(scen, tree, tree.backend(), tol=1e-9,
                              init=constant_initial(scen, tree, 0.0))
    for d_prev, d_next in zip(log[1:], log[2:]):
        if d_prev > 0:
            assert d_next / d_prev <= params.cbar + 0.05


def test_picard_unique_fixed_point_from_two_initializations():
    scen, tree = _example41_tree_setup()
    tol = 1e-9
    s0, _ = picard_iterate(scen, tree, tree.backend(), tol=tol,
                           init=constant_initial(scen, tree, 0.0))
    s10, _ = picard_iterate(scen, tree, tree.backend(), tol=tol,
                            init=constant_initial(scen, tree, 10.0))
    params = contraction_params(scen.generator.lip, scen.M)
    assert weighted_distance(s0, s10, params) <= 10 * tol


def test_picard_matches_single_sweep():
    scen, tree = _example41_tree_setup()
    sweep = solve_backward_sweep(scen, tree, tree.backend())
    sol, _ = picard_iterate(scen, tree, tree.backend(), tol=1e-9)
    assert np.abs(sol.Y - sweep.Y).max() <= 1e-10


def test_picard_on_regression_backend_converges():
    grid = make_grid(0.5, 0.5, 0.25)
    gen = builtin_generator("example41_f1")
    delay = DelaySpec(constant_delay(0.5), constant_delay(0.5))
    scen = Scenario(grid, gen, constant_terminal(1.0), delay=delay)
    paths = sample_paths(grid, 1, 1, 512, seed=6)
    sol, log = picard_iterate(scen, paths, RegressionBackend(), tol=1e-9)
    sweep = solve_backward_sweep(scen, paths, RegressionBackend())
    assert np.abs(sol.Y - sweep.Y).max() <= 1e-12


def test_one_condexp_call_per_node_and_functionals_once_per_node(monkeypatch):
    # each node's Z, functional and Y targets go to the backend in one call,
    # and node k's raw functionals are reused as node k-1's
    counts = {"condexp": 0, "functionals": 0}
    condexp_method = RegressionBackend.condexp
    functionals_method = GeneratorSpec.eval_functionals

    def counting_condexp(self, *args, **kwargs):
        counts["condexp"] += 1
        return condexp_method(self, *args, **kwargs)

    def counting_functionals(self, *args, **kwargs):
        counts["functionals"] += 1
        return functionals_method(self, *args, **kwargs)

    monkeypatch.setattr(RegressionBackend, "condexp", counting_condexp)
    monkeypatch.setattr(GeneratorSpec, "eval_functionals", counting_functionals)
    grid = make_grid(0.5, 0.25, 0.0625)
    delay = DelaySpec(constant_delay(0.25), constant_delay(0.25))
    scen = Scenario(grid, builtin_generator("example41_f1"),
                    TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.5}),
                    delay=delay)
    paths = sample_paths(grid, 1, 1, 512, seed=4)
    solve_backward_sweep(scen, paths, RegressionBackend())
    assert counts == {"condexp": grid.n_T, "functionals": grid.n_T + 1}


# ---------------------------------------------------------------------------
# piece-by-piece construction over the segmentation
# ---------------------------------------------------------------------------

def _piecewise(scen, paths, backend):
    """seg.N applications of the frozen-anticipation map from default_initial;
    application i settles segment i, counted from T."""
    seg = segment_interval(scen.delay, scen.grid)
    cur = default_initial(scen, paths)
    for _ in range(seg.N):
        cur = solve_backward_sweep(scen, paths, backend, frozen=cur)
    return cur


def test_segmented_equals_global_zero_generator():
    grid = make_grid(1.0, 0.5, 0.25)
    delay = DelaySpec(constant_delay(0.5), constant_delay(0.5))
    scen = Scenario(grid, builtin_generator("zero"),
                    TerminalSpec(name="scaled_wt", params={"a": 1.0}),
                    delay=delay)
    paths = sample_paths(grid, 1, 1, 512, seed=8)
    a = solve_backward_sweep(scen, paths, RegressionBackend())
    b = _piecewise(scen, paths, RegressionBackend())
    assert np.array_equal(a.Y, b.Y)
    assert np.array_equal(a.Z, b.Z)


def test_segmented_equals_global_on_tree():
    scen, tree = _example41_tree_setup()
    a = solve_backward_sweep(scen, tree, tree.backend())
    b = _piecewise(scen, tree, tree.backend())
    assert np.abs(a.Y - b.Y).max() <= 1e-12
    assert np.abs(a.Z - b.Z).max() <= 1e-12
    assert segment_interval(scen.delay, scen.grid).points == (0.75, 0.5, 0.25, 0.0)


def test_segmented_single_segment_when_delay_covers_horizon():
    grid = make_grid(0.5, 0.5, 0.25)
    delay = DelaySpec(constant_delay(0.5), constant_delay(0.5))
    gen = builtin_generator("anticipated_drift")
    scen = Scenario(grid, gen, constant_terminal(1.0), delay=delay)
    paths = sample_paths(grid, 1, 1, 256, seed=9)
    b = _piecewise(scen, paths, RegressionBackend())
    assert segment_interval(delay, grid).points == (0.5, 0.0)
    a = solve_backward_sweep(scen, paths, RegressionBackend())
    assert np.array_equal(a.Y, b.Y)


def test_sub_step_delay_still_solves_without_segmentation():
    # a delay shorter than h snaps to one step; no grid segmentation exists
    grid = make_grid(1.0, 0.125, 0.125)
    delay = DelaySpec(constant_delay(0.01), constant_delay(0.01))
    with pytest.warns(UserWarning, match="snapping"):
        scen = Scenario(grid, builtin_generator("anticipated_drift"),
                        constant_terminal(1.0), delay=delay)
    sol = solve_backward_sweep(scen, sample_paths(grid, 1, 1, 256, seed=1),
                               RegressionBackend())
    assert np.all(np.isfinite(sol.Y))
    with pytest.raises(NonTermination):
        segment_interval(delay, grid)


def test_a_delay_is_validated_once_per_scenario_and_never_in_a_sweep(monkeypatch):
    calls = []
    real = delays.validate_delay

    def counted(spec, grid):
        calls.append(spec)
        return real(spec, grid)

    monkeypatch.setattr(delays, "validate_delay", counted)
    grid = make_grid(1.0, 0.5, 0.25)
    delay = DelaySpec(constant_delay(0.5), constant_delay(0.5))
    scen = Scenario(grid, builtin_generator("anticipated_drift"),
                    constant_terminal(1.0), delay=delay)
    assert len(calls) == 1
    paths = sample_paths(grid, 1, 1, 64, seed=3)
    solve_backward_sweep(scen, paths, RegressionBackend())
    assert len(calls) == 1
    solve_backward_sweep(scen, paths, RegressionBackend(),
                         on_node=lambda k, y, z: None)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# one-step identity of the stored solution, via the independent tensor route
# ---------------------------------------------------------------------------

def test_discrete_one_step_identity_on_tree():
    from tree_helpers import _tensor_condexp, stacked_steps
    scen, tree = _example41_tree_setup()
    _, dB = stacked_steps(tree)
    sol = solve_backward_sweep(scen, tree, tree.backend())
    gen, grid = scen.generator, scen.grid
    Y = sol.Y[:, :, 0]
    Z = sol.Z[:, :, 0, 0]
    h = grid.h
    for k in range(grid.n_T):
        off = scen.offsets
        e_raw_next = gen.eval_functionals(
            Y[:, k + 1 + off.d_delta[k + 1]][:, None],
            Z[:, k + 1 + off.d_zeta[k + 1]][:, None, None])
        g_val = np.asarray(gen.g(grid.time(k + 1), Y[:, k + 1][:, None],
                                 Z[:, k + 1][:, None, None], e_raw_next))
        target = Y[:, k + 1] + g_val[:, 0, 0] * dB[:, k, 0]
        e_raw = gen.eval_functionals(
            Y[:, k + off.d_delta[k]][:, None],
            Z[:, k + off.d_zeta[k]][:, None, None])
        e_k = np.column_stack([
            _tensor_condexp(e_raw[:, j], k, tree.n) for j in range(gen.q_total)])
        f_k = np.asarray(gen.f(grid.time(k),
                               _tensor_condexp(target, k, tree.n)[:, None],
                               Z[:, k][:, None, None], e_k))[:, 0]
        resid = _tensor_condexp(target - Y[:, k], k, tree.n) + h * f_k
        assert np.abs(resid).max() <= 1e-10


# ---------------------------------------------------------------------------
# the per-node consumer
# ---------------------------------------------------------------------------

def _consumer_case(name):
    """(scenario, paths, backend) of one case of the consumer test."""
    if name == "tree":
        scen, tree = _example41_tree_setup()
        return scen, tree, tree.backend()
    backend = RegressionBackend()
    if name == "linear_m2_d2":
        grid = make_grid(0.5, 0.25, 0.0625)
        paths = sample_paths(grid, 2, 2, 2000, seed=8)
        w_T = paths.w_at(grid.n_T)
        k_nodes = grid.n_end - grid.n_T + 1
        xi = np.broadcast_to(np.stack([w_T[:, 0] + 1.0, w_T[:, 0] * w_T[:, 1]],
                                      axis=1)[:, None], (2000, k_nodes, 2))
        term = TerminalData(grid=grid, xi=xi, eta=np.full((2000, k_nodes, 2, 2), 0.1))
        gen = builtin_generator("linear_bsde", m=2, d=2, l=2, a=0.5, rho=0.25)
        return Scenario(grid, gen, term), paths, backend
    if name == "pair":
        from abdsde.comparison import _joint_scenario
        grid = make_grid(0.5, 0.25, 0.0625)
        delay = DelaySpec(constant_delay(0.25), constant_delay(0.25))
        paths = sample_paths(grid, 1, 1, 2000, seed=9)
        s1, s2 = (Scenario(grid, builtin_generator(gen),
                           TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": b}),
                           delay=delay)
                  for gen, b in (("example41_f1", 1.5), ("example41_f2", 1.0)))
        return _joint_scenario(s1, s2, paths), paths, backend
    grid, delay, gen = {
        "constant_K": (make_grid(0.5, 0.25, 0.0625),
                       DelaySpec(constant_delay(0.25), constant_delay(0.25)),
                       "example41_f1"),
        # phi is a view into the one-slot (Y, Z) ring, which later nodes
        # overwrite while its value is still held
        "view_phi": (make_grid(0.5, 0.25, 0.0625),
                     DelaySpec(constant_delay(0.25), constant_delay(0.25)),
                     "anticipated_drift"),
        # largest offset 5 < n_K = 8
        "affine_below_K": (make_grid(0.25, 0.5, 0.0625),
                           DelaySpec(affine_delay(0.0625, 1.0), constant_delay(0.125)),
                           "example41_f1"),
        "no_delay": (make_grid(0.5, 0.25, 0.0625), None, "linear_bsde"),
        "no_delay_K0": (make_grid(0.5, 0.0, 0.0625), None, "linear_bsde"),
    }[name]
    paths = sample_paths(grid, 1, 1, 2000, seed=7)
    term = TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.5})
    return Scenario(grid, builtin_generator(gen), term, delay=delay), paths, backend


@pytest.mark.parametrize("name", ["constant_K", "view_phi", "affine_below_K", "no_delay",
                                  "no_delay_K0", "linear_m2_d2", "pair", "tree"])
def test_consumer_sees_each_node_once_as_the_full_sweep_stores_it(name):
    scen, paths, backend = _consumer_case(name)
    grid = scen.grid
    full = solve_backward_sweep(scen, paths, backend)
    seen = []

    def on_node(k, y_k, z_k):
        assert y_k.shape == (paths.n_paths, scen.generator.m)
        assert z_k.shape == (paths.n_paths, scen.generator.m, scen.generator.d)
        seen.append((k, y_k.copy(), z_k.copy()))

    metadata = solve_backward_sweep(scen, paths, backend, on_node=on_node)
    assert [k for k, _, _ in seen] == list(range(grid.n_end, -1, -1))
    for k, y_k, z_k in seen:
        assert np.array_equal(y_k, full.Y[:, k])
        assert np.array_equal(z_k, full.Z[:, k])
    assert metadata == full.metadata


def _tree_affine_pair(generator="example41_f1"):
    """The 8-step tree with affine delta != zeta: nodes 0 and 1 read two
    swept nodes two apart, node 2 one swept and one terminal node, and the
    later nodes two terminal ones."""
    grid = make_grid(0.5, 0.3, 0.1)
    tree = tree_for_grid(grid)
    delay = DelaySpec(affine_delay(0.1, 0.4), constant_delay(0.3))
    term = TerminalSpec(name="scaled_b_tail", params={"a": 0.6, "b": 1.0})
    with pytest.warns(UserWarning, match="snapping"):
        scen = Scenario(grid, builtin_generator(generator), term, delay=delay)
    assert list(scen.offsets.d_delta) == [1, 1, 2, 2, 3, 3]
    assert tree.n == 8 and not np.array_equal(scen.offsets.d_delta, scen.offsets.d_zeta)
    return scen, tree


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


# anticipated_drift's phi is a view of Y (the consumer test's view_phi case
# is the one where the ring reuses that slot while phi's value is held)
@pytest.mark.parametrize("generator,frozen", [
    pytest.param("example41_f1", False, id="False"),
    pytest.param("example41_f1", True, id="True"),
    pytest.param("anticipated_drift", False, id="anticipated_drift-False"),
    pytest.param("anticipated_drift", True, id="anticipated_drift-True")])
def test_node_by_node_sweep_has_the_full_sweeps_bits_for_affine_delta_and_zeta(
        generator, frozen):
    scen, tree = _tree_affine_pair(generator)
    given = {"frozen": default_initial(scen, tree)} if frozen else {}
    full = solve_backward_sweep(scen, tree, tree.backend(), **given)
    seen = {}

    def on_node(k, y_k, z_k):
        seen[k] = (y_k.copy(), z_k.copy())

    metadata = solve_backward_sweep(scen, tree, tree.backend(),
                                    on_node=on_node, **given)
    assert sorted(seen) == list(range(scen.grid.n_nodes))
    for k, (y_k, z_k) in seen.items():
        assert _same_bits(y_k, full.Y[:, k]) and _same_bits(z_k, full.Z[:, k])
    assert metadata == full.metadata


@pytest.mark.parametrize("mode", ["full", "on_node", "frozen"])
def test_a_sweep_evaluates_the_functionals_once_per_node(monkeypatch, mode):
    calls = []
    real = GeneratorSpec.eval_functionals

    def counted(self, y_ant, z_ant):
        calls.append(1)
        return real(self, y_ant, z_ant)

    scen, tree = _tree_affine_pair()
    kwargs = {"full": {}, "on_node": {"on_node": lambda k, y, z: None},
              "frozen": {"frozen": default_initial(scen, tree)}}[mode]
    monkeypatch.setattr(GeneratorSpec, "eval_functionals", counted)
    solve_backward_sweep(scen, tree, tree.backend(), **kwargs)
    assert len(calls) == scen.grid.n_T + 1


# ---------------------------------------------------------------------------
# storage: what a solve holds
# ---------------------------------------------------------------------------

REFERENCE = str(Path(__file__).resolve().parents[1] / "bench" / "reference" / "solve.yaml")

#: Bound on a solve's tracemalloc peak over the bytes of dW, dB, Y and Z.  A
#: whole-horizon cache of W and B, or a (P, n_nodes) |Z| array in the CSV
#: step, pushes the ratio above it (about 1.77 with both, 1.18 without).
PEAK_OVER_HELD = 1.4


def test_solve_peak_memory_stays_near_increments_and_solution(tmp_path):
    P = 20000
    config = cli._read_config(REFERENCE)
    config["paths"]["count"] = P
    built = cli._build_all(config)
    grid, gen = built.grid, built.scenario.generator
    held = 8 * P * (grid.n_steps * (gen.d + gen.l) + grid.n_nodes * gen.m * (1 + gen.d))
    tracemalloc.start()
    try:
        assert cli.run("solve", REFERENCE, str(tmp_path / "solve.csv"), n_paths=P) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_OVER_HELD * held, peak / held


def test_solve_peak_memory_stays_near_increments_and_window(tmp_path):
    # the CSV step reduces each node as the sweep stores it, so the solve
    # holds at most the 1 + largest offset nodes that node k's functionals read
    P = 20000
    config = cli._read_config(REFERENCE)
    config["paths"]["count"] = P
    built = cli._build_all(config)
    grid, gen, off = built.grid, built.scenario.generator, built.scenario.offsets
    n_slots = 1 + int(max(off.d_delta.max(), off.d_zeta.max()))
    held = 8 * P * (grid.n_steps * (gen.d + gen.l) + n_slots * gen.m * (1 + gen.d))
    tracemalloc.start()
    try:
        assert cli.run("solve", REFERENCE, str(tmp_path / "solve.csv"), n_paths=P) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_OVER_HELD * held, peak / held


def test_solve_peak_memory_stays_near_the_steps_read_and_window(tmp_path):
    # the draw stores only the n_T steps the sweep reads: scaled_wt terminal
    # data read W up to T, and nothing reads past it
    P = 20000
    config = cli._read_config(REFERENCE)
    config["paths"]["count"] = P
    built = cli._build_all(config)
    grid, gen, off = built.grid, built.scenario.generator, built.scenario.offsets
    n_slots = 1 + int(max(off.d_delta.max(), off.d_zeta.max()))
    held = 8 * P * (grid.n_T * (gen.d + gen.l) + n_slots * gen.m * (1 + gen.d))
    tracemalloc.start()
    try:
        assert cli.run("solve", REFERENCE, str(tmp_path / "solve.csv"), n_paths=P) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_OVER_HELD * held, peak / held


#: P-long columns of one node's regression and generator work held beside
#: the solve's own state: design, fit, target block and temporaries (14.3
#: at the lsmc_solve shape; 19.3 while the previous node's fit, its Y
#: target and its g value stayed alive through the next node's fit).
PER_NODE_COLUMNS = 17


def test_solve_peak_memory_stays_near_increments_functionals_and_two_state_slabs(tmp_path):
    # the sweep holds the raw functionals of the nodes between an anticipated
    # read and its use, one node of (Y, Z) (delta = zeta), and two node slabs
    # each of W and B, the anchor n_T and the last node read; a window of
    # (Y, Z) for the largest offset, or W or B at more nodes, pushes the
    # peak over the bound
    P = 20000
    config = cli._read_config(REFERENCE)  # the lsmc_solve shape
    config["paths"]["count"] = P
    built = cli._build_all(config)
    scen = built.scenario
    gen, off = scen.generator, scen.offsets
    assert np.array_equal(off.d_delta, off.d_zeta)
    n_stored = scen.steps_read
    columns = (n_stored * (gen.d + gen.l)
               + gen.q_total * (1 + int(off.d_delta.max()))
               + gen.m * (1 + gen.d)
               + 2 * (gen.d + gen.l)
               + PER_NODE_COLUMNS)
    # the modules a first run imports hold about 4 columns at this P; an
    # untraced run imports them, so the bound does not depend on test order
    assert cli.run("solve", REFERENCE, str(tmp_path / "warm.csv"), n_paths=1000) == 0
    tracemalloc.start()
    try:
        assert cli.run("solve", REFERENCE, str(tmp_path / "solve.csv"), n_paths=P) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * P * columns, peak / (8 * P)


@pytest.mark.parametrize("command,scenario", [
    ("solve", REFERENCE),
    ("compare", str(Path(REFERENCE).parents[2] / "scenarios" / "example41_compare.yaml")),
])
def test_each_node_frees_its_fit_before_the_next_node_fits(
        tmp_path, monkeypatch, command, scenario):
    # node k's conditional expectations, with every view the sweep takes of
    # them, are gone when node k - 1 calls condexp: the sweep holds one fit
    fits, held = [], []
    real = solver.condexp

    def recording(backend, targets, k, paths):
        if fits:
            held.append(fits[-1]() is not None)
        out = real(backend, targets, k, paths)
        # the array that owns the memory: views of views point at it
        fits.append(weakref.ref(out if out.base is None else out.base))
        return out

    monkeypatch.setattr(solver, "condexp", recording)
    assert cli.run(command, scenario, str(tmp_path / "out.csv")) == 0
    assert held and not any(held)


def test_per_node_slabs_are_contiguous():
    config = cli._read_config(REFERENCE)
    built = cli._build_all(config)
    paths = cli._paths(built)
    sol = solve_backward_sweep(built.scenario, paths, built.backend)
    for k in (0, built.grid.n_T - 1, built.grid.n_end):
        for i in range(built.scenario.generator.m):
            assert sol.Y[:, k, i].flags.c_contiguous
            assert sol.Z[:, k, i].flags.c_contiguous
        if k < built.grid.n_steps:
            assert paths.dW[:, k].flags.c_contiguous
            assert paths.dB[:, k].flags.c_contiguous


@pytest.mark.parametrize("name", ["constant", "affine", "scaled_wt", "scaled_b_tail"])
def test_built_terminal_data_is_read_only_and_solves_as_a_copy(name):
    grid = make_grid(0.5, 0.25, 0.0625)
    delay = DelaySpec(constant_delay(0.25), constant_delay(0.25))
    gen = builtin_generator("example41_f1")
    paths = sample_paths(grid, 1, 1, 2000, seed=6)
    term = TerminalSpec(name=name, params={"eta": 0.1}).build(grid, paths, m=1, d=1)
    for values in (term.xi, term.eta):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.0
    copied = TerminalData(grid=grid, xi=term.xi.copy(), eta=term.eta.copy())
    sols = [solve_backward_sweep(Scenario(grid, gen, t, delay=delay), paths,
                                 RegressionBackend()) for t in (term, copied)]
    assert np.array_equal(sols[0].Y, sols[1].Y)
    assert np.array_equal(sols[0].Z, sols[1].Z)


@pytest.mark.parametrize("frozen_paths", [400, 600])
def test_a_frozen_process_of_another_path_count_raises_shape_mismatch(frozen_paths):
    grid = make_grid(1.0, 0.0, 0.25)
    scen = Scenario(grid, builtin_generator("linear_bsde", a=1.0),
                    constant_terminal(1.0))
    frozen = solve_backward_sweep(scen, sample_paths(grid, 1, 1, frozen_paths, seed=3),
                                  RegressionBackend())
    with pytest.raises(ShapeMismatch, match="frozen process holds a different path count"):
        solve_backward_sweep(scen, sample_paths(grid, 1, 1, 500, seed=3),
                             RegressionBackend(), frozen=frozen)


def _constant_f(value):
    return GeneratorSpec(name="constant_f", m=1, d=1, l=1,
                         f=lambda t, y, z, e: np.full((y.shape[0], 1), value),
                         g=lambda t, y, z, e: np.zeros((y.shape[0], 1, 1)),
                         lip=LipschitzData(c=0.0))


@pytest.mark.parametrize("generator,error,match", [
    (lambda: builtin_generator("example41_f1"), ValidationError, "no delay"),
    (lambda: _constant_f(np.nan), NonFinite, r"f\(t, 0, 0, 0\) is non-finite"),
    (lambda: _constant_f(np.inf), NonFinite, r"f\(t, 0, 0, 0\) is non-finite"),
], ids=["anticipates-without-delay", "f-nan", "f-inf"])
def test_make_scenario_rejects_a_generator_it_cannot_solve(generator, error, match):
    with pytest.raises(error, match=match):
        Scenario(make_grid(1.0, 0.5, 0.25), generator(), constant_terminal(1.0))


def _drift_scenario(h):
    return Scenario(make_grid(0.5, 0.5, h), builtin_generator("anticipated_drift"),
                    TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0}),
                    delay=DelaySpec(constant_delay(0.25), constant_delay(0.25)))


def test_a_replaced_scenario_derives_the_offsets_of_its_grid():
    fresh = _drift_scenario(1 / 4)
    copy = replace(_drift_scenario(1 / 8), grid=fresh.grid)
    assert np.array_equal(copy.offsets.d_delta, [1, 1, 1])
    assert np.array_equal(copy.offsets.d_zeta, fresh.offsets.d_zeta)
    tree = tree_for_grid(fresh.grid)
    y0 = [solve_backward_sweep(s, tree, tree.backend()).Y[:, 0, 0].mean()
          for s in (copy, fresh)]
    assert y0[0] == y0[1] == pytest.approx(1.5625, abs=1e-12)


def test_a_directly_built_scenario_solves():
    scen = _drift_scenario(1 / 4)
    tree = tree_for_grid(scen.grid)
    sol = solve_backward_sweep(scen, tree, tree.backend())
    assert np.abs(sol.Y - oracle_solve(scen, tree).Y).max() <= 1e-10


def test_a_scenario_field_cannot_be_assigned():
    scen = _drift_scenario(1 / 4)
    with pytest.raises(FrozenInstanceError):
        scen.grid = make_grid(0.5, 0.5, 1 / 8)


def test_a_scenario_derives_its_offsets_and_takes_none():
    assert "offsets" not in inspect.signature(Scenario).parameters
    scen = _drift_scenario(1 / 4)
    with pytest.raises(TypeError, match="offsets"):
        Scenario(scen.grid, scen.generator, scen.terminal, delay=scen.delay,
                 offsets=scen.offsets)


# on the grid make_grid(1.0, 0.5, 0.25) the terminal window has 3 nodes
@pytest.mark.parametrize("xi,eta,error,match", [
    (np.ones((4, 3)), np.zeros((4, 3, 1, 1)), ShapeMismatch, "xi must be"),
    (np.ones((4, 2, 1)), np.zeros((4, 3, 1, 1)), ShapeMismatch, "xi must be"),
    (np.ones((4, 3, 1)), np.zeros((4, 3, 1)), ShapeMismatch, "eta must be"),
    (np.ones((4, 3, 1)), np.zeros((4, 4, 1, 1)), ShapeMismatch, "eta must be"),
    (np.full((4, 3, 1), np.nan), np.zeros((4, 3, 1, 1)), NonFinite, "non-finite"),
    (np.ones((4, 3, 1)), np.full((4, 3, 1, 1), np.inf), NonFinite, "non-finite"),
], ids=["xi-ndim", "xi-nodes", "eta-ndim", "eta-nodes", "xi-nan", "eta-inf"])
def test_terminal_data_that_break_a_rule_raise(xi, eta, error, match):
    with pytest.raises(error, match=match):
        TerminalData(make_grid(1.0, 0.5, 0.25), xi, eta)


@pytest.mark.parametrize("name", ["scaled_wt", "scaled_b_tail"])
def test_a_path_reading_terminal_is_scalar(name):
    grid = make_grid(1.0, 0.5, 0.25)
    with pytest.raises(ShapeMismatch, match="scalar"):
        TerminalSpec(name=name, params={"a": 1.0}).build(
            grid, sample_paths(grid, 1, 1, 16, seed=1), m=2, d=1)
