import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abdsde.comparison import check_monotone_chain, ComparisonReport, run_comparison
from abdsde.condexp import RegressionBackend
from abdsde.delays import constant_delay, DelaySpec
from abdsde.errors import TerminalOrderViolated, ValidationError
from abdsde.generators import (AnticipationFunctional, builtin_generator,
                               GeneratorSpec, LipschitzData)
from abdsde.grids import make_grid
from abdsde.paths import sample_paths
from abdsde.scenario import make_scenario
from abdsde.solver import solve_backward_sweep
from abdsde.terminal import constant_terminal, TerminalSpec
from abdsde.tree import tree_for_grid


def test_identical_scenarios_zero_margins():
    grid = make_grid(1.0, 0.0, 0.25)
    scen = make_scenario(grid, builtin_generator("linear_bsde", a=1.0, rho=1.0),
                         constant_terminal(1.0))
    paths = sample_paths(grid, 1, 1, 512, seed=11)
    report = run_comparison(scen, scen, paths, RegressionBackend(),
                            epsilon=0.0, calibrate=False)
    assert np.all(report.margins == 0.0)
    assert report.violation_fraction(0.0) == 0.0


def test_linear_pair_margin_matches_closed_form():
    # f1 = y + 1, f2 = y, same terminal: margin at 0 -> e - 1 as h -> 0
    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        grid = make_grid(1.0, 0.0, h)
        s1 = make_scenario(grid, builtin_generator("linear_bsde", a=1.0, rho=1.0),
                           constant_terminal(1.0))
        s2 = make_scenario(grid, builtin_generator("linear_bsde", a=1.0, rho=0.0),
                           constant_terminal(1.0))
        paths = sample_paths(grid, 1, 1, 128, seed=12)
        report = run_comparison(s1, s2, paths, RegressionBackend(),
                                epsilon=0.0, calibrate=False)
        errs.append(abs(report.mean_margin[0] - (math.e - 1.0)))
    assert errs[-1] <= 0.03
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_terminal_order_violated():
    grid = make_grid(1.0, 0.0, 0.25)
    s1 = make_scenario(grid, builtin_generator("zero"), constant_terminal(1.0))
    s2 = make_scenario(grid, builtin_generator("zero"), constant_terminal(1.5))
    paths = sample_paths(grid, 1, 1, 128, seed=13)
    with pytest.raises(TerminalOrderViolated):
        run_comparison(s1, s2, paths, RegressionBackend())


def _example41_pair(grid, delay_value, shift=0.5):
    delay = DelaySpec(constant_delay(delay_value), constant_delay(delay_value),
                      K=grid.K)
    base = {"a": 0.5, "b": 1.0}
    s1 = make_scenario(grid, builtin_generator("example41_f1"),
                       TerminalSpec(name="scaled_wt",
                                    params={"a": base["a"], "b": base["b"] + shift}),
                       delay=delay)
    s2 = make_scenario(grid, builtin_generator("example41_f2"),
                       TerminalSpec(name="scaled_wt", params=base),
                       delay=delay)
    return s1, s2


def test_example41_pair_tree_margins_nonnegative():
    grid = make_grid(0.6, 0.4, 0.2)
    tree = tree_for_grid(grid)
    s1, s2 = _example41_pair(grid, 0.4)
    report = run_comparison(s1, s2, tree.ensemble, tree.backend(),
                            epsilon=0.0, calibrate=False)
    assert report.margins.min() >= -1e-10
    assert report.violation_fraction(0.0) == 0.0


def test_example41_pair_monte_carlo_violations_vanish():
    grid = make_grid(0.5, 0.5, 1 / 32)
    s1, s2 = _example41_pair(grid, 0.5)
    paths = sample_paths(grid, 1, 1, 4096, seed=21)
    report = run_comparison(s1, s2, paths, RegressionBackend())
    assert report.epsilon > 0.0
    assert report.violation_fraction() == 0.0


@pytest.mark.parametrize("backend_kind,tolerance", [("tree", 0.0),
                                                    ("regression", 1e-12)])
def test_joint_sweep_matches_separate_sweeps(backend_kind, tolerance):
    # the pair's components never mix: the exact backend fits column by
    # column (bitwise equal); regression fits the wider block in one gemm
    if backend_kind == "tree":
        grid = make_grid(0.6, 0.4, 0.2)  # the 5-step tree
        tree = tree_for_grid(grid)
        paths, backend = tree.ensemble, tree.backend()
    else:
        grid = make_grid(0.5, 0.5, 1 / 32)
        paths, backend = sample_paths(grid, 1, 1, 4096, seed=21), RegressionBackend()
    s1, s2 = _example41_pair(grid, grid.K)
    report = run_comparison(s1, s2, paths, backend, calibrate=False)
    for joint, scen in ((report.sol1, s1), (report.sol2, s2)):
        alone = solve_backward_sweep(scen, paths, backend)
        assert np.abs(joint.Y.values - alone.Y.values).max() <= tolerance
        assert np.abs(joint.Z.values - alone.Z.values).max() <= tolerance
        resid = joint.metadata["ybar_residual_rms"]
        for k, rms in alone.metadata["ybar_residual_rms"].items():
            assert np.abs(np.subtract(resid[k], rms)).max() <= tolerance
        for key in ("l2_Y", "l2_Z"):
            assert joint.metadata[key] == pytest.approx(alone.metadata[key],
                                                        rel=1e-12, abs=0.0)


def test_joint_sweep_makes_one_condexp_call_per_node_per_ensemble(monkeypatch):
    solver_module = sys.modules["abdsde.solver"]
    comparison_module = sys.modules["abdsde.comparison"]
    counts = {"condexp": 0, "sweeps": 0}
    condexp, sweep = solver_module.condexp, comparison_module.solve_backward_sweep

    def counting_condexp(*args, **kwargs):
        counts["condexp"] += 1
        return condexp(*args, **kwargs)

    def counting_sweep(*args, **kwargs):
        counts["sweeps"] += 1
        return sweep(*args, **kwargs)

    monkeypatch.setattr(solver_module, "condexp", counting_condexp)
    monkeypatch.setattr(comparison_module, "solve_backward_sweep", counting_sweep)
    grid = make_grid(0.5, 0.5, 1 / 32)
    s1, s2 = _example41_pair(grid, 0.5)
    paths = sample_paths(grid, 1, 1, 1024, seed=21)
    run_comparison(s1, s2, paths, RegressionBackend())  # calibrates on the coarse grid
    assert counts == {"condexp": grid.n_T + grid.n_T // 2, "sweeps": 2}


def test_pair_must_share_delay_and_implicit_iters():
    grid = make_grid(0.6, 0.4, 0.2)
    tree = tree_for_grid(grid)
    s1, s2 = _example41_pair(grid, 0.4)
    shorter, _ = _example41_pair(grid, 0.2)
    iterated = make_scenario(grid, s2.generator, s2.terminal, delay=s2.delay,
                             implicit_iters=3)
    for other in (shorter, iterated):
        with pytest.raises(ValidationError):
            run_comparison(s1, other, tree.ensemble, tree.backend(),
                           calibrate=False)


def test_constant_component_gets_exactly_zero_z():
    # the first scenario's Y target is constant at every node, the second's
    # is not: one joint sweep, and only the constant component's Z is 0
    grid = make_grid(1.0, 0.0, 0.25)
    s1 = make_scenario(grid, builtin_generator("zero"), constant_terminal(5.0))
    s2 = make_scenario(grid, builtin_generator("linear_bsde", a=0.5, rho=0.0),
                       TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0}))
    paths = sample_paths(grid, 1, 1, 4096, seed=5)
    report = run_comparison(s1, s2, paths, RegressionBackend(), calibrate=False)
    assert np.all(report.sol1.Z.values == 0.0)
    assert np.all(report.sol1.Y.values == 5.0)
    assert np.all(report.sol2.Z.values[:, 0] != 0.0)


@settings(max_examples=50, deadline=None)
@given(eps=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=6))
def test_violation_fraction_nonincreasing(eps):
    rng = np.random.default_rng(0)
    margins = rng.normal(scale=0.5, size=(64, 5))
    report = ComparisonReport(times=np.arange(5.0), margins=margins,
                              epsilon=0.0, run_tolerance=0.0,
                              sol1=None, sol2=None)
    values = [report.violation_fraction(e) for e in sorted(eps)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert report.violation_fraction(np.inf) == 0.0


def test_no_anticipation_pair_with_shared_diffusion():
    # ordered drifts, same terminal, shared g = y + |z|/sqrt(3): the
    # ordering carries over with the self-calibrated threshold
    def pair_member(rho):
        base = builtin_generator("example41_g")
        return GeneratorSpec(
            name=f"ordered({rho})", m=1, d=1, l=1,
            f=lambda t, y, z, e: y + rho,
            g=base.g, functionals=(),
            lip=LipschitzData(c=1.0, alpha1=1.0 / 3.0))

    grid = make_grid(1.0, 0.0, 1 / 16)
    s1 = make_scenario(grid, pair_member(1.0), constant_terminal(1.0))
    s2 = make_scenario(grid, pair_member(0.0), constant_terminal(1.0))
    paths = sample_paths(grid, 1, 1, 4096, seed=17)
    report = run_comparison(s1, s2, paths, RegressionBackend())
    assert report.violation_fraction() == 0.0


def _affine_anticipated(a, b):
    phi = AnticipationFunctional(width=1, fn=lambda ya, za: ya)
    return GeneratorSpec(
        name=f"affine({a},{b})", m=1, d=1, l=1,
        f=lambda t, y, z, e: a * e + b,
        g=lambda t, y, z, e: np.zeros((y.shape[0], 1, 1)),
        functionals=(phi,), lip=LipschitzData(c=a * a))


def test_chain_example42_triple_passes():
    report = check_monotone_chain(builtin_generator("example42_f1"),
                                  builtin_generator("example42_ftilde"),
                                  builtin_generator("example42_f2"),
                                  samples=3000, seed=1)
    assert report.passed, str(report)


def test_chain_identity_between_shifts_passes():
    report = check_monotone_chain(_affine_anticipated(1.0, 1.0),
                                  _affine_anticipated(1.0, 0.0),
                                  _affine_anticipated(1.0, -1.0),
                                  samples=2000, seed=2)
    assert report.passed


def test_chain_decreasing_middle_fails():
    report = check_monotone_chain(_affine_anticipated(1.0, 100.0),
                                  _affine_anticipated(-1.0, 0.0),
                                  _affine_anticipated(1.0, -100.0),
                                  samples=2000, seed=3)
    assert not report.passed
    assert report.worst_monotone_gap < 0.0
