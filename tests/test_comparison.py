import math
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abdsde import cli
from abdsde import comparison
from abdsde.comparison import (_coarse_scenario, _joint_scenario, _stack_generators,
                               check_monotone_chain,
                               ComparisonReport, reduce_margin, run_comparison)
from abdsde.condexp import RegressionBackend
from abdsde.delays import constant_delay, DelaySpec
from abdsde.errors import TerminalOrderViolated, ValidationError
from abdsde.generators import builtin_generator, GeneratorSpec, LipschitzData
from abdsde.grids import make_grid
from abdsde.paths import sample_paths
from abdsde.scenario import make_scenario
from abdsde.solver import solve_backward_sweep
from abdsde.terminal import broadcast_base, constant_terminal, TerminalSpec
from abdsde.tree import tree_for_grid


def test_identical_scenarios_zero_margins():
    grid = make_grid(1.0, 0.0, 0.25)
    scen = make_scenario(grid, builtin_generator("linear_bsde", a=1.0, rho=1.0),
                         constant_terminal(1.0))
    paths = sample_paths(grid, 1, 1, 512, seed=11)
    report = replace(run_comparison(scen, scen, paths, RegressionBackend()),
                     epsilon=0.0)
    # min 0 and mean 0: every margin is 0
    assert np.all(report.min_margin == 0.0) and np.all(report.mean_margin == 0.0)
    assert not any(neg.size for neg in report.negatives)
    assert report.violation_fraction() == 0.0


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
        report = run_comparison(s1, s2, paths, RegressionBackend())
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
    delay = DelaySpec(constant_delay(delay_value), constant_delay(delay_value))
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
    report = replace(run_comparison(s1, s2, tree, tree.backend()), epsilon=0.0)
    assert report.min_margin.min() >= -1e-10
    assert report.violation_fraction() == 0.0


def test_exact_backend_run_tolerance_is_zero():
    # an even grid that would coarsen: the exact backend has no regression
    # noise and no coarser tree to refine against, so eps* is 0
    grid = make_grid(0.8, 0.4, 0.2)
    tree = tree_for_grid(grid)
    s1, s2 = _example41_pair(grid, 0.4)
    report = run_comparison(s1, s2, tree, tree.backend())
    assert report.run_tolerance == 0.0 and report.epsilon == 0.0
    assert report.passed


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
        paths, backend = tree, tree.backend()
    else:
        grid = make_grid(0.5, 0.5, 1 / 32)
        paths, backend = sample_paths(grid, 1, 1, 4096, seed=21), RegressionBackend()
    s1, s2 = _example41_pair(grid, grid.K)
    joint = solve_backward_sweep(_joint_scenario(s1, s2, paths), paths, backend)
    joint_resid = joint.metadata["ybar_residual_rms"]
    alone = [solve_backward_sweep(scen, paths, backend) for scen in (s1, s2)]
    for part, sol in enumerate(alone):
        assert np.abs(joint.Y[:, :, part] - sol.Y[:, :, 0]).max() <= tolerance
        assert np.abs(joint.Z[:, :, part] - sol.Z[:, :, 0]).max() <= tolerance
        for k, rms in sol.metadata["ybar_residual_rms"].items():
            assert abs(joint_resid[k][part] - rms[0]) <= tolerance
    report = run_comparison(s1, s2, paths, backend)
    # row-major, so each column's mean sums down the paths as the report's does
    separate = np.ascontiguousarray(alone[0].Y[:, :, 0] - alone[1].Y[:, :, 0])
    assert np.abs(report.mean_margin - separate.mean(axis=0)).max() <= 2 * tolerance
    assert np.abs(report.min_margin - separate.min(axis=0)).max() <= 2 * tolerance
    # reduced node by node, the summaries keep the bits of the whole solution's
    _assert_reduces_bit_for_bit(report, joint.Y[:, :, 0] - joint.Y[:, :, 1])


def _assert_reduces_bit_for_bit(report, margins):
    """The report's summaries are the dense reduction of the (P, n_nodes)
    `margins`, held row-major, bit for bit."""
    margins = np.ascontiguousarray(margins)
    below = margins < -report.epsilon
    assert np.array_equal(report.mean_margin, margins.mean(axis=0))
    assert np.array_equal(report.min_margin, margins.min(axis=0))
    assert np.array_equal(report.violation_fraction_per_node(), below.mean(axis=0))
    assert report.violation_fraction() == float(np.mean(below))
    for k, neg in enumerate(report.negatives):
        assert np.array_equal(neg, margins[:, k][margins[:, k] < 0.0])


@pytest.mark.parametrize("epsilon", [0.0, 0.01, 0.05])
def test_reduced_margins_keep_the_bits_of_the_dense_reduction(epsilon):
    # a violating pair: at a = 0.9 the regression noise outweighs the
    # terminal shift 0.1, so some margins are below -0.05 too
    grid = make_grid(1.0, 0.5, 1 / 32)
    delay = DelaySpec(constant_delay(0.5), constant_delay(0.5))
    s1, s2 = (make_scenario(grid, builtin_generator(name), TerminalSpec(
        name="scaled_wt", params={"a": 0.9, "b": b}), delay=delay)
        for name, b in (("example41_f1", 1.1), ("example41_f2", 1.0)))
    paths = sample_paths(grid, 1, 1, 2000, seed=8)
    joint = solve_backward_sweep(_joint_scenario(s1, s2, paths), paths,
                                 RegressionBackend())
    margins = joint.Y[:, :, 0] - joint.Y[:, :, 1]
    assert (margins < -0.05).any()
    report = replace(run_comparison(s1, s2, paths, RegressionBackend()),
                     epsilon=epsilon)
    _assert_reduces_bit_for_bit(report, margins)


@pytest.mark.parametrize("epsilon", [-1e-3, -np.inf, np.nan])
def test_a_negative_or_nan_epsilon_is_rejected(epsilon):
    grid = make_grid(1.0, 0.0, 0.25)
    scen = make_scenario(grid, builtin_generator("zero"), constant_terminal(1.0))
    paths = sample_paths(grid, 1, 1, 128, seed=11)
    report = run_comparison(scen, scen, paths, RegressionBackend())
    with pytest.raises(ValidationError, match="epsilon must be >= 0"):
        replace(report, epsilon=epsilon)
    for kept in (0.0, np.inf):
        assert replace(report, epsilon=kept).passed


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


def test_coarse_sweep_runs_first_and_its_ensemble_is_gone_before_the_fine_one(monkeypatch):
    # the calibration keeps only the coarse Y_0 means: the coarse ensemble is
    # freed before the fine sweep allocates its ring
    comparison_module = sys.modules["abdsde.comparison"]
    sweeps, coarse = [], []
    sweep = comparison_module.solve_backward_sweep

    def recording(scenario, paths, backend, **kwargs):
        if coarse:
            sweeps.append((paths.grid.n_steps, coarse[0]() is None))
        else:
            coarse.append(weakref.ref(paths))
            sweeps.append((paths.grid.n_steps, None))
        return sweep(scenario, paths, backend, **kwargs)

    monkeypatch.setattr(comparison_module, "solve_backward_sweep", recording)
    grid = make_grid(0.5, 0.5, 1 / 32)
    s1, s2 = _example41_pair(grid, 0.5)
    paths = sample_paths(grid, 1, 1, 1024, seed=21)
    run_comparison(s1, s2, paths, RegressionBackend())
    assert sweeps == [(grid.n_steps // 2, None), (grid.n_steps, True)]


def test_joint_terminal_data_holds_no_window_sized_buffer():
    # the pair's xi and eta are stored only along the axes a part varies
    # along (paths for scaled_wt, nothing for eta) and broadcast over the rest
    grid = make_grid(0.5, 0.5, 1 / 32)
    s1, s2 = _example41_pair(grid, 0.5)
    paths = sample_paths(grid, 1, 1, 4096, seed=21)
    m, k_nodes = 2, grid.n_end - grid.n_T + 1
    window_bytes = 8 * paths.n_paths * k_nodes * m
    s1.terminal_data(paths)  # builds the ensemble's own forward-sum state
    tracemalloc.start()
    try:
        term = _joint_scenario(s1, s2, paths).terminal
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < window_bytes / 2, peak
    assert term.xi.shape == (paths.n_paths, k_nodes, m)
    assert term.eta.shape == (paths.n_paths, k_nodes, m, 1)
    assert broadcast_base(term.xi).shape == (paths.n_paths, 1, m)
    assert broadcast_base(term.eta).shape == (1, 1, m, 1)
    for part, scen in enumerate((s1, s2)):
        alone = scen.terminal_data(paths)
        assert np.array_equal(term.xi[:, :, part], alone.xi[:, :, 0])
        assert np.array_equal(term.eta[:, :, part], alone.eta[:, :, 0])


EXAMPLE41_COMPARE = str(Path(__file__).resolve().parents[1] / "scenarios"
                        / "example41_compare.yaml")

#: Bound on the comparison's tracemalloc peak over the bytes it must hold.
#: A whole solution of either grid is 97 or 49 node slots, and a window of
#: (Y, Z) for the largest offset 33 or 17, against one node of each.
PEAK_OVER_HELD = 1.4


def _pending_functionals(scen) -> int:
    """Nodes whose raw functionals a node-by-node sweep holds at once: those
    evaluated from a later node but not yet read, 1 + the largest offset."""
    off = scen.offsets
    return 1 + int(max(off.d_delta.max(), off.d_zeta.max()))


def test_comparison_peak_memory_stays_near_functionals():
    # both sweeps reduce node by node and keep of each node's margin only
    # summaries: the call holds each sweep's pending functionals and its one
    # node of (Y, Z) (delta = zeta); the coarsening stores no increments
    P = 20000
    config = cli._read_config(EXAMPLE41_COMPARE)
    config["grid"] = {"T": 1.0, "K": 0.5, "h": 1 / 64}  # the compare_refine shape
    config["paths"]["count"] = P
    built = cli._build_all(config)
    grid, gen = built.grid, built.scenario.generator
    coarse_grid = make_grid(grid.T, grid.K, 2 * grid.h)
    m = gen.m + built.compare.generator.m
    q = gen.q_total + built.compare.generator.q_total
    assert built.scenario.delay.delta == built.scenario.delay.zeta
    sweeps = (built.scenario, _coarse_scenario(built.scenario, coarse_grid))
    held = 8 * P * sum(m * (1 + gen.d) + q * _pending_functionals(s) for s in sweeps)
    paths = cli._paths(built)
    tracemalloc.start()
    try:
        report = run_comparison(built.scenario, built.compare, paths, built.backend)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # per-node summaries, and along the paths only each node's negative margins
    assert report.mean_margin.shape == report.min_margin.shape == (grid.n_nodes,)
    assert len(report.negatives) == grid.n_nodes
    assert peak < PEAK_OVER_HELD * held, peak / held


def test_pair_must_share_delay_and_implicit_iters():
    grid = make_grid(0.6, 0.4, 0.2)
    tree = tree_for_grid(grid)
    s1, s2 = _example41_pair(grid, 0.4)
    shorter, _ = _example41_pair(grid, 0.2)
    iterated = make_scenario(grid, s2.generator, s2.terminal, delay=s2.delay,
                             implicit_iters=3)
    for other in (shorter, iterated):
        with pytest.raises(ValidationError):
            run_comparison(s1, other, tree, tree.backend())


def test_constant_component_gets_exactly_zero_z():
    # the first scenario's Y target is constant at every node, the second's
    # is not: one joint sweep, and only the constant component's Z is 0
    grid = make_grid(1.0, 0.0, 0.25)
    s1 = make_scenario(grid, builtin_generator("zero"), constant_terminal(5.0))
    s2 = make_scenario(grid, builtin_generator("linear_bsde", a=0.5, rho=0.0),
                       TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0}))
    paths = sample_paths(grid, 1, 1, 4096, seed=5)
    joint = solve_backward_sweep(_joint_scenario(s1, s2, paths), paths,
                                 RegressionBackend())
    assert np.all(joint.Z[:, :, 0] == 0.0)
    assert np.all(joint.Y[:, :, 0] == 5.0)
    assert np.all(joint.Z[:, 0, 1] != 0.0)


@settings(max_examples=50, deadline=None)
@given(eps=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=6))
def test_violation_fraction_nonincreasing(eps):
    rng = np.random.default_rng(0)
    margins = rng.normal(scale=0.5, size=(64, 5))
    mean, low, negatives = zip(*(reduce_margin(margins[:, k]) for k in range(5)))

    def report(e):
        return ComparisonReport(mean_margin=np.array(mean), min_margin=np.array(low),
                                negatives=list(negatives), n_paths=64, epsilon=e,
                                run_tolerance=0.0)

    values = [report(e).violation_fraction() for e in sorted(eps)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] == float(np.mean(margins < -sorted(eps)[0]))
    assert report(np.inf).violation_fraction() == 0.0


def test_no_anticipation_pair_with_shared_diffusion():
    # ordered drifts, same terminal, shared g = y + |z|/sqrt(3): the
    # ordering carries over with the self-calibrated threshold
    def pair_member(rho):
        base = builtin_generator("example41_g")
        return GeneratorSpec(
            name=f"ordered({rho})", m=1, d=1, l=1,
            f=lambda t, y, z, e: y + rho,
            g=base.g, lip=LipschitzData(c=1.0, alpha1=1.0 / 3.0))

    grid = make_grid(1.0, 0.0, 1 / 16)
    s1 = make_scenario(grid, pair_member(1.0), constant_terminal(1.0))
    s2 = make_scenario(grid, pair_member(0.0), constant_terminal(1.0))
    paths = sample_paths(grid, 1, 1, 4096, seed=17)
    report = run_comparison(s1, s2, paths, RegressionBackend())
    assert report.violation_fraction() == 0.0


def _affine_anticipated(a, b):
    return GeneratorSpec(
        name=f"affine({a},{b})", m=1, d=1, l=1,
        f=lambda t, y, z, e: a * e + b,
        g=lambda t, y, z, e: np.zeros((y.shape[0], 1, 1)),
        lip=LipschitzData(c=a * a), phi=lambda ya, za: ya)


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


@pytest.mark.parametrize("dims", [{"d": 2}, {"l": 2}], ids=["d2", "l2"])
def test_a_pair_with_other_driver_dimensions_raises(dims):
    grid = make_grid(1.0, 0.0, 0.25)
    first = make_scenario(grid, builtin_generator("zero"), constant_terminal(1.0))
    second = make_scenario(grid, builtin_generator("zero", **dims), constant_terminal(1.0))
    with pytest.raises(ValidationError, match="share the driver dimensions"):
        run_comparison(first, second, sample_paths(grid, 1, 1, 256, seed=1),
                       RegressionBackend())


@pytest.mark.parametrize("m1,m2", [(1, 2), (2, 3)])
def test_a_pair_with_other_component_counts_raises_before_any_sweep(m1, m2, monkeypatch):
    # with m1 = 1 against m2 = 2 the margin Y1 - Y2 broadcast: mean_margin
    # read [4, 3.5, 3, 2.5, 2], twice the true [2, 1.75, 1.5, 1.25, 1], and
    # passed; m1 = 2 against m2 = 3 raised numpy's ValueError in the fine
    # sweep, after the whole coarse sweep had run
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept")

    grid = make_grid(1.0, 0.0, 0.25)
    first = make_scenario(grid, builtin_generator("linear_bsde", m=m1, a=0.0, rho=1.0),
                          constant_terminal(2.0))
    second = make_scenario(grid, builtin_generator("linear_bsde", m=m2, a=0.0, rho=0.0),
                           constant_terminal(1.0))
    monkeypatch.setattr(comparison, "solve_backward_sweep", no_sweep)
    with pytest.raises(ValidationError, match="share the driver dimensions"):
        run_comparison(first, second, sample_paths(grid, 1, 1, 200, seed=1),
                       RegressionBackend())


def test_stacked_values_keep_the_bits_of_a_row_major_concatenate():
    # the pair's f, g and phi join their parts column-major, the layout of
    # the sweep's target block; the reference is the row-major concatenate
    d, l, P = 2, 3, 50
    gen1 = builtin_generator("duality_linear", d=d, l=l, mu=0.1, mu_bar=0.05,
                             sigma=[0.1, 0.2], sigma_bar=[0.03, 0.0],
                             kappa=[0.1, 0.2, 0.3], rho=0.2)
    gen2 = builtin_generator("example41_f2", d=d, l=l)
    pair = _stack_generators(gen1, gen2)
    rng = np.random.default_rng(3)
    y = rng.standard_normal((P, 2))
    z = rng.standard_normal((P, 2, d))
    e = rng.standard_normal((P, pair.q_total))
    p1, p2 = slice(0, 1), slice(1, 2)
    e1, e2 = slice(0, gen1.q_total), slice(gen1.q_total, None)
    for name in ("f", "g"):
        c1, c2 = getattr(gen1, name), getattr(gen2, name)
        want = np.concatenate([c1(0.5, y[:, p1], z[:, p1], e[:, e1]),
                               c2(0.5, y[:, p2], z[:, p2], e[:, e2])], axis=1)
        got = getattr(pair, name)(0.5, y, z, e)
        assert got.flags.f_contiguous, name
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    want = np.concatenate([gen1.phi(y[:, p1], z[:, p1]), gen2.phi(y[:, p2], z[:, p2])],
                          axis=1)
    got = pair.phi(y, z)
    assert got.flags.f_contiguous
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
