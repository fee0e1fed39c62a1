import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from abdsde.delays import affine_delay, constant_delay, DelaySpec
from abdsde.errors import TooLarge
from abdsde.generators import builtin_generator, CATALOG, GeneratorSpec
from abdsde.grids import make_grid
from abdsde.scenario import make_scenario
from abdsde.solver import solve_backward_sweep
from abdsde.terminal import TerminalData, TerminalSpec
from abdsde.tree import build_tree, oracle_solve, tree_for_grid, _tensor_condexp


def test_one_step_tree():
    tree = build_tree(1, 0.25)
    assert tree.n_atoms == 4 and tree.atom_probability == 0.25
    assert np.all(np.abs(tree.ensemble.dW) == 0.5)


def test_increment_moments_exact():
    tree = build_tree(3, 0.25)
    dW = tree.ensemble.dW[:, :, 0]
    dB = tree.ensemble.dB[:, :, 0]
    assert np.all(dW.mean(axis=0) == 0.0)
    assert np.all(dW.var(axis=0) == 0.25)
    assert np.all((dW * dB).mean(axis=0) == 0.0)
    # probabilities are uniform dyadic rationals summing to one exactly
    assert tree.n_atoms * tree.atom_probability == 1.0


def test_partition_block_counts():
    tree = build_tree(2, 0.25)
    for k, blocks in ((0, 4), (1, 4), (2, 4)):
        ids = tree.f_atom_ids(k)
        assert len(np.unique(ids)) == blocks


def test_too_large():
    with pytest.raises(TooLarge):
        build_tree(9, 0.1)


def _scalar_terminal(tree, xi_vals, eta_vals=None):
    grid = tree.grid
    k_nodes = grid.n_end - grid.n_T + 1
    A = tree.n_atoms
    xi = np.repeat(np.asarray(xi_vals, dtype=float)[:, None, None], k_nodes, axis=1)
    eta = np.zeros((A, k_nodes, 1, 1))
    if eta_vals is not None:
        eta[:] = np.asarray(eta_vals, dtype=float)[:, None, None, None]
    return TerminalData(grid=grid, xi=xi, eta=eta)


def test_oracle_martingale_representation_of_last_increment():
    # xi_T = dW_0 / sqrt(h) on the one-step tree: Y_0 = 0, Z_0 = 1/sqrt(h)
    h = 0.25
    tree = build_tree(1, h)
    gen = builtin_generator("zero")
    xi = tree.ensemble.dW[:, 0, 0] / np.sqrt(h)
    scen = make_scenario(tree.grid, gen, _scalar_terminal(tree, xi))
    sol = oracle_solve(scen, tree)
    assert sol.Y.values[:, 0, 0] == pytest.approx(0.0, abs=1e-14)
    assert sol.Z.values[:, 0, 0, 0] == pytest.approx(1 / np.sqrt(h), abs=1e-12)


def test_oracle_constant_terminal():
    tree = build_tree(3, 0.2)
    gen = builtin_generator("zero")
    scen = make_scenario(tree.grid, gen,
                         TerminalSpec(name="constant", params={"value": 2.5}))
    sol = oracle_solve(scen, tree)
    assert np.all(sol.Y.values == 2.5)
    assert np.all(sol.Z.values == 0.0)


def test_oracle_b_only_terminal_is_w_free_with_zero_z():
    # finite measurability statement: targets built from B alone give
    # Y constant across W branches and Z identically zero
    grid = make_grid(0.6, 0.2, 0.2)
    tree = tree_for_grid(grid)
    gen = builtin_generator("duality_linear", mu=0.2, mu_bar=0.1,
                            kappa=[0.2], rho=0.1)
    delay = DelaySpec(constant_delay(0.2), constant_delay(0.2), K=0.2)
    term = TerminalSpec(name="scaled_b_tail", params={"a": 0.7, "b": 1.0})
    scen = make_scenario(grid, gen, term, delay=delay)
    sol = oracle_solve(scen, tree)
    assert np.abs(sol.Z.values[:, : grid.n_T]).max() <= 1e-13
    for k in range(grid.n_T):
        ids = tree.f_atom_ids(k)
        y = sol.Y.values[:, k, 0]
        for gid in np.unique(ids):
            assert np.ptp(y[ids == gid]) <= 1e-15


def test_oracle_measurability_audit():
    grid = make_grid(0.6, 0.4, 0.2)
    tree = tree_for_grid(grid)
    gen = builtin_generator("example41_f1")
    delay = DelaySpec(constant_delay(0.4), constant_delay(0.4), K=0.4)
    term = TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0})
    scen = make_scenario(grid, gen, term, delay=delay)
    sol = oracle_solve(scen, tree)
    for k in range(grid.n_T):
        ids = tree.f_atom_ids(k)
        y = sol.Y.values[:, k, 0]
        z = sol.Z.values[:, k, 0, 0]
        for gid in np.unique(ids):
            assert np.ptp(y[ids == gid]) <= 1e-14
            assert np.ptp(z[ids == gid]) <= 1e-14


def test_oracle_telescoping_identity():
    # E[Y_0] = E[xi_T + h sum f_k + sum G_{k+1} dB_k], recomputed directly
    grid = make_grid(0.6, 0.4, 0.2)
    tree = tree_for_grid(grid)
    gen = builtin_generator("example41_f1")
    delay = DelaySpec(constant_delay(0.4), constant_delay(0.4), K=0.4)
    term = TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0})
    scen = make_scenario(grid, gen, term, delay=delay)
    sol = oracle_solve(scen, tree)
    Y = sol.Y.values[:, :, 0]
    Z = sol.Z.values[:, :, 0, 0]
    h = grid.h
    total = Y[:, grid.n_T].copy()
    for k in range(grid.n_T):
        off = scen.offsets
        e_raw_next = gen.eval_functionals(
            Y[:, k + 1 + off.d_delta[k + 1]][:, None],
            Z[:, k + 1 + off.d_zeta[k + 1]][:, None, None])
        g_val = gen.g(grid.time(k + 1), Y[:, k + 1][:, None],
                      Z[:, k + 1][:, None, None], e_raw_next)
        total += np.asarray(g_val)[:, 0, 0] * tree.ensemble.dB[:, k, 0]
        e_k_raw = gen.eval_functionals(
            Y[:, k + off.d_delta[k]][:, None],
            Z[:, k + off.d_zeta[k]][:, None, None])
        e_k = np.column_stack([
            _tensor_condexp(e_k_raw[:, j], k, tree.n)
            for j in range(gen.q_total)])
        f_val = gen.f(grid.time(k), Y[:, k][:, None],
                      Z[:, k][:, None, None], e_k)
        total += h * np.asarray(f_val)[:, 0]
    assert abs(Y[:, 0].mean() - total.mean()) <= 1e-10


def test_monte_carlo_pipeline_consistent_with_tree_enumeration():
    # same grid, same scheme: the two-point enumeration and the Gaussian
    # regression solver may differ only by weak-approximation + Monte Carlo
    # error, a few percent here
    grid = make_grid(0.5, 0.5, 0.125)
    tree = tree_for_grid(grid)
    delay = DelaySpec(constant_delay(0.5), constant_delay(0.5), K=0.5)
    term = TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0})
    scen = make_scenario(grid, builtin_generator("example41_f1"), term,
                         delay=delay)
    y0_tree = solve_backward_sweep(
        scen, tree.ensemble, tree.backend()).Y.values[:, 0, 0].mean()

    from abdsde.condexp import RegressionBackend
    from abdsde.paths import sample_paths
    paths = sample_paths(grid, 1, 1, 20000, seed=33)
    y0_mc = solve_backward_sweep(
        scen, paths, RegressionBackend()).Y.values[:, 0, 0].mean()
    assert abs(y0_tree - y0_mc) <= 0.05


@pytest.mark.parametrize("name,params", [
    ("zero", {}),
    ("linear_bsde", {"a": 1.0, "rho": 1.0}),
    ("example41_f1", {}),
    ("anticipated_drift", {}),
])
def test_solver_with_exact_backend_matches_oracle(name, params):
    grid = make_grid(0.6, 0.4, 0.2)
    tree = tree_for_grid(grid)
    gen = builtin_generator(name, **params)
    delay = DelaySpec(constant_delay(0.4), constant_delay(0.4), K=0.4)
    term = TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0})
    scen = make_scenario(grid, gen, term,
                         delay=delay if gen.anticipates else None)
    sweep = solve_backward_sweep(scen, tree.ensemble, tree.backend())
    exact = oracle_solve(scen, tree)
    assert np.abs(sweep.Y.values - exact.Y.values).max() <= 1e-10
    assert np.abs(sweep.Z.values - exact.Z.values).max() <= 1e-10


def test_oracle_evaluates_each_nodes_functionals_once(monkeypatch):
    # node k's raw functionals are reused as node k-1's g input
    grid = make_grid(0.6, 0.4, 0.2)
    tree = tree_for_grid(grid)
    delay = DelaySpec(constant_delay(0.4), constant_delay(0.4), K=0.4)
    scen = make_scenario(grid, builtin_generator("example41_f1"),
                         TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0}),
                         delay=delay)
    calls = []
    method = GeneratorSpec.eval_functionals

    def counting(self, *args, **kwargs):
        calls.append(1)
        return method(self, *args, **kwargs)

    monkeypatch.setattr(GeneratorSpec, "eval_functionals", counting)
    oracle_solve(scen, tree)
    assert len(calls) == grid.n_T + 1


_TERMINAL_PARAMS = {"constant": ("value", "eta"), "affine": ("value", "slope", "eta"),
                    "scaled_wt": ("a", "b", "eta"), "scaled_b_tail": ("a", "b", "eta")}
_COEFFICIENT = st.floats(-0.5, 0.5, allow_nan=False)


@st.composite
def _catalog_scenarios(draw):
    """A catalog generator with drawn parameters, a terminal kind, a delay
    pair delta != zeta (each constant or affine) and implicit_iters, on a
    grid of at most 6 steps (4096 atoms) with an anticipation window >= 2."""
    h = 0.125
    n_T = draw(st.integers(1, 4))
    n_K = draw(st.integers(2, 6 - n_T))
    grid = make_grid(n_T * h, n_K * h, h)

    def delay_form():
        if draw(st.booleans()):
            return constant_delay(draw(st.integers(1, n_K)) * h)
        j = draw(st.integers(1, n_K - 1))
        return affine_delay(j * h, draw(st.floats(0.1, 0.9)) * (n_K - j) / n_T)

    delta, zeta = delay_form(), delay_form()
    assume(delta != zeta)
    name = draw(st.sampled_from(sorted(CATALOG)))
    params = {key: ([draw(_COEFFICIENT)] if isinstance(default, tuple)
                    else draw(_COEFFICIENT))
              for key, default in CATALOG[name][0].items()}
    kind = draw(st.sampled_from(sorted(_TERMINAL_PARAMS)))
    terminal = TerminalSpec(name=kind, params={
        key: draw(_COEFFICIENT) for key in _TERMINAL_PARAMS[kind]})
    return make_scenario(grid, builtin_generator(name, **params), terminal,
                         delay=DelaySpec(delta, zeta, K=grid.K),
                         implicit_iters=draw(st.sampled_from((1, 3))))


@pytest.mark.filterwarnings("ignore:anticipation times are off-grid")
@settings(max_examples=150, deadline=None)
@given(scen=_catalog_scenarios())
def test_solver_matches_oracle_across_the_catalog(scen):
    # every generator x terminal kind x delay pair x implicit_iters; this
    # also guards the per-component zero-Z shortcut for constant Y targets
    tree = tree_for_grid(scen.grid)
    sweep = solve_backward_sweep(scen, tree.ensemble, tree.backend())
    exact = oracle_solve(scen, tree)
    assert np.abs(sweep.Y.values - exact.Y.values).max() <= 1e-10
    assert np.abs(sweep.Z.values - exact.Z.values).max() <= 1e-10
