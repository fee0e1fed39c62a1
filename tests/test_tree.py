from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from abdsde.delays import affine_delay, constant_delay, DelaySpec
from abdsde.errors import NotMeasurable, TooLarge
from abdsde.generators import builtin_generator, CATALOG, GeneratorSpec
from abdsde.grids import make_grid
from abdsde.scenario import make_scenario
from abdsde.solver import solve_backward_sweep
from abdsde.terminal import TerminalData, TerminalSpec
from abdsde.tree import build_tree, oracle_solve, tree_for_grid
from tree_helpers import _reference_f_atom_ids, _tensor_condexp, stacked_steps


def test_one_step_tree():
    tree = build_tree(1, 0.25)
    assert tree.n_atoms == 4 and tree.atom_probability == 0.25
    dW, _ = stacked_steps(tree.ensemble)
    assert np.all(np.abs(dW) == 0.5)


def test_increment_moments_exact():
    tree = build_tree(3, 0.25)
    dW, dB = (inc[:, :, 0] for inc in stacked_steps(tree.ensemble))
    assert np.all(dW.mean(axis=0) == 0.0)
    assert np.all(dW.var(axis=0) == 0.25)
    assert np.all((dW * dB).mean(axis=0) == 0.0)
    # probabilities are uniform dyadic rationals summing to one exactly
    assert tree.n_atoms * tree.atom_probability == 1.0


def test_atom_index_bits_sign_the_increments():
    # bit j of the atom index signs W's step j, bit n + j signs B's
    n = 3
    tree = build_tree(n, 0.25)
    atoms = np.arange(tree.n_atoms)
    dW, dB = stacked_steps(tree.ensemble)
    for j in range(n):
        assert np.array_equal(dW[:, j, 0] > 0, (atoms >> j) & 1 == 1)
        assert np.array_equal(dB[:, j, 0] > 0, (atoms >> (n + j)) & 1 == 1)
    assert np.all(np.abs(dW) == 0.5)
    assert np.all(np.abs(dB) == 0.5)


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
    dW, _ = stacked_steps(tree.ensemble)
    xi = dW[:, 0, 0] / np.sqrt(h)
    scen = make_scenario(tree.grid, gen, _scalar_terminal(tree, xi))
    sol = oracle_solve(scen, tree)
    assert sol.Y[:, 0, 0] == pytest.approx(0.0, abs=1e-14)
    assert sol.Z[:, 0, 0, 0] == pytest.approx(1 / np.sqrt(h), abs=1e-12)


def test_oracle_constant_terminal():
    tree = build_tree(3, 0.2)
    gen = builtin_generator("zero")
    scen = make_scenario(tree.grid, gen,
                         TerminalSpec(name="constant", params={"value": 2.5}))
    sol = oracle_solve(scen, tree)
    assert np.all(sol.Y == 2.5)
    assert np.all(sol.Z == 0.0)


def test_oracle_b_only_terminal_is_w_free_with_zero_z():
    # finite measurability statement: targets built from B alone give
    # Y constant across W branches and Z identically zero
    grid = make_grid(0.6, 0.2, 0.2)
    tree = tree_for_grid(grid)
    gen = builtin_generator("duality_linear", mu=0.2, mu_bar=0.1,
                            kappa=[0.2], rho=0.1)
    delay = DelaySpec(constant_delay(0.2), constant_delay(0.2))
    term = TerminalSpec(name="scaled_b_tail", params={"a": 0.7, "b": 1.0})
    scen = make_scenario(grid, gen, term, delay=delay)
    sol = oracle_solve(scen, tree)
    assert np.abs(sol.Z[:, : grid.n_T]).max() <= 1e-13
    for k in range(grid.n_T):
        ids = tree.f_atom_ids(k)
        y = sol.Y[:, k, 0]
        for gid in np.unique(ids):
            assert np.ptp(y[ids == gid]) <= 1e-15


def test_oracle_measurability_audit():
    grid = make_grid(0.6, 0.4, 0.2)
    tree = tree_for_grid(grid)
    gen = builtin_generator("example41_f1")
    delay = DelaySpec(constant_delay(0.4), constant_delay(0.4))
    term = TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0})
    scen = make_scenario(grid, gen, term, delay=delay)
    sol = oracle_solve(scen, tree)
    for k in range(grid.n_T):
        ids = tree.f_atom_ids(k)
        y = sol.Y[:, k, 0]
        z = sol.Z[:, k, 0, 0]
        for gid in np.unique(ids):
            assert np.ptp(y[ids == gid]) <= 1e-14
            assert np.ptp(z[ids == gid]) <= 1e-14


def test_oracle_telescoping_identity():
    # E[Y_0] = E[xi_T + h sum f_k + sum G_{k+1} dB_k], recomputed directly
    grid = make_grid(0.6, 0.4, 0.2)
    tree = tree_for_grid(grid)
    gen = builtin_generator("example41_f1")
    delay = DelaySpec(constant_delay(0.4), constant_delay(0.4))
    term = TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0})
    scen = make_scenario(grid, gen, term, delay=delay)
    sol = oracle_solve(scen, tree)
    Y = sol.Y[:, :, 0]
    Z = sol.Z[:, :, 0, 0]
    h = grid.h
    _, dB = stacked_steps(tree.ensemble)
    total = Y[:, grid.n_T].copy()
    for k in range(grid.n_T):
        off = scen.offsets
        e_raw_next = gen.eval_functionals(
            Y[:, k + 1 + off.d_delta[k + 1]][:, None],
            Z[:, k + 1 + off.d_zeta[k + 1]][:, None, None])
        g_val = gen.g(grid.time(k + 1), Y[:, k + 1][:, None],
                      Z[:, k + 1][:, None, None], e_raw_next)
        total += np.asarray(g_val)[:, 0, 0] * dB[:, k, 0]
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
    delay = DelaySpec(constant_delay(0.5), constant_delay(0.5))
    term = TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0})
    scen = make_scenario(grid, builtin_generator("example41_f1"), term,
                         delay=delay)
    y0_tree = solve_backward_sweep(
        scen, tree.ensemble, tree.backend()).Y[:, 0, 0].mean()

    from abdsde.condexp import RegressionBackend
    from abdsde.paths import sample_paths
    paths = sample_paths(grid, 1, 1, 20000, seed=33)
    y0_mc = solve_backward_sweep(
        scen, paths, RegressionBackend()).Y[:, 0, 0].mean()
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
    delay = DelaySpec(constant_delay(0.4), constant_delay(0.4))
    term = TerminalSpec(name="scaled_wt", params={"a": 0.5, "b": 1.0})
    scen = make_scenario(grid, gen, term,
                         delay=delay if gen.anticipates else None)
    sweep = solve_backward_sweep(scen, tree.ensemble, tree.backend())
    exact = oracle_solve(scen, tree)
    assert np.abs(sweep.Y - exact.Y).max() <= 1e-10
    assert np.abs(sweep.Z - exact.Z).max() <= 1e-10


def test_oracle_evaluates_each_nodes_functionals_once(monkeypatch):
    # node k's raw functionals are reused as node k-1's g input
    grid = make_grid(0.6, 0.4, 0.2)
    tree = tree_for_grid(grid)
    delay = DelaySpec(constant_delay(0.4), constant_delay(0.4))
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
                         delay=DelaySpec(delta, zeta),
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
    assert np.abs(sweep.Y - exact.Y).max() <= 1e-10
    assert np.abs(sweep.Z - exact.Z).max() <= 1e-10


@pytest.mark.filterwarnings("ignore:anticipation times are off-grid")
@settings(max_examples=60, deadline=None)
@given(scen=_catalog_scenarios())
def test_oracle_hands_each_node_once_as_its_tensor(scen):
    # given on_node, the oracle hands node k's tensors of 2^n values, from
    # n_end down to 0, and returns nothing; broadcast to the atoms they are
    # the returned solution's bits
    tree = tree_for_grid(scen.grid)
    n = tree.n
    handed = []
    assert oracle_solve(scen, tree, on_node=lambda k, y, z: handed.append((k, y, z))) is None
    assert [k for k, _, _ in handed] == list(range(scen.grid.n_end, -1, -1))
    exact = oracle_solve(scen, tree)
    for k, y_k, z_k in handed:
        for tensor in (y_k, z_k):
            assert tensor.ndim == 2 * n and tensor.size == 2 ** n
        assert np.array_equal(np.broadcast_to(y_k, (2,) * (2 * n)).reshape(-1),
                              exact.Y[:, k, 0])
        assert np.array_equal(np.broadcast_to(z_k, (2,) * (2 * n)).reshape(-1),
                              exact.Z[:, k, 0, 0])


def _full_atom_oracle(scenario, tree):
    """The backward recursion with every node quantity held on all 4^n
    atoms, each conditional expectation a `_tensor_condexp`: the reference
    the node-tensor `oracle_solve` must reproduce.  Returns (Y, Z) as
    (A, n_nodes) arrays."""
    gen = scenario.generator
    grid = scenario.grid
    n, A, h = tree.n, tree.n_atoms, grid.h
    dW, dB = (inc[:, :, 0] for inc in stacked_steps(tree.ensemble))
    term = scenario.terminal_data(tree.ensemble)
    Y = np.zeros((A, grid.n_nodes))
    Z = np.zeros((A, grid.n_nodes))
    for k in range(grid.n_T, grid.n_end + 1):
        Y[:, k] = term.xi_at(k)[:, 0]
        Z[:, k] = term.eta_at(k)[:, 0, 0]

    def raw_functionals(k):
        if not gen.anticipates:
            return np.zeros((A, 0))
        ka = k + scenario.offsets.d_delta[k]
        kz = k + scenario.offsets.d_zeta[k]
        return gen.eval_functionals(Y[:, ka][:, None], Z[:, kz][:, None, None])

    raw = raw_functionals(grid.n_T)
    for k in range(grid.n_T - 1, -1, -1):
        g_val = gen.g(grid.time(k + 1), Y[:, k + 1][:, None],
                      Z[:, k + 1][:, None, None], raw)
        target = Y[:, k + 1] + np.asarray(g_val)[:, 0, 0] * dB[:, k]
        Z[:, k] = _tensor_condexp(target * dW[:, k], k, n) / h
        raw = raw_functionals(k)
        e_k = np.empty((A, gen.q_total))
        for j in range(gen.q_total):
            e_k[:, j] = _tensor_condexp(raw[:, j], k, n)
        y_bar = _tensor_condexp(target, k, n)
        y_hat = y_bar
        for _ in range(scenario.implicit_iters):
            f_val = gen.f(grid.time(k), y_hat[:, None], Z[:, k][:, None, None], e_k)
            y_hat = y_bar + h * np.asarray(f_val)[:, 0]
        Y[:, k] = y_hat
    return Y, Z


@pytest.mark.filterwarnings("ignore:anticipation times are off-grid")
@settings(max_examples=100, deadline=None)
@given(scen=_catalog_scenarios())
def test_oracle_matches_the_full_atom_recursion_across_the_catalog(scen):
    tree = tree_for_grid(scen.grid)
    exact = oracle_solve(scen, tree)
    Y, Z = _full_atom_oracle(scen, tree)
    assert np.abs(exact.Y[:, :, 0] - Y).max() <= 1e-12
    assert np.abs(exact.Z[:, :, 0, 0] - Z).max() <= 1e-12


def test_oracle_never_evaluates_the_generator_on_every_atom(monkeypatch):
    # f reads node-k values only (2^n rows at most); g and phi read later
    # nodes too, but never all 4^n atoms
    grid = make_grid(0.375, 0.375, 0.125)
    tree = tree_for_grid(grid)
    n = tree.n
    delay = DelaySpec(constant_delay(0.375), constant_delay(0.25))
    gen = builtin_generator("example41_f1")
    rows = {"f": [], "g": [], "phi": []}

    def spy(name, fn):
        def wrapped(t, y, z, e):
            rows[name].append(y.shape[0])
            return fn(t, y, z, e)
        return wrapped

    gen = replace(gen, f=spy("f", gen.f), g=spy("g", gen.g))
    method = GeneratorSpec.eval_functionals

    def counting(self, y_ant, z_ant):
        rows["phi"].append(y_ant.shape[0])
        return method(self, y_ant, z_ant)

    monkeypatch.setattr(GeneratorSpec, "eval_functionals", counting)
    scen = make_scenario(grid, gen, TerminalSpec(name="scaled_b_tail",
                                                 params={"a": 0.5, "b": 1.0}),
                         delay=delay, implicit_iters=3)
    rows["f"].clear()  # make_scenario's own check of f
    oracle_solve(scen, tree)
    assert len(rows["f"]) == 3 * grid.n_T and len(rows["phi"]) == grid.n_T + 1
    assert max(rows["f"]) <= 2 ** n
    assert max(rows["g"] + rows["phi"]) < tree.n_atoms


def test_oracle_rejects_terminal_data_the_node_does_not_see():
    # xi = dW_{n-1} on every window node: nodes n_T .. n-1 do not see W's
    # last step, so the oracle raises instead of averaging it away
    grid = make_grid(0.4, 0.2, 0.2)
    tree = tree_for_grid(grid)
    dW, _ = stacked_steps(tree.ensemble)
    xi = dW[:, tree.n - 1, 0]
    scen = make_scenario(grid, builtin_generator("zero"), _scalar_terminal(tree, xi))
    with pytest.raises(NotMeasurable, match="node 2"):
        oracle_solve(scen, tree)


@pytest.mark.parametrize("n", range(1, 9))
def test_atom_ids_match_the_formula_on_the_w_and_b_indices(n):
    tree = build_tree(n, 0.1)
    for k in range(n + 1):
        ids = tree.f_atom_ids(k)
        assert ids.dtype == np.int64
        assert np.array_equal(ids, _reference_f_atom_ids(tree, k))
