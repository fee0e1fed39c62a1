import tracemalloc

import numpy as np
import pytest

import abdsde.paths
from abdsde.errors import ShapeMismatch, ValidationError
from abdsde.grids import make_grid
from abdsde.paths import (_DRAW_ROWS, backward_integral, forward_integral,
                          PathEnsemble, sample_paths)
from abdsde.tree import build_tree
from tree_helpers import reference_coarsened_steps, reference_tree_steps, stacked_steps


GRID = make_grid(1.0, 0.0, 0.125)


def test_seed_determinism_bitwise():
    a = sample_paths(GRID, 2, 1, 500, seed=7)
    b = sample_paths(GRID, 2, 1, 500, seed=7)
    assert np.array_equal(a.dW, b.dW) and np.array_equal(a.dB, b.dB)
    c = sample_paths(GRID, 2, 1, 500, seed=8)
    assert not np.array_equal(a.dW, c.dW)


def test_path_streams_independent_of_path_count():
    big = sample_paths(GRID, 1, 2, 400, seed=3)
    small = sample_paths(GRID, 1, 2, 100, seed=3)
    assert np.array_equal(big.dW[:100], small.dW)
    assert np.array_equal(big.dB[:100], small.dB)


@pytest.mark.parametrize("rows", [4096, 37])
def test_blocked_draw_equals_one_shot_draw(monkeypatch, rows):
    # P = 5000 is not a multiple of the block rows
    monkeypatch.setattr(abdsde.paths, "_DRAW_ROWS", rows)
    d, l, P, seed = 2, 1, 5000, (4, 2)
    rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed)))
    draws = rng.standard_normal((P, GRID.n_steps, d + l)) * np.sqrt(GRID.h)
    paths = sample_paths(GRID, d, l, P, seed)
    assert np.array_equal(paths.dW, draws[:, :, :d])
    assert np.array_equal(paths.dB, draws[:, :, d:])
    small = sample_paths(GRID, d, l, 41, seed)
    assert np.array_equal(small.dW, paths.dW[:41])
    assert np.array_equal(small.dB, paths.dB[:41])


def test_increment_moments_within_five_standard_errors():
    paths = sample_paths(GRID, 1, 1, 10**5, seed=7)
    h = GRID.h
    n = paths.dW.size
    se_mean = np.sqrt(h / n)
    se_var = h * np.sqrt(2.0 / (n - 1))
    for inc in (paths.dW, paths.dB):
        assert abs(inc.mean()) < 5 * se_mean
        assert abs(inc.var() - h) < 5 * se_var


def test_drivers_uncorrelated():
    paths = sample_paths(GRID, 1, 1, 10**5, seed=7)
    corr = np.corrcoef(paths.dW.ravel(), paths.dB.ravel())[0, 1]
    assert abs(corr) < 5 / np.sqrt(paths.dW.size)


def test_forward_integral_zero_and_constant():
    paths = sample_paths(GRID, 1, 1, 200, seed=1)
    P, n = 200, GRID.n_nodes
    zero = np.zeros((P, n, 1, 1))
    assert np.all(forward_integral(zero, paths, 0, GRID.n_end) == 0.0)
    const = np.full((P, n, 1, 1), 1.7)
    w_total = paths.w_at(GRID.n_end) - paths.w_at(2)
    got = forward_integral(const, paths, 2, GRID.n_end)
    assert np.allclose(got, 1.7 * w_total, atol=1e-12)


def test_backward_integral_constant_matches_forward():
    paths = sample_paths(GRID, 1, 1, 200, seed=2)
    const = np.full((200, GRID.n_nodes, 1, 1), -0.3)
    f = forward_integral(const, paths, 1, 7)
    # with the same constant integrand both rules telescope identically
    b = backward_integral(const, paths, 1, 7)
    b_direct = -0.3 * (paths.b_at(7) - paths.b_at(1))
    assert np.allclose(b, b_direct, atol=1e-12)
    f_direct = -0.3 * (paths.w_at(7) - paths.w_at(1))
    assert np.allclose(f, f_direct, atol=1e-12)


def test_backward_minus_forward_is_quadratic_variation():
    paths = sample_paths(GRID, 1, 1, 300, seed=3)
    B = np.concatenate(
        [np.zeros((300, 1, 1)), np.cumsum(paths.dB, axis=1)], axis=1)
    G = B[:, :, :, None]
    # forward rule against dB for the same integrand, for the comparison
    fwd = np.einsum("pkml,pkl->pm", G[:, :-1], paths.dB)
    bwd = backward_integral(G, paths, 0, GRID.n_end)
    qv = (paths.dB ** 2).sum(axis=(1, 2))
    assert np.allclose(bwd[:, 0] - fwd[:, 0], qv, atol=1e-12)


@pytest.mark.parametrize("which", ["forward", "backward"])
def test_integral_closed_form_convergence(which):
    # Z_k = W_k: forward -> (W_T^2 - T)/2; G_k = B_k: backward -> (B_T^2 + T)/2
    rms = []
    means = []
    for exp in (4, 5, 6, 7, 8):
        grid = make_grid(1.0, 0.0, 2.0 ** -exp)
        paths = sample_paths(grid, 1, 1, 4000, seed=9)
        if which == "forward":
            W = np.concatenate(
                [np.zeros((4000, 1, 1)), np.cumsum(paths.dW, axis=1)], axis=1)
            val = forward_integral(W[:, :, :, None], paths, 0, grid.n_end)[:, 0]
            closed = 0.5 * (W[:, -1, 0] ** 2 - 1.0)
        else:
            B = np.concatenate(
                [np.zeros((4000, 1, 1)), np.cumsum(paths.dB, axis=1)], axis=1)
            val = backward_integral(B[:, :, :, None], paths, 0, grid.n_end)[:, 0]
            closed = 0.5 * (B[:, -1, 0] ** 2 + 1.0)
        err = val - closed
        rms.append(np.sqrt(np.mean(err ** 2)))
        means.append(abs(err.mean()))
    assert all(a > b for a, b in zip(rms, rms[1:])), rms
    # per-path error is +-(QV - T)/2, mean 0 with stderr sqrt(h/2P)
    assert means[-1] < 5 * np.sqrt(2.0 ** -8 / (2 * 4000))


@pytest.mark.parametrize("d,l", [(1, 1), (2, 1), (1, 3), (3, 2)])
def test_both_ito_sums_keep_the_bits_of_their_own_einsums(d, l):
    # the two sums share one body; the references are the separate
    # expressions each of them was before
    grid = make_grid(1.0, 0.0, 1 / 16)
    paths = sample_paths(grid, d, l, 120, seed=17)
    rng = np.random.default_rng(5)
    Z = rng.standard_normal((120, grid.n_nodes, 2, d))
    G = rng.standard_normal((120, grid.n_nodes, 2, l))
    dW, dB = paths.dW, paths.dB
    for k_from, k_to in ((0, grid.n_end), (2, 9), (5, 5)):
        want_f = np.einsum("pkmd,pkd->pm", Z[:, k_from:k_to], dW[:, k_from:k_to])
        want_b = np.einsum("pkml,pkl->pm", G[:, k_from + 1:k_to + 1],
                           dB[:, k_from:k_to])
        got_f = forward_integral(Z, paths, k_from, k_to)
        got_b = backward_integral(G, paths, k_from, k_to)
        assert got_f.tobytes() == want_f.tobytes()
        assert got_b.tobytes() == want_b.tobytes()


def test_integral_shape_mismatch():
    paths = sample_paths(GRID, 2, 1, 50, seed=1)
    bad = np.zeros((50, GRID.n_nodes, 1, 1))  # d should be 2
    with pytest.raises(ShapeMismatch):
        forward_integral(bad, paths, 0, 4)
    badb = np.zeros((50, GRID.n_nodes, 1, 3))
    with pytest.raises(ShapeMismatch):
        backward_integral(badb, paths, 0, 4)


def test_coarsen_preserves_brownian_path():
    paths = sample_paths(make_grid(1.0, 0.5, 0.125), 1, 1, 64, seed=5)
    coarse = paths.coarsen()
    assert coarse.grid.h == 0.25 and coarse.grid.n_T == 4
    assert np.allclose(stacked_steps(coarse)[0].sum(axis=1), paths.dW.sum(axis=1),
                       atol=1e-14)
    assert np.allclose(coarse.b_at(2), paths.b_at(4), atol=1e-14)
    # three steps do not pair up; four do, but T would fall between nodes
    for grid in (make_grid(0.75, 0.0, 0.25), make_grid(0.75, 0.25, 0.25)):
        with pytest.raises(ValueError):
            sample_paths(grid, 1, 1, 4, seed=5).coarsen()


# ---------------------------------------------------------------------------
# W and B state carried down the nodes
# ---------------------------------------------------------------------------

# 23 nodes, n_T = 16: the anchor sits inside the horizon, not at either end
STATE_GRID = make_grid(1.0, 0.375, 0.0625)
STATE_P = _DRAW_ROWS + 4  # not a multiple of the draw's block rows


def _cumsum_nodes(inc):
    """(P, n_steps + 1, c) forward sums by np.cumsum, node 0 at zero."""
    P, n, c = inc.shape
    cum = np.zeros((P, n + 1, c))
    np.cumsum(inc, axis=1, out=cum[:, 1:])
    return cum


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


_ENSEMBLES = {
    "draw": lambda: sample_paths(STATE_GRID, 2, 1, STATE_P, seed=(9, 1)),
    "coarsened": lambda: sample_paths(STATE_GRID, 2, 1, STATE_P, seed=(9, 1)).coarsen(),
    "tree": lambda: build_tree(7, 0.1, n_T=5),
}


def _orders(n_nodes):
    return {"ascending": list(range(n_nodes)),
            "descending": list(range(n_nodes - 1, -1, -1)),
            "shuffled": list(np.random.default_rng(4).permutation(n_nodes))}


@pytest.mark.parametrize("start", [None, 3])
@pytest.mark.parametrize("kind", sorted(_ENSEMBLES))
def test_state_has_the_cumsum_bits_in_any_call_order(kind, start):
    # within 1e-12 of np.cumsum everywhere, and cumsum's bits where no
    # subtraction was taken; start is a node read before each pass, so the
    # pass begins with a node held below the anchor instead of none
    reference = _ENSEMBLES[kind]()
    cum_w, cum_b = map(_cumsum_nodes, stacked_steps(reference))
    n_T = reference.grid.n_T

    def near(a, b):
        return np.max(np.abs(a - b), initial=0.0) <= 1e-12

    for name, order in _orders(reference.grid.n_nodes).items():
        paths = _ENSEMBLES[kind]()
        held = []
        if start is not None:
            w, b = paths.w_at(start), paths.b_at(start)
            assert _same_bits(w, cum_w[:, start]) and _same_bits(b, cum_b[:, start])
            held.append((w.copy(), b.copy(), w, b))
        for k in order:
            w, b, tail = paths.w_at(k), paths.b_at(k), paths.b_tail(k)
            assert near(w, cum_w[:, k]) and near(b, cum_b[:, k])
            assert near(tail, cum_b[:, n_T] - cum_b[:, k])
            held.append((w.copy(), b.copy(), w, b))
        # node 0 is zero and the anchor is summed in cumsum's order; an
        # ascending pass only ever sums forward, so it keeps cumsum's bits
        for k in order if name == "ascending" else (0, n_T):
            assert _same_bits(paths.w_at(k), cum_w[:, k])
            assert _same_bits(paths.b_at(k), cum_b[:, k])
        # no later read writes to a slab handed out before it
        assert all(_same_bits(w, w0) and _same_bits(b, b0) for w0, b0, w, b in held)


def _count_step_reads(paths):
    """Wrap the ensemble's dw and db; returns {driver: reads per step}."""
    counts = {"w": np.zeros(paths.n_stored, int), "b": np.zeros(paths.n_stored, int)}
    for driver, read in (("w", paths.dw), ("b", paths.db)):
        def counting(k, read=read, count=counts[driver]):
            count[k] += 1
            return read(k)
        setattr(paths, "d" + driver, counting)
    return counts


@pytest.mark.parametrize("kind", sorted(_ENSEMBLES))
def test_each_step_is_read_at_most_twice_in_a_pass(kind):
    # a descending pass reads each step once in the forward sums of the
    # anchor and of the first node read, and once stepping down; an
    # ascending pass once in the anchor and once stepping up; neither
    # replays a run of steps per node
    for order in ("descending", "ascending"):
        paths = _ENSEMBLES[kind]()
        counts = _count_step_reads(paths)
        for k in _orders(paths.grid.n_nodes)[order]:
            paths.w_at(k), paths.b_tail(k)
        for driver, count in counts.items():
            assert count.max() <= 2, (order, driver, count)


def test_state_is_read_only_and_rejects_nodes_off_the_grid():
    paths = _ENSEMBLES["draw"]()
    with pytest.raises(ValueError):
        paths.w_at(3)[:] = 0.0
    with pytest.raises(ValueError):
        paths.b_at(STATE_GRID.n_T)[:] = 0.0
    with pytest.raises(ValidationError):
        paths.w_at(STATE_GRID.n_nodes)


def _arrays(obj, seen=None):
    """Every ndarray reachable from obj's attributes and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value, seen)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value, seen)
    elif isinstance(obj, PathEnsemble):
        yield from _arrays(vars(obj), seen)


def test_no_whole_horizon_state_after_a_descending_pass():
    paths = _ENSEMBLES["draw"]()
    for k in range(STATE_GRID.n_nodes - 1, -1, -1):
        paths.w_at(k), paths.b_tail(k)
    whole = STATE_P * STATE_GRID.n_nodes
    held = [a for a in _arrays(paths)
            if not (np.may_share_memory(a, paths.dW) or np.may_share_memory(a, paths.dB))]
    assert held, "the state should hold its anchor"
    assert all(a.size < whole for a in held)
    # two slabs per driver: the anchor n_T and the last node read
    assert sum(a.size for a in held) <= 2 * STATE_P * (paths.d + paths.l)


# ---------------------------------------------------------------------------
# a draw that stores only the leading steps
# ---------------------------------------------------------------------------

TRIM_GRID = make_grid(1.0, 0.5, 0.125)  # n_T = 8 of 12 steps


def test_trimmed_draw_stores_the_leading_bits_of_the_full_draw():
    P = 5000  # straddles the draw's block rows
    assert P > _DRAW_ROWS
    full = sample_paths(TRIM_GRID, 2, 1, P, seed=(6, 3))
    for n in (TRIM_GRID.n_T, TRIM_GRID.n_T + 1, TRIM_GRID.n_steps):
        trimmed = sample_paths(TRIM_GRID, 2, 1, P, seed=(6, 3), n_stored=n)
        assert trimmed.n_stored == n
        assert _same_bits(trimmed.dW, full.dW[:, :n])
        assert _same_bits(trimmed.dB, full.dB[:, :n])
        assert trimmed.dW[:, n - 1].flags.c_contiguous
    for n in (TRIM_GRID.n_T - 1, TRIM_GRID.n_steps + 1):
        with pytest.raises(ShapeMismatch, match="stored steps"):
            sample_paths(TRIM_GRID, 2, 1, P, seed=(6, 3), n_stored=n)


def test_reads_past_the_stored_steps_raise_at_the_check():
    n_T = TRIM_GRID.n_T
    paths = sample_paths(TRIM_GRID, 1, 1, 50, seed=2, n_stored=n_T)
    integrand = np.ones((50, TRIM_GRID.n_nodes, 1, 1))
    assert forward_integral(integrand, paths, 0, n_T).shape == (50, 1)
    assert backward_integral(integrand, paths, 0, n_T).shape == (50, 1)
    with pytest.raises(ValueError, match="bad node range"):
        forward_integral(integrand, paths, 0, n_T + 1)
    with pytest.raises(ValueError, match="bad node range"):
        backward_integral(integrand, paths, 2, n_T + 1)
    assert paths.w_at(n_T).shape == paths.b_tail(0).shape == (50, 1)
    for read in (paths.w_at, paths.b_at):
        with pytest.raises(ValidationError):
            read(n_T + 1)


def test_an_ensemble_stores_from_n_T_to_every_step_in_both_drivers():
    full = sample_paths(TRIM_GRID, 1, 1, 4, seed=1)
    for n in (TRIM_GRID.n_T - 1, TRIM_GRID.n_steps + 1):
        inc = np.zeros((4, n, 1))
        with pytest.raises(ShapeMismatch):
            PathEnsemble(grid=TRIM_GRID, dW=inc, dB=inc)
    with pytest.raises(ShapeMismatch):
        PathEnsemble(grid=TRIM_GRID, dW=full.dW[:, :9], dB=full.dB[:, :10])


@pytest.mark.parametrize("n", [8, 9, 10])
def test_coarsening_a_trimmed_draw_merges_its_stored_steps(n):
    full = sample_paths(TRIM_GRID, 1, 1, 64, seed=5)
    coarse = sample_paths(TRIM_GRID, 1, 1, 64, seed=5, n_stored=n).coarsen()
    assert coarse.n_stored == n // 2 and coarse.grid == full.coarsen().grid
    for got, whole in zip(stacked_steps(coarse), stacked_steps(full.coarsen())):
        assert _same_bits(got, whole[:, :n // 2])


# ---------------------------------------------------------------------------
# derived ensembles: slabs computed when read
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["tree", "coarsened"])
def test_derived_slabs_have_the_bits_of_the_stored_reference(kind):
    if kind == "tree":
        cases = [(build_tree(n, 0.1, n_T=max(n - 2, 1)),
                  reference_tree_steps(n, 0.1)) for n in (1, 3, 8)]
    else:
        cases = []
        for n in (TRIM_GRID.n_T, TRIM_GRID.n_T + 1, TRIM_GRID.n_steps):
            draw = sample_paths(TRIM_GRID, 2, 1, 300, seed=(3, 1), n_stored=n)
            cases.append((draw.coarsen(), reference_coarsened_steps(draw)))
    for paths, (ref_w, ref_b) in cases:
        assert paths.n_stored == ref_w.shape[1]
        for k in range(paths.n_stored):
            dw, db = paths.dw(k), paths.db(k)
            assert _same_bits(dw, ref_w[:, k]) and _same_bits(db, ref_b[:, k])
            assert not (dw.flags.writeable or db.flags.writeable)
        for read in (paths.dw, paths.db):
            for k in (-1, paths.n_stored):
                with pytest.raises(ValidationError, match=f"step {k} is outside"):
                    read(k)


def _traced_peak(make):
    tracemalloc.start()
    try:
        made = make()
        return made, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_tree_and_a_coarsening_allocate_less_than_one_slab():
    # neither stores increments: the tree signs a slab from one bit of the
    # atom index, and a coarse slab adds two fine ones, each when read
    tree, peak = _traced_peak(lambda: build_tree(8, 0.1, 5))
    assert peak < 8 * tree.n_paths, peak  # a (4^8, 1) slab
    draw = sample_paths(STATE_GRID, 1, 1, 4096, seed=2)
    _, peak = _traced_peak(draw.coarsen)
    assert peak < 8 * draw.n_paths, peak  # a (4096, 1) slab


@pytest.mark.parametrize("d,l", [(0, 1), (1, 0)], ids=["d0", "l0"])
def test_a_draw_needs_both_drivers(d, l):
    with pytest.raises(ValidationError, match="driver dimensions must be >= 1"):
        sample_paths(make_grid(1.0, 0.0, 0.25), d, l, 16, seed=1)
