import numpy as np
import pytest

from abdsde.condexp import condexp, RegressionBackend, RegressionBasis, _poly_features
from abdsde.errors import BackendMismatch, SingularDesign, ValidationError
from abdsde.grids import make_grid
from abdsde.paths import sample_paths
from abdsde.tree import build_tree
from tree_helpers import stacked_steps


def test_poly_feature_count():
    X = _poly_features(np.random.default_rng(0).normal(size=(50, 2)), 2)
    assert X.shape == (50, 6)  # 1, a, b, a^2, ab, b^2
    assert np.all(X[:, 0] == 1.0)


def test_constant_target_reproduced_exactly():
    grid = make_grid(1.0, 0.0, 0.25)
    paths = sample_paths(grid, 1, 1, 500, seed=1)
    target = np.full((500, 1), 3.25)
    got = condexp(RegressionBackend(), target, 2, paths)
    assert np.all(got == 3.25)


def test_regression_recovers_brownian_martingale():
    # E[W_T | info at t_k] = W_{t_k}; the fitted slope on W must be ~1
    grid = make_grid(1.0, 0.0, 0.25)
    paths = sample_paths(grid, 1, 1, 10**5, seed=7)
    k = 2
    target = paths.w_at(grid.n_T)
    backend = RegressionBackend()
    X = backend.features(paths, k)
    from abdsde.condexp import _ridge_fit
    _, beta = _ridge_fit(X, target, backend.basis.ridge)
    slope = beta[1, 0]  # column 1 is the W feature
    # regression slope standard error ~ resid_std / (sqrt(P) * std(W))
    resid = target - X @ beta
    se = resid.std() / (np.sqrt(10**5) * paths.w_at(k).std())
    assert abs(slope - 1.0) < 5 * se
    fitted = condexp(backend, target, k, paths)
    assert np.sqrt(np.mean((fitted - paths.w_at(k)) ** 2)) < 0.02


def test_projection_orthogonality_without_ridge():
    grid = make_grid(1.0, 0.0, 0.25)
    paths = sample_paths(grid, 1, 1, 2000, seed=3)
    backend = RegressionBackend(RegressionBasis(degree=2, ridge=0.0))
    k = 2
    target = (paths.w_at(grid.n_T) ** 3).reshape(-1, 1)
    fitted = condexp(backend, target, k, paths)
    X = backend.features(paths, k)
    resid = (target - fitted)[:, 0]
    inner = X.T @ resid
    norms = np.linalg.norm(X, axis=0) * np.linalg.norm(resid)
    assert np.all(np.abs(inner) <= 1e-8 * norms)


def test_singular_design_only_without_ridge():
    grid = make_grid(1.0, 0.0, 0.25)
    paths = sample_paths(grid, 1, 1, 2000, seed=3)
    target = paths.w_at(grid.n_T)
    # at k=0 the W feature column is identically zero: rank-deficient
    with pytest.raises(SingularDesign):
        condexp(RegressionBackend(RegressionBasis(ridge=0.0)), target, 0, paths)
    # any positive ridge never raises
    out = condexp(RegressionBackend(RegressionBasis(ridge=1e-8)), target, 0, paths)
    assert np.all(np.isfinite(out))


def test_too_few_paths_rejected():
    grid = make_grid(1.0, 0.0, 0.25)
    paths = sample_paths(grid, 1, 1, 30, seed=3)
    with pytest.raises(ValueError):
        condexp(RegressionBackend(), paths.w_at(grid.n_T), 2, paths)
    # nor is a basis built whose degree is not an int (2.5 failed in
    # math.comb, True ran as degree 1) or whose ridge is not finite (NaN
    # passed the sign check and fitted NaN)
    for degree, ridge, key in ((2.5, 1e-8, "degree"), (True, 1e-8, "degree"),
                               (2, float("nan"), "ridge"), (2, float("inf"), "ridge")):
        with pytest.raises(ValidationError, match=f"{key} must be"):
            RegressionBasis(degree=degree, ridge=ridge)


def test_exact_backend_two_step_tree_hand_enumeration():
    # conditioning f(dW_1) at k=1 averages the two future W branches only;
    # the expected values come from brute force over all 16 atoms, grouped
    # by the known coordinates (dW_0, dB_1)
    tree = build_tree(2, 0.25)
    paths = tree.ensemble
    dW, dB = stacked_steps(paths)
    dw1 = dW[:, 1, 0]
    target = np.exp(dw1)
    got = condexp(tree.backend(), target.reshape(-1, 1), 1, paths)[:, 0]
    groups = {}
    for atom in range(16):
        key = (dW[atom, 0, 0], dB[atom, 1, 0])
        groups.setdefault(key, []).append(atom)
    assert sorted(len(v) for v in groups.values()) == [4, 4, 4, 4]
    for atoms in groups.values():
        expected = sum(target[a] for a in atoms) / len(atoms)
        for a in atoms:
            assert got[a] == pytest.approx(expected, abs=1e-14)
    root = np.sqrt(0.25)
    assert np.allclose(got, 0.5 * (np.exp(root) + np.exp(-root)), atol=1e-14)
    # and a target known at k=1 (dB_1 is future-B) is returned untouched
    known = dB[:, 1, 0].reshape(-1, 1)
    assert np.allclose(condexp(tree.backend(), known, 1, paths), known, atol=1e-15)


def test_exact_backend_partition_structure():
    tree = build_tree(2, 0.25)
    ids = tree.f_atom_ids(1)
    values, counts = np.unique(ids, return_counts=True)
    assert len(values) == 4 and np.all(counts == 4)


def test_exact_backend_outputs_constant_on_atoms():
    tree = build_tree(3, 0.25)
    rng = np.random.default_rng(0)
    target = rng.normal(size=(tree.n_atoms, 1))
    for k in range(4):
        out = condexp(tree.backend(), target, k, tree.ensemble)[:, 0]
        ids = tree.f_atom_ids(k)
        for gid in np.unique(ids):
            assert np.ptp(out[ids == gid]) == 0.0


def test_exact_backend_block_matches_its_columns_bitwise():
    # one group-by over the block sums each bin in atom order, as one
    # group-by per column would
    tree = build_tree(3, 0.25)
    block = np.random.default_rng(1).normal(size=(tree.n_atoms, 3))
    backend = tree.backend()
    for k in range(4):
        whole = backend.condexp(block, k, tree.ensemble)
        for j in range(3):
            column = backend.condexp(block[:, j:j + 1], k, tree.ensemble)
            assert np.array_equal(whole[:, j:j + 1], column)


def test_exact_backend_tower_property_for_future_measurable_targets():
    # the conditioning fields are not nested in general, but for targets
    # built from W and the B-increments at/after k' the tower identity
    # E_k E_k' = E_k holds exactly
    tree = build_tree(3, 0.5)
    paths = tree.ensemble
    k, kp = 1, 2
    dW, dB = stacked_steps(paths)
    target = (np.sin(dW[:, 0, 0] + dW[:, 2, 0]) + dB[:, 2, 0] ** 2).reshape(-1, 1)
    backend = tree.backend()
    inner = condexp(backend, target, kp, paths)
    lhs = condexp(backend, inner, k, paths)
    rhs = condexp(backend, target, k, paths)
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_backend_mismatch():
    tree = build_tree(2, 0.25)
    other = sample_paths(tree.grid, 1, 1, 16, seed=0)
    with pytest.raises(BackendMismatch):
        condexp(tree.backend(), other.w_at(1), 1, other)


@pytest.mark.parametrize("kind", ["regression", "exact"])
def test_block_shortcuts_constant_columns_and_fits_the_rest_together(kind):
    # constant columns come back bit for bit; the varying ones match one
    # condexp call per column (bitwise on the exact backend, which fits
    # column by column; to rounding on regression, one gemm vs gemvs)
    if kind == "exact":
        tree = build_tree(4, 0.25)
        paths, backend = tree.ensemble, tree.backend()
    else:
        paths = sample_paths(make_grid(1.0, 0.0, 0.25), 1, 1, 2000, seed=5)
        backend = RegressionBackend()
    k, P = 2, paths.n_paths
    rng = np.random.default_rng(0)
    block = np.empty((P, 4), order="F")
    block[:, 0] = rng.normal(size=P)
    block[:, 1] = 0.1
    block[:, 2] = np.sin(stacked_steps(paths)[0][:, 0, 0]) + rng.normal(size=P)
    block[:, 3] = -2.5
    got = condexp(backend, block, k, paths)
    assert got.shape == (P, 4)
    assert np.array_equal(got[:, [1, 3]], block[:, [1, 3]])
    for j in (0, 2):
        alone = condexp(backend, block[:, [j]], k, paths)[:, 0]
        if kind == "exact":
            assert np.array_equal(got[:, j], alone)
        else:
            assert np.abs(got[:, j] - alone).max() <= 1e-12
    # the result does not depend on the memory layout or the trailing shape
    assert np.array_equal(condexp(backend, np.ascontiguousarray(block), k, paths), got)
    assert np.array_equal(condexp(backend, block.reshape(P, 2, 2), k, paths),
                          got.reshape(P, 2, 2))
