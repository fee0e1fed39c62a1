"""Conditional expectations given the time-t information field.

At node k the conditioning field joins the past of W (increments before k)
with the future of B (increments at and after k).  Two backends realize it:

* RegressionBackend -- ridge least squares of the target on polynomial
  features of the state (W_{t_k}, B_{t_{n_T}} - B_{t_k}), one independent
  fit per node.  This is the Monte Carlo workhorse.
* ExactTreeBackend -- exact per-atom averages on a finite two-point tree
  (see `tree.build_tree`); atoms agreeing on past-W and future-B increments
  form one information atom and share the conditional expectation.

Target columns that are constant across paths are returned unchanged: a
constant is its own conditional expectation, and skipping its fit keeps
deterministic scenarios exact.  The shortcut is per column, so a block of
targets taken at one node (the solver stacks all of a node's targets into
one call) sends only its varying columns to the backend, in one fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import BackendMismatch, integer, NonFinite, real, SingularDesign, ValidationError
from .paths import PathEnsemble


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial feature map of degree `degree` with ridge weight `ridge`.

    Features are the d coordinates of W_{t_k} and the l coordinates of
    B_{t_{n_T}} - B_{t_k}; all monomials up to the given total degree are
    used, intercept included.  The intercept is never penalized, so constant
    targets are reproduced exactly.
    """

    degree: int = 2
    ridge: float = 1e-8

    def __post_init__(self):
        integer(self.degree, "degree", 1)
        if real(self.ridge, "ridge") < 0:
            raise ValidationError(f"ridge must be >= 0, got {self.ridge!r}")

    def n_features(self, n_state: int) -> int:
        """Number of monomials, intercept included, of an n_state-variable state."""
        return math.comb(n_state + self.degree, self.degree)

    def check_paths(self, n_paths: int, n_state: int) -> None:
        """Require at least 10 paths per feature of an n_state-variable state."""
        n_features = self.n_features(n_state)
        if n_paths < 10 * n_features:
            raise ValidationError(
                f"{n_paths} paths is too few for {n_features} features "
                "(need at least 10x)")


def _fill_monomials(X: np.ndarray, n_raw: int, degree: int) -> np.ndarray:
    """Fill the design X in place from its linear columns X[:, 1:1 + n_raw].

    Column 0 becomes the intercept; each monomial of degree >= 2 is one
    multiply of its degree-(deg - 1) prefix column by a state column, so the
    product order is left to right, as in a running product.
    """
    X[:, 0] = 1.0
    column = {(j,): 1 + j for j in range(n_raw)}
    i = 1 + n_raw
    for deg in range(2, degree + 1):
        for combo in combinations_with_replacement(range(n_raw), deg):
            np.multiply(X[:, column[combo[:-1]]], X[:, 1 + combo[-1]],
                        out=X[:, i])
            column[combo] = i
            i += 1
    return X


def _design(P: int, n_raw: int, degree: int) -> np.ndarray:
    """Uninitialized (P, n_features) design buffer, column-major.

    Each feature is one contiguous column, so filling it is one contiguous
    write per column.  BLAS forms X^T X and X^T Y with other kernels than
    for a row-major X, which moves fitted values in the last bits (at most
    1.7e-13 in the CSVs of the shipped scenarios).
    """
    return np.empty((P, math.comb(n_raw + degree, degree)), order="F")


def _poly_features(state: np.ndarray, degree: int) -> np.ndarray:
    """All monomials of the state columns up to total degree, with intercept."""
    P, n_raw = state.shape
    X = _design(P, n_raw, degree)
    X[:, 1:1 + n_raw] = state
    return _fill_monomials(X, n_raw, degree)


#: Rows per block of the fitted-value product.  A whole (50 000 x 6) @ (6 x 6)
#: product goes to OpenBLAS's threaded path and took 8.6 ms on a 2-core host,
#: against 0.3 ms in blocks of this size.
_FIT_ROWS = 4096


def _ridge_fit(X: np.ndarray, Y: np.ndarray, ridge: float):
    """Solve the (optionally ridged) normal equations; intercept unpenalized.

    Returns (fitted, coefficients).  With ridge == 0 a rank-deficient design
    raises SingularDesign.
    """
    XtX = X.T @ X
    if ridge == 0.0 and np.linalg.matrix_rank(XtX) < XtX.shape[0]:
        raise SingularDesign("normal equations are rank-deficient and ridge is 0")
    penalty = np.full(XtX.shape[0], ridge)  # ridge 0 adds exact zeros
    penalty[0] = 0.0  # leave the intercept alone
    beta = np.linalg.solve(XtX + np.diag(penalty), X.T @ Y)
    # X @ beta has few columns, so it is memory-bound: in row blocks each
    # BLAS call stays small and on this thread, and the values are the same.
    # Column-major, like the sweep's target block, which reads it by column
    fitted = np.empty((X.shape[0], beta.shape[1]), order="F")
    for i in range(0, X.shape[0], _FIT_ROWS):
        np.matmul(X[i:i + _FIT_ROWS], beta, out=fitted[i:i + _FIT_ROWS])
    return fitted, beta


class RegressionBackend:
    """Least-squares Monte Carlo conditional expectations."""

    def __init__(self, basis: RegressionBasis | None = None):
        self.basis = basis or RegressionBasis()

    def features(self, paths: PathEnsemble, k: int) -> np.ndarray:
        # W_k and B_{n_T} - B_k go straight into the linear columns
        d, l = paths.d, paths.l
        X = _design(paths.n_paths, d + l, self.basis.degree)
        X[:, 1:1 + d] = paths.w_at(k)
        np.subtract(paths.b_at(paths.grid.n_T), paths.b_at(k), out=X[:, 1 + d:1 + d + l])
        return _fill_monomials(X, d + l, self.basis.degree)

    def condexp(self, targets: np.ndarray, k: int, paths: PathEnsemble) -> np.ndarray:
        flat = targets.reshape(targets.shape[0], -1)
        self.basis.check_paths(flat.shape[0], paths.d + paths.l)
        X = self.features(paths, k)
        fitted, _ = _ridge_fit(X, flat, self.basis.ridge)
        return fitted.reshape(targets.shape)


class ExactTreeBackend:
    """Exact enumeration backend bound to one tree, its only paths."""

    def __init__(self, tree):
        self.tree = tree

    def _check(self, paths: PathEnsemble):
        if paths is not self.tree:
            raise BackendMismatch("exact backend only conditions on its own tree")

    def condexp(self, targets: np.ndarray, k: int, paths: PathEnsemble) -> np.ndarray:
        self._check(paths)
        ids = self.tree.f_atom_ids(k)
        n_groups = 1 << self.tree.n  # 2^n information atoms of 2^n atoms each
        flat = targets.reshape(targets.shape[0], -1)
        # a bincount per column adds each group's atoms in atom order, and
        # holds no copy of the whole block
        means = np.empty((n_groups, flat.shape[1]))
        for j in range(flat.shape[1]):
            means[:, j] = np.bincount(ids, weights=flat[:, j], minlength=n_groups)
        means /= n_groups
        # gathered column by column into a column-major block, as a fit is
        return np.take(means.T, ids, axis=1).T.reshape(targets.shape)


def condexp(backend, targets: np.ndarray, k: int, paths: PathEnsemble) -> np.ndarray:
    """Estimate E[target | information at node k], per path.

    Columns of the (P, ...) targets that are constant across paths come back
    bit for bit (they are their own conditional expectation); the others go
    through the backend in one call.  The check reduces each column along
    contiguous memory, so callers with many columns pass column-major
    (order="F") blocks; other layouts are copied to column-major first.
    Both backends return 2-D blocks column-major too.
    """
    targets = np.asarray(targets, dtype=float)
    if not np.all(np.isfinite(targets)):
        raise NonFinite("condexp received non-finite targets")
    flat = np.asfortranarray(targets.reshape(targets.shape[0], -1))
    varying = np.ptp(flat, axis=0) != 0.0
    if not varying.any():
        return targets.copy(order="K")
    if varying.all():
        return backend.condexp(targets, k, paths)
    out = flat.copy(order="F")
    out[:, varying] = backend.condexp(flat[:, varying], k, paths)
    return out.reshape(targets.shape)
