"""Duality between the linear anticipated equation and a delayed forward one.

The linear backward scenario with coefficients (mu, mu_bar, sigma,
sigma_bar, kappa, rho) and a single constant delay has a dual forward
equation for a process X started at 1 at time t0 and at 0 just before; the
backward solution at t0 equals a conditional expectation (given the future
of B) of a functional of X:

    Y_t = E[ X_T xi_T + int_t^T rho X_s ds | B-future ]
        + E[ int_T^{T+delta} ( mu_bar X_{s-delta} xi_s
                             + sigma_bar X_{s-delta} eta_s ) ds | B-future ],

for deterministic (xi, eta) profiles.  The harness makes one pass per grid:
it draws P paths, solves the backward equation on them with the regression
solver, keeping only Y at t0 on the first n_outer paths, and evaluates the
right-hand side by nested Monte Carlo on those paths (each outer path's
B-increments shared by a fresh inner draw whose W-paths vary), reporting
the per-outer-path residual.  An inner path draws only what its forward
solve reads, W on the steps from t0 to T: X is 0 before t0, the solve
stops at T, and the outer path supplies B.  The outer paths run on one
worker thread per CPU the process may use; each draws its inner paths in
row blocks of the same Philox stream, so the residuals are the same bits
whatever the worker count.  The inner forward solve is node-major: a
block's X_k is one contiguous row, each step writes it through scratch
vectors allocated once per solve, the denominators 1 - kappa dB_k are
formed and checked once per outer path, and one finiteness pass checks
each solve.  The run's own grid gives the residuals, and the same pass on
coarser grids calibrates the tolerances, so no tolerance is set by hand.

Discretization: the forward kappa term sits against the backward integral,
so it is evaluated at the right endpoint, which makes each forward step an
implicit (scalar) solve; time integrals use the trapezoid rule on the grid.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .condexp import (RegressionBackend, RegressionBasis, _poly_features,
                      _ridge_fit)
from .errors import NonCommensurate, NonFinite, ValidationError
from .delays import constant_delay, DelaySpec
from .generators import builtin_generator
from .grids import TimeGrid, make_grid
from .paths import _node_rows, increment_blocks, PathEnsemble, sample_paths
from .scenario import make_scenario, Scenario
from .solver import solve_backward_sweep, SolutionProcess
from .terminal import TerminalSpec


@dataclass(frozen=True)
class LinearDualityCoeffs:
    """Constants of the linear pair; sigma/sigma_bar are d-vectors, kappa an
    l-vector.  Terminal data must be deterministic for the representation
    (constant or affine profile)."""

    mu: float = 0.0
    mu_bar: float = 0.0
    sigma: tuple = (0.0,)
    sigma_bar: tuple = (0.0,)
    kappa: tuple = (0.0,)
    rho: float = 0.0
    delta: float = 0.25
    t0: float = 0.25
    terminal: TerminalSpec = field(
        default_factory=lambda: TerminalSpec(name="constant", params={"value": 1.0}))

    @property
    def d(self) -> int:
        return len(self.sigma)

    @property
    def l(self) -> int:
        return len(self.kappa)

    def __post_init__(self):
        if len(self.sigma_bar) != self.d:
            raise ValidationError("sigma and sigma_bar must share a dimension")
        if not self.t0 >= self.delta:
            raise ValidationError(
                f"need t0 >= delta > 0, got t0={self.t0}, delta={self.delta}")
        if not self.delta > 0:
            raise ValidationError("delta must be positive")

    def generator(self):
        return builtin_generator(
            "duality_linear", d=self.d, l=self.l, mu=self.mu, mu_bar=self.mu_bar,
            sigma=list(self.sigma), sigma_bar=list(self.sigma_bar),
            kappa=list(self.kappa), rho=self.rho)

    def scenario(self, grid: TimeGrid) -> Scenario:
        delay = DelaySpec(delta=constant_delay(self.delta),
                          zeta=constant_delay(self.delta))
        return make_scenario(grid, self.generator(), self.terminal, delay=delay)

    def grid_for(self, T: float, h: float) -> TimeGrid:
        return make_grid(T, self.delta, h)

    def profiles(self, grid: TimeGrid):
        """Deterministic (xi, eta) values on terminal nodes n_T..n_end."""
        profile = self.terminal.profile(grid)
        if profile is None:
            raise ValidationError("duality needs a deterministic terminal profile, "
                                  f"got '{self.terminal.name}'")
        return profile


def solve_delayed_dsde(coeffs: LinearDualityCoeffs, paths: PathEnsemble,
                       k0: int) -> np.ndarray:
    """Forward Euler for the delayed equation, X_{t_{k0}} = 1, X = 0 before.

    Returns the values on nodes 0..n_T, shape (P, n_T + 1) (a transposed
    view of the node-major solve).  Per step, with dd = delta/h and
    right-endpoint kappa term:

      X_{k+1} (1 - kappa dB_k) = X_k + (mu X_k + mu_bar X_{k-dd}) h
                                 + (sigma X_k + sigma_bar X_{k-dd}) dW_k.
    """
    grid = paths.grid
    dB = _node_rows(paths.db, 0, grid.n_T, (paths.n_paths, paths.l))
    denom = _denominators(coeffs, dB, grid, k0)
    dW = _node_rows(paths.dw, k0, grid.n_T, (paths.n_paths, paths.d))
    return _forward(coeffs, dW.transpose(1, 0, 2), denom, grid, k0).T


def _denominators(coeffs: LinearDualityCoeffs, dB: np.ndarray, grid: TimeGrid,
                  k0: int) -> np.ndarray:
    """1 - kappa dB_k on the forward steps k0 <= k < n_T, row k - k0.

    dB is node-major, at least the n_T steps up to T: (steps, l) for one
    B-path that every inner path shares, or (steps, P, l).  The sum over l
    runs left to right in both, so a path's denominators have the same bits
    whichever shape carries it.
    Raises NonFinite naming the first node where one nearly vanishes.
    """
    dB = dB[k0:grid.n_T]
    dot = dB[..., 0] * coeffs.kappa[0]
    for i in range(1, coeffs.l):
        dot = dot + dB[..., i] * coeffs.kappa[i]
    denom = 1.0 - dot
    degenerate = np.argwhere(np.abs(denom) < 1e-8)  # in node order
    if len(degenerate):
        raise NonFinite("implicit kappa step degenerate at node "
                        f"{k0 + int(degenerate[0, 0])}")
    return denom


def _forward(coeffs: LinearDualityCoeffs, dW: np.ndarray, denom: np.ndarray,
             grid: TimeGrid, k0: int) -> np.ndarray:
    """The Euler steps of solve_delayed_dsde, node-major: returns X of shape
    (n_T + 1, P), node k in the row X[k].

    dW holds only the W-increments the steps read, shape (P, n_T - k0, d):
    dW[:, j] is step k0 + j, since X is 0 before t0 and stops at T.  denom
    is _denominators' result, indexed the same way: a number per step when
    every path shares one B-path, else a (P,) row per step.  Each step
    writes through (P,) scratch vectors allocated once per solve, in the
    order (x + drift + noise) / denom with the d noise columns summed left
    to right, and one isfinite pass over the solved rows checks the whole
    solve.
    """
    dd = grid.index_of(coeffs.delta)
    if not dd <= k0 <= grid.n_T:
        raise ValidationError(f"start node {k0} is outside the delay window "
                              f"{dd} to the horizon node {grid.n_T}")
    P = dW.shape[0]
    mu, mu_bar, h = coeffs.mu, coeffs.mu_bar, grid.h
    sigma = np.asarray(coeffs.sigma)
    sigma_bar = np.asarray(coeffs.sigma_bar)
    X = np.empty((grid.n_T + 1, P))
    X[:k0] = 0.0
    X[k0] = 1.0
    drift, noise, column, term = (np.empty(P) for _ in range(4))
    # a blow-up runs on as inf and nan to the check after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(k0, grid.n_T):
            x, x_del, x_next = X[k], X[k - dd], X[k + 1]
            np.multiply(x, mu, out=drift)
            np.multiply(x_del, mu_bar, out=term)
            np.add(drift, term, out=drift)
            np.multiply(drift, h, out=drift)
            for i in range(coeffs.d):  # noise columns summed left to right
                acc = noise if i == 0 else column
                np.multiply(x, sigma[i], out=acc)
                np.multiply(x_del, sigma_bar[i], out=term)
                np.add(acc, term, out=acc)
                np.multiply(acc, dW[:, k - k0, i], out=acc)
                if i:
                    np.add(noise, column, out=noise)
            np.add(x, drift, out=x_next)
            np.add(x_next, noise, out=x_next)
            np.divide(x_next, denom[k - k0], out=x_next)
    finite = np.isfinite(X[k0 + 1:])
    if not finite.all():
        raise NonFinite("delayed forward solve blew up at node "
                        f"{k0 + int(np.argwhere(~finite)[0, 0])}")
    return X


def _bracket(coeffs: LinearDualityCoeffs, values: np.ndarray, grid: TimeGrid,
             k0: int) -> np.ndarray:
    """Per-path value of the duality functional of one forward solution,
    given node-major: values[k] holds X_k on nodes 0..n_T.

    np.trapezoid sums a C-contiguous (rows, nodes) array along each row
    pairwise, so both integrals read such a copy; a transposed view would
    sum in another order and change the bits.
    """
    dd = grid.index_of(coeffs.delta)
    xi, eta = coeffs.profiles(grid)
    out = values[grid.n_T] * xi[0]
    if coeffs.rho != 0.0:
        rows = np.ascontiguousarray(values[k0:].T)
        out = out + coeffs.rho * np.trapezoid(rows, dx=grid.h, axis=1)
    if coeffs.mu_bar != 0.0 or np.any(np.asarray(coeffs.sigma_bar) != 0.0):
        # int_T^{T+delta} (mu_bar X_{s-delta} xi_s + sigma_bar X_{s-delta} eta_s) ds;
        # eta has equal coordinates, so sigma_bar . eta_s = sum(sigma_bar) * eta
        x_del = np.ascontiguousarray(values[grid.n_T - dd:].T)
        weights = coeffs.mu_bar * xi + float(np.sum(coeffs.sigma_bar)) * eta
        out = out + np.trapezoid(x_del * weights[None, :], dx=grid.h, axis=1)
    return out


def duality_rhs(coeffs: LinearDualityCoeffs, outer_dB: np.ndarray,
                grid: TimeGrid, k0: int, inner: int, seed: tuple) -> tuple:
    """Nested Monte Carlo estimate of the representation, per outer B-path.

    Returns (estimates, inner standard errors), each of shape (n_outer,).
    Outer path j gets inner paths whose B-increments are all outer path j's
    and whose W-increments are a fresh draw keyed by seed + (j,), so only W
    varies, which realizes conditioning on the B-future.  An inner path
    draws only what the forward solve reads: W on the steps k0..n_T - 1, an
    (n_T - k0, d) array.  The outer paths run on a thread pool, one worker
    per CPU this process may use; each worker draws and solves an outer
    path's inner paths in row blocks, and the results do not depend on the
    worker count or the block size.
    """
    # imported here: the other commands need no pool, and every process pays
    # for a module-level import at start-up
    from concurrent.futures import ThreadPoolExecutor

    n_outer = outer_dB.shape[0]
    workers = min(len(os.sched_getaffinity(0)), n_outer)

    def moments(j):
        # no name that a tracer may wrap is called here: the workers run
        # concurrently, and wrappers of module globals need not be thread-safe
        vals = np.empty(inner)
        denom = _denominators(coeffs, outer_dB[j], grid, k0)
        shape = (grid.n_T - k0, coeffs.d)
        for start, block in increment_blocks(inner, shape, grid.h, seed + (j,)):
            X = _forward(coeffs, block, denom, grid, k0)
            vals[start:start + len(block)] = _bracket(coeffs, X, grid, k0)
        return vals.mean(), (vals.std(ddof=1) / np.sqrt(inner) if inner > 1 else 0.0)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        est, stderr = zip(*pool.map(moments, range(n_outer)))
    return np.array(est), np.array(stderr)


@dataclass
class DualityReport:
    residuals: np.ndarray    # (n_outer,) |y_t0 - rhs|
    tol_mean: float
    tol_max: float
    rate_constant: float
    y_t0: np.ndarray         # (n_outer,) backward Y at t0 on the outer paths
    rhs: np.ndarray          # (n_outer,)

    @property
    def mean_residual(self) -> float:
        return float(self.residuals.mean())

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max())

    @property
    def passed(self) -> bool:
        return self.mean_residual <= self.tol_mean and self.max_residual <= self.tol_max


# step-size multiples of the coarse grids that calibrate the tolerances
_CALIBRATION_FACTORS = (2, 4)


def _grid_pass(coeffs: LinearDualityCoeffs, grid: TimeGrid, k0: int, P: int,
               n_outer: int, inner: int, seed: int,
               backend: RegressionBackend) -> tuple:
    """Draw, backward solve and duality_rhs on one grid: the residuals
    |y_t0 - rhs|, inner standard errors, y_t0 and rhs on the first n_outer paths."""
    scen = coeffs.scenario(grid)
    # a deterministic terminal profile reads no path: n_T steps are stored
    paths = sample_paths(grid, coeffs.d, coeffs.l, P, seed, n_stored=scen.steps_read)
    kept = []

    def keep_y_t0(k, y_k, z_k):  # the sweep holds only its window
        if k == k0:
            kept.append(y_k[:n_outer, 0].copy())

    solve_backward_sweep(scen, paths, backend, on_node=keep_y_t0)
    rhs, stderr = duality_rhs(coeffs, paths.dB[:n_outer], grid, k0, inner,
                              (seed, 104729))
    return np.abs(kept[0] - rhs), stderr, kept[0], rhs


def duality_check(coeffs: LinearDualityCoeffs, T: float, h: float,
                  P: int = 4096, n_outer: int = 64, inner: int = 2048,
                  seed: int = 11,
                  basis: RegressionBasis = RegressionBasis()) -> DualityReport:
    """Residuals between the backward solve and the dual representation.

    Each grid draws P paths, solves the backward equation on them by
    regression on `basis` and compares Y at t0 on the first n_outer <= P
    paths with duality_rhs on their B-increments.  The run's grid, step h,
    gives the residuals; a t0 or horizon off it raises NonCommensurate
    before any draw.  The tolerances are self-calibrated from the run: the
    step-size constant C is the largest mean residual / h over the coarse
    grids with steps h * _CALIBRATION_FACTORS (max(inner // 2, 64) inner
    paths and seed + factor; a grid that T, delta or t0 does not fit is
    skipped), and tol_mean = 3 (mean inner stderr + C h).  tol_max is 3
    tol_mean.
    When no coarse grid fits, C is unknown: a run that passes with C = 0
    passes for every C >= 0 and is reported, any other raises
    ValidationError naming the grids tried.
    """
    if n_outer < 1 or inner < 1:
        raise ValidationError(
            f"need n_outer >= 1 and inner >= 1, got {n_outer} and {inner}")
    if n_outer > P:
        raise ValidationError(f"n_outer = {n_outer} exceeds the path count P = {P}: "
                              "the outer paths are the first paths of the draw")
    if coeffs.t0 > T:
        raise ValidationError(f"t0 = {coeffs.t0:g} is beyond the horizon T = {T:g}")
    grid = coeffs.grid_for(T, h)
    coeffs.profiles(grid)  # a terminal that reads the paths fails here
    k0 = grid.index_of(coeffs.t0)
    backend = RegressionBackend(basis)
    resid, stderr, y_t0, rhs = _grid_pass(coeffs, grid, k0, P, n_outer, inner,
                                          seed, backend)
    rate_c = 0.0
    unfit = []  # steps of the coarse grids that T, delta or t0 does not fit
    for factor in _CALIBRATION_FACTORS:
        try:
            coarse = coeffs.grid_for(T, h * factor)
            coarse_k0 = coarse.index_of(coeffs.t0)
        except NonCommensurate:
            unfit.append(h * factor)
            continue
        coarse_resid = _grid_pass(coeffs, coarse, coarse_k0, P, n_outer,
                                  max(inner // 2, 64), seed + factor, backend)[0]
        rate_c = max(rate_c, float(coarse_resid.mean()) / coarse.h)
    tol_mean = 3.0 * (float(stderr.mean()) + rate_c * h)
    report = DualityReport(residuals=resid, tol_mean=tol_mean, tol_max=3.0 * tol_mean,
                           rate_constant=rate_c, y_t0=y_t0, rhs=rhs)
    if len(unfit) == len(_CALIBRATION_FACTORS) and not report.passed:
        tried = ", ".join(f"{step:g}" for step in unfit)
        raise ValidationError(
            f"no calibration grid fits T = {T:g}, delta = {coeffs.delta:g} and "
            f"t0 = {coeffs.t0:g} (tried h = {tried}), and without the "
            "step-size term the residuals exceed tol_mean")
    return report


# ---------------------------------------------------------------------------
# measurability check: Z vanishes and Y is a function of the B-future
# ---------------------------------------------------------------------------

@dataclass
class MeasurabilityReport:
    z_norm: float
    min_r2: float
    tol_z: float
    tol_meas: float

    @property
    def passed(self) -> bool:
        return self.z_norm <= self.tol_z and 1.0 - self.min_r2 <= self.tol_meas


#: The measurability check's basis, for its Z noise scale and its B-feature fits.
_MEASURABILITY_BASIS = RegressionBasis(degree=2)


def _r2_on_b_features(Y_k: np.ndarray, paths: PathEnsemble, k: int) -> float:
    scale = float(np.abs(Y_k).max())
    if np.ptp(Y_k) <= 1e-12 * max(1.0, scale):
        return 1.0  # constant target: nothing left to explain
    ss_tot = float(np.sum((Y_k - Y_k.mean()) ** 2))
    X = _poly_features(paths.b_tail(k), _MEASURABILITY_BASIS.degree)
    fitted, _ = _ridge_fit(X, Y_k[:, None], 1e-10)
    ss_res = float(np.sum((Y_k - fitted[:, 0]) ** 2))
    return 1.0 - ss_res / ss_tot


def measurability_check(sol: SolutionProcess, paths: PathEnsemble,
                        k0: int) -> MeasurabilityReport:
    """Grid norm of Z on [t0, T] and worst R^2 of Y on B-features alone.

    For a solution of the linear duality scenario both should vanish: Z is
    regression noise shrinking with (h, P) refinement, and Y should be
    explained by the B-future.  tol_z is sqrt(n_features/(h P)), the scale
    of that noise, times max(1, max |Y|); 1 - R^2 may reach 1e-3.
    """
    grid = sol.grid
    z = sol.Z[:, k0: grid.n_T]
    z_norm = float(np.sqrt(np.mean(np.sum(z ** 2, axis=(2, 3)).sum(axis=1) * grid.h)))
    n_features = _MEASURABILITY_BASIS.n_features(paths.d + paths.l)
    tol_z = np.sqrt(n_features / (grid.h * paths.n_paths)) \
        * max(1.0, float(np.abs(sol.Y).max()))
    r2 = [
        _r2_on_b_features(sol.Y[:, k, 0], paths, k)
        for k in range(k0, grid.n_T)
    ]
    return MeasurabilityReport(z_norm=z_norm,
                               min_r2=float(min(r2)) if r2 else 1.0,
                               tol_z=float(tol_z), tol_meas=1e-3)
