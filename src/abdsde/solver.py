"""Backward solver for anticipated equations, and the contraction machinery.

The discrete scheme, one step from node k+1 to node k (h = step size):

    e-step   e_k   = condexp( phi(Y_{k+d_delta}, Z_{k+d_zeta}), k )
    g-step   G_{k+1} = g(t_{k+1}, Y_{k+1}, Z_{k+1}, raw anticipated values)
    Z-step   Z_k   = condexp( (Y_{k+1} + G_{k+1} dB_k) dW_k, k ) / h
    Y-step   Ybar_k = condexp( Y_{k+1} + G_{k+1} dB_k, k )
             Y_k   = Ybar_k + h f(t_k, Yhat, Z_k, e_k),  Yhat = Ybar_k,
             optionally refined by `implicit_iters` passes
             Yhat <- Ybar_k + h f(t_k, Yhat, Z_k, e_k).

The e-, Z- and Y-steps condition on the same node-k field, so they are one
stacked projection: a single condexp call on the column block
[Z target | raw functionals | Y target], one design for all of them
(least-squares Monte Carlo with one basis per date, as in Gobet, Lemor &
Warin 2005).  Anticipated indices are strictly in the future (offsets
>= 1), so node k's raw functionals read final values; they are computed
once and serve node k-1's g-step as its raw anticipated values.  For the
same reason one backward sweep already produces the fixed point of the
frozen-anticipation map below.  The g integrand sits at the right
endpoint, matching the backward-integral convention of `paths`.  Because
increments of W after node k are independent of the node-k information
field, E[c dW_k | .] = 0 for any path-constant c; the Z-step uses that
identity per component: a component whose Y target is constant gets zero
Z-target columns, which condexp returns bit for bit, so deterministic
scenarios stay exact, and so does each constant part of a stacked pair
(`comparison.run_comparison` solves a pair as one scenario with m1 + m2
components).  The per-node residual RMS of the Y-step is recorded per
component for the same reason: each part of a stacked pair keeps its own.
Y and Z are stored component by component, each component's
(paths, nodes) block contiguous, behind the usual (P, n_nodes, m[, d])
views.

`solve_backward_sweep` is the one solve.  Given `frozen=`, it reads the
anticipated arguments from that process instead of from the live sweep:
this is the frozen-anticipation map, whose iteration (`picard_iterate`) is
the constructive route to the solution and contracts in the exponentially
weighted norm with the factor bounded by `contraction_params`.  Starting
from `default_initial`, N applications of the map build the solution piece
by piece over the N segments of the interval segmentation, which every
solve records in `metadata["segmentation"]`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .condexp import condexp
from .delays import segment_interval
from .errors import (Infeasible, NoConvergence, NonFinite, NonTermination,
                     ShapeMismatch)
from .generators import check_feasible, LipschitzData
from .paths import PathEnsemble, PathProcess
from .scenario import Scenario

#: gamma would degenerate to 0 when c = 0; any positive value keeps the
#: weighted norm a norm without breaking the contraction inequality.
GAMMA_FLOOR = 1e-6


@dataclass
class SolutionProcess:
    """Grid-indexed (Y, Z) on [0, T+K] with run metadata."""

    Y: PathProcess
    Z: PathProcess
    metadata: dict = field(default_factory=dict)

    @property
    def grid(self):
        return self.Y.grid

    @property
    def n_paths(self) -> int:
        return self.Y.n_paths


@dataclass(frozen=True)
class ContractionParams:
    """Constants (lambda0, beta, gamma, cbar) of the weighted-norm contraction."""

    lam0: float
    beta: float
    gamma: float
    cbar: float


def contraction_params(lip: LipschitzData, M: float,
                       lam0: float | None = None) -> ContractionParams:
    """Contraction constants for Lipschitz data `lip` and substitution bound M.

    With the default lambda0 = 2c(1+M)/(1 - alpha1 - alpha2*M) the factor is
    cbar = (1 + alpha1 + alpha2*M)/2 < 1.  An explicit lambda0 must still
    yield cbar < 1.
    """
    load = check_feasible(lip, M)
    c = lip.c
    if lam0 is None:
        lam0 = 2.0 * c * (1.0 + M) / (1.0 - load) if c > 0 else 1.0
    if lam0 <= 0:
        raise Infeasible(f"lambda0 must be positive, got {lam0}")
    cbar = (c / lam0) * (1.0 + M) + load
    if cbar >= 1.0:
        raise Infeasible(
            f"lambda0={lam0:.6g} gives contraction factor {cbar:.6g} >= 1")
    if c > 0:
        gamma = c * (1.0 + lam0) * (1.0 + M) / (c * (1.0 + M) + lam0 * load)
    else:
        gamma = GAMMA_FLOOR
    return ContractionParams(lam0=lam0, beta=lam0 + gamma, gamma=gamma, cbar=cbar)


def weighted_norm(sol: SolutionProcess, params: ContractionParams) -> float:
    """Exponentially weighted grid norm over all nodes of [0, T+K]:

    ( mean over paths of sum_k e^{beta t_k} (gamma |Y_k|^2 + |Z_k|^2) h )^(1/2).
    """
    grid = sol.grid
    t = grid.times
    t_max = float(t[-1])
    w = np.exp(params.beta * (t - t_max))  # shifted to avoid overflow in the sum
    y2 = np.sum(sol.Y.values ** 2, axis=2)
    z2 = np.sum(sol.Z.values ** 2, axis=(2, 3))
    per_path = ((params.gamma * y2 + z2) * w[None, :]).sum(axis=1) * grid.h
    return math.exp(0.5 * params.beta * t_max) * math.sqrt(float(per_path.mean()))


def weighted_distance(a: SolutionProcess, b: SolutionProcess,
                      params: ContractionParams) -> float:
    diff = SolutionProcess(
        Y=PathProcess(grid=a.grid, values=a.Y.values - b.Y.values),
        Z=PathProcess(grid=a.grid, values=a.Z.values - b.Z.values))
    return weighted_norm(diff, params)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

def _alloc(scenario: Scenario, paths: PathEnsemble):
    gen = scenario.generator
    grid = scenario.grid
    term = scenario.terminal_data(paths)
    P = paths.n_paths
    # Component-major storage behind the (P, n_nodes, m[, d]) views: each
    # component's block is contiguous, as a one-component solve's would be,
    # so a stacked pair's components split into that layout.
    Y = np.zeros((gen.m, P, grid.n_nodes)).transpose(1, 2, 0)
    Z = np.zeros((gen.m, P, grid.n_nodes, gen.d)).transpose(1, 2, 0, 3)
    Y[:, grid.n_T:] = term.xi
    Z[:, grid.n_T:] = term.eta
    return Y, Z


def _raw_functionals(scenario: Scenario, Y: np.ndarray, Z: np.ndarray, k: int):
    gen = scenario.generator
    if not gen.anticipates:
        return np.zeros((Y.shape[0], 0))
    off = scenario.offsets
    return gen.eval_functionals(Y[:, k + off.d_delta[k]], Z[:, k + off.d_zeta[k]])


def solve_backward_sweep(scenario: Scenario, paths: PathEnsemble, backend,
                         frozen: SolutionProcess | None = None) -> SolutionProcess:
    """Solve the anticipated equation in one backward sweep.

    Anticipated arguments are read from the live sweep, or from `frozen`
    when given (the frozen-anticipation map).  The frozen process must live
    on the scenario grid and paths with the terminal part equal to
    (xi, eta); the output again has that terminal part.

    metadata["segmentation"] holds the points of `segment_interval`, or
    (T, 0.0) without a delay, or None when a delay shorter than one step
    leaves no segmentation on the grid (the offsets snap it to one step).
    metadata["ybar_residual_rms"] maps each swept node to one residual RMS
    per component.
    """
    gen = scenario.generator
    grid = scenario.grid
    h = grid.h
    Y, Z = _alloc(scenario, paths)
    if frozen is None:
        ant_Y, ant_Z = Y, Z
    else:
        if frozen.grid.n_nodes != grid.n_nodes:
            raise ShapeMismatch("frozen process lives on a different grid")
        if frozen.n_paths != paths.n_paths:
            raise ShapeMismatch("frozen process holds a different path count")
        ant_Y, ant_Z = frozen.Y.values, frozen.Z.values
    P = paths.n_paths
    n_z, n_e = gen.m * gen.d, gen.q_total
    # All of node k's targets, [Z target | raw functionals | Y target], in
    # one column-major buffer reused at every node: one condexp call per node.
    block = np.empty((P, n_z + n_e + gen.m), order="F")
    z_cols, e_cols, y_cols = np.split(block, [n_z, n_z + n_e], axis=1)
    resid = {}

    e_raw = _raw_functionals(scenario, ant_Y, ant_Z, grid.n_T)
    # node k+1's values, carried as contiguous copies of Y[:, k+1], Z[:, k+1]
    y_next, z_next = Y[:, grid.n_T].copy(), Z[:, grid.n_T].copy()
    for k in range(grid.n_T - 1, -1, -1):
        t_k = grid.time(k)
        g_val = np.asarray(gen.g(grid.time(k + 1), y_next, z_next, e_raw))
        target = y_next + np.einsum("pml,pl->pm", g_val, paths.dB[:, k])
        # offsets are >= 1: node k's functionals read final values, and
        # serve node k-1 as its raw functionals at k
        e_raw = _raw_functionals(scenario, ant_Y, ant_Z, k)
        e_cols[:] = e_raw
        y_cols[:] = target

        constant = np.ptp(y_cols, axis=0) == 0.0
        for i in range(gen.m):
            z_i = z_cols[:, i * gen.d:(i + 1) * gen.d]
            if constant[i]:
                # E[c dW_k | node-k field] = 0 for constant c; condexp
                # returns these zero columns bit for bit
                z_i[:] = 0.0
            else:
                np.multiply(target[:, i, None], paths.dW[:, k], out=z_i)
        z_fit, e_k, y_bar = np.split(condexp(backend, block, k, paths),
                                     [n_z, n_z + n_e], axis=1)
        z_k = z_fit.reshape(P, gen.m, gen.d) / h

        resid[k] = tuple(float(np.sqrt(np.mean((target[:, i] - y_bar[:, i]) ** 2)))
                         for i in range(gen.m))
        y_hat = y_bar
        for _ in range(scenario.implicit_iters):
            y_hat = y_bar + h * np.asarray(gen.f(t_k, y_hat, z_k, e_k))

        if not (np.all(np.isfinite(y_hat)) and np.all(np.isfinite(z_k))):
            raise NonFinite(f"sweep produced non-finite values at node {k}")
        Y[:, k] = y_next = y_hat
        Z[:, k] = z_next = z_k

    if scenario.delay is None:
        segmentation = (grid.T, 0.0)
    else:
        try:
            segmentation = segment_interval(scenario.delay, grid).points
        except NonTermination:
            segmentation = None
    meta = {
        "backend": getattr(backend, "describe", lambda: str(backend))(),
        "implicit_iters": scenario.implicit_iters,
        # full reductions: no (P, n_nodes) temporaries
        "l2_Y": float(np.einsum("pkm,pkm->", Y, Y)) / P * h,
        "l2_Z": float(np.einsum("pkmd,pkmd->", Z, Z)) / P * h,
        "ybar_residual_rms": resid,
        "segmentation": segmentation,
    }
    return SolutionProcess(Y=PathProcess(grid=grid, values=Y),
                           Z=PathProcess(grid=grid, values=Z), metadata=meta)


# ---------------------------------------------------------------------------
# frozen-anticipation map and its fixed-point iteration
# ---------------------------------------------------------------------------

def default_initial(scenario: Scenario, paths: PathEnsemble) -> SolutionProcess:
    """(y0, z0) = (xi_T extended constantly backward, 0), terminal part kept."""
    Y, Z = _alloc(scenario, paths)
    Y[:, : scenario.grid.n_T] = Y[:, scenario.grid.n_T][:, None, :]
    return SolutionProcess(Y=PathProcess(grid=scenario.grid, values=Y),
                           Z=PathProcess(grid=scenario.grid, values=Z),
                           metadata={"initial": "terminal-extension"})


def constant_initial(scenario: Scenario, paths: PathEnsemble,
                     value: float) -> SolutionProcess:
    """(y0, z0) = (constant, 0) on [0, T), terminal part kept."""
    Y, Z = _alloc(scenario, paths)
    Y[:, : scenario.grid.n_T] = value
    return SolutionProcess(Y=PathProcess(grid=scenario.grid, values=Y),
                           Z=PathProcess(grid=scenario.grid, values=Z),
                           metadata={"initial": f"constant({value})"})


def picard_iterate(scenario: Scenario, paths: PathEnsemble, backend,
                   tol: float = 1e-9, max_iter: int = 64,
                   init: SolutionProcess | None = None,
                   params: ContractionParams | None = None):
    """Iterate the frozen-anticipation map to its fixed point.

    Stops when the weighted distance between successive iterates drops
    below `tol`; returns (solution, list of successive distances).  Because
    anticipation reads strictly later nodes, the iteration terminates after
    at most one application per segment of the interval segmentation.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if params is None:
        params = contraction_params(scenario.generator.lip, scenario.M)
    current = init if init is not None else default_initial(scenario, paths)
    log: list[float] = []
    for _ in range(max_iter):
        nxt = solve_backward_sweep(scenario, paths, backend, frozen=current)
        dist = weighted_distance(nxt, current, params)
        log.append(dist)
        current = nxt
        if dist < tol:
            current.metadata["picard_distances"] = tuple(log)
            current.metadata["iterations"] = len(log)
            return current, log
    raise NoConvergence(
        f"distance {log[-1]:.3g} >= tol {tol:.3g} after {max_iter} iterations")
