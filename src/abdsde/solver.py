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
Y and Z are stored as (nodes, paths) contiguous per component behind the
usual (P, n_nodes, m[, d]) views, like the increments in `paths`: each
node's store, each anticipated read and each dW_k, dB_k read touches one
contiguous slab per component.  The node-k state (W_{t_k}, B_{t_{n_T}} -
B_{t_k}) is carried down the sweep by the ensemble, one subtraction per
node from node k + 1, so a solve holds no whole-horizon copy of W or B.
The sweep reads the drivers only on the steps 0..n_T-1 and the terminal
data read them at most to the node `TerminalSpec.last_node_read` names,
so an ensemble that stores just the leading `Scenario.steps_read` steps
gives the same bits as a full one.  While node k fits, the sweep holds the
stored increments, the pending functionals, the (Y, Z) ring, node k+1's Z
and one target block, beside condexp's design and fit.  The block's Y
columns hold node k+1's Y, then node k's Y target formed over it, then
node k's squared residual and Y_k, which node k-1 reads and overwrites;
node k's g value, fit and f value are freed before node k-1 fits.

The sweep reads later nodes only through the functionals.  Node i's
functionals read Y at a = i + d_delta[i] and Z at b = i + d_zeta[i]; they
are evaluated as soon as the later-swept of the two, min(a, b), is stored
(before the sweep, from the terminal data, when both are terminal), and
their (P, q_total) values are held until node i's e-step and node i-1's
g-step have read them: at most 1 + the largest offset such slabs at once.
The node axis of (Y, Z) is a ring of L slots, node k in slot k % L.  A
caller that keeps the solution gets L = n_nodes.  A caller that reduces
node by node passes `on_node` instead: a swept node is then held only
until the last evaluation that reads it, so L = 1 + the largest |a - b|
over pairs of swept nodes (1 when delta = zeta, and without anticipation),
and each node is handed over right after it is stored, terminal nodes
first, from n_end down to 0.

`solve_backward_sweep` is the one solve.  Given `frozen=`, it reads the
anticipated arguments from that process instead of from the live sweep:
this is the frozen-anticipation map, whose iteration (`picard_iterate`) is
the constructive route to the solution and contracts in the exponentially
weighted norm with the factor bounded by `contraction_params`.  Starting
from `default_initial`, N applications of the map build the solution piece
by piece over the N segments of the interval segmentation
(`delays.segment_interval`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .condexp import condexp
from .errors import Infeasible, NoConvergence, NonFinite, ShapeMismatch, ValidationError
from .generators import check_feasible, LipschitzData
from .grids import TimeGrid
from .paths import PathEnsemble
from .scenario import Scenario
from .terminal import TerminalData

#: gamma would degenerate to 0 when c = 0; any positive value keeps the
#: weighted norm a norm without breaking the contraction inequality.
GAMMA_FLOOR = 1e-6


@dataclass
class SolutionProcess:
    """Grid-indexed (Y, Z) on [0, T+K] with run metadata.

    Y has shape (P, n_nodes, m) and Z has shape (P, n_nodes, m, d).
    """

    grid: TimeGrid
    Y: np.ndarray
    Z: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, values in (("Y", self.Y), ("Z", self.Z)):
            if values.shape[1] != self.grid.n_nodes:
                raise ShapeMismatch(f"{name} needs {self.grid.n_nodes} nodes, "
                                    f"got shape {values.shape}")

    @property
    def n_paths(self) -> int:
        return self.Y.shape[0]


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
    if not lam0 > 0:
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
    y2 = np.sum(sol.Y ** 2, axis=2)
    z2 = np.sum(sol.Z ** 2, axis=(2, 3))
    per_path = ((params.gamma * y2 + z2) * w[None, :]).sum(axis=1) * grid.h
    return math.exp(0.5 * params.beta * t_max) * math.sqrt(float(per_path.mean()))


def weighted_distance(a: SolutionProcess, b: SolutionProcess,
                      params: ContractionParams) -> float:
    diff = SolutionProcess(grid=a.grid, Y=a.Y - b.Y, Z=a.Z - b.Z)
    return weighted_norm(diff, params)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

def _ring(scenario: Scenario, term: TerminalData, n_slots: int, on_node=None):
    """(Y, Z) storage of n_slots node slots, node k in slot k % n_slots, with
    the terminal nodes filled from n_end down to n_T, each passed to
    `on_node` once stored."""
    gen = scenario.generator
    grid = scenario.grid
    P = term.n_paths
    # (component, slot, path) storage behind the (P, n_slots, m[, d])
    # views: the sweep stores and reads one contiguous (P[, d]) slab per
    # component and node, and a stacked pair's components split into the
    # layout of a one-component solve.
    Y = np.zeros((gen.m, n_slots, P)).transpose(2, 1, 0)
    Z = np.zeros((gen.m, n_slots, P, gen.d)).transpose(2, 1, 0, 3)
    for k in range(grid.n_end, grid.n_T - 1, -1):
        slot = k % n_slots
        Y[:, slot] = term.xi_at(k)
        Z[:, slot] = term.eta_at(k)
        if on_node is not None:
            on_node(k, Y[:, slot], Z[:, slot])
    return Y, Z


def _schedule(scenario: Scenario):
    """When the sweep evaluates each node's functionals, and its ring size.

    Node i's functionals read Y at a = i + d_delta[i] and Z at
    b = i + d_zeta[i], both later than i.  They are evaluated once the
    later-swept of the two, min(a, b), is stored, or before the sweep when
    both are terminal.  Returns ({r: the (i, a, b) due once node r is
    stored, with r = n_T for before the sweep}, ring slots): a ring of
    1 + the largest |a - b| over pairs of swept nodes still holds
    max(a, b) when min(a, b) is stored.
    """
    if not scenario.generator.anticipates:
        return {}, 1
    n_T, off = scenario.grid.n_T, scenario.offsets
    due, spans = {}, [0]
    for i in range(n_T, -1, -1):
        a, b = i + int(off.d_delta[i]), i + int(off.d_zeta[i])
        due.setdefault(min(a, b, n_T), []).append((i, a, b))
        if max(a, b) < n_T:
            spans.append(abs(a - b))
    return due, 1 + max(spans)


def solve_backward_sweep(scenario: Scenario, paths: PathEnsemble, backend,
                         frozen: SolutionProcess | None = None,
                         on_node=None) -> SolutionProcess | dict:
    """Solve the anticipated equation in one backward sweep.

    Returns the SolutionProcess, or, given `on_node`, only its metadata:
    then the sweep keeps just the swept nodes its functionals still read and
    calls `on_node(k, Y_k, Z_k)` once per node, from n_end down to 0, with the
    (P, m) and (P, m, d) values of node k as views valid during the call.

    Anticipated arguments are read from the live sweep, or from `frozen`
    when given (the frozen-anticipation map).  The frozen process must live
    on the scenario grid and paths with the terminal part equal to
    (xi, eta); the output again has that terminal part.

    metadata["ybar_residual_rms"] maps each swept node to one residual RMS
    per component.
    """
    gen = scenario.generator
    grid = scenario.grid
    h = grid.h
    if frozen is not None:
        if frozen.grid != grid:
            raise ShapeMismatch(f"the frozen process lies on {frozen.grid}, "
                                f"the scenario on {grid}")
        if frozen.n_paths != paths.n_paths:
            raise ShapeMismatch("frozen process holds a different path count")
    due, ring_slots = _schedule(scenario)
    n_slots = grid.n_nodes if on_node is None else ring_slots
    term = scenario.terminal_data(paths)
    Y, Z = _ring(scenario, term, n_slots, on_node)
    P = paths.n_paths
    n_z, n_e = gen.m * gen.d, gen.q_total
    # All of node k's targets, [Z target | raw functionals | Y target], in
    # one column-major buffer reused at every node: one condexp call per node.
    block = np.empty((P, n_z + n_e + gen.m), order="F")
    z_cols, e_cols, y_cols = np.split(block, [n_z, n_z + n_e], axis=1)
    resid = {}

    def node(k):
        """Node k's (Y, Z) as the functionals read them."""
        if frozen is not None:
            return frozen.Y[:, k], frozen.Z[:, k]
        if k >= grid.n_T:
            return term.xi_at(k), term.eta_at(k)
        return Y[:, k % n_slots], Z[:, k % n_slots]

    # node i -> its raw functionals, held from their evaluation until node
    # i's e-step and node i-1's g-step have read them
    raw = {}
    no_functionals = np.zeros((P, 0))

    def evaluate(r):
        for i, a, b in due.get(r, ()):
            raw[i] = gen.eval_functionals(node(a)[0], node(b)[1])

    evaluate(grid.n_T)
    # node k+1's values: Z as a contiguous copy of its slot, Y where it was
    # formed, in the block's Y columns (the terminal node's as a copy)
    y_next = Y[:, grid.n_T % n_slots].copy()
    z_next = Z[:, grid.n_T % n_slots].copy()
    for k in range(grid.n_T - 1, -1, -1):
        t_k = grid.time(k)
        g_val = np.asarray(gen.g(grid.time(k + 1), y_next, z_next,
                                 raw.pop(k + 1, no_functionals)))
        # the Y target is formed in its block columns, so neither a separate
        # target nor g's value is held through the fit
        np.add(y_next, np.einsum("pml,pl->pm", g_val, paths.db(k)), out=y_cols)
        del g_val
        e_cols[:] = raw.get(k, no_functionals)

        constant = np.ptp(y_cols, axis=0) == 0.0
        dw_k = paths.dw(k)
        for i in range(gen.m):
            z_i = z_cols[:, i * gen.d:(i + 1) * gen.d]
            if constant[i]:
                # E[c dW_k | node-k field] = 0 for constant c; condexp
                # returns these zero columns bit for bit
                z_i[:] = 0.0
            else:
                np.multiply(y_cols[:, i, None], dw_k, out=z_i)
        z_fit, e_k, y_bar = np.split(condexp(backend, block, k, paths),
                                     [n_z, n_z + n_e], axis=1)
        z_k = z_fit.reshape(P, gen.m, gen.d) / h

        # the residual and Y_k are formed in the Y-target columns, which the
        # fit has read and node k-1 overwrites; f's value is only read, as
        # it may view e_k, which every pass reads again
        np.square(np.subtract(y_cols, y_bar, out=y_cols), out=y_cols)
        resid[k] = tuple(float(np.sqrt(np.mean(y_cols[:, i]))) for i in range(gen.m))
        y_hat = y_bar
        for _ in range(scenario.implicit_iters):
            y_hat = np.add(y_bar, h * gen.f(t_k, y_hat, z_k, e_k), out=y_cols)

        if not (np.all(np.isfinite(y_hat)) and np.all(np.isfinite(z_k))):
            raise NonFinite(f"sweep produced non-finite values at node {k}")
        slot = k % n_slots
        Y[:, slot] = y_next = y_hat
        Z[:, slot] = z_next = z_k
        del z_fit, e_k, y_bar  # free the fit before node k-1's allocates
        if on_node is not None:
            on_node(k, Y[:, slot], Z[:, slot])
        evaluate(k)

    metadata = {"ybar_residual_rms": resid}
    if on_node is not None:
        return metadata
    return SolutionProcess(grid=grid, Y=Y, Z=Z, metadata=metadata)


# ---------------------------------------------------------------------------
# frozen-anticipation map and its fixed-point iteration
# ---------------------------------------------------------------------------

def default_initial(scenario: Scenario, paths: PathEnsemble) -> SolutionProcess:
    """(y0, z0) = (xi_T extended constantly backward, 0), terminal part kept."""
    Y, Z = _ring(scenario, scenario.terminal_data(paths), scenario.grid.n_nodes)
    Y[:, : scenario.grid.n_T] = Y[:, scenario.grid.n_T][:, None, :]
    return SolutionProcess(grid=scenario.grid, Y=Y, Z=Z)


def constant_initial(scenario: Scenario, paths: PathEnsemble,
                     value: float) -> SolutionProcess:
    """(y0, z0) = (constant, 0) on [0, T), terminal part kept."""
    Y, Z = _ring(scenario, scenario.terminal_data(paths), scenario.grid.n_nodes)
    Y[:, : scenario.grid.n_T] = value
    return SolutionProcess(grid=scenario.grid, Y=Y, Z=Z)


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
    if not tol > 0:
        raise ValidationError("tol must be positive")
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
            return current, log
    raise NoConvergence(
        f"distance {log[-1]:.3g} >= tol {tol:.3g} after {max_iter} iterations")
