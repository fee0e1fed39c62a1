"""Numerical checks of the comparison property: ordered data give ordered solutions.

Two scenarios sharing the path ensemble, the backend and an ordered pair of
terminal data are solved side by side; the report carries the per-node
margin Y1 - Y2 and the violation fraction v(eps) = share of (path, node)
points with Y1 < Y2 - eps.  The ordering conclusion is an almost-sure
statement about the continuous equations, so the Monte Carlo check is
tolerance-qualified: eps* = 3x a run tolerance assembled from the
regression-noise scale and an h-refinement delta, both measured on the run
itself (nothing fixed a priori); exact conditional expectations have
neither, so on a tree eps* is 0.

The pair must share its grid, delay, `implicit_iters`, component count m
and driver dimensions, and is solved jointly: one scenario with m1 + m2
components (block-diagonal f and g, each part's phi reading its own
components) goes through one backward sweep per grid, once on the paths and
once on their coarsening, so each node's regression design serves both
scenarios' targets (one basis per date, as in Gobet, Lemor & Warin 2005).
One join puts the parts side by side, for the f, g and phi values along
their component axis 1 and for the terminal data along axis 2: it writes a
column-major block, the layout of the sweep's target block, and stores
only the axes either part is stored along.  The components never mix, so
each part is what a separate sweep would give, up to the summation order
of the wider least-squares products.  Both sweeps reduce node by node, so
no solution is held, and the fine sweep keeps of each node's margin only
its mean, its min and its negative values: a threshold -eps <= 0 counts no
other margin.  The coarse sweep runs first and keeps only its Y_0 means, so
its ensemble is freed before the fine sweep starts: the two grids' arrays
are never held together.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .condexp import RegressionBackend
from .errors import TerminalOrderViolated, ValidationError
from .generators import GeneratorSpec, LipschitzData
from .paths import PathEnsemble
from .scenario import Scenario
from .solver import solve_backward_sweep
from .terminal import broadcast_base, TerminalData, TerminalSpec

_ORDER_SLACK = 1e-12


def reduce_margin(margin: np.ndarray) -> tuple:
    """One node's margins over the paths as (mean, min, negatives), all a
    report reads of them.  The mean sums down the paths in order, as the
    column mean of a row-major (P, n_nodes) array does, and keeps its bits."""
    return np.cumsum(margin)[-1] / margin.size, margin.min(), margin[margin < 0.0]


@dataclass
class ComparisonReport:
    """Per-node margin summaries of a solved pair, from `reduce_margin`, with
    the violation fractions at `epsilon` counted once.  As only negative
    margins are kept, epsilon must be >= 0 (ValidationError otherwise)."""

    mean_margin: np.ndarray      # (n_nodes,)
    min_margin: np.ndarray       # (n_nodes,)
    negatives: list              # per node, the margins below 0
    n_paths: int
    epsilon: float
    run_tolerance: float
    _violations: float = field(init=False, repr=False)
    _violations_per_node: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.epsilon >= 0.0:
            raise ValidationError(f"epsilon must be >= 0, got {self.epsilon!r}")
        below = np.array([np.count_nonzero(neg < -self.epsilon)
                          for neg in self.negatives])
        self._violations_per_node = below / self.n_paths
        self._violations = float(below.sum() / (self.n_paths * below.size))

    def violation_fraction(self) -> float:
        """Share of (path, node) points with Y1 < Y2 - epsilon."""
        return self._violations

    def violation_fraction_per_node(self) -> np.ndarray:
        """Per-node share of paths with Y1 < Y2 - epsilon."""
        return self._violations_per_node

    @property
    def passed(self) -> bool:
        return self._violations == 0.0


def _fit_noise_scale(resid: dict, paths: PathEnsemble, backend) -> float:
    """Scale of the regression noise in the fitted Y values.

    The per-node, per-component residual RMS `resid` is the conditional
    spread of the one-step target; the noise the fit injects into Y is the
    largest spread times sqrt(n_features / n_paths).  Exact conditional
    expectations inject none.
    """
    if not isinstance(backend, RegressionBackend):
        return 0.0
    n_features = backend.basis.n_features(paths.d + paths.l)
    return max(max(r) for r in resid.values()) * np.sqrt(n_features / paths.n_paths)


def _can_coarsen(s1: Scenario, s2: Scenario, paths: PathEnsemble, backend) -> bool:
    # the exact backend conditions only on its own tree, never on a coarsening
    return (isinstance(backend, RegressionBackend)
            and isinstance(s1.terminal, TerminalSpec)
            and isinstance(s2.terminal, TerminalSpec)
            and paths.grid.n_steps % 2 == 0 and paths.grid.n_T % 2 == 0)


def _stack_generators(gen1: GeneratorSpec, gen2: GeneratorSpec) -> GeneratorSpec:
    """Block-diagonal pair: components 0..m1-1 are gen1's, the rest gen2's.
    The pair must share m, d and l (ValidationError otherwise): the margin
    Y1 - Y2 is taken component by component."""
    if (gen1.m, gen1.d, gen1.l) != (gen2.m, gen2.d, gen2.l):
        raise ValidationError("a comparison pair must share the driver dimensions "
                              "and its component count")
    p1, p2 = slice(0, gen1.m), slice(gen1.m, gen1.m + gen2.m)
    e1, e2 = slice(0, gen1.q_total), slice(gen1.q_total, None)

    def joined(c1, c2):  # f or g of the pair
        return lambda t, y, z, e: _side_by_side(c1(t, y[:, p1], z[:, p1], e[:, e1]),
                                                c2(t, y[:, p2], z[:, p2], e[:, e2]), 1)

    def phi(ya, za):
        return _side_by_side(gen1.phi(ya[:, p1], za[:, p1]),
                             gen2.phi(ya[:, p2], za[:, p2]), 1)

    # |d(f1, f2)|^2 = |df1|^2 + |df2|^2: the larger constant bounds the pair
    lip = LipschitzData(c=max(gen1.lip.c, gen2.lip.c),
                        alpha1=max(gen1.lip.alpha1, gen2.lip.alpha1),
                        alpha2=max(gen1.lip.alpha2, gen2.lip.alpha2))
    return GeneratorSpec(name=f"{gen1.name}+{gen2.name}", m=gen1.m + gen2.m,
                         d=gen1.d, l=gen1.l, f=joined(gen1.f, gen2.f),
                         g=joined(gen1.g, gen2.g), lip=lip, phi=phi)


def _side_by_side(a: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
    """a and b joined along `axis`, read-only and column-major as the sweep's
    target block is, stored only along the axes either of them is stored
    along and broadcast over the rest."""
    base_a, base_b = broadcast_base(a), broadcast_base(b)
    shape = [max(n_a, n_b) for n_a, n_b in zip(base_a.shape, base_b.shape)]
    parts = [np.broadcast_to(base, shape[:axis] + [full.shape[axis]] + shape[axis + 1:])
             for base, full in ((base_a, a), (base_b, b))]
    shape[axis] = a.shape[axis] + b.shape[axis]
    joint = np.concatenate(parts, axis=axis, out=np.empty(shape, order="F"))
    return np.broadcast_to(joint, a.shape[:axis] + (shape[axis],) + a.shape[axis + 1:])


def _joint_scenario(s1: Scenario, s2: Scenario, paths: PathEnsemble) -> Scenario:
    """The pair as one scenario with m1 + m2 components, on s1's grid and delay.

    The generators are stacked, and so checked, first; the terminal data
    stacks the pair's, whose order xi1 >= xi2 is checked.
    """
    generator = _stack_generators(s1.generator, s2.generator)
    term1 = s1.terminal_data(paths)
    term2 = s2.terminal_data(paths)
    gap = broadcast_base(term1.xi) - broadcast_base(term2.xi)
    if np.any(gap < -_ORDER_SLACK):
        raise TerminalOrderViolated(
            f"terminal ordering xi1 >= xi2 fails (worst margin {float(gap.min()):.3g})")
    return replace(
        s1, generator=generator,
        terminal=TerminalData(grid=term1.grid, xi=_side_by_side(term1.xi, term2.xi, 2),
                              eta=_side_by_side(term1.eta, term2.eta, 2)))


def _sweep_pair(s1: Scenario, s2: Scenario, paths: PathEnsemble, backend,
                summaries: list | None = None) -> tuple:
    """Each part's mean Y_0 and per-node residual RMS from one joint sweep,
    reduced node by node; given `summaries`, a list of n_nodes slots, also
    puts in slot k `reduce_margin` of Y1_k - Y2_k summed over components."""
    parts = (slice(0, s1.generator.m), slice(s1.generator.m, None))
    y0 = []

    def reduce(k, y_k, z_k):
        if summaries is not None:  # row-major: each path's components add in a row
            summaries[k] = reduce_margin(np.subtract(
                y_k[:, parts[0]], y_k[:, parts[1]], order="C").sum(axis=1))
        if k == 0:
            y0.extend(float(y_k[:, part].mean()) for part in parts)

    resid = solve_backward_sweep(_joint_scenario(s1, s2, paths), paths, backend,
                                 on_node=reduce)["ybar_residual_rms"]
    return y0, [{k: r[part] for k, r in resid.items()} for part in parts]


def run_comparison(scenario1: Scenario, scenario2: Scenario,
                   paths: PathEnsemble, backend) -> ComparisonReport:
    """Solve both scenarios on the same paths and report ordering margins.

    The pair must share grid, delay, implicit_iters, component count and
    driver dimensions (ValidationError otherwise, before any sweep); it is
    solved in one joint sweep per grid, the coarsening of the paths first
    (when the backend calibrates on it), then the paths, whose sweep
    reduces each node's margin by `reduce_margin`.  Terminal
    samples must satisfy xi1 >= xi2 pointwise (TerminalOrderViolated
    otherwise).  The threshold epsilon is self-calibrated to 3x the run
    tolerance, which is 0 on the exact backend.
    """
    if (scenario1.grid, scenario1.delay, scenario1.implicit_iters) != \
            (scenario2.grid, scenario2.delay, scenario2.implicit_iters):
        raise ValidationError(
            "a comparison pair must share its grid, delay and implicit_iters")
    coarse_y0 = []
    if _can_coarsen(scenario1, scenario2, paths, backend):
        # the coarse sweep runs first and keeps only its Y_0 means, so its
        # ensemble is freed before the fine sweep allocates its ring
        coarse = paths.coarsen()
        coarse_y0, _ = _sweep_pair(replace(scenario1, grid=coarse.grid),
                                   replace(scenario2, grid=coarse.grid), coarse, backend)
        del coarse
    summaries = [None] * scenario1.grid.n_nodes
    y0, resid = _sweep_pair(scenario1, scenario2, paths, backend, summaries)
    tol = sum(_fit_noise_scale(r, paths, backend) for r in resid)
    for fine_mean, coarse_mean in zip(y0, coarse_y0):
        tol += abs(fine_mean - coarse_mean)
    mean, low, negatives = zip(*summaries)
    return ComparisonReport(mean_margin=np.array(mean), min_margin=np.array(low),
                            negatives=list(negatives), n_paths=paths.n_paths,
                            epsilon=3.0 * float(tol), run_tolerance=float(tol))


# ---------------------------------------------------------------------------
# monotone chain check
# ---------------------------------------------------------------------------

@dataclass
class ChainReport:
    passed: bool
    checked: int
    worst_order_gap: float      # min over draws of f1 - fmid and fmid - f2
    worst_monotone_gap: float   # min over ordered pairs of fmid(a) - fmid(b)

    def __str__(self):
        return (f"chain check over {self.checked} draws: "
                f"order gap {self.worst_order_gap:.3g}, "
                f"monotone gap {self.worst_monotone_gap:.3g} -> "
                f"{'PASS' if self.passed else 'FAIL'}")


def _point_mass_value(spec, t, y, z, y_ant, z_ant):
    e = spec.eval_functionals(y_ant, z_ant)
    return np.asarray(spec.f(t, y, z, e))


def check_monotone_chain(f1, fmid, f2, samples: int = 4000,
                         seed: int = 0) -> ChainReport:
    """Randomized search for violations of f1 >= fmid >= f2 (shared
    anticipated argument) and of monotonicity of fmid in that argument.

    Anticipated processes are probed with point masses; PASS means no
    counterexample was found in `samples` draws across argument scales
    {0.1, 1, 10}.
    """
    rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed)))
    m, d = fmid.m, fmid.d
    per_scale = max(1, samples // 3)
    worst_order = np.inf
    worst_mono = np.inf
    checked = 0
    for scale in (0.1, 1.0, 10.0):
        y = scale * rng.standard_normal((per_scale, m))
        z = scale * rng.standard_normal((per_scale, m, d))
        theta = scale * rng.standard_normal((per_scale, m))
        theta_z = scale * rng.standard_normal((per_scale, m, d))
        t = float(rng.uniform(0.0, 1.0))
        v1 = _point_mass_value(f1, t, y, z, theta, theta_z)
        vm = _point_mass_value(fmid, t, y, z, theta, theta_z)
        v2 = _point_mass_value(f2, t, y, z, theta, theta_z)
        worst_order = min(worst_order, float((v1 - vm).min()),
                          float((vm - v2).min()))
        # ordered anticipated pair: theta_hi >= theta
        theta_hi = theta + np.abs(scale * rng.standard_normal((per_scale, m)))
        vm_hi = _point_mass_value(fmid, t, y, z, theta_hi, theta_z)
        worst_mono = min(worst_mono, float((vm_hi - vm).min()))
        checked += per_scale
    passed = worst_order >= -_ORDER_SLACK and worst_mono >= -_ORDER_SLACK
    return ChainReport(passed=passed, checked=checked,
                       worst_order_gap=worst_order,
                       worst_monotone_gap=worst_mono)
