"""Numerical checks of the comparison property: ordered data give ordered solutions.

Two scenarios sharing the path ensemble, the backend and an ordered pair of
terminal data are solved side by side; the report carries the per-node
margin Y1 - Y2 and the violation fraction v(eps) = share of (path, node)
points with Y1 < Y2 - eps.  The ordering conclusion is an almost-sure
statement about the continuous equations, so the Monte Carlo check is
tolerance-qualified: eps* = 3x a run tolerance assembled from the
regression-noise scale and an h-refinement delta, both measured on the run
itself (nothing fixed a priori).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TerminalOrderViolated
from .paths import PathEnsemble
from .scenario import Scenario
from .solver import SolutionProcess, solve_backward_sweep

_ORDER_SLACK = 1e-12


@dataclass
class ComparisonReport:
    times: np.ndarray
    margins: np.ndarray          # (P, n_nodes)
    epsilon: float
    run_tolerance: float
    sol1: SolutionProcess
    sol2: SolutionProcess

    @property
    def mean_margin(self) -> np.ndarray:
        return self.margins.mean(axis=0)

    @property
    def min_margin(self) -> np.ndarray:
        return self.margins.min(axis=0)

    def violation_fraction(self, eps: float | None = None) -> float:
        eps = self.epsilon if eps is None else eps
        return float(np.mean(self.margins < -eps))

    def violation_fraction_per_node(self, eps: float | None = None) -> np.ndarray:
        eps = self.epsilon if eps is None else eps
        return (self.margins < -eps).mean(axis=0)

    @property
    def passed(self) -> bool:
        return self.violation_fraction() == 0.0


def _fit_noise_scale(sol: SolutionProcess, paths: PathEnsemble, backend) -> float:
    """Scale of the regression noise in the fitted Y values.

    The recorded per-node residual RMS is the conditional spread of the
    one-step target; the noise the fit injects into Y is that spread times
    sqrt(n_features / n_paths).
    """
    resid = sol.metadata.get("ybar_residual_rms", {})
    if not resid or not hasattr(backend, "basis"):
        return 0.0
    n_features = backend.basis.n_features(paths.d + paths.l)
    return max(resid.values()) * np.sqrt(n_features / paths.n_paths)


def _can_coarsen(s1: Scenario, s2: Scenario, paths: PathEnsemble) -> bool:
    from .terminal import TerminalSpec
    return (isinstance(s1.terminal, TerminalSpec)
            and isinstance(s2.terminal, TerminalSpec)
            and paths.grid.n_steps % 2 == 0 and paths.grid.n_T % 2 == 0)


def _coarse_scenario(scen: Scenario, coarse_grid) -> Scenario:
    from .scenario import make_scenario
    return make_scenario(coarse_grid, scen.generator, scen.terminal,
                         delay=scen.delay, implicit_iters=scen.implicit_iters)


def run_comparison(scenario1: Scenario, scenario2: Scenario,
                   paths: PathEnsemble, backend,
                   epsilon: float | None = None,
                   calibrate: bool = True) -> ComparisonReport:
    """Solve both scenarios on the same paths and report ordering margins.

    Terminal samples must satisfy xi1 >= xi2 pointwise (checked).  With
    epsilon=None the threshold is self-calibrated to 3x the run tolerance;
    calibrate=False skips the coarse-grid refinement solve in it.
    """
    term1 = scenario1.terminal_data(paths)
    term2 = scenario2.terminal_data(paths)
    if np.any(term1.xi - term2.xi < -_ORDER_SLACK):
        worst = float((term1.xi - term2.xi).min())
        raise TerminalOrderViolated(
            f"terminal ordering xi1 >= xi2 fails (worst margin {worst:.3g})")

    sol1 = solve_backward_sweep(scenario1, paths, backend)
    sol2 = solve_backward_sweep(scenario2, paths, backend)
    margins = (sol1.Y.values - sol2.Y.values).sum(axis=2)

    tol = _fit_noise_scale(sol1, paths, backend) \
        + _fit_noise_scale(sol2, paths, backend)
    if calibrate and _can_coarsen(scenario1, scenario2, paths):
        coarse = paths.coarsen(2)
        for scen, sol in ((scenario1, sol1), (scenario2, sol2)):
            coarse_sol = solve_backward_sweep(
                _coarse_scenario(scen, coarse.grid), coarse, backend)
            tol += abs(float(sol.Y.values[:, 0].mean())
                       - float(coarse_sol.Y.values[:, 0].mean()))
    if epsilon is None:
        epsilon = 3.0 * tol

    return ComparisonReport(times=paths.grid.times, margins=margins,
                            epsilon=float(epsilon), run_tolerance=float(tol),
                            sol1=sol1, sol2=sol2)


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
