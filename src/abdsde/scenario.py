"""Runtime scenario: grid + generator + anticipation maps + terminal data.

A Scenario bundles everything the solvers need apart from the sampled paths
and the conditional-expectation backend.  `make_scenario` performs the
semantic validation: anticipation maps are validated against the grid and
converted to index offsets, the feasibility condition alpha1 + alpha2*M < 1
is enforced, and f(., 0, 0, 0) is checked finite on grid nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .delays import DelaySpec, GridOffsets, to_grid_offsets
from .errors import integer, NonFinite, ValidationError
from .generators import GeneratorSpec, check_feasible
from .grids import TimeGrid
from .paths import PathEnsemble
from .terminal import TerminalData, TerminalSpec


@dataclass
class Scenario:
    grid: TimeGrid
    generator: GeneratorSpec
    terminal: TerminalSpec | TerminalData
    delay: DelaySpec | None = None
    offsets: GridOffsets | None = None
    implicit_iters: int = 1

    @property
    def M(self) -> float:
        return self.delay.M if self.delay is not None else 1.0

    @property
    def steps_read(self) -> int:
        """Leading path steps a solve of the scenario reads: the swept steps
        0..n_T-1, and past T only the steps its terminal data read."""
        last = 0 if isinstance(self.terminal, TerminalData) \
            else self.terminal.last_node_read(self.grid)
        return max(self.grid.n_T, last)

    def terminal_data(self, paths: PathEnsemble) -> TerminalData:
        if isinstance(self.terminal, TerminalData):
            if self.terminal.n_paths != paths.n_paths:
                raise ValidationError(
                    "terminal data was materialized for a different path count")
            return self.terminal
        return self.terminal.build(self.grid, paths, m=self.generator.m,
                                   d=self.generator.d)


def make_scenario(grid: TimeGrid, generator: GeneratorSpec,
                  terminal: TerminalSpec | TerminalData,
                  delay: DelaySpec | None = None,
                  implicit_iters: int = 1) -> Scenario:
    offsets = None
    if generator.anticipates and delay is None:
        raise ValidationError(
            f"generator '{generator.name}' anticipates but no delay "
            "spec was provided")
    if delay is not None:
        offsets = to_grid_offsets(delay, grid)  # validates the delay
        if offsets.max_snap_error > 1e-12:
            warnings.warn(
                f"anticipation times are off-grid; snapping to nearest "
                f"nodes with error up to {offsets.max_snap_error:.3g}",
                stacklevel=2)
    check_feasible(generator.lip, 1.0 if delay is None else delay.M)

    # f(., 0, 0, 0) must be finite on grid nodes (square-integrability proxy)
    y0 = np.zeros((1, generator.m))
    z0 = np.zeros((1, generator.m, generator.d))
    e0 = np.zeros((1, generator.q_total))
    for t in grid.times[: grid.n_T + 1]:
        val = np.asarray(generator.f(float(t), y0, z0, e0))
        if not np.all(np.isfinite(val)):
            raise NonFinite(f"f(t, 0, 0, 0) is non-finite at t={t}")

    integer(implicit_iters, "implicit_iters", 1)
    return Scenario(grid=grid, generator=generator, terminal=terminal,
                    delay=delay, offsets=offsets,
                    implicit_iters=implicit_iters)
