"""Anticipation maps, their validation, grid offsets and interval segmentation.

A scenario anticipates through two maps delta, zeta: [0, T] -> (0, inf),
restricted here to constant and affine forms a + b*t with b > -1, so that
t + delay(t) increases.  For these forms the integral-substitution constant
M is analytic: a change of variables u = (1+b)s + a gives

    int_t^T g(s + delay(s)) ds = 1/(1+b) * int g(u) du  <=  M * int_t^{T+K} g,

so M = max(1, 1/(1+b)) certifies the bound; it exceeds 1 only for b < 0.
K is the grid's, so a spec is just the pair of maps.

The segmentation {t_i} of (delta, zeta, grid) partitions [0, T] so that on
each piece every anticipated time lands at or beyond the piece's right
endpoint, which is what lets the solver (and the comparison argument)
proceed piece by piece.  `segment_interval` computes it on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import A1Violation, NonPositiveDelay, NonTermination
from .grids import TimeGrid


@dataclass(frozen=True)
class DelayForm:
    """Constant or affine anticipation map t -> a + b*t, with b > -1."""

    a: float
    b: float = 0.0

    def __post_init__(self):
        if not self.b > -1.0:
            raise A1Violation(f"delay slope b = {self.b} must exceed -1")

    def __call__(self, t):
        return self.a + self.b * np.asarray(t)

    def substitution_bound(self) -> float:
        """Certified M for the integral substitution (see module docstring)."""
        return max(1.0, 1.0 / (1.0 + self.b))


def constant_delay(value: float) -> DelayForm:
    return DelayForm(a=float(value), b=0.0)


def affine_delay(a: float, b: float) -> DelayForm:
    return DelayForm(a=float(a), b=float(b))


@dataclass(frozen=True)
class DelaySpec:
    """The pair (delta, zeta); the horizon K is the grid's."""

    delta: DelayForm
    zeta: DelayForm

    @property
    def M(self) -> float:
        """Substitution bound of the pair: the larger of the two forms'."""
        return max(self.delta.substitution_bound(), self.zeta.substitution_bound())


def _check_form(form: DelayForm, grid: TimeGrid, name: str) -> None:
    t = grid.times[: grid.n_T + 1]
    vals = form(t)
    if np.any(vals <= 0):
        raise NonPositiveDelay(f"{name} is not strictly positive on [0, T]")
    horizon = grid.T + grid.K
    tol = 1e-12 * max(1.0, horizon)
    bad = t + vals > horizon + tol
    if np.any(bad):
        worst = t[bad][0]
        raise A1Violation(
            f"t + {name}(t) = {worst + float(form(worst)):.6g} exceeds "
            f"T + K = {horizon:.6g} at t = {worst:.6g}"
        )


def validate_delay(spec: DelaySpec, grid: TimeGrid) -> DelaySpec:
    """Check, on grid nodes, positivity and the horizon bound t + delay(t)
    <= T + K of both forms; returns the spec."""
    for form, name in ((spec.delta, "delta"), (spec.zeta, "zeta")):
        _check_form(form, grid, name)
    return spec


@dataclass(frozen=True)
class GridOffsets:
    """Per-node index offsets so that node k anticipates node k + offset[k].

    Off-grid anticipation times snap to the nearest node; the recorded
    snapping error is |t_k + delay(t_k) - (k + offset_k) h| per node.
    """

    d_delta: np.ndarray
    d_zeta: np.ndarray
    snap_error: np.ndarray

    @property
    def max_snap_error(self) -> float:
        return float(self.snap_error.max()) if self.snap_error.size else 0.0


def to_grid_offsets(spec: DelaySpec, grid: TimeGrid) -> GridOffsets:
    """Validate the spec and round anticipated times to grid indices for
    nodes 0..n_T."""
    validate_delay(spec, grid)
    ks = np.arange(grid.n_T + 1)
    t = ks * grid.h
    offsets = []
    errors = np.zeros((2, grid.n_T + 1))
    for row, form in enumerate((spec.delta, spec.zeta)):
        target = t + form(t)
        idx = np.rint(target / grid.h).astype(int)
        idx = np.clip(idx, ks + 1, grid.n_end)  # strict anticipation, in range
        errors[row] = np.abs(target - idx * grid.h)
        offsets.append(idx - ks)
    return GridOffsets(d_delta=offsets[0], d_zeta=offsets[1],
                       snap_error=errors.max(axis=0))


@dataclass(frozen=True)
class Segmentation:
    """Points T = t_0 > t_1 > ... > t_N = 0."""

    points: tuple  # (t_0, ..., t_N)

    @property
    def N(self) -> int:
        return len(self.points) - 1


def segment_interval(spec: DelaySpec, grid: TimeGrid) -> Segmentation:
    """Compute the segmentation of [0, T] by scanning grid nodes.

    t_i is the smallest grid node t such that for every grid node s in
    [t, T], both s + delta(s) and s + zeta(s) reach at least t_{i-1}.  The
    scan stops at t_i = 0; for maps bounded below by h this takes at most
    n_T rounds.  The spec is validated first.
    """
    validate_delay(spec, grid)
    t_nodes = grid.times[: grid.n_T + 1]
    reach = np.minimum(t_nodes + spec.delta(t_nodes), t_nodes + spec.zeta(t_nodes))
    # suffix_min[k] = min over grid s >= t_k of min(s+delta, s+zeta)
    suffix_min = np.minimum.accumulate(reach[::-1])[::-1]
    tol = 1e-12 * max(1.0, grid.T + grid.K)
    points = [grid.T]
    while points[-1] > 0.0:
        if len(points) > grid.n_T + 1:
            raise NonTermination(
                "segmentation scan exceeded the node budget; anticipation "
                "maps must reach at least one grid step ahead"
            )
        ok = suffix_min >= points[-1] - tol
        k = int(np.argmax(ok))
        if not ok[k]:
            raise NonTermination("no grid node satisfies the segment condition")
        points.append(float(t_nodes[k]))
    return Segmentation(points=tuple(points))
