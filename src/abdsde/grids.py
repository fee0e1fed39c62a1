"""Uniform time grids on [0, T + K].

The solution of an anticipated equation lives on [0, T + K]: the dynamics
run on [0, T] and the data (xi, eta) occupy [T, T + K].  Both horizons must
be exact multiples of the step h so that anticipation offsets are integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonCommensurate, TooLarge, ValidationError

#: relative tolerance when checking T/h and K/h for integrality
_COMMENSURATE_RTOL = 1e-9

#: Most nodes a grid may have: a load evaluates f at each node (about 0.4 s
#: at 2^16 on 2 cores), and a 4096-path draw stores W and B on each (4.3 GB).
MAX_NODES = 2 ** 16


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k*h, k = 0..n_end, with T = n_T*h and T+K = n_end*h."""

    h: float
    n_T: int
    n_end: int

    def __post_init__(self):
        if not 0 < self.h < np.inf:  # NaN fails both comparisons
            raise ValidationError(f"step must be finite and positive, got {self.h}")
        if not (0 < self.n_T <= self.n_end):
            raise ValidationError(f"need 0 < n_T <= n_end, got ({self.n_T}, {self.n_end})")

    @property
    def T(self) -> float:
        return self.n_T * self.h

    @property
    def K(self) -> float:
        return (self.n_end - self.n_T) * self.h

    @property
    def n_steps(self) -> int:
        return self.n_end

    @property
    def n_nodes(self) -> int:
        return self.n_end + 1

    def time(self, k: int) -> float:
        return k * self.h

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_end + 1) * self.h

    def index_of(self, t: float) -> int:
        """Nearest-node index of a time that must lie on the grid."""
        return _as_steps(t, self.h, "time")


def _as_steps(value: float, h: float, name: str) -> int:
    n = round(value / h) if np.isfinite(value / h) else 0  # off any grid
    if not abs(value - n * h) <= _COMMENSURATE_RTOL * max(1.0, abs(value)):
        raise NonCommensurate(
            f"{name}={value} is not an integer multiple of h={h}"
        )
    return int(n)


def make_grid(T: float, K: float, h: float) -> TimeGrid:
    """Build the grid for horizons (T, K) and step h.

    Raises NonCommensurate unless T/h and K/h are integers (within a
    relative tolerance of 1e-9), requires T > 0, K >= 0, h > 0, and raises
    TooLarge beyond MAX_NODES nodes.
    """
    if h <= 0:
        raise ValidationError(f"step must be positive, got {h}")
    if T <= 0:
        raise ValidationError(f"horizon T must be positive, got {T}")
    if K < 0:
        raise ValidationError(f"anticipation window K must be nonnegative, got {K}")
    n_T = _as_steps(T, h, "T")
    n_K = _as_steps(K, h, "K")
    if n_T + n_K + 1 > MAX_NODES:
        raise TooLarge(f"a grid with step h = {h:g} has {n_T + n_K + 1} nodes; "
                       f"the cap is {MAX_NODES}")
    return TimeGrid(h=h, n_T=n_T, n_end=n_T + n_K)
