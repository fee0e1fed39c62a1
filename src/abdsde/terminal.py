"""Terminal data (xi, eta) on [T, T+K] and its builtin builders.

xi supplies Y and eta supplies Z on the anticipation window.  Builders are
either deterministic in time (constant, affine) or read the sampled paths
(scaled_wt uses W_T, scaled_b_tail uses B_{T+K} - B_t); all are continuous
in t node by node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, ShapeMismatch, UnknownName
from .grids import TimeGrid
from .paths import PathEnsemble


@dataclass
class TerminalData:
    """Per-path (xi, eta) values on nodes n_T..n_end.

    xi has shape (P, K_nodes, m), eta has shape (P, K_nodes, m, d) with
    K_nodes = n_end - n_T + 1.
    """

    grid: TimeGrid
    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        k_nodes = self.grid.n_end - self.grid.n_T + 1
        if self.xi.ndim != 3 or self.xi.shape[1] != k_nodes:
            raise ShapeMismatch(f"xi must be (P, {k_nodes}, m), got {self.xi.shape}")
        if self.eta.ndim != 4 or self.eta.shape[1] != k_nodes:
            raise ShapeMismatch(f"eta must be (P, {k_nodes}, m, d), got {self.eta.shape}")
        if not (np.all(np.isfinite(self.xi)) and np.all(np.isfinite(self.eta))):
            raise NonFinite("terminal data contains non-finite values")

    @property
    def n_paths(self) -> int:
        return self.xi.shape[0]

    def xi_at(self, k: int) -> np.ndarray:
        return self.xi[:, k - self.grid.n_T]

    def eta_at(self, k: int) -> np.ndarray:
        return self.eta[:, k - self.grid.n_T]


@dataclass(frozen=True)
class TerminalSpec:
    """Declarative terminal-data recipe; `build` materializes it on paths.

    Builtins:
      constant(value, eta):        xi_t = value, eta_t = eta
      affine(value, slope, eta):   xi_t = value + slope*(t - T)
      scaled_wt(a, b, eta):        xi_t = a*W_T + b   (per path)
      scaled_b_tail(a, b, eta):    xi_t = a*(B_{T+K} - B_t) + b  (per path)
    """

    name: str
    params: dict

    def build(self, grid: TimeGrid, paths: PathEnsemble, m: int = 1,
              d: int | None = None) -> TerminalData:
        if d is None:
            d = paths.d
        P = paths.n_paths
        k_nodes = grid.n_end - grid.n_T + 1
        t_rel = (np.arange(k_nodes) * grid.h)  # t - T on the window
        p = dict(self.params)
        eta_val = float(p.pop("eta", 0.0))
        eta = np.full((P, k_nodes, m, d), eta_val)

        if self.name == "constant":
            value = float(p.pop("value", 1.0))
            xi = np.full((P, k_nodes, m), value)
        elif self.name == "affine":
            value = float(p.pop("value", 1.0))
            slope = float(p.pop("slope", 0.0))
            xi = np.broadcast_to(
                (value + slope * t_rel)[None, :, None], (P, k_nodes, m)).copy()
        elif self.name == "scaled_wt":
            a = float(p.pop("a", 1.0))
            b = float(p.pop("b", 0.0))
            if m != 1:
                raise ShapeMismatch("scaled_wt terminal data is scalar (m=1)")
            w_T = paths.w_at(grid.n_T).sum(axis=1)  # (P,)
            xi = np.repeat((a * w_T + b)[:, None, None], k_nodes, axis=1)
        elif self.name == "scaled_b_tail":
            a = float(p.pop("a", 1.0))
            b = float(p.pop("b", 0.0))
            if m != 1:
                raise ShapeMismatch("scaled_b_tail terminal data is scalar (m=1)")
            b_end = paths.b_at(grid.n_end)
            xi = np.empty((P, k_nodes, 1))
            for j, k in enumerate(range(grid.n_T, grid.n_end + 1)):
                xi[:, j, 0] = a * (b_end - paths.b_at(k)).sum(axis=1) + b
        else:
            raise UnknownName(f"no builtin terminal data named '{self.name}'")
        if p:
            raise UnknownName(
                f"unknown parameters {sorted(p)} for terminal '{self.name}'")
        return TerminalData(grid=grid, xi=xi, eta=eta)


def constant_terminal(value: float, eta: float = 0.0) -> TerminalSpec:
    return TerminalSpec(name="constant", params={"value": value, "eta": eta})
