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


# name -> parameter defaults; every builtin also takes eta (default 0).
_PARAMS = {
    "constant": {"value": 1.0},
    "affine": {"value": 1.0, "slope": 0.0},
    "scaled_wt": {"a": 1.0, "b": 0.0},
    "scaled_b_tail": {"a": 1.0, "b": 0.0},
}


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

    def __post_init__(self):
        self._values()  # unknown names and parameters fail here

    def _values(self) -> dict:
        if self.name not in _PARAMS:
            raise UnknownName(f"no builtin terminal data named '{self.name}'")
        defaults = dict(_PARAMS[self.name], eta=0.0)
        extra = set(self.params) - set(defaults)
        if extra:
            raise UnknownName(
                f"unknown parameters {sorted(extra)} for terminal '{self.name}'")
        return {key: float(self.params.get(key, default))
                for key, default in defaults.items()}

    def profile(self, grid: TimeGrid):
        """Time-only (xi, eta) on nodes n_T..n_end, each of shape (K_nodes,);
        None for the builtins that read the paths."""
        p = self._values()
        t_rel = np.arange(grid.n_end - grid.n_T + 1) * grid.h  # t - T on the window
        if self.name == "constant":
            xi = np.full(t_rel.shape, p["value"])
        elif self.name == "affine":
            xi = p["value"] + p["slope"] * t_rel
        else:
            return None
        return xi, np.full(t_rel.shape, p["eta"])

    def build(self, grid: TimeGrid, paths: PathEnsemble, m: int = 1,
              d: int | None = None) -> TerminalData:
        if d is None:
            d = paths.d
        P = paths.n_paths
        k_nodes = grid.n_end - grid.n_T + 1
        p = self._values()
        profile = self.profile(grid)
        if profile is not None:
            xi = np.broadcast_to(profile[0][None, :, None], (P, k_nodes, m)).copy()
        elif m != 1:
            raise ShapeMismatch(f"{self.name} terminal data is scalar (m=1)")
        elif self.name == "scaled_wt":
            w_T = paths.w_at(grid.n_T).sum(axis=1)  # (P,)
            xi = np.repeat((p["a"] * w_T + p["b"])[:, None, None], k_nodes, axis=1)
        else:  # scaled_b_tail
            b_end = paths.b_at(grid.n_end)
            xi = np.empty((P, k_nodes, 1))
            for j, k in enumerate(range(grid.n_T, grid.n_end + 1)):
                xi[:, j, 0] = p["a"] * (b_end - paths.b_at(k)).sum(axis=1) + p["b"]
        eta = np.full((P, k_nodes, m, d), p["eta"])
        return TerminalData(grid=grid, xi=xi, eta=eta)


def constant_terminal(value: float, eta: float = 0.0) -> TerminalSpec:
    return TerminalSpec(name="constant", params={"value": value, "eta": eta})
