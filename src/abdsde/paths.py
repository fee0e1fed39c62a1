"""Sample paths of the two independent Brownian drivers and their integrals.

The ensemble stores per-step increments of W (dimension d, integrated
forward) and of B (dimension l, integrated backward).  All randomness comes
from a counter-based Philox stream keyed by the master seed; path i's
increments occupy a fixed counter block, so regenerating with a different
path count P leaves paths 0..min(P)-1 bit-identical.

Discretization conventions, used consistently everywhere in the package:

* forward integral of Z against dW: left-endpoint sum  sum_k Z_k dW_k
* backward integral of G against dB: right-endpoint sum  sum_k G_{k+1} dB_k

The right-endpoint rule reproduces the sign of the Ito correction expected
of the backward integral: for G_k = B_k the two sums differ by exactly the
discrete quadratic variation sum_k (dB_k)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import ShapeMismatch
from .grids import TimeGrid

SeedLike = Union[int, Sequence[int]]


@dataclass
class PathEnsemble:
    """Increments of the two drivers for P paths on a grid.

    dW has shape (P, n_steps, d) and dB has shape (P, n_steps, l).
    """

    grid: TimeGrid
    dW: np.ndarray
    dB: np.ndarray
    _w_cum: np.ndarray | None = field(default=None, repr=False, compare=False)
    _b_cum: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = self.grid.n_steps
        if self.dW.ndim != 3 or self.dW.shape[1] != n:
            raise ShapeMismatch(f"dW must have shape (P, {n}, d), got {self.dW.shape}")
        if self.dB.ndim != 3 or self.dB.shape[1] != n:
            raise ShapeMismatch(f"dB must have shape (P, {n}, l), got {self.dB.shape}")
        if self.dW.shape[0] != self.dB.shape[0]:
            raise ShapeMismatch("dW and dB must hold the same number of paths")

    @property
    def n_paths(self) -> int:
        return self.dW.shape[0]

    @property
    def d(self) -> int:
        return self.dW.shape[2]

    @property
    def l(self) -> int:
        return self.dB.shape[2]

    def w_at(self, k: int) -> np.ndarray:
        """W_{t_k} = sum of the first k W-increments, shape (P, d)."""
        if self._w_cum is None:
            cum = np.zeros((self.n_paths, self.grid.n_nodes, self.d))
            np.cumsum(self.dW, axis=1, out=cum[:, 1:])
            self._w_cum = cum
        return self._w_cum[:, k]

    def b_at(self, k: int) -> np.ndarray:
        """B_{t_k}, shape (P, l)."""
        if self._b_cum is None:
            cum = np.zeros((self.n_paths, self.grid.n_nodes, self.l))
            np.cumsum(self.dB, axis=1, out=cum[:, 1:])
            self._b_cum = cum
        return self._b_cum[:, k]

    def b_tail(self, k: int) -> np.ndarray:
        """B_{t_{n_T}} - B_{t_k}, shape (P, l)."""
        return self.b_at(self.grid.n_T) - self.b_at(k)

    def coarsen(self, factor: int) -> "PathEnsemble":
        """Merge groups of `factor` steps, keeping the same Brownian paths.

        Useful for h-refinement studies coupled on the same noise.
        """
        n = self.grid.n_steps
        if factor < 1 or n % factor:
            raise ValueError(f"factor {factor} does not divide {n} steps")
        if self.grid.n_T % factor:
            raise ValueError("coarsening would move T off the grid")
        grid = TimeGrid(h=self.grid.h * factor, n_T=self.grid.n_T // factor,
                        n_end=self.grid.n_end // factor)
        shape = (self.n_paths, n // factor, factor)
        dW = self.dW.reshape(shape + (self.d,)).sum(axis=2)
        dB = self.dB.reshape(shape + (self.l,)).sum(axis=2)
        return PathEnsemble(grid=grid, dW=dW, dB=dB)


#: Rows per block of a draw.  A block is drawn into one reused buffer, so a
#: draw holds its output plus one block instead of a second full copy.
_DRAW_ROWS = 4096


def increment_blocks(grid: TimeGrid, d: int, l: int, P: int, seed: SeedLike):
    """Iterator of (start, block) over P paths of N(0, h) increments on the
    grid, _DRAW_ROWS paths at a time.

    A block has shape (rows, n_steps, d + l), W in the first d columns and B
    in the rest; it is a view of one buffer that the next block overwrites.
    The Philox stream keyed by seed is drawn in path order, so path i's
    increments do not depend on P or on the block size.
    """
    if P < 1:
        raise ValueError(f"need at least one path, got P={P}")
    if d < 1 or l < 1:
        raise ValueError(f"driver dimensions must be >= 1, got d={d}, l={l}")
    rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed)))
    buf = np.empty((min(P, _DRAW_ROWS), grid.n_steps, d + l))
    scale = np.sqrt(grid.h)

    def blocks():  # a generator of its own, so the checks above run at the call
        for start in range(0, P, len(buf)):
            block = buf[:min(len(buf), P - start)]
            rng.standard_normal(out=block)
            block *= scale
            yield start, block

    return blocks()


def sample_paths(grid: TimeGrid, d: int, l: int, P: int, seed: SeedLike) -> PathEnsemble:
    """Draw P independent paths of (W, B) increments on the grid.

    Increments are N(0, h) per coordinate, W independent of B.  The draw is
    deterministic in (seed, P, grid, d, l), and path i's increments do not
    depend on P.
    """
    blocks = increment_blocks(grid, d, l, P, seed)  # checks P, d and l
    dW = np.empty((P, grid.n_steps, d))
    dB = np.empty((P, grid.n_steps, l))
    for start, block in blocks:
        dW[start:start + len(block)] = block[:, :, :d]
        dB[start:start + len(block)] = block[:, :, d:]
    return PathEnsemble(grid=grid, dW=dW, dB=dB)


@dataclass
class PathProcess:
    """Grid-indexed values of a process, shape (P, n_nodes, *dims).

    dims is (m,) for Y-like processes and (m, d) for Z-like processes.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape[1] != self.grid.n_nodes:
            raise ShapeMismatch(
                f"process needs {self.grid.n_nodes} nodes, got {self.values.shape}"
            )

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]


def _values(Z) -> np.ndarray:
    return Z.values if isinstance(Z, PathProcess) else np.asarray(Z)


def forward_integral(Z, paths: PathEnsemble, k_from: int, k_to: int) -> np.ndarray:
    """Left-endpoint discretization of the forward integral of Z against dW.

    Z has per-node values in R^{m x d}; returns per-path values in R^m:
    sum_{k=k_from}^{k_to-1} Z_k dW_k.
    """
    vals = _values(Z)
    if not (0 <= k_from <= k_to <= paths.grid.n_end):
        raise ValueError(f"bad node range [{k_from}, {k_to}]")
    if vals.ndim != 4 or vals.shape[3] != paths.d:
        raise ShapeMismatch(
            f"integrand must have shape (P, nodes, m, {paths.d}), got {vals.shape}"
        )
    return np.einsum("pkmd,pkd->pm", vals[:, k_from:k_to], paths.dW[:, k_from:k_to])


def backward_integral(G, paths: PathEnsemble, k_from: int, k_to: int) -> np.ndarray:
    """Right-endpoint discretization of the backward integral of G against dB.

    G has per-node values in R^{m x l}; returns per-path values in R^m:
    sum_{k=k_from}^{k_to-1} G_{k+1} dB_k.
    """
    vals = _values(G)
    if not (0 <= k_from <= k_to <= paths.grid.n_end):
        raise ValueError(f"bad node range [{k_from}, {k_to}]")
    if vals.ndim != 4 or vals.shape[3] != paths.l:
        raise ShapeMismatch(
            f"integrand must have shape (P, nodes, m, {paths.l}), got {vals.shape}"
        )
    return np.einsum("pkml,pkl->pm",
                     vals[:, k_from + 1:k_to + 1], paths.dB[:, k_from:k_to])
