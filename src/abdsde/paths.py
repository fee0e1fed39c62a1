"""Sample paths of the two independent Brownian drivers and their integrals.

The ensemble stores per-step increments of W (dimension d, integrated
forward) and of B (dimension l, integrated backward).  All randomness comes
from a counter-based Philox stream keyed by the master seed; path i's
increments occupy a fixed counter block, so regenerating with a different
path count P leaves paths 0..min(P)-1 bit-identical.

Storage is (nodes, paths) contiguous per component: the increments of one
step, and the values of a process at one node, are one contiguous
(P, ...) slab behind the usual (P, n_steps | n_nodes, ...) views, because
the backward sweep reads and writes one node at a time.  For the same
reason W_{t_k} and B_{t_k} are not cached for the whole horizon: they are
the forward sums of the increments, kept only at checkpoints every
`_SEGMENT` nodes, and each other node is summed afresh from the checkpoint
below it (checkpointing as in Griewank 1992, at its memory end), which
gives the bits of `np.cumsum` in any call order.

An ensemble may store only the leading steps, at least the n_T steps up to
T: on [T, T+K] the solution is given terminal data, so a regression solve
reads the drivers past T only when its terminal data do.  `sample_paths`
still draws every step of every path, so the stored steps are the same
bits whatever their count.

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

from .errors import integer, ShapeMismatch, ValidationError
from .grids import TimeGrid

SeedLike = Union[int, Sequence[int]]


#: Nodes between checkpoints of the W and B forward sums: a sweep holds
#: about n_nodes / _SEGMENT slabs per driver, and each read of another node
#: adds up to _SEGMENT - 1 increments.
_SEGMENT = 8


class _ForwardSums:
    """S_k = inc_0 + ... + inc_{k-1} (S_0 = 0) of node-major increments.

    Every S_k is added in cumsum's order, S_{k+1} = S_k + inc_k, so it has
    the bits of np.cumsum whatever the order of the calls.  One forward
    pass keeps S at the checkpoint nodes (every _SEGMENT nodes, plus
    `anchor`); any other node is summed into a new slab from the checkpoint
    below it.  The slabs handed out are read-only, and no later call writes
    to them.
    """

    def __init__(self, inc: np.ndarray, anchor: int):
        self._inc = inc  # (n_steps, P, c)
        self.n_nodes = inc.shape[0] + 1
        marks = set(range(0, self.n_nodes, _SEGMENT)) | {anchor}
        self._saved = {}
        running = np.zeros(inc.shape[1:])
        for k in range(max(marks) + 1):
            if k:
                self._step(k - 1, running, running)
            if k in marks:
                self._saved[k] = _read_only(running.copy())

    def _step(self, k: int, prev: np.ndarray, out: np.ndarray) -> None:
        """S_{k+1} into out, from prev = S_k."""
        if k == 0:
            np.copyto(out, self._inc[0])  # cumsum starts at inc_0 itself
        else:
            np.add(prev, self._inc[k], out=out)

    def at(self, k: int) -> np.ndarray:
        if not 0 <= k < self.n_nodes:
            raise ValidationError(f"node {k} is outside 0..{self.n_nodes - 1}")
        if k in self._saved:
            return self._saved[k]
        start = max(mark for mark in self._saved if mark < k)
        out = np.empty(self._inc.shape[1:])
        prev = self._saved[start]
        for j in range(start, k):
            self._step(j, prev, out)
            prev = out
        return _read_only(out)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass
class PathEnsemble:
    """Increments of the two drivers for P paths on a grid.

    dW has shape (P, n_stored, d) and dB has shape (P, n_stored, l): the
    leading n_stored steps, n_T <= n_stored <= n_steps, so W and B are
    known on nodes 0..n_stored.  The ensembles this module and
    `tree.build_tree` make store them node-major, so dW[:, k] and dB[:, k]
    are contiguous (P, d) and (P, l) slabs.  W_{t_k} and B_{t_k} are
    forward sums of the increments, kept at checkpoints and summed from
    them node by node, never a whole (P, n_nodes) array; the increments
    must not change once they are read.
    """

    grid: TimeGrid
    dW: np.ndarray
    dB: np.ndarray
    _w: _ForwardSums | None = field(default=None, init=False, repr=False,
                                    compare=False)
    _b: _ForwardSums | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        lo, hi = self.grid.n_T, self.grid.n_steps
        if self.dW.ndim != 3 or not lo <= self.dW.shape[1] <= hi:
            raise ShapeMismatch(f"dW must have shape (P, {lo}..{hi}, d), "
                                f"got {self.dW.shape}")
        if self.dB.ndim != 3 or self.dB.shape[:2] != self.dW.shape[:2]:
            raise ShapeMismatch(f"dB must hold the paths and steps of dW "
                                f"{self.dW.shape}, got {self.dB.shape}")

    @property
    def n_paths(self) -> int:
        return self.dW.shape[0]

    @property
    def n_stored(self) -> int:
        """Leading steps stored; W and B are known on nodes 0..n_stored."""
        return self.dW.shape[1]

    @property
    def d(self) -> int:
        return self.dW.shape[2]

    @property
    def l(self) -> int:
        return self.dB.shape[2]

    def w_at(self, k: int) -> np.ndarray:
        """W_{t_k} = sum of the first k W-increments, shape (P, d), read-only."""
        if self._w is None:  # W_{t_{n_T}} is what scaled_wt terminal data read
            self._w = _ForwardSums(self.dW.transpose(1, 0, 2), self.grid.n_T)
        return self._w.at(k)

    def b_at(self, k: int) -> np.ndarray:
        """B_{t_k}, shape (P, l), read-only."""
        if self._b is None:  # B_{t_{n_T}} anchors every node's B tail
            self._b = _ForwardSums(self.dB.transpose(1, 0, 2), self.grid.n_T)
        return self._b.at(k)

    def b_tail(self, k: int) -> np.ndarray:
        """B_{t_{n_T}} - B_{t_k}, shape (P, l)."""
        return self.b_at(self.grid.n_T) - self.b_at(k)

    def coarsen(self) -> "PathEnsemble":
        """Merge pairs of steps, keeping the same Brownian paths.

        Useful for h-refinement studies coupled on the same noise.  Each
        merged increment is the sum of its two steps in time order; the
        stored steps are merged, and an odd last one, which has no partner,
        is dropped.
        """
        n = self.grid.n_steps
        if n % 2:
            raise ValidationError(f"{n} steps do not pair up")
        if self.grid.n_T % 2:
            raise ValidationError("coarsening would move T off the grid")
        grid = TimeGrid(h=self.grid.h * 2, n_T=self.grid.n_T // 2,
                        n_end=self.grid.n_end // 2)
        pairs = self.n_stored // 2

        def merged(inc):  # node-major in, node-major out
            steps = inc.transpose(1, 0, 2)[:2 * pairs]
            steps = steps.reshape((pairs, 2) + steps.shape[1:])
            return steps.sum(axis=1).transpose(1, 0, 2)

        return PathEnsemble(grid=grid, dW=merged(self.dW), dB=merged(self.dB))


#: Rows per block of a draw.  A block is drawn into one reused buffer, so a
#: draw holds its output plus one block instead of a second full copy.
_DRAW_ROWS = 4096


def increment_blocks(P: int, shape: tuple, h: float, seed: SeedLike):
    """Iterator of (start, block) over P paths of N(0, h) increments, each
    path an array of the given shape, _DRAW_ROWS paths at a time.

    A block has shape (rows,) + shape; it is a view of one buffer that the
    next block overwrites.  The Philox stream keyed by seed is drawn in path
    order, so path i's increments do not depend on P or on the block size.
    """
    integer(P, "the path count P", 1)
    rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed)))
    buf = np.empty((min(P, _DRAW_ROWS), *shape))
    scale = np.sqrt(h)

    def blocks():  # a generator of its own, so the check above runs at the call
        for start in range(0, P, len(buf)):
            block = buf[:min(len(buf), P - start)]
            rng.standard_normal(out=block)
            block *= scale
            yield start, block

    return blocks()


def sample_paths(grid: TimeGrid, d: int, l: int, P: int, seed: SeedLike,
                 n_stored: int | None = None) -> PathEnsemble:
    """Draw P independent paths of (W, B) increments on the grid.

    Increments are N(0, h) per coordinate, W independent of B.  Path i is
    one (n_steps, d + l) draw, W in the first d columns and B in the rest.
    The draw is deterministic in (seed, P, grid, d, l), and path i's
    increments do not depend on P.  Only the leading n_stored steps
    (default: all) are stored; every step is still drawn, so the stored
    ones are the same bits as in a full draw.
    """
    if d < 1 or l < 1:
        raise ValidationError(f"driver dimensions must be >= 1, got d={d}, l={l}")
    n = grid.n_steps if n_stored is None else n_stored
    if not grid.n_T <= n <= grid.n_steps:
        raise ShapeMismatch(f"stored steps must be in {grid.n_T}..{grid.n_steps}, "
                            f"got {n}")
    blocks = increment_blocks(P, (grid.n_steps, d + l), grid.h, seed)  # checks P
    dW = np.empty((n, P, d)).transpose(1, 0, 2)  # node-major
    dB = np.empty((n, P, l)).transpose(1, 0, 2)
    for start, block in blocks:
        dW[start:start + len(block)] = block[:, :n, :d]
        dB[start:start + len(block)] = block[:, :n, d:]
    return PathEnsemble(grid=grid, dW=dW, dB=dB)


def forward_integral(Z, paths: PathEnsemble, k_from: int, k_to: int) -> np.ndarray:
    """Left-endpoint discretization of the forward integral of Z against dW.

    Z has per-node values in R^{m x d}, shape (P, n_nodes, m, d); returns
    per-path values in R^m: sum_{k=k_from}^{k_to-1} Z_k dW_k.
    """
    if not (0 <= k_from <= k_to <= paths.n_stored):
        raise ValidationError(f"bad node range [{k_from}, {k_to}] on {paths.n_stored} "
                              "stored steps")
    if Z.ndim != 4 or Z.shape[3] != paths.d:
        raise ShapeMismatch(
            f"integrand must have shape (P, nodes, m, {paths.d}), got {Z.shape}"
        )
    return np.einsum("pkmd,pkd->pm", Z[:, k_from:k_to], paths.dW[:, k_from:k_to])


def backward_integral(G, paths: PathEnsemble, k_from: int, k_to: int) -> np.ndarray:
    """Right-endpoint discretization of the backward integral of G against dB.

    G has per-node values in R^{m x l}, shape (P, n_nodes, m, l); returns
    per-path values in R^m: sum_{k=k_from}^{k_to-1} G_{k+1} dB_k.
    """
    if not (0 <= k_from <= k_to <= paths.n_stored):
        raise ValidationError(f"bad node range [{k_from}, {k_to}] on {paths.n_stored} "
                              "stored steps")
    if G.ndim != 4 or G.shape[3] != paths.l:
        raise ShapeMismatch(
            f"integrand must have shape (P, nodes, m, {paths.l}), got {G.shape}"
        )
    return np.einsum("pkml,pkl->pm",
                     G[:, k_from + 1:k_to + 1], paths.dB[:, k_from:k_to])
