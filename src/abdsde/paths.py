"""Sample paths of the two independent Brownian drivers and their integrals.

An ensemble hands out the per-step increments of W (dimension d,
integrated forward) and of B (dimension l, integrated backward) one node
slab at a time, `dw(k)` and `db(k)`, because the backward sweep reads and
writes one node at a time.  A draw stores them; all its randomness comes
from a counter-based Philox stream keyed by the master seed, and path i's
increments occupy a fixed counter block, so regenerating with a different
path count P leaves paths 0..min(P)-1 bit-identical.  The other ensembles
compute each slab when it is read: a coarsening adds two fine slabs, and
the exact tree (`tree.TreeModel`, one path per atom) signs sqrt(h) by one
bit of the atom index, so neither holds a copy of its increments.

A draw's storage is (nodes, paths) contiguous per component: the
increments of one step, and the values of a process at one node, are one
contiguous (P, ...) slab behind the usual (P, n_steps | n_nodes, ...)
views.  W_{t_k} and B_{t_k} are not cached for the whole horizon either.
Each driver holds two node slabs: the anchor at n_T, summed once in
cumsum's order, and the last other node handed out.  The backward sweep
reads the nodes from T down to 0, so each of its reads is one
subtraction, S_k = S_{k+1} - inc_k; any other node is summed forward from
the highest node held below it.

An ensemble may hold only the leading steps, at least the n_T steps up to
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

from typing import Sequence, Union

import numpy as np

from .errors import integer, ShapeMismatch, ValidationError
from .grids import TimeGrid

SeedLike = Union[int, Sequence[int]]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class PathEnsemble:
    """Increments of the two drivers for P paths on a grid, read one node
    slab at a time.

    `dw(k)` and `db(k)` are step k's (P, d) and (P, l) increments,
    read-only, for the leading n_stored steps, n_T <= n_stored <= n_steps,
    so W and B are known on nodes 0..n_stored.  A draw stores them:
    `PathEnsemble(grid, dW, dB)` holds dW of shape (P, n_stored, d) and dB
    of shape (P, n_stored, l), node-major as `sample_paths` makes them, so
    each slab is a contiguous view.  A coarsening (`coarsen`) and an exact
    tree (`tree.TreeModel`) store no increments: these subclasses compute
    each slab when it is read (`_w_step`, `_b_step`).  W_{t_k} and B_{t_k}
    are sums of the slabs carried node by node (`_node_sum`), never a whole
    (P, n_nodes) array; a slab must not change once it is read.
    """

    def __init__(self, grid: TimeGrid, dW: np.ndarray, dB: np.ndarray):
        lo, hi = grid.n_T, grid.n_steps
        if dW.ndim != 3 or not lo <= dW.shape[1] <= hi:
            raise ShapeMismatch(f"dW must have shape (P, {lo}..{hi}, d), "
                                f"got {dW.shape}")
        if dB.ndim != 3 or dB.shape[:2] != dW.shape[:2]:
            raise ShapeMismatch(f"dB must hold the paths and steps of dW "
                                f"{dW.shape}, got {dB.shape}")
        self.dW, self.dB = dW, dB
        self._describe(grid, *dW.shape, dB.shape[2])

    def _describe(self, grid: TimeGrid, n_paths: int, n_stored: int, d: int,
                  l: int) -> None:
        """Record the grid and the shape, for a draw and a derived ensemble."""
        self.grid = grid
        self.n_paths, self.n_stored, self.d, self.l = n_paths, n_stored, d, l
        self._held: dict = {"w": {}, "b": {}}  # driver -> {node: S_node}

    def _w_step(self, k: int) -> np.ndarray:
        return self.dW[:, k]

    def _b_step(self, k: int) -> np.ndarray:
        return self.dB[:, k]

    def _check_step(self, k: int) -> int:
        if not 0 <= k < self.n_stored:
            raise ValidationError(f"step {k} is outside 0..{self.n_stored - 1}")
        return k

    def dw(self, k: int) -> np.ndarray:
        """dW_k, the W-increments of step k, shape (P, d), read-only."""
        return _read_only(self._w_step(self._check_step(k)))

    def db(self, k: int) -> np.ndarray:
        """dB_k, shape (P, l), read-only."""
        return _read_only(self._b_step(self._check_step(k)))

    def w_at(self, k: int) -> np.ndarray:
        """W_{t_k} = sum of the first k W-increments, shape (P, d), read-only."""
        return self._node_sum("w", self.dw, self.d, k)

    def b_at(self, k: int) -> np.ndarray:
        """B_{t_k}, shape (P, l), read-only."""
        return self._node_sum("b", self.db, self.l, k)

    def _node_sum(self, driver: str, read, c: int, k: int) -> np.ndarray:
        """S_k = inc_0 + ... + inc_{k-1} of one driver, S_0 = 0, read-only.

        The driver holds the anchor S_{n_T}, summed first, and the last
        other node handed out; reading the anchor keeps that node.  Node k
        is one subtraction, S_{k+1} - inc_k, when k + 1 is held and a
        forward sum would take more than one step; otherwise it is summed
        forward, in cumsum's order, from the highest node held below it.
        Each slab handed out is new, and no later read writes to it.
        """
        if not 0 <= k <= self.n_stored:
            raise ValidationError(f"node {k} is outside 0..{self.n_stored}")
        n_T = self.grid.n_T
        held = self._held[driver]
        for node in dict.fromkeys((n_T, k)):  # the anchor first
            if node in held:
                continue
            start = max([j for j in held if j < node], default=0)
            if node == 0:
                out = np.zeros((self.n_paths, c))
            elif node + 1 in held and node - start > 1:
                out = held[node + 1] - read(node)
            else:  # cumsum starts at inc_0 itself
                out = held[start].copy() if start else np.array(read(0))
                for j in range(max(start, 1), node):
                    out += read(j)
            _read_only(out)
            held = {n_T: out} if node == n_T else {n_T: held[n_T], node: out}
        self._held[driver] = held
        return held[k]

    def b_tail(self, k: int) -> np.ndarray:
        """B_{t_{n_T}} - B_{t_k}, shape (P, l)."""
        return self.b_at(self.grid.n_T) - self.b_at(k)

    def coarsen(self) -> "PathEnsemble":
        """Merge pairs of steps, keeping the same Brownian paths.

        Useful for h-refinement studies coupled on the same noise.  Step k
        of the coarse ensemble is the sum of fine steps 2k and 2k + 1, added
        when it is read; the stored steps are merged, and an odd last one,
        which has no partner, is dropped.
        """
        n = self.grid.n_steps
        if n % 2:
            raise ValidationError(f"{n} steps do not pair up")
        if self.grid.n_T % 2:
            raise ValidationError("coarsening would move T off the grid")
        return _Coarsened(self)


class _Coarsened(PathEnsemble):
    """The paths of a finer ensemble on every other node of its grid."""

    def __init__(self, fine: PathEnsemble):
        grid = TimeGrid(h=fine.grid.h * 2, n_T=fine.grid.n_T // 2,
                        n_end=fine.grid.n_end // 2)
        self._fine = fine
        self._describe(grid, fine.n_paths, fine.n_stored // 2, fine.d, fine.l)

    def _w_step(self, k: int) -> np.ndarray:
        return self._fine.dw(2 * k) + self._fine.dw(2 * k + 1)

    def _b_step(self, k: int) -> np.ndarray:
        return self._fine.db(2 * k) + self._fine.db(2 * k + 1)


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
    dW = _node_rows(paths.dw, k_from, k_to, (paths.n_paths, paths.d))
    return np.einsum("pkmd,pkd->pm", Z[:, k_from:k_to], dW.transpose(1, 0, 2))


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
    dB = _node_rows(paths.db, k_from, k_to, (paths.n_paths, paths.l))
    return np.einsum("pkml,pkl->pm",
                     G[:, k_from + 1:k_to + 1], dB.transpose(1, 0, 2))


def _node_rows(read, k_from: int, k_to: int, shape: tuple) -> np.ndarray:
    """Steps k_from..k_to-1 of one driver read slab by slab into node-major
    rows, row j holding step k_from + j; none when k_to <= k_from, as a
    slice would give."""
    steps = range(k_from, k_to)
    rows = np.empty((len(steps),) + shape)
    for j, k in enumerate(steps):
        rows[j] = read(k)
    return rows
