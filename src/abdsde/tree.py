"""Exact finite probability space with two-point increments, and the
exact backward recursion on it.

Each of the n steps draws (dW, dB) uniformly from {+sqrt(h), -sqrt(h)}^2,
giving 4^n equally likely atoms.  Increment moments match the Brownian ones
to the order the schemes use: E dW = 0, E dW^2 = h, E dW dB = 0, exactly.

Atom a in [0, 4^n) encodes w_index = a mod 2^n and b_index = a div 2^n;
bit j of each index is the sign of that driver's step-j increment.  The
tree is itself the path ensemble of its atoms, and stores no increments:
it fills a step's (4^n, 1) slab of +-sqrt(h) from that bit when the slab
is read.  Two atoms lie in the same information atom at node k iff they
agree on W bits before k and on B bits at or after k, so conditional
expectations are plain block averages.

`oracle_solve` re-implements the backward sweep with those exact averages
on the atom tensor, the atom index as (2,)*2n bits, rather than by the
group-by of `condexp.ExactTreeBackend`; agreement of the two routes is the
package's core consistency check.  A node-k quantity keeps length-1 axes
for the bits node k does not see, so it holds 2^n values, not 4^n.  Given
`on_node`, the oracle hands over these node tensors, as the solver hands
over its node slabs, and no solution on all atoms is expanded: `abdsde
oracle-check` compares each node as the solver stores it.
"""

from __future__ import annotations

import math

import numpy as np

from .condexp import ExactTreeBackend
from .errors import integer, NotMeasurable, ShapeMismatch, TooLarge
from .grids import TimeGrid
from .paths import PathEnsemble
from .solver import SolutionProcess

#: Most steps an exact tree enumerates (4^8 atoms).  Any grid is capped at
#: grids.MAX_NODES = 2^16 nodes, as a load and a draw are linear in them.
MAX_STEPS = 8


class TreeModel(PathEnsemble):
    """The 4^n atoms of the two-point model as paths, d = l = 1: step k's
    W-increment is -sqrt(h) or +sqrt(h) as bit k of the atom index is 0 or
    1, its B-increment as bit n + k is; each slab is filled when it is read."""

    def __init__(self, grid: TimeGrid):
        if grid.n_steps > MAX_STEPS:
            raise TooLarge(f"a {grid.n_steps}-step tree is beyond the cap of {MAX_STEPS} "
                           f"steps (4^{MAX_STEPS} atoms)")
        self._root_h = np.sqrt(grid.h)
        self._describe(grid, 4 ** grid.n_steps, grid.n_steps, 1, 1)

    @property
    def n(self) -> int:
        return self.grid.n_steps

    def _signs(self, bit: int) -> np.ndarray:
        slab = np.empty((self.n_paths, 1))
        slab.reshape(-1, 2, 1 << bit)[:] = [[-self._root_h], [self._root_h]]
        return slab

    def _w_step(self, k: int) -> np.ndarray:
        return self._signs(k)

    def _b_step(self, k: int) -> np.ndarray:
        return self._signs(self.n + k)

    def f_atom_ids(self, k: int) -> np.ndarray:
        """Information-atom id per atom at node k (W bits < k, B bits >= k).

        The W index is the low n bits of the atom and k <= n, so the id is
        (atom & (2^k - 1)) | ((atom >> (n + k)) << k), built in two arrays.
        """
        atoms = np.arange(self.n_paths)
        ids = atoms & ((1 << k) - 1)
        atoms >>= self.n + k
        atoms <<= k
        ids |= atoms
        return ids

    def backend(self) -> ExactTreeBackend:
        return ExactTreeBackend(self)


def build_tree(n: int, h: float, n_T: int | None = None) -> TreeModel:
    """Enumerate the n-step tree (atom count 4^n, capped at n = 8).

    n_T marks where the terminal window starts (defaults to n, i.e. K = 0);
    pass the scenario's grid split when anticipation is in play.
    """
    integer(n, "the step count n", 1)
    return TreeModel(TimeGrid(h=h, n_T=n if n_T is None else n_T, n_end=n))


def tree_for_grid(grid: TimeGrid) -> TreeModel:
    return build_tree(grid.n_steps, grid.h, n_T=grid.n_T)


def _node_mean(tensor: np.ndarray, k: int, n: int) -> np.ndarray:
    """Exact conditional expectation at node k of an atom tensor, whose
    first 2n axes (length 2 or 1) are the B bits, most significant first,
    then the W bits: node k does not see the axes n-k .. 2n-k-1."""
    return tensor.mean(axis=tuple(range(n - k, 2 * n - k)), keepdims=True)


def _rows(n: int, *tensors: np.ndarray):
    """Atom tensors broadcast together on their first 2n axes and flattened
    to rows, other axes kept; returns (the broadcast shape, the row arrays)."""
    lead = np.broadcast_shapes(*(t.shape[:2 * n] for t in tensors))
    size = math.prod(lead)
    return lead, [np.broadcast_to(t, lead + t.shape[2 * n:])
                  .reshape((size,) + t.shape[2 * n:]) for t in tensors]


def oracle_solve(scenario, tree: TreeModel, on_node=None):
    """Exact backward recursion on the tree (scalar scenarios only).

    Mirrors the scheme of `solver.solve_backward_sweep` step for step, with
    each conditional expectation a mean over atom tensor axes.  f runs on
    at most 2^n rows, g and phi on the bits their nodes see together (below
    4^n).  The scenario must lie on the tree's grid (ShapeMismatch
    otherwise), and its terminal data must be node-measurable.

    Returns the SolutionProcess on all atoms, node-major like the solver's,
    expanded at the return.  Given `on_node`, it returns None instead and
    calls `on_node(k, Y_k, Z_k)` once per node, from n_end down to 0, with
    node k's tensors: 2^n values each, on the 2n bit axes of the atom index
    (length 2 where node k sees the bit, else 1), so that they broadcast
    against `values.reshape((2,) * 2n)` of per-atom values.
    """
    gen = scenario.generator
    grid = scenario.grid
    if (gen.m, gen.d, gen.l) != (1, 1, 1):
        raise ShapeMismatch("the exact oracle is scalar: m = d = l = 1")
    n = tree.n
    h = grid.h
    signs = np.array([-np.sqrt(h), np.sqrt(h)])  # bit 0, bit 1

    term = scenario.terminal_data(tree)
    Y = [None] * grid.n_nodes  # node-k tensors
    Z = [None] * grid.n_nodes
    for k in range(grid.n_T, grid.n_end + 1):
        for nodes, values in ((Y, term.xi_at(k)[:, 0]), (Z, term.eta_at(k)[:, 0, 0])):
            # the node-k mean, which must not move a value beyond rounding
            tensor = values.reshape((2,) * (2 * n))
            nodes[k] = _node_mean(tensor, k, n)
            if not np.allclose(tensor, nodes[k], rtol=1e-12, atol=1e-12):
                raise NotMeasurable(f"terminal data at node {k} vary on "
                                    f"increments the node-{k} field does not see")

    def raw_functionals(k):  # phi values, last axis the q_total columns
        if not gen.anticipates:
            return np.zeros((1,) * (2 * n) + (0,))
        ka = k + scenario.offsets.d_delta[k]
        kz = k + scenario.offsets.d_zeta[k]
        lead, (y, z) = _rows(n, Y[ka], Z[kz])
        return gen.eval_functionals(y[:, None], z[:, None, None]).reshape(lead + (-1,))

    # node k's raw functionals read only nodes > k (offsets are >= 1), so
    # they are final when computed and serve again as node k-1's g input
    raw = raw_functionals(grid.n_T)
    for k in range(grid.n_T - 1, -1, -1):
        lead, (y, z, e) = _rows(n, Y[k + 1], Z[k + 1], raw)
        g_val = np.reshape(gen.g(grid.time(k + 1), y[:, None], z[:, None, None], e), lead)
        # dB_k signs the axis n + k from the last, dW_k the axis k from it
        target = Y[k + 1] + g_val * signs.reshape((2,) + (1,) * (n + k))
        Z[k] = _node_mean(target * signs.reshape((2,) + (1,) * k), k, n) / h
        raw = raw_functionals(k)
        e_k = _node_mean(raw, k, n)
        y_bar = _node_mean(target, k, n)
        y_hat = y_bar
        for _ in range(scenario.implicit_iters):
            lead, (y, z, e) = _rows(n, y_hat, Z[k], e_k)
            f_val = gen.f(grid.time(k), y[:, None], z[:, None, None], e)
            y_hat = y_bar + h * np.reshape(f_val, lead)
        Y[k] = y_hat

    if on_node is not None:
        for k in range(grid.n_end, -1, -1):
            on_node(k, Y[k], Z[k])
        return None

    def on_atoms(nodes):  # node-major rows, seen as (4^n, n_nodes)
        out = np.empty((grid.n_nodes, tree.n_paths))
        for k, values in enumerate(nodes):
            out[k].reshape((2,) * (2 * n))[...] = values
        return out.T

    return SolutionProcess(grid=grid, Y=on_atoms(Y)[:, :, None],
                           Z=on_atoms(Z)[:, :, None, None])
