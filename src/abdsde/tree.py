"""Exact finite probability space with two-point increments, and the
brute-force backward recursion on it.

Each of the n steps draws (dW, dB) uniformly from {+sqrt(h), -sqrt(h)}^2,
giving 4^n equally likely atoms.  Increment moments match the Brownian ones
to the order the schemes use: E dW = 0, E dW^2 = h, E dW dB = 0, exactly.

Atom a in [0, 4^n) encodes w_index = a mod 2^n and b_index = a div 2^n;
bit j of each index is the sign of that driver's step-j increment.  Two
atoms lie in the same information atom at node k iff they agree on W bits
before k and on B bits at or after k, so conditional expectations are plain
block averages.

`oracle_solve` re-implements the backward sweep with those exact averages,
computed by an independent tensor-reshape route rather than the group-by
used by `condexp.ExactTreeBackend`; agreement of the two routes is the
package's core consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .condexp import ExactTreeBackend
from .errors import ShapeMismatch, TooLarge
from .grids import TimeGrid
from .paths import PathEnsemble

MAX_STEPS = 8


@dataclass
class TreeModel:
    """Enumerated atoms of the two-point model; d = l = 1."""

    grid: TimeGrid
    ensemble: PathEnsemble
    _atom_ids: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.grid.n_steps

    @property
    def n_atoms(self) -> int:
        return 4 ** self.n

    @property
    def atom_probability(self) -> float:
        return 4.0 ** (-self.n)

    def f_atom_ids(self, k: int) -> np.ndarray:
        """Information-atom id per atom at node k (W bits < k, B bits >= k)."""
        if k not in self._atom_ids:
            n = self.n
            atoms = np.arange(self.n_atoms)
            w_index = atoms & ((1 << n) - 1)
            b_index = atoms >> n
            mask = (1 << k) - 1
            self._atom_ids[k] = (w_index & mask) | ((b_index >> k) << k)
        return self._atom_ids[k]

    def backend(self) -> ExactTreeBackend:
        return ExactTreeBackend(self)


def build_tree(n: int, h: float, n_T: int | None = None) -> TreeModel:
    """Enumerate the n-step tree (atom count 4^n, capped at n = 8).

    n_T marks where the terminal window starts (defaults to n, i.e. K = 0);
    pass the scenario's grid split when anticipation is in play.
    """
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    if n > MAX_STEPS:
        raise TooLarge(f"{n}-step tree has {4**n} atoms; the cap is n={MAX_STEPS}")
    grid = TimeGrid(h=h, n_T=n if n_T is None else n_T, n_end=n)
    atoms = np.arange(4 ** n)
    # (step, atom) bits, so the increments are node-major like a draw's
    w_bits = (atoms[None, :] >> np.arange(n)[:, None]) & 1
    b_bits = (atoms[None, :] >> (n + np.arange(n))[:, None]) & 1
    root_h = np.sqrt(h)
    dW = ((2.0 * w_bits - 1.0) * root_h)[:, :, None].transpose(1, 0, 2)
    dB = ((2.0 * b_bits - 1.0) * root_h)[:, :, None].transpose(1, 0, 2)
    ensemble = PathEnsemble(grid=grid, dW=dW, dB=dB)
    return TreeModel(grid=grid, ensemble=ensemble)


def tree_for_grid(grid: TimeGrid) -> TreeModel:
    return build_tree(grid.n_steps, grid.h, n_T=grid.n_T)


def _tensor_condexp(values: np.ndarray, k: int, n: int) -> np.ndarray:
    """Exact conditional expectation at node k, by axis averaging.

    values is flat (4^n,); reshaped to (2,)*2n with the first n axes the B
    bits (most significant first) and the last n the W bits, the unknown
    coordinates at node k occupy the contiguous axes n-k .. 2n-k-1.
    """
    tensor = values.reshape((2,) * (2 * n))
    axes = tuple(range(n - k, 2 * n - k))
    mean = tensor.mean(axis=axes, keepdims=True)
    return np.broadcast_to(mean, tensor.shape).reshape(-1)


def oracle_solve(scenario, tree: TreeModel):
    """Exact backward recursion on the tree (scalar scenarios only).

    Mirrors the scheme of `solver.solve_backward_sweep` step for step, but
    evaluates every conditional expectation by exact enumeration through
    the tensor route above.  Returns a SolutionProcess on the atom ensemble.
    """
    from .solver import SolutionProcess  # local import to avoid a cycle

    gen = scenario.generator
    grid = scenario.grid
    if (gen.m, gen.d, gen.l) != (1, 1, 1):
        raise ShapeMismatch("the exact oracle is scalar: m = d = l = 1")
    if grid.n_end != tree.n or abs(grid.h - tree.grid.h) > 1e-15:
        raise ShapeMismatch("scenario grid and tree disagree")
    n = tree.n
    A = tree.n_atoms
    h = grid.h
    dW = tree.ensemble.dW[:, :, 0]
    dB = tree.ensemble.dB[:, :, 0]

    term = scenario.terminal_data(tree.ensemble)
    Y = np.zeros((A, grid.n_nodes))
    Z = np.zeros((A, grid.n_nodes))
    for k in range(grid.n_T, grid.n_end + 1):
        Y[:, k] = term.xi_at(k)[:, 0]
        Z[:, k] = term.eta_at(k)[:, 0, 0]

    def raw_functionals(k):
        if not gen.anticipates:
            return np.zeros((A, 0))
        ka = k + scenario.offsets.d_delta[k]
        kz = k + scenario.offsets.d_zeta[k]
        return gen.eval_functionals(Y[:, ka][:, None], Z[:, kz][:, None, None])

    # node k's raw functionals read only nodes > k (offsets are >= 1), so
    # they are final when computed and serve again as node k-1's g input
    raw = raw_functionals(grid.n_T)
    for k in range(grid.n_T - 1, -1, -1):
        t_k = grid.time(k)
        t_next = grid.time(k + 1)
        g_val = gen.g(t_next, Y[:, k + 1][:, None], Z[:, k + 1][:, None, None], raw)
        target = Y[:, k + 1] + np.asarray(g_val)[:, 0, 0] * dB[:, k]
        Z[:, k] = _tensor_condexp(target * dW[:, k], k, n) / h
        e_k = np.empty((A, gen.q_total))
        raw = raw_functionals(k)
        for j in range(gen.q_total):
            e_k[:, j] = _tensor_condexp(raw[:, j], k, n)
        y_bar = _tensor_condexp(target, k, n)
        y_hat = y_bar
        for _ in range(scenario.implicit_iters):
            f_val = gen.f(t_k, y_hat[:, None], Z[:, k][:, None, None], e_k)
            y_hat = y_bar + h * np.asarray(f_val)[:, 0]
        Y[:, k] = y_hat

    return SolutionProcess(grid=grid, Y=Y[:, :, None], Z=Z[:, :, None, None])
