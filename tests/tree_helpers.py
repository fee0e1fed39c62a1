"""Test-side helpers on the exact tree and on path ensembles, shared by
several test modules."""

import numpy as np

from abdsde.tree import _node_mean


def _tensor_condexp(values: np.ndarray, k: int, n: int) -> np.ndarray:
    """`tree._node_mean` of flat per-atom values (4^n,), on every atom again."""
    tensor = values.reshape((2,) * (2 * n))
    return np.broadcast_to(_node_mean(tensor, k, n), tensor.shape).reshape(-1)


def _reference_f_atom_ids(tree, k: int) -> np.ndarray:
    """`TreeModel.f_atom_ids` from the W and B indices of each atom, the
    formula the in-place version must match."""
    n = tree.n
    atoms = np.arange(tree.n_atoms)
    w_index = atoms & ((1 << n) - 1)
    b_index = atoms >> n
    mask = (1 << k) - 1
    return (w_index & mask) | ((b_index >> k) << k)


def stacked_steps(ensemble):
    """(dW, dB) of any path ensemble as (P, n_stored, d) and (P, n_stored, l)
    arrays: its `dw(k)` and `db(k)` slabs stacked along the step axis."""
    steps = range(ensemble.n_stored)
    return (np.stack([ensemble.dw(k) for k in steps], axis=1),
            np.stack([ensemble.db(k) for k in steps], axis=1))


def reference_tree_steps(n: int, h: float):
    """The n-step tree's (dW, dB), (4^n, n, 1) each, filled into one
    (2n, 4^n, 1) buffer: bit j of the atom index signs row j, W's steps
    first, then B's.  The slabs `build_tree` fills on each read must have
    these bits."""
    root_h = np.sqrt(h)
    steps = np.empty((2 * n, 4 ** n, 1))
    for j in range(2 * n):
        steps[j].reshape(-1, 2, 1 << j)[:] = [[-root_h], [root_h]]
    return steps[:n].transpose(1, 0, 2), steps[n:].transpose(1, 0, 2)


def reference_coarsened_steps(draw):
    """A draw's stored increments merged pairwise by a length-2
    `sum(axis=1)`, an odd last step dropped: the (dW, dB) whose bits the
    slabs of `draw.coarsen()` must have."""
    pairs = draw.n_stored // 2

    def merged(inc):  # node-major in, node-major out
        steps = inc.transpose(1, 0, 2)[:2 * pairs]
        steps = steps.reshape((pairs, 2) + steps.shape[1:])
        return steps.sum(axis=1).transpose(1, 0, 2)

    return merged(draw.dW), merged(draw.dB)
