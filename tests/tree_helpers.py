"""Test-side helpers on the exact tree shared by several test modules."""

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
