"""Test-side helpers on the exact tree shared by several test modules."""

import numpy as np

from abdsde.tree import _node_mean


def _tensor_condexp(values: np.ndarray, k: int, n: int) -> np.ndarray:
    """`tree._node_mean` of flat per-atom values (4^n,), on every atom again."""
    tensor = values.reshape((2,) * (2 * n))
    return np.broadcast_to(_node_mean(tensor, k, n), tensor.shape).reshape(-1)
