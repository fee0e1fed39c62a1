import numpy as np
import pytest

from abdsde.errors import NonCommensurate, TooLarge
from abdsde.grids import make_grid, MAX_NODES, TimeGrid


def test_make_grid_basic():
    g = make_grid(1.0, 0.5, 0.25)
    assert (g.n_T, g.n_end) == (4, 6)
    assert g.T == 1.0 and g.K == 0.5
    assert np.allclose(g.times, 0.25 * np.arange(7))


def test_make_grid_degenerate_window():
    g = make_grid(1.0, 0.0, 0.5)
    assert (g.n_T, g.n_end) == (2, 2)


def test_make_grid_non_commensurate():
    with pytest.raises(NonCommensurate):
        make_grid(1.0, 0.3, 0.25)
    with pytest.raises(NonCommensurate):
        make_grid(1.0, 0.0, 0.3)


def test_make_grid_tolerates_float_noise():
    # 0.1 is not dyadic; 10 * 0.1 hits 1.0 only within float tolerance
    g = make_grid(1.0, 0.0, 0.1)
    assert g.n_T == 10


def test_invalid_parameters():
    with pytest.raises(ValueError):
        make_grid(1.0, 0.0, -0.25)
    with pytest.raises(ValueError):
        make_grid(-1.0, 0.0, 0.25)
    with pytest.raises(ValueError):
        TimeGrid(h=0.25, n_T=0, n_end=2)


def test_index_of():
    g = make_grid(1.0, 0.5, 0.25)
    assert g.index_of(0.75) == 3
    with pytest.raises(NonCommensurate):
        g.index_of(0.3)


def test_a_step_count_beyond_any_float_is_off_the_grid():
    # value / h overflowed to inf, and round(inf) raised OverflowError
    with pytest.raises(NonCommensurate):
        make_grid(1e300, 0.0, 1e-10)
    with pytest.raises(NonCommensurate):
        make_grid(1.0, 0.0, 0.25).index_of(-1e308)


def test_a_grid_has_at_most_max_nodes():
    # the node count is checked after commensurability, from the step counts
    assert make_grid(1.0, 0.0, 1.0 / (MAX_NODES - 1)).n_nodes == MAX_NODES
    with pytest.raises(TooLarge, match=f"h = 1e-06 has 1000001 nodes; the cap is {MAX_NODES}"):
        make_grid(1.0, 0.0, 1e-6)
