import ast
import math
from pathlib import Path

import numpy as np
import pytest

from abdsde import errors
from abdsde.condexp import condexp, RegressionBackend
from abdsde.duality import duality_rhs, LinearDualityCoeffs
from abdsde.errors import integer, real, ShapeMismatch, TooLarge, ValidationError
from abdsde.generators import builtin_generator
from abdsde.grids import make_grid, TimeGrid
from abdsde.paths import sample_paths
from abdsde.scenario import Scenario
from abdsde.solver import picard_iterate
from abdsde.terminal import constant_terminal
from abdsde.tree import tree_for_grid, TreeModel

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "abdsde").glob("*.py"))


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_every_raise_names_an_abdsde_error(source):
    # a failure is typed where it is found, so callers tell it from a bug
    for node in ast.walk(ast.parse(source.read_text())):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue  # a bare raise passes on what was caught
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
        cls = getattr(errors, name, None)
        assert isinstance(cls, type) and issubclass(cls, errors.AbdsdeError), \
            f"{source.name}:{node.lineno} raises {name}"


def test_the_integer_rule_takes_an_int_at_or_above_its_bound():
    assert integer(3, "k", 1) == 3 and integer(0, "k", 0) == 0
    for value in (True, 1.0, 1.5, "2", None, [1], math.inf, 0):
        with pytest.raises(ValidationError, match=r"^k must be an integer >= 1, got "):
            integer(value, "k", 1)


def test_the_real_rule_takes_what_float_reads_and_is_finite():
    assert real("1e-8", "x") == 1e-8 and real(2, "x") == 2.0
    for value in ("abc", None, [1.0], {"a": 1}, math.nan, -math.inf, "inf", 10 ** 400):
        with pytest.raises(ValidationError, match=r"^x must be a finite real number, got "):
            real(value, "x")



def _picard(max_iter):
    grid = make_grid(0.5, 0.0, 0.25)
    tree = tree_for_grid(grid)
    scen = Scenario(grid, builtin_generator("linear_bsde", a=1.0), constant_terminal(1.0))
    picard_iterate(scen, tree, tree.backend(), max_iter=max_iter)


def _rhs_without_outer_paths():
    coeffs = LinearDualityCoeffs(mu=0.1, delta=0.25, t0=0.25)
    grid = coeffs.grid_for(0.5, 0.125)
    duality_rhs(coeffs, np.zeros((0, grid.n_steps, 1)), grid, grid.index_of(0.25),
                inner=8, seed=(1,))


def _condexp_on_one_row_less(exact):
    grid = make_grid(0.5, 0.0, 0.25)
    paths = tree_for_grid(grid) if exact else sample_paths(grid, 1, 1, 50, seed=1)
    backend = paths.backend() if exact else RegressionBackend()
    condexp(backend, np.arange(2.0 * (paths.n_paths - 1)).reshape(-1, 2), 1, paths)


@pytest.mark.parametrize("call,error", [
    (lambda: _picard(0), ValidationError),
    (lambda: _picard(-1), ValidationError),
    (lambda: _picard(2.5), ValidationError),
    (_rhs_without_outer_paths, ValidationError),
    (lambda: _condexp_on_one_row_less(True), ShapeMismatch),
    (lambda: _condexp_on_one_row_less(False), ShapeMismatch),
    (lambda: TreeModel(TimeGrid(h=0.1, n_T=12, n_end=12)), TooLarge),
], ids=["picard-max_iter-0", "picard-max_iter-negative", "picard-max_iter-2.5",
        "duality_rhs-no-outer-paths", "condexp-exact-other-rows",
        "condexp-regression-other-rows", "tree-past-the-step-cap"])
def test_a_public_entry_point_raises_a_typed_error_before_any_work(call, error):
    with pytest.raises(error):
        call()
