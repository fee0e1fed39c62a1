import ast
import math
from pathlib import Path

import pytest

from abdsde import errors
from abdsde.errors import integer, real, ValidationError

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
