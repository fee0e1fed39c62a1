"""The benchmark's tracer patches functions where their callers look them up.

`bench/tracer.py` replaces module globals and class attributes of the loaded
package by name, so renaming or removing a hooked name breaks the traced
benchmark.  This installs the tracer on the package and puts every original
back; it fails as soon as a hooked name leaves its module.
"""

import sys
from pathlib import Path

import pytest

import abdsde.cli  # noqa: F401  (loads every module the tracer patches)

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # bench/ stays untouched
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer
    return tracer


def test_tracer_installs_and_uninstalls(tracer_module):
    duality = sys.modules["abdsde.duality"]
    before = dict(vars(duality))
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert duality.solve_delayed_dsde is not before["solve_delayed_dsde"]
    finally:
        tracer.uninstall()
    assert all(vars(duality)[name] is value for name, value in before.items())
