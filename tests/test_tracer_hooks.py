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


def test_traced_duality_run_keeps_its_output_and_span_stack(tracer_module, tmp_path):
    # duality_rhs runs its outer paths on worker threads; the tracer keeps one
    # span stack, so a hooked name called from a worker would corrupt it
    scenario = str(Path(__file__).resolve().parent / "data" / "duality_small.yaml")
    cli = sys.modules["abdsde.cli"]
    assert cli.run("duality", scenario, str(tmp_path / "plain.csv")) == 0
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert cli.run("duality", scenario, str(tmp_path / "traced.csv")) == 0
    finally:
        tracer.uninstall()
    assert (tmp_path / "traced.csv").read_text() == (tmp_path / "plain.csv").read_text()
    assert all(span.self_s >= 0.0 for span in tracer.spans)
    assert sum(span.name == "paths.sample_paths" for span in tracer.spans) == 3


def test_traced_solve_keeps_its_output_and_builds_one_design_per_node(tracer_module, tmp_path):
    # the node-k state reaches the fit through the hooked features(paths, k)
    scenario = str(BENCH / "reference" / "solve.yaml")
    cli = sys.modules["abdsde.cli"]
    assert cli.run("solve", scenario, str(tmp_path / "plain.csv")) == 0
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert cli.run("solve", scenario, str(tmp_path / "traced.csv")) == 0
    finally:
        tracer.uninstall()
    assert (tmp_path / "traced.csv").read_text() == (tmp_path / "plain.csv").read_text()
    n_T = cli._build_all(cli._read_config(scenario)).grid.n_T
    assert sum(span.name == "condexp.features" for span in tracer.spans) == n_T
    assert all(span.self_s >= 0.0 for span in tracer.spans)
