import math
import os
import string
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, HealthCheck, settings, strategies as st

from abdsde import cli
from abdsde.cli import load_scenario, run, scenario_hash
from abdsde.duality import DualityReport
from abdsde.errors import AbdsdeError, ParseError, ValidationError
from abdsde.grids import MAX_NODES


def _write(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


MINIMAL = """
    grid: {T: 1.0, K: 0.0, h: 0.25}
    generator: {name: zero}
    terminal: {name: constant, params: {value: 1.0}}
    paths: {count: 256, seed: 3}
"""


def test_load_minimal_scenario(tmp_path):
    config = load_scenario(_write(tmp_path, "min.yaml", MINIMAL))
    assert config["generator"]["name"] == "zero"
    assert config["paths"]["count"] == 256
    assert len(scenario_hash(config)) == 16


def test_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_scenario(_write(tmp_path, "bad.yaml", "grid: [unbalanced"))
    with pytest.raises(ParseError):
        load_scenario(str(tmp_path / "missing.yaml"))


def test_validation_infeasible(tmp_path):
    path = _write(tmp_path, "inf.yaml", """
        grid: {T: 1.0, K: 0.5, h: 0.25}
        delay: {delta: 0.5}
        generator: {name: example41_f1, lipschitz: {c: 10.0, alpha1: 0.7, alpha2: 0.4}}
        terminal: {name: constant, params: {value: 1.0}}
    """)
    with pytest.raises(ValidationError, match="Infeasible"):
        load_scenario(path)


def test_validation_non_commensurate(tmp_path):
    path = _write(tmp_path, "nc.yaml", """
        grid: {T: 1.0, K: 0.0, h: 0.3}
        generator: {name: zero}
    """)
    with pytest.raises(ValidationError, match="NonCommensurate"):
        load_scenario(path)


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ValidationError):
        load_scenario(_write(tmp_path, "x.yaml", "bogus: {a: 1}\n"))


def test_solve_writes_expected_csv(tmp_path):
    scenario = _write(tmp_path, "s.yaml", MINIMAL)
    out = str(tmp_path / "out.csv")
    assert run("solve", scenario, out) == 0
    lines = open(out).read().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    assert any("scenario_hash" in line for line in comments)
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "t,mean_Y,stderr_Y,mean_absZ,stderr_absZ"
    assert len(body) == 1 + 5  # header + nodes of [0, T]
    for line in body[1:]:
        fields = line.split(",")
        assert float(fields[1]) == 1.0 and float(fields[3]) == 0.0


def test_rerun_is_byte_identical(tmp_path):
    scenario = _write(tmp_path, "s.yaml", MINIMAL)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run("solve", scenario, out1)
    run("solve", scenario, out2)
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_flag_overrides_change_output(tmp_path):
    scenario = _write(tmp_path, "s.yaml", """
        grid: {T: 1.0, K: 0.0, h: 0.25}
        generator: {name: linear_bsde, params: {a: 1.0, rho: 1.0}}
        terminal: {name: constant, params: {value: 1.0}}
        paths: {count: 256, seed: 3}
    """)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run("solve", scenario, out1) == 0
    assert run("solve", scenario, out2, grid_h=0.125) == 0
    assert open(out1).read() != open(out2).read()
    # bad override is rejected up front with status 2
    assert run("solve", scenario, str(tmp_path / "c.csv"), grid_h=0.3) == 2


def test_error_status_two(tmp_path):
    bad = _write(tmp_path, "bad.yaml", """
        grid: {T: 1.0, K: 0.0, h: 0.3}
        generator: {name: zero}
    """)
    assert run("solve", bad, str(tmp_path / "x.csv")) == 2


@pytest.mark.parametrize("a,b", [(0.75, -1.0), (0.8, -1.5)])
def test_delay_slope_at_or_below_minus_one_exits_two(tmp_path, capsys, a, b):
    # t + a + b t must increase: M = 1/(1+b) is infinite at b = -1, and
    # below it max(1, 1/(1+b)) = 1 would understate 1/|1+b|
    scenario = _write(tmp_path, "slope.yaml", f"""
        grid: {{T: 0.5, K: 0.5, h: 0.125}}
        delay: {{delta: {{a: {a}, b: {b}}}}}
        generator: {{name: example41_f1}}
        terminal: {{name: constant, params: {{value: 1.0}}}}
        paths: {{count: 256, seed: 3}}
    """)
    assert run("solve", scenario, str(tmp_path / "x.csv")) == 2
    assert "A1Violation" in capsys.readouterr().err


DUALITY_READY = {
    "grid": {"T": 1.0, "K": 0.25, "h": 0.25},
    "dims": {"m": 1, "d": 1, "l": 1},
    "delay": {"delta": 0.25},
    "generator": {"name": "duality_linear", "params": {"mu": 0.2}},
    "backend": {"kind": "regression"},
    "paths": {"count": 256, "seed": 11},
    "duality": {"mu": 0.2, "t0": 0.25, "outer": 2, "inner": 8},
}


@pytest.mark.parametrize("command,section,value,override", [
    ("solve", "paths", {"count": 0}, {}),
    ("solve", "paths", {}, {"n_paths": 0}),
    ("solve", "backend", {"degree": 0}, {}),
    ("solve", "backend", {"ridge": -1}, {}),
    ("solve", "grid", {"h": -0.25}, {}),
    ("solve", "paths", {"count": 30}, {}),  # 6 features need 60 paths
    ("duality", "duality", {"inner": 0}, {}),
    ("solve", "dims", {"m": 2}, {}),  # duality_linear is scalar
], ids=["count-0", "flag-paths-0", "degree-0", "ridge-negative", "h-negative",
        "paths-below-10x-features", "inner-0", "dims-m-2"])
def test_out_of_range_input_exits_two(tmp_path, command, section, value,
                                      override):
    config = {key: dict(val) for key, val in DUALITY_READY.items()}
    config[section].update(value)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(config))
    assert run(command, str(path), str(tmp_path / "x.csv"), **override) == 2


@pytest.mark.parametrize("section,key", [("compare", "epsilon"), ("duality", "tol_max"),
                                         ("duality", "tol_mean")])
def test_removed_tolerance_keys_exit_two(tmp_path, capsys, section, key):
    # the comparison's epsilon and the duality's tolerances follow from the run
    config = {name: dict(val) for name, val in DUALITY_READY.items()}
    config.setdefault(section, {})[key] = 0.1
    path = tmp_path / "removed.yaml"
    path.write_text(yaml.safe_dump(config))
    with pytest.raises(ValidationError, match=f"unknown {section} keys.*'{key}'"):
        load_scenario(str(path))
    assert run(section, str(path), str(tmp_path / "x.csv")) == 2
    assert f"ValidationError: unknown {section} keys ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("section,values,name,key", [
    ("paths", {"cont": 300}, "paths", "cont"),
    ("grid", {"dt": 0.25}, "grid", "dt"),
    ("backend", {"degre": 3}, "backend", "degre"),
    ("solver", {"iters": 3}, "solver", "iters"),
    ("dims", {"n": 2}, "dims", "n"),
    ("generator", {"param": {"mu": 0.2}}, "generator", "param"),
    ("generator", {"lipschitz": {"alpha": 0.1}}, "generator.lipschitz", "alpha"),
    ("terminal", {"parms": {}}, "terminal", "parms"),
    ("delay", {"delta": 0.25, "zeta_": 0.25}, "delay", "zeta_"),
    ("delay", {"delta": {"a": 0.25, "slope": 0.0}}, "delay.delta", "slope"),
    ("compare", {"terminal": {"name": "constant", "parms": {}}}, "compare.terminal",
     "parms"),
], ids=["paths", "grid", "backend", "solver", "dims", "generator", "lipschitz",
        "terminal", "delay", "delay-form", "compare-terminal"])
def test_unknown_key_in_a_known_section_exits_two(tmp_path, capsys, section, values,
                                                  name, key):
    # a misspelt key would otherwise run with the section's default
    config = {sec: dict(val) for sec, val in DUALITY_READY.items()}
    config.setdefault(section, {}).update(values)
    path = tmp_path / "misspelt.yaml"
    path.write_text(yaml.safe_dump(config))
    with pytest.raises(ValidationError, match=f"unknown {name} keys"):
        load_scenario(str(path))
    assert run("solve", str(path), str(tmp_path / "x.csv")) == 2
    assert f"ValidationError: unknown {name} keys ['{key}']" in capsys.readouterr().err


def test_more_outer_paths_than_paths_exit_two(tmp_path, capsys):
    # the outer paths are the first paths of the draw: 300 of 256 cannot be
    config = {sec: dict(val) for sec, val in DUALITY_READY.items()}
    config["duality"]["outer"] = 300
    path = tmp_path / "outer.yaml"
    path.write_text(yaml.safe_dump(config))
    with pytest.raises(ValidationError, match="duality.outer = 300 exceeds paths.count = 256"):
        load_scenario(str(path))
    assert run("duality", str(path), str(tmp_path / "x.csv")) == 2
    assert "duality.outer = 300 exceeds paths.count = 256" in capsys.readouterr().err
    # an override of the path count is read against the same rule
    config["duality"]["outer"] = 100
    path.write_text(yaml.safe_dump(config))
    assert run("duality", str(path), str(tmp_path / "x.csv"), n_paths=80) == 2
    assert "duality.outer = 100 exceeds paths.count = 80" in capsys.readouterr().err


@pytest.mark.parametrize("section,value,override,key", [
    ("paths", {"seed": "abc"}, {}, "paths.seed"),
    ("paths", {"seed": -3}, {}, "paths.seed"),
    ("paths", {"seed": 1.5}, {}, "paths.seed"),  # would run as seed 1
    ("paths", {}, {"seed": -1}, "paths.seed"),
    ("paths", {}, {"seed": 1.5}, "paths.seed"),
    ("grid", {"T": float("inf")}, {}, "grid.T"),
], ids=["seed-string", "seed-negative", "seed-float", "flag-seed-negative",
        "flag-seed-float", "T-inf"])
def test_bad_seed_or_non_finite_grid_exits_two(tmp_path, capsys, section, value,
                                               override, key):
    # rejected at load with the key named, not by a traceback at the draw
    _assert_rejected(tmp_path, capsys, "solve", section, value, override, key)


def _assert_rejected(tmp_path, capsys, command, section, value, override, key):
    config = {name: dict(val) for name, val in DUALITY_READY.items()}
    config.setdefault(section, {}).update(value)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(config))
    if not override:
        with pytest.raises(ValidationError, match=key):
            load_scenario(str(path))
    assert run(command, str(path), str(tmp_path / "x.csv"), **override) == 2
    assert f"error: ValidationError: {key} must be" in capsys.readouterr().err


_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize("command,section,value,override,key", [
    ("solve", "paths", {"count": _INF}, {}, "paths.count"),
    ("solve", "solver", {"implicit_iters": _INF}, {}, "solver.implicit_iters"),
    ("solve", "backend", {"degree": _INF}, {}, "backend.degree"),
    ("solve", "dims", {"d": _INF}, {}, "dims.d"),
    ("duality", "duality", {"outer": _INF}, {}, "duality.outer"),
    ("solve", "dims", {"d": 1.5}, {}, "dims.d"),
    ("solve", "paths", {"count": 300.7}, {}, "paths.count"),
    ("solve", "paths", {}, {"n_paths": 300.7}, "paths.count"),
    ("solve", "solver", {"implicit_iters": 1.5}, {}, "solver.implicit_iters"),
    ("solve", "backend", {"degree": 2.5}, {}, "backend.degree"),
    ("duality", "duality", {"inner": 4.5}, {}, "duality.inner"),
    ("solve", "backend", {"ridge": _NAN}, {}, "backend.ridge"),
], ids=["count-inf", "iters-inf", "degree-inf", "d-inf", "outer-inf", "d-float",
        "count-float", "flag-paths-float", "iters-float", "degree-float",
        "inner-float", "ridge-nan"])
def test_a_value_that_breaks_its_rule_exits_two(tmp_path, capsys, command, section,
                                                value, override, key):
    # each ran as a traceback, a truncated value or a meaningless check
    _assert_rejected(tmp_path, capsys, command, section, value, override, key)


def test_compare_command(tmp_path):
    scenario = _write(tmp_path, "cmp.yaml", """
        grid: {T: 0.5, K: 0.5, h: 0.0625}
        delay: {delta: 0.5}
        generator: {name: example41_f1}
        terminal: {name: constant, params: {value: 1.5}}
        paths: {count: 2048, seed: 21}
        compare:
          generator: {name: example41_f2}
          terminal: {name: constant, params: {value: 1.0}}
    """)
    out = str(tmp_path / "cmp.csv")
    assert run("compare", scenario, out) == 0
    lines = open(out).read().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "t,mean_margin,min_margin,violation_fraction_eps"
    margins = [float(line.split(",")[1]) for line in body[1:]]
    assert all(m > 0 for m in margins)


def test_compare_command_on_the_exact_backend(tmp_path):
    # six even steps would coarsen, but the exact backend conditions only on
    # its own tree: the run tolerance is 0 and the ordering holds exactly
    scenario = _write(tmp_path, "cmp.yaml", """
        grid: {T: 0.8, K: 0.4, h: 0.2}
        delay: {delta: 0.4}
        generator: {name: example41_f1}
        terminal: {name: scaled_wt, params: {a: 0.5, b: 1.5}}
        backend: {kind: exact}
        compare:
          generator: {name: example41_f2}
          terminal: {name: scaled_wt, params: {a: 0.5, b: 1.0}}
    """)
    out = tmp_path / "cmp.csv"
    assert run("compare", scenario, str(out)) == 0
    text = out.read_text()
    assert "# run_tolerance = 0\n" in text and "# result = PASS\n" in text


@pytest.mark.parametrize("compare", [
    "{generator: {name: no_such_generator}}",
    "{terminal: {name: constant, params: {value: 1.0, bogus: 2.0}}}",
    "{generator: {name: example41_f2}, generatr: {name: zero}}",
], ids=["unknown-generator", "unknown-terminal-parameter", "unknown-key"])
def test_load_scenario_builds_the_compare_section(tmp_path, compare):
    path = _write(tmp_path, "cmp.yaml", f"""
        grid: {{T: 0.5, K: 0.5, h: 0.0625}}
        delay: {{delta: 0.5}}
        generator: {{name: example41_f1}}
        terminal: {{name: constant, params: {{value: 1.5}}}}
        paths: {{count: 256, seed: 21}}
        compare: {compare}
    """)
    with pytest.raises(ValidationError):
        load_scenario(path)
    assert run("compare", path, str(tmp_path / "cmp.csv")) == 2


def _duality_small(tmp_path, name, generator_params, section):
    root = Path(__file__).resolve().parents[1] / "scenarios"
    config = yaml.safe_load((root / "duality_small.yaml").read_text())
    config["generator"]["params"].update(generator_params)
    config["duality"] = section(config["duality"])
    config["paths"]["count"] = 256
    config["duality"].update(outer=4, inner=64)
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(config))
    return str(path)


@pytest.mark.parametrize("generator_params,section", [
    ({"mu": 0.9}, dict),  # the section still says mu: 0.1
    ({}, lambda s: dict(s, sigma=[0.2])),
    ({}, lambda s: dict(s, lambda_=1.0)),
], ids=["generator-mu-differs", "section-sigma-differs", "unknown-key"])
def test_duality_coefficients_disagreeing_with_the_generator_exit_two(
        tmp_path, generator_params, section):
    path = _duality_small(tmp_path, "bad", generator_params, section)
    with pytest.raises(ValidationError):
        load_scenario(path)
    assert run("duality", path, str(tmp_path / "d.csv")) == 2


def test_a_duality_terminal_that_reads_the_paths_fails_at_load(tmp_path, capsys):
    # it used to load, then draw and solve the h = 1/32 grid, and fail only
    # in duality_rhs's worker pool
    root = Path(__file__).resolve().parents[1] / "scenarios"
    config = yaml.safe_load((root / "duality_small.yaml").read_text())
    config["terminal"] = {"name": "scaled_wt"}
    path = tmp_path / "scaled_wt.yaml"
    path.write_text(yaml.safe_dump(config))
    with pytest.raises(ValidationError, match="deterministic terminal profile"):
        load_scenario(str(path))
    out = tmp_path / "d.csv"
    assert run("duality", str(path), str(out)) == 2
    assert not out.exists()
    assert "deterministic terminal profile, got 'scaled_wt'" in capsys.readouterr().err


@pytest.mark.parametrize("h", [0.125, 0.03125], ids=["6-steps", "24-steps"])
def test_a_duality_file_on_the_exact_backend_fails_at_load(tmp_path, capsys, monkeypatch,
                                                           h):
    # the harness draws its paths, so no tree is built: on 24 steps it would
    # raise TooLarge, which names no duality rule
    trees = []
    monkeypatch.setattr(cli, "tree_for_grid", trees.append)
    config = {name: dict(val) for name, val in DUALITY_READY.items()}
    config.update(grid={"T": 0.5, "K": 0.25, "h": h}, backend={"kind": "exact"})
    path = tmp_path / "exact.yaml"
    path.write_text(yaml.safe_dump(config))
    with pytest.raises(ValidationError, match="backend.kind must be regression in a duality"):
        load_scenario(str(path))
    out = tmp_path / "d.csv"
    assert run("duality", str(path), str(out)) == 2
    assert not out.exists() and trees == []
    assert "ValidationError: backend.kind must be regression" in capsys.readouterr().err


def test_duality_section_needs_the_duality_linear_generator(tmp_path):
    path = _write(tmp_path, "d.yaml", """
        grid: {T: 1.0, K: 0.25, h: 0.25}
        delay: {delta: 0.25}
        generator: {name: anticipated_drift}
        paths: {count: 256, seed: 11}
        duality: {t0: 0.25, outer: 2, inner: 8}
    """)
    with pytest.raises(ValidationError, match="duality_linear"):
        load_scenario(path)


@pytest.mark.parametrize("delay", [
    {"delta": 0.125},
    {"delta": 0.25, "zeta": 0.125},
    {"delta": {"a": 0.125, "b": 0.1}},
], ids=["delta-below-K", "zeta-below-K", "affine-delta"])
def test_duality_delay_other_than_the_constant_k_exits_two(tmp_path, delay):
    # the dual forward equation is built with delay K, so any other delay
    # section would be ignored by the duality residuals
    path = _duality_small(tmp_path, "delay", {}, dict)
    config = yaml.safe_load(Path(path).read_text())
    config["delay"] = delay
    Path(path).write_text(yaml.safe_dump(config))
    with pytest.raises(ValidationError, match="delay"):
        load_scenario(path)
    assert run("duality", path, str(tmp_path / "d.csv")) == 2


def test_duality_implicit_iters_other_than_one_exits_two(tmp_path):
    # the duality harness solves with one implicit pass, so any other
    # solver section would be ignored by the duality residuals
    path = _duality_small(tmp_path, "iters", {}, dict)
    config = yaml.safe_load(Path(path).read_text())
    config["solver"] = {"implicit_iters": 3}
    Path(path).write_text(yaml.safe_dump(config))
    with pytest.raises(ValidationError, match="implicit_iters"):
        load_scenario(path)
    assert run("duality", path, str(tmp_path / "d.csv")) == 2


def test_duality_t0_beyond_the_horizon_exits_two(tmp_path, capsys):
    # past T the forward solve would start beyond its last node; t0 = T
    # starts it on that node
    path = _duality_small(tmp_path, "beyond", {}, lambda s: dict(s, t0=1.25))
    with pytest.raises(ValidationError, match="beyond the horizon"):
        load_scenario(path)
    assert run("duality", path, str(tmp_path / "beyond.csv")) == 2
    assert "duality.t0 = 1.25 is beyond the horizon T = 1" in capsys.readouterr().err
    path = _duality_small(tmp_path, "at", {}, lambda s: dict(s, t0=1.0))
    assert run("duality", path, str(tmp_path / "at.csv")) == 0


def test_duality_t0_off_the_grid_exits_two(tmp_path, capsys):
    # h = 1/32: t0 = 0.3 lies between nodes 9 and 10, so the forward solve
    # has no start node; it is rejected at load, not in a worker at run time
    path = _duality_small(tmp_path, "off", {}, lambda s: dict(s, t0=0.3))
    with pytest.raises(ValidationError, match="not a node of the grid"):
        load_scenario(path)
    assert run("duality", path, str(tmp_path / "off.csv")) == 2
    assert "duality.t0 = 0.3 is not a node of the grid with step h = 0.03125" \
        in capsys.readouterr().err
    assert not (tmp_path / "off.csv").exists()


def test_duality_coefficients_come_from_the_generator(tmp_path):
    # dropping the coefficient keys from the duality section changes nothing
    bodies = []
    for name, section in (("stated", dict),
                          ("generator-only", lambda s: {key: s[key] for key in
                                                        ("t0", "outer", "inner")})):
        path = _duality_small(tmp_path, name, {}, section)
        out = tmp_path / f"{name}.csv"
        assert run("duality", path, str(out)) in (0, 1)
        bodies.append([line for line in out.read_text().splitlines()
                       if not line.startswith("#")])
    assert bodies[0] == bodies[1]


def test_duality_command_validates_the_delay_at_load_and_once_per_solved_grid(
        tmp_path, monkeypatch):
    # the duality_nested shape: the loader validates the file's delay, then
    # the harness builds and solves the fine grid and the 2h and 4h
    # calibration grids from the coefficients
    import abdsde.delays
    calls = []
    validate_delay = abdsde.delays.validate_delay

    def counted(spec, grid):
        calls.append(grid.h)
        return validate_delay(spec, grid)

    monkeypatch.setattr(abdsde.delays, "validate_delay", counted)
    scenario = _write(tmp_path, "dual.yaml", """
        grid: {T: 1.0, K: 0.25, h: 0.03125}
        delay: {delta: 0.25}
        generator:
          name: duality_linear
          params: {mu: 0.1, mu_bar: 0.05, sigma: [0.1], sigma_bar: [0.0],
                   kappa: [0.1], rho: 0.2}
        terminal: {name: constant, params: {value: 1.0}}
        paths: {count: 256, seed: 11}
        duality: {t0: 0.25, outer: 2, inner: 8}
    """)
    run("duality", scenario, str(tmp_path / "dual.csv"))
    assert calls == [0.03125, 0.03125, 0.0625, 0.125]


def test_duality_command_pass_and_fail(tmp_path, monkeypatch):
    scenario = _write(tmp_path, "dual.yaml", """
        grid: {T: 1.0, K: 0.25, h: 0.0625}
        delay: {delta: 0.25}
        generator: {name: duality_linear, params: {mu: 0.2, mu_bar: 0.1, rho: 0.2}}
        terminal: {name: constant, params: {value: 1.0}}
        paths: {count: 256, seed: 11}
        duality: {mu: 0.2, mu_bar: 0.1, rho: 0.2, t0: 0.25, outer: 4, inner: 32}
    """)
    out = str(tmp_path / "d.csv")
    assert run("duality", scenario, out) == 0
    body = [line for line in open(out).read().splitlines()
            if not line.startswith("#")]
    assert body[0] == "outer_path,residual"
    assert body[-1].startswith("summary,")
    # a report whose residuals exceed its tolerances: FAIL, CSV written
    failing = DualityReport(residuals=np.array([0.5, 0.7]), tol_mean=0.1, tol_max=0.3,
                            rate_constant=0.0, y_t0=np.ones(2), rhs=np.array([0.5, 0.3]))
    monkeypatch.setattr(cli, "duality_check", lambda **kwargs: failing)
    out2 = str(tmp_path / "d2.csv")
    assert run("duality", scenario, out2) == 1
    text = open(out2).read()
    assert "result = FAIL" in text and "\n1,0.69999999999999996\n" in text


def test_duality_command_fits_with_the_backend_section(tmp_path):
    # the backward solve inside the duality check uses the file's basis, and
    # the CSV header records it
    bodies = {}
    for degree in (2, 3):
        path = _write(tmp_path, f"deg{degree}.yaml", f"""
            grid: {{T: 1.0, K: 0.25, h: 0.125}}
            delay: {{delta: 0.25}}
            generator: {{name: duality_linear,
                         params: {{mu: 0.1, sigma: [0.2], kappa: [0.2], rho: 0.2}}}}
            backend: {{kind: regression, degree: {degree}}}
            paths: {{count: 512, seed: 5}}
            duality: {{mu: 0.1, sigma: [0.2], kappa: [0.2], rho: 0.2, t0: 0.25,
                       outer: 4, inner: 32}}
        """)
        out = tmp_path / f"deg{degree}.csv"
        assert run("duality", path, str(out)) in (0, 1)
        text = out.read_text()
        assert f"# backend.degree = {degree}" in text
        bodies[degree] = [line for line in text.splitlines()
                          if not line.startswith("#")]
    assert bodies[2] != bodies[3]


def test_oracle_check_command(tmp_path):
    scenario = _write(tmp_path, "orc.yaml", """
        grid: {T: 0.6, K: 0.4, h: 0.2}
        delay: {delta: 0.4}
        generator: {name: example41_f1}
        terminal: {name: scaled_wt, params: {a: 0.5, b: 1.0}}
        backend: {kind: exact}
    """)
    out = str(tmp_path / "orc.csv")
    assert run("oracle-check", scenario, out) == 0
    assert "result = PASS" in open(out).read()


@pytest.mark.parametrize("command", ["oracle-check", "compare"])
def test_an_off_grid_delay_warns_once_per_command(tmp_path, command):
    # every scenario a command builds or copies by `replace` validates the
    # delay again and warns from one location, so a grid's warning is
    # printed once; compare's coarse calibration grid snaps by its own error
    path = _write(tmp_path, "affine.yaml", """
        grid: {T: 0.8, K: 0.4, h: 0.2}
        delay: {delta: {a: 0.2, b: 0.15}}
        generator: {name: example41_f1}
        terminal: {name: scaled_wt, params: {a: 0.5, b: 1.5}}
        paths: {count: 256, seed: 3}
        compare:
          generator: {name: example41_f2}
          terminal: {name: scaled_wt, params: {a: 0.5, b: 1.0}}
    """)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        assert run(command, path, str(tmp_path / "out.csv")) in (0, 1)
    messages = [str(w.message) for w in caught]
    assert messages[0].endswith("snapping to nearest nodes with error up to 0.09")
    assert len(set(messages)) == len(messages)


def test_oracle_check_builds_the_tree_once(tmp_path, monkeypatch):
    import abdsde.tree
    calls = []
    build_tree = abdsde.tree.build_tree

    def counting_build_tree(*args, **kwargs):
        calls.append(args)
        return build_tree(*args, **kwargs)

    monkeypatch.setattr(abdsde.tree, "build_tree", counting_build_tree)
    scenario = _write(tmp_path, "orc.yaml", """
        grid: {T: 0.4, K: 0.2, h: 0.2}
        delay: {delta: 0.2}
        generator: {name: example41_f1}
        terminal: {name: scaled_wt, params: {a: 0.5, b: 1.0}}
        backend: {kind: exact}
    """)
    assert run("oracle-check", scenario, str(tmp_path / "orc.csv")) == 0
    assert len(calls) == 1


def test_oracle_check_builds_the_terminal_data_once(tmp_path, monkeypatch):
    # the solver and the oracle read one TerminalData built on the atoms
    from abdsde.terminal import TerminalSpec
    calls = []
    build = TerminalSpec.build

    def counting_build(self, *args, **kwargs):
        calls.append(self.name)
        return build(self, *args, **kwargs)

    monkeypatch.setattr(TerminalSpec, "build", counting_build)
    scenario = _write(tmp_path, "orc.yaml", """
        grid: {T: 0.4, K: 0.2, h: 0.2}
        delay: {delta: 0.2}
        generator: {name: example41_f1}
        terminal: {name: scaled_b_tail, params: {a: 0.5, b: 1.0}}
        backend: {kind: exact}
    """)
    assert run("oracle-check", scenario, str(tmp_path / "orc.csv")) == 0
    assert calls == ["scaled_b_tail"]


def test_oracle_check_holds_one_node_at_a_time(tmp_path):
    # the check compares each node as the solver stores it, against the
    # oracle's tensors of 2^n values: on the 8-step tree its peak stays
    # within one (4^n, n_nodes) array of a plain solve's, below the two
    # whole-solution arrays that holding either route's Y and Z would add
    scenario = _write(tmp_path, "orc8.yaml", """
        grid: {T: 0.5, K: 0.3, h: 0.1}
        delay: {delta: 0.3, zeta: 0.1}
        generator: {name: example41_f1}
        terminal: {name: scaled_b_tail, params: {a: 0.5, b: 1.0}}
        backend: {kind: exact}
    """)
    peaks = {}
    for command in ("solve", "oracle-check"):
        tracemalloc.start()
        try:
            assert run(command, scenario, str(tmp_path / "out.csv")) == 0
            peaks[command] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    whole_solution = 8 * 4 ** 8 * 9  # one (4^n, n_nodes) float array
    assert peaks["oracle-check"] < peaks["solve"] + whole_solution, \
        (peaks["oracle-check"] - peaks["solve"]) / whole_solution


def test_oracle_check_beyond_the_step_cap_names_the_cap(capsys, tmp_path):
    # 96 steps: the message names the step count and the cap, not 4^96
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / \
        "anticipated_deterministic.yaml"
    assert run("oracle-check", str(scenario), str(tmp_path / "orc.csv")) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: TooLarge: ") and len(err) < 100
    assert "96-step" in err and "cap of 8 steps" in err


@pytest.mark.parametrize("h,override", [(1.0e-6, {}), (0.25, {"grid_h": 1e-6})],
                         ids=["file", "flag"])
def test_a_grid_beyond_the_node_cap_exits_two_at_once(tmp_path, capsys, h, override):
    # a million nodes: without the cap, f is evaluated at each one before the
    # tree's step cap trips; the exact backend keeps a draw out of reach
    scenario = _write(tmp_path, "fine.yaml", f"""
        grid: {{T: 1.0, K: 0.0, h: {h}}}
        backend: {{kind: exact}}
    """)
    start = time.perf_counter()
    assert run("solve", scenario, str(tmp_path / "x.csv"), **override) == 2
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert "TooLarge: a grid with step h = 1e-06 has 1000001 nodes" in err
    assert f"the cap is {MAX_NODES}" in err


def test_segment_command(tmp_path):
    scenario = _write(tmp_path, "seg.yaml", """
        grid: {T: 1.0, K: 0.4, h: 0.05}
        delay: {delta: 0.4}
        generator: {name: anticipated_drift}
        terminal: {name: constant, params: {value: 1.0}}
    """)
    out = str(tmp_path / "seg.csv")
    assert run("segment", scenario, out) == 0
    body = [line for line in open(out).read().splitlines()
            if not line.startswith("#")]
    points = [float(line.split(",")[1]) for line in body[1:]]
    assert points == pytest.approx([1.0, 0.6, 0.2, 0.0])


def test_shipped_scenarios_load():
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
    expected = {
        "anticipated_deterministic.yaml", "duality_small.yaml",
        "example41_compare.yaml", "linear_benchmark.yaml",
        "oracle_check.yaml", "segmentation.yaml",
    }
    found = {p.name for p in root.glob("*.yaml")}
    assert expected <= found
    for name in expected:
        load_scenario(str(root / name))


@pytest.mark.parametrize("name,digest", [
    ("anticipated_deterministic", "f17e156aa2d0f5f7"),
    ("duality_small", "8088966492bfcd58"),
    ("example41_compare", "506e00a733742ee1"),
    ("linear_benchmark", "cf28a1dff932127c"),
    ("oracle_check", "39ee0d961214fc13"),
    ("segmentation", "6d38ebc8430374d6"),
])
def test_a_shipped_scenario_keeps_its_resolved_header(name, digest):
    # the hash covers every resolved key and default the CSV header prints
    path = Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.yaml"
    assert scenario_hash(cli._read_config(str(path))) == digest


def test_a_terminal_given_by_name_alone_takes_its_builtin_defaults(tmp_path):
    # the default terminal's value = 1.0 is not a scaled_wt parameter
    scenario = _write(tmp_path, "named.yaml", """
        grid: {T: 1.0, K: 0.0, h: 0.25}
        terminal: {name: scaled_wt}
        paths: {count: 200}
    """)
    out = tmp_path / "named.csv"
    assert run("solve", scenario, str(out)) == 0
    header = [line for line in out.read_text().splitlines() if line.startswith("#")]
    assert "# terminal.name = scaled_wt" in header
    assert not [line for line in header if line.startswith("# terminal.params")]


@pytest.mark.parametrize("section,value", [
    ("grid", 0.25), ("paths", "many"), ("generator", None), ("delay", 0.5),
    ("compare", 3), ("duality", [1]),
], ids=["grid", "paths", "generator", "delay", "compare", "duality"])
def test_a_section_that_is_not_a_mapping_exits_two_naming_it(tmp_path, capsys,
                                                             section, value):
    path = tmp_path / "flat.yaml"
    path.write_text(yaml.safe_dump({section: value}))
    with pytest.raises(ValidationError, match=f"^{section} must be a mapping, got"):
        load_scenario(str(path))
    assert run("solve", str(path), str(tmp_path / "x.csv")) == 2
    assert (f"ValidationError: {section} must be a mapping, got {value!r}"
            in capsys.readouterr().err)


def test_a_delay_section_without_delta_exits_two_naming_it(tmp_path, capsys):
    # a delay needs delta, and an affine form {a, b} needs its slope a
    for delay, key in (("{zeta: 0.5}", "delay.delta"),
                       ("{delta: {b: 0.25}}", "delay.delta.a"),
                       ("{delta: 0.5, zeta: {b: 0.25}}", "delay.zeta.a")):
        scenario = _write(tmp_path, "partial.yaml", f"""
            grid: {{T: 1.0, K: 0.5, h: 0.25}}
            generator: {{name: anticipated_drift}}
            delay: {delay}
        """)
        with pytest.raises(ValidationError, match=f"^{key} is required$"):
            load_scenario(scenario)
        assert run("segment", scenario, str(tmp_path / "x.csv")) == 2
        assert f"ValidationError: {key} is required" in capsys.readouterr().err


def test_a_compare_part_without_name_exits_two_naming_it(tmp_path, capsys):
    # a part takes no defaults, so it must name its builtin
    scenario = _write(tmp_path, "nameless.yaml", """
        grid: {T: 1.0, K: 0.0, h: 0.25}
        paths: {count: 200}
        compare: {terminal: {params: {value: 2.0}}}
    """)
    with pytest.raises(ValidationError, match="^compare.terminal.name is required$"):
        load_scenario(scenario)
    assert run("compare", scenario, str(tmp_path / "x.csv")) == 2
    assert "ValidationError: compare.terminal.name is required" in capsys.readouterr().err


def test_the_readme_schema_block_is_the_schema_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Scenario file schema", 1)[1]
    block = block.split("```yaml\n", 1)[1].split("```", 1)[0]
    documented = yaml.safe_load(block)
    assert {section: set(keys) for section, keys in documented.items()} == \
        {section: set(keys) for section, keys in cli.SCHEMA.items()}
    for section, keys in cli.SCHEMA.items():
        for key, default in keys.items():
            if default is not None and default is not cli.REQUIRED:
                assert documented[section][key] == default, (section, key)


def test_the_readme_python_blocks_run_in_order():
    # one namespace, as a reader pasting the blocks into one session has
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


@pytest.mark.parametrize("command,body,out,message", [
    ("solve", "- 1\n- 2\n", "x.csv", "ParseError: scenario file"),
    ("solve", MINIMAL + "    backend: {kind: lattice}\n", "x.csv",
     "ValidationError: unknown backend kind 'lattice'"),
    ("compare", MINIMAL, "x.csv", "ValidationError: compare command needs"),
    ("duality", MINIMAL, "x.csv", "ValidationError: duality command needs"),
    ("segment", MINIMAL, "x.csv", "ValidationError: segment command needs"),
    ("solve", MINIMAL, "missing/x.csv", "No such file or directory"),
], ids=["top-level-list", "unknown-backend-kind", "compare-without-section",
        "duality-without-section", "segment-without-delay", "unwritable-out"])
def test_a_file_or_command_that_breaks_a_rule_exits_two(tmp_path, capsys, command, body,
                                                         out, message):
    scenario = _write(tmp_path, "s.yaml", body)
    assert run(command, scenario, str(tmp_path / out)) == 2
    assert message in capsys.readouterr().err


def test_importing_the_cli_leaves_the_thread_pool_unloaded():
    # duality_rhs imports concurrent.futures when it runs: every process
    # would pay for a module-level import at start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, abdsde.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_entry_point(tmp_path):
    scenario = _write(tmp_path, "s.yaml", MINIMAL)
    out = str(tmp_path / "cli.csv")
    # pytest's pythonpath setting reaches only its own process, not the child
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "abdsde.cli", "solve", scenario, "--out", out,
         "--paths", "128"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert open(out).read().startswith("# scenario_hash")


def _assert_matches_kept_csv(out, kept_path):
    # comment lines equal, numbers within 1e-12
    lines = out.read_text().splitlines()
    kept = kept_path.read_text().splitlines()
    assert len(lines) == len(kept)
    for line, ref in zip(lines, kept):
        if line.startswith("#") or line == ref:
            assert line == ref
            continue
        cells, ref_cells = line.split(","), ref.split(",")
        assert len(cells) == len(ref_cells)
        for cell, ref_cell in zip(cells, ref_cells):
            if cell != ref_cell:
                assert abs(float(cell) - float(ref_cell)) <= 1e-12, (line, ref)


def test_solve_matches_the_kept_reference_csv(tmp_path):
    # bench/reference/solve.csv is the kept output of bench/reference/solve.yaml;
    # a change to the scheme fails here, not only in the benchmark
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference"
    out = tmp_path / "solve.csv"
    assert run("solve", str(reference / "solve.yaml"), str(out)) == 0
    _assert_matches_kept_csv(out, reference / "solve.csv")


def test_duality_matches_the_kept_csv(tmp_path):
    # tests/data/duality_small.csv is the kept output of duality_small.yaml:
    # a change to the outer paths, the inner draws, the calibration grids or
    # the tolerances fails here
    data = Path(__file__).resolve().parent / "data"
    out = tmp_path / "duality.csv"
    assert run("duality", str(data / "duality_small.yaml"), str(out)) == 0
    _assert_matches_kept_csv(out, data / "duality_small.csv")


ROOT = Path(__file__).resolve().parents[1]


def test_compare_matches_the_kept_csv(tmp_path):
    # tests/data/example41_compare.csv is the kept output of
    # scenarios/example41_compare.yaml: a change to the joint sweep, the
    # margins, epsilon or the run tolerance fails here
    out = tmp_path / "compare.csv"
    assert run("compare", str(ROOT / "scenarios" / "example41_compare.yaml"), str(out)) == 0
    _assert_matches_kept_csv(out, ROOT / "tests" / "data" / "example41_compare.csv")


@pytest.mark.parametrize("command,scenario", [
    ("solve", ROOT / "bench" / "reference" / "solve.yaml"),
    ("compare", ROOT / "scenarios" / "example41_compare.yaml"),
])
def test_a_draw_of_the_steps_read_writes_the_bytes_of_a_full_draw(
        tmp_path, monkeypatch, command, scenario):
    stored = []
    draw, paths_for = cli.sample_paths, cli._paths

    def recording(*args, **kwargs):
        paths = draw(*args, **kwargs)
        stored.append(paths.n_stored)
        return paths

    monkeypatch.setattr(cli, "sample_paths", recording)
    trimmed, full = tmp_path / "trimmed.csv", tmp_path / "full.csv"
    assert run(command, str(scenario), str(trimmed)) == 0
    monkeypatch.setattr(cli, "_paths", lambda built, *scenarios: paths_for(built))
    assert run(command, str(scenario), str(full)) == 0
    assert trimmed.read_bytes() == full.read_bytes()
    grid = cli._build_all(cli._read_config(str(scenario))).grid
    assert stored == [grid.n_T, grid.n_steps]


@pytest.mark.parametrize("first,second,steps", [
    ("scaled_wt", None, "n_T"),
    ("constant", None, "n_T"),
    ("scaled_b_tail", None, "n_steps"),
    ("scaled_wt", "constant", "n_T"),
    ("scaled_wt", "scaled_b_tail", "n_steps"),
    ("scaled_b_tail", "scaled_wt", "n_steps"),
])
def test_a_draw_stores_every_step_a_terminal_reads(tmp_path, first, second, steps):
    # the pair is only built, never solved, so its order is not checked
    level = {"constant": "value", "scaled_wt": "b", "scaled_b_tail": "b"}
    compare = "" if second is None else f"""
        compare:
          terminal: {{name: {second}, params: {{{level[second]}: -1.0}}}}"""
    config = load_scenario(_write(tmp_path, "s.yaml", f"""
        grid: {{T: 0.5, K: 0.25, h: 0.0625}}
        terminal: {{name: {first}, params: {{{level[first]}: 2.0}}}}
        paths: {{count: 64, seed: 4}}""" + compare))
    built = cli._build_all(config)
    scenarios = [s for s in (built.scenario, built.compare) if s is not None]
    paths = cli._paths(built, *scenarios)
    assert paths.n_stored == getattr(built.grid, steps)


def _key_paths(node, path=()):
    """The key path of every value below the top level of a parsed file."""
    items = node.items() if isinstance(node, dict) \
        else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _key_paths(value, path + (key,))


def _mutations(value):
    """A string, a negative, NaN, infinity, a float where an int belongs, a
    list or a mapping in place of `value`.  The strings are letters, so none
    reads as a finite number, and the float is `value` + 0.5, so a mutated
    grid is never finer than the file's and at most 0.5 longer."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return st.one_of(
        st.text(string.ascii_letters, max_size=5),
        st.integers(max_value=-1),
        st.floats(max_value=-1e-300, allow_infinity=False),
        st.sampled_from([math.nan, math.inf, -math.inf, value + 0.5 if number else 0.5,
                         [value], {"a": value}]))


@pytest.mark.parametrize("scenario", sorted((ROOT / "scenarios").glob("*.yaml"))
                         + [ROOT / "tests" / "data" / "duality_small.yaml"],
                         ids=lambda path: f"{path.parent.name}/{path.name}")
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_file_with_one_value_mutated_loads_or_raises_a_typed_error(
        tmp_path, scenario, data):
    # only the loader runs, so no mutated path count or grid is drawn or solved
    config = yaml.safe_load(scenario.read_text())
    *parents, key = data.draw(st.sampled_from(list(_key_paths(config))))
    section = config
    for parent in parents:
        section = section[parent]
    section[key] = data.draw(_mutations(section[key]))
    mutated = tmp_path / "mutated.yaml"
    mutated.write_text(yaml.safe_dump(config))
    try:
        load_scenario(str(mutated))
    except AbdsdeError:
        pass
