"""Command-line front end: scenario files in, CSV reports out.

Commands (exit status 0 = pass/success, 1 = a check reported FAIL,
2 = error):

    abdsde solve        <scenario.yaml> --out solve.csv
    abdsde compare      <scenario.yaml> --out compare.csv
    abdsde duality      <scenario.yaml> --out duality.csv
    abdsde oracle-check <scenario.yaml> --out oracle.csv
    abdsde segment      <scenario.yaml> --out segments.csv

`--seed N`, `--paths P` and `--grid-h H` override the file values.  Every
CSV starts with a '#' comment block holding the scenario hash and the full
resolved parameters, so outputs are self-describing, and reruns of the same
file and seed are byte-identical.  Floats are printed with 17 significant
digits.  The scenario schema is the table `SCHEMA`, documented in the README.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import sys
from dataclasses import asdict, replace
from typing import NamedTuple

import numpy as np
import yaml

from .condexp import ExactTreeBackend, RegressionBackend, RegressionBasis
from .delays import affine_delay, constant_delay, DelaySpec, segment_interval
from .duality import duality_check, LinearDualityCoeffs
from .errors import AbdsdeError, integer, NonCommensurate, ParseError, real, ValidationError
from .comparison import run_comparison
from .generators import builtin_generator, CATALOG, catalog_params, with_lipschitz
from .grids import make_grid, TimeGrid
from .paths import sample_paths
from .scenario import Scenario
from .solver import solve_backward_sweep
from .terminal import TerminalSpec
from .tree import oracle_solve, tree_for_grid


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _flatten(prefix: str, obj, out: list) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}{key}.", obj[key], out)
    elif isinstance(obj, (list, tuple)):
        out.append((prefix[:-1], "[" + ",".join(_fmt(v) for v in obj) + "]"))
    else:
        out.append((prefix[:-1], _fmt(obj)))


def resolved_lines(config: dict) -> list:
    out: list = []
    _flatten("", config, out)
    return [f"{k} = {v}" for k, v in out]


def scenario_hash(config: dict) -> str:
    blob = "\n".join(resolved_lines(config)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

#: Marks a key with no default that a written section must hold.
REQUIRED = object()

#: The scenario schema: section -> key -> default, where None marks a key
#: with no default and REQUIRED one that must be written.  A section none
#: of whose keys has a default (delay, compare, duality) exists only if
#: written; duality may restate the coefficients.
SCHEMA = {
    "grid": {"T": 1.0, "K": 0.0, "h": 0.25},
    "dims": {"m": 1, "d": 1, "l": 1},
    "delay": {"delta": REQUIRED, "zeta": None},
    "generator": {"name": "zero", "params": {}, "lipschitz": None},
    "terminal": {"name": "constant", "params": {"value": 1.0}},
    "backend": {"kind": "regression", **asdict(RegressionBasis())},
    "paths": {"count": 4096, "seed": 0},
    "solver": {"implicit_iters": 1},
    "compare": dict.fromkeys(("generator", "terminal")),
    "duality": dict.fromkeys(("t0", "outer", "inner", *CATALOG["duality_linear"][0])),
}
_LIPSCHITZ_KEYS = ("c", "alpha1", "alpha2")


def load_scenario(path: str) -> dict:
    """Parse and validate a scenario file; returns the resolved config dict.

    Parse failures raise ParseError; semantic failures raise ValidationError,
    naming the key of a value that breaks its rule (see `errors.integer`).
    """
    config = _read_config(path)
    _build_all(config)  # full validation pass
    return config


def _read_config(path: str) -> dict:
    """Parse a scenario file and put each section over its defaults, without
    building.  A section that names its builtin takes that builtin's own
    parameter defaults, not those of the schema's default builtin."""
    try:
        with open(path) as handle:
            raw = yaml.load(handle, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"scenario file {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"scenario file {path} must hold a mapping at top level")
    for section in raw:
        if section not in SCHEMA:
            raise ValidationError(f"unknown scenario section '{section}'")
    config = {}
    for section, keys in SCHEMA.items():
        values = raw.get(section, {})
        _check_keys(values, keys, section)
        defaults = _defaults(keys, values)
        if defaults or section in raw:
            config[section] = {**copy.deepcopy(defaults), **values}
            _check_required(config[section], keys, section)
    return config


def _defaults(keys: dict, values: dict) -> dict:
    """The defaults a section written as `values` takes from its `keys`."""
    return {key: value for key, value in keys.items()
            if value is not None and value is not REQUIRED
            and not (key == "params" and "name" in values)}


def _check_keys(values, allowed, name: str) -> None:
    if not isinstance(values, dict):
        raise ValidationError(f"{name} must be a mapping, got {values!r}")
    unknown = set(values) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown {name} keys {sorted(unknown)}")


def _check_required(values: dict, keys: dict, name: str) -> None:
    """Each key marked REQUIRED, or whose default `values` would take, must
    be in `values`; so a section that takes no defaults holds them all."""
    takes = _defaults(keys, values)
    for key, default in keys.items():
        if key not in values and (default is REQUIRED or key in takes):
            raise ValidationError(f"{name}.{key} is required")


def _delay_form(value, key: str):
    if isinstance(value, dict):
        _check_keys(value, {"a", "b"}, key)
        if "a" not in value:
            raise ValidationError(f"{key}.a is required")
        return affine_delay(real(value["a"], f"{key}.a"),
                            real(value.get("b", 0.0), f"{key}.b"))
    return constant_delay(real(value, key))


def _build_delay(config: dict):
    section = config.get("delay")
    if section is None:
        return None
    delta = _delay_form(section["delta"], "delay.delta")
    zeta = _delay_form(section.get("zeta", section["delta"]), "delay.zeta")
    return DelaySpec(delta=delta, zeta=zeta)


def _build_generator(section: dict, dims: dict):
    spec = builtin_generator(section["name"], **dims, **(section.get("params") or {}))
    override = section.get("lipschitz")
    if override:
        _check_keys(override, _LIPSCHITZ_KEYS, "generator.lipschitz")
        spec = with_lipschitz(spec, **{
            key: real(override[key], f"lipschitz.{key}")
            for key in _LIPSCHITZ_KEYS if key in override})
    return spec


def _build_terminal(section: dict) -> TerminalSpec:
    return TerminalSpec(name=section["name"], params=section.get("params") or {})


def _build_backend(section: dict, grid):
    kind = section["kind"]
    if kind == "regression":
        basis = RegressionBasis(degree=integer(section["degree"], "backend.degree", 1),
                                ridge=real(section["ridge"], "backend.ridge"))
        return RegressionBackend(basis)
    if kind == "exact":
        return tree_for_grid(grid).backend()
    raise ValidationError(f"unknown backend kind '{kind}'")


def _build_compare(config: dict, scenario: Scenario, dims: dict) -> Scenario | None:
    """The second scenario of the `compare:` pair, on the first one's grid,
    delay and implicit_iters; None without the section."""
    section = config.get("compare")
    if not section:
        return None
    for key, values in section.items():  # a part takes no defaults
        _check_keys(values, SCHEMA[key], f"compare.{key}")
        _check_required(values, SCHEMA[key], f"compare.{key}")
    generator = _build_generator(section.get("generator", config["generator"]), dims)
    terminal = _build_terminal(section.get("terminal", config["terminal"]))
    return replace(scenario, generator=generator, terminal=terminal)


def _build_duality(config: dict, scenario: Scenario, g: dict,
                   n_paths: int) -> dict | None:
    """`duality_check`'s arguments: g's (T, h), the `duality_linear`
    generator's parameters as coefficients and the `duality:` section's
    settings; None without the section.  The tolerances are not among them:
    `duality_check` calibrates them from the run.

    The section holds t0 (a grid node at most T), outer (at most
    paths.count: the outer paths are the draw's first ones) and inner; a
    coefficient key still written there must equal the generator's value
    after defaults.
    The backend must be regression, since the harness draws its paths; the
    scenario's delay must be the constant K in both delta and zeta, its
    implicit_iters 1, the scheme of the duality harness's solves, and its
    terminal a deterministic profile, which the representation reads.
    """
    section = config.get("duality")
    if not section:
        return None
    generator = config["generator"]
    if generator["name"] != "duality_linear":
        raise ValidationError("a duality section needs the duality_linear "
                              f"generator, got '{generator['name']}'")
    if config["backend"]["kind"] != "regression":
        raise ValidationError(
            "backend.kind must be regression in a duality scenario, whose harness "
            f"draws its paths; got '{config['backend']['kind']}'")
    coeffs = catalog_params("duality_linear", generator.get("params") or {})
    args = {name: integer(section[key], f"duality.{key}", 1)
            for key, name in (("outer", "n_outer"), ("inner", "inner")) if key in section}
    if args.get("n_outer", 0) > n_paths:
        raise ValidationError(f"duality.outer = {args['n_outer']} exceeds paths.count = "
                              f"{n_paths}: the outer paths are the first paths of the draw")
    written = {key: section[key] for key in section if key in coeffs}
    stated = catalog_params("duality_linear", written)
    for key in written:
        if not np.array_equal(stated[key], coeffs[key]):
            raise ValidationError(
                f"duality.{key} = {section[key]} differs from the generator's "
                f"{key} = {coeffs[key]}; the generator's parameters are the "
                "coefficients")
    T, K = g["T"], g["K"]
    t0 = real(section.get("t0", K), "duality.t0")
    if t0 > T:
        raise ValidationError(f"duality.t0 = {t0:g} is beyond the horizon T = {T:g}")
    try:
        scenario.grid.index_of(t0)
    except NonCommensurate:
        raise ValidationError(f"duality.t0 = {t0:g} is not a node of the grid "
                              f"with step h = {scenario.grid.h:g}") from None
    delay = scenario.delay  # set: duality_linear anticipates
    if not delay.delta == delay.zeta == constant_delay(K):
        raise ValidationError(
            "a duality scenario's delay must be delta = zeta = the constant "
            f"K = {K}, the delay of the dual forward equation")
    if scenario.implicit_iters != 1:
        raise ValidationError(
            "a duality scenario's solver.implicit_iters must be 1, the scheme "
            f"the duality harness solves with, got {scenario.implicit_iters}")
    dual = LinearDualityCoeffs(
        mu=coeffs["mu"], mu_bar=coeffs["mu_bar"], sigma=tuple(coeffs["sigma"]),
        sigma_bar=tuple(coeffs["sigma_bar"]), kappa=tuple(coeffs["kappa"]),
        rho=coeffs["rho"], delta=K, t0=t0, terminal=scenario.terminal)
    dual.profiles(scenario.grid)  # a terminal that reads the paths fails here
    return dict(args, T=T, h=g["h"], coeffs=dual)


class Built(NamedTuple):
    """Every runtime object of one scenario file and every value its commands read."""

    grid: TimeGrid
    scenario: Scenario
    backend: RegressionBackend | ExactTreeBackend
    n_paths: int
    seed: int
    compare: Scenario | None   # the second scenario of the compare pair
    duality: dict | None       # duality_check's arguments from the file


def _build_all(config: dict) -> Built:
    """Construct every runtime object, reading each value once by its rule."""
    try:
        n_paths = integer(config["paths"]["count"], "paths.count", 1)
        seed = integer(config["paths"]["seed"], "paths.seed", 0)
        g = {key: real(config["grid"][key], f"grid.{key}") for key in ("T", "K", "h")}
        dims = {key: integer(config["dims"][key], f"dims.{key}", 1) for key in "mdl"}
        grid = make_grid(g["T"], g["K"], g["h"])
        generator = _build_generator(config["generator"], dims)
        iters = integer(config["solver"]["implicit_iters"], "solver.implicit_iters", 1)
        scenario = Scenario(grid, generator, _build_terminal(config["terminal"]),
                            delay=_build_delay(config), implicit_iters=iters)
        duality = _build_duality(config, scenario, g, n_paths)  # rejects a tree first
        backend = _build_backend(config["backend"], grid)
        if isinstance(backend, RegressionBackend):
            backend.basis.check_paths(n_paths, dims["d"] + dims["l"])
        return Built(grid, scenario, backend, n_paths, seed,
                     compare=_build_compare(config, scenario, dims), duality=duality)
    except (ParseError, ValidationError):
        raise
    except AbdsdeError as exc:
        raise ValidationError(f"{type(exc).__name__}: {exc}") from exc
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValidationError(f"malformed scenario: {exc!r}") from exc


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _write_csv(path: str, config: dict, header: str, rows, extra_comments=()):
    lines = [f"# scenario_hash = {scenario_hash(config)}"]
    lines += [f"# {line}" for line in resolved_lines(config)]
    lines += [f"# {line}" for line in extra_comments]
    lines.append(header)
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

#: Largest |solver - oracle| difference in Y or Z that oracle-check passes.
ORACLE_TOLERANCE = 1e-10


def _paths(built: Built, *scenarios):
    """The tree's atoms for the exact backend, else the file's draw,
    storing the leading steps that the given scenarios read (all without
    one).  The tree keeps every step: its information field sees B past T."""
    if isinstance(built.backend, ExactTreeBackend):
        return built.backend.tree
    gen = built.scenario.generator
    n_stored = max((s.steps_read for s in scenarios), default=built.grid.n_steps)
    return sample_paths(built.grid, gen.d, gen.l, built.n_paths, built.seed, n_stored=n_stored)


def _cmd_solve(config, built, out_path):
    grid = built.grid
    paths = _paths(built, built.scenario)
    P = paths.n_paths
    rows = [None] * grid.n_nodes

    def reduce_node(k, y_k, z_k):
        # each node is reduced as the sweep stores it, so the solve keeps
        # only the anticipation window of (Y, Z)
        y = y_k[:, 0]
        abs_z = np.sqrt(np.einsum("pmd,pmd->p", z_k, z_k))
        rows[k] = (grid.time(k), y.mean(),
                   y.std(ddof=1) / np.sqrt(P) if P > 1 else 0.0,
                   abs_z.mean(),
                   abs_z.std(ddof=1) / np.sqrt(P) if P > 1 else 0.0)

    solve_backward_sweep(built.scenario, paths, built.backend, on_node=reduce_node)
    _write_csv(out_path, config, "t,mean_Y,stderr_Y,mean_absZ,stderr_absZ", rows)
    return 0


def _cmd_compare(config, built, out_path):
    if built.compare is None:
        raise ValidationError("compare command needs a 'compare' section")
    grid = built.grid
    paths = _paths(built, built.scenario, built.compare)
    report = run_comparison(built.scenario, built.compare, paths, built.backend)
    per_node = report.violation_fraction_per_node()
    rows = [(grid.time(k), report.mean_margin[k], report.min_margin[k],
             per_node[k]) for k in range(grid.n_nodes)]
    comments = (f"epsilon = {_fmt(report.epsilon)}",
                f"run_tolerance = {_fmt(report.run_tolerance)}",
                f"violation_fraction = {_fmt(report.violation_fraction())}",
                f"result = {'PASS' if report.passed else 'FAIL'}")
    _write_csv(out_path, config, "t,mean_margin,min_margin,violation_fraction_eps",
               rows, comments)
    return 0 if report.passed else 1


def _cmd_duality(config, built, out_path):
    if built.duality is None:
        raise ValidationError("duality command needs a 'duality' section")
    report = duality_check(**built.duality, P=built.n_paths, seed=built.seed,
                           basis=built.backend.basis)
    rows = [(j, float(r)) for j, r in enumerate(report.residuals)]
    rows.append(("summary", report.mean_residual))
    comments = (f"mean_residual = {_fmt(report.mean_residual)}",
                f"max_residual = {_fmt(report.max_residual)}",
                f"tol_mean = {_fmt(report.tol_mean)}",
                f"tol_max = {_fmt(report.tol_max)}",
                f"result = {'PASS' if report.passed else 'FAIL'}")
    _write_csv(out_path, config, "outer_path,residual", rows, comments)
    return 0 if report.passed else 1


def _cmd_oracle_check(config, built, out_path):
    grid, scenario, backend = built.grid, built.scenario, built.backend
    tree = backend.tree if isinstance(backend, ExactTreeBackend) else tree_for_grid(grid)
    # both routes read the same terminal data, built once on the atoms
    scenario = replace(scenario, terminal=scenario.terminal_data(tree))
    exact = {}  # node k -> the oracle's (Y_k, Z_k) tensors of 2^n values

    def keep(k, y_k, z_k):
        exact[k] = (y_k, z_k)

    oracle_solve(scenario, tree, on_node=keep)
    atom_axes = (2,) * (2 * tree.n)
    d_y = np.empty(grid.n_nodes)
    d_z = np.empty(grid.n_nodes)

    def compare(k, y_k, z_k):
        # the solver holds only its anticipation window: each node is
        # compared with the oracle's tensor, broadcast to the atoms, as the
        # sweep stores it
        y_exact, z_exact = exact[k]
        d_y[k] = np.abs(y_k[:, 0].reshape(atom_axes) - y_exact).max()
        d_z[k] = np.abs(z_k[:, 0, 0].reshape(atom_axes) - z_exact).max()

    solve_backward_sweep(scenario, tree, tree.backend(), on_node=compare)
    rows = [(grid.time(k), float(d_y[k]), float(d_z[k]))
            for k in range(grid.n_nodes)]
    worst = max(float(d_y.max()), float(d_z.max()))
    passed = worst <= ORACLE_TOLERANCE
    comments = (f"max_abs_difference = {_fmt(worst)}",
                f"tolerance = {_fmt(ORACLE_TOLERANCE)}",
                f"result = {'PASS' if passed else 'FAIL'}")
    _write_csv(out_path, config, "t,max_abs_dY,max_abs_dZ", rows, comments)
    return 0 if passed else 1


def _cmd_segment(config, built, out_path):
    if built.scenario.delay is None:
        raise ValidationError("segment command needs a 'delay' section")
    seg = segment_interval(built.scenario.delay, built.grid)
    rows = [(i, t) for i, t in enumerate(seg.points)]
    _write_csv(out_path, config, "i,t_i", rows, (f"N = {seg.N}",))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "duality": _cmd_duality,
    "oracle-check": _cmd_oracle_check,
    "segment": _cmd_segment,
}


def run(command: str, scenario_path: str, out_path: str,
        seed: int | None = None, n_paths: int | None = None,
        grid_h: float | None = None) -> int:
    """Read, override, build once, dispatch; returns the process exit status."""
    try:
        config = _read_config(scenario_path)
        # an override is read by the rule of the file value it replaces
        if seed is not None:
            config["paths"]["seed"] = seed
        if n_paths is not None:
            config["paths"]["count"] = n_paths
        if grid_h is not None:
            config["grid"]["h"] = grid_h
        return _COMMANDS[command](config, _build_all(config), out_path)
    except AbdsdeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="abdsde",
        description="numerical laboratory for anticipated backward doubly "
                    "stochastic differential equations")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("scenario", help="scenario file (YAML)")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--paths", type=int, default=None)
    parser.add_argument("--grid-h", type=float, default=None)
    args = parser.parse_args(argv)
    return run(args.command, args.scenario, args.out,
               seed=args.seed, n_paths=args.paths, grid_h=args.grid_h)


if __name__ == "__main__":
    sys.exit(main())
