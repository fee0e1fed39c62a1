"""Workload generators: a seed in, scenario files and `cli.run` calls out.

`generate(name, directory, seed, quick)` writes the workload's YAML scenario
files into `directory` and returns the (command, scenario path) pairs that
one iteration of the workload passes to `abdsde.cli.run`.  The same seed
gives byte-identical files.  The seed varies path seeds and coefficients,
never the structure, so the per-layer counts do not depend on it.  Quick
mode shrinks path counts and the tree so the benchmark's own test runs in
seconds; commands and catalog combinations stay the same.
"""

from __future__ import annotations

import itertools
import os
import random

import yaml

# T = 1, K = 0.5, h = 1/64: 64 swept nodes with a 32-node anticipation window.
EXAMPLE41_GRID = {"T": 1.0, "K": 0.5, "h": 0.015625}

# The coefficients of scenarios/duality_small.yaml.
DUALITY_SMALL = {"mu": 0.1, "mu_bar": 0.05, "sigma": [0.1], "sigma_bar": [0.0],
                 "kappa": [0.1], "rho": 0.2}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _path_seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def _write(directory: str, name: str, config: dict) -> str:
    path = os.path.join(directory, name + ".yaml")
    with open(path, "w") as handle:
        yaml.safe_dump(config, handle, sort_keys=True)
    return path


# One large regression solve: condexp dominates, each design serves one node's 3 fits.
def lsmc_solve(directory: str, seed: int, quick: bool) -> list:
    rng = _rng("lsmc_solve", seed)
    config = {
        "grid": dict(EXAMPLE41_GRID),
        "delay": {"delta": 0.5},
        "generator": {"name": "example41_f1"},
        "terminal": {"name": "scaled_wt",
                     "params": {"a": rng.uniform(0.3, 0.7), "b": rng.uniform(1.0, 2.0)}},
        "backend": {"kind": "regression", "degree": 2},
        "paths": {"count": 2000 if quick else 100_000, "seed": _path_seed(rng)},
    }
    return [("solve", _write(directory, "lsmc_solve", config))]


# Same condexp layer, four sweeps over only 96 distinct designs: cross-solve reuse pays here.
def compare_refine(directory: str, seed: int, quick: bool) -> list:
    rng = _rng("compare_refine", seed)
    # a and the +0.5 terminal shift of scenarios/example41_compare.yaml: with
    # a up to 0.7 and shifts down to 0.4, one path in 50 000 can break the
    # order by more than the calibrated epsilon, and the check reports FAIL.
    a, shift = 0.5, 0.5
    b = rng.uniform(1.0, 2.0)
    config = {
        "grid": dict(EXAMPLE41_GRID),
        "delay": {"delta": 0.5},
        "generator": {"name": "example41_f1"},
        "terminal": {"name": "scaled_wt", "params": {"a": a, "b": b}},
        "backend": {"kind": "regression", "degree": 2},
        "paths": {"count": 2000 if quick else 50_000, "seed": _path_seed(rng)},
        "compare": {"generator": {"name": "example41_f2"},
                    "terminal": {"name": "scaled_wt", "params": {"a": a, "b": b - shift}}},
    }
    return [("compare", _write(directory, "compare_refine", config))]


# Nested Monte Carlo: paths and duality dominate, regression is a few percent.
def duality_nested(directory: str, seed: int, quick: bool) -> list:
    rng = _rng("duality_nested", seed)
    config = {
        "grid": {"T": 1.0, "K": 0.25, "h": 0.03125},
        "delay": {"delta": 0.25},
        "generator": {"name": "duality_linear", "params": dict(DUALITY_SMALL)},
        "terminal": {"name": "constant", "params": {"value": 1.0}},
        "paths": {"count": 1024 if quick else 8192, "seed": _path_seed(rng)},
        "duality": dict(DUALITY_SMALL, t0=0.25, outer=8 if quick else 64,
                        inner=256 if quick else 8192),
    }
    return [("duality", _write(directory, "duality_nested", config))]


def _delay(rng: random.Random, kind: str, T: float, K: float, h: float):
    n_K = round(K / h)
    if kind == "constant":
        return h * rng.randint(1, n_K)
    a = h * rng.randint(1, n_K - 1)
    return {"a": a, "b": rng.uniform(0.1, 0.9) * (K - a) / T}


# Only workload on tree and the exact backend; many small files make set-up and CLI weigh.
def tree_catalog(directory: str, seed: int, quick: bool) -> list:
    rng = _rng("tree_catalog", seed)
    # 8 steps (4^8 = 65 536 atoms); quick mode uses 5 steps (1 024 atoms).
    grid = {"T": 0.3, "K": 0.2, "h": 0.1} if quick else {"T": 0.5, "K": 0.3, "h": 0.1}
    T, K, h = grid["T"], grid["K"], grid["h"]
    generators = ("example41_f1", "duality_linear")
    terminals = ("scaled_wt", "scaled_b_tail")
    delay_kinds = ("constant", "affine")
    calls = []
    for i, (gen, term, kind, iters) in enumerate(itertools.product(
            generators, terminals, delay_kinds, (1, 3))):
        generator = {"name": gen}
        if gen == "duality_linear":
            generator["params"] = {
                "mu": rng.uniform(-0.2, 0.2), "mu_bar": rng.uniform(0.0, 0.1),
                "sigma": [rng.uniform(0.0, 0.2)], "sigma_bar": [rng.uniform(0.0, 0.1)],
                "kappa": [rng.uniform(0.05, 0.2)], "rho": rng.uniform(0.0, 0.3)}
        config = {
            "grid": dict(grid),
            "delay": {"delta": _delay(rng, kind, T, K, h),
                      "zeta": _delay(rng, kind, T, K, h)},
            "generator": generator,
            "terminal": {"name": term,
                         "params": {"a": rng.uniform(0.3, 0.7), "b": rng.uniform(0.5, 1.5)}},
            "backend": {"kind": "exact"},
            "solver": {"implicit_iters": iters},
        }
        calls.append(("oracle-check", _write(directory, f"tree_{i:02d}", config)))
    return calls


WORKLOADS = {
    "lsmc_solve": lsmc_solve,
    "compare_refine": compare_refine,
    "duality_nested": duality_nested,
    "tree_catalog": tree_catalog,
}


def generate(name: str, directory: str, seed: int, quick: bool = False) -> list:
    return WORKLOADS[name](directory, seed, quick)
