"""Coefficient pairs (f, g), their anticipated map phi and audits.

A generator reads future solution values only through the conditional
expectation of one declared map: at time t the solver hands f and g
e = E[phi(Y_ant, Z_ant) | current information], a (P, q_total) block.  The
sweep stacks e's q_total targets with the node's Z and Y targets, so each
node takes one conditional expectation, whatever phi's width.

Lipschitz metadata declares constants for the *composite* map, i.e. with
phi folded in, measured against point differences of all four argument
groups (y, z, anticipated-y, anticipated-z).  These are the constants the
contraction parameters consume.  `audit_lipschitz` probes them empirically
with point-mass anticipated values: a joint ratio for f and a per-group
decomposition for g (y-group -> c, z -> alpha1, anticipated-z -> alpha2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import (Infeasible, integer, NonFinite, real, ShapeMismatch, UnknownName,
                     ValidationError)

Array = np.ndarray


@dataclass(frozen=True)
class LipschitzData:
    """Declared constants: |df|^2 <= c * (sum of squared argument diffs),
    |dg|^2 <= c*(dy-group) + alpha1*|dz|^2 + alpha2*(anticipated-dz)."""

    c: float
    alpha1: float = 0.0
    alpha2: float = 0.0

    def __post_init__(self):
        if not all(0 <= value < math.inf for value in (self.c, self.alpha1, self.alpha2)):
            raise ValidationError("Lipschitz constants must be finite and nonnegative")


def check_feasible(lip: LipschitzData, M: float) -> float:
    """Return alpha1 + alpha2*M, raising Infeasible when it is >= 1."""
    load = lip.alpha1 + lip.alpha2 * M
    if load >= 1.0:
        raise Infeasible(
            f"alpha1 + alpha2*M = {load:.6g} >= 1 (alpha1={lip.alpha1}, "
            f"alpha2={lip.alpha2}, M={M})"
        )
    return load


def _no_phi(y_ant: Array, z_ant: Array) -> Array:
    return np.zeros((y_ant.shape[0], 0))


@dataclass(frozen=True)
class GeneratorSpec:
    """Coefficients f: (t,y,z,e) -> R^m and g: (t,y,z,e) -> R^{m x l}.

    y has shape (P, m), z has shape (P, m, d) and e has shape (P, q_total):
    e = E[phi(Y_ant, Z_ant) | current information], where phi maps (P, m)
    and (P, m, d) anticipated values to (P, q_total).  q_total is read off
    phi(0, 0) once, at construction.  The default phi reads no anticipated
    value.
    """

    name: str
    m: int
    d: int
    l: int
    f: Callable[[float, Array, Array, Array], Array]
    g: Callable[[float, Array, Array, Array], Array]
    lip: LipschitzData
    phi: Callable[[Array, Array], Array] = _no_phi
    q_total: int = field(init=False)

    def __post_init__(self):
        shape = np.shape(self.phi(np.zeros((1, self.m)), np.zeros((1, self.m, self.d))))
        if len(shape) != 2 or shape[0] != 1:
            raise ShapeMismatch(f"generator '{self.name}': phi(0, 0) on one path "
                                f"has shape {shape}, wanted (1, q_total)")
        object.__setattr__(self, "q_total", shape[1])

    @property
    def anticipates(self) -> bool:
        return self.q_total > 0

    def eval_functionals(self, y_ant: Array, z_ant: Array) -> Array:
        """phi(y_ant, z_ant) as (P, q_total), copied when it shares memory
        with its arguments: the sweep later overwrites their (Y, Z) slots."""
        out = np.asarray(self.phi(y_ant, z_ant), dtype=float)
        if np.may_share_memory(out, y_ant) or np.may_share_memory(out, z_ant):
            return out.copy()
        return out


def evaluate(spec: GeneratorSpec, t: float, y: Array, z: Array, e: Array):
    """Pointwise (f, g) evaluation with shape and finiteness checks."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    e = np.asarray(e, dtype=float)
    if y.ndim != 2 or y.shape[1] != spec.m:
        raise ShapeMismatch(f"y must be (P, {spec.m}), got {y.shape}")
    if z.ndim != 3 or z.shape[1:] != (spec.m, spec.d):
        raise ShapeMismatch(f"z must be (P, {spec.m}, {spec.d}), got {z.shape}")
    if e.ndim != 2 or e.shape[1] != spec.q_total:
        raise ShapeMismatch(f"e must be (P, {spec.q_total}), got {e.shape}")
    for arr, name in ((y, "y"), (z, "z"), (e, "e")):
        if not np.all(np.isfinite(arr)):
            raise NonFinite(f"non-finite values in generator argument {name}")
    f_val = np.asarray(spec.f(t, y, z, e), dtype=float)
    g_val = np.asarray(spec.g(t, y, z, e), dtype=float)
    if f_val.shape != (y.shape[0], spec.m):
        raise ShapeMismatch(f"f returned {f_val.shape}, wanted (P, {spec.m})")
    if g_val.shape != (y.shape[0], spec.m, spec.l):
        raise ShapeMismatch(f"g returned {g_val.shape}, wanted (P, {spec.m}, {spec.l})")
    return f_val, g_val


# ---------------------------------------------------------------------------
# builtin catalog
# ---------------------------------------------------------------------------

def _z_norm(z: Array) -> Array:
    # Euclidean norm over the (m, d) axes, shape (P,)
    return np.sqrt(np.sum(z * z, axis=(1, 2)))


def _zeros_g(l: int):
    def g(t, y, z, e):
        return np.zeros((y.shape[0], y.shape[1], l))
    return g


def _scalar_drift_from_e(t, y, z, e):
    return e[:, :1]


def _growth_g(l: int):
    """g(t, y, z) = y + |z|/sqrt(3), scalar values broadcast to (P, 1, l)."""
    def g(t, y, z, e):
        vals = y[:, 0] + _z_norm(z) / math.sqrt(3.0)
        return np.repeat(vals[:, None, None], l, axis=2)
    return g


# Builders take (m, d, l, **params) and return (f, g, phi, lip).

def _linear(m, d, l, a, rho):
    return (lambda t, y, z, e: a * y + rho,
            _zeros_g(l), _no_phi, LipschitzData(c=a * a))


def _drift_from_y_ant(fn, c, m, d, l):
    """f = E[fn(Y_ant)], g = 0; c = (Lipschitz constant of fn)^2."""
    def phi(ya, za):
        return fn(ya[:, 0])[:, None]
    return _scalar_drift_from_e, _zeros_g(l), phi, LipschitzData(c=c)


def _example41_f1_phi(ya, za):
    x = ya[:, 0]
    return (x + np.sin(2.0 * x) + _z_norm(za) + 2.0)[:, None]


def _example41_f2_phi(ya, za):
    x = ya[:, 0]
    v = za[:, 0, 0] if za.shape[2] == 1 else _z_norm(za)
    return (x + 2.0 * np.abs(np.cos(x)) + np.sin(v) - 2.0)[:, None]


def _example41(phi_fn, m, d, l):
    """f = E[phi(Y_ant, Z_ant)] with the growth diffusion g of Example 4.1."""
    # |dphi| <= 3|dy| + |dz|  =>  |dphi|^2 <= 10 (|dy|^2 + |dz|^2)
    return (_scalar_drift_from_e, _growth_g(l), phi_fn,
            LipschitzData(c=10.0, alpha1=1.0 / 3.0))


def _example41_g(m, d, l):
    return (lambda t, y, z, e: np.zeros((y.shape[0], 1)),
            _growth_g(l), _no_phi, LipschitzData(c=1.0, alpha1=1.0 / 3.0))


def _duality_linear(m, d, l, mu, mu_bar, sigma, sigma_bar, kappa, rho):
    if sigma.shape != (d,) or sigma_bar.shape != (d,):
        raise ShapeMismatch(f"sigma/sigma_bar must have shape ({d},)")
    if kappa.shape != (l,):
        raise ShapeMismatch(f"kappa must have shape ({l},)")
    kap2 = float(kappa @ kappa)

    def f(t, y, z, e):
        e_y = e[:, :1]
        e_z = e[:, 1:1 + d]
        out = ((mu + kap2) * y[:, 0]
               + mu_bar * e_y[:, 0]
               + z[:, 0, :] @ sigma
               + e_z @ sigma_bar
               + rho)
        return out[:, None]

    def g(t, y, z, e):
        return y[:, :, None] * kappa[None, None, :]

    def phi(ya, za):  # the anticipated Y and Z themselves
        return np.concatenate([ya, za[:, 0]], axis=1)

    c_f = (mu + kap2) * (mu + kap2) + float(sigma @ sigma) + mu_bar * mu_bar \
        + float(sigma_bar @ sigma_bar)
    return f, g, phi, LipschitzData(c=max(c_f, kap2))


# name -> (parameter defaults, scalar only (m = 1), builder).  A tuple
# default marks a vector parameter; every other parameter is a float.
CATALOG = {
    "zero": ({}, False, partial(_linear, a=0.0, rho=0.0)),
    "constant_rho": ({"rho": 1.0}, False, partial(_linear, a=0.0)),
    "linear_bsde": ({"a": 1.0, "rho": 0.0}, False, _linear),
    "anticipated_drift": ({}, True, partial(_drift_from_y_ant, lambda x: x, 1.0)),
    "example41_f1": ({}, True, partial(_example41, _example41_f1_phi)),
    "example41_f2": ({}, True, partial(_example41, _example41_f2_phi)),
    "example41_g": ({}, True, _example41_g),
    "example42_f1": ({}, True, partial(
        _drift_from_y_ant, lambda x: x - np.sin(2.0 * x) + 2.0, 9.0)),
    "example42_ftilde": ({}, True, partial(
        _drift_from_y_ant, lambda x: x + np.cos(x), 4.0)),
    "example42_f2": ({}, True, partial(
        _drift_from_y_ant, lambda x: x + 2.0 * np.cos(x) - 1.0, 9.0)),
    "duality_linear": ({"mu": 0.0, "mu_bar": 0.0, "sigma": (0.0,),
                        "sigma_bar": (0.0,), "kappa": (0.0,), "rho": 0.0},
                       True, _duality_linear),
}


def _param(value, default, key: str):
    if isinstance(default, tuple):
        values = value if isinstance(value, (list, tuple, np.ndarray)) else [value]
        return np.array([real(v, key) for v in values])
    return real(value, key)


def catalog_params(name: str, params: dict) -> dict:
    """Every parameter of builtin `name`: `params` over the table's defaults,
    each number read by the real rule, as the builder receives them."""
    if name not in CATALOG:
        raise UnknownName(f"no builtin generator named '{name}'")
    defaults = CATALOG[name][0]
    extra = set(params) - set(defaults)
    if extra:
        raise UnknownName(f"unknown parameters {sorted(extra)} for '{name}'")
    return {key: _param(params.get(key, default), default, f"{name} parameter {key}")
            for key, default in defaults.items()}


def builtin_generator(name: str, m: int = 1, d: int = 1, l: int = 1,
                      **params) -> GeneratorSpec:
    """Construct the catalog generator `name`; `CATALOG` is the catalog.

    Parameters left out take the table's defaults; scalar-only builtins
    raise ShapeMismatch for m != 1.
    """
    values = catalog_params(name, params)
    if CATALOG[name][1] and m != 1:
        raise ShapeMismatch(
            f"builtin generator '{name}' is scalar (m = 1), got m = {m}")
    f, g, phi, lip = CATALOG[name][2](m, d, l, **values)
    return GeneratorSpec(name=name, m=m, d=d, l=l, f=f, g=g, lip=lip, phi=phi)


def with_lipschitz(spec: GeneratorSpec, **kwargs) -> GeneratorSpec:
    """Copy a spec with overridden Lipschitz metadata (used for audits)."""
    return replace(spec, lip=replace(spec.lip, **kwargs))


# ---------------------------------------------------------------------------
# empirical Lipschitz audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    observed_c_f: float
    observed_c_g: float
    observed_alpha1: float
    observed_alpha2: float
    declared: LipschitzData
    samples: int
    passed: bool

    def __str__(self):
        lines = [
            f"f joint ratio     {self.observed_c_f:.6g} (declared c={self.declared.c:.6g})",
            f"g y-group ratio   {self.observed_c_g:.6g} (declared c={self.declared.c:.6g})",
            f"g z ratio         {self.observed_alpha1:.6g} (declared alpha1={self.declared.alpha1:.6g})",
            f"g ant-z ratio     {self.observed_alpha2:.6g} (declared alpha2={self.declared.alpha2:.6g})",
            f"samples={self.samples}  ->  {'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines)


def _max_ratio(num: Array, den: Array) -> float:
    mask = den > 1e-14
    if not np.any(mask):
        return 0.0
    return float(np.max(num[mask] / den[mask]))


def audit_lipschitz(spec: GeneratorSpec, samples: int = 2000,
                    seed: int = 0) -> AuditReport:
    """Probe the declared constants with random argument pairs.

    Anticipated processes are probed with point masses (a deterministic
    future value), for which the conditional-expectation terms reduce to
    plain squared differences.  Arguments are standard Gaussian draws
    scaled by {0.1, 1, 10}; PASS requires every observed ratio to stay
    at or below its declared constant times (1 + 1e-9).
    """
    integer(samples, "the audit's samples", 1000)
    rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed)))
    per_scale = samples // 3 + 1
    m, d = spec.m, spec.d
    obs = {"c_f": 0.0, "c_g": 0.0, "a1": 0.0, "a2": 0.0}
    ts = np.array([0.0, 0.37, 1.0])

    def pack(y, z, ya, za):
        e = spec.eval_functionals(ya, za)
        return y, z, e

    for scale in (0.1, 1.0, 10.0):
        def draw(shape):
            return scale * rng.standard_normal(shape)

        base = [draw((per_scale, m)), draw((per_scale, m, d)),
                draw((per_scale, m)), draw((per_scale, m, d))]
        pert = [draw((per_scale, m)), draw((per_scale, m, d)),
                draw((per_scale, m)), draw((per_scale, m, d))]
        t = float(rng.choice(ts))

        def sq(a):
            return np.sum((a.reshape(a.shape[0], -1)) ** 2, axis=1)

        # f: all four groups vary jointly
        y1, z1, ya1, za1 = base
        y2, z2, ya2, za2 = [b + p for b, p in zip(base, pert)]
        f1, g1 = evaluate(spec, t, *pack(y1, z1, ya1, za1))
        f2, g2 = evaluate(spec, t, *pack(y2, z2, ya2, za2))
        den = sq(y1 - y2) + sq(z1 - z2) + sq(ya1 - ya2) + sq(za1 - za2)
        obs["c_f"] = max(obs["c_f"], _max_ratio(sq(f1 - f2), den))

        # g decomposition: vary one group at a time
        _, g_y = evaluate(spec, t, *pack(y2, z1, ya2, za1))
        obs["c_g"] = max(obs["c_g"], _max_ratio(
            sq(g1 - g_y), sq(y1 - y2) + sq(ya1 - ya2)))
        _, g_z = evaluate(spec, t, *pack(y1, z2, ya1, za1))
        obs["a1"] = max(obs["a1"], _max_ratio(sq(g1 - g_z), sq(z1 - z2)))
        _, g_za = evaluate(spec, t, *pack(y1, z1, ya1, za2))
        obs["a2"] = max(obs["a2"], _max_ratio(sq(g1 - g_za), sq(za1 - za2)))

    slack = 1.0 + 1e-9
    lip = spec.lip
    passed = (obs["c_f"] <= lip.c * slack
              and obs["c_g"] <= lip.c * slack
              and obs["a1"] <= lip.alpha1 * slack
              and obs["a2"] <= lip.alpha2 * slack)
    return AuditReport(
        observed_c_f=obs["c_f"], observed_c_g=obs["c_g"],
        observed_alpha1=obs["a1"], observed_alpha2=obs["a2"],
        declared=lip, samples=3 * per_scale, passed=passed)
