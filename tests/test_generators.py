import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abdsde.delays import constant_delay, DelaySpec
from abdsde.errors import Infeasible, NonFinite, ShapeMismatch, UnknownName, ValidationError
from abdsde.generators import (_z_norm, audit_lipschitz, builtin_generator,
                               CATALOG, check_feasible, evaluate, GeneratorSpec,
                               LipschitzData, with_lipschitz)
from abdsde.grids import make_grid
from abdsde.scenario import make_scenario
from abdsde.terminal import constant_terminal

P1 = lambda *vals: np.array([list(vals)], dtype=float)


def _eval_scalar(spec, t, y, z, y_ant, z_ant):
    e = spec.eval_functionals(np.array([[y_ant]]), np.array([[[z_ant]]]))
    f, g = evaluate(spec, t, np.array([[y]]), np.array([[[z]]]), e)
    return float(f[0, 0]), float(g[0, 0, 0])


def test_example41_f1_at_zero_point_mass():
    spec = builtin_generator("example41_f1")
    f, _ = _eval_scalar(spec, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert f == pytest.approx(2.0)  # 0 + sin 0 + 0 + 2


def test_example41_f2_at_zero_point_mass():
    spec = builtin_generator("example41_f2")
    f, _ = _eval_scalar(spec, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert f == pytest.approx(0.0)  # 0 + 2|cos 0| + sin 0 - 2


def test_example41_g_value():
    spec = builtin_generator("example41_g")
    _, g = _eval_scalar(spec, 0.0, 1.0, 1.0, 0.0, 0.0)
    assert g == pytest.approx(1.0 + 1.0 / math.sqrt(3.0))
    # with no Brownian B the diffusion is an empty (P, 1, 0) block
    _, g = evaluate(builtin_generator("example41_g", l=0), 0.0, np.ones((4, 1)),
                    np.ones((4, 1, 1)), np.zeros((4, 0)))
    assert g.shape == (4, 1, 0)


def test_linear_bsde_value():
    spec = builtin_generator("linear_bsde", a=1.0, rho=1.0)
    f, g = _eval_scalar(spec, 0.0, 1.0, 0.3, 0.0, 0.0)
    assert f == pytest.approx(2.0) and g == 0.0


def test_zero_generator():
    spec = builtin_generator("zero")
    f, g = _eval_scalar(spec, 0.5, 3.0, -2.0, 1.0, 1.0)
    assert f == 0.0 and g == 0.0 and not spec.anticipates


def test_duality_linear_degenerate_rho():
    spec = builtin_generator("duality_linear", rho=0.7)
    f, g = _eval_scalar(spec, 0.0, 5.0, 1.0, 2.0, 3.0)
    assert f == pytest.approx(0.7) and g == 0.0


def test_unknown_name_and_params():
    with pytest.raises(UnknownName):
        builtin_generator("no_such_generator")
    with pytest.raises(UnknownName):
        builtin_generator("zero", bogus=1)


def test_bad_parameter_value_fails_when_the_spec_is_built():
    with pytest.raises(ValueError):
        builtin_generator("constant_rho", rho="not a number")


@pytest.mark.parametrize("name,params", [
    ("duality_linear", {"mu": -1e200}),  # its square overflowed with an OverflowError
    ("linear_bsde", {"a": 1e200}),       # its square read inf and was kept
    ("duality_linear", {"kappa": [1e200]}),
])
def test_a_coefficient_with_no_finite_lipschitz_constant_is_rejected(name, params):
    with pytest.raises(ValidationError, match="Lipschitz constants must be finite"):
        builtin_generator(name, **params)


def test_evaluate_shape_and_finite_checks():
    spec = builtin_generator("linear_bsde", a=1.0)
    with pytest.raises(ShapeMismatch):
        evaluate(spec, 0.0, np.zeros((3, 2)), np.zeros((3, 1, 1)), np.zeros((3, 0)))
    with pytest.raises(NonFinite):
        evaluate(spec, 0.0, np.array([[np.nan]]), np.zeros((1, 1, 1)),
                 np.zeros((1, 0)))


@settings(max_examples=300, deadline=None)
@given(x=st.floats(-50, 50), gap=st.floats(0, 50),
       u=st.floats(-50, 50), v=st.floats(-50, 50))
def test_example41_dominance_inequality(x, gap, u, v):
    # x + sin 2x + |u| + 2 >= y + 2|cos y| + sin v - 2 whenever x >= y
    y = x - gap
    lhs = x + math.sin(2 * x) + abs(u) + 2.0
    rhs = y + 2.0 * abs(math.cos(y)) + math.sin(v) - 2.0
    assert lhs >= rhs - 1e-12


def test_example42_chain_pointwise_and_monotone():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(scale=s, size=500) for s in (0.1, 1, 10)])
    f1 = x - np.sin(2 * x) + 2.0
    fm = x + np.cos(x)
    f2 = x + 2.0 * np.cos(x) - 1.0
    assert np.all(f1 >= fm - 1e-12) and np.all(fm >= f2 - 1e-12)
    hi = x + np.abs(rng.normal(size=x.size))
    assert np.all((hi + np.cos(hi)) >= fm - 1e-12)


BUILTINS = [
    ("zero", {}),
    ("constant_rho", {"rho": 2.0}),
    ("linear_bsde", {"a": 1.0, "rho": 1.0}),
    ("anticipated_drift", {}),
    ("example41_f1", {}),
    ("example41_f2", {}),
    ("example41_g", {}),
    ("example42_f1", {}),
    ("example42_ftilde", {}),
    ("example42_f2", {}),
    ("duality_linear", {"mu": 0.1, "mu_bar": 0.05, "sigma": [0.1],
                        "sigma_bar": [0.0], "kappa": [0.1], "rho": 0.2}),
]


def test_builtins_list_names_every_catalog_entry():
    assert sorted(name for name, _ in BUILTINS) == sorted(CATALOG)


@pytest.mark.parametrize("name,params", BUILTINS)
def test_scalar_builtins_reject_m_two(name, params):
    if name in ("zero", "constant_rho", "linear_bsde"):
        spec = builtin_generator(name, m=2, **params)
        f, g = evaluate(spec, 0.0, np.ones((3, 2)), np.ones((3, 2, 1)),
                        np.zeros((3, 0)))
        assert f.shape == (3, 2) and g.shape == (3, 2, 1)
    else:
        with pytest.raises(ShapeMismatch):
            builtin_generator(name, m=2, **params)


@pytest.mark.parametrize("name,params", BUILTINS)
def test_audit_passes_for_builtins(name, params):
    spec = builtin_generator(name, **params)
    report = audit_lipschitz(spec, samples=2000, seed=11)
    assert report.passed, str(report)


@pytest.mark.parametrize("name,params", BUILTINS)
def test_feasibility_load_below_one(name, params):
    spec = builtin_generator(name, **params)
    assert check_feasible(spec.lip, M=1.0) < 1.0


def test_audit_zero_generator_all_zero():
    report = audit_lipschitz(builtin_generator("zero"), samples=1500, seed=2)
    assert report.observed_c_f == 0.0 and report.observed_alpha1 == 0.0
    assert report.passed


def test_audit_example41_g_z_slope():
    report = audit_lipschitz(builtin_generator("example41_g"), samples=4000, seed=4)
    assert report.observed_alpha1 <= 1.0 / 3.0 + 1e-12
    assert report.observed_alpha1 > 0.30  # the bound is nearly attained
    assert report.passed


def test_audit_fails_for_mis_declared_constant():
    bad = with_lipschitz(builtin_generator("linear_bsde", a=1.0, rho=1.0), c=0.25)
    assert not audit_lipschitz(bad, samples=2000, seed=3).passed


def test_audit_rejects_tiny_sample_budget():
    with pytest.raises(ValueError):
        audit_lipschitz(builtin_generator("zero"), samples=10)


def test_check_feasible_raises():
    with pytest.raises(Infeasible):
        check_feasible(LipschitzData(c=1.0, alpha1=0.7, alpha2=0.4), M=1.0)


def test_check_feasible_rejects_a_nan_load():
    # a NaN load used to pass the >= 1 check and come back as the load
    with pytest.raises(Infeasible):
        check_feasible(LipschitzData(c=1.0, alpha1=0.2, alpha2=0.1), M=float("nan"))


def test_sqrt_of_the_square_is_not_the_magnitude_at_the_edges():
    z = np.array([1e-160, -3e-155, 1e200]).reshape(3, 1, 1)
    with np.errstate(over="ignore"):
        norm = _z_norm(z)
    assert norm[0] == pytest.approx(9.99994434e-161, rel=1e-9) and norm[0] != 1e-160
    assert norm[1] == pytest.approx(3.0e-155, rel=1e-9) and norm[1] != 3e-155
    assert norm[2] == math.inf  # the sweep then raises NonFinite


def test_custom_spec_construction():
    # a hand-rolled anticipated spec: f = e + 1 with phi(y') = y'
    spec = GeneratorSpec(
        name="custom", m=1, d=1, l=1,
        f=lambda t, y, z, e: e + 1.0,
        g=lambda t, y, z, e: np.zeros((y.shape[0], 1, 1)),
        lip=LipschitzData(c=1.0), phi=lambda ya, za: ya)
    f, _ = _eval_scalar(spec, 0.0, 0.0, 0.0, 2.5, 0.0)
    assert f == pytest.approx(3.5)


@pytest.mark.parametrize("d", [1, 2])
def test_q_total_is_read_off_phi(d):
    # every builtin's block has phi's width, and a solve on it accepts it
    grid = make_grid(1.0, 0.5, 1 / 8)
    delay = DelaySpec(constant_delay(0.5), constant_delay(0.5))
    rng = np.random.default_rng(3)
    for name in CATALOG:
        vectors = {"sigma": [0.0] * d, "sigma_bar": [0.0] * d} \
            if name == "duality_linear" else {}
        spec = builtin_generator(name, d=d, **vectors)
        y, z = rng.standard_normal((5, spec.m)), rng.standard_normal((5, spec.m, d))
        assert spec.eval_functionals(y, z).shape == (5, spec.q_total)
        make_scenario(grid, spec, constant_terminal(1.0), delay=delay)
    assert builtin_generator("duality_linear", d=d, sigma=[0.0] * d,
                             sigma_bar=[0.0] * d).q_total == 1 + d
    # a phi whose value is not a (P, q_total) block fails at construction
    for phi in (lambda ya, za: ya[:, 0], lambda ya, za: np.zeros((2, 1))):
        with pytest.raises(ShapeMismatch, match=r"phi\(0, 0\) on one path"):
            GeneratorSpec(name="custom", m=1, d=d, l=1,
                          f=lambda t, y, z, e: e[:, :1],
                          g=lambda t, y, z, e: np.zeros((y.shape[0], 1, 1)),
                          lip=LipschitzData(c=1.0), phi=phi)


def _spec_returning(f_shape, g_shape):
    return GeneratorSpec(name="shaped", m=1, d=1, l=1,
                         f=lambda t, y, z, e: np.zeros((y.shape[0],) + f_shape),
                         g=lambda t, y, z, e: np.zeros((y.shape[0],) + g_shape),
                         lip=LipschitzData(c=0.0))


@pytest.mark.parametrize("spec,z,e,match", [
    (_spec_returning((1,), (1, 1)), np.zeros((4, 1)), np.zeros((4, 0)), "z must be"),
    (_spec_returning((1,), (1, 1)), np.zeros((4, 1, 2)), np.zeros((4, 0)), "z must be"),
    (_spec_returning((1,), (1, 1)), np.zeros((4, 1, 1)), np.zeros((4, 2)), "e must be"),
    (_spec_returning((1,), (1, 1)), np.zeros((4, 1, 1)), np.zeros(4), "e must be"),
    (_spec_returning((), (1, 1)), np.zeros((4, 1, 1)), np.zeros((4, 0)), "f returned"),
    (_spec_returning((1,), (1,)), np.zeros((4, 1, 1)), np.zeros((4, 0)), "g returned"),
], ids=["z-ndim", "z-d", "e-width", "e-ndim", "f-shape", "g-shape"])
def test_evaluate_checks_argument_and_return_shapes(spec, z, e, match):
    with pytest.raises(ShapeMismatch, match=match):
        evaluate(spec, 0.0, np.zeros((4, 1)), z, e)
