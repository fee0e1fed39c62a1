import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from abdsde.delays import (affine_delay, constant_delay, DelaySpec,
                           segment_interval, to_grid_offsets, validate_delay)
from abdsde.errors import A1Violation, NonPositiveDelay, NonTermination
from abdsde.grids import make_grid


def _spec(delta, zeta=None):
    return DelaySpec(delta=delta, zeta=zeta or delta)


def test_validate_constant_delay():
    grid = make_grid(1.0, 0.4, 0.05)
    spec = validate_delay(_spec(constant_delay(0.4)), grid)
    assert spec.M == 1.0


def test_validate_affine_delay_substitution_bound():
    # u = 1.5 s + 0.5 compresses the integral by 2/3, so M = 1 certifies it
    grid = make_grid(1.0, 1.0, 0.25)
    spec = validate_delay(_spec(affine_delay(0.5, 0.5)), grid)
    assert spec.M == 1.0
    fine = np.linspace(0.0, 1.0, 2001)
    for g in (lambda u: u, lambda u: u ** 2):
        lhs = np.trapezoid(g(1.5 * fine + 0.5), fine)
        full = np.linspace(0.0, 2.0, 2001)
        assert lhs <= spec.M * np.trapezoid(g(full), full) + 1e-9


def test_horizon_violation():
    grid = make_grid(1.0, 0.3, 0.05)
    with pytest.raises(A1Violation):
        validate_delay(_spec(constant_delay(0.4)), grid)


def test_offsets_check_the_spec_against_their_own_grid():
    # the spec carries no K: it fits any grid whose K it respects, and is
    # checked again on a shorter horizon
    spec = validate_delay(_spec(constant_delay(0.4)), make_grid(1.0, 0.4, 0.05))
    assert to_grid_offsets(spec, make_grid(1.0, 0.5, 0.05)).max_snap_error < 1e-12
    with pytest.raises(A1Violation):
        to_grid_offsets(spec, make_grid(1.0, 0.3, 0.05))
    with pytest.raises(A1Violation):
        segment_interval(spec, make_grid(1.0, 0.3, 0.05))


def test_substitution_bound_comes_from_the_forms():
    # u = 0.5 s + 1 stretches the integral by 2, unvalidated or not
    assert _spec(affine_delay(1.0, -0.5)).M == 2.0
    assert _spec(constant_delay(0.4), affine_delay(1.0, -0.5)).M == 2.0
    assert _spec(constant_delay(0.4)).M == 1.0
    for b in (-1.0, -1.5):  # t + delay(t) must increase
        with pytest.raises(A1Violation):
            affine_delay(1.0, b)


def test_non_positive_delay():
    grid = make_grid(1.0, 0.5, 0.25)
    with pytest.raises(NonPositiveDelay):
        validate_delay(_spec(affine_delay(0.0, 0.5)), grid)


def test_a_nan_delay_is_not_positive():
    # NaN <= 0 is False: a NaN delta loaded as a one-step anticipation
    grid = make_grid(1.0, 0.5, 0.125)
    with pytest.raises(NonPositiveDelay, match="delta is not strictly positive"):
        validate_delay(DelaySpec(constant_delay(float("nan")), constant_delay(0.5)),
                       grid)


def test_offsets_constant_delay():
    grid = make_grid(1.0, 0.5, 0.25)
    spec = validate_delay(_spec(constant_delay(0.5)), grid)
    off = to_grid_offsets(spec, grid)
    assert np.all(off.d_delta == 2) and np.all(off.d_zeta == 2)
    assert off.max_snap_error == 0.0


def test_offsets_snapping():
    grid = make_grid(1.0, 0.5, 0.25)
    spec = validate_delay(_spec(constant_delay(0.3)), grid)
    off = to_grid_offsets(spec, grid)
    assert np.all(off.d_delta == 1)
    assert np.allclose(off.snap_error, 0.05)


def test_offsets_affine():
    grid = make_grid(1.0, 1.0, 0.25)
    spec = validate_delay(_spec(affine_delay(0.5, 0.5)), grid)
    off = to_grid_offsets(spec, grid)
    k = grid.index_of(0.5)
    # t + delay(t) = 1.25 at t = 0.5, three steps ahead
    assert off.d_delta[k] == 3
    assert np.all(off.d_delta >= 1)


def test_segmentation_constant_example():
    grid = make_grid(1.0, 0.4, 0.05)
    spec = validate_delay(_spec(constant_delay(0.4)), grid)
    seg = segment_interval(spec, grid)
    assert seg.N == 3
    assert np.allclose(seg.points, (1.0, 0.6, 0.2, 0.0))


def test_segmentation_affine_example():
    grid = make_grid(1.0, 1.0, 1.0 / 64)
    spec = validate_delay(_spec(affine_delay(0.5, 0.5)), grid)
    seg = segment_interval(spec, grid)
    # 1.5 s + 0.5 >= 1 exactly from s = 1/3; the grid scan lands within h
    assert seg.N == 2
    assert abs(seg.points[1] - 1.0 / 3.0) <= grid.h
    assert seg.points[2] == 0.0


def test_segmentation_whole_interval():
    grid = make_grid(1.0, 1.0, 0.25)
    spec = validate_delay(_spec(constant_delay(1.0)), grid)
    seg = segment_interval(spec, grid)
    assert seg.N == 1 and seg.points == (1.0, 0.0)


@settings(max_examples=30, deadline=None)
@given(steps=st.integers(min_value=1, max_value=8))
def test_segmentation_constant_closed_form(steps):
    # constant delay delta0 = steps * h: t_i = max(T - i delta0, 0)
    h = 0.125
    grid = make_grid(2.0, steps * h, h)
    delta0 = steps * h
    spec = validate_delay(_spec(constant_delay(delta0)), grid)
    seg = segment_interval(spec, grid)
    expected = []
    t = 2.0
    while t > 0:
        expected.append(t)
        t = max(t - delta0, 0.0)
    expected.append(0.0)
    assert seg.N == int(np.ceil(2.0 / delta0))
    assert np.allclose(seg.points, expected, atol=1e-12)


def test_segmentation_defining_property_on_grid():
    grid = make_grid(1.0, 1.0, 1.0 / 32)
    spec = validate_delay(_spec(affine_delay(0.25, 0.75)), grid)
    seg = segment_interval(spec, grid)
    pts = seg.points
    for i in range(1, len(pts)):
        lo, hi = pts[i], pts[i - 1]
        s = grid.times[(grid.times >= lo - 1e-12) & (grid.times <= grid.T + 1e-12)]
        reach = np.minimum(s + spec.delta(s), s + spec.zeta(s))
        assert np.all(reach >= hi - grid.h / 2 - 1e-12)


def _brute_force_segmentation(delta_fn, zeta_fn, grid):
    # independent route: literal nested scan of the defining minimum
    times = [float(t) for t in grid.times[: grid.n_T + 1]]
    T = grid.T
    points = [T]
    while points[-1] > 0.0:
        prev = points[-1]
        found = None
        for t in times:
            ok = True
            for s in times:
                if s < t - 1e-12:
                    continue
                if min(s + delta_fn(s), s + zeta_fn(s)) < prev - 1e-12:
                    ok = False
                    break
            if ok:
                found = t
                break
        assert found is not None
        points.append(found)
    return tuple(points)


@pytest.mark.parametrize("delta", [constant_delay(0.4), constant_delay(0.25),
                                   affine_delay(0.5, 0.5), affine_delay(0.25, 0.75)])
def test_segmentation_matches_brute_force_scan(delta):
    grid = make_grid(1.0, 1.0, 1.0 / 32)
    spec = validate_delay(_spec(delta), grid)
    seg = segment_interval(spec, grid)
    brute = _brute_force_segmentation(spec.delta, spec.zeta, grid)
    assert np.allclose(seg.points, brute, atol=1e-12)


def test_segmentation_subgrid_delay_guard():
    grid = make_grid(1.0, 0.125, 0.125)
    spec = DelaySpec(delta=constant_delay(0.01), zeta=constant_delay(0.01))
    with pytest.raises(NonTermination):
        segment_interval(spec, grid)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.01, 0.05, 0.1, 0.25]), st.integers(1, 64),
       st.integers(1, 32), st.floats(-1.0, 2.0, exclude_min=True),
       st.floats(0.0, 1.0, exclude_min=True))
def test_substitution_bound_holds_by_quadrature(h, n_T, n_K, b, share):
    # M = max(1, 1/(1+b)) is derived, not checked at run time: trapezoid sums
    # of three nonnegative g confirm int_0^T g(s + delay(s)) ds <= M int_0^{T+K} g
    # on every form the validator accepts (a between its two bounds)
    grid = make_grid(n_T * h, n_K * h, h)
    low, high = max(0.0, -b * grid.T), grid.K - b * grid.T
    form = affine_delay(low + share * (high - low), b)
    try:
        validate_delay(_spec(form), grid)
    except (A1Violation, NonPositiveDelay):
        assume(False)
    M = form.substitution_bound()
    fine = np.linspace(0.0, grid.T, 513)
    full = np.linspace(0.0, grid.T + grid.K, 513)
    for g in (lambda u: np.ones_like(u), lambda u: u, lambda u: u ** 2):
        lhs = np.trapezoid(g(fine + form(fine)), fine)
        rhs = M * np.trapezoid(g(full), full)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)
