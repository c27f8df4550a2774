"""Response-curve families: values, derivatives, and edge behaviour."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glacier_dyn as gd
from glacier_dyn.model import (
    LAMBDA_FLOOR,
    _response_slope,
    _snow_line,
    make_rates,
    response_eval,
    sigmoid_eval,
)

SMOOTH = (gd.SigmoidFamily.TANH, gd.SigmoidFamily.LOGISTIC, gd.SigmoidFamily.ERF)
ALL_FAMILIES = SMOOTH + (gd.SigmoidFamily.PIECEWISE_LINEAR,)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_sigmoid_is_odd_and_bounded(family):
    xs = np.linspace(-6.0, 6.0, 241)
    vals = sigmoid_eval(family, xs, 0)
    assert np.allclose(vals, -sigmoid_eval(family, -xs, 0), atol=1e-15)
    assert np.all(np.abs(vals) <= 1.0 + 1e-15)
    assert sigmoid_eval(family, 0.0, 0) == 0.0


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_sigmoid_saturates(family):
    assert sigmoid_eval(family, 40.0, 0) == pytest.approx(1.0, abs=1e-12)
    assert sigmoid_eval(family, -40.0, 0) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_sigmoid_monotone(family):
    xs = np.linspace(-5.0, 5.0, 501)
    vals = sigmoid_eval(family, xs, 0)
    assert np.all(np.diff(vals) >= 0.0)


def test_logistic_is_rescaled_tanh():
    xs = np.linspace(-4.0, 4.0, 101)
    for order in range(4):
        got = sigmoid_eval(gd.SigmoidFamily.LOGISTIC, xs, order)
        want = sigmoid_eval(gd.SigmoidFamily.TANH, xs / 2.0, order) / 2.0**order
        assert np.allclose(got, want, rtol=0, atol=1e-16)


def test_erf_value_matches_math_erf():
    for x in (-1.3, 0.0, 0.4, 2.2):
        assert sigmoid_eval(gd.SigmoidFamily.ERF, x, 0) == pytest.approx(
            math.erf(x), abs=1e-15
        )


@pytest.mark.parametrize("family", SMOOTH)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_sigmoid_derivatives_match_finite_differences(family, order):
    h = 1e-5
    xs = np.linspace(-2.5, 2.5, 41)
    lower = sigmoid_eval(family, xs - h, order - 1)
    upper = sigmoid_eval(family, xs + h, order - 1)
    fd = (upper - lower) / (2.0 * h)
    got = sigmoid_eval(family, xs, order)
    assert np.allclose(got, fd, rtol=1e-7, atol=1e-7)


def test_piecewise_linear_values_and_slopes():
    pwl = gd.SigmoidFamily.PIECEWISE_LINEAR
    assert sigmoid_eval(pwl, 0.25, 0) == 0.25
    assert sigmoid_eval(pwl, 3.0, 0) == 1.0
    assert sigmoid_eval(pwl, -3.0, 0) == -1.0
    assert sigmoid_eval(pwl, 0.5, 1) == 1.0
    assert sigmoid_eval(pwl, 1.5, 1) == 0.0
    assert sigmoid_eval(pwl, 0.5, 2) == 0.0
    assert sigmoid_eval(pwl, 0.5, 3) == 0.0


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("x", [1.0, -1.0])
def test_piecewise_linear_kink_raises(order, x):
    with pytest.raises(gd.NonDifferentiablePoint):
        sigmoid_eval(gd.SigmoidFamily.PIECEWISE_LINEAR, x, order)
    with pytest.raises(gd.NonDifferentiablePoint):
        sigmoid_eval(gd.SigmoidFamily.PIECEWISE_LINEAR, np.array([0.0, x]), order)


def test_sigmoid_eval_rejects_bad_order():
    with pytest.raises(ValueError):
        sigmoid_eval(gd.SigmoidFamily.TANH, 0.0, 4)
    with pytest.raises(ValueError):
        sigmoid_eval(gd.SigmoidFamily.TANH, 0.0, -1)


@given(
    x=st.floats(-30.0, 30.0),
    family=st.sampled_from(SMOOTH),
)
@settings(max_examples=200, deadline=None)
def test_sigmoid_slope_nonnegative_everywhere(family, x):
    assert sigmoid_eval(family, x, 1) >= 0.0


def test_response_midpoint_and_limits():
    curve = gd.SigmoidResponse(
        limit_minus=0.1, limit_plus=0.5, center=1.43, steepness=0.01
    )
    assert response_eval(curve, 1.43, 0) == pytest.approx(0.3, abs=1e-15)
    assert response_eval(curve, 5.0, 0) == pytest.approx(0.5, abs=1e-12)
    assert response_eval(curve, -5.0, 0) == pytest.approx(0.1, abs=1e-12)


def test_response_decreasing_curve():
    # ocean albedo: high when cold, low when warm
    curve = gd.SigmoidResponse(
        limit_minus=0.85, limit_plus=0.25, center=1.4, steepness=0.015
    )
    assert response_eval(curve, 1.0, 0) == pytest.approx(0.85, abs=1e-10)
    assert response_eval(curve, 2.0, 0) == pytest.approx(0.25, abs=1e-10)
    assert response_eval(curve, 1.4, 1) < 0.0


@pytest.mark.parametrize("family", SMOOTH)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_response_derivatives_match_finite_differences(family, order):
    curve = gd.SigmoidResponse(
        limit_minus=0.1, limit_plus=0.5, center=1.43, steepness=0.05, family=family
    )
    h = 5e-6
    for theta in (1.38, 1.43, 1.47):
        fd = (
            response_eval(curve, theta + h, order - 1)
            - response_eval(curve, theta - h, order - 1)
        ) / (2.0 * h)
        assert response_eval(curve, theta, order) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_response_rejects_nonpositive_steepness():
    with pytest.raises(gd.ConfigError):
        gd.SigmoidResponse(limit_minus=0.1, limit_plus=0.5, center=1.4, steepness=0.0)
    with pytest.raises(gd.ConfigError):
        gd.SigmoidResponse(limit_minus=0.1, limit_plus=0.5, center=1.4, steepness=-1.0)


@pytest.mark.parametrize("steepness", [1e-320, 1e-200, 1e-108, 1e103, 1e200, 1e300])
def test_response_rejects_steepness_with_unusable_cube(steepness):
    # response_eval divides by steepness**3, which under- or overflows here.
    with pytest.raises(gd.ConfigError, match="steepness"):
        gd.SigmoidResponse(limit_minus=0.1, limit_plus=0.5, center=1.4, steepness=steepness)


@pytest.mark.parametrize("steepness", [1e-100, 1e100])
def test_response_third_derivative_finite_at_extreme_steepness(steepness):
    curve = gd.SigmoidResponse(limit_minus=0.1, limit_plus=0.5, center=1.4, steepness=steepness)
    assert math.isfinite(response_eval(curve, 1.4 + steepness, 3))


def test_response_from_dict_round_trip():
    curve = gd.SigmoidResponse(
        limit_minus=0.1,
        limit_plus=0.5,
        center=1.43,
        steepness=0.0027,
        family=gd.SigmoidFamily.ERF,
    )
    data = {"family": "erf", "limit_minus": 0.1, "limit_plus": 0.5, "center": 1.43,
            "steepness": 0.0027}
    assert gd.SigmoidResponse.from_dict(data) == curve


def test_response_from_dict_rejects_bad_input():
    good = {
        "family": "tanh",
        "limit_minus": 0.1,
        "limit_plus": 0.5,
        "center": 1.4,
        "steepness": 0.01,
    }
    with pytest.raises(gd.ConfigError):
        gd.SigmoidResponse.from_dict({**good, "extra": 1.0})
    with pytest.raises(gd.ConfigError):
        gd.SigmoidResponse.from_dict({k: v for k, v in good.items() if k != "center"})
    with pytest.raises(gd.ConfigError):
        gd.SigmoidResponse.from_dict({**good, "family": "spline"})
    with pytest.raises(gd.ConfigError):
        gd.SigmoidResponse.from_dict([1, 2, 3])


def test_response_from_dict_family_case_insensitive():
    data = {
        "family": "TANH",
        "limit_minus": 0.1,
        "limit_plus": 0.5,
        "center": 1.4,
        "steepness": 0.01,
    }
    assert gd.SigmoidResponse.from_dict(data).family is gd.SigmoidFamily.TANH


def _bits(x: float) -> str:
    return float(x).hex()


@given(
    family=st.sampled_from(ALL_FAMILIES),
    limit_minus=st.floats(0.0, 1.0),
    limit_plus=st.floats(0.0, 1.0),
    center=st.floats(0.5, 2.0),
    steepness=st.floats(1e-3, 1.0),
    theta=st.floats(0.0, 3.0),
)
@example(gd.SigmoidFamily.PIECEWISE_LINEAR, 0.1, 0.5, 1.0, 0.5, 1.5)
@example(gd.SigmoidFamily.PIECEWISE_LINEAR, 0.85, 0.25, 1.0, 0.5, 0.5)
@settings(max_examples=400, deadline=None)
def test_folded_response_matches_response_eval_bit_for_bit(
    family, limit_minus, limit_plus, center, steepness, theta
):
    curve = gd.SigmoidResponse(limit_minus, limit_plus, center, steepness, family)
    value = response_eval(curve, theta, 0)
    if family is gd.SigmoidFamily.PIECEWISE_LINEAR and abs((theta - center) / steepness) == 1.0:
        with pytest.raises(gd.NonDifferentiablePoint):
            response_eval(curve, theta, 1)
        with pytest.raises(gd.NonDifferentiablePoint):
            _response_slope(curve, theta)
        return
    folded_value, slope = _response_slope(curve, theta)
    assert _bits(folded_value) == _bits(value)
    assert _bits(slope) == _bits(response_eval(curve, theta, 1))


def _field(params, mu, theta, lam, regime):
    """The field on response_eval, the second route for make_rates, written
    operation for operation as make_rates must evaluate it; dtheta/dtau
    takes lambda before the clamp."""
    dtheta = mu * (
        1.0
        + params.beta
        - params.gamma * (params.alpha1 + params.alpha2 * lam)
        - (1.0 - params.gamma) * response_eval(params.albedo, theta, 0)
        - theta
    )
    if regime is None:
        xi = response_eval(params.accum, theta, 0)
        return dtheta, math.sqrt(max(lam, 0.0)) * ((1.0 + xi) * (1.0 - 4.0 * lam) - 1.0)
    lam = max(lam, LAMBDA_FLOOR)
    if regime is gd.Regime.STAGNANT:
        return dtheta, -math.sqrt(lam)
    xi = response_eval(params.accum, theta, 0)
    if regime is gd.Regime.NUCLEATION:
        return dtheta, -(xi / (2.0 * math.sqrt(lam))) * params.epsilon
    return dtheta, math.sqrt(lam) * ((1.0 + xi) * _snow_line(lam, params.epsilon)[0] - 1.0)


_UNIT = st.floats(0.0, 1.0)
_CURVES = st.builds(gd.SigmoidResponse, _UNIT, _UNIT, st.floats(0.5, 2.0), st.floats(1e-3, 1.0),
                    st.sampled_from(ALL_FAMILIES))


@given(
    params=st.builds(gd.ModelParams, st.floats(0.1, 2.0), st.floats(0.05, 0.95),
                     st.floats(-1.0, 1.0), st.floats(0.01, 2.0), st.floats(-0.2, 0.2),
                     _CURVES, _CURVES),
    regime=st.sampled_from([None, *gd.Regime]),
    mu=st.floats(0.1, 1e3),
    theta=st.floats(0.0, 3.0),
    lam=st.one_of(
        st.floats(LAMBDA_FLOOR, 1.0),
        st.floats(0.0, LAMBDA_FLOOR, exclude_min=True, exclude_max=True),
        st.sampled_from([0.0, -0.0]),
        st.floats(-1.0, 0.0, exclude_max=True),
    ),
)
@settings(max_examples=400, deadline=None)
def test_make_rates_matches_the_field_bit_for_bit(params, regime, mu, theta, lam):
    got = make_rates(params, mu, regime)(theta, lam)
    assert [_bits(v) for v in got] == [_bits(v) for v in _field(params, mu, theta, lam, regime)]
