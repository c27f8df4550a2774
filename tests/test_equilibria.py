"""Equilibrium location, counting, and the lambda-equation branch estimates."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glacier_dyn as gd
from glacier_dyn.model import nullcline_f, nullcline_g
from glacier_dyn.oracle import draw_branch_inputs, draw_model_params

from conftest import make_tangency


# ---------------------------------------------------------------- theta_extrema


def test_theta_extrema_table1(table1_model):
    ext = gd.theta_extrema(table1_model)
    assert ext is not None
    theta_m, theta_M = ext
    assert theta_m < theta_M
    # symmetric about the albedo center, within a tenth
    assert theta_m == pytest.approx(1.3700851929912934, rel=1e-10)
    assert theta_M == pytest.approx(1.4299148070087067, rel=1e-10)
    assert abs((theta_m + theta_M) / 2.0 - 1.4) < 0.1
    assert abs(nullcline_f(table1_model, theta_m, 1)) <= 1e-10
    assert abs(nullcline_f(table1_model, theta_M, 1)) <= 1e-10


def test_theta_extrema_none_for_shallow_albedo(table1_model):
    shallow = replace(
        table1_model,
        albedo=gd.SigmoidResponse(
            limit_minus=0.85, limit_plus=0.25, center=1.4, steepness=10.0
        )
    )
    assert gd.theta_extrema(shallow) is None


# --------------------------------------------------------------- find_equilibria


def test_find_equilibria_three_crossings(fig2_model):
    points = gd.find_equilibria(fig2_model)
    assert len(points) == 3
    thetas = [p.theta_c for p in points]
    assert thetas == sorted(thetas)
    for p in points:
        assert abs(nullcline_f(fig2_model, p.theta_c, 0) - p.lambda_c) <= 1e-12
        assert p.lambda_c == pytest.approx(nullcline_g(fig2_model, p.theta_c, 0))
        assert 0.0 < p.lambda_c < 0.25
        assert p.g1 >= 0.0


def test_find_equilibria_residuals(table1_model, hopf_model):
    for model in (table1_model, hopf_model):
        for p in gd.find_equilibria(model):
            residual = nullcline_f(model, p.theta_c, 0) - nullcline_g(
                model, p.theta_c, 0
            )
            assert abs(residual) <= 1e-12


def test_find_equilibria_grid_refinement_stable(hopf_model):
    coarse = gd.find_equilibria(hopf_model, grid_n=2000)
    fine = gd.find_equilibria(hopf_model, grid_n=4000)
    assert len(coarse) == len(fine)
    for a, b in zip(coarse, fine):
        assert abs(a.theta_c - b.theta_c) <= 1e-10


def test_find_equilibria_single_crossing(hopf_model):
    # accumulation saturating near its cap lifts g above f's interior
    # maximum, leaving only the cold descending-branch crossing
    lifted = replace(
        hopf_model,
        accum=gd.SigmoidResponse(
            limit_minus=0.9, limit_plus=1.0, center=1.43, steepness=0.0027
        )
    )
    points = gd.find_equilibria(lifted)
    assert len(points) == 1
    assert points[0].f1 < 0
    assert gd.count_classification(lifted) is gd.EquilibriumCount.ONE


def test_find_equilibria_validation(hopf_model):
    with pytest.raises(ValueError):
        gd.find_equilibria(hopf_model, theta_range=(2.0, 1.0))
    with pytest.raises(ValueError):
        gd.find_equilibria(hopf_model, theta_range=(-1.0, 1.0))
    with pytest.raises(ValueError):
        gd.find_equilibria(hopf_model, grid_n=50)


@pytest.mark.parametrize("override", [{"beta": 1e200}, {"alpha1": -1e300}])
def test_scan_of_an_overflowing_h_warns_nothing(hopf_model, override):
    # h = f - g near 1e200 or beyond: the scan compares signs, so nothing
    # squares it.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert gd.find_equilibria(replace(hopf_model, **override)) == []


def test_find_equilibria_reports_tangency(hopf_model):
    params = make_tangency(hopf_model, 1.432, 0.05, 1.452, 1.482)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = gd.find_equilibria(params, theta_range=(1.4319, 1.4321), grid_n=2000)
    tangency_warnings = [
        w for w in caught if issubclass(w.category, gd.TangencyWarning)
    ]
    assert len(tangency_warnings) == 1
    assert len(points) == 1
    assert points[0].theta_c == pytest.approx(1.432, abs=1e-12)


@pytest.mark.parametrize(
    "quiet_points, expected",
    [
        (range(10, 13), 0),  # a run of 2 quiet cells
        (range(10, 14), 1),  # a run of 3
        ([*range(10, 14), *range(50, 56)], 2),  # two runs
        (range(97, 101), 1),  # a run that reaches the grid's end
    ],
)
def test_tangency_runs_on_a_synthetic_grid(monkeypatch, hopf_model, quiet_points, expected):
    # h = f - g is 1 everywhere except 1e-12 at the given grid indices of
    # theta = 1, 1.01, ..., 2: no zeros and no sign changes, only quiet cells.
    quiet = np.array(list(quiet_points))

    def fake_f(params, theta, order=0):
        idx = np.rint((np.asarray(theta) - 1.0) / 0.01).astype(int)
        h = np.where(np.isin(idx, quiet), 1e-12, 1.0)
        value = 0.1 + h if order == 0 else 0.0 * h
        return float(value) if np.ndim(theta) == 0 else value

    def fake_g(params, theta, order=0):
        return (0.1 if order == 0 else 0.0) + 0.0 * np.asarray(theta)

    monkeypatch.setattr(gd.equilibria, "nullcline_f", fake_f)
    monkeypatch.setattr(gd.equilibria, "nullcline_g", fake_g)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = gd.find_equilibria(hopf_model, theta_range=(1.0, 2.0), grid_n=100)
    assert len([w for w in caught if issubclass(w.category, gd.TangencyWarning)]) == expected
    assert len(points) == expected


def test_critical_point_at_caches_consistent_values(hopf_cp, hopf_model):
    assert hopf_cp.lambda_c == pytest.approx(
        nullcline_g(hopf_model, hopf_cp.theta_c, 0), rel=1e-14
    )
    assert hopf_cp.xi_c == pytest.approx(
        gd.response_eval(hopf_model.accum, hopf_cp.theta_c, 0), rel=1e-14
    )
    # lambda_c = xi/(4(1+xi)) on the ice nullcline
    assert hopf_cp.lambda_c == pytest.approx(
        hopf_cp.xi_c / (4.0 * (1.0 + hopf_cp.xi_c)), rel=1e-12
    )


# ---------------------------------------------------------- count_classification


def test_count_fig2_at_least_three(fig2_model):
    assert gd.count_classification(fig2_model) is gd.EquilibriumCount.AT_LEAST_THREE
    assert len(gd.find_equilibria(fig2_model)) == 3


def test_count_degenerate_when_no_extrema(table1_model):
    shallow = replace(
        table1_model,
        albedo=gd.SigmoidResponse(
            limit_minus=0.85, limit_plus=0.25, center=1.4, steepness=10.0
        )
    )
    assert gd.count_classification(shallow) is gd.EquilibriumCount.DEGENERATE
    # monotone f against monotone bounded g: exactly one crossing
    assert len(gd.find_equilibria(shallow)) == 1


def test_count_five_construction(hopf_model):
    # steep accumulation jump placed inside the albedo transition, with beta
    # tuned so f dips under g's lower saturation and back over the upper one
    five = replace(
        hopf_model,
        accum=gd.SigmoidResponse(
            limit_minus=0.05, limit_plus=0.7, center=1.385, steepness=0.003
        ),
        albedo=gd.SigmoidResponse(
            limit_minus=0.85, limit_plus=0.25, center=1.4, steepness=0.02
        ),
        beta=1.032353019166483,
    )
    assert gd.count_classification(five) is gd.EquilibriumCount.FIVE
    assert len(gd.find_equilibria(five)) == 5


def test_count_agrees_with_cardinality():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(60):
        params = draw_model_params(rng)
        count = gd.count_classification(params)
        if count is gd.EquilibriumCount.DEGENERATE:
            continue
        n = len(gd.find_equilibria(params))
        if count is gd.EquilibriumCount.ONE:
            assert n == 1
        elif count is gd.EquilibriumCount.AT_LEAST_THREE:
            assert n >= 3
        else:
            assert n == 5
        checked += 1
    assert checked >= 20


# -------------------------------------------------------------- lambda branches


def test_lambda_branches_reference():
    bp = gd.lambda_branches(0.5, 0.02)
    assert bp.zeta == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert bp.lambda1 == pytest.approx(0.0015241998455109988, rel=1e-12)
    assert bp.lambda2 == pytest.approx(0.09447580015448903, rel=1e-12)
    assert bp.bounds1[0] <= bp.lambda1 <= bp.bounds1[1]
    assert bp.bounds2[0] <= bp.lambda2 <= bp.bounds2[1]
    assert bp.bounds1 == pytest.approx((0.0012, 0.0048), rel=1e-12)
    assert bp.bounds2 == pytest.approx((0.084, 0.096), rel=1e-12)


def test_lambda_branches_fixed_point_identity():
    # both branches satisfy (1 + xi) * lambda0(lambda) = 1
    for xi, eps in ((0.5, 0.02), (0.3, 0.01), (0.8, -0.05), (0.2, 0.015)):
        bp = gd.lambda_branches(xi, eps)
        zeta = 1.0 / (1.0 + xi)
        for lam in (bp.lambda1, bp.lambda2):
            if lam > 0:
                assert gd.lambda0(lam, eps) == pytest.approx(zeta, abs=1e-9)


def test_lambda_branches_eps_zero_degenerates():
    bp = gd.lambda_branches(0.5, 0.0)
    assert bp.lambda1 == 0.0
    assert bp.lambda2 == pytest.approx(0.12, rel=1e-12)
    assert bp.bounds1 == (0.0, 0.0)
    assert bp.bounds2[0] == pytest.approx(bp.bounds2[1], rel=1e-12)


def test_lambda_branches_negative_eps_bounds():
    xi, eps = 0.5, -0.05
    bp = gd.lambda_branches(xi, eps)
    lo = (1 + 1 / xi) * eps**2 + 2 * (1 + 1 / xi) * (1 + 2 / xi) * eps**3
    hi = (1 + 1 / xi) * eps**2
    assert bp.bounds1 == pytest.approx((lo, hi), rel=1e-12)
    assert lo <= bp.lambda1 <= hi


def test_lambda_branches_hypothesis_violations():
    with pytest.raises(gd.NoBranches) as err:
        gd.lambda_branches(0.5, 0.05)  # equality with the threshold excluded
    assert err.value.eps_threshold == pytest.approx(0.05, rel=1e-12)
    with pytest.raises(gd.NoBranches):
        gd.lambda_branches(0.5, 0.06)
    with pytest.raises(gd.NoBranches):
        gd.lambda_branches(0.5, -2.6)  # below -(2+xi)/(2 xi) = -2.5
    with pytest.raises(gd.DomainError):
        gd.lambda_branches(0.0, 0.01)
    with pytest.raises(gd.DomainError):
        gd.lambda_branches(-0.5, 0.01)


def test_branch_bounds_containment_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        xi, eps = draw_branch_inputs(rng)
        bp = gd.lambda_branches(xi, eps)
        assert 0.0 <= bp.lambda1 < bp.lambda2
        assert bp.bounds1[0] - 1e-15 <= bp.lambda1 <= bp.bounds1[1] + 1e-15
        assert bp.bounds2[0] - 1e-15 <= bp.lambda2 <= bp.bounds2[1] + 1e-15


def test_branch_upper_scale_bounded():
    # Lambda = xi(1+xi)/(2+xi)^2 stays below 2/9 on xi in [0, 1]
    xis = np.linspace(1e-6, 1.0, 500)
    Lam = xis * (1.0 + xis) / (2.0 + xis) ** 2
    assert np.all(Lam <= 2.0 / 9.0 + 1e-15)
    assert Lam[-1] == pytest.approx(2.0 / 9.0, rel=1e-12)


@given(st.floats(0.05, 1.0), st.floats(0.001, 0.99))
@settings(max_examples=150, deadline=None)
def test_branch_ordering_property(xi, frac):
    eps = frac * 0.25 * xi / (2.0 + xi)
    bp = gd.lambda_branches(xi, eps)
    assert 0.0 < bp.lambda1 < bp.lambda2
    assert bp.lambda2 < 0.25


# ----------------------------------------------------------------- lambda0 max


def test_lambda0_max_reference_values():
    lam, value = gd.lambda0_max(0.1)
    assert lam == pytest.approx(0.07, rel=1e-12)
    assert value == pytest.approx(3.0 / 7.0, rel=1e-12)
    lam, value = gd.lambda0_max(0.0)
    assert lam == 0.0
    assert value == 1.0
    lam, value = gd.lambda0_max(-0.05)
    assert lam == pytest.approx(0.025, rel=1e-12)
    assert value == 1.0
    lam, value = gd.lambda0_max(0.25)
    assert lam == pytest.approx(0.25, rel=1e-12)
    assert value == pytest.approx(0.0, abs=1e-15)


def test_lambda0_max_dominates_grid():
    for eps in (0.02, 0.1, 0.2, -0.04):
        lam_max, value = gd.lambda0_max(eps)
        start = max(1e-6, -eps / 2.0)
        for lam in np.linspace(start + 1e-9, 1.0, 400):
            assert gd.lambda0(float(lam), eps) <= value + 1e-12
        if lam_max > 0:
            assert gd.lambda0(lam_max, eps) == pytest.approx(value, rel=1e-12)
