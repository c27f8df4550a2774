"""Jacobian, stability windows, Hopf data, and center-manifold verdicts."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import glacier_dyn as gd
from glacier_dyn.stability import is_tangent

from conftest import make_tangency


def _hand_cp(**overrides) -> gd.CriticalPoint:
    """A critical point with directly chosen derivative entries."""
    fields = dict(
        theta_c=1.0,
        lambda_c=0.25,
        f1=1.0,
        f2=0.0,
        f3=0.0,
        g1=2.0,
        g2=0.0,
        xi_c=0.5,
        xi1=0.0,
        xi2=0.0,
        xi3=0.0,
        alpha2=4.0,
        gamma=0.3,
    )
    fields.update(overrides)
    return gd.CriticalPoint(**fields)


# -------------------------------------------------------------------- jacobian


def test_jacobian_entries(hopf_cp, hopf_model):
    mu = 1.7
    jac = gd.jacobian(hopf_cp, mu)
    k = mu * hopf_model.alpha2 * hopf_model.gamma
    b = hopf_cp.xi_c / math.sqrt(hopf_cp.lambda_c)
    assert jac.a11 == pytest.approx(k * hopf_cp.f1, rel=1e-14)
    assert jac.a12 == pytest.approx(-k, rel=1e-14)
    assert jac.a21 == pytest.approx(b * hopf_cp.g1, rel=1e-14)
    assert jac.a22 == pytest.approx(-b, rel=1e-14)
    assert jac.trace == pytest.approx(jac.a11 + jac.a22, rel=1e-14)
    assert jac.det == pytest.approx(k * b * (hopf_cp.g1 - hopf_cp.f1), rel=1e-12)


def test_jacobian_validation(hopf_cp):
    with pytest.raises(gd.DomainError):
        gd.jacobian(hopf_cp, 0.0)
    with pytest.raises(gd.DomainError):
        gd.jacobian(_hand_cp(lambda_c=-0.1), 1.0)


def test_eigenvalues_exact_conjugates(hopf_cp):
    lam1, lam2 = gd.eigenvalues(hopf_cp, 2.0)
    assert lam1.real == lam2.real
    assert lam1.imag == -lam2.imag
    assert lam1.imag > 0
    jac = gd.jacobian(hopf_cp, 2.0)
    assert lam1 + lam2 == pytest.approx(jac.trace, rel=1e-12)
    assert (lam1 * lam2).real == pytest.approx(jac.det, rel=1e-12)


def test_eigenvalues_real_case():
    cp = _hand_cp(f1=-1.0, g1=0.5)
    lam1, lam2 = gd.eigenvalues(cp, 0.01)
    assert lam1.imag == 0.0 and lam2.imag == 0.0


# --------------------------------------------------------------- mu_thresholds


def test_mu_thresholds_hand_example():
    # b = xi/sqrt(lambda) = 1, f' = 1, g' = 2: mu0 = 1/(alpha2*gamma) and
    # omega0 = sqrt(g'/f' - 1) = 1
    th = gd.mu_thresholds(_hand_cp())
    assert th.mu0 == pytest.approx(0.8333333333333334, rel=1e-14)
    assert th.omega0 == pytest.approx(1.0, rel=1e-14)
    assert th.mu1 == pytest.approx(0.14297739604484144, rel=1e-12)
    assert th.mu2 == pytest.approx(4.8570226039551585, rel=1e-12)


def test_mu_thresholds_ordering(hopf_cp):
    th = gd.mu_thresholds(hopf_cp)
    assert 0.0 < th.mu1 < th.mu0 < th.mu2
    assert th.mu1 == pytest.approx(0.05872767671527322, rel=1e-10)
    assert th.mu0 == pytest.approx(2.613349739926736, rel=1e-10)
    assert th.mu2 == pytest.approx(116.29264505536185, rel=1e-10)
    assert th.omega0 == pytest.approx(5.051892105179545, rel=1e-10)


def test_discriminant_vanishes_at_mu1_mu2(hopf_cp):
    th = gd.mu_thresholds(hopf_cp)
    for mu in (th.mu1, th.mu2):
        jac = gd.jacobian(hopf_cp, mu)
        disc = jac.trace**2 - 4.0 * jac.det
        assert abs(disc) <= 1e-12 * max(1.0, abs(4.0 * jac.det))


def test_mu_thresholds_absent_cases():
    # saddle-side slopes: no focus window, no Hopf value
    th = gd.mu_thresholds(_hand_cp(f1=2.0, g1=1.0))
    assert th.mu1 is None and th.mu2 is None
    assert th.mu0 is None and th.omega0 is None
    # negative f': focus window exists, Hopf value does not
    th = gd.mu_thresholds(_hand_cp(f1=-1.0, g1=0.5))
    assert th.mu1 is not None and th.mu2 is not None
    assert th.mu0 is None


def test_mu_thresholds_degenerate_slope():
    with pytest.raises(gd.DegenerateSlope):
        gd.mu_thresholds(_hand_cp(f1=0.0))


def test_trace_zero_exactly_at_mu0(hopf_cp):
    th = gd.mu_thresholds(hopf_cp)
    lam1, lam2 = gd.eigenvalues(hopf_cp, th.mu0)
    assert abs(lam1.real) <= 1e-12 * abs(lam1.imag)
    assert abs(lam1.imag) == pytest.approx(th.omega0, rel=1e-12)


def test_transversality_matches_finite_difference(hopf_cp, hopf_model):
    th = gd.mu_thresholds(hopf_cp)
    h = 1e-6 * th.mu0
    re_plus = gd.eigenvalues(hopf_cp, th.mu0 + h)[0].real
    re_minus = gd.eigenvalues(hopf_cp, th.mu0 - h)[0].real
    fd = (re_plus - re_minus) / (2.0 * h)
    expected = 0.5 * hopf_model.alpha2 * hopf_model.gamma * hopf_cp.f1
    assert fd == pytest.approx(expected, rel=1e-6)


# -------------------------------------------------------------------- classify


def test_classify_ladder_hopf_admissible(hopf_cp):
    th = gd.mu_thresholds(hopf_cp)
    C = gd.Classification
    assert gd.classify(hopf_cp, 0.5 * th.mu1) is C.STABLE_NODE
    assert gd.classify(hopf_cp, th.mu1) is C.STABLE_NODE  # closed endpoint
    assert gd.classify(hopf_cp, 0.5 * (th.mu1 + th.mu0)) is C.STABLE_FOCUS
    assert gd.classify(hopf_cp, th.mu0) is C.HOPF_CENTER
    assert gd.classify(hopf_cp, th.mu0 * (1.0 + 5e-13)) is C.HOPF_CENTER
    assert gd.classify(hopf_cp, 2.0 * th.mu0) is C.UNSTABLE_FOCUS
    assert gd.classify(hopf_cp, th.mu2) is C.UNSTABLE_NODE  # closed endpoint
    assert gd.classify(hopf_cp, 2.0 * th.mu2) is C.UNSTABLE_NODE


def test_classify_saddle_for_all_mu(table1_model):
    points = gd.find_equilibria(table1_model)
    saddle = points[1]  # middle crossing: f' > 0, g' < f'
    assert saddle.f1 > 0 and saddle.g1 < saddle.f1
    for mu in (0.01, 1.0, 100.0, 1e5):
        assert gd.classify(saddle, mu) is gd.Classification.SADDLE
        jac = gd.jacobian(saddle, mu)
        assert jac.det < 0


def test_classify_negative_slope_windows():
    cp = _hand_cp(f1=-0.8, g1=0.3)
    th = gd.mu_thresholds(cp)
    assert 0 < th.mu1 < th.mu2 and th.mu0 is None
    C = gd.Classification
    assert gd.classify(cp, 0.5 * th.mu1) is C.STABLE_NODE
    assert gd.classify(cp, 0.5 * (th.mu1 + th.mu2)) is C.STABLE_FOCUS
    assert gd.classify(cp, 2.0 * th.mu2) is C.STABLE_NODE


def test_classify_saturated_slope_collapses_focus_window(table1_model):
    # the cold crossing sits on the saturated accumulation plateau: g' = 0
    # exactly, the discriminant zeros coincide, and the focus window is empty
    cold = gd.find_equilibria(table1_model)[0]
    assert cold.f1 < 0 and cold.g1 == 0.0
    th = gd.mu_thresholds(cold)
    assert th.mu1 == pytest.approx(th.mu2, rel=1e-12)
    for mu in (0.3 * th.mu1, th.mu1, 3.0 * th.mu1):
        assert gd.classify(cold, mu) is gd.Classification.STABLE_NODE


def test_classify_agrees_with_eigenvalues(hopf_cp):
    th = gd.mu_thresholds(hopf_cp)
    for mu in np.geomspace(0.2 * th.mu1, 5.0 * th.mu2, 40):
        kind = gd.classify(hopf_cp, float(mu))
        lam1, _ = gd.eigenvalues(hopf_cp, float(mu))
        if kind is gd.Classification.STABLE_NODE:
            assert lam1.real < 0 or abs(mu - th.mu1) < 1e-9
            assert lam1.imag == 0.0
        elif kind is gd.Classification.STABLE_FOCUS:
            assert lam1.real < 0 and lam1.imag != 0.0
        elif kind is gd.Classification.UNSTABLE_FOCUS:
            assert lam1.real > 0 and lam1.imag != 0.0
        elif kind is gd.Classification.UNSTABLE_NODE:
            assert lam1.real > 0 or abs(mu - th.mu2) < 1e-9
            assert lam1.imag == 0.0


def test_classify_tangency_short_circuits(tangency_setup):
    _, cp, mu0 = tangency_setup
    for mu in (0.3, 1.0, 3.0):
        assert gd.classify(cp, mu) is gd.Classification.NON_HYPERBOLIC_TANGENCY


def test_classify_rejects_nonpositive_mu(hopf_cp):
    with pytest.raises(gd.DomainError):
        gd.classify(hopf_cp, 0.0)


# ------------------------------------------------------------- Lyapunov / Hopf


def test_lyapunov_l1_frozen_value(hopf_cp):
    l1 = gd.lyapunov_l1(hopf_cp)
    assert l1 == pytest.approx(-1337.9489945722878, rel=1e-9)


def test_lyapunov_l1_independent_of_alpha2_gamma(hopf_cp):
    a = gd.hopf_analysis(replace(hopf_cp, alpha2=4.0, gamma=0.3)).l1
    b = gd.hopf_analysis(replace(hopf_cp, alpha2=2.0, gamma=0.45)).l1
    assert a == b == gd.lyapunov_l1(hopf_cp)


def test_hopf_analysis_summary(hopf_cp):
    data = gd.hopf_analysis(hopf_cp)
    assert data.mu0 == pytest.approx(2.613349739926736, rel=1e-10)
    assert data.omega0 == pytest.approx(5.051892105179545, rel=1e-10)
    assert data.l1 == pytest.approx(-1337.9489945722878, rel=1e-9)
    assert data.criticality is gd.Criticality.SUPERCRITICAL
    assert data.transversality == pytest.approx(0.29644904177098375, rel=1e-12)


def test_results_are_plain_floats(hopf_cp):
    th = gd.mu_thresholds(hopf_cp)
    hopf = gd.hopf_analysis(hopf_cp)
    values = [*vars(hopf_cp).values(), *vars(th).values(), hopf.mu0, hopf.omega0, hopf.l1,
              hopf.transversality]
    assert [type(v) for v in values] == [float] * len(values)


def test_hopf_analysis_rejects_inadmissible(table1_model):
    points = gd.find_equilibria(table1_model)
    for cp in points:  # none of the three satisfies g' > f' > 0
        with pytest.raises(gd.NotHopfCandidate):
            gd.hopf_analysis(cp)


def test_hopf_analysis_degenerate_with_loose_tolerance(hopf_cp):
    data = gd.hopf_analysis(hopf_cp, degeneracy_tol=1e6)
    assert data.criticality is gd.Criticality.DEGENERATE


# ------------------------------------------------------------- center manifold


def test_tangency_directions_are_eigenvectors(tangency_setup):
    _, cp, mu0 = tangency_setup
    mu = 0.5 * mu0
    p, q = gd.tangency_directions(cp, mu)
    jac = gd.jacobian(cp, mu)
    J = np.array([[jac.a11, jac.a12], [jac.a21, jac.a22]])
    # p spans the kernel, q the nonzero-eigenvalue direction
    assert np.allclose(J @ np.array(p), 0.0, atol=1e-9)
    Jq = J @ np.array(q)
    assert np.allclose(Jq, jac.trace * np.array(q), atol=1e-9)
    assert p[0] < 0  # published orientation: both components negative
    assert p[1] < 0


def test_center_manifold_requires_tangency(hopf_cp):
    with pytest.raises(gd.NotTangent):
        gd.center_manifold(hopf_cp, 1.0)


def test_center_manifold_unstable_above_mu0(tangency_setup):
    _, cp, mu0 = tangency_setup
    _, _, verdict = gd.center_manifold(cp, 2.0 * mu0)
    assert verdict is gd.CenterManifoldVerdict.UNSTABLE


def test_center_manifold_unstable_below_mu0_generic(tangency_setup):
    _, cp, mu0 = tangency_setup
    assert abs(cp.f2 - cp.g2) > 1.0  # generically distinct curvatures
    c2, quad, verdict = gd.center_manifold(cp, 0.5 * mu0)
    assert verdict is gd.CenterManifoldVerdict.UNSTABLE
    assert quad != 0.0
    assert math.isfinite(c2)


def test_center_manifold_inconclusive_on_symmetric_curves(hopf_model):
    # accumulation curve solved so that both g' and g'' match f at theta_t:
    # the quadratic term of the reduced flow then vanishes
    params = replace(
        hopf_model,
        accum=gd.SigmoidResponse(
            limit_minus=0.1,
            limit_plus=0.5,
            center=1.4202618506809122,
            steepness=0.007479403279984792,
        ),
        beta=0.7962095853956429,
    )
    cp = gd.critical_point_at(params, 1.432)
    assert is_tangent(cp)
    assert abs(cp.f2 - cp.g2) <= 1e-8
    mu0 = cp.xi_c / (
        params.alpha2 * params.gamma * cp.f1 * math.sqrt(cp.lambda_c)
    )
    _, quad, verdict = gd.center_manifold(cp, 0.5 * mu0)
    assert verdict is gd.CenterManifoldVerdict.INCONCLUSIVE
    assert abs(quad) <= 1e-6


def test_center_manifold_quad_sign_tracks_curvature_gap(tangency_setup, hopf_model):
    # f'' - g'' < 0 here gives quad > 0; the mirrored construction flips it
    _, cp, mu0 = tangency_setup
    _, quad, _ = gd.center_manifold(cp, 0.5 * mu0)
    assert (cp.f2 - cp.g2) < 0 and quad > 0
    other = make_tangency(hopf_model, 1.37, 0.03, 1.37, 1.40)
    cp2 = gd.critical_point_at(other, 1.37)
    assert cp2.f2 - cp2.g2 > 0
    mu0_2 = cp2.xi_c / (
        other.alpha2 * other.gamma * cp2.f1 * math.sqrt(cp2.lambda_c)
    )
    _, quad2, _ = gd.center_manifold(cp2, 0.5 * mu0_2)
    assert quad2 < 0
