"""Finite-difference and brute-force oracles against the closed forms."""

from __future__ import annotations

import math

import numpy as np
import pytest

import glacier_dyn as gd
from glacier_dyn.model import response_eval
from glacier_dyn.oracle import (
    FdConfig,
    bisect_lambda_branches,
    draw_hopf_point,
    fd_jacobian,
    grid_max_lambda0,
    numeric_l1,
    run_verification,
)


def test_fd_config_validation():
    FdConfig()  # defaults valid
    FdConfig(base_step=1e-7, richardson_levels=1)
    FdConfig(base_step=1e-2, richardson_levels=4)
    with pytest.raises(ValueError):
        FdConfig(base_step=1e-8)
    with pytest.raises(ValueError):
        FdConfig(base_step=0.1)
    with pytest.raises(ValueError):
        FdConfig(richardson_levels=0)
    with pytest.raises(ValueError):
        FdConfig(richardson_levels=5)


def test_fd_jacobian_matches_closed_form_at_equilibria(hopf_model):
    for cp in gd.find_equilibria(hopf_model):
        s = gd.State(cp.theta_c, cp.lambda_c)
        fd = fd_jacobian(hopf_model, 1.3, s)
        exact = gd.jacobian(cp, 1.3)
        scale = max(abs(exact.a11), abs(exact.a12), abs(exact.a21), abs(exact.a22))
        for name in ("a11", "a12", "a21", "a22"):
            assert abs(getattr(fd, name) - getattr(exact, name)) <= 1e-7 * scale


def test_fd_jacobian_a12_linear_in_lambda(hopf_model):
    # F depends linearly on lambda, so the a12 entry is exact off-equilibrium
    fd = fd_jacobian(hopf_model, 2.2, gd.State(1.38, 0.09))
    assert fd.a12 == pytest.approx(
        -2.2 * hopf_model.alpha2 * hopf_model.gamma, abs=1e-10
    )


def test_fd_jacobian_a21_vanishes_at_quarter(hopf_model):
    # dG/dtheta carries the factor (1 - 4*lambda)
    fd = fd_jacobian(hopf_model, 1.0, gd.State(1.43, 0.25))
    assert abs(fd.a21) <= 1e-8


def test_fd_jacobian_domain_margin(hopf_model):
    with pytest.raises(gd.DomainError):
        fd_jacobian(hopf_model, 1.0, gd.State(1.4, 1e-5), FdConfig(base_step=1e-2))
    # The theta stencil reaches 1e-3 - 1.35e-3 < 0.
    with pytest.raises(gd.DomainError, match="theta"):
        fd_jacobian(hopf_model, 1.0, gd.State(1e-3, 0.25), FdConfig(base_step=1e-2))


def test_fd_second_order_convergence(hopf_model):
    # plain central differences (no Richardson): error drops ~4x per halving
    mu = 1.3
    for theta, lam in ((1.41, 0.05), (1.45, 0.10), (1.30, 0.03)):
        s = gd.State(theta, lam)
        a1p = response_eval(hopf_model.albedo, theta, 1)
        xi = response_eval(hopf_model.accum, theta, 0)
        x1 = response_eval(hopf_model.accum, theta, 1)
        exact = {
            "a11": mu * (-(1.0 - hopf_model.gamma) * a1p - 1.0),
            "a12": -mu * hopf_model.gamma * hopf_model.alpha2,
            "a21": math.sqrt(lam) * (1.0 - 4.0 * lam) * x1,
            "a22": ((1.0 + xi) * (1.0 - 4.0 * lam) - 1.0) / (2.0 * math.sqrt(lam))
            - 4.0 * math.sqrt(lam) * (1.0 + xi),
        }

        def worst_err(step):
            fd = fd_jacobian(hopf_model, mu, s, FdConfig(base_step=step, richardson_levels=1))
            return max(abs(getattr(fd, k) - v) for k, v in exact.items())

        coarse, fine = worst_err(2e-3), worst_err(1e-3)
        assert coarse / fine >= 3.9


def test_numeric_l1_agrees_with_closed_form(hopf_model, hopf_cp):
    closed = gd.lyapunov_l1(hopf_cp)
    numeric = numeric_l1(hopf_model, hopf_cp)
    assert numeric == pytest.approx(closed, rel=1e-4)


def test_numeric_l1_stable_under_step_halving(hopf_model, hopf_cp):
    a = numeric_l1(hopf_model, hopf_cp, FdConfig(base_step=1e-4))
    b = numeric_l1(hopf_model, hopf_cp, FdConfig(base_step=5e-5))
    assert a == pytest.approx(b, rel=1e-5)


def test_numeric_l1_sign_agreement_on_steep_draws():
    rng = np.random.default_rng(3)
    agreed = 0
    for _ in range(5):
        params, cp = draw_hopf_point(rng)
        closed = gd.lyapunov_l1(cp)
        numeric = numeric_l1(params, cp)
        assert math.copysign(1.0, closed) == math.copysign(1.0, numeric)
        agreed += 1
    assert agreed == 5


def test_numeric_l1_conditioning_error(hopf_model):
    # slopes nearly tangent: the (psi, kappa) chart degenerates
    cp = gd.CriticalPoint(
        theta_c=1.43,
        lambda_c=0.07,
        f1=1.0,
        f2=0.0,
        f3=0.0,
        g1=1.0 + 1e-8,
        g2=0.0,
        xi_c=0.4,
        xi1=1.0,
        xi2=0.0,
        xi3=0.0,
        alpha2=hopf_model.alpha2,
        gamma=hopf_model.gamma,
    )
    with pytest.raises(gd.ConditioningError):
        numeric_l1(hopf_model, cp)


def test_bisect_branches_reference():
    lam1, lam2 = bisect_lambda_branches(0.5, 0.02)
    closed = gd.lambda_branches(0.5, 0.02)
    assert abs(lam1 - closed.lambda1) <= 1e-10
    assert abs(lam2 - closed.lambda2) <= 1e-10


def test_bisect_branches_near_tangency():
    # eps just under the threshold 0.05: two roots close to the vertex
    lam1, lam2 = bisect_lambda_branches(0.5, 0.049)
    closed = gd.lambda_branches(0.5, 0.049)
    assert abs(lam1 - closed.lambda1) <= 1e-10
    assert abs(lam2 - closed.lambda2) <= 1e-10
    assert lam2 - lam1 < 0.06


def test_bisect_branches_boundary_root_at_eps_zero():
    lam1, lam2 = bisect_lambda_branches(0.5, 0.0)
    assert lam1 == 0.0
    assert lam2 == pytest.approx(0.12, abs=1e-10)


def test_bisect_branches_mismatch_outside_hypothesis():
    with pytest.raises(gd.OracleMismatch):
        bisect_lambda_branches(0.5, 0.06)


def test_grid_max_lambda0_examples():
    lam, value = grid_max_lambda0(0.1)
    assert lam == pytest.approx(0.07, abs=1e-8)
    assert value == pytest.approx(3.0 / 7.0, abs=1e-8)
    _, value = grid_max_lambda0(0.25)
    assert value == pytest.approx(0.0, abs=1e-8)
    lam, value = grid_max_lambda0(0.01)
    closed_lam, closed_val = gd.lambda0_max(0.01)
    assert lam == pytest.approx(closed_lam, abs=1e-8)
    assert value == pytest.approx(closed_val, abs=1e-8)


def test_grid_max_lambda0_domain():
    with pytest.raises(gd.DomainError):
        grid_max_lambda0(-0.2)


def test_run_verification_all_pass(hopf_model):
    report = run_verification(hopf_model, mu=1.0, seed=0, n_draws=20)
    assert report.all_passed
    assert len(report.checks) == 5
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))
