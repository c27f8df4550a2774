"""Shared fixtures: parameter files, reference configurations, constructions."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from scipy.optimize import bisect

import glacier_dyn as gd
from glacier_dyn.model import nullcline_f, nullcline_g

PARAMS_DIR = Path(__file__).resolve().parent.parent / "params"

# Filled by test_acceptance.py; echoed after the run so the per-criterion
# verdict lines appear in the terminal output regardless of capture settings.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def load_physical(name: str) -> gd.PhysicalParams:
    raw = json.loads((PARAMS_DIR / name).read_text())
    return gd.PhysicalParams.from_dict(raw["physical"])


def load_model(name: str) -> gd.ModelParams:
    raw = json.loads((PARAMS_DIR / name).read_text())
    if "model" in raw:
        return gd.ModelParams.from_dict(raw["model"])
    model, _ = gd.nondimensionalize(gd.PhysicalParams.from_dict(raw["physical"]))
    return model


@pytest.fixture(scope="session")
def table1_physical() -> gd.PhysicalParams:
    return load_physical("table1.json")


@pytest.fixture(scope="session")
def table1_model(table1_physical) -> gd.ModelParams:
    model, _ = gd.nondimensionalize(table1_physical)
    return model


@pytest.fixture(scope="session")
def table1_scales(table1_physical) -> gd.Scales:
    _, scales = gd.nondimensionalize(table1_physical)
    return scales


@pytest.fixture(scope="session")
def fig2_model() -> gd.ModelParams:
    return load_model("fig2.json")


@pytest.fixture(scope="session")
def hopf_model() -> gd.ModelParams:
    return load_model("hopf_demo.json")


@pytest.fixture(scope="session")
def hopf_cp(hopf_model) -> gd.CriticalPoint:
    # warmest equilibrium of the demo configuration has g' > f' > 0
    points = gd.find_equilibria(hopf_model)
    cp = points[-1]
    assert cp.g1 > cp.f1 > 0
    return cp


def make_tangency(
    base: gd.ModelParams,
    theta_t: float,
    accum_steepness: float,
    center_lo: float,
    center_hi: float,
    limit_minus: float = 0.1,
    limit_plus: float = 0.5,
) -> gd.ModelParams:
    """Tune the accumulation center until g'(theta_t) = f'(theta_t), then
    shift beta so the nullclines also cross there. f is linear in beta and
    independent of the accumulation curve, so both corrections are exact."""

    def with_center(c: float) -> gd.ModelParams:
        return replace(
            base,
            accum=gd.SigmoidResponse(
                limit_minus=limit_minus,
                limit_plus=limit_plus,
                center=c,
                steepness=accum_steepness,
                family=gd.SigmoidFamily.TANH,
            )
        )

    f1_t = nullcline_f(base, theta_t, 1)
    c_star = bisect(
        lambda c: nullcline_g(with_center(c), theta_t, 1) - f1_t,
        center_lo,
        center_hi,
        xtol=1e-15,
    )
    tuned = with_center(c_star)
    gap = nullcline_g(tuned, theta_t, 0) - nullcline_f(tuned, theta_t, 0)
    return replace(tuned, beta=base.beta + base.gamma * base.alpha2 * gap)


@pytest.fixture(scope="session")
def tangency_setup(hopf_model):
    """A constructed exact nullcline tangency with f'' != g''."""
    params = make_tangency(hopf_model, 1.432, 0.05, 1.452, 1.482)
    cp = gd.critical_point_at(params, 1.432)
    mu0 = cp.xi_c / (params.alpha2 * params.gamma * cp.f1 * math.sqrt(cp.lambda_c))
    return params, cp, mu0
