"""Parameter records, scalings, snow-line geometry, vector fields, nullclines."""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
import json
import math
import re
import sys
import types
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect as scipy_bisect

import glacier_dyn as gd
from glacier_dyn.model import bisect, nullcline_f, nullcline_g

from conftest import PARAMS_DIR


def test_physical_params_validation(table1_physical):
    good = table1_physical
    with pytest.raises(gd.ConfigError):
        gd.PhysicalParams(**{**_as_kwargs(good), "Q": -1.0})
    with pytest.raises(gd.ConfigError):
        gd.PhysicalParams(**{**_as_kwargs(good), "gamma": 1.5})
    with pytest.raises(gd.ConfigError):
        gd.PhysicalParams(**{**_as_kwargs(good), "A": 10.0})
    with pytest.raises(gd.ConfigError):
        gd.PhysicalParams(**{**_as_kwargs(good), "s": 0.0})
    with pytest.raises(gd.ConfigError):
        gd.PhysicalParams(**{**_as_kwargs(good), "alpha2": -4.0})


def _as_kwargs(p: gd.PhysicalParams) -> dict:
    from dataclasses import fields

    return {f.name: getattr(p, f.name) for f in fields(p)}


def test_physical_params_frozen(table1_physical):
    with pytest.raises(FrozenInstanceError):
        table1_physical.Q = 1000.0


def test_physical_from_dict_strict(table1_physical):
    data = {
        k: ({**vars(v), "family": v.family.value} if isinstance(v, gd.SigmoidResponse) else v)
        for k, v in _as_kwargs(table1_physical).items()
    }
    assert gd.PhysicalParams.from_dict(data) == table1_physical
    for unknown in ("bogus", "a_rate"):
        with pytest.raises(gd.ConfigError, match="unknown keys"):
            gd.PhysicalParams.from_dict({**data, unknown: 1.0})
    missing = {k: v for k, v in data.items() if k != "tau0"}
    with pytest.raises(gd.ConfigError):
        gd.PhysicalParams.from_dict(missing)
    # grav is optional and defaults to 9.81
    no_grav = {k: v for k, v in data.items() if k != "grav"}
    assert gd.PhysicalParams.from_dict(no_grav).grav == 9.81


def _raw_block(name: str, block: str, path=(), value=None) -> dict:
    """A block of a parameter file, with `value` put at `path` if one is given."""
    data = json.loads((PARAMS_DIR / name).read_text())[block]
    if path:
        node = data
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
    return data


# (record, file, block, path within the block) for a physical key, a model
# key and a curve key.
_NUMBER_KEYS = [
    (gd.PhysicalParams, "table1.json", "physical", ("gamma",)),
    (gd.ModelParams, "hopf_demo.json", "model", ("beta",)),
    (gd.ModelParams, "hopf_demo.json", "model", ("accum", "steepness")),
]


@pytest.mark.parametrize("value", [None, True, [0.3], "abc"])
@pytest.mark.parametrize("record, name, block, path", _NUMBER_KEYS)
def test_from_dict_rejects_non_number(record, name, block, path, value):
    key = ".".join((block, *path))
    with pytest.raises(gd.ConfigError, match=f"^{re.escape(key)} must be a number"):
        record.from_dict(_raw_block(name, block, path, value))


@pytest.mark.parametrize("record, name, block, path", _NUMBER_KEYS)
def test_from_dict_accepts_numeric_string(record, name, block, path):
    good = record.from_dict(_raw_block(name, block))
    value = repr(functools.reduce(getattr, path, good))
    assert record.from_dict(_raw_block(name, block, path, value)) == good


@pytest.mark.parametrize("record, block", [(gd.PhysicalParams, "physical"),
                                           (gd.ModelParams, "model"),
                                           (gd.SigmoidResponse, "curve")])
@pytest.mark.parametrize("data", [3, [0.3], None, "abc"])
def test_from_dict_rejects_non_object_block(record, block, data):
    with pytest.raises(gd.ConfigError, match=f"^{block}: expected an object"):
        record.from_dict(data)


def test_model_params_validation(hopf_model):
    with pytest.raises(gd.ConfigError):
        replace(hopf_model, beta=0.0)
    with pytest.raises(gd.ConfigError):
        replace(hopf_model, gamma=1.0)
    with pytest.raises(gd.ConfigError):
        replace(
            hopf_model,
            albedo=gd.SigmoidResponse(
                limit_minus=1.2, limit_plus=0.2, center=1.4, steepness=0.02
            )
        )


_MODEL_FLOATS = ("beta", "gamma", "alpha1", "alpha2", "epsilon")
_CURVE_FLOATS = ("limit_minus", "limit_plus", "center", "steepness")
_PHYSICAL_FLOATS = ("Q", "gamma", "A", "B", "tau0", "rho_i", "s", "h0", "c",
                    "m_rate", "alpha1", "alpha2", "grav")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", _MODEL_FLOATS)
def test_model_params_reject_non_finite(hopf_model, name, value):
    with pytest.raises(gd.ConfigError, match=f"{name} must be finite"):
        replace(hopf_model, **{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", _CURVE_FLOATS)
def test_sigmoid_response_rejects_non_finite(hopf_model, name, value):
    curve = {**vars(hopf_model.accum), "family": "tanh", name: value}
    with pytest.raises(gd.ConfigError, match=f"{name} must be finite"):
        gd.SigmoidResponse.from_dict(curve)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", _PHYSICAL_FLOATS)
def test_physical_params_reject_non_finite(table1_physical, name, value):
    with pytest.raises(gd.ConfigError, match=f"{name} must be finite"):
        gd.PhysicalParams(**{**_as_kwargs(table1_physical), name: value})


def test_state_validation():
    with pytest.raises(gd.DomainError):
        gd.State(theta=0.0, lam=0.1)
    with pytest.raises(gd.DomainError):
        gd.State(theta=1.0, lam=0.0)
    with pytest.raises(gd.DomainError):
        gd.State(theta=1.0, lam=-0.1)
    # lambda above 1/4 is legal: the full model reaches it
    gd.State(theta=1.0, lam=0.3)


@pytest.mark.parametrize("theta, lam", [(math.inf, 0.1), (math.nan, 0.1),
                                        (1.0, math.inf), (1.0, math.nan)])
def test_state_rejects_non_finite(theta, lam):
    with pytest.raises(gd.DomainError, match="finite"):
        gd.State(theta=theta, lam=lam)


def test_sheet_height_scale_example():
    h = gd.sheet_height_scale(30000.0, 920.0, 9.81)
    assert h == pytest.approx(math.sqrt(4.0 * 30000.0 / (3.0 * 920.0 * 9.81)), rel=1e-15)
    assert h == pytest.approx(2.1052398312668363, rel=1e-12)


def test_scales_from_table1(table1_scales, table1_model):
    assert table1_scales.T_star == pytest.approx(195.54597701149424, rel=1e-12)
    assert table1_scales.L_star == pytest.approx(27700217.169702612, rel=1e-12)
    assert table1_scales.t_star == pytest.approx(33373.75562614772, rel=1e-12)
    assert table1_scales.mu == pytest.approx(183256.03971530317, rel=1e-12)
    assert table1_model.epsilon == pytest.approx(0.1083024, rel=1e-6)
    assert table1_model.beta == pytest.approx(0.7875385745775165, rel=1e-12)


def test_scales_reject_nonpositive():
    with pytest.raises(gd.ScaleError) as err:
        gd.Scales(T_star=-1.0, L_star=1.0, t_star=1.0, mu=1.0)
    assert err.value.symbol == "T_star"


def test_mu_equals_tstar_times_relaxation_rate(table1_physical, table1_scales):
    # mu = t*(in seconds) * B/c: the ratio of ice to temperature time scales
    t_star_seconds = table1_scales.t_star * gd.model.SECONDS_PER_YEAR
    expected = t_star_seconds * table1_physical.B / table1_physical.c
    assert table1_scales.mu == pytest.approx(expected, rel=1e-12)


def test_lambda0_reference_values():
    # eps = 0: lambda0 = (1/lam) * (sqrt(2*lam + 1/4) - lam - 1/2)
    lam = 0.1
    expected = (math.sqrt(2 * lam + 0.25) - lam - 0.5) / lam
    assert gd.lambda0(lam, 0.0) == pytest.approx(expected, rel=1e-14)
    # boundary identity: at lam = -eps/2 the snow line sits exactly at 1
    assert gd.lambda0(0.05, -0.1) == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(gd.DomainError):
        gd.lambda0(0.0, 0.0)
    with pytest.raises(gd.ComplexSnowline):
        gd.lambda0(0.01, -0.3)


def test_lambda0_exact_at_nucleation_threshold():
    # At lambda = -eps/2 the snow line sits at 1. At this Hypothesis draw the
    # unrationalised closed form cancels to 1 + 2.5e-12.
    assert gd.lambda0(6.052610563396542e-06, -1.2105221126793083e-05) <= 1.0 + 1e-12
    for eps in (-1e-9, -3.34e-5, -1e-3, -0.04, -0.1):
        assert gd.lambda0(-eps / 2.0, eps) == pytest.approx(1.0, abs=1e-15)


def test_lambda0_takes_arrays():
    for eps in (-0.1, 0.0, 0.1083):
        lams = np.geomspace(1e-9, 1.0, 57) + (-eps / 2.0 if eps < 0 else 0.0)
        got = gd.lambda0(lams, eps)
        assert isinstance(got, np.ndarray)
        np.testing.assert_array_equal(got, [gd.lambda0(float(l), eps) for l in lams])
    with pytest.raises(gd.DomainError):
        gd.lambda0(np.array([0.1, 0.0]), 0.0)
    with pytest.raises(gd.ComplexSnowline):
        gd.lambda0(np.array([0.2, 0.01]), -0.3)


@given(
    lam=st.floats(1e-6, 0.25),
    eps=st.floats(-0.04, 0.24),
)
@settings(max_examples=300, deadline=None)
def test_lambda0_bounded_above_by_one(lam, eps):
    if eps < 0 and lam < -eps / 2.0:
        lam = -eps / 2.0  # below nucleation threshold lambda0 exceeds 1
    assert gd.lambda0(lam, eps) <= 1.0 + 1e-12


def test_vector_field_signs(hopf_model):
    # cold, tiny sheet: temperature bracket positive, sheet shrinking
    F, G = gd.vector_field(hopf_model, 1.0, gd.State(1.1, 0.02))
    assert isinstance(F, float) and isinstance(G, float)
    # on the ice nullcline g(theta), G vanishes
    theta = 1.43
    lam_on_g = nullcline_g(hopf_model, theta, 0)
    _, G0 = gd.vector_field(hopf_model, 1.0, gd.State(theta, lam_on_g))
    assert abs(G0) < 1e-14
    # on the temperature nullcline f(theta), F vanishes
    lam_on_f = nullcline_f(hopf_model, theta, 0)
    F0, _ = gd.vector_field(hopf_model, 2.0, gd.State(theta, lam_on_f))
    assert abs(F0) < 1e-12


def test_vector_field_scales_linearly_in_mu(hopf_model):
    s = gd.State(1.3, 0.05)
    F1, G1 = gd.vector_field(hopf_model, 1.0, s)
    F2, G2 = gd.vector_field(hopf_model, 7.5, s)
    assert F2 == pytest.approx(7.5 * F1, rel=1e-14)
    assert G2 == G1


def test_full_regime_selection(hopf_model):
    # positive eps: no nucleation. The snow line sits on the sheet for
    # moderate extents; once lambda grows past (1 - 2 eps + sqrt(1-4 eps))/2
    # the ablation zone covers the sheet and the regime turns stagnant.
    params = replace(hopf_model, epsilon=0.1)
    assert gd.regime_of(params, 0.05) is gd.Regime.ACCUMULATING
    assert gd.lambda0(0.9, 0.1) < 0
    regime = gd.regime_of(params, 0.9)
    assert regime is gd.Regime.STAGNANT
    _, G = gd.make_rhs(params, 1.0, regime)(0.0, (1.3, 0.9))
    assert G == pytest.approx(-math.sqrt(0.9), rel=1e-15)


def test_full_regime_nucleation_checked_first(hopf_model):
    # eps < 0 and lambda < -eps/2: nucleation wins even though lambda0 > 0
    params = replace(hopf_model, epsilon=-0.1)
    lam = 0.04  # below -eps/2 = 0.05
    assert gd.lambda0(lam, params.epsilon) > 0
    regime = gd.regime_of(params, lam)
    assert regime is gd.Regime.NUCLEATION
    _, G = gd.make_rhs(params, 1.0, regime)(0.0, (1.3, lam))
    xi = gd.response_eval(params.accum, 1.3, 0)
    assert G == pytest.approx(-(xi / (2.0 * math.sqrt(lam))) * params.epsilon, rel=1e-14)
    assert G > 0  # nucleation grows the sheet
    assert gd.regime_of(params, 0.06) is gd.Regime.ACCUMULATING
    with pytest.raises(gd.DomainError):
        gd.regime_of(params, 0.0)


def test_full_approaches_simplified_at_eps_zero(hopf_model):
    # The simplified ice equation truncates lambda0(lam, 0) = 1 - 4*lam
    # + 16*lam^2 - ... after two terms; the alternating tail gives
    # 0 <= lambda0 - (1 - 4*lam) <= 16*lam^2, hence the gap bound below.
    params = replace(hopf_model, epsilon=0.0)
    xi_sup = hopf_model.accum.limit_plus
    for lam in np.linspace(1e-4, 0.05, 60):
        for theta in (1.0, 1.3, 1.45, 1.8):
            F_s, G_s = gd.vector_field(hopf_model, 1.4, gd.State(theta, float(lam)))
            regime = gd.regime_of(params, float(lam))
            assert regime is gd.Regime.ACCUMULATING
            F_f, G_f = gd.make_rhs(params, 1.4, regime)(0.0, (theta, lam))
            assert F_f == pytest.approx(F_s, rel=1e-14)
            assert 0.0 <= G_f - G_s <= 16.0 * (1.0 + xi_sup) * lam**2.5 + 1e-15


def test_full_near_simplified_small_lambda(hopf_model):
    # tiny eps and small sheets: the two right-hand sides agree to 1e-4
    params = replace(hopf_model, epsilon=1e-6)
    for lam in np.linspace(1e-4, 0.005, 40):
        for theta in (0.9, 1.2, 1.5, 1.9):
            _, G_s = gd.vector_field(hopf_model, 1.0, gd.State(theta, float(lam)))
            full = gd.make_rhs(params, 1.0, gd.regime_of(params, float(lam)))
            _, G_f = full(0.0, (theta, lam))
            assert abs(G_f - G_s) <= 1e-4


@pytest.mark.parametrize("order", [1, 2, 3])
def test_nullcline_f_derivatives_match_fd(hopf_model, order):
    h = 1e-5
    for theta in (1.36, 1.40, 1.44):
        fd = (
            nullcline_f(hopf_model, theta + h, order - 1)
            - nullcline_f(hopf_model, theta - h, order - 1)
        ) / (2.0 * h)
        assert nullcline_f(hopf_model, theta, order) == pytest.approx(
            fd, rel=5e-5, abs=1e-6
        )


@pytest.mark.parametrize("order", [1, 2, 3])
def test_nullcline_g_derivatives_match_fd(hopf_model, order):
    h = 1e-6
    for theta in (1.41, 1.43, 1.45):
        fd = (
            nullcline_g(hopf_model, theta + h, order - 1)
            - nullcline_g(hopf_model, theta - h, order - 1)
        ) / (2.0 * h)
        assert nullcline_g(hopf_model, theta, order) == pytest.approx(
            fd, rel=5e-4, abs=1e-6
        )


def test_nullcline_g_range(hopf_model):
    # g = xi/(4(1+xi)) with xi in [0.1, 0.5]: range inside (0, 1/4)
    thetas = np.linspace(0.5, 2.5, 201)
    g = nullcline_g(hopf_model, thetas, 0)
    assert np.all(g > 0.0)
    assert np.all(g < 0.25)
    assert np.all(np.diff(g) >= 0.0)  # increasing accumulation: g increases


def test_nullcline_vectorized_matches_scalar(hopf_model):
    thetas = np.array([1.1, 1.4, 1.7])
    f_vec = nullcline_f(hopf_model, thetas, 0)
    g_vec = nullcline_g(hopf_model, thetas, 1)
    for i, theta in enumerate(thetas):
        assert f_vec[i] == pytest.approx(nullcline_f(hopf_model, float(theta), 0))
        assert g_vec[i] == pytest.approx(nullcline_g(hopf_model, float(theta), 1))


def test_all_lists_each_public_name_once():
    public = {name for name, value in vars(gd).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(gd.__all__) == sorted(public)


# Exports that no src module, benchmark script or README Library example
# reaches, each kept for a reason; every other export must be reached.
_UNREACHED_EXPORTS = {
    # The paper's coarse equilibrium count; a test checks it against the
    # number of crossings find_equilibria locates.
    "count_classification",
    # The quadratic center-manifold reduction at an f' = g' tangency and its
    # eigenvector pair, kept for the tangency analysis that analyze lacks.
    "center_manifold",
    "tangency_directions",
}


def test_every_export_is_reached():
    # A use is any mention of the name outside the line that defines it.
    root = PARAMS_DIR.parent
    paths = [p for p in (root / "src" / "glacier_dyn").glob("*.py") if p.name != "__init__.py"]
    texts = [p.read_text() for p in paths + sorted((root / "benchmark").glob("*.py"))]
    readme = (root / "README.md").read_text()
    texts.append(readme[readme.index("## Library"):])
    lines = [line for text in texts for line in text.splitlines()]
    unreached = {
        name for name in gd.__all__
        if not any(re.search(rf"\b{name}\b", line)
                   and not re.match(rf"\s*(def|class) {name}\b", line) for line in lines)
    }
    assert unreached == _UNREACHED_EXPORTS


def test_imports_match_the_declared_dependencies():
    # Every import in src, those inside functions too, names the standard
    # library, the package or a runtime dependency in pyproject.toml. The one
    # exception is scipy in simulator.solve_ivp, which callers patch by name.
    tomllib = pytest.importorskip("tomllib")
    root = PARAMS_DIR.parent
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", dep)[0].lower().replace("-", "_")
                for dep in project["dependencies"]}
    allowed = set(sys.stdlib_module_names) | declared | {"glacier_dyn"}
    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.update((module, scope, a.name.split(".")[0]) for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                top = "glacier_dyn" if child.level else child.module.split(".")[0]
                found.add((module, scope, top))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, child.name if inner else scope)

    for path in (root / "src" / "glacier_dyn").glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert ("model", None, "numpy") in found
    assert {f for f in found if f[2] not in allowed} <= {("simulator", "solve_ivp", "scipy")}


def test_benchmark_traced_names_resolve():
    # The benchmark's tracer patches these by name; a rename or deletion here
    # would otherwise break its traced runs without failing any test.
    path = PARAMS_DIR.parent / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for modname, attr, _layer in tracing.TRACED:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (modname, attr)


def test_bisect_matches_scipy_bit_for_bit():
    # 10,002 seeded brackets of a monotone tanh-plus-cubic, from 1e-14 to 10
    # wide, taking the three tolerances the package uses in turn.
    rng = np.random.default_rng(20261018)
    n = 10_002
    draws = zip(
        rng.uniform(-3.0, 3.0, n).tolist(),
        (10.0 ** rng.uniform(-2.0, 3.0, n)).tolist(),
        rng.uniform(0.0, 2.0, n).tolist(),
        (10.0 ** rng.uniform(-14.0, 1.0, n)).tolist(),
        (10.0 ** rng.uniform(-14.0, 1.0, n)).tolist(),
        np.where(rng.random(n) < 0.5, 1.0, -1.0).tolist(),
        [1e-15, 1e-12, 2e-12] * (n // 3),
    )
    for r, k, d, below, above, sign, xtol in draws:

        def f(x, r=r, k=k, d=d, sign=sign):
            return sign * (math.tanh(k * (x - r)) + d * (x - r) ** 3)

        ours = bisect(f, r - below, r + above, xtol=xtol)
        assert type(ours) is float
        assert ours == scipy_bisect(f, r - below, r + above, xtol=xtol), (r, k, d, below, above)
    # Exact zeros at either end are returned as they are.
    assert bisect(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert bisect(lambda x: x - 2.0, 1.0, 2.0) == 2.0


def test_bisect_raises_what_scipy_raises():
    cases = [
        ((lambda x: x * x + 1.0, -1.0, 1.0), {}, ValueError),  # same sign
        ((lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, -1.0, 1.0), {}, ValueError),  # NaN
        ((lambda x: x - 1.0 / 3.0, 0.0, 1.0), {"xtol": 1e-15, "maxiter": 5}, RuntimeError),
    ]
    for args, kwargs, exc in cases:
        with pytest.raises(exc):
            scipy_bisect(*args, **kwargs)
        with pytest.raises(exc):
            bisect(*args, **kwargs)
