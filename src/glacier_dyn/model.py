"""Core model quantities: parameter records, response curves, scalings, the
vector field with its Jacobian and regime rule, and nullclines, all as pure
evaluations. This is the one place the dynamics are written; the simulator
integrates the rates make_rates builds, with the Jacobian make_jacobian builds
here.

The planar system couples a dimensionless global temperature theta with a
dimensionless ice-sheet extent lambda:

    dtheta/dtau = mu * [1 + beta - gamma*(alpha1 + alpha2*lambda)
                        - (1 - gamma)*albedo(theta) - theta]
    dlambda/dtau = sqrt(lambda) * [(1 + xi(theta))*(1 - 4*lambda) - 1]

where albedo and xi are bounded monotone sigmoid responses of theta. The full
variant keeps the snow-line elevation eps and switches between accumulation,
stagnation, and nucleation regimes of the mass balance.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import ComplexSnowline, ConfigError, DomainError, NonDifferentiablePoint, ScaleError

SECONDS_PER_YEAR = 365.25 * 86400.0
# Least lambda the full ice equation and the Jacobian evaluate at; the
# simulator also stops a trajectory there.
LAMBDA_FLOOR = 1e-12


class SigmoidFamily(enum.Enum):
    """Odd sigmoid shapes sigma with sigma(+-inf) = +-1 and sigma' >= 0."""

    TANH = "tanh"
    LOGISTIC = "logistic"
    ERF = "erf"
    PIECEWISE_LINEAR = "piecewise_linear"


def _tanh_derivs(t, order: int):
    """sigma^(order) of the tanh family from t = tanh(x)."""
    if order == 0:
        return t
    s = 1.0 - t * t
    if order == 1:
        return s
    if order == 2:
        return -2.0 * t * s
    return (6.0 * t * t - 2.0) * s


def sigmoid_eval(family: SigmoidFamily, x, order: int = 0):
    """Evaluate sigma^(order)(x) for the given family, order in 0..3.

    Python scalars go through the math module and give floats; anything else
    goes through numpy. The piecewise-linear ramp clamp(x, -1, 1) has no
    derivative exactly at |x| = 1; orders >= 1 there raise
    NonDifferentiablePoint rather than picking a one-sided value.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")
    scalar = isinstance(x, (float, int))
    x = float(x) if scalar else np.asarray(x, dtype=float)
    if family is SigmoidFamily.TANH:
        return _tanh_derivs(math.tanh(x) if scalar else np.tanh(x), order)
    if family is SigmoidFamily.LOGISTIC:
        # 2/(1 + e^-x) - 1 == tanh(x/2), so derivatives scale by 2^-order.
        half = x / 2.0
        return _tanh_derivs(math.tanh(half) if scalar else np.tanh(half), order) / 2.0**order
    if family is SigmoidFamily.ERF:
        if order == 0:
            if scalar:
                return math.erf(x)
            from scipy.special import erf  # the one array path that needs scipy

            return erf(x)
        d1 = (2.0 / math.sqrt(math.pi)) * (math.exp(-x * x) if scalar else np.exp(-x * x))
        if order == 1:
            return d1
        if order == 2:
            return -2.0 * x * d1
        return (4.0 * x * x - 2.0) * d1
    # piecewise-linear ramp
    if order == 0:
        return min(max(x, -1.0), 1.0) if scalar else np.clip(x, -1.0, 1.0)
    if np.any(np.abs(x) == 1.0):
        raise NonDifferentiablePoint(
            f"piecewise-linear sigmoid has no order-{order} derivative at |x| = 1"
        )
    if scalar:
        return 1.0 if order == 1 and abs(x) < 1.0 else 0.0
    return np.where(np.abs(x) < 1.0, 1.0, 0.0) if order == 1 else np.zeros_like(x)


def bisect(f, a: float, b: float, xtol=2e-12, rtol=4 * math.ulp(1.0), maxiter=100) -> float:
    """Root of f in [a, b]: scipy.optimize.bisect's loop and errors step for
    step, so roots keep its bits without importing scipy."""

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    a, b = float(a), float(b)
    fa, fb = call(a), call(b)
    if fa * fb > 0:
        raise ValueError("f(a) and f(b) must have different signs")
    if fa == 0 or fb == 0:
        return a if fa == 0 else b
    dm = b - a
    for _ in range(maxiter):
        dm *= 0.5
        xm = a + dm
        fm = call(xm)
        if fm * fa >= 0:
            a = xm
        if fm == 0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {a}")


def _require_finite(record, names) -> None:
    for name in names:
        value = getattr(record, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


def _require_normal(record, block: str) -> None:
    """gamma and alpha2 divide f and its derivatives, which overflow where
    either is subnormal."""
    for name in ("gamma", "alpha2"):
        value = getattr(record, name)
        if 0 < value < sys.float_info.min:
            raise ConfigError(f"{block}.{name} must not be subnormal, got {value}")


def _number(value, where: str, key: str) -> float:
    """A config entry as a float: a JSON number or a numeric string. Anything
    else (null, a bool, a list or object, other text) names its dotted key."""
    if type(value) in (float, int, str):  # not bool, a subclass of int
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise ConfigError(f"{where}.{key} must be a number, got {value!r}")


def _from_dict(cls, data, where: str, optional=()):
    """The record `cls` from a config block at dotted path `where`. Every field
    is required but `optional`; the albedo and accum entries are response
    curves, family is a curve family and every other entry is a number."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {type(data).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = data.keys() - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = allowed - data.keys() - set(optional)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    kwargs = {}
    for key, value in data.items():
        if key in ("albedo", "accum"):
            kwargs[key] = SigmoidResponse.from_dict(value, f"{where}.{key}")
        elif key == "family":
            try:
                kwargs[key] = SigmoidFamily(str(value).lower())
            except ValueError:
                names = [f.value for f in SigmoidFamily]
                raise ConfigError(f"{where}: family must be one of {names}") from None
        else:
            kwargs[key] = _number(value, where, key)
    return cls(**kwargs)


@dataclass(frozen=True)
class SigmoidResponse:
    """Bounded monotone response theta -> value between two saturation limits.

    value(theta) = (limit_plus + limit_minus)/2
                   + (limit_plus - limit_minus)/2 * sigma((theta - center)/steepness)

    Decreasing responses (ocean albedo) have limit_plus < limit_minus.
    """

    limit_minus: float
    limit_plus: float
    center: float
    steepness: float
    family: SigmoidFamily = SigmoidFamily.TANH

    def __post_init__(self):
        _require_finite(self, ("limit_minus", "limit_plus", "center", "steepness"))
        # response_eval divides by steepness**order up to order 3; the cube is
        # multiplied out because ** raises on overflow.
        s = self.steepness
        if not 0.0 < s * s * s < math.inf:
            raise ConfigError(f"steepness must be positive with a nonzero finite cube, got {s}")

    @classmethod
    def from_dict(cls, data: dict, where: str = "curve") -> "SigmoidResponse":
        return _from_dict(cls, data, where)


def response_eval(curve: SigmoidResponse, theta, order: int = 0):
    """Evaluate the response or its order-1..3 theta-derivative."""
    if not isinstance(theta, (float, int)):
        theta = np.asarray(theta, dtype=float)
    z = (theta - curve.center) / curve.steepness
    half_span = 0.5 * (curve.limit_plus - curve.limit_minus)
    if order == 0:
        return 0.5 * (curve.limit_plus + curve.limit_minus) + half_span * sigmoid_eval(
            curve.family, z, 0
        )
    return half_span * sigmoid_eval(curve.family, z, order) / curve.steepness**order


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional inputs (SI units unless noted).

    Q : W m^-2, solar constant
    gamma : continent area fraction
    A, B : W m^-2 and W m^-2 K^-1, linear longwave flux A + B*T (A < 0)
    tau0 : Pa, ice yield stress
    rho_i : kg m^-3, ice density
    grav : m s^-2
    s : dimensionless 0-degree-isotherm slope
    h0 : m, isotherm height over the Arctic Ocean (may be negative)
    c : J m^-2 K^-1, column heat capacity
    m_rate : m yr^-1, ablation rate
    alpha1, alpha2 : continental albedo alpha1 + alpha2*lambda
    albedo, accum : response curves in dimensionless theta units
    """

    Q: float
    gamma: float
    A: float
    B: float
    tau0: float
    rho_i: float
    s: float
    h0: float
    c: float
    m_rate: float
    alpha1: float
    alpha2: float
    albedo: SigmoidResponse
    accum: SigmoidResponse
    grav: float = 9.81

    def __post_init__(self):
        _require_finite(self, [f.name for f in fields(self) if f.name not in ("albedo", "accum")])
        for name in ("Q", "B", "tau0", "rho_i", "grav", "c", "m_rate"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not self.alpha2 > 0:
            raise ConfigError(f"alpha2 must be positive, got {self.alpha2}")
        _require_normal(self, "physical")
        if not self.s > 0:
            raise ConfigError(f"s must be positive, got {self.s}")
        if not self.A < 0:
            raise ConfigError(f"A must be negative so that beta = -4A/Q > 0, got {self.A}")

    @classmethod
    def from_dict(cls, data: dict, where: str = "physical") -> "PhysicalParams":
        return _from_dict(cls, data, where, optional=("grav",))


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless parameters of the planar system."""

    beta: float
    gamma: float
    alpha1: float
    alpha2: float
    epsilon: float
    albedo: SigmoidResponse
    accum: SigmoidResponse

    def __post_init__(self):
        _require_finite(self, ("beta", "gamma", "alpha1", "alpha2", "epsilon"))
        if not self.beta > 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not self.alpha2 > 0:
            raise ConfigError(f"alpha2 must be positive, got {self.alpha2}")
        _require_normal(self, "model")
        for name in ("albedo", "accum"):
            curve: SigmoidResponse = getattr(self, name)
            for lim in (curve.limit_minus, curve.limit_plus):
                if not 0.0 <= lim <= 1.0:
                    raise ConfigError(f"{name} limits must lie in [0, 1], got {lim}")

    @classmethod
    def from_dict(cls, data: dict, where: str = "model") -> "ModelParams":
        return _from_dict(cls, data, where)


@dataclass(frozen=True)
class Scales:
    """Conversion scales between dimensionless and dimensional quantities.

    T_star is in K, L_star in m and t_star in years; each scale must be
    finite and positive.
    """

    T_star: float
    L_star: float
    t_star: float
    mu: float

    def __post_init__(self):
        for name in ("T_star", "L_star", "t_star", "mu"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ScaleError(name, value)


@dataclass(frozen=True)
class State:
    """Dimensionless state (theta, lambda). lambda <= 1/4 holds along simplified
    trajectories but is not enforced here: the full model admits larger sheets."""

    theta: float
    lam: float

    def __post_init__(self):
        if not (self.theta > 0 and math.isfinite(self.theta)):
            raise DomainError(f"theta must be finite and positive, got {self.theta}")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise DomainError(f"lambda must be finite and positive, got {self.lam}")


class Regime(enum.Enum):
    """Mass-balance regime of the full model."""

    ACCUMULATING = "accumulating"
    STAGNANT = "stagnant"
    NUCLEATION = "nucleation"


def sheet_height_scale(tau0: float, rho_i: float, grav: float) -> float:
    """Ice-sheet height scale H = sqrt(4*tau0/(3*rho_i*grav)), units m^(1/2)."""
    return math.sqrt(4.0 * tau0 / (3.0 * rho_i * grav))


def _snow_line(lam, epsilon):
    """(lambda0, radicand) at lambda > 0, unchecked, for a float or a numpy
    array of lambda. Under the root the radicand is clamped at 0, which solver
    trial steps may cross. Where eps + lambda + 1/2 > 0 the root is
    rationalised, lambda0 = (1 - (eps + lambda)^2/lambda) / (sqrt(radicand)
    + eps + lambda + 1/2), so that nothing cancels at small lambda."""
    shift = epsilon + lam + 0.5
    radicand = epsilon + 2.0 * lam + 0.25
    if isinstance(lam, np.ndarray):
        root = np.sqrt(np.maximum(radicand, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.where(
                shift > 0, (1.0 - (epsilon + lam) ** 2 / lam) / (root + shift), (root - shift) / lam
            )
        return value, radicand
    root = math.sqrt(max(radicand, 0.0))
    if shift > 0:
        return (1.0 - (epsilon + lam) ** 2 / lam) / (root + shift), radicand
    return (root - shift) / lam, radicand


def lambda0(lam, epsilon: float):
    """Dimensionless snow-line position on the sheet, for a scalar or a numpy
    array of lambda.

    lambda0 = (1/lambda) * [-(eps + lambda + 1/2) + sqrt(eps + 2*lambda + 1/4)].

    Negative values mean the ablation zone covers the whole sheet. For
    lambda >= -eps/2 the radicand is at least 1/4, so the square root is safe;
    a negative radicand (possible only for strongly negative eps and small
    lambda) raises ComplexSnowline, and lambda <= 0 raises DomainError.
    """
    array = isinstance(lam, np.ndarray)
    # The radicand grows with lambda, so the least lambda decides both checks.
    low = float(lam.min()) if array else float(lam)
    if not low > 0:
        raise DomainError(f"lambda must be positive, got {low}")
    value, radicand = _snow_line(lam if array else low, epsilon)
    least = radicand.min() if array else radicand
    if least < 0:
        raise ComplexSnowline(
            f"radicand eps + 2*lambda + 1/4 = {least} < 0 at lambda = {low}"
        )
    return value


def nondimensionalize(p: PhysicalParams) -> tuple[ModelParams, Scales]:
    """Derive dimensionless parameters and conversion scales.

    T* = Q/(4B)                    [K]
    H  = sqrt(4*tau0/(3*rho_i*g))  [m^(1/2)]
    L* = H^2/s^2                   [m]
    eps = s*h0/H^2
    t* = (3/2)*H^2/(m*s)           [yr]  (m in m/yr)
    mu = (3/2)*B*H^2/(m*s*c)       (m converted to m/s)
    beta = -4A/Q

    The response-curve centers and steepnesses are already in dimensionless
    theta units and pass through unchanged. Inputs whose H^2, s^2 or mu's
    denominator m*s*c underflows to 0 (as it does whenever t*'s m*s does),
    or whose scales overflow, raise ScaleError.
    """
    H = sheet_height_scale(p.tau0, p.rho_i, p.grav)
    m_per_second = p.m_rate / SECONDS_PER_YEAR
    for symbol, value in (("H^2", H * H), ("s^2", p.s * p.s), ("m*s*c", m_per_second * p.s * p.c)):
        if value == 0.0:
            raise ScaleError(symbol, value)
    T_star = p.Q / (4.0 * p.B)
    L_star = H * H / (p.s * p.s)
    eps = p.s * p.h0 / (H * H)
    t_star = 1.5 * H * H / (p.m_rate * p.s)
    mu = 1.5 * p.B * H * H / (m_per_second * p.s * p.c)
    beta = -4.0 * p.A / p.Q
    scales = Scales(T_star=T_star, L_star=L_star, t_star=t_star, mu=mu)
    model = ModelParams(
        beta=beta,
        gamma=p.gamma,
        alpha1=p.alpha1,
        alpha2=p.alpha2,
        epsilon=eps,
        albedo=p.albedo,
        accum=p.accum,
    )
    return model, scales


def regime_of(params: ModelParams, lam: float) -> Regime:
    """Mass-balance regime of the full model; lambda <= 0 raises DomainError.

    Nucleation (eps < 0, lambda < -eps/2) is checked first: there the sheet
    grows from scratch whatever the sign of lambda0. Otherwise the regime is
    accumulating where lambda0 >= 0 and stagnant (whole sheet ablating) where
    lambda0 < 0.
    """
    if not lam > 0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if params.epsilon < 0 and lam < -params.epsilon / 2.0:
        return Regime.NUCLEATION
    return Regime.ACCUMULATING if _snow_line(lam, params.epsilon)[0] >= 0 else Regime.STAGNANT


# The scalar kernels below compare against these aliases: looking a member up
# on its Enum class costs about 0.1 us per comparison.
_TANH, _LOGISTIC, _ERF = SigmoidFamily.TANH, SigmoidFamily.LOGISTIC, SigmoidFamily.ERF
_STAGNANT, _NUCLEATION = Regime.STAGNANT, Regime.NUCLEATION
# sigmoid_eval(family, x, 0) for a float x, bit for bit, as one call.
_SIGMA = {
    _TANH: math.tanh,
    _LOGISTIC: lambda z: math.tanh(z / 2.0),
    _ERF: math.erf,
    SigmoidFamily.PIECEWISE_LINEAR: lambda z: min(max(z, -1.0), 1.0),
}


def _response_slope(curve: SigmoidResponse, theta: float) -> tuple[float, float]:
    """(response_eval(curve, theta, 0), response_eval(curve, theta, 1)) for a
    float theta, bit for bit, from one evaluation of the family's function."""
    z = (theta - curve.center) / curve.steepness
    family = curve.family
    if family is _TANH:
        sigma = math.tanh(z)
        slope = 1.0 - sigma * sigma
    elif family is _LOGISTIC:
        sigma = math.tanh(z / 2.0)
        slope = (1.0 - sigma * sigma) / 2.0
    elif family is _ERF:
        sigma = math.erf(z)
        slope = (2.0 / math.sqrt(math.pi)) * math.exp(-z * z)
    else:
        if abs(z) == 1.0:
            raise NonDifferentiablePoint(
                "piecewise-linear sigmoid has no order-1 derivative at |x| = 1"
            )
        sigma = min(max(z, -1.0), 1.0)
        slope = 1.0 if abs(z) < 1.0 else 0.0
    half_span = 0.5 * (curve.limit_plus - curve.limit_minus)
    return (
        0.5 * (curve.limit_plus + curve.limit_minus) + half_span * sigma,
        half_span * slope / curve.steepness,
    )


def make_rates(params: ModelParams, mu: float, regime: Regime | None = None):
    """rates(theta, lam) -> (dtheta/dtau, dlambda/dtau) on floats, unchecked:
    the simplified ice equation for regime None, the full one in the given
    regime otherwise. Solver trial steps may leave the domain, so the ice
    equation clamps lambda at 0 in the simplified model and at LAMBDA_FLOOR
    in the full one; dtheta/dtau takes lambda unclamped.

    This is the one definition of the field. Every parameter is read here,
    once, so a call costs only its arithmetic; each response is
    response_eval(curve, theta, 0), bit for bit."""
    (sa, ca, wa, ma, ha), (sx, cx, wx, mx, hx) = (
        (_SIGMA[c.family], c.center, c.steepness, 0.5 * (c.limit_plus + c.limit_minus),
         0.5 * (c.limit_plus - c.limit_minus))
        for c in (params.albedo, params.accum)
    )
    b1, gm, g1 = 1.0 + params.beta, params.gamma, 1.0 - params.gamma
    a1, a2, eps, sqrt = params.alpha1, params.alpha2, params.epsilon, math.sqrt

    # The clamps pick as max(lam, bound) does, without its call.
    def rates(theta, lam):
        dtheta = mu * (b1 - gm * (a1 + a2 * lam) - g1 * (ma + ha * sa((theta - ca) / wa)) - theta)
        xi = mx + hx * sx((theta - cx) / wx)
        if regime is None:
            return dtheta, sqrt(0.0 if lam < 0.0 else lam) * ((1.0 + xi) * (1.0 - 4.0 * lam) - 1.0)
        lam = LAMBDA_FLOOR if lam < LAMBDA_FLOOR else lam
        if regime is _STAGNANT:
            return dtheta, -sqrt(lam)
        if regime is _NUCLEATION:
            return dtheta, -(xi / (2.0 * sqrt(lam))) * eps
        return dtheta, sqrt(lam) * ((1.0 + xi) * _snow_line(lam, eps)[0] - 1.0)

    return rates


def vector_field(params: ModelParams, mu: float, s: State) -> tuple[float, float]:
    """Right-hand side (dtheta/dtau, dlambda/dtau) of the simplified system."""
    if not s.lam > 0:
        raise DomainError(f"lambda must be positive, got {s.lam}")
    return make_rates(params, mu)(s.theta, s.lam)


def make_rhs(params: ModelParams, mu: float, regime: Regime | None = None):
    """rhs(t, y), the signature of scipy's solvers, which the tests run as a
    second route: make_rates' field for the regime (regime_of gives the
    regime at a state)."""
    rates = make_rates(params, mu, regime)

    def rhs(t, y):
        # Plain floats: numpy scalar arithmetic costs several times more.
        return rates(float(y[0]), float(y[1]))

    return rhs


def make_jacobian(params: ModelParams, mu: float):
    """jac(t, y): the analytic Jacobian ((a, b), (c, d)) of the simplified
    field at any state, for variational equations and Radau (scipy's takes
    it through np.asarray)."""
    gm = params.gamma
    dtheta_dlam = -mu * gm * params.alpha2

    def jac(t, y):
        theta, lam = float(y[0]), float(y[1])
        root = math.sqrt(max(lam, LAMBDA_FLOOR))
        dalb = _response_slope(params.albedo, theta)[1]
        xi, dxi = _response_slope(params.accum, theta)
        bracket = (1.0 + xi) * (1.0 - 4.0 * lam) - 1.0
        return (
            (-mu * (1.0 + (1.0 - gm) * dalb), dtheta_dlam),
            (root * (1.0 - 4.0 * lam) * dxi, bracket / (2.0 * root) - 4.0 * root * (1.0 + xi)),
        )

    return jac


def nullcline_f(params: ModelParams, theta, order: int = 0):
    """Temperature nullcline f(theta) (the lambda value zeroing dtheta/dtau) or
    its derivatives.

    f(theta) = (1/alpha2) * [(1/gamma)*(1 + beta - (1-gamma)*albedo(theta)
               - theta) - alpha1]
    f'(theta) = -(1/(gamma*alpha2)) * ((1-gamma)*albedo'(theta) + 1)
    f^(k)(theta) = -((1-gamma)/(gamma*alpha2)) * albedo^(k)(theta), k >= 2
    """
    g, a2 = params.gamma, params.alpha2
    if order == 0:
        alb = response_eval(params.albedo, theta, 0)
        return ((1.0 + params.beta - (1.0 - g) * alb - theta) / g - params.alpha1) / a2
    d = response_eval(params.albedo, theta, order)
    if order == 1:
        return -((1.0 - g) * d + 1.0) / (g * a2)
    return -(1.0 - g) * d / (g * a2)


def nullcline_g(params: ModelParams, theta, order: int = 0):
    """Ice nullcline g(theta) = xi/(4*(1 + xi)) or its theta-derivatives."""
    xi = response_eval(params.accum, theta, 0)
    if order == 0:
        return 0.25 * xi / (1.0 + xi)
    x1 = response_eval(params.accum, theta, 1)
    if order == 1:
        return 0.25 * x1 / (1.0 + xi) ** 2
    x2 = response_eval(params.accum, theta, 2)
    if order == 2:
        return (x2 * (1.0 + xi) - 2.0 * x1 * x1) / (4.0 * (1.0 + xi) ** 3)
    x3 = response_eval(params.accum, theta, 3)
    return (
        x3 * (1.0 + xi) ** 2 - 6.0 * x1 * x2 * (1.0 + xi) + 6.0 * x1**3
    ) / (4.0 * (1.0 + xi) ** 4)
