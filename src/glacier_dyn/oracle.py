"""Independent numerical cross-checks for the closed-form results.

Every analytic formula in the package has a second route here that shares no
algebra with it: finite-difference linearization, a Lyapunov coefficient
assembled from the normal-form recipe applied to the transformed vector field,
and brute-force root/maximum searches for the lambda-equation results. The
module ships in the library (not only in tests) so the CLI can re-run the
comparisons on arbitrary parameter files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .equilibria import (
    CriticalPoint,
    find_equilibria,
    lambda0_max,
    lambda_branches,
)
from .errors import ConditioningError, DomainError, OracleMismatch
from .model import (
    ModelParams,
    SigmoidFamily,
    SigmoidResponse,
    State,
    bisect,
    lambda0,
    response_eval,
    vector_field,
)
from .stability import (
    Jacobian2,
    eigenvalues,
    hopf_analysis,
    jacobian,
    mu_thresholds,
)


@dataclass(frozen=True)
class FdConfig:
    """Finite-difference settings: base step and Richardson depth."""

    base_step: float = 1e-4
    richardson_levels: int = 2

    def __post_init__(self):
        if not 1e-7 <= self.base_step <= 1e-2:
            raise ValueError(f"base_step must lie in [1e-7, 1e-2], got {self.base_step}")
        if not 1 <= self.richardson_levels <= 4:
            raise ValueError(
                f"richardson_levels must lie in [1, 4], got {self.richardson_levels}"
            )


def _richardson(vals: list[float], order: int) -> float:
    """Extrapolate a sequence of estimates at steps h, h/2, h/4, ...

    order is the leading error exponent; the expansion is assumed to proceed
    in even powers from there (true for symmetric stencils).
    """
    table = list(vals)
    n = len(table)
    for j in range(1, n):
        factor = 2.0 ** (order + 2 * (j - 1))
        for i in range(n - 1, j - 1, -1):
            table[i] = (factor * table[i] - table[i - 1]) / (factor - 1.0)
    return table[-1]


def _fd1(func, x0: float, h: float, levels: int) -> float:
    """Central first derivative with Richardson extrapolation."""
    vals = []
    for _ in range(levels):
        vals.append((func(x0 + h) - func(x0 - h)) / (2.0 * h))
        h /= 2.0
    return _richardson(vals, order=2)


def _fd2(func, x0: float, h: float, levels: int) -> float:
    """Fourth-order 5-point second derivative with Richardson extrapolation."""
    vals = []
    for _ in range(levels):
        vals.append(
            (
                -func(x0 + 2.0 * h)
                + 16.0 * func(x0 + h)
                - 30.0 * func(x0)
                + 16.0 * func(x0 - h)
                - func(x0 - 2.0 * h)
            )
            / (12.0 * h * h)
        )
        h /= 2.0
    return _richardson(vals, order=4)


def fd_jacobian(params: ModelParams, mu: float, s: State, cfg: FdConfig = FdConfig()) -> Jacobian2:
    """Jacobian of the simplified vector field by central differences.

    The theta step shrinks with the narrowest sigmoid transition so that steep
    response curves are still resolved; the lambda step follows base_step.
    """
    steep = min(params.albedo.steepness, params.accum.steepness)
    h_theta = cfg.base_step * min(max(1.0, abs(s.theta)), 50.0 * steep)
    h_theta = max(h_theta, 1e-9)
    h_lam = cfg.base_step * max(1.0, abs(s.lam))
    if s.lam - 2.0 * h_lam <= 0:
        raise DomainError(
            f"lambda = {s.lam} leaves no finite-difference margin at step {h_lam}"
        )

    def rhs(theta, lam, comp):
        return vector_field(params, mu, State(theta=theta, lam=lam))[comp]

    n = cfg.richardson_levels
    return Jacobian2(
        a11=_fd1(lambda th: rhs(th, s.lam, 0), s.theta, h_theta, n),
        a12=_fd1(lambda lam: rhs(s.theta, lam, 0), s.lam, h_lam, n),
        a21=_fd1(lambda th: rhs(th, s.lam, 1), s.theta, h_theta, n),
        a22=_fd1(lambda lam: rhs(s.theta, lam, 1), s.lam, h_lam, n),
    )


def _transformed_first_partials(params: ModelParams, cp: CriticalPoint):
    """Analytic first partials of the normal-form-ready components.

    At mu = mu0 the system in the rotated coordinates (psi, kappa), with
    psi = lambda - lambda_c and kappa completing the rotation, reads

        dpsi/dtau   = -omega0*kappa + P(psi, kappa)
        dkappa/dtau =  omega0*psi   + Q(psi, kappa)

    with P, Q vanishing to second order. Their first partials are exact
    chain-rule evaluations; the oracle differentiates those numerically to get
    the second and third partials the normal-form formula needs.
    """
    g1 = cp.g1
    w2 = cp.g1 / cp.f1 - 1.0
    if w2 < 1e-6:
        raise ConditioningError(
            f"g'/f' - 1 = {w2} too small for a stable (psi, kappa) transformation"
        )
    w = math.sqrt(w2)
    b = cp.xi_c / math.sqrt(cp.lambda_c)
    mu0 = b / (params.alpha2 * params.gamma * cp.f1)
    omega0 = b * w
    gm = params.gamma

    def chart(psi, kappa):
        return cp.theta_c + (psi - w * kappa) / g1, cp.lambda_c + psi

    def G_theta(theta, lam):
        x1 = response_eval(params.accum, theta, 1)
        return math.sqrt(lam) * (1.0 - 4.0 * lam) * x1

    def G_lam(theta, lam):
        xi = response_eval(params.accum, theta, 0)
        return ((1.0 + xi) * (1.0 - 4.0 * lam) - 1.0) / (2.0 * math.sqrt(lam)) - 4.0 * math.sqrt(lam) * (1.0 + xi)

    def Fb_theta(theta):
        return -(1.0 - gm) * response_eval(params.albedo, theta, 1) - 1.0

    Fb_lam = -gm * params.alpha2

    def P_psi(psi, kappa):
        theta, lam = chart(psi, kappa)
        return G_theta(theta, lam) / g1 + G_lam(theta, lam)

    def P_kappa(psi, kappa):
        theta, lam = chart(psi, kappa)
        return -(w / g1) * G_theta(theta, lam) + omega0

    def Q_psi(psi, kappa):
        theta, lam = chart(psi, kappa)
        gt, gl = G_theta(theta, lam), G_lam(theta, lam)
        return (gt / g1 + gl - mu0 * g1 * (Fb_theta(theta) / g1 + Fb_lam)) / w - omega0

    def Q_kappa(psi, kappa):
        theta, lam = chart(psi, kappa)
        return -(G_theta(theta, lam) - mu0 * g1 * Fb_theta(theta)) / g1

    return P_psi, P_kappa, Q_psi, Q_kappa, omega0


def numeric_l1(params: ModelParams, cp: CriticalPoint, cfg: FdConfig = FdConfig()) -> float:
    """First Lyapunov coefficient by the normal-form recipe, independent of
    the closed form.

    Transforms the vector field to the rotation-normalized (psi, kappa) chart
    at mu = mu0, then evaluates the standard combination of second and third
    partials of the nonlinear parts P, Q. First partials are analytic; second
    and third partials come from Richardson-extrapolated differences of those,
    so the two routes share no algebra beyond the model definition itself.
    """
    P_psi, P_kappa, Q_psi, Q_kappa, omega0 = _transformed_first_partials(params, cp)

    # Steps sized to the narrowest feature each direction sweeps through: a
    # psi offset moves theta by 1/g', a kappa offset by w/g' (and psi moves
    # lambda one-to-one).
    steep = min(params.albedo.steepness, params.accum.steepness)
    w = math.sqrt(cp.g1 / cp.f1 - 1.0)
    h_psi = min(cfg.base_step, cp.g1 * steep / 20.0, cp.lambda_c / 20.0)
    h_kappa = min(cfg.base_step, cp.g1 * steep / (20.0 * w))
    h_psi = max(h_psi, 1e-6)
    h_kappa = max(h_kappa, 1e-6)
    lv = cfg.richardson_levels

    Ppp = _fd1(lambda t: P_psi(t, 0.0), 0.0, h_psi, lv)
    Pkk = _fd1(lambda t: P_kappa(0.0, t), 0.0, h_kappa, lv)
    Ppk = _fd1(lambda t: P_psi(0.0, t), 0.0, h_kappa, lv)
    Qpp = _fd1(lambda t: Q_psi(t, 0.0), 0.0, h_psi, lv)
    Qkk = _fd1(lambda t: Q_kappa(0.0, t), 0.0, h_kappa, lv)
    Qpk = _fd1(lambda t: Q_psi(0.0, t), 0.0, h_kappa, lv)

    Pppp = _fd2(lambda t: P_psi(t, 0.0), 0.0, h_psi, lv)
    Ppkk = _fd2(lambda t: P_psi(0.0, t), 0.0, h_kappa, lv)
    Qppk = _fd2(lambda t: Q_kappa(t, 0.0), 0.0, h_psi, lv)
    Qkkk = _fd2(lambda t: Q_kappa(0.0, t), 0.0, h_kappa, lv)

    cubic = (Pppp + Ppkk + Qppk + Qkkk) / (8.0 * omega0)
    quadratic = (
        Ppk * (Ppp + Pkk) - Qpk * (Qpp + Qkk) - Ppp * Qpp + Pkk * Qkk
    ) / (8.0 * omega0 * omega0)
    return cubic + quadratic


def bisect_lambda_branches(xi: float, epsilon: float) -> tuple[float, float]:
    """Roots of lambda0(lambda) = 1/(1+xi) by grid scan plus bisection.

    Scans 10^4 geometrically spaced points from 1e-2*eps^2 (the small root is
    O(eps^2)) to 1; each sign-change bracket is refined to 1e-12. At
    epsilon = 0 the smaller root degenerates to the lambda -> 0 boundary and
    only the interior root is found; (0, root) is returned in that case.
    Anything else with fewer than two roots is an OracleMismatch.
    """
    zeta = 1.0 / (1.0 + xi)

    def h(lam):
        return lambda0(lam, epsilon) - zeta

    start = 1e-2 * epsilon * epsilon
    grid = np.geomspace(start if start > 0 else 1e-8, 1.0, 10_000)
    vals = lambda0(grid, epsilon) - zeta
    cells = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0))
    roots = [
        float(grid[i]) if vals[i] == 0.0 else bisect(h, grid[i], grid[i + 1], xtol=1e-12)
        for i in cells
    ]
    if len(roots) >= 2:
        return roots[0], roots[-1]
    if len(roots) == 1 and epsilon == 0.0:
        return 0.0, roots[0]
    raise OracleMismatch(
        f"expected two roots of lambda0 = zeta for xi = {xi}, eps = {epsilon}; "
        f"found {len(roots)}"
    )


def grid_max_lambda0(epsilon: float) -> tuple[float, float]:
    """Maximum of lambda0 over (0, 1] by grid scan plus refinement.

    The maximizer is located by bisecting a finite-difference slope sign
    change (direct maximization of the flat quadratic top only resolves the
    position to about sqrt(machine eps)); golden-section is the fallback when
    the grid maximum sits at the boundary.
    """
    if epsilon <= -0.125:
        raise DomainError(f"eps must exceed -1/8, got {epsilon}")
    grid = np.linspace(1e-8, 1.0, 4_000)
    vals = lambda0(grid, epsilon)
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    h = 1e-7

    def slope(lam):
        return (lambda0(lam + h, epsilon) - lambda0(lam - h, epsilon)) / (2.0 * h)

    if lo > 2.0 * h and slope(lo) > 0 > slope(hi):
        lam_max = bisect(slope, lo, hi, xtol=1e-12)
    else:
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda lam: -lambda0(lam, epsilon),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-12},
        )
        lam_max = float(res.x)
    return float(lam_max), float(lambda0(lam_max, epsilon))


def direct_cycle(
    params: ModelParams, mu: float, cp: CriticalPoint, t_end: float = 100.0
) -> tuple[float, float, float]:
    """(period, amplitude_theta, amplitude_lambda) of the attracting cycle
    around cp: the second route for simulator.poincare_cycle, too slow for
    `verify`. Integrates model.vector_field (DOP853) from 1e-3 off cp in
    theta to t_end and samples the last lap between rising crossings of
    theta = theta_c at 20,001 points, so it is exact once transients decay.
    """

    def section(t, y):
        return y[0] - cp.theta_c

    section.direction = 1
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda t, y: vector_field(params, mu, State(theta=y[0], lam=y[1])), (0.0, t_end),
        (cp.theta_c + 1e-3, cp.lambda_c), method="DOP853", rtol=1e-10, atol=1e-12,
        events=[section], dense_output=True,
    )
    if len(sol.t_events[0]) < 2:
        raise OracleMismatch(f"no lap around theta_c = {cp.theta_c} by tau = {t_end}")
    t0, t1 = sol.t_events[0][-2:]
    theta, lam = sol.sol(np.linspace(t0, t1, 20_001))
    return float(t1 - t0), 0.5 * float(np.ptp(theta)), 0.5 * float(np.ptp(lam))


# --- randomized admissible draws (shared by tests and cmd_verify) ---

_SMOOTH_FAMILIES = (SigmoidFamily.TANH, SigmoidFamily.LOGISTIC, SigmoidFamily.ERF)


def draw_branch_inputs(rng: np.random.Generator) -> tuple[float, float]:
    """(xi, eps) satisfying the branch-existence hypothesis with margin."""
    xi = rng.uniform(0.05, 1.0)
    if rng.uniform() < 0.5:
        eps = rng.uniform(0.02, 0.98) * 0.25 * xi / (2.0 + xi)
    else:
        eps = rng.uniform(-0.1, 0.0)
    return xi, eps


def draw_model_params(rng: np.random.Generator, steep_accum: bool = False) -> ModelParams:
    """Random parameter set in physically motivated ranges."""
    d_xi = rng.uniform(0.003, 0.03) if steep_accum else rng.uniform(0.003, 0.1)
    theta_a = rng.uniform(1.2, 1.5)
    theta_x = theta_a + rng.uniform(-0.05, 0.05) if steep_accum else rng.uniform(1.2, 1.5)
    d_alpha = rng.uniform(0.02, 0.15) if steep_accum else rng.uniform(0.01, 0.2)
    return ModelParams(
        beta=rng.uniform(0.5, 1.1),
        gamma=rng.uniform(0.2, 0.5),
        alpha1=rng.uniform(0.1, 0.4),
        alpha2=rng.uniform(2.0, 5.0),
        epsilon=rng.uniform(-0.05, 0.05),
        albedo=SigmoidResponse(
            limit_minus=rng.uniform(0.6, 0.9),
            limit_plus=rng.uniform(0.1, 0.4),
            center=theta_a,
            steepness=d_alpha,
            family=_SMOOTH_FAMILIES[rng.integers(3)],
        ),
        accum=SigmoidResponse(
            limit_minus=rng.uniform(0.05, 0.3),
            limit_plus=rng.uniform(0.3, 0.8),
            center=theta_x,
            steepness=d_xi,
            family=_SMOOTH_FAMILIES[rng.integers(3)],
        ),
    )


def draw_equilibrium(
    rng: np.random.Generator, max_tries: int = 500
) -> tuple[ModelParams, CriticalPoint]:
    """A random parameter set together with one of its equilibria."""
    for _ in range(max_tries):
        params = draw_model_params(rng)
        points = find_equilibria(params, grid_n=600)
        if points:
            return params, points[rng.integers(len(points))]
    raise OracleMismatch("no equilibrium found in the draw budget")


def draw_hopf_point(
    rng: np.random.Generator, max_tries: int = 2000
) -> tuple[ModelParams, CriticalPoint]:
    """A random parameter set with a Hopf-admissible equilibrium (g' > f' > 0,
    comfortably away from the tangency)."""
    for _ in range(max_tries):
        params = draw_model_params(rng, steep_accum=True)
        for cp in find_equilibria(params, grid_n=600):
            if cp.f1 > 1e-3 and cp.g1 / cp.f1 - 1.0 > 1e-2:
                return params, cp
    raise OracleMismatch("no Hopf-admissible equilibrium found in the draw budget")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(CheckResult(name=name, passed=bool(passed), detail=detail))


def run_verification(
    params: ModelParams, mu: float = 1.0, seed: int = 0, n_draws: int = 50
) -> VerificationReport:
    """Cross-check every closed form against its oracle.

    Runs the randomized branch/maximum comparisons plus per-equilibrium
    linearization and Lyapunov checks on the supplied parameter set.
    """
    rng = np.random.default_rng(seed)
    report = VerificationReport()

    worst = 0.0
    for _ in range(n_draws):
        xi, eps = draw_branch_inputs(rng)
        pair = lambda_branches(xi, eps)
        r1, r2 = bisect_lambda_branches(xi, eps)
        worst = max(worst, abs(pair.lambda1 - r1), abs(pair.lambda2 - r2))
    report.add(
        "lambda branches: closed form vs bisection",
        worst <= 1e-10,
        f"worst |diff| = {worst:.3g} over {n_draws} draws",
    )

    worst = 0.0
    for _ in range(max(n_draws // 2, 10)):
        eps = rng.uniform(0.001, 0.24)
        lam_cf, val_cf = lambda0_max(eps)
        lam_num, val_num = grid_max_lambda0(eps)
        worst = max(worst, abs(val_cf - val_num), abs(lam_cf - lam_num))
    report.add(
        "lambda0 maximum: closed form vs grid search",
        worst <= 1e-8,
        f"worst |diff| = {worst:.3g}",
    )

    points = find_equilibria(params)
    if not points:
        report.add("equilibria present in scan range", True, "none found; linearization checks skipped")
        return report

    worst = 0.0
    for cp in points:
        jac = jacobian(cp, mu)
        fd = fd_jacobian(params, mu, State(theta=cp.theta_c, lam=cp.lambda_c))
        scale = max(abs(jac.a11), abs(jac.a12), abs(jac.a21), abs(jac.a22))
        worst = max(
            worst,
            abs(jac.a11 - fd.a11) / scale,
            abs(jac.a12 - fd.a12) / scale,
            abs(jac.a21 - fd.a21) / scale,
            abs(jac.a22 - fd.a22) / scale,
        )
    report.add(
        "jacobian: closed form vs finite differences",
        worst <= 1e-7,
        f"worst relative diff = {worst:.3g} over {len(points)} equilibria",
    )

    hopf_points = [cp for cp in points if cp.g1 > cp.f1 > 0]
    if not hopf_points:
        report.add(
            "hopf checks", True, "no Hopf-admissible equilibrium; skipped"
        )
        return report

    ok = True
    details = []
    for cp in hopf_points:
        th = mu_thresholds(cp)
        if not (0 < th.mu1 < th.mu0 < th.mu2):
            ok = False
            details.append(f"ordering violated at theta_c = {cp.theta_c:.6g}")
        r1, _ = eigenvalues(cp, th.mu0)
        if abs(r1.real) > 1e-12 * max(1.0, abs(r1.imag)):
            ok = False
            details.append(f"nonzero real part {r1.real:.3g} at mu0")
    report.add(
        "mu thresholds: ordering and trace zero at mu0",
        ok,
        "; ".join(details) if details else f"{len(hopf_points)} Hopf-admissible points",
    )

    worst = 0.0
    for cp in hopf_points:
        data = hopf_analysis(cp)
        l1_num = numeric_l1(params, cp)
        worst = max(worst, abs(data.l1 - l1_num) / max(1.0, abs(data.l1)))
    report.add(
        "l1: closed form vs normal-form numerics",
        worst <= 1e-4,
        f"worst relative diff = {worst:.3g}",
    )
    return report
