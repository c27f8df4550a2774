"""Time integration, limit-cycle detection, and mu sweeps.

`integrate` chooses its method from mu. theta relaxes about mu times faster
than lambda, so for large mu an explicit step is capped by stability rather
than accuracy. Up to STIFF_MU it uses an adaptive embedded Runge-Kutta 5(4)
pair (scipy's RK45); above it, the implicit Radau IIA method of order 5, with
the analytic Jacobian for the simplified model and finite differences for
the full one. Either way events are located on dense output. The full
model is integrated piecewise: within a segment the mass-balance regime is
fixed, and each regime arms only the events for boundaries it can actually
leave through, so a restart exactly on a boundary zero cannot re-trigger the
crossing just handled.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .equilibria import CriticalPoint, find_equilibria
from .errors import DomainError, StiffnessError
from .model import (
    ModelParams,
    Regime,
    State,
    nullcline_f,
    nullcline_g,
    response_eval,
)
from .stability import Classification, classify, jacobian

LAMBDA_FLOOR = 1e-12
# Above this mu the temperature equation makes the system stiff enough that
# Radau beats RK45; the measured cost crossover lies between mu = 30 and 100.
STIFF_MU = 100.0
_MAX_SEGMENTS = 10_000
_NUDGE = 1e-11


class ModelKind(enum.Enum):
    SIMPLIFIED = "simplified"
    FULL = "full"


class Termination(enum.Enum):
    TIME_LIMIT = "time_limit"
    LAMBDA_FLOOR = "lambda_floor"
    COMPLEX_SNOWLINE = "complex_snowline"


@dataclass
class Trajectory:
    """Integration output as parallel arrays (times strictly increasing)."""

    times: np.ndarray
    thetas: np.ndarray
    lams: np.ndarray
    terminated: Termination
    regimes: list[str] | None = None

    @property
    def states(self) -> list[State]:
        return [State(theta=t, lam=l) for t, l in zip(self.thetas, self.lams)]

    @property
    def final_state(self) -> State:
        return State(theta=float(self.thetas[-1]), lam=float(self.lams[-1]))


@dataclass
class LimitCycle:
    period: float
    amplitude_theta: float
    amplitude_lambda: float
    section_points: list[State]
    converged: bool


@dataclass(frozen=True)
class BifRow:
    mu: float
    kind: Classification | None
    period: float | None = None
    amplitude_theta: float | None = None
    amplitude_lambda: float | None = None


@dataclass
class BifurcationDiagram:
    rows: list[BifRow] = field(default_factory=list)


def _lambda0_soft(lam: float, epsilon: float) -> float:
    # Clamped for solver trial steps; the exact version raises instead.
    radicand = max(epsilon + 2.0 * lam + 0.25, 0.0)
    return (-(epsilon + lam + 0.5) + math.sqrt(radicand)) / lam


def _make_rhs_simplified(params: ModelParams, mu: float):
    beta, gm, a1, a2 = params.beta, params.gamma, params.alpha1, params.alpha2

    def rhs(t, y):
        theta, lam = y
        alb = response_eval(params.albedo, theta, 0)
        xi = response_eval(params.accum, theta, 0)
        dtheta = mu * (1.0 + beta - gm * (a1 + a2 * lam) - (1.0 - gm) * alb - theta)
        dlam = math.sqrt(max(lam, 0.0)) * ((1.0 + xi) * (1.0 - 4.0 * lam) - 1.0)
        return (dtheta, dlam)

    return rhs


def _make_jac_simplified(params: ModelParams, mu: float):
    """Analytic Jacobian of _make_rhs_simplified's field, for implicit solvers."""
    gm = params.gamma
    dtheta_dlam = -mu * gm * params.alpha2

    def jac(t, y):
        theta, lam = y
        root = math.sqrt(max(lam, LAMBDA_FLOOR))
        xi = response_eval(params.accum, theta, 0)
        dalb = response_eval(params.albedo, theta, 1)
        dxi = response_eval(params.accum, theta, 1)
        bracket = (1.0 + xi) * (1.0 - 4.0 * lam) - 1.0
        return np.array(
            [
                [-mu * (1.0 + (1.0 - gm) * dalb), dtheta_dlam],
                [
                    root * (1.0 - 4.0 * lam) * dxi,
                    bracket / (2.0 * root) - 4.0 * root * (1.0 + xi),
                ],
            ]
        )

    return jac


def _make_rhs_full(params: ModelParams, mu: float, regime: Regime):
    beta, gm, a1, a2, eps = (
        params.beta,
        params.gamma,
        params.alpha1,
        params.alpha2,
        params.epsilon,
    )

    def rhs(t, y):
        theta, lam = y
        lam_s = max(lam, LAMBDA_FLOOR)
        alb = response_eval(params.albedo, theta, 0)
        xi = response_eval(params.accum, theta, 0)
        dtheta = mu * (1.0 + beta - gm * (a1 + a2 * lam) - (1.0 - gm) * alb - theta)
        if regime is Regime.NUCLEATION:
            dlam = -(xi / (2.0 * math.sqrt(lam_s))) * eps
        elif regime is Regime.ACCUMULATING:
            dlam = math.sqrt(lam_s) * ((1.0 + xi) * _lambda0_soft(lam_s, eps) - 1.0)
        else:
            dlam = -math.sqrt(lam_s)
        return (dtheta, dlam)

    return rhs


def _regime_of(params: ModelParams, lam: float) -> Regime:
    eps = params.epsilon
    if eps < 0 and lam < -eps / 2.0:
        return Regime.NUCLEATION
    return Regime.ACCUMULATING if _lambda0_soft(lam, eps) >= 0 else Regime.STAGNANT


def _floor_event(t, y):
    return y[1] - LAMBDA_FLOOR


_floor_event.terminal = True
_floor_event.direction = -1


def _segment_events(params: ModelParams, regime: Regime):
    """Outbound boundary events for the regime, plus the floor.

    Returns (events, targets) where targets[i] is the regime entered when
    events[i+1] fires (index 0 is always the floor).
    """
    eps = params.epsilon

    def ev_l0(t, y):
        return _lambda0_soft(max(y[1], LAMBDA_FLOOR), eps)

    def ev_nucl(t, y):
        return y[1] + eps / 2.0

    events = [_floor_event]
    targets: list[Regime] = []
    if regime is Regime.NUCLEATION:
        ev_nucl.terminal = True
        ev_nucl.direction = 1
        events.append(ev_nucl)
        targets.append(Regime.ACCUMULATING)
    elif regime is Regime.ACCUMULATING:
        ev_l0.terminal = True
        ev_l0.direction = -1
        events.append(ev_l0)
        targets.append(Regime.STAGNANT)
        if eps < 0:
            ev_nucl.terminal = True
            ev_nucl.direction = -1
            events.append(ev_nucl)
            targets.append(Regime.NUCLEATION)
    else:  # STAGNANT; lambda0 = 1 at the nucleation boundary, so the only exit
        # is back through lambda0 = 0.
        ev_l0.terminal = True
        ev_l0.direction = 1
        events.append(ev_l0)
        targets.append(Regime.ACCUMULATING)
    return events, targets


def _check_solver_status(sol, last_y):
    if sol.status == -1:
        raise StiffnessError(
            sol.message, time=float(sol.t[-1]), state=(float(last_y[0]), float(last_y[1]))
        )


def integrate(
    params: ModelParams,
    mu: float,
    initial: State,
    t_end: float,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-11,
    model: ModelKind = ModelKind.SIMPLIFIED,
) -> Trajectory:
    """Integrate from the initial state up to tau = t_end.

    The method follows mu: RK45 up to STIFF_MU, Radau above it (see the
    module docstring). The simplified model runs in one solver call; the
    full model restarts at every located regime-boundary crossing, nudging
    the state one tiny Euler step into the new regime so the next segment
    starts strictly off the boundary. Either model terminates early when
    lambda reaches the floor. A non-finite or non-positive mu raises
    DomainError.
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not 1e-14 <= tol <= 1e-3:
            raise ValueError(f"{name} must lie in [1e-14, 1e-3], got {tol}")
    if not (math.isfinite(mu) and mu > 0):
        raise DomainError(f"mu must be finite and positive, got {mu}")
    stiff = mu > STIFF_MU
    method = "Radau" if stiff else "RK45"

    if model is ModelKind.SIMPLIFIED:
        rhs = _make_rhs_simplified(params, mu)
        extra = {"jac": _make_jac_simplified(params, mu)} if stiff else {}
        sol = solve_ivp(
            rhs,
            (0.0, t_end),
            (initial.theta, initial.lam),
            method=method,
            rtol=rel_tol,
            atol=abs_tol,
            events=[_floor_event],
            **extra,
        )
        _check_solver_status(sol, sol.y[:, -1])
        terminated = (
            Termination.LAMBDA_FLOOR if sol.status == 1 else Termination.TIME_LIMIT
        )
        return Trajectory(
            times=sol.t.copy(),
            thetas=sol.y[0].copy(),
            lams=sol.y[1].copy(),
            terminated=terminated,
        )

    # Full model: one solver segment per regime.
    t0 = 0.0
    y0 = (initial.theta, initial.lam)
    all_t: list[np.ndarray] = []
    all_y: list[np.ndarray] = []
    all_reg: list[str] = []
    terminated = Termination.TIME_LIMIT
    for _ in range(_MAX_SEGMENTS):
        regime = _regime_of(params, max(y0[1], LAMBDA_FLOOR))
        rhs = _make_rhs_full(params, mu, regime)
        events, targets = _segment_events(params, regime)
        sol = solve_ivp(
            rhs, (t0, t_end), y0, method=method, rtol=rel_tol, atol=abs_tol,
            events=events,
        )
        _check_solver_status(sol, sol.y[:, -1])
        all_t.append(sol.t)
        all_y.append(sol.y)
        all_reg.extend([regime.value] * len(sol.t))
        if sol.status == 0:
            break
        fired = [i for i, te in enumerate(sol.t_events) if len(te)]
        if 0 in fired:
            terminated = Termination.LAMBDA_FLOOR
            break
        idx = fired[0]
        target = targets[idx - 1]
        t_star = float(sol.t[-1])
        y_star = sol.y[:, -1]
        # Euler nudge into the target regime keeps the restart strictly off
        # the boundary zero (well inside the 1e-10 location tolerance).
        nudge_rhs = _make_rhs_full(params, mu, target)
        dy = nudge_rhs(t_star, y_star)
        t0 = t_star + _NUDGE
        y0 = (y_star[0] + _NUDGE * dy[0], y_star[1] + _NUDGE * dy[1])
        if t0 >= t_end:
            break
    else:
        last = all_y[-1][:, -1]
        raise StiffnessError(
            "regime switching did not settle (segment budget exhausted)",
            time=float(all_t[-1][-1]),
            state=(float(last[0]), float(last[1])),
        )

    times = np.concatenate(all_t)
    ys = np.concatenate(all_y, axis=1)
    return Trajectory(
        times=times,
        thetas=ys[0].copy(),
        lams=ys[1].copy(),
        terminated=terminated,
        regimes=all_reg,
    )


def _perturbation_direction(
    cp: CriticalPoint, mu: float, alpha2: float, gamma: float
) -> tuple[float, float]:
    jac = jacobian(cp, mu, alpha2, gamma)
    m = np.array([[jac.a11, jac.a12], [jac.a21, jac.a22]])
    vals, vecs = np.linalg.eig(m)
    i = int(np.argmax(vals.real))
    v = np.real(vecs[:, i])
    n = float(np.hypot(v[0], v[1]))
    if n < 1e-12:
        return 1.0, 0.0
    return float(v[0] / n), float(v[1] / n)


def poincare_cycle(
    params: ModelParams,
    mu: float,
    cp: CriticalPoint,
    transient: float = 200.0,
    max_time: float = 20_000.0,
    tol: float = 1e-7,
    delta: float = 1e-3,
) -> LimitCycle | None:
    """Hunt a limit cycle around cp via the section {theta = theta_c, rising}.

    Starts a trajectory delta off cp along the most unstable eigendirection,
    records upward section crossings after the transient, and declares
    convergence when three consecutive crossing-to-crossing distances in
    lambda drop below tol. Returns None when the orbit spirals into the point
    or the time budget runs out first.
    """
    if not mu > 0:
        raise DomainError(f"mu must be positive, got {mu}")
    dx, dy = _perturbation_direction(cp, mu, params.alpha2, params.gamma)
    y = (cp.theta_c + delta * dx, cp.lambda_c + delta * dy)
    if y[1] <= 0:
        y = (cp.theta_c + delta, cp.lambda_c)

    rhs = _make_rhs_simplified(params, mu)

    def section(t, yy):
        return yy[0] - cp.theta_c

    section.terminal = False
    section.direction = 1

    cross_t: list[float] = []
    cross_lam: list[float] = []
    t_cur = 0.0
    chunk = min(500.0, max_time)
    converged = False
    while t_cur < max_time:
        sol = solve_ivp(
            rhs,
            (t_cur, min(t_cur + chunk, max_time)),
            y,
            method="RK45",
            rtol=1e-9,
            atol=1e-11,
            events=[_floor_event, section],
        )
        _check_solver_status(sol, sol.y[:, -1])
        if sol.status == 1:
            return None  # hit the lambda floor
        cross_t.extend(float(t) for t in sol.t_events[1])
        cross_lam.extend(float(v[1]) for v in sol.y_events[1])
        y = (float(sol.y[0, -1]), float(sol.y[1, -1]))
        t_cur = float(sol.t[-1])

        post = [i for i, t in enumerate(cross_t) if t >= transient]
        if len(post) >= 4:
            lam_tail = [cross_lam[i] for i in post[-4:]]
            if all(abs(l - cp.lambda_c) < 1e-8 for l in lam_tail):
                return None  # spiraled into the equilibrium
        if len(post) >= 6:
            diffs = [
                abs(cross_lam[post[k + 1]] - cross_lam[post[k]])
                for k in range(len(post) - 1)
            ]
            if all(d < tol for d in diffs[-3:]):
                converged = True
                break
    if not converged:
        return None

    idx = [i for i, t in enumerate(cross_t) if t >= transient]
    tail = idx[-6:]
    periods = [cross_t[tail[k + 1]] - cross_t[tail[k]] for k in range(len(tail) - 1)]
    period = float(np.mean(periods))

    # One clean lap from the last crossing for the amplitude measurement.
    start = (cp.theta_c, cross_lam[idx[-1]])
    lap = solve_ivp(
        rhs,
        (0.0, period),
        start,
        method="RK45",
        rtol=1e-9,
        atol=1e-11,
        t_eval=np.linspace(0.0, period, 2001),
    )
    amp_theta = 0.5 * float(lap.y[0].max() - lap.y[0].min())
    amp_lam = 0.5 * float(lap.y[1].max() - lap.y[1].min())
    section_states = [
        State(theta=cp.theta_c, lam=cross_lam[i]) for i in idx[-50:]
    ]
    return LimitCycle(
        period=period,
        amplitude_theta=amp_theta,
        amplitude_lambda=amp_lam,
        section_points=section_states,
        converged=True,
    )


def amplitude_curve(
    params: ModelParams,
    cp: CriticalPoint,
    mus: list[float],
    **cycle_kwargs,
) -> list[tuple[float, float | None]]:
    """Cycle theta-amplitude per mu; None where no cycle is detected."""
    out = []
    for mu in mus:
        cycle = poincare_cycle(params, mu, cp, **cycle_kwargs)
        out.append((mu, cycle.amplitude_theta if cycle is not None else None))
    return out


def sweep_mu(
    params: ModelParams,
    mu_grid: list[float],
    cp: CriticalPoint | None = None,
    detect_cycles: bool = False,
    transient: float = 100.0,
    max_time: float = 2_000.0,
    tol: float = 1e-6,
) -> BifurcationDiagram:
    """Classification (and optional cycle data) along a mu grid.

    The tracked equilibrium does not move with mu (the nullclines do not
    involve mu), so continuation is exact; each row still re-verifies the
    equilibrium residual and is marked degenerate (kind None) if it fails.
    """
    grid = sorted(float(m) for m in mu_grid)
    if not grid or grid[0] <= 0:
        raise ValueError("mu grid must be nonempty and positive")
    if cp is None:
        points = find_equilibria(params)
        if not points:
            return BifurcationDiagram(rows=[BifRow(mu=m, kind=None) for m in grid])
        hopfish = [p for p in points if p.g1 > p.f1 > 0]
        cp = hopfish[0] if hopfish else points[0]

    rows = []
    residual = abs(
        nullcline_f(params, cp.theta_c, 0) - nullcline_g(params, cp.theta_c, 0)
    )
    for mu in grid:
        if residual > 1e-9:
            rows.append(BifRow(mu=mu, kind=None))
            continue
        kind = classify(cp, mu, params.alpha2, params.gamma)
        period = amp_t = amp_l = None
        if detect_cycles and kind in (
            Classification.UNSTABLE_FOCUS,
            Classification.HOPF_CENTER,
        ):
            cycle = poincare_cycle(
                params, mu, cp, transient=transient, max_time=max_time, tol=tol
            )
            if cycle is not None:
                period = cycle.period
                amp_t = cycle.amplitude_theta
                amp_l = cycle.amplitude_lambda
        rows.append(
            BifRow(
                mu=mu,
                kind=kind,
                period=period,
                amplitude_theta=amp_t,
                amplitude_lambda=amp_l,
            )
        )
    return BifurcationDiagram(rows=rows)
