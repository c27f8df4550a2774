"""Time integration, limit-cycle detection, and mu sweeps.

`integrate` chooses its method from mu. theta relaxes about mu times faster
than lambda, so for large mu an explicit step is capped by stability rather
than accuracy. Up to STIFF_MU it uses the explicit Dormand-Prince pair of
order 8(5,3); at the default tolerance of 1e-9 it takes less than half the
steps of a 5(4) pair on hopf_demo, for about the same number of RHS calls
(Hairer, Norsett & Wanner, Solving ODEs I, II.5, II.6 and II.10). Above
STIFF_MU it uses the implicit Radau IIA method of order 5 (Solving ODEs II,
IV.8), with the analytic model.make_jacobian for the simplified model and
forward differences for the full one. Both are scipy's methods on Python
floats, in glacier_dyn._solvers (loaded on the first integration), which
also holds their shared first-step rule and event location; they step the
rates closure that model.make_rates builds once per segment. This module
holds the model-level logic. The full model is integrated piecewise:
within a segment the mass-balance regime is fixed, and each regime arms
only the events for boundaries it can actually leave through, so a restart
exactly on a boundary zero cannot re-trigger the crossing just handled.

Limit cycles are shot, not waited for: Newton's method on the return map of
a section (Kuznetsov, Elements of Applied Bifurcation Theory, 3.5 and 10.3),
whose laps run on DOP853 with the variational equation as two more floats.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .equilibria import CriticalPoint, find_equilibria
from .errors import DomainError, GlacierDynError, StiffnessError
from .model import (
    LAMBDA_FLOOR,
    ModelParams,
    Regime,
    State,
    _snow_line,
    make_jacobian,
    make_rates,
    nullcline_f,
    nullcline_g,
    regime_of,
)
from .stability import Classification, Criticality, classify, hopf_analysis, jacobian

# Above this mu the temperature equation makes the system stiff enough that
# Radau beats DOP853. On hopf_demo from (1.40, 0.05) the cost crossover lies
# between mu = 60 and 150 for runs of t = 50 to 100 (at mu = 300 and t = 100
# Radau writes 445 rows against DOP853's 4,716), and between mu = 300 and
# 1,000 for t = 10, where Radau's fixed cost dominates.
STIFF_MU = 100.0
_MAX_SEGMENTS = 10_000
_NUDGE = 1e-11
# Cycle shooting: tolerance, Newton's stop (a step below _SHOOT_XTOL * lambda_c),
# the lap length, in periods 2*pi/sqrt(det J), past which an orbit escaped,
# and the laps Newton may take from the normal form (near a fold of cycles,
# where the multiplier nears 1, it needs 9).
_SHOOT_RTOL = 1e-11
_SHOOT_XTOL = 1e-10
_LAP_CAP = 4.0
_NEWTON_LAPS = 12


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on call. The package's own steppers
    no longer call it; it stays for callers that use or patch it by name."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


class ModelKind(enum.Enum):
    SIMPLIFIED = "simplified"
    FULL = "full"


class Termination(enum.Enum):
    TIME_LIMIT = "time_limit"
    LAMBDA_FLOOR = "lambda_floor"


@dataclass
class SolverStats:
    """What a solver did, summed over integrate's segments or a cycle hunt's
    laps: RHS and Jacobian evaluations, accepted steps, rejected steps (for
    Radau also those whose Newton iteration failed) and events located."""

    method: str
    nfev: int = 0
    njev: int = 0
    steps: int = 0
    rejected: int = 0
    events: int = 0


@dataclass
class Trajectory:
    """Integration output as parallel arrays (times strictly increasing)."""

    times: np.ndarray
    thetas: np.ndarray
    lams: np.ndarray
    terminated: Termination
    regimes: list[str] | None = None
    stats: SolverStats | None = None

    @property
    def final_state(self) -> State:
        return State(theta=float(self.thetas[-1]), lam=float(self.lams[-1]))


@dataclass
class LimitCycle:
    """A periodic orbit. section_points are the start and the return of its
    lap on the section {theta = theta_c, rising}; multiplier is the
    nontrivial Floquet multiplier (below 1 the cycle attracts, above 1 it
    repels); laps counts every lap the hunt integrated, and stats what the
    solver did over all of them."""

    period: float
    amplitude_theta: float
    amplitude_lambda: float
    section_points: list[State]
    multiplier: float
    laps: int
    stats: SolverStats


@dataclass(frozen=True)
class BifRow:
    mu: float
    kind: Classification | None
    period: float | None = None
    amplitude_theta: float | None = None
    amplitude_lambda: float | None = None


def _floor_event(t, y):
    return y[1] - LAMBDA_FLOOR


_floor_event.terminal = True
_floor_event.direction = -1


def _segment_events(params: ModelParams, regime: Regime | None):
    """Outbound boundary events for the regime, plus the floor; only the floor
    for the simplified model (regime None).

    Returns (events, targets) where targets[i] is the regime entered when
    events[i+1] fires (index 0 is always the floor).
    """
    eps = params.epsilon

    def ev_l0(t, y):
        return _snow_line(max(y[1], LAMBDA_FLOOR), eps)[0]

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
    elif regime is Regime.STAGNANT:  # lambda0 = 1 at the nucleation boundary,
        # so the only exit is back through lambda0 = 0.
        ev_l0.terminal = True
        ev_l0.direction = 1
        events.append(ev_l0)
        targets.append(Regime.ACCUMULATING)
    return events, targets


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

    The method follows mu: _solvers.dop853 up to STIFF_MU, _solvers.radau
    above it (see the module docstring); stats counts what the solver did.
    Both models run one segment loop. The simplified model (regime None) has
    no boundaries, so it runs in one segment; the full model restarts at
    every located regime-boundary crossing, nudging the state one tiny Euler
    step into the new regime so the next segment starts strictly off the
    boundary. Either model terminates early when lambda reaches the floor. A
    non-finite or non-positive mu raises DomainError. The solver raises
    StiffnessError where its step falls below 10 ulp of t, and where the
    rates at a segment start overflow its first-step rule (as it does on the
    shooting laps).
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not 1e-14 <= tol <= 1e-3:
            raise ValueError(f"{name} must lie in [1e-14, 1e-3], got {tol}")
    if not (math.isfinite(mu) and mu > 0):
        raise DomainError(f"mu must be finite and positive, got {mu}")
    full = model is ModelKind.FULL
    stiff = mu > STIFF_MU
    from ._solvers import dop853, radau

    # Radau differences the full model's Jacobian; the simplified one is analytic.
    solve = partial(radau, jac=None if full else make_jacobian(params, mu)) if stiff else dop853
    stats = SolverStats("Radau" if stiff else "DOP853")

    # One solver segment per regime.
    t0, y0 = 0.0, (initial.theta, initial.lam)
    segments, regimes = [], [] if full else None
    terminated = Termination.TIME_LIMIT
    for _ in range(_MAX_SEGMENTS):
        regime = regime_of(params, max(y0[1], LAMBDA_FLOOR)) if full else None
        events, targets = _segment_events(params, regime)
        ts, ths, las, fired, _ = solve(make_rates(params, mu, regime), t0, y0, t_end,
                                       rel_tol, abs_tol, events, stats)
        segments.append((ts, ths, las))
        if full:
            regimes.extend([regime.value] * len(ts))
        if fired is None:
            break
        if fired == 0:
            terminated = Termination.LAMBDA_FLOOR
            break
        t_star, y_star = float(ts[-1]), (float(ths[-1]), float(las[-1]))
        # Euler nudge into the target regime keeps the restart strictly off
        # the boundary zero (well inside the 1e-10 location tolerance).
        dy = make_rates(params, mu, targets[fired - 1])(*y_star)
        t0, y0 = t_star + _NUDGE, (y_star[0] + _NUDGE * dy[0], y_star[1] + _NUDGE * dy[1])
        if t0 >= t_end:
            break
    else:
        raise StiffnessError("regime switching did not settle (segment budget exhausted)",
                             time=t_star, state=y_star)
    times, thetas, lams = (np.concatenate(column) for column in zip(*segments))
    return Trajectory(times, thetas, lams, terminated, regimes, stats)


def _make_lap(params: ModelParams, mu: float, cp: CriticalPoint, cap: float, budget: float):
    """lap(lam): one lap of the return map of {theta = theta_c, rising} as a
    LimitCycle that need not close, or None when the orbit escapes: when the
    lap outlasts cap, reaches the lambda floor, or the hunt has spent budget.

    The flow runs with its variational equation for d/dlam to the falling,
    then the rising crossing, on _solvers.dop853. dP/dlam is the variation's
    lambda-row less the return-time shift, (dlambda/dtau)/(dtheta/dtau) times
    its theta-row. Turning points (lambda = f(theta), lambda = g(theta)) give
    the amplitudes. Every lap adds its solver counts to one SolverStats.
    """
    from ._solvers import dop853

    rates, jac = make_rates(params, mu), make_jacobian(params, mu)
    stats = SolverStats("DOP853")
    spent = [0.0, 0]  # time integrated, laps

    def flow(theta, lam, u, v):  # (u, v) = d(theta, lam)/dlam at the start
        (a, b), (c, d) = jac(theta, lam)
        return (*rates(theta, lam), a * u + b * v, c * u + d * v)

    def crossing(t, y):
        return y[0] - cp.theta_c

    def theta_turn(t, y):
        return nullcline_f(params, y[0]) - y[1]

    def lam_turn(t, y):
        return nullcline_g(params, y[0]) - y[1]

    events = [crossing, _floor_event, theta_turn, lam_turn]
    crossing.terminal, theta_turn.terminal, lam_turn.terminal = True, False, False
    theta_turn.direction = lam_turn.direction = 0

    def lap(lam: float) -> LimitCycle | None:
        spent[1] += 1
        y, t, t_max = (cp.theta_c, lam, 0.0, 1.0), 0.0, min(cap, budget - spent[0])
        if t_max <= 0:
            return None
        thetas, lams = [cp.theta_c], [lam]
        for direction in (-1, 1):
            crossing.direction = direction
            ts, *ys, fired, hits = dop853(flow, t, y, t_max, _SHOOT_RTOL, _SHOOT_RTOL * 1e-2,
                                          events, stats)
            spent[0] += ts[-1] - t
            thetas += [state[0] for i, _, state in hits if i == 2]
            lams += [state[1] for i, _, state in hits if i == 3]
            if fired != 0:
                return None
            t, y = ts[-1], tuple(column[-1] for column in ys)
        dtheta, dlam = rates(y[0], y[1])
        return LimitCycle(
            period=t,
            amplitude_theta=0.5 * (max(thetas) - min(thetas)),
            amplitude_lambda=0.5 * (max(lams) - min(lams)),
            section_points=[State(cp.theta_c, lam), State(cp.theta_c, y[1])],
            multiplier=y[3] - dlam / dtheta * y[2],
            laps=spent[1],
            stats=stats,
        )

    return lap


def _normal_form_start(params: ModelParams, mu: float, cp: CriticalPoint) -> float | None:
    """Section lambda of the Hopf normal-form cycle, None where it has none.

    In the rotation chart of the critical eigenvector (psi = lambda -
    lambda_c) the cycle is a circle of radius r, r^2 = -2 d (mu - mu0) /
    (omega0 l1) with the transversality d and this package's l1. Its rising
    crossing of theta = theta_c lies r*sqrt(1 - f'/g') below lambda_c.
    """
    try:
        hopf = hopf_analysis(cp)
    except GlacierDynError:
        return None
    r2 = -2.0 * hopf.transversality * (mu - hopf.mu0) / (hopf.omega0 * hopf.l1) if hopf.l1 else 0.0
    return cp.lambda_c - math.sqrt(r2 * (1.0 - cp.f1 / cp.g1)) if r2 > 0 else None


def poincare_cycle(
    params: ModelParams,
    mu: float,
    cp: CriticalPoint,
    max_time: float = 200.0,
) -> LimitCycle | None:
    """Limit cycle around cp by Newton shooting on the section
    {theta = theta_c, rising}, where lambda < lambda_c.

    Newton solves P(lam) = lam for the return map P, starting from the Hopf
    normal form. If it leaves its basin, a geometric scan of P(lam) - lam outward
    from lambda_c brackets a root for Newton safeguarded by bisection. Stable
    and unstable cycles are found alike. Returns None for a saddle (no closed
    orbit surrounds one alone), when the scan finds no sign change before the
    orbit escapes, when Newton does not converge, or once max_time time units
    are integrated.
    """
    if not (math.isfinite(mu) and mu > 0):
        raise DomainError(f"mu must be finite and positive, got {mu}")
    if not max_time > 0:
        raise ValueError(f"max_time must be positive, got {max_time}")
    det = jacobian(cp, mu).det
    if not det > 0:
        return None
    lam_c = cp.lambda_c
    lap = _make_lap(params, mu, cp, _LAP_CAP * 2.0 * math.pi / math.sqrt(det), max_time)

    def newton(lam: float, bracket: list | None, laps: int) -> LimitCycle | None:
        # Unbracketed, keep 1e-6 * lambda_c off the focus, a trivial fixed point.
        for _ in range(laps):
            if bracket:
                (lo, _), (hi, _) = sorted(bracket)
                lam = lam if lo < lam < hi else 0.5 * (lo + hi)
            elif not 0.0 < lam < lam_c * (1.0 - 1e-6):
                return None
            if (cycle := lap(lam)) is None:
                return None
            disp = cycle.section_points[1].lam - lam
            step = -disp / (cycle.multiplier - 1.0)
            if abs(step) <= _SHOOT_XTOL * lam_c:
                return cycle
            if bracket:
                bracket = [b for b in bracket if (b[1] > 0) != (disp > 0)] + [(lam, disp)]
            lam += step
        return None

    lam = _normal_form_start(params, mu, cp)
    if lam is not None and (cycle := newton(lam, None, _NEWTON_LAPS)) is not None:
        return cycle
    prev, s = None, 1e-4 * lam_c
    while s < lam_c:
        if (cycle := lap(lam_c - s)) is None:
            return None
        here = (lam_c - s, cycle.section_points[1].lam - (lam_c - s))
        if prev is not None and (here[1] > 0) != (prev[1] > 0):
            return newton(here[0] - here[1] / (cycle.multiplier - 1.0), [prev, here], 40)
        prev, s = here, 8.0 * s
    return None


def sweep_mu(
    params: ModelParams,
    mu_grid: list[float],
    cp: CriticalPoint | None = None,
    detect_cycles: bool = False,
) -> list[BifRow]:
    """Classification (and optional cycle data) along a mu grid, one row per
    mu in ascending order.

    The tracked equilibrium does not move with mu (the nullclines do not
    involve mu), so continuation is exact. Its residual is checked once;
    every row is marked degenerate (kind None) when it fails or when there
    is no equilibrium. With detect_cycles, cycles are hunted on unstable-focus
    and Hopf-center rows, and also on stable-focus rows when the onset is
    subcritical: there the repelling cycle surrounds the stable focus below
    mu0.
    """
    grid = sorted(float(m) for m in mu_grid)
    if not grid or not all(math.isfinite(m) and m > 0 for m in grid):
        raise ValueError("mu grid must be nonempty, finite and positive")
    if cp is None:
        points = find_equilibria(params)
        hopfish = [p for p in points if p.g1 > p.f1 > 0]
        cp = hopfish[0] if hopfish else points[0] if points else None
    if cp is None or abs(
        nullcline_f(params, cp.theta_c, 0) - nullcline_g(params, cp.theta_c, 0)
    ) > 1e-9:
        return [BifRow(mu=m, kind=None) for m in grid]

    hunt = {Classification.UNSTABLE_FOCUS, Classification.HOPF_CENTER}
    if detect_cycles and cp.g1 > cp.f1 > 0 and hopf_analysis(cp).criticality is Criticality.SUBCRITICAL:
        hunt.add(Classification.STABLE_FOCUS)
    rows = []
    for mu in grid:
        kind = classify(cp, mu)
        cycle = poincare_cycle(params, mu, cp) if detect_cycles and kind in hunt else None
        rows.append(BifRow(mu, kind) if cycle is None else BifRow(
            mu, kind, cycle.period, cycle.amplitude_theta, cycle.amplitude_lambda))
    return rows
