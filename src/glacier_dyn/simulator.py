"""Time integration, limit-cycle detection, and mu sweeps.

`integrate` chooses its method from mu. theta relaxes about mu times faster
than lambda, so for large mu an explicit step is capped by stability rather
than accuracy. Up to STIFF_MU it uses the explicit Dormand-Prince pair of
order 8(5,3); at the default tolerance of 1e-9 it takes less than half the
steps of a 5(4) pair on hopf_demo, for about the same number of RHS calls
(Hairer, Norsett & Wanner, Solving ODEs I, II.5, II.6 and II.10). That pair
runs in _dop853, a loop on Python floats with scipy's DOP853 tableau and
step controller: scipy's solve_ivp spends most of its time on per-step
array bookkeeping for a 2-vector. A step is one compiled function with the
tableau as literals, and it calls the rates closure that model.make_rates
builds once per segment. Above STIFF_MU it uses the implicit Radau IIA
method of order 5 (Solving ODEs II, IV.8), scipy's Radau ported decision
for decision onto two floats (_solvers.radau), with the analytic
model.make_jacobian for the simplified model and forward differences for
the full one. Either way events are
located on dense output. The full model is integrated piecewise: within a
segment the mass-balance regime is fixed, and each regime arms only the
events for boundaries it can actually leave through, so a restart exactly
on a boundary zero cannot re-trigger the crossing just handled.

Limit cycles are shot, not waited for: Newton's method on the return map of
a section (Kuznetsov, Elements of Applied Bifurcation Theory, 3.5 and 10.3),
whose laps run on _dop853 with the variational equation as two more floats.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cache
from operator import mul, truediv

import numpy as np

from .equilibria import CriticalPoint, find_equilibria
from .errors import DomainError, GlacierDynError, StiffnessError
from .model import (
    LAMBDA_FLOOR,
    ModelParams,
    Regime,
    State,
    _snow_line,
    bisect,
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


_EPS = math.ulp(1.0)


@cache
def _dop853_stages(n: int):
    """(step, dense) for a state of n components, compiled with DOP853's
    tableau written out as literals, as dataclasses compiles __init__.

    step(rates, h, y, f) takes stages 1-12 of a step of size h from y, where
    f = rates(*y), and returns (new state, E5 sums, E3 sums, each component's
    rates at stages 0-12). dense(rates, h, y, ks) extends those rates with
    stages 13-15 of the same step. Every sum keeps all its terms, zeros
    included, and adds them left to right from 0, as sum(map(mul, a, k))
    does up to Python 3.11, so each number keeps its bits, also where a
    stage is not finite.
    """
    from ._solvers import DOP853_A as rows, DOP853_E3 as e3, DOP853_E5 as e5

    seq = ", ".join
    ys, zs = (seq(f"{c}{i}" for i in range(n)) for c in "yz")

    def dot(coefs, i):  # sum(map(mul, coefs, k_i)), term by term from 0
        return "(0.0" + "".join(f" + {c!r} * k{i}_{s}" for s, c in enumerate(coefs)) + ")"

    def stages(first, stop):
        return "".join(f"""
    {zs}, = {seq(f"y{i} + {dot(rows[s], i)} * h" for i in range(n))},
    {seq(f"k{i}_{s}" for i in range(n))}, = rates({zs})""" for s in range(first, stop))

    def ks(stop):
        return seq(f"({seq(f'k{i}_{s}' for s in range(stop))},)" for i in range(n))

    src = f"""def step(rates, h, y, f):
    ({ys},), ({seq(f"k{i}_0" for i in range(n))},) = y, f{stages(1, 13)}
    return ({zs},), ({seq(dot(e5, i) for i in range(n))},), \\
        ({seq(dot(e3, i) for i in range(n))},), ({ks(13)},)


def dense(rates, h, y, ks):
    ({ys},), ({ks(13)},) = y, ks{stages(13, 16)}
    return ({ks(16)},)
"""
    namespace = {}
    exec(src, namespace)
    return namespace["step"], namespace["dense"]


def _dop853(rates, t0, y0, t_end, rtol, atol, events, stats):
    """scipy's DOP853 on a tuple of n floats: rates(*y) is an autonomous field.

    Same tableau, initial step, error norm, step controller, 10-ulp minimum
    step (StiffnessError below it) and 100*eps floor on rtol as
    solve_ivp(method="DOP853"). After each step every event is checked for a
    sign change in its direction; only then is the 7th-order dense output
    built and the root bisected on it. A terminal event ends the run with its
    root as the last row. Counts go into stats. Returns (times, one column
    per component of y, index of the terminal event or None, the
    non-terminal events located as (event index, root, state)).
    """
    from ._solvers import DOP853_D as dense

    n, (step, dense_stages) = len(y0), _dop853_stages(len(y0))
    rtol, t, y = max(rtol, 100 * _EPS), t0, list(y0)
    f = rates(*y)
    # select_initial_step for an error estimator of order 7.
    scale = [atol + abs(v) * rtol for v in y]

    def rms(v):
        return math.sqrt(sum([q * q for q in map(truediv, v, scale)]) / n)

    d0, d1 = rms(y), rms(f)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    g = rates(*[v + h0 * w for v, w in zip(y, f)])
    d2 = rms([b - a for a, b in zip(f, g)]) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100 * h0, h1, t_end - t)
    stats.nfev += 2
    gs = [ev(t, y) for ev in events]
    out, hits = [(t, *y)], []
    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise StiffnessError("Required step size is less than spacing between numbers.",
                                     time=t, state=tuple(y[:2]))
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            ys, s5, s3, ks = step(rates, h, y, f)
            stats.nfev += 12
            n5 = n3 = 0.0
            for v, w, a, b in zip(y, ys, s5, s3):
                scale = atol + max(abs(v), abs(w)) * rtol
                q5, q3 = a / scale, b / scale
                n5, n3 = n5 + q5 * q5, n3 + q3 * q3
            err = h * n5 / math.sqrt((n5 + 0.01 * n3) * n) if n5 or n3 else 0.0
            if err < 1:
                factor = min(10.0, 0.9 * err**-0.125) if err else 10.0
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(0.2, 0.9 * err**-0.125)
            rejected = True
            stats.rejected += 1
        t_old, y_old, t, y, f = t, y, t_new, ys, [k[12] for k in ks]
        stats.steps += 1
        new_gs = [ev(t, y) for ev in events]
        located = [i for i, (ev, g, g_new) in enumerate(zip(events, gs, new_gs))
                   if (ev.direction >= 0 and g <= 0 <= g_new) or (ev.direction <= 0 and g >= 0 >= g_new)]
        gs = new_gs
        if located:
            ks = dense_stages(rates, h, y_old, ks)
            stats.nfev += 3
            ps = []
            for v_old, v, k in zip(y_old, y, ks):
                dv = v - v_old
                ps.append([dv, h * k[0] - dv, 2 * dv - h * (k[12] + k[0])]
                          + [h * sum(map(mul, d, k)) for d in dense])

            def sol(tau):
                x, qs = (tau - t_old) / h, [0.0] * n
                for i in range(6, -1, -1):
                    w = x if i % 2 == 0 else 1.0 - x
                    qs = [(q + p[i]) * w for q, p in zip(qs, ps)]
                return tuple(v + q for v, q in zip(y_old, qs))

            roots = sorted(
                (bisect(lambda tau: events[i](tau, sol(tau)), t_old, t,
                        xtol=4 * _EPS, rtol=4 * _EPS), i)
                for i in located
            )
            for root, i in roots:
                stats.events += 1
                if events[i].terminal:
                    out.append((root, *sol(root)))
                    return (*zip(*out), i, hits)
                hits.append((i, root, sol(root)))
        out.append((t, *y))
    return (*zip(*out), None, hits)


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

    The method follows mu: the in-package DOP853 loop up to STIFF_MU, the
    in-package Radau loop above it (see the module docstring); stats counts
    what the solver did. Both models run one segment loop. The simplified
    model (regime None) has no boundaries, so it runs in one segment; the
    full model restarts at every located regime-boundary crossing, nudging
    the state one tiny Euler step into the new regime so the next segment
    starts strictly off the boundary. Either model terminates early when
    lambda reaches the floor. A non-finite or non-positive mu raises
    DomainError; rates that overflow the first-step rule at a segment start
    raise StiffnessError.
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
    if stiff:
        from ._solvers import radau

        # Radau differences the full model's Jacobian; the simplified one is analytic.
        jac = None if full else make_jacobian(params, mu)
    stats = SolverStats("Radau" if stiff else "DOP853")

    # One solver segment per regime.
    t0 = 0.0
    y0 = (initial.theta, initial.lam)
    all_t, all_th, all_la = [], [], []
    all_reg: list[str] | None = [] if full else None
    terminated = Termination.TIME_LIMIT
    for _ in range(_MAX_SEGMENTS):
        regime = regime_of(params, max(y0[1], LAMBDA_FLOOR)) if full else None
        events, targets = _segment_events(params, regime)
        # Both first-step rules take the RMS of rate/(abs_tol + |y|*rel_tol)
        # and fail, with no typed error, where it overflows.
        rates = make_rates(params, mu, regime)
        f0 = rates(*y0)
        scaled = [r / (abs_tol + abs(v) * rel_tol) for r, v in zip(f0, y0)]
        if not math.isfinite(sum([q * q for q in scaled])):
            raise StiffnessError(f"rates {f0} at (theta, lambda) = {y0} overflow the "
                                 "first-step rule", time=t0, state=y0)
        if stiff:
            ts, ths, las, fired = radau(rates, jac, t0, y0, t_end, rel_tol, abs_tol, events, stats)
        else:
            ts, ths, las, fired, _ = _dop853(rates, t0, y0, t_end, rel_tol, abs_tol, events, stats)
        all_t.append(ts)
        all_th.append(ths)
        all_la.append(las)
        if full:
            all_reg.extend([regime.value] * len(ts))
        if fired is None:
            break
        if fired == 0:
            terminated = Termination.LAMBDA_FLOOR
            break
        target = targets[fired - 1]
        t_star, y_star = float(ts[-1]), (float(ths[-1]), float(las[-1]))
        # Euler nudge into the target regime keeps the restart strictly off
        # the boundary zero (well inside the 1e-10 location tolerance).
        dy = make_rates(params, mu, target)(*y_star)
        t0 = t_star + _NUDGE
        y0 = (y_star[0] + _NUDGE * dy[0], y_star[1] + _NUDGE * dy[1])
        if t0 >= t_end:
            break
    else:
        raise StiffnessError(
            "regime switching did not settle (segment budget exhausted)",
            time=float(all_t[-1][-1]),
            state=(float(all_th[-1][-1]), float(all_la[-1][-1])),
        )

    return Trajectory(
        times=np.concatenate(all_t),
        thetas=np.concatenate(all_th),
        lams=np.concatenate(all_la),
        terminated=terminated,
        regimes=all_reg,
        stats=stats,
    )


def _make_lap(params: ModelParams, mu: float, cp: CriticalPoint, cap: float, budget: float):
    """lap(lam): one lap of the return map of {theta = theta_c, rising} as a
    LimitCycle that need not close, or None when the orbit escapes: when the
    lap outlasts cap, reaches the lambda floor, or the hunt has spent budget.

    The flow runs with its variational equation for d/dlam to the falling,
    then the rising crossing, on _dop853. dP/dlam is the variation's
    lambda-row less the return-time shift, (dlambda/dtau)/(dtheta/dtau) times
    its theta-row. Turning points (lambda = f(theta), lambda = g(theta)) give
    the amplitudes. Every lap adds its solver counts to one SolverStats.
    """
    rates, jac = make_rates(params, mu), make_jacobian(params, mu)
    stats = SolverStats("DOP853")
    spent = [0.0, 0]  # time integrated, laps

    def flow(theta, lam, u, v):  # (u, v) = d(theta, lam)/dlam at the start
        (a, b), (c, d) = jac(None, (theta, lam))
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
            ts, *ys, fired, hits = _dop853(flow, t, y, t_max, _SHOOT_RTOL, _SHOOT_RTOL * 1e-2,
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
