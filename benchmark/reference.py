"""Independent reference for the benchmark checkers.

Everything here is written out from the model equations in the repository
README; nothing is imported from glacier_dyn. It holds the tanh responses,
the nullclines f and g, the simplified and full right-hand sides, the regime
rule, the nondimensionalisation, finite-difference Jacobians, a fine
equilibrium scan, Kuznetsov's first Lyapunov coefficient, and scipy Radau /
DOP853 reference integrations (trajectories and limit cycles by shooting on
the return map).

The one reference too costly to recompute on every run, the near-onset cycle
of hopf_demo, is stored in data/near_onset_cycle.json. Regenerate it with

    python3 benchmark/reference.py --regenerate

which integrates 12,000 time units with DOP853 and confirms the result by
shooting.
"""

from __future__ import annotations

import argparse
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

HERE = os.path.dirname(os.path.abspath(__file__))
NEAR_ONSET_FILE = os.path.join(HERE, "data", "near_onset_cycle.json")
NEAR_ONSET_MU = 2.616
YEAR_S = 365.25 * 86400.0

# Reference integration tolerances: three orders tighter than the program's
# rtol 1e-9 / atol 1e-11, so reference error is negligible in every check.
REF_RTOL = 1e-12
REF_ATOL = 1e-14


# --- parameters -----------------------------------------------------------


@dataclass(frozen=True)
class Curve:
    """tanh response lm + (lp - lm)/2 * (1 + tanh((theta - c)/s))."""

    lm: float
    lp: float
    c: float
    s: float

    def __call__(self, theta, order: int = 0):
        t = np.tanh((theta - self.c) / self.s)
        h = 0.5 * (self.lp - self.lm)
        if order == 0:
            return 0.5 * (self.lp + self.lm) + h * t
        sech2 = 1.0 - t * t
        if order == 1:
            return h / self.s * sech2
        if order == 2:
            return h / self.s**2 * (-2.0 * t * sech2)
        return h / self.s**3 * (6.0 * t * t - 2.0) * sech2

    def scalar(self, theta: float) -> float:
        return 0.5 * (self.lp + self.lm) + 0.5 * (self.lp - self.lm) * math.tanh(
            (theta - self.c) / self.s
        )


def _curve(d: dict) -> Curve:
    if d.get("family", "tanh") != "tanh":
        raise ValueError("the reference model implements tanh responses only")
    return Curve(
        lm=float(d["limit_minus"]),
        lp=float(d["limit_plus"]),
        c=float(d["center"]),
        s=float(d["steepness"]),
    )


@dataclass(frozen=True)
class Model:
    beta: float
    gamma: float
    alpha1: float
    alpha2: float
    eps: float
    albedo: Curve
    accum: Curve


@dataclass(frozen=True)
class Scales:
    T_star: float  # K
    L_star: float  # m
    t_star: float  # yr
    mu: float


def nondimensionalise(p: dict) -> tuple[Model, Scales]:
    """Dimensionless model and scales from a physical block.

    T* = Q/(4B), H^2 = 4 tau0/(3 rho_i g), L* = H^2/s^2, eps = s h0/H^2,
    t* = (3/2) H^2/(m s) years, mu = t*/(c T*/(Q/4)) = (3/2) B H^2/(m s c)
    with m in m/s, beta = -4A/Q.
    """
    H2 = 4.0 * p["tau0"] / (3.0 * p["rho_i"] * p.get("grav", 9.81))
    T_star = p["Q"] / (4.0 * p["B"])
    t_star_yr = 1.5 * H2 / (p["m_rate"] * p["s"])
    thermal_s = p["c"] / p["B"]  # temperature relaxation time, seconds
    mu = t_star_yr * YEAR_S / thermal_s
    model = Model(
        beta=-4.0 * p["A"] / p["Q"],
        gamma=p["gamma"],
        alpha1=p["alpha1"],
        alpha2=p["alpha2"],
        eps=p["s"] * p["h0"] / H2,
        albedo=_curve(p["albedo"]),
        accum=_curve(p["accum"]),
    )
    return model, Scales(T_star=T_star, L_star=H2 / p["s"] ** 2, t_star=t_star_yr, mu=mu)


def apply_sets(raw: dict, sets: list[str]) -> dict:
    """Patch a parameter document with KEY=VALUE dotted overrides."""
    raw = json.loads(json.dumps(raw))
    for item in sets:
        key, value = item.split("=", 1)
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node[part]
        try:
            node[parts[-1]] = json.loads(value)
        except json.JSONDecodeError:
            node[parts[-1]] = value
    return raw


def load(raw: dict) -> tuple[Model, Scales | None]:
    """Model (the model block wins) and scales (from the physical block)."""
    model = scales = None
    if "physical" in raw:
        model, scales = nondimensionalise(raw["physical"])
    if "model" in raw:
        m = raw["model"]
        model = Model(
            beta=m["beta"],
            gamma=m["gamma"],
            alpha1=m["alpha1"],
            alpha2=m["alpha2"],
            eps=m["epsilon"],
            albedo=_curve(m["albedo"]),
            accum=_curve(m["accum"]),
        )
    return model, scales


# --- nullclines and vector fields ------------------------------------------


def f_null(m: Model, theta):
    """Temperature nullcline: the lambda that zeroes dtheta/dtau."""
    return (
        (1.0 + m.beta - (1.0 - m.gamma) * m.albedo(theta) - theta) / m.gamma - m.alpha1
    ) / m.alpha2


def g_null(m: Model, theta):
    """Ice nullcline xi/(4(1 + xi))."""
    xi = m.accum(theta)
    return 0.25 * xi / (1.0 + xi)


def snow_line(lam: float, eps: float) -> float:
    return (-(eps + lam + 0.5) + math.sqrt(max(eps + 2.0 * lam + 0.25, 0.0))) / lam


def regime(m: Model, lam: float) -> str:
    if m.eps < 0 and lam < -m.eps / 2.0:
        return "nucleation"
    return "accumulating" if snow_line(lam, m.eps) >= 0 else "stagnant"


def rhs_simplified(m: Model, mu: float):
    a, x = m.albedo, m.accum
    const = 1.0 + m.beta - m.gamma * m.alpha1
    ga2 = m.gamma * m.alpha2
    one_g = 1.0 - m.gamma

    def rhs(t, y):
        th, lam = y
        dth = mu * (const - ga2 * lam - one_g * a.scalar(th) - th)
        dlam = math.sqrt(lam) * ((1.0 + x.scalar(th)) * (1.0 - 4.0 * lam) - 1.0)
        return [dth, dlam]

    return rhs


def jac_simplified(m: Model, mu: float):
    """Analytic Jacobian of the simplified field, for Radau."""

    def jac(t, y):
        th, lam = y
        sq = math.sqrt(lam)
        xi = m.accum.scalar(th)
        return [
            [mu * (-(1.0 - m.gamma) * float(m.albedo(th, 1)) - 1.0), -mu * m.gamma * m.alpha2],
            [
                sq * (1.0 - 4.0 * lam) * float(m.accum(th, 1)),
                ((1.0 + xi) * (1.0 - 4.0 * lam) - 1.0) / (2.0 * sq) - 4.0 * sq * (1.0 + xi),
            ],
        ]

    return jac


def rhs_full(m: Model, mu: float, reg: str):
    simp = rhs_simplified(m, mu)
    eps = m.eps

    def rhs(t, y):
        th, lam = y
        lam = max(lam, 1e-12)
        dth = simp(t, (th, lam))[0]
        xi = m.accum.scalar(th)
        if reg == "nucleation":
            dlam = -xi * eps / (2.0 * math.sqrt(lam))
        elif reg == "accumulating":
            dlam = math.sqrt(lam) * ((1.0 + xi) * snow_line(lam, eps) - 1.0)
        else:
            dlam = -math.sqrt(lam)
        return [dth, dlam]

    return rhs


# --- linearisation ----------------------------------------------------------


def fd_jacobian(m: Model, mu: float, th: float, lam: float) -> np.ndarray:
    """Central differences with one Richardson step on the simplified field."""
    rhs = rhs_simplified(m, mu)
    h = (min(m.albedo.s, m.accum.s) * 1e-3, lam * 1e-4)
    J = np.zeros((2, 2))
    for j in range(2):
        est = []
        for k in (1.0, 0.5):
            e = np.zeros(2)
            e[j] = h[j] * k
            up = np.array(rhs(0, (th + e[0], lam + e[1])))
            dn = np.array(rhs(0, (th - e[0], lam - e[1])))
            est.append((up - dn) / (2.0 * h[j] * k))
        J[:, j] = (4.0 * est[1] - est[0]) / 3.0
    return J


def classify_jacobian(J: np.ndarray, rel: float = 1e-6) -> set[str]:
    """Equilibrium type(s) consistent with the eigenvalues of J.

    Returns one label, or two when the trace or discriminant is within rel
    of zero, where the finite-difference Jacobian cannot decide between the
    neighbouring types.
    """
    tr = J[0, 0] + J[1, 1]
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    disc = tr * tr - 4.0 * det
    scale = tr * tr + 4.0 * abs(det)
    out = set()
    if det < 0:
        return {"saddle"}
    stable = "stable" if tr < 0 else "unstable"
    kind = "node" if disc >= 0 else "focus"
    out.add(f"{stable}_{kind}")
    if abs(disc) <= rel * scale:
        out.add(f"{stable}_{'focus' if kind == 'node' else 'node'}")
    if abs(tr) <= rel * (abs(J[0, 0]) + abs(J[1, 1])):
        out |= {"hopf_center", "stable_focus", "unstable_focus"}
    return out


def partials(m: Model, mu: float, th: float, lam: float):
    """Analytic second and third partials of (F, G) in (theta, lambda)."""
    S = math.sqrt(lam)
    xi = float(m.accum(th))
    x1, x2, x3 = (float(m.accum(th, k)) for k in (1, 2, 3))
    a2, a3 = float(m.albedo(th, 2)), float(m.albedo(th, 3))
    P = (1.0 + xi) * (1.0 - 4.0 * lam) - 1.0
    B = np.zeros((2, 2, 2))
    C = np.zeros((2, 2, 2, 2))
    B[0, 0, 0] = -mu * (1.0 - m.gamma) * a2
    C[0, 0, 0, 0] = -mu * (1.0 - m.gamma) * a3
    w = (1.0 - 4.0 * lam) / (2.0 * S) - 4.0 * S
    B[1, 0, 0] = S * (1.0 - 4.0 * lam) * x2
    B[1, 0, 1] = B[1, 1, 0] = x1 * w
    B[1, 1, 1] = -4.0 * (1.0 + xi) / S - P / (4.0 * S**3)
    C[1, 0, 0, 0] = S * (1.0 - 4.0 * lam) * x3
    for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        C[1][idx] = x2 * w
    v = -4.0 * x1 / S - x1 * (1.0 - 4.0 * lam) / (4.0 * S**3)
    for idx in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        C[1][idx] = v
    C[1, 1, 1, 1] = 3.0 * (1.0 + xi) / S**3 + 3.0 * P / (8.0 * S**5)
    return B, C


def kuznetsov_l1(m: Model, th: float, lam: float) -> tuple[float, float]:
    """(mu0, l1) at the Hopf point of the equilibrium (th, lam).

    Kuznetsov, Elements of Applied Bifurcation Theory, eq. (3.20):
    l1 = Re[<p, C(q,q,qb)> - 2<p, B(q, A^-1 B(q,qb))>
            + <p, B(qb, (2iw - A)^-1 B(q,q))>] / (2w)
    with Aq = iwq, A^T p = -iwp, <p, q> = 1. Its sign is chart-independent.
    """
    J1 = np.array(jac_simplified(m, 1.0)(0.0, (th, lam)))  # F row scales with mu
    mu0 = -J1[1, 1] / J1[0, 0]
    A = J1 * np.array([[mu0], [1.0]])
    B, C = partials(m, mu0, th, lam)
    w = math.sqrt(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    q = np.array([A[0, 1], 1j * w - A[0, 0]])
    p = np.array([A[1, 0], -(A[0, 0] + 1j * w)])  # A^T p = -iw p
    p = p / np.conj(np.vdot(p, q))

    def bl(x, y):
        return np.einsum("ijk,j,k->i", B, x, y)

    def cl(x, y, z):
        return np.einsum("ijkl,j,k,l->i", C, x, y, z)

    qb = q.conj()
    t1 = np.vdot(p, cl(q, q, qb))
    t2 = np.vdot(p, bl(q, np.linalg.solve(A, bl(q, qb))))
    t3 = np.vdot(p, bl(qb, np.linalg.solve(2j * w * np.eye(2) - A, bl(q, q))))
    return mu0, float((t1 - 2.0 * t2 + t3).real / (2.0 * w))


# --- equilibria -----------------------------------------------------------


def equilibria(m: Model, lo: float = 0.5, hi: float = 2.5, n: int = 400_000) -> list[float]:
    """theta of every crossing of f and g with 0 < lambda < 1/4, by a fine
    sign-change scan refined with brentq."""
    grid = np.linspace(lo, hi, n + 1)
    h = f_null(m, grid) - g_null(m, grid)
    idx = np.flatnonzero(np.sign(h[:-1]) * np.sign(h[1:]) < 0)

    def hs(t):
        return float(f_null(m, t) - g_null(m, t))

    roots = [brentq(hs, grid[i], grid[i + 1], xtol=1e-15, rtol=1e-15) for i in idx]
    return [r for r in roots if 0.0 < float(g_null(m, r)) < 0.25]


def hopf_admissible(m: Model, th: float) -> bool:
    """g' > f' > 0 at the crossing (derivatives by central differences)."""
    h = 1e-7
    f1 = (f_null(m, th + h) - f_null(m, th - h)) / (2 * h)
    g1 = (g_null(m, th + h) - g_null(m, th - h)) / (2 * h)
    return g1 > f1 > 0


# --- integrations -----------------------------------------------------------


def radau(m: Model, mu: float, y0, t_end: float):
    """Stiff reference: Radau IIA with the analytic Jacobian, dense output."""
    sol = solve_ivp(
        rhs_simplified(m, mu), (0.0, t_end), y0, method="Radau",
        jac=jac_simplified(m, mu), rtol=REF_RTOL, atol=REF_ATOL, dense_output=True,
    )
    if sol.status != 0:
        raise RuntimeError(f"Radau reference failed: {sol.message}")
    return sol.sol


def dop853(m: Model, mu: float, y0, t_end: float):
    sol = solve_ivp(
        rhs_simplified(m, mu), (0.0, t_end), y0, method="DOP853",
        rtol=REF_RTOL, atol=REF_ATOL, dense_output=True,
    )
    if sol.status != 0:
        raise RuntimeError(f"DOP853 reference failed: {sol.message}")
    return sol.sol


def full_model(m: Model, mu: float, y0, t_end: float):
    """Full-model reference: DOP853 per regime, restarted at each located
    boundary crossing one 1e-11 Euler step inside the new regime.
    Returns [(t0, t1, regime, dense)] segments."""
    eps = m.eps

    def floor(t, y):
        return y[1] - 1e-12

    def nucleation_edge(t, y):
        return y[1] + eps / 2.0

    def snow_line_zero(t, y):
        return snow_line(max(y[1], 1e-12), eps)

    def armed(fn, direction):
        def ev(t, y):
            return fn(t, y)

        ev.terminal, ev.direction = True, direction
        return ev

    floor.terminal = True
    exits = {
        "nucleation": [(armed(nucleation_edge, 1), "accumulating")],
        "accumulating": [(armed(snow_line_zero, -1), "stagnant")]
        + ([(armed(nucleation_edge, -1), "nucleation")] if eps < 0 else []),
        "stagnant": [(armed(snow_line_zero, 1), "accumulating")],
    }
    segs = []
    t0, y = 0.0, list(y0)
    reg = regime(m, y[1])
    while t0 < t_end:
        events = [floor] + [ev for ev, _ in exits[reg]]
        sol = solve_ivp(
            rhs_full(m, mu, reg), (t0, t_end), y, method="DOP853",
            rtol=REF_RTOL, atol=REF_ATOL, dense_output=True, events=events,
        )
        segs.append((t0, float(sol.t[-1]), reg, sol.sol))
        if sol.status != 1:
            break
        if len(sol.t_events[0]):
            raise RuntimeError("full-model reference reached the lambda floor")
        fired = next(i for i in range(1, len(events)) if len(sol.t_events[i]))
        reg = exits[reg][fired - 1][1]
        t0, y = float(sol.t[-1]), list(sol.y[:, -1])
        d = rhs_full(m, mu, reg)(t0, y)
        t0 += 1e-11
        y = [y[0] + 1e-11 * d[0], y[1] + 1e-11 * d[1]]
    return segs


def eval_segments(segs, t: np.ndarray) -> np.ndarray:
    """Reference state at times t; a time in the 1e-11 restart gap belongs
    to the segment before it."""
    starts = np.array([s[0] for s in segs])
    which = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(segs) - 1)
    out = np.empty((2, len(t)))
    for k, (_a, _b, _reg, dense) in enumerate(segs):
        sel = which == k
        out[:, sel] = dense(t[sel])
    return out


# --- limit cycles -----------------------------------------------------------


@dataclass(frozen=True)
class Cycle:
    period: float
    amplitude_theta: float
    amplitude_lambda: float


class Escaped(Exception):
    """The orbit left the neighbourhood of the focus (no cycle around it)."""


def _lap(m: Model, mu: float, th_c: float, lam_c: float, s: float, dense: bool = False):
    """One return to the section theta = th_c (rising) from lambda = lam_c - s."""
    rhs = rhs_simplified(m, mu)

    def crossing(direction):
        def ev(t, y):
            return y[0] - th_c

        ev.terminal, ev.direction = True, direction
        return ev

    def escape(t, y):
        return min(y[0] - (th_c - 0.15), y[1] - 1e-6)

    escape.terminal = True
    pieces = []
    y = [th_c, lam_c - s]
    t = 0.0
    for ev in (crossing(-1), crossing(1)):
        sol = solve_ivp(
            rhs, (t, t + 50.0), y, method="DOP853", rtol=REF_RTOL, atol=REF_ATOL,
            events=[ev, escape], dense_output=dense,
        )
        if sol.status != 1 or len(sol.t_events[1]):
            raise Escaped()
        pieces.append(sol)
        t, y = float(sol.t_events[0][0]), list(sol.y_events[0][0])
    return t, lam_c - y[1], pieces


def shoot_cycle(m: Model, mu: float, th_c: float, lam_c: float) -> Cycle:
    """Attracting cycle around the focus by root-finding on the return map.

    The section is theta = th_c crossed upward (there lambda < lam_c); s is
    the distance below lam_c. Inside the cycle the map pushes s out, outside
    it pulls s in; brentq finds the fixed point. Raises Escaped when the orbit
    leaves before the map turns inward (no cycle surrounds the focus).
    """

    def disp(s):
        return _lap(m, mu, th_c, lam_c, s)[1] - s

    lo = 1e-5
    if disp(lo) <= 0:
        raise Escaped()  # a stable focus: no cycle around it
    hi = lo
    while True:
        hi *= 2.0
        if hi > 0.8 * lam_c:
            raise Escaped()
        if disp(hi) < 0:
            break
        lo = hi
    s = brentq(disp, lo, hi, xtol=1e-14, rtol=1e-13)
    period, _, pieces = _lap(m, mu, th_c, lam_c, s, dense=True)
    ths, lams = [], []
    for sol in pieces:
        tt = np.linspace(sol.t[0], sol.t[-1], 20_001)
        y = sol.sol(tt)
        ths.append(y[0])
        lams.append(y[1])
    th, la = np.concatenate(ths), np.concatenate(lams)
    return Cycle(
        period=period,
        amplitude_theta=0.5 * float(th.max() - th.min()),
        amplitude_lambda=0.5 * float(la.max() - la.min()),
    )


# --- the stored near-onset reference ----------------------------------------


def hopf_demo_focus(params_dir: str) -> tuple[Model, float, float]:
    with open(os.path.join(params_dir, "hopf_demo.json"), encoding="utf-8") as fh:
        m, _ = load(json.load(fh))
    th = [r for r in equilibria(m) if hopf_admissible(m, r)][0]
    return m, th, float(g_null(m, th))


def near_onset_direct(m: Model, th_c: float, lam_c: float, t_end: float = 12_000.0) -> Cycle:
    """Cycle at NEAR_ONSET_MU by plain DOP853 integration: transients decay
    only like exp(-2 d (mu - mu0) t), so 12,000 time units are needed."""
    rhs = rhs_simplified(m, NEAR_ONSET_MU)

    def sec(t, y):
        return y[0] - th_c

    sec.direction = 1
    kw = dict(method="DOP853", rtol=REF_RTOL, atol=REF_ATOL, events=[sec])
    y, t0 = [th_c + 1e-3, lam_c], 0.0
    while t0 < t_end - 10.0:  # chunks keep memory flat over ~10^4 laps
        sol = solve_ivp(rhs, (t0, min(t0 + 500.0, t_end - 10.0)), y, **kw)
        t0, y = float(sol.t[-1]), list(sol.y[:, -1])
    sol = solve_ivp(rhs, (t0, t_end), y, dense_output=True, **kw)
    tc = sol.t_events[0]
    period = float(tc[-1] - tc[-2])
    tt = np.linspace(tc[-2], tc[-1], 200_001)
    y = sol.sol(tt)
    return Cycle(
        period=period,
        amplitude_theta=0.5 * float(y[0].max() - y[0].min()),
        amplitude_lambda=0.5 * float(y[1].max() - y[1].min()),
    )


def load_near_onset() -> dict:
    with open(NEAR_ONSET_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _regenerate() -> None:
    m, th_c, lam_c = hopf_demo_focus(os.path.join(os.path.dirname(HERE), "params"))
    direct = near_onset_direct(m, th_c, lam_c)
    shot = shoot_cycle(m, NEAR_ONSET_MU, th_c, lam_c)
    doc = {
        "mu": NEAR_ONSET_MU,
        "method": "DOP853 rtol 1e-12 atol 1e-14 over 12000 time units from "
        "(theta_c + 1e-3, lambda_c); last rising-section lap",
        "period": direct.period,
        "amplitude_theta": direct.amplitude_theta,
        "amplitude_lambda": direct.amplitude_lambda,
        "shooting": {
            "period": shot.period,
            "amplitude_theta": shot.amplitude_theta,
            "amplitude_lambda": shot.amplitude_lambda,
        },
    }
    os.makedirs(os.path.dirname(NEAR_ONSET_FILE), exist_ok=True)
    with open(NEAR_ONSET_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--regenerate", action="store_true", help="rewrite data/near_onset_cycle.json")
    if ap.parse_args().regenerate:
        _regenerate()
    else:
        ap.print_help()
