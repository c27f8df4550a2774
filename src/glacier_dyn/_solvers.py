"""The package's ODE steppers, loaded on the first integration: scipy's
DOP853 on a tuple of n floats and its Radau IIA of order 5 on two floats.

Both run on one driver, `_drive`, and share what scipy's solvers share:
the first-step rule (`select_initial_step`), the 100*eps floor on rtol, the
10-ulp minimum step (StiffnessError below it), and events. After each
accepted step every event is checked for a sign change in its direction,
and only then is the method's dense output built and the roots bisected on
it, in time order. A terminal event ends the run with its root as the last
row. Both methods take (rates, t0, y0, t_end, rtol, atol, events, stats),
where rates(*y) is an autonomous field and stats a SolverStats that
collects the counts, and both return (times, one column per component,
index of the terminal event that fired or None, the non-terminal events
located as (event index, root, state)).

Every constant is a literal equal bit for bit to scipy's
(scipy.integrate._ivp.dop853_coefficients and .radau), so no command
imports scipy to integrate, and commands that integrate nothing load
none of this.
"""

from __future__ import annotations

import math
from functools import cache, partial
from operator import mul, truediv

from .errors import StiffnessError
from .model import bisect

EPS = math.ulp(1.0)

# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10): row s of A holds
# stage s's s coefficients, row 12 is the weights B, and rows 13-15 are the
# extra stages of the dense output; E3 and E5 weigh the error estimates, and
# D the dense output's four highest coefficients.
DOP853_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
DOP853_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
             -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
             0.20136540080403034, 0.02265179219836082, 0.0)
DOP853_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
             -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
             0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0)
DOP853_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)

# Radau IIA of order 5 (Hairer & Wanner, Solving ODEs II, IV.8): nodes C, the
# error weights E, the eigenvalues of the inverse collocation matrix (one
# real, a complex pair) with its eigenvector transforms T and TI = T^-1, and
# the dense output's cubic coefficients P.
C = (0.15505102572168222, 0.6449489742783178, 1.0)
E = (-10.048809399827414, 1.382142733160748, -0.3333333333333333)
MU_REAL = 3.637834252744496
MU_COMPLEX = complex(2.6810828736277523, -3.050430199247411)
T = ((0.09443876248897524, -0.1412552950209542, 0.03002919410514742),
     (0.2502131229653333, 0.20412935229379994, -0.3829421127572619),
     (1.0, 1.0, 0.0))
TI = ((4.178718591551904, 0.32768282076106237, 0.5233764454994495),
      (-4.178718591551904, -0.32768282076106237, 0.47662355450055044),
      (0.5028726349457868, -2.571926949855605, 0.5960392048282249))
P = ((10.048809399827414, -25.62959144707664, 15.580782047249224),
     (-1.382142733160748, 10.296258113743303, -8.914115380582556),
     (0.3333333333333333, -2.6666666666666665, 3.3333333333333335))
NEWTON_MAXITER = 6
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0

(_T00, _T01, _T02), (_T10, _T11, _T12), _ = T
_TR0, _TR1, _TR2 = TI[0]
_TC0, _TC1, _TC2 = (complex(re, im) for re, im in zip(TI[1], TI[2]))
_PT = tuple(zip(*P))
_SQRT2, _SQRT6 = math.sqrt(2.0), math.sqrt(6.0)


def select_initial_step(rates, t0, y0, f0, t_end, order, rtol, atol):
    """scipy's select_initial_step forward in time (Hairer, Norsett & Wanner,
    Solving ODEs I, II.4) for an error estimator of the given order, with
    scipy's RMS norm sqrt(sum of squares)/sqrt(n); f0 = rates(*y0), and the
    rule makes one more RHS call. Rates whose scaled RMS overflows raise
    StiffnessError at (t0, the first two components of y0)."""
    scale, root_n = [atol + abs(v) * rtol for v in y0], math.sqrt(len(y0))

    def rms(v):
        return math.sqrt(sum([q * q for q in map(truediv, v, scale)])) / root_n

    d0, d1 = rms(y0), rms(f0)
    if not math.isfinite(d1):
        raise StiffnessError(f"rates {f0} at {y0} overflow the first-step rule",
                             time=t0, state=tuple(y0[:2]))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t0)
    f1 = rates(*[v + h0 * w for v, w in zip(y0, f0)])
    d2 = rms([b - a for a, b in zip(f0, f1)]) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, t_end - t0)


def _drive(step, interpolant, t, y, t_end, events, stats):
    """Accepted steps from (t, y) to t_end, with the event loop of the module
    docstring. step(t, y, min_step) returns the next (t, y), or None where
    it would need a step below min_step; interpolant(t_old, y_old, t, y)
    returns the last step's dense output, sol(tau) -> state."""
    gs = [ev(t, y) for ev in events]
    ts, ys, hits = [t], [y], []
    while t < t_end:
        t_old, y_old = t, y
        new = step(t, y, 10 * (math.nextafter(t, math.inf) - t))
        if new is None:
            raise StiffnessError("Required step size is less than spacing between numbers.",
                                 time=t, state=tuple(y[:2]))
        t, y = new
        stats.steps += 1
        new_gs = [ev(t, y) for ev in events]
        located = [i for i, (ev, g, g_new) in enumerate(zip(events, gs, new_gs))
                   if (ev.direction >= 0 and g <= 0 <= g_new) or (ev.direction <= 0 and g >= 0 >= g_new)]
        gs = new_gs
        if located:
            sol = interpolant(t_old, y_old, t, y)
            roots = sorted((bisect(lambda tau: events[i](tau, sol(tau)), t_old, t,
                                   xtol=4 * EPS, rtol=4 * EPS), i) for i in located)
            for root, i in roots:
                stats.events += 1
                if events[i].terminal:
                    ts.append(root)
                    ys.append(sol(root))
                    return (ts, *zip(*ys), i, hits)
                hits.append((i, root, sol(root)))
        ts.append(t)
        ys.append(y)
    return (ts, *zip(*ys), None, hits)


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
    rows, seq = DOP853_A, ", ".join
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
    return ({zs},), ({seq(dot(DOP853_E5, i) for i in range(n))},), \\
        ({seq(dot(DOP853_E3, i) for i in range(n))},), ({ks(13)},)


def dense(rates, h, y, ks):
    ({ys},), ({ks(13)},) = y, ks{stages(13, 16)}
    return ({ks(16)},)
"""
    namespace = {}
    exec(src, namespace)
    return namespace["step"], namespace["dense"]


def dop853(rates, t0, y0, t_end, rtol, atol, events, stats):
    """scipy's DOP853 on a tuple of n floats: the same tableau, error norm
    and step controller as solve_ivp(method="DOP853"), and its 7th-order
    dense output for events, built only where one is located."""
    n, (stages, dense_stages) = len(y0), _dop853_stages(len(y0))
    rtol, f = max(rtol, 100 * EPS), rates(*y0)
    h_abs = select_initial_step(rates, t0, y0, f, t_end, 7, rtol, atol)
    stats.nfev += 2
    h = ks = None  # the last accepted step's size and stage rates

    def step(t, y, min_step):
        nonlocal f, h_abs, h, ks
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                return None
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            ys, s5, s3, ks = stages(rates, h, y, f)
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
                f = [k[12] for k in ks]
                return t_new, ys
            h_abs = h * max(0.2, 0.9 * err**-0.125)
            rejected = True
            stats.rejected += 1

    def interpolant(t_old, y_old, t, y):
        all_ks = dense_stages(rates, h, y_old, ks)
        stats.nfev += 3
        ps = []
        for v_old, v, k in zip(y_old, y, all_ks):
            dv = v - v_old
            ps.append([dv, h * k[0] - dv, 2 * dv - h * (k[12] + k[0])]
                      + [h * sum(map(mul, d, k)) for d in DOP853_D])

        def sol(tau):
            x, qs = (tau - t_old) / h, [0.0] * n
            for i in range(6, -1, -1):
                w = x if i % 2 == 0 else 1.0 - x
                qs = [(q + p[i]) * w for q, p in zip(qs, ps)]
            return tuple(v + q for v, q in zip(y_old, qs))

        return sol

    return _drive(step, interpolant, t0, y0, t_end, events, stats)


def _rms(a, b):
    return math.sqrt(a * a + b * b) / _SQRT2


def _cubic(dense, tau):
    """A step's collocation cubic at tau; dense = (t_old, h, u_old, v_old,
    u coefficients, v coefficients)."""
    t_old, h, uo, vo, (qu0, qu1, qu2), (qv0, qv1, qv2) = dense
    x = (tau - t_old) / h
    x2 = x * x
    x3 = x2 * x
    return uo + (qu0 * x + qu1 * x2 + qu2 * x3), vo + (qv0 * x + qv1 * x2 + qv2 * x3)


def _factor(m, jac):
    """m*I - J as (p, q, r, s, det) for Cramer's rule, None where singular."""
    (a, b), (c, d) = jac
    p, q, r, s = m - a, -b, -c, m - d
    det = p * s - q * r
    return (p, q, r, s, det) if det else None


def _collocate(rates, u, v, h, z, su, sv, tol, lu_real, lu_complex, stats):
    """scipy's solve_collocation_system at (u, v): simplified Newton on the
    transformed stage increments W = TI Z, one real and one complex 2x2
    solve an iteration. Returns (converged, iterations, Z, rate)."""
    (pr, qr, rr, sr, dr), (pc, qc, rc, sc, dc) = lu_real, lu_complex
    mr, mc = MU_REAL / h, MU_COMPLEX / h
    (z0u, z0v), (z1u, z1v), (z2u, z2v) = z
    w0u, w0v = _TR0 * z0u + _TR1 * z1u + _TR2 * z2u, _TR0 * z0v + _TR1 * z1v + _TR2 * z2v
    (t0, t1, t2), (t3, t4, t5) = TI[1], TI[2]
    w1u, w1v = t0 * z0u + t1 * z1u + t2 * z2u, t0 * z0v + t1 * z1v + t2 * z2v
    w2u, w2v = t3 * z0u + t4 * z1u + t5 * z2u, t3 * z0v + t4 * z1v + t5 * z2v
    isfinite = math.isfinite
    norm_old = rate = None
    converged = False
    for k in range(NEWTON_MAXITER):
        a0, b0 = rates(u + z0u, v + z0v)
        a1, b1 = rates(u + z1u, v + z1v)
        a2, b2 = rates(u + z2u, v + z2v)
        stats.nfev += 3
        if not (isfinite(a0) and isfinite(b0) and isfinite(a1) and isfinite(b1)
                and isfinite(a2) and isfinite(b2)):
            break
        fu = a0 * _TR0 + a1 * _TR1 + a2 * _TR2 - mr * w0u
        fv = b0 * _TR0 + b1 * _TR1 + b2 * _TR2 - mr * w0v
        gu = a0 * _TC0 + a1 * _TC1 + a2 * _TC2 - mc * complex(w1u, w2u)
        gv = b0 * _TC0 + b1 * _TC1 + b2 * _TC2 - mc * complex(w1v, w2v)
        d0u, d0v = (sr * fu - qr * fv) / dr, (pr * fv - rr * fu) / dr
        cu, cv = (sc * gu - qc * gv) / dc, (pc * gv - rc * gu) / dc
        d1u, d2u, d1v, d2v = cu.real, cu.imag, cv.real, cv.imag
        x0, x1, x2, y0, y1, y2 = d0u / su, d1u / su, d2u / su, d0v / sv, d1v / sv, d2v / sv
        norm = math.sqrt(x0 * x0 + y0 * y0 + x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2) / _SQRT6
        if norm_old is not None:
            rate = norm / norm_old
        if rate is not None and (rate >= 1 or rate ** (NEWTON_MAXITER - k) / (1 - rate) * norm > tol):
            break
        w0u, w0v, w1u, w1v, w2u, w2v = w0u + d0u, w0v + d0v, w1u + d1u, w1v + d1v, w2u + d2u, w2v + d2v
        z0u, z0v = _T00 * w0u + _T01 * w1u + _T02 * w2u, _T00 * w0v + _T01 * w1v + _T02 * w2v
        z1u, z1v = _T10 * w0u + _T11 * w1u + _T12 * w2u, _T10 * w0v + _T11 * w1v + _T12 * w2v
        z2u, z2v = w0u + w1u, w0v + w1v
        if norm == 0 or rate is not None and rate / (1 - rate) * norm < tol:
            converged = True
            break
        norm_old = norm
    return converged, k + 1, ((z0u, z0v), (z1u, z1v), (z2u, z2v)), rate


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old):
    """scipy's predictive (Gustafsson) step-size factor; the one-step rule
    without a previous step, and inf for a zero error."""
    if error_norm_old is None or not h_abs_old or error_norm == 0:
        multiplier = 1.0
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    return min(1.0, multiplier) * error_norm ** -0.25 if error_norm else math.inf


def radau(rates, t0, y0, t_end, rtol, atol, events, stats, jac):
    """scipy's Radau on two floats, with jac(u, v) the field's Jacobian
    ((a, b), (c, d)) at the state (u, v), or None for forward differences
    (their RHS calls count in stats.nfev).

    Same Newton iteration and tolerance, Jacobian reuse and
    refactorisation, error estimate and predictive step controller as
    solve_ivp(method="Radau"). A singular iteration matrix, like a Newton
    iterate with non-finite rates, fails the Newton iteration. Events are
    located on the collocation cubic.
    """
    rtol, (fu, fv) = max(rtol, 100 * EPS), rates(*y0)
    h_next = select_initial_step(rates, t0, y0, (fu, fv), t_end, 3, rtol, atol)
    stats.nfev += 2
    newton_tol = max(10 * EPS / rtol, min(0.03, rtol**0.5))

    def jacobian(u, v, fu, fv):
        stats.njev += 1
        if jac is not None:
            return jac(u, v)
        columns = []  # scipy's num_jac without its step refinement
        for i, (x, f) in enumerate(((u, fu), (v, fv))):
            scale = max(atol, abs(x)) * (1.0 if f >= 0 else -1.0)
            factor, dx = EPS**0.5, 0.0
            while dx == 0:
                dx = (x + factor * scale) - x
                factor *= 10
            pu, pv = rates(u + dx, v) if i == 0 else rates(u, v + dx)
            columns.append(((pu - fu) / dx, (pv - fv) / dx))
        stats.nfev += 2
        (a, c), (b, d) = columns
        return (a, b), (c, d)

    J, current_jac, lu_real, lu_complex, dense = jacobian(*y0, fu, fv), True, None, None, None
    h_prev = err_prev = None

    def step(t, y, min_step):
        # No comprehension here reads a local: that would make the locals
        # closure cells, built anew on every step.
        nonlocal fu, fv, J, current_jac, lu_real, lu_complex, dense, h_next, h_prev, err_prev
        u, v = y
        if h_next < min_step:
            h_abs, h_old, err_old = min_step, None, None
        else:
            h_abs, h_old, err_old = h_next, h_prev, err_prev
        rejected = False
        while True:
            if h_abs < min_step:
                return None
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            if dense is None:
                z = ((0.0, 0.0),) * 3
            else:  # the last step's cubic, extrapolated to this step's nodes
                z = []
                for c in C:
                    a, b = _cubic(dense, t + h * c)
                    z.append((a - u, b - v))
            su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
            converged = False
            while not converged:
                if lu_real is None or lu_complex is None:
                    lu_real, lu_complex = _factor(MU_REAL / h, J), _factor(MU_COMPLEX / h, J)
                if lu_real is not None and lu_complex is not None:
                    converged, n_iter, z_new, rate = _collocate(rates, u, v, h, z, su, sv, newton_tol,
                                                                lu_real, lu_complex, stats)
                if not converged:
                    if current_jac:
                        break
                    J, current_jac, lu_real, lu_complex = jacobian(u, v, fu, fv), True, None, None
            if not converged:
                h_abs *= 0.5
                lu_real = lu_complex = None
                stats.rejected += 1
                continue
            (z0u, z0v), (z1u, z1v), (z2u, z2v) = z_new
            u_new, v_new = u + z2u, v + z2v
            eu = (z0u * E[0] + z1u * E[1] + z2u * E[2]) / h
            e_v = (z0v * E[0] + z1v * E[1] + z2v * E[2]) / h
            pr, qr, rr, sr, dr = lu_real
            ru, rv = fu + eu, fv + e_v
            xu, xv = (sr * ru - qr * rv) / dr, (pr * rv - rr * ru) / dr
            su, sv = atol + max(abs(u), abs(u_new)) * rtol, atol + max(abs(v), abs(v_new)) * rtol
            err = _rms(xu / su, xv / sv)
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)
            if rejected and err > 1:
                ru, rv = rates(u + xu, v + xv)
                stats.nfev += 1
                ru, rv = ru + eu, rv + e_v
                xu, xv = (sr * ru - qr * rv) / dr, (pr * rv - rr * ru) / dr
                err = _rms(xu / su, xv / sv)
            if err > 1:
                h_abs *= max(MIN_FACTOR, safety * _predict_factor(h_abs, h_old, err, err_old))
                lu_real = lu_complex = None
                rejected = True
                stats.rejected += 1
                continue
            break
        recompute_jac = n_iter > 2 and rate > 1e-3
        factor = min(MAX_FACTOR, safety * _predict_factor(h_abs, h_old, err, err_old))
        if not recompute_jac and factor < 1.2:
            factor = 1.0
        else:
            lu_real = lu_complex = None
        fu, fv = rates(u_new, v_new)
        stats.nfev += 1
        if recompute_jac:
            J = jacobian(u_new, v_new, fu, fv)
        current_jac = recompute_jac
        h_prev, err_prev, h_next = h_next, err, h_abs * factor
        qu, qv = [], []
        for p0, p1, p2 in _PT:
            qu.append(z0u * p0 + z1u * p1 + z2u * p2)
            qv.append(z0v * p0 + z1v * p1 + z2v * p2)
        dense = (t, h, u, v, qu, qv)
        return t_new, (u_new, v_new)

    return _drive(step, lambda *_: partial(_cubic, dense), t0, y0, t_end, events, stats)
