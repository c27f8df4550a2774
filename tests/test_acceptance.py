"""Acceptance gate: one timed criterion per test, one verdict line each.

Every criterion prints `C<nn> PASS|FAIL (<time>) — detail` into the terminal
summary (see conftest). A FAIL line means the stated tolerance or runtime
budget was not met; the assertion message carries the same text.
"""

import math
import time

import numpy as np
import pytest

import glacier_dyn as gd
from glacier_dyn.model import nullcline_f, nullcline_g, vector_field
from glacier_dyn.oracle import (
    bisect_lambda_branches,
    draw_branch_inputs,
    draw_equilibrium,
    draw_hopf_point,
    fd_jacobian,
    numeric_l1,
)
from glacier_dyn.stability import (
    NotHopfCandidate,
    center_manifold,
    lyapunov_l1,
    tangency_directions,
)

from conftest import ACCEPTANCE_LINES


def record(criterion: int, passed: bool, elapsed: float, budget: float,
           detail: str) -> None:
    in_budget = elapsed <= budget
    verdict = "PASS" if (passed and in_budget) else "FAIL"
    line = (f"C{criterion:02d} {verdict} ({elapsed * 1e3:.1f} ms / "
            f"budget {budget * 1e3:.0f} ms) — {detail}")
    ACCEPTANCE_LINES.append(line)
    assert passed and in_budget, line


@pytest.fixture(scope="module")
def hopf_draws():
    """25 Hopf-admissible (params, cp) pairs shared by criteria 4 and 5."""
    rng = np.random.default_rng(5)
    return [draw_hopf_point(rng) for _ in range(25)]


def test_c01_scale_reproduction(table1_physical):
    gd.nondimensionalize(table1_physical)  # warm-up outside the timer
    t0 = time.perf_counter()
    model, scales = gd.nondimensionalize(table1_physical)
    elapsed = time.perf_counter() - t0
    checks = {
        "T*": abs(scales.T_star - 195.55) <= 0.01,
        "beta": abs(model.beta - 0.7875) <= 5e-4,
        "L*": abs(scales.L_star / 1e3 / 2.76e4 - 1.0) <= 0.01,
        "eps": abs(model.epsilon / 0.1088 - 1.0) <= 0.01,
        "t*": abs(scales.t_star / 33.2e3 - 1.0) <= 0.01,
        "m_rate": table1_physical.m_rate > 0,
    }
    detail = (f"T*={scales.T_star:.2f} K, beta={model.beta:.4f}, "
              f"L*={scales.L_star / 1e3:.3g} km, eps={model.epsilon:.4f}, "
              f"t*={scales.t_star:.3g} yr, m_rate={table1_physical.m_rate:.3g}"
              f" m/yr")
    record(1, all(checks.values()), elapsed, 1e-3, detail)


def test_c02_branch_oracle_equivalence():
    rng = np.random.default_rng(2)
    draws = [draw_branch_inputs(rng) for _ in range(200)]
    t0 = time.perf_counter()
    worst = 0.0
    contained = True
    for xi, eps in draws:
        pair = gd.lambda_branches(xi, eps)
        b1, b2 = bisect_lambda_branches(xi, eps)
        worst = max(worst, abs(pair.lambda1 - b1), abs(pair.lambda2 - b2))
        contained &= (pair.bounds1[0] - 1e-15 <= pair.lambda1
                      <= pair.bounds1[1] + 1e-15)
        contained &= (pair.bounds2[0] - 1e-15 <= pair.lambda2
                      <= pair.bounds2[1] + 1e-15)
        contained &= pair.lambda1 < pair.lambda2
    elapsed = time.perf_counter() - t0
    record(2, worst <= 1e-10 and contained, elapsed, 1.0,
           f"200 draws, worst closed-vs-bisect gap {worst:.2e}, "
           f"enclosure containment {contained}")


def test_c03_linearization_equivalence():
    rng = np.random.default_rng(3)
    draws = []
    for _ in range(100):
        params, cp = draw_equilibrium(rng)
        draws.append((params, cp, float(rng.uniform(0.2, 3.0))))
    t0 = time.perf_counter()
    worst = 0.0
    for params, cp, mu in draws:
        closed = gd.jacobian(cp, mu)
        fd = fd_jacobian(params, mu, gd.State(cp.theta_c, cp.lambda_c))
        scale = max(abs(closed.a11), abs(closed.a12),
                    abs(closed.a21), abs(closed.a22))
        worst = max(worst,
                    abs(closed.a11 - fd.a11) / scale,
                    abs(closed.a12 - fd.a12) / scale,
                    abs(closed.a21 - fd.a21) / scale,
                    abs(closed.a22 - fd.a22) / scale)
        ec = np.sort_complex(np.array(
            gd.eigenvalues(cp, mu)))
        ef = np.sort_complex(np.linalg.eigvals(
            np.array([[fd.a11, fd.a12], [fd.a21, fd.a22]])))
        worst = max(worst, float(np.max(np.abs(ec - ef)))
                    / max(1.0, float(np.max(np.abs(ec)))))
    elapsed = time.perf_counter() - t0
    record(3, worst <= 1e-7, elapsed, 1.0,
           f"100 random equilibria, worst relative deviation {worst:.2e}")


def test_c04_hopf_thresholds(hopf_draws):
    t0 = time.perf_counter()
    ordering = True
    worst_imag = 0.0
    worst_trans = 0.0
    for params, cp in hopf_draws:
        th = gd.mu_thresholds(cp)
        ordering &= 0.0 < th.mu1 < th.mu0 < th.mu2
        ev = gd.eigenvalues(cp, th.mu0)
        worst_imag = max(worst_imag, abs(ev[0].real) / abs(ev[0].imag))
        h = 1e-6 * th.mu0
        re = lambda m: gd.eigenvalues(cp, m)[0].real
        fd_t = (re(th.mu0 + h) - re(th.mu0 - h)) / (2.0 * h)
        closed_t = 0.5 * params.alpha2 * params.gamma * cp.f1
        worst_trans = max(worst_trans, abs(fd_t / closed_t - 1.0))
    elapsed = time.perf_counter() - t0
    record(4, ordering and worst_imag <= 1e-12 and worst_trans <= 1e-6,
           elapsed, 1.0,
           f"25 draws: ordering {ordering}, worst |Re/Im| at onset "
           f"{worst_imag:.2e}, worst FD transversality gap {worst_trans:.2e}")


def test_c05_lyapunov_cross_validation(hopf_draws):
    t0 = time.perf_counter()
    worst = 0.0
    for params, cp in hopf_draws:
        closed = lyapunov_l1(cp)
        numeric = numeric_l1(params, cp)
        worst = max(worst, abs(numeric / closed - 1.0))
    elapsed = time.perf_counter() - t0
    record(5, worst <= 1e-4, elapsed, 10.0,
           f"25 draws, worst closed-vs-numeric l1 deviation {worst:.2e}")


def test_c06_fig3_thresholds_with_family_caveat(table1_model, hopf_model,
                                                hopf_cp):
    t0 = time.perf_counter()
    interior = gd.find_equilibria(table1_model)[1]
    th = gd.mu_thresholds(interior)
    in_tolerance = (th.mu0 is not None
                    and abs(th.mu0 / 1.915 - 1.0) <= 0.10)
    if in_tolerance:
        l1 = lyapunov_l1(interior)
        in_tolerance = l1 < 0 and abs(l1 / -162.3 - 1.0) <= 0.25
        detail = f"mu0={th.mu0:.4f}, l1={l1:.2f} (within printed tolerances)"
        consistency_ok = True
    else:
        # Escape clause: with this response family the interior crossing is a
        # saddle (g' ~ 0 < f'), so the printed thresholds do not exist. The
        # closed-vs-numeric l1 agreement must still hold; exercised on the
        # oscillation-capable configuration.
        closed = lyapunov_l1(hopf_cp)
        numeric = numeric_l1(hopf_model, hopf_cp)
        gap = abs(numeric / closed - 1.0)
        consistency_ok = gap <= 1e-4
        detail = (f"tanh family: interior point is a saddle "
                  f"(f'={interior.f1:.3f}, g'={interior.g1:.2e}), printed "
                  f"mu0/l1 unattainable; discrepancy logged against the "
                  f"family choice; l1 consistency on oscillating config "
                  f"{gap:.2e}")
    elapsed = time.perf_counter() - t0
    record(6, in_tolerance or consistency_ok, elapsed, 1.0, detail)


def test_c07_limit_cycle_dimensional_period(table1_model, table1_scales):
    t0 = time.perf_counter()
    interior = gd.find_equilibria(table1_model)[1]
    th = gd.mu_thresholds(interior)
    # The onset threshold does not exist for this family (saddle interior
    # point); fall back to the printed value so the hunt can still run.
    mu0 = th.mu0 if th.mu0 is not None else 1.915
    cycle = gd.poincare_cycle(table1_model, 1.0545 * mu0, interior,
                              max_time=5000.0)
    ok = cycle is not None
    detail_bits = [f"mu={1.0545 * mu0:.4f}"]
    if cycle is None:
        detail_bits.append("no limit cycle found (interior point is a saddle "
                           "under the tanh family; orbit leaves the section)")
    else:
        period_yr = cycle.period * table1_scales.t_star
        ok = 30e3 <= period_yr <= 50e3
        detail_bits.append(f"dimensional period {period_yr:.3g} yr")
        lam_span = [p.lam for p in cycle.section_points[-5:]]
        encircles = min(lam_span) < interior.lambda_c < max(lam_span)
        ok = ok and encircles
        detail_bits.append(f"encircles equilibrium: {encircles}")
    elapsed = time.perf_counter() - t0
    record(7, ok, elapsed, 30.0, ", ".join(detail_bits))


def test_c08_normal_form_amplitude_scaling(hopf_model, hopf_cp):
    th = gd.mu_thresholds(hopf_cp)
    assert lyapunov_l1(hopf_cp) < 0
    hopf = gd.hopf_analysis(hopf_cp)
    delta = 1e-3
    t0 = time.perf_counter()
    near = gd.poincare_cycle(hopf_model, th.mu0 * (1 + delta), hopf_cp)
    far = gd.poincare_cycle(hopf_model, th.mu0 * (1 + 4 * delta), hopf_cp)
    elapsed = time.perf_counter() - t0
    ok = near is not None and far is not None
    if ok:
        ratio = far.amplitude_theta / near.amplitude_theta
        # Normal form: radius r in the (lambda - lambda_c, kappa) rotation
        # chart with r^2 = -2 d (mu - mu0) / (omega0 l1); theta swings by
        # r / sqrt(f' g') about theta_c.
        r = math.sqrt(-2.0 * hopf.transversality * delta * th.mu0
                      / (hopf.omega0 * hopf.l1))
        predicted = r / math.sqrt(hopf_cp.f1 * hopf_cp.g1)
        gap = abs(near.amplitude_theta / predicted - 1.0)
        ok = abs(ratio / 2.0 - 1.0) <= 0.20 and gap <= 2e-3
        detail = (f"amplitude ratio {ratio:.3f} vs sqrt(4delta/delta) = 2 "
                  f"(20% band); theta amplitude {near.amplitude_theta:.5g} "
                  f"vs normal form {predicted:.5g} (gap {gap:.1e}, bound "
                  f"2e-3)")
    else:
        detail = "cycle detection failed near onset"
    record(8, ok, elapsed, 60.0, detail)


def test_c09_forward_invariance(hopf_model):
    rng = np.random.default_rng(9)
    starts = [(gd.State(float(rng.uniform(0.8, 2.0)),
                        float(rng.uniform(1e-6, 0.25))),
               float(rng.uniform(0.3, 3.0))) for _ in range(50)]
    t0 = time.perf_counter()
    ok = True
    worst_max = 0.0
    for start, mu in starts:
        traj = gd.integrate(hopf_model, mu, start, 30.0)
        ok &= float(traj.lams.min()) > 0.0
        worst_max = max(worst_max, float(traj.lams.max()))
        ok &= worst_max <= 0.25 + 1e-9
    elapsed = time.perf_counter() - t0
    record(9, ok, elapsed, 10.0,
           f"50 trajectories stayed in (0, 1/4 + 1e-9]; "
           f"largest lambda seen {worst_max:.6f}")


def test_c10_tangency_drift_sign(tangency_setup):
    params, cp, mu0 = tangency_setup
    t0 = time.perf_counter()
    mu = 0.5 * mu0
    _, quad, _ = center_manifold(cp, mu)
    p, q = tangency_directions(cp, mu)
    p = np.array(p, float)
    q = np.array(q, float)
    jac = gd.jacobian(cp, mu)
    J = np.array([[jac.a11, jac.a12], [jac.a21, jac.a22]])
    tr = J[0, 0] + J[1, 1]
    x0 = np.array([cp.theta_c, cp.lambda_c])

    def field(x):
        f, g = vector_field(params, mu, gd.State(float(x[0]), float(x[1])))
        return np.array([f, g])

    # Independent scale estimate of the reduced drift (left-kernel projection
    # of the quadratic form along the null direction); sizes the fit window.
    h = 1e-4
    b_pp = (field(x0 + h * p) - 2.0 * field(x0) + field(x0 - h * p)) / h**2
    w_left = np.array([-J[1, 0], J[0, 0]])
    w_left = w_left / (w_left @ p)
    a_ref = 0.5 * float(w_left @ b_pp)

    psi0 = 2e-6
    t_end = 10.0 / abs(tr) + 0.6 / (abs(a_ref) * psi0)
    start = x0 + psi0 * p
    traj = gd.integrate(params, mu, gd.State(float(start[0]), float(start[1])),
                        t_end, rel_tol=1e-12, abs_tol=1e-14)
    coords = np.linalg.solve(np.column_stack([p, q]),
                             np.vstack([traj.thetas - x0[0],
                                        traj.lams - x0[1]]))
    psi = coords[0]
    mask = ((traj.times > 6.0 / abs(tr))
            & (np.abs(psi) > 0.2 * psi0) & (np.abs(psi) < 4.0 * psi0))
    ok = int(mask.sum()) >= 20
    detail = f"fit points {int(mask.sum())}"
    if ok:
        design = np.vstack([traj.times[mask], np.ones(int(mask.sum()))]).T
        slope = float(np.linalg.lstsq(design, 1.0 / psi[mask], rcond=None)[0][0])
        a_fit = -slope  # d(1/psi)/dtau = -a for dpsi/dtau = a psi^2
        ok = math.copysign(1.0, a_fit) == math.copysign(1.0, quad)
        detail = (f"fitted drift {a_fit:.1f}, reduced-equation coefficient "
                  f"{quad:.1f}: signs {'match' if ok else 'differ'}")
    elapsed = time.perf_counter() - t0
    record(10, ok, elapsed, 30.0, detail)
