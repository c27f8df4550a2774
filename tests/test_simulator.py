"""Tests for time integration, limit-cycle detection, and mu sweeps."""

import math

from dataclasses import replace
from functools import partial
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from glacier_dyn import (
    Classification,
    State,
    classify,
    critical_point_at,
    find_equilibria,
    hopf_analysis,
    integrate,
    mu_thresholds,
    poincare_cycle,
    sweep_mu,
    vector_field,
)
from glacier_dyn import _solvers, simulator
from glacier_dyn.errors import DomainError, StiffnessError
from glacier_dyn.model import lambda0, make_jacobian, make_rates, make_rhs, regime_of
from glacier_dyn.oracle import fd_jacobian
from glacier_dyn.simulator import ModelKind, Termination, Trajectory

from conftest import direct_cycle


# ---------------------------------------------------------------------------
# integrate: validation and basic behaviour
# ---------------------------------------------------------------------------


class TestIntegrateValidation:
    def test_nonpositive_t_end_rejected(self, hopf_model):
        with pytest.raises(ValueError, match="t_end"):
            integrate(hopf_model, 1.0, State(1.3, 0.05), 0.0)
        with pytest.raises(ValueError, match="t_end"):
            integrate(hopf_model, 1.0, State(1.3, 0.05), -5.0)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_non_finite_t_end_rejected(self, hopf_model, t_end):
        with pytest.raises(ValueError, match="t_end"):
            integrate(hopf_model, 1.0, State(1.3, 0.05), t_end)

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("mu", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_nonpositive_mu_rejected(self, hopf_model, mu, kind):
        with pytest.raises(DomainError, match="mu"):
            integrate(hopf_model, mu, State(1.3, 0.05), 1.0, model=kind)

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("mu, override", [(3.0, {"beta": 1e200}),  # DOP853
                                              (3.0, {"alpha1": -1e300}),
                                              (1e150, {})])  # Radau
    def test_overflowing_start_rates_raise_stiffness_error(self, hopf_model, kind, mu, override):
        # The first-step rule divides by the RMS of the scaled rates, which
        # overflows here; it says so before the first step.
        with pytest.raises(StiffnessError, match="first-step rule") as exc:
            integrate(replace(hopf_model, **override), mu, State(1.43, 0.07), 1.0, model=kind)
        assert exc.value.time == 0.0 and exc.value.state == (1.43, 0.07)

    @pytest.mark.parametrize("kwargs", [{"rel_tol": 1e-2}, {"rel_tol": 1e-15},
                                        {"abs_tol": 1e-2}, {"abs_tol": 1e-15}])
    def test_tolerances_outside_band_rejected(self, hopf_model, kwargs):
        with pytest.raises(ValueError, match="tol"):
            integrate(hopf_model, 1.0, State(1.3, 0.05), 1.0, **kwargs)

    def test_tolerance_band_endpoints_accepted(self, hopf_model):
        traj = integrate(hopf_model, 1.0, State(1.3, 0.05), 0.1,
                         rel_tol=1e-3, abs_tol=1e-14)
        assert traj.times[-1] == pytest.approx(0.1)

    def test_times_strictly_increasing(self, hopf_model):
        traj = integrate(hopf_model, 1.0, State(1.35, 0.06), 20.0)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.regimes is None  # simplified model carries no regime labels
        assert traj.terminated is Termination.TIME_LIMIT

    def test_states_and_final_state_views(self, hopf_model):
        traj = integrate(hopf_model, 1.0, State(1.35, 0.06), 5.0)
        assert traj.final_state == State(float(traj.thetas[-1]), float(traj.lams[-1]))
        assert traj.final_state.theta == traj.thetas[-1]


class TestIntegrateExamples:
    def test_equilibrium_start_stays_put(self, hopf_model, hopf_cp):
        traj = integrate(hopf_model, 1.0, State(hopf_cp.theta_c, hopf_cp.lambda_c),
                         100.0)
        dev = np.maximum(np.abs(traj.thetas - hopf_cp.theta_c),
                         np.abs(traj.lams - hopf_cp.lambda_c))
        assert float(dev.max()) <= 1e-8

    def test_stable_node_converges(self, table1_model):
        cold = find_equilibria(table1_model)[0]
        th = mu_thresholds(cold)
        mu = 0.5 * th.mu1
        assert classify(cold, mu) is Classification.STABLE_NODE
        start = State(cold.theta_c * 1.01, cold.lambda_c * 1.01)
        traj = integrate(table1_model, mu, start, 200.0)
        radius = np.hypot(traj.thetas - cold.theta_c, traj.lams - cold.lambda_c)
        assert radius[-1] <= 1e-6
        # Radius decay is monotone for the node up to solver jitter.
        assert float(np.max(np.diff(radius))) <= 1e-9
        f, g = vector_field(table1_model, mu, traj.final_state)
        assert math.hypot(f, g) <= 1e-8

    def test_observed_order_at_least_four(self, hopf_model):
        start = State(1.38, 0.05)
        t_end = 10.0
        ref = integrate(hopf_model, 1.0, start, t_end,
                        rel_tol=1e-13, abs_tol=1e-14)
        ref_end = np.array([ref.thetas[-1], ref.lams[-1]])
        hs, errs = [], []
        for rtol in (1e-5, 1e-6, 1e-7, 1e-8):
            traj = integrate(hopf_model, 1.0, start, t_end,
                             rel_tol=rtol, abs_tol=rtol * 1e-2)
            end = np.array([traj.thetas[-1], traj.lams[-1]])
            hs.append(t_end / (len(traj.times) - 1))
            errs.append(max(float(np.linalg.norm(end - ref_end)), 1e-16))
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        assert slope >= 4.0

    def test_forward_invariance_random_starts(self, hopf_model):
        rng = np.random.default_rng(5)
        for _ in range(10):
            start = State(float(rng.uniform(0.8, 2.0)),
                          float(rng.uniform(1e-6, 0.25)))
            traj = integrate(hopf_model, 1.0, start, 30.0)
            assert float(traj.lams.min()) > 0.0
            assert float(traj.lams.max()) <= 0.25 + 1e-9
            assert np.all(np.isfinite(traj.thetas))


# ---------------------------------------------------------------------------
# integrate: full model with regime switching
# ---------------------------------------------------------------------------


class TestFullModel:
    def test_switch_residuals_and_floor(self, hopf_model):
        traj = integrate(hopf_model, 1.0, State(1.6, 0.2), 50.0,
                         model=ModelKind.FULL)
        assert traj.regimes is not None
        assert len(traj.regimes) == len(traj.times)
        assert np.all(np.diff(traj.times) > 0)
        switches = [i for i in range(1, len(traj.regimes))
                    if traj.regimes[i] != traj.regimes[i - 1]]
        assert switches, "expected at least one regime switch"
        for i in switches:
            lam = float(traj.lams[i])
            residual = min(abs(lambda0(lam, hopf_model.epsilon)),
                           abs(lam + hopf_model.epsilon / 2.0))
            assert residual <= 1e-8
        assert {"accumulating", "stagnant"} <= set(traj.regimes)
        # Warm start melts the sheet: lambda runs down to the floor.
        assert traj.terminated is Termination.LAMBDA_FLOOR
        assert traj.lams[-1] <= 1e-10

    def test_nucleation_switches_to_accumulating(self, hopf_model):
        params = replace(hopf_model, epsilon=-0.04)
        traj = integrate(params, 1.0, State(1.0, 0.005), 10.0,
                         model=ModelKind.FULL)
        assert traj.regimes[0] == "nucleation"
        switches = [i for i in range(1, len(traj.regimes))
                    if traj.regimes[i] != traj.regimes[i - 1]]
        assert switches
        first = switches[0]
        assert traj.regimes[first - 1] == "nucleation"
        assert traj.regimes[first] == "accumulating"
        lam = float(traj.lams[first])
        assert abs(lam + params.epsilon / 2.0) <= 1e-8

    def test_full_tracks_simplified_at_tiny_epsilon(self, hopf_model):
        # The mass-balance branch expansion the simplified model keeps is
        # truncated at second order, so the two vector fields differ by an
        # O(lambda^{5/2}) remainder even at epsilon -> 0. Over this window
        # that remainder accumulates to a few-times-1e-3 offset; the bound
        # below is the measured envelope with ~2x headroom.
        params = replace(hopf_model, epsilon=1e-8)
        start = State(1.3, 0.01)
        simp = integrate(hopf_model, 1.0, start, 50.0,
                         rel_tol=1e-10, abs_tol=1e-12)
        full = integrate(params, 1.0, start, 50.0,
                         rel_tol=1e-10, abs_tol=1e-12, model=ModelKind.FULL)
        grid = np.linspace(0.0, 50.0, 2001)
        d_th = np.interp(grid, simp.times, simp.thetas) - np.interp(
            grid, full.times, full.thetas)
        d_lm = np.interp(grid, simp.times, simp.lams) - np.interp(
            grid, full.times, full.lams)
        sup = float(np.max(np.maximum(np.abs(d_th), np.abs(d_lm))))
        assert sup <= 5e-3

    @given(eps=st.floats(-0.04, 0.12), mu=st.floats(0.5, 6.0),
           theta0=st.floats(1.0, 1.7), log_lam0=st.floats(-3.5, -0.5))
    @settings(max_examples=60, deadline=None)
    def test_row_regimes_match_regime_of(self, hopf_model, eps, mu, theta0,
                                         log_lam0):
        params = replace(hopf_model, epsilon=eps)
        traj = integrate(params, mu, State(theta0, 10.0**log_lam0), 30.0,
                         model=ModelKind.FULL)
        for lam, label in zip(traj.lams.tolist(), traj.regimes):
            # Rows at a located crossing and the nudged restart after it
            # lie on a boundary to within its location tolerance.
            gap = min(abs(lambda0(lam, eps)), abs(lam + eps / 2.0))
            if gap > 1e-9:
                assert regime_of(params, lam).value == label


# ---------------------------------------------------------------------------
# integrate: the explicit DOP853 kernel against scipy's DOP853
# ---------------------------------------------------------------------------


def _solve_ivp_kernel(rates, t0, y0, t_end, rtol, atol, events, stats):
    """_solvers.dop853's contract, met by solve_ivp: the second route."""
    sol = solve_ivp(lambda t, y: rates(*y.tolist()), (t0, t_end), y0,
                    method="DOP853", rtol=rtol, atol=atol, events=events)
    assert sol.status >= 0, sol.message
    fired = next((i for i, te in enumerate(sol.t_events)
                  if len(te) and events[i].terminal), None)
    hits = sorted(((i, float(t), tuple(y.tolist()))
                   for i, (ts, ys) in enumerate(zip(sol.t_events, sol.y_events))
                   if not events[i].terminal for t, y in zip(ts, ys)), key=lambda h: h[1])
    stats.nfev += sol.nfev
    stats.steps += len(sol.t) - 1
    stats.events += sum(len(te) for te in sol.t_events)
    return (sol.t, *sol.y, fired, hits)


def _dot(a, k):
    """sum(map(mul, a, k)) as Python 3.11 adds it: term by term from 0 (from
    3.12 on, sum() compensates float sums)."""
    total = 0
    for term in map(mul, a, k):
        total += term
    return total


def _stage_loop(rates, h, y, f):
    """A DOP853 step as a plain loop over the tableau, the second route for
    the compiled kernels: (new state, E5 sums, E3 sums, stage rates 0-15)."""
    ks, new = [[v] for v in f], None
    for s in range(1, 16):
        z = [v + _dot(_solvers.DOP853_A[s], k) * h for v, k in zip(y, ks)]
        new = z if s == 12 else new
        for k, r in zip(ks, rates(*z)):
            k.append(r)
    return (new, [_dot(_solvers.DOP853_E5, k) for k in ks],
            [_dot(_solvers.DOP853_E3, k) for k in ks], ks)


def _quadratic(*z):
    return tuple(z[i] * z[(i + 1) % len(z)] - 0.5 * z[i] + 1.0 for i in range(len(z)))


def _both_routes(monkeypatch, params, start, t_end, mu=1.0, **kwargs):
    ours = integrate(params, mu, State(*start), t_end, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(_solvers, "dop853", _solve_ivp_kernel)
        theirs = integrate(params, mu, State(*start), t_end, **kwargs)
    return ours, theirs


class TestExplicitKernel:
    @pytest.fixture(scope="class")
    def cycle_run(self, hopf_model, hopf_cp):
        th = mu_thresholds(hopf_cp)
        mu = 1.35 * th.mu0
        start = (hopf_cp.theta_c + 3e-4, hopf_cp.lambda_c - 2e-4)
        traj = integrate(hopf_model, mu, State(*start), 150.0)
        return hopf_model, mu, start, traj

    def test_cycle_rows_match_tight_solve_ivp(self, cycle_run):
        params, mu, start, traj = cycle_run
        ref = solve_ivp(make_rhs(params, mu), (0.0, 150.0), start, method="DOP853",
                        rtol=1e-12, atol=1e-14, dense_output=True).sol(traj.times)
        err = np.maximum(np.abs(traj.thetas - ref[0]), np.abs(traj.lams - ref[1]))
        assert float(err.max()) <= 1e-7

    def test_cycle_steps_match_scipy(self, cycle_run):
        params, mu, start, traj = cycle_run
        sol = solve_ivp(make_rhs(params, mu), (0.0, 150.0), start, method="DOP853",
                        rtol=1e-9, atol=1e-11)
        steps = len(sol.t) - 1
        assert traj.stats.method == "DOP853"
        assert traj.stats.steps == len(traj.times) - 1
        assert abs(traj.stats.steps - steps) <= 0.02 * steps
        assert abs(traj.stats.nfev - sol.nfev) <= 0.02 * sol.nfev
        # Every attempted step costs 12 RHS calls, plus 2 for the first step.
        assert traj.stats.nfev == 2 + 12 * (traj.stats.steps + traj.stats.rejected)
        assert traj.stats.njev == traj.stats.events == 0

    @pytest.mark.parametrize("eps, start, t_end", [(-0.018, (1.39, 0.0045), 200.0),
                                                   (None, (1.6, 0.2), 50.0)])
    def test_full_model_switches_match_solve_ivp(self, hopf_model, monkeypatch,
                                                 eps, start, t_end):
        params = hopf_model if eps is None else replace(hopf_model, epsilon=eps)
        ours, theirs = _both_routes(monkeypatch, params, start, t_end,
                                    model=ModelKind.FULL)
        got, want = _switches(ours), _switches(theirs)
        assert got and [r for *_, r in got] == [r for *_, r in want]
        for (t_a, _, _), (t_b, _, _) in zip(got, want):
            assert t_a == pytest.approx(t_b, abs=1e-10)
        assert ours.stats.events == len(got) + (ours.terminated is Termination.LAMBDA_FLOOR)

    def test_floor_stop_matches_solve_ivp(self, hopf_model, monkeypatch):
        ours, theirs = _both_routes(monkeypatch, hopf_model, (1.6, 0.2), 50.0,
                                    model=ModelKind.FULL)
        assert ours.terminated is theirs.terminated is Termination.LAMBDA_FLOOR
        assert ours.times[-1] == pytest.approx(theirs.times[-1], abs=1e-9)

    @staticmethod
    def _kernel_against_loop(rates, y, h):
        f = rates(*y)
        step, dense = _solvers._dop853_stages(len(y))
        new, e5, e3, ks = step(rates, h, y, f)
        want = _stage_loop(rates, h, y, f)
        assert _bits([new, e5, e3, dense(rates, h, y, ks)]) == _bits(list(want))
        return want

    @given(n=st.sampled_from([2, 4]), y=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           h=st.floats(1e-4, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_compiled_step_matches_the_stage_loop_bit_for_bit(self, n, y, h):
        self._kernel_against_loop(_quadratic, y[:n], h)

    @pytest.mark.parametrize("n", [2, 4])
    def test_compiled_step_keeps_overflow_and_signed_zeros(self, n):
        # Stage 1 overflows to inf. Rows 3-12 weigh it by 0.0, and 0.0 * inf
        # makes the new state nan.
        new, _, _, ks = self._kernel_against_loop(
            lambda *z: tuple(v * v if v < 1e200 else 1.0 for v in z), [1e150] * n, 1e-140)
        assert all(math.isinf(k[1]) for k in ks) and all(map(math.isnan, new))
        # A sum of -0.0 terms is +0.0, as the terms add to 0: in y' = y from
        # -0.0, stage 1 is at +0.0.
        ks = self._kernel_against_loop(lambda *z: z, [-0.0] * n, 0.1)[3]
        assert [_bits(k[:2]) for k in ks] == [[_bits(-0.0), _bits(0.0)]] * n

    def test_rtol_floor_of_100_eps(self, hopf_model):
        # As in scipy, rtol is raised to 100 eps: 1e-14 runs as 2.2e-14.
        runs = [integrate(hopf_model, 3.5, State(1.43, 0.075), 10.0, rel_tol=r)
                for r in (1e-14, 100 * math.ulp(1.0))]
        assert runs[0].stats == runs[1].stats
        np.testing.assert_array_equal(runs[0].times, runs[1].times)

    def test_blow_up_raises_stiffness_error(self):
        # theta' = theta^2 from theta = 1 blows up at t = 1: the step falls
        # below 10 ulp of t, where solve_ivp returns status -1.
        def rates(theta, lam):
            return theta * theta, 0.0

        sol = solve_ivp(lambda t, y: rates(*y), (0.0, 2.0), (1.0, 0.0),
                        method="DOP853", rtol=1e-9, atol=1e-11)
        assert sol.status == -1
        with pytest.raises(StiffnessError) as exc:
            _solvers.dop853(rates, 0.0, (1.0, 0.0), 2.0, 1e-9, 1e-11, [],
                            simulator.SolverStats("DOP853"))
        assert exc.value.time == pytest.approx(float(sol.t[-1]), abs=1e-6)

    def test_only_radau_goes_through_solve_ivp(self, hopf_model, hopf_cp, monkeypatch):
        # Nothing does now: integrate's DOP853 and Radau and the shooting laps
        # all run on in-package steppers. The forwarder stays for callers.
        def refuse(*args, **kwargs):
            raise AssertionError(f"solve_ivp({kwargs.get('method')!r})")

        monkeypatch.setattr(simulator, "solve_ivp", refuse)
        mu0 = mu_thresholds(hopf_cp).mu0
        rows = sweep_mu(hopf_model, [0.9 * mu0, 1.16 * mu0, 1.46 * mu0, 1.9 * mu0, 6.6],
                        cp=hopf_cp, detect_cycles=True)
        assert [row.period is not None for row in rows] == [False, True, True, True, False]
        for kind in ModelKind:
            for mu, method in ((3.0, "DOP853"), (300.0, "Radau")):
                traj = integrate(hopf_model, mu, State(1.40, 0.05), 5.0, model=kind)
                assert traj.stats.method == method

    def test_radau_path_reports_stats(self, hopf_model):
        traj = integrate(hopf_model, 300.0, State(1.40, 0.05), 1.0)
        assert traj.stats.method == "Radau"
        assert traj.stats.steps == len(traj.times) - 1
        assert traj.stats.nfev > 0 and traj.stats.njev > 0
        # Every attempt, accepted or rejected, takes at least one Newton
        # iteration (3 RHS calls); an accepted step adds the rates at its end.
        stats = traj.stats
        assert stats.nfev >= 2 + 3 * (stats.steps + stats.rejected) + stats.steps


# ---------------------------------------------------------------------------
# integrate: the stiff (Radau) path above STIFF_MU
# ---------------------------------------------------------------------------


def _bits(values):
    """Nested floats as their hex forms, so that == compares bits (and -0.0)."""
    if isinstance(values, (list, tuple)):
        return [_bits(v) for v in values]
    return float(values).hex()


def _switches(traj):
    return [(float(traj.times[i]), float(traj.lams[i]), traj.regimes[i])
            for i in range(1, len(traj.times))
            if traj.regimes[i] != traj.regimes[i - 1]]


class TestSharedDriver:
    # Both steppers take their first step from _solvers.select_initial_step,
    # scipy's rule for an error estimator of order 7 (DOP853) or 3 (Radau).
    # numpy's norm rounds differently. The norms agree to a few ulp, but the
    # rule's d2 differences the rates across a step h0 that may be tiny
    # against y, which can magnify an ulp of h0: over 20,000 draws from
    # test_matches_scipy's ranges the two steps differed by at most 29 ulp.
    @staticmethod
    def _scipy_step(rates, t0, y0, t_end, order, rtol, atol):
        from scipy.integrate._ivp.common import select_initial_step

        y = np.array(y0)
        return float(select_initial_step(lambda t, y: np.array(rates(*y.tolist())), t0, y,
                                         t_end, np.inf, np.array(rates(*y0)), 1, order,
                                         rtol, atol))

    @given(n=st.sampled_from([2, 4]), order=st.sampled_from([3, 7]),
           y=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           scale=st.sampled_from([0.0, 1e-9, 1.0, 1e6]), t_end=st.floats(1e-3, 50.0),
           rtol=st.sampled_from([1e-11, 1e-9, 1e-6]))
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy(self, n, order, y, scale, t_end, rtol):
        # scale 0 is a zero field, the rule's h1 = max(1e-6, h0/1000) branch.
        def rates(*z):
            return tuple(scale * r for r in _quadratic(*z))

        y0, atol = tuple(y[:n]), rtol * 1e-2
        ours = _solvers.select_initial_step(rates, 0.5, y0, rates(*y0), 0.5 + t_end, order,
                                            rtol, atol)
        theirs = self._scipy_step(rates, 0.5, y0, 0.5 + t_end, order, rtol, atol)
        assert ours == pytest.approx(theirs, rel=1e-13)

    @pytest.mark.parametrize("order", [3, 7])
    def test_matches_scipy_on_the_model(self, hopf_model, order):
        rates, jac = make_rates(hopf_model, 3.4), make_jacobian(hopf_model, 3.4)

        def flow(theta, lam, u, v):
            (a, b), (c, d) = jac(theta, lam)
            return (*rates(theta, lam), a * u + b * v, c * u + d * v)

        for field, y0 in ((rates, (1.432, 0.0742)), (flow, (1.432, 0.0742, 0.0, 1.0))):
            ours = _solvers.select_initial_step(field, 0.0, y0, field(*y0), 150.0, order,
                                                1e-9, 1e-11)
            theirs = self._scipy_step(field, 0.0, y0, 150.0, order, 1e-9, 1e-11)
            assert ours == pytest.approx(theirs, rel=1e-13)

    def test_overflowing_lap_start_raises_stiffness_error(self):
        # A lap's state is (theta, lambda) and its variation; the error
        # carries the first two.
        with pytest.raises(StiffnessError, match="first-step rule") as exc:
            _solvers.dop853(lambda *y: (1e300,) * 4, 0.5, (1.43, 0.07, 0.0, 1.0), 2.0,
                            1e-11, 1e-13, [], simulator.SolverStats("DOP853"))
        assert exc.value.time == 0.5 and exc.value.state == (1.43, 0.07)

    @pytest.mark.parametrize("method", ["dop853", "radau"])
    def test_both_methods_share_the_event_loop(self, method):
        # u = cos t, v = -sin t: u falls through 0 at pi/2 (a hit), and v
        # rises through 1/2 at 7 pi/6, which ends the run.
        def falls(t, y):
            return y[0]

        def rises(t, y):
            return y[1] - 0.5

        falls.terminal, falls.direction = False, -1
        rises.terminal, rises.direction = True, 1
        solve = getattr(_solvers, method)
        if method == "radau":
            solve = partial(solve, jac=lambda u, v: ((0.0, 1.0), (-1.0, 0.0)))
        stats = simulator.SolverStats(method)
        ts, us, vs, fired, hits = solve(lambda u, v: (v, -u), 0.0, (1.0, 0.0), 10.0, 1e-10,
                                        1e-12, [falls, rises], stats)
        assert fired == 1 and stats.events == 2
        assert ts[-1] == pytest.approx(7 * math.pi / 6, abs=1e-8)
        assert (us[-1], vs[-1]) == pytest.approx((math.cos(7 * math.pi / 6), 0.5), abs=1e-8)
        [(i, root, state)] = hits
        assert i == 0 and root == pytest.approx(math.pi / 2, abs=1e-8)
        assert state == pytest.approx((0.0, -1.0), abs=1e-8)
        assert len(ts) == len(us) == len(vs) == stats.steps + 1


class TestStiffPath:
    @pytest.mark.parametrize("mu", [1.0, 300.0, 1.8e5])
    def test_analytic_jacobian_matches_finite_differences(self, hopf_model, mu):
        jac = make_jacobian(hopf_model, mu)
        rng = np.random.default_rng(6)
        for _ in range(25):
            theta = float(rng.uniform(1.3, 1.55))
            lam = float(rng.uniform(0.005, 0.24))
            got = jac(theta, lam)
            fd = fd_jacobian(hopf_model, mu, State(theta, lam))
            want = np.array([[fd.a11, fd.a12], [fd.a21, fd.a22]])
            np.testing.assert_allclose(got, want, rtol=1e-6,
                                       atol=1e-8 * max(mu, 1.0))

    def test_radau_constants_match_scipy_bit_for_bit(self):
        from scipy.integrate._ivp import radau

        for name in ("C", "E", "T", "TI", "P"):
            assert _bits(getattr(_solvers, name)) == _bits(getattr(radau, name).tolist()), name
        assert _bits([_solvers.MU_REAL]) == _bits([radau.MU_REAL])
        ours, theirs = _solvers.MU_COMPLEX, complex(radau.MU_COMPLEX)
        assert _bits([ours.real, ours.imag]) == _bits([theirs.real, theirs.imag])
        assert _solvers.NEWTON_MAXITER == radau.NEWTON_MAXITER
        assert (_solvers.MIN_FACTOR, _solvers.MAX_FACTOR) == (radau.MIN_FACTOR, radau.MAX_FACTOR)

    def test_dop853_constants_match_scipy_bit_for_bit(self):
        from scipy.integrate._ivp import dop853_coefficients as c

        rows = [c.A[s, :s].tolist() for s in range(c.N_STAGES_EXTENDED)]
        assert _bits(_solvers.DOP853_A) == _bits(rows)
        assert _bits(_solvers.DOP853_A[12]) == _bits(c.B.tolist())
        assert _bits(_solvers.DOP853_E3) == _bits(c.E3.tolist())
        assert _bits(_solvers.DOP853_E5) == _bits(c.E5.tolist())
        assert _bits(_solvers.DOP853_D) == _bits(c.D.tolist())

    @pytest.mark.parametrize("case", ["table1-seed11-0", "table1-seed11-1", "hopf-mu300"])
    def test_radau_rows_and_counts_match_scipy(self, table1_model, table1_scales,
                                               hopf_model, case):
        # The second route: scipy's Radau with the same analytic Jacobian,
        # which takes jac(t, y).
        # Both take the same steps; the two start rounding differently (numpy
        # norms use fused multiply-adds), so the rows are compared on scipy's
        # dense output at our times. Starts: stiff-table1's seed-11 draws.
        params, mu, start, t_end = {
            "table1-seed11-0": (table1_model, table1_scales.mu,
                                (1.432268524942321, 0.17281806683690987), 0.25),
            "table1-seed11-1": (table1_model, table1_scales.mu,
                                (0.950736146122533, 0.1058300765846871), 0.25),
            "hopf-mu300": (hopf_model, 300.0, (1.40, 0.05), 10.0),
        }[case]
        traj, jac = integrate(params, mu, State(*start), t_end), make_jacobian(params, mu)
        sol = solve_ivp(make_rhs(params, mu), (0.0, t_end), start, method="Radau",
                        rtol=1e-9, atol=1e-11, jac=lambda t, y: jac(*y),
                        dense_output=True)
        assert sol.status == 0
        ref = sol.sol(traj.times)
        err = np.maximum(np.abs(traj.thetas - ref[0]), np.abs(traj.lams - ref[1]))
        assert float(err.max()) <= 1e-10
        assert traj.times[-1] == sol.t[-1] == t_end
        # Decision for decision scipy's, so the counts are equal, not only
        # within the 2% that a flipped rounding could cost. The second
        # table1 start has two rejections that take the error estimate's
        # second solve, whose RHS call nfev counts.
        counts = (traj.stats.steps, traj.stats.nfev, traj.stats.njev)
        assert counts == (len(sol.t) - 1, sol.nfev, sol.njev)

    def test_radau_step_floor_raises_at_scipy_time(self):
        # theta' = theta^2 from theta = 1 blows up at t = 1: the step falls
        # below 10 ulp of t, where solve_ivp returns status -1.
        def rates(theta, lam):
            return theta * theta, 0.0

        def jac(theta, lam):
            return (2.0 * theta, 0.0), (0.0, 0.0)

        sol = solve_ivp(lambda t, y: rates(*y), (0.0, 2.0), (1.0, 0.0), method="Radau",
                        rtol=1e-9, atol=1e-11, jac=lambda t, y: jac(*y))
        assert sol.status == -1
        with pytest.raises(StiffnessError, match="less than spacing") as exc:
            _solvers.radau(rates, 0.0, (1.0, 0.0), 2.0, 1e-9, 1e-11, [],
                           simulator.SolverStats("Radau"), jac)
        assert exc.value.time == pytest.approx(float(sol.t[-1]), abs=1e-6)

    def test_unusable_iteration_matrix_rejects_steps(self):
        # A NaN Jacobian fails every Newton iteration, so every step is
        # halved down to the floor: a typed error, not a float exception.
        stats = simulator.SolverStats("Radau")
        with pytest.raises(StiffnessError, match="less than spacing"):
            _solvers.radau(lambda th, la: (-th, -la), 0.0, (1.0, 0.5), 1.0, 1e-9, 1e-11, [],
                           stats, lambda u, v: ((math.nan,) * 2,) * 2)
        assert stats.steps == 0 and stats.rejected > 0
        assert _solvers._factor(1.0, ((1.0, 0.0), (0.0, 0.5))) is None

    @pytest.mark.parametrize("kind, eps, start, t_end", [
        (ModelKind.SIMPLIFIED, None, (1.40, 0.05), 10.0),
        (ModelKind.FULL, -0.018, (1.39, 0.0045), 30.0),
    ])
    def test_radau_matches_tight_rk45(self, hopf_model, monkeypatch,
                                      kind, eps, start, t_end):
        params = hopf_model if eps is None else replace(hopf_model, epsilon=eps)
        mu = 300.0
        assert mu > simulator.STIFF_MU
        stiff = integrate(params, mu, State(*start), t_end, model=kind)
        if kind is ModelKind.SIMPLIFIED:
            # The explicit path of integrate is DOP853, which needs far
            # fewer steps than the RK45 run this test compares against.
            sol = solve_ivp(make_rhs(params, mu), (0.0, t_end), start,
                            method="RK45", rtol=1e-12, atol=1e-14)
            ref = Trajectory(sol.t, sol.y[0], sol.y[1], Termination.TIME_LIMIT
                             if sol.status == 0 else None)
        else:
            monkeypatch.setattr(simulator, "STIFF_MU", math.inf)
            ref = integrate(params, mu, State(*start), t_end, model=kind,
                            rel_tol=1e-12, abs_tol=1e-14)
        assert len(stiff.times) < len(ref.times) / 2
        assert stiff.terminated is ref.terminated is Termination.TIME_LIMIT
        assert stiff.thetas[-1] == pytest.approx(ref.thetas[-1], abs=1e-8)
        assert stiff.lams[-1] == pytest.approx(ref.lams[-1], abs=1e-8)
        if kind is ModelKind.FULL:
            got, want = _switches(stiff), _switches(ref)
            assert [r for *_, r in got] == [r for *_, r in want]
            assert got, "expected the nucleation-to-accumulating restart"
            for (t_a, lam_a, _), (t_b, lam_b, _) in zip(got, want):
                assert t_a == pytest.approx(t_b, abs=1e-8)
                assert lam_a == pytest.approx(lam_b, abs=1e-8)


# ---------------------------------------------------------------------------
# poincare_cycle
# ---------------------------------------------------------------------------


class TestPoincareCycle:
    def test_mu_must_be_positive(self, hopf_model, hopf_cp):
        with pytest.raises(DomainError):
            poincare_cycle(hopf_model, -1.0, hopf_cp)

    def test_below_onset_returns_none(self, hopf_model, hopf_cp):
        th = mu_thresholds(hopf_cp)
        assert poincare_cycle(hopf_model, 0.9 * th.mu0, hopf_cp) is None

    def test_near_onset_period_matches_linear_frequency(self, hopf_model,
                                                        hopf_cp):
        th = mu_thresholds(hopf_cp)
        cycle = poincare_cycle(hopf_model, (1 + 1e-3) * th.mu0, hopf_cp)
        assert cycle is not None
        linear_period = 2.0 * math.pi / th.omega0
        assert cycle.period == pytest.approx(linear_period, rel=0.02)
        assert cycle.amplitude_theta > 0
        assert cycle.amplitude_lambda > 0
        assert all(p.theta == hopf_cp.theta_c for p in cycle.section_points)
        gaps = [abs(b.lam - a.lam) for a, b in
                zip(cycle.section_points, cycle.section_points[1:])]
        assert gaps and all(g < 1e-7 for g in gaps)


    def test_window_cycle_attracts(self, hopf_model, hopf_cp):
        th = mu_thresholds(hopf_cp)
        cycle = poincare_cycle(hopf_model, 1.16 * th.mu0, hopf_cp)
        assert cycle is not None
        assert 0.0 < cycle.multiplier < 1.0
        assert cycle.laps <= 8
        start, back = cycle.section_points
        assert start.lam < hopf_cp.lambda_c
        assert abs(back.lam - start.lam) <= 1e-10

    def test_multiplier_is_exp_of_divergence_integral(self, hopf_model,
                                                      hopf_cp):
        # Liouville: for a planar cycle the nontrivial multiplier is
        # exp(integral of div f over one period), here with a
        # finite-difference divergence of model.vector_field.
        th = mu_thresholds(hopf_cp)
        mu = 1.16 * th.mu0
        cycle = poincare_cycle(hopf_model, mu, hopf_cp)

        def field(theta, lam):
            return vector_field(hopf_model, mu, State(theta, lam))

        def rhs(t, y):
            h = 1e-7
            div = (field(y[0] + h, y[1])[0] - field(y[0] - h, y[1])[0]
                   + field(y[0], y[1] + h)[1] - field(y[0], y[1] - h)[1]) / (2 * h)
            return (*field(y[0], y[1]), div)

        start = cycle.section_points[0]
        sol = solve_ivp(rhs, (0.0, cycle.period), (start.theta, start.lam, 0.0),
                        method="DOP853", rtol=1e-10, atol=1e-12)
        assert sol.y[0, -1] == pytest.approx(start.theta, abs=1e-8)
        assert sol.y[1, -1] == pytest.approx(start.lam, abs=1e-8)
        assert math.exp(sol.y[2, -1]) == pytest.approx(cycle.multiplier, rel=1e-6)

    def test_matches_direct_integration(self, hopf_model, hopf_cp):
        # At 1.16 mu0 the multiplier is about 0.71, so 100 time units of
        # plain integration leave no visible transient.
        th = mu_thresholds(hopf_cp)
        mu = 1.16 * th.mu0
        cycle = poincare_cycle(hopf_model, mu, hopf_cp)
        period, amp_theta, amp_lam = direct_cycle(hopf_model, mu, hopf_cp)
        assert cycle.period == pytest.approx(period, rel=1e-6)
        assert cycle.amplitude_theta == pytest.approx(amp_theta, rel=1e-4)
        assert cycle.amplitude_lambda == pytest.approx(amp_lam, rel=1e-4)

    def test_subcritical_cycle_repels(self, hopf_model):
        # A softer albedo curve makes l1 positive: the cycle is born below
        # mu0, around a stable focus, and it is unstable.
        params = replace(
            hopf_model,
            albedo=replace(hopf_model.albedo, steepness=0.03))
        cp = [p for p in find_equilibria(params) if p.g1 > p.f1 > 0][0]
        hopf = hopf_analysis(cp)
        assert hopf.l1 == pytest.approx(107.0, rel=0.01)
        assert hopf.mu0 == pytest.approx(0.502, rel=1e-3)
        mu = 0.99 * hopf.mu0
        assert classify(cp, mu) is Classification.STABLE_FOCUS
        cycle = poincare_cycle(params, mu, cp)
        assert cycle is not None
        assert cycle.multiplier > 1.0
        assert poincare_cycle(params, 1.01 * hopf.mu0, cp) is None

    def test_saddle_has_no_cycle(self, hopf_model):
        saddle = find_equilibria(hopf_model)[1]
        assert classify(saddle, 3.0) is Classification.SADDLE
        assert poincare_cycle(hopf_model, 3.0, saddle) is None

    def test_past_window_end_returns_none(self, hopf_model, hopf_cp):
        # The cycle dies near the saddle at mu ~ 5.4; beyond it the orbit
        # escapes to the cold node, and the hunt says so in a few laps.
        assert poincare_cycle(hopf_model, 6.6, hopf_cp) is None

    def test_max_time_caps_the_hunt(self, hopf_model, hopf_cp):
        th = mu_thresholds(hopf_cp)
        assert poincare_cycle(hopf_model, 1.16 * th.mu0, hopf_cp,
                              max_time=2.0) is None
        with pytest.raises(ValueError, match="max_time"):
            poincare_cycle(hopf_model, 1.16 * th.mu0, hopf_cp, max_time=0.0)

    def test_cycle_survives_to_the_window_end(self, hopf_model, hopf_cp):
        # hopf_demo's window ends in a fold of cycles just above mu = 5.45702,
        # where the multiplier nears 1 and Newton needs more laps. The
        # transient hunt this replaced gave period 2.057464 and
        # amplitude_theta 0.016974 here, its last cycle on a 1e-5 grid.
        cycle = poincare_cycle(hopf_model, 5.45702, hopf_cp)
        assert cycle is not None
        assert 0.95 < cycle.multiplier < 1.0
        assert cycle.period == pytest.approx(2.057464, rel=1e-4)
        assert cycle.amplitude_theta == pytest.approx(0.016974, rel=1e-3)

    @pytest.mark.parametrize("steepness, factor", [(None, 1.16), (None, 1.46), (0.03, 0.99)])
    def test_laps_match_solve_ivp(self, hopf_model, hopf_cp, monkeypatch, steepness, factor):
        # The second route: the same hunt with every lap solved by solve_ivp,
        # on hopf_demo's window and around the subcritical onset's stable focus.
        params, cp = hopf_model, hopf_cp
        if steepness is not None:
            params = replace(hopf_model, albedo=replace(hopf_model.albedo, steepness=steepness))
            cp = [p for p in find_equilibria(params) if p.g1 > p.f1 > 0][0]
        mu = factor * hopf_analysis(cp).mu0
        ours = poincare_cycle(params, mu, cp)
        with monkeypatch.context() as m:
            m.setattr(_solvers, "dop853", _solve_ivp_kernel)
            theirs = poincare_cycle(params, mu, cp)
        assert ours.laps == theirs.laps
        assert ours.period == pytest.approx(theirs.period, rel=1e-9)
        assert ours.section_points[0].lam == pytest.approx(theirs.section_points[0].lam, rel=1e-9)
        assert ours.amplitude_theta == pytest.approx(theirs.amplitude_theta, abs=1e-9)
        assert ours.amplitude_lambda == pytest.approx(theirs.amplitude_lambda, abs=1e-9)
        assert ours.multiplier == pytest.approx(theirs.multiplier, rel=1e-7)
        for name in ("steps", "nfev"):
            want = getattr(theirs.stats, name)
            assert abs(getattr(ours.stats, name) - want) <= 0.02 * want

    def test_stats_sum_over_the_laps(self, hopf_model, hopf_cp, monkeypatch):
        calls = [0]

        def counted_rates(*args):
            rates = make_rates(*args)

            def counted(theta, lam):
                calls[0] += 1
                return rates(theta, lam)

            return counted

        monkeypatch.setattr(simulator, "make_rates", counted_rates)
        th = mu_thresholds(hopf_cp)
        cycle = poincare_cycle(hopf_model, 1.16 * th.mu0, hopf_cp)
        stats = cycle.stats
        assert stats.method == "DOP853" and stats.njev == 0
        # Each lap has two halves and locates six events: two section
        # crossings and the two turning points of theta and of lambda.
        assert stats.events == 6 * cycle.laps
        # 2 RHS calls start each half-lap, 12 go into every attempted step
        # and 3 into the dense output of each step that located an event (at
        # this tolerance no step holds two). The multiplier costs one more
        # call per lap, outside the solver.
        assert stats.nfev == (2 * 2 * cycle.laps + 12 * (stats.steps + stats.rejected)
                              + 3 * stats.events)
        assert calls[0] == stats.nfev + cycle.laps

    @pytest.mark.parametrize("start", [1e-3, 0.5, 1.0 - 1e-9])
    def test_bad_first_guess_falls_back_to_bracket(self, hopf_model, hopf_cp,
                                                   monkeypatch, start):
        th = mu_thresholds(hopf_cp)
        mu = 1.16 * th.mu0
        ref = poincare_cycle(hopf_model, mu, hopf_cp)
        monkeypatch.setattr(simulator, "_normal_form_start",
                            lambda *args: start * hopf_cp.lambda_c)
        cycle = poincare_cycle(hopf_model, mu, hopf_cp)
        assert cycle.laps > ref.laps
        assert cycle.period == pytest.approx(ref.period, rel=1e-9)
        assert cycle.amplitude_theta == pytest.approx(ref.amplitude_theta,
                                                      rel=1e-8)


class TestAmplitudeCurve:
    def test_absent_below_onset_and_growing_above(self, hopf_model, hopf_cp):
        th = mu_thresholds(hopf_cp)
        mus = [0.9 * th.mu0, (1 + 1e-3) * th.mu0, (1 + 4e-3) * th.mu0]
        below, near, far = (poincare_cycle(hopf_model, mu, hopf_cp) for mu in mus)
        assert below is None
        assert near is not None and far is not None
        assert 0 < near.amplitude_theta < far.amplitude_theta


# ---------------------------------------------------------------------------
# sweep_mu
# ---------------------------------------------------------------------------


class TestSweepMu:
    def test_grid_validation(self, hopf_model):
        with pytest.raises(ValueError):
            sweep_mu(hopf_model, [])
        with pytest.raises(ValueError):
            sweep_mu(hopf_model, [0.5, -1.0])
        with pytest.raises(ValueError):
            sweep_mu(hopf_model, [3.0, math.inf], detect_cycles=True)
        with pytest.raises(ValueError):
            sweep_mu(hopf_model, [math.nan, 3.0], detect_cycles=True)

    def test_classification_flips_across_thresholds(self, hopf_model, hopf_cp):
        th = mu_thresholds(hopf_cp)
        grid = [0.5 * th.mu1, 2.0 * th.mu1, 0.95 * th.mu0, 1.05 * th.mu0]
        rows = sweep_mu(hopf_model, grid, cp=hopf_cp)
        kinds = [row.kind for row in rows]
        assert kinds == [
            Classification.STABLE_NODE,
            Classification.STABLE_FOCUS,
            Classification.STABLE_FOCUS,
            Classification.UNSTABLE_FOCUS,
        ]
        assert [row.mu for row in rows] == sorted(grid)

    def test_rows_sorted_even_for_unsorted_input(self, hopf_model, hopf_cp):
        rows = sweep_mu(hopf_model, [3.0, 1.0, 2.0], cp=hopf_cp)
        assert [row.mu for row in rows] == [1.0, 2.0, 3.0]

    def test_detect_cycles_fills_cycle_columns(self, hopf_model, hopf_cp):
        th = mu_thresholds(hopf_cp)
        rows = sweep_mu(hopf_model, [1.002 * th.mu0], cp=hopf_cp,
                        detect_cycles=True)
        row = rows[0]
        assert row.kind is Classification.UNSTABLE_FOCUS
        assert row.period == pytest.approx(2.0 * math.pi / th.omega0, rel=0.02)
        assert row.amplitude_theta > 0
        assert row.amplitude_lambda > 0

    def test_off_equilibrium_point_marks_rows_degenerate(self, hopf_model):
        fake = critical_point_at(hopf_model, 1.2)  # not a nullcline crossing
        rows = sweep_mu(hopf_model, [0.5, 1.5], cp=fake)
        assert all(row.kind is None for row in rows)

    def test_default_cp_prefers_oscillation_candidate(self, hopf_model,
                                                      hopf_cp):
        th = mu_thresholds(hopf_cp)
        rows = sweep_mu(hopf_model, [1.05 * th.mu0])
        assert rows[0].kind is Classification.UNSTABLE_FOCUS

    def test_subcritical_onset_reports_repelling_cycles(self, hopf_model):
        # l1 > 0 under the softer albedo curve: the cycle is born below mu0
        # = 0.502 around a stable focus, so the stable-focus rows are hunted.
        params = replace(hopf_model, albedo=replace(hopf_model.albedo, steepness=0.03))
        cp = [p for p in find_equilibria(params) if p.g1 > p.f1 > 0][0]
        rows = sweep_mu(params, [0.48, 0.49, 0.5], cp=cp, detect_cycles=True)
        assert all(row.kind is Classification.STABLE_FOCUS for row in rows)
        assert all(row.period is not None and row.amplitude_theta > 0 for row in rows)
        for row in rows:
            assert poincare_cycle(params, row.mu, cp).multiplier > 1.0

    def test_supercritical_stable_focus_rows_have_no_cycle(self, hopf_model, hopf_cp):
        th = mu_thresholds(hopf_cp)
        rows = sweep_mu(hopf_model, [0.9 * th.mu0, 0.99 * th.mu0], cp=hopf_cp,
                        detect_cycles=True)
        for row in rows:
            assert row.kind is Classification.STABLE_FOCUS
            assert row.period is row.amplitude_theta is row.amplitude_lambda is None
