"""Equilibrium structure of the planar system.

Equilibria are crossings of the nullclines f (temperature) and g (ice); the
number of crossings is governed by where the two local extrema of f sit
relative to the saturation levels of g. A separate pair of helpers treats the
lambda-equation fixed points of the full model, which split into a small and a
large branch when the snow line admits them.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoBranches, TangencyWarning
from .model import ModelParams, bisect, nullcline_f, nullcline_g, response_eval

TANGENCY_TOL = 1e-9


@dataclass(frozen=True)
class CriticalPoint:
    """Equilibrium (theta_c, lambda_c) with cached derivative data.

    f1..f3 and g1, g2 are theta-derivatives of the nullclines at theta_c;
    xi_c and xi1..xi3 are the accumulation response and its derivatives;
    alpha2 and gamma are the model's, so that the closed forms in stability
    need nothing but the point and mu.
    """

    theta_c: float
    lambda_c: float
    f1: float
    f2: float
    f3: float
    g1: float
    g2: float
    xi_c: float
    xi1: float
    xi2: float
    xi3: float
    alpha2: float
    gamma: float


@dataclass(frozen=True)
class BranchPair:
    """The two lambda-equation fixed points and their guaranteed enclosures."""

    lambda1: float
    lambda2: float
    zeta: float
    bounds1: tuple[float, float]
    bounds2: tuple[float, float]


class EquilibriumCount(enum.Enum):
    """Coarse equilibrium count from the extrema/saturation comparison."""

    ONE = "one"
    AT_LEAST_THREE = "at_least_three"
    FIVE = "five"
    DEGENERATE = "degenerate"


def critical_point_at(params: ModelParams, theta_c: float) -> CriticalPoint:
    """Assemble the cached-derivative record at a known equilibrium theta."""
    return CriticalPoint(
        theta_c=float(theta_c),
        lambda_c=nullcline_g(params, theta_c, 0),
        f1=nullcline_f(params, theta_c, 1),
        f2=nullcline_f(params, theta_c, 2),
        f3=nullcline_f(params, theta_c, 3),
        g1=nullcline_g(params, theta_c, 1),
        g2=nullcline_g(params, theta_c, 2),
        xi_c=response_eval(params.accum, theta_c, 0),
        xi1=response_eval(params.accum, theta_c, 1),
        xi2=response_eval(params.accum, theta_c, 2),
        xi3=response_eval(params.accum, theta_c, 3),
        alpha2=params.alpha2,
        gamma=params.gamma,
    )


def theta_extrema(params: ModelParams) -> tuple[float, float] | None:
    """Locate the two zeros of f' bracketing the albedo transition.

    Returns (theta_m, theta_M) with theta_m < theta_M, or None when the albedo
    gradient is everywhere too shallow to overcome the Planck slope (f' < 0
    globally and f is monotone).
    """
    center = params.albedo.center
    if nullcline_f(params, center, 1) <= 0:
        return None

    def fp(th):
        return nullcline_f(params, th, 1)

    roots = []
    for sign in (-1.0, 1.0):
        step = params.albedo.steepness
        a = center
        b = center + sign * step
        # f' -> -1/(gamma*alpha2) < 0 far from the transition, so doubling the
        # bracket must eventually cross zero.
        for _ in range(200):
            if fp(b) < 0:
                break
            b += sign * step
            step *= 2.0
        else:
            return None
        lo, hi = (b, a) if sign < 0 else (a, b)
        roots.append(bisect(fp, lo, hi, xtol=1e-15))
    theta_m, theta_M = sorted(roots)
    return theta_m, theta_M


def find_equilibria(
    params: ModelParams,
    theta_range: tuple[float, float] = (0.5, 2.5),
    grid_n: int = 2000,
) -> list[CriticalPoint]:
    """All equilibria in theta_range, sorted ascending in theta.

    Brackets sign changes of h = f - g on a uniform grid and refines each by
    bisection to |h| <= 1e-12. Only crossings with lambda_c strictly inside
    (0, 1/4) are kept. Near-tangencies (|h| < 1e-9 over three adjacent cells
    with no sign change) are still reported, with a TangencyWarning issued,
    at the point of the run where f' = g', found by bisection.
    """
    lo, hi = theta_range
    if not (0 < lo < hi):
        raise ValueError(f"theta_range must satisfy 0 < lo < hi, got {theta_range}")
    if grid_n < 100:
        raise ValueError(f"grid_n must be at least 100, got {grid_n}")

    def gap(th, order=0):
        return nullcline_f(params, th, order) - nullcline_g(params, th, order)

    def slope_gap(th):
        return gap(th, 1)

    grid = np.linspace(lo, hi, grid_n + 1)
    h = gap(grid)

    # Signs, not products of neighbours: a product can overflow, or underflow
    # to 0 and hide a sign change.
    neg, pos = h < 0.0, h > 0.0
    roots = [float(grid[i]) for i in np.flatnonzero(h == 0.0)]
    changes = neg[:-1] & pos[1:] | pos[:-1] & neg[1:]
    roots += [bisect(gap, grid[i], grid[i + 1], xtol=1e-15) for i in np.flatnonzero(changes)]

    # Tangency scan: each run of >= 3 quiet cells (|h| small at both ends, no
    # zero and no sign change) yields one warning and one reported point: where
    # the slopes agree, or the run's end with the smaller |h| if f' - g' keeps
    # one sign over the run.
    small = np.abs(h) < TANGENCY_TOL
    quiet = small[:-1] & small[1:] & (pos[:-1] & pos[1:] | neg[:-1] & neg[1:])
    edges = np.diff(np.concatenate(([0], quiet.astype(np.int8), [0])))
    for i, j in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)):
        if j - i < 3:
            continue
        if slope_gap(grid[i]) * slope_gap(grid[j]) <= 0:
            th = bisect(slope_gap, grid[i], grid[j], xtol=1e-15)
        else:
            th = float(grid[i] if abs(h[i]) <= abs(h[j]) else grid[j])
        warnings.warn(
            TangencyWarning(
                f"nullclines nearly tangent near theta = {th:.9g} (|f - g| = {abs(gap(th)):.3g})"
            )
        )
        roots.append(th)

    points = []
    for th in sorted(set(roots)):
        lam = nullcline_g(params, th, 0)
        if 0.0 < lam < 0.25:
            points.append(critical_point_at(params, th))
    return points


def count_classification(params: ModelParams) -> EquilibriumCount:
    """Coarse equilibrium count from the shape comparison of f and g.

    Compares the values of f at its local extrema theta_m < theta_M with the
    saturation levels g_minus, g_plus of the ice nullcline; the interior-slope
    condition distinguishes five crossings from three.
    """
    ext = theta_extrema(params)
    if ext is None:
        return EquilibriumCount.DEGENERATE
    theta_m, theta_M = ext
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TangencyWarning)
        points = find_equilibria(params)
    if any(issubclass(w.category, TangencyWarning) for w in caught):
        return EquilibriumCount.DEGENERATE

    g_minus = 0.25 * params.accum.limit_minus / (1.0 + params.accum.limit_minus)
    g_plus = 0.25 * params.accum.limit_plus / (1.0 + params.accum.limit_plus)
    f_m = nullcline_f(params, theta_m, 0)
    f_M = nullcline_f(params, theta_M, 0)
    g_m = nullcline_g(params, theta_m, 0)
    g_M = nullcline_g(params, theta_M, 0)

    if g_plus <= f_m or g_minus >= f_M or (g_m < f_m and g_M > f_M):
        return EquilibriumCount.ONE
    if f_m < g_minus and g_plus < f_M:
        interior = any(
            theta_m < p.theta_c < theta_M and p.f1 < p.g1 for p in points
        )
        return EquilibriumCount.FIVE if interior else EquilibriumCount.AT_LEAST_THREE
    return EquilibriumCount.DEGENERATE


def _check_branch_hypothesis(xi: float, epsilon: float) -> None:
    if not xi > 0:
        raise DomainError(f"xi must be positive, got {xi}")
    if epsilon > 0:
        threshold = 0.25 * xi / (2.0 + xi)
        if epsilon >= threshold:
            raise NoBranches(
                f"eps = {epsilon} must be below {threshold} (double root at equality)",
                threshold,
            )
    else:
        threshold = -(2.0 + xi) / (2.0 * xi)
        if epsilon < threshold:
            raise NoBranches(
                f"eps = {epsilon} must be at least {threshold}", threshold
            )


def lambda_branches(xi: float, epsilon: float) -> BranchPair:
    """Fixed points of the lambda equation at accumulation ratio xi, with
    guaranteed enclosing intervals for each.

    These are the two roots of lambda0(lambda) = zeta with zeta = 1/(1+xi):
    a small sheet near the nucleation scale and a large one near the cap
    xi*(1+xi)/(2+xi)^2. Raises NoBranches when eps violates the existence
    hypothesis (including the tangent double-root equality case).
    """
    _check_branch_hypothesis(xi, epsilon)
    zeta = 1.0 / (1.0 + xi)
    ratio = (1.0 + zeta) / (1.0 - zeta)
    pref = (1.0 - zeta) / (2.0 * (1.0 + zeta) ** 2)
    disc = 1.0 - 4.0 * epsilon * ratio
    lam1 = pref * (1.0 - 2.0 * epsilon * ratio - math.sqrt(disc))
    lam2 = pref * (1.0 - 2.0 * epsilon * ratio + math.sqrt(disc))
    cap = xi * (1.0 + xi) / (2.0 + xi) ** 2
    r1 = 1.0 + 1.0 / xi
    r2 = 1.0 - 1.0 / (2.0 + xi)
    if epsilon > 0:
        b1 = (r1 * epsilon**2, 4.0 * r1 * epsilon**2)
        b2 = (cap - 3.0 * r2 * epsilon, cap - 2.0 * r2 * epsilon)
    else:
        b1 = (
            r1 * epsilon**2 + 2.0 * r1 * (1.0 + 2.0 / xi) * epsilon**3,
            r1 * epsilon**2,
        )
        b2 = (cap - r2 * epsilon, cap - 2.0 * r2 * epsilon)
    return BranchPair(lambda1=lam1, lambda2=lam2, zeta=zeta, bounds1=b1, bounds2=b2)


def lambda0_max(epsilon: float) -> tuple[float, float]:
    """Location and value of the snow-line maximum over admissible lambda.

    For eps > 0 the maximum is interior at lambda = eps(1+4eps)/2 with value
    (1-4eps)/(1+4eps). For eps <= 0 the supremum is 1, attained at the
    nucleation boundary lambda = -eps/2 (the limit point lambda -> 0+ when
    eps = 0).
    """
    if epsilon > 0:
        lam_max = 0.5 * epsilon * (1.0 + 4.0 * epsilon)
        return lam_max, (1.0 - 4.0 * epsilon) / (1.0 + 4.0 * epsilon)
    return -epsilon / 2.0, 1.0
