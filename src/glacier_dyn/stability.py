"""Linear stability and local bifurcation analysis at equilibria.

Everything here is closed-form in a CriticalPoint, which carries the
nullcline derivatives and the model's alpha2 and gamma, and mu: the Jacobian,
its eigenvalues, the mu windows separating node, focus, and unstable
behaviour, the first Lyapunov coefficient at the Hopf value mu0, and the
quadratic center-manifold coefficient at a nullcline tangency.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DegenerateSlope, DomainError, NotHopfCandidate, NotTangent
from .equilibria import CriticalPoint

TANGENCY_REL_TOL = 1e-9
# |f'' - g''| at or below this, relative to max(1, |f''|, |g''|), leaves the
# center-manifold reduction below mu0 inconclusive.
QUAD_REL_TOL = 1e-10
HOPF_CENTER_REL_TOL = 1e-12


@dataclass(frozen=True)
class Jacobian2:
    """Jacobian entries in (theta, lambda) order."""

    a11: float
    a12: float
    a21: float
    a22: float

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21


@dataclass(frozen=True)
class MuThresholds:
    """Stability-window boundaries in mu; entries absent where undefined.

    mu1 and mu2 bound the focus window, mu0 is the trace zero (Hopf value,
    needs g' > f' > 0), omega0 the angular frequency there.
    """

    mu1: float | None
    mu2: float | None
    mu0: float | None
    omega0: float | None


class Criticality(enum.Enum):
    SUPERCRITICAL = "supercritical"
    SUBCRITICAL = "subcritical"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class HopfData:
    """Hopf point summary: location, frequency, first Lyapunov coefficient."""

    mu0: float
    omega0: float
    l1: float
    criticality: Criticality
    transversality: float


class Classification(enum.Enum):
    STABLE_NODE = "stable_node"
    STABLE_FOCUS = "stable_focus"
    UNSTABLE_FOCUS = "unstable_focus"
    UNSTABLE_NODE = "unstable_node"
    SADDLE = "saddle"
    HOPF_CENTER = "hopf_center"
    NON_HYPERBOLIC_TANGENCY = "non_hyperbolic_tangency"


class CenterManifoldVerdict(enum.Enum):
    UNSTABLE = "unstable"
    UNSTABLE_IF_QUAD_NONZERO = "unstable_if_quad_nonzero"
    INCONCLUSIVE = "inconclusive"


def is_tangent(cp: CriticalPoint) -> bool:
    """Nullcline slopes equal to within refinement noise."""
    return abs(cp.f1 - cp.g1) <= TANGENCY_REL_TOL * max(abs(cp.f1), abs(cp.g1))


def jacobian(cp: CriticalPoint, mu: float) -> Jacobian2:
    """Linearization [[mu*a2*g*f', -mu*a2*g], [(xi/sqrt(lam))*g', -xi/sqrt(lam)]]."""
    if not cp.lambda_c > 0:
        raise DomainError(f"lambda_c must be positive, got {cp.lambda_c}")
    if not (math.isfinite(mu) and mu > 0):
        raise DomainError(f"mu must be finite and positive, got {mu}")
    k = mu * cp.alpha2 * cp.gamma
    b = cp.xi_c / math.sqrt(cp.lambda_c)
    return Jacobian2(a11=k * cp.f1, a12=-k, a21=b * cp.g1, a22=-b)


def eigenvalues(cp: CriticalPoint, mu: float) -> tuple[complex, complex]:
    """Eigenvalue pair (tr/2 +- sqrt(tr^2 - 4 det)/2), exactly conjugate when
    the discriminant is negative."""
    jac = jacobian(cp, mu)
    tr, det = jac.trace, jac.det
    disc = tr * tr - 4.0 * det
    if disc >= 0:
        root = math.sqrt(disc)
        return complex(0.5 * (tr + root)), complex(0.5 * (tr - root))
    imag = 0.5 * math.sqrt(-disc)
    return complex(0.5 * tr, imag), complex(0.5 * tr, -imag)


def mu_thresholds(cp: CriticalPoint) -> MuThresholds:
    """Stability-window boundaries from the trace/discriminant closed forms.

    mu1, mu2 are the discriminant zeros, present when g' >= f' and f' != 0;
    mu0, omega0 are present when g' > f' > 0. The bracket carries a factor 2
    on the square root so that the discriminant of the Jacobian vanishes
    exactly at mu1 and mu2.
    """
    f1, g1 = cp.f1, cp.g1
    if f1 == 0.0:
        raise DegenerateSlope("f'(theta_c) = 0: threshold formulas divide by it")
    b = cp.xi_c / math.sqrt(cp.lambda_c)
    mu1 = mu2 = mu0 = omega0 = None
    if g1 >= f1:
        scale = b / (cp.alpha2 * cp.gamma * f1 * f1)
        root = 2.0 * math.sqrt(g1 * (g1 - f1))
        mu1 = scale * (2.0 * g1 - f1 - root)
        mu2 = scale * (2.0 * g1 - f1 + root)
    if g1 > f1 > 0:
        mu0 = b / (cp.alpha2 * cp.gamma * f1)
        omega0 = b * math.sqrt(g1 / f1 - 1.0)
    return MuThresholds(mu1=mu1, mu2=mu2, mu0=mu0, omega0=omega0)


def classify(cp: CriticalPoint, mu: float) -> Classification:
    """Equilibrium type at the given mu, with the interval endpoints closed or
    open exactly as the stability windows prescribe."""
    if not (math.isfinite(mu) and mu > 0):
        raise DomainError(f"mu must be finite and positive, got {mu}")
    if is_tangent(cp):
        return Classification.NON_HYPERBOLIC_TANGENCY
    f1, g1 = cp.f1, cp.g1
    if f1 < 0:
        th = mu_thresholds(cp)
        if th.mu1 is None or mu <= th.mu1 or mu >= th.mu2:
            return Classification.STABLE_NODE
        return Classification.STABLE_FOCUS
    if g1 < f1:
        return Classification.SADDLE
    # g' > f' > 0: the full node/focus/Hopf/unstable ladder.
    th = mu_thresholds(cp)
    if abs(mu - th.mu0) <= HOPF_CENTER_REL_TOL * th.mu0:
        return Classification.HOPF_CENTER
    if mu <= th.mu1:
        return Classification.STABLE_NODE
    if mu < th.mu0:
        return Classification.STABLE_FOCUS
    if mu < th.mu2:
        return Classification.UNSTABLE_FOCUS
    return Classification.UNSTABLE_NODE


def lyapunov_l1(cp: CriticalPoint) -> float:
    """First Lyapunov coefficient l1 at mu = mu0, evaluated from the closed
    form in the cached derivatives.

    The third accumulation derivative cancels identically from the sum, so
    only f', f'', f''', g', xi, xi', xi'' at the critical point enter. The
    sign decides sub- vs supercritical onset; alpha2 and gamma drop out of
    l1 entirely.
    """
    lam, f1, f2, f3, g1 = cp.lambda_c, cp.f1, cp.f2, cp.f3, cp.g1
    xi, x1, x2 = cp.xi_c, cp.xi1, cp.xi2
    D = math.sqrt(g1 / f1 - 1.0)
    lam2 = lam * lam
    xi2sq = xi * xi
    term1 = (
        4.0 * f3 * lam2 * xi2sq
        + f1 * f1 * (3.0 * xi2sq * g1 - 8.0 * lam2 * (4.0 * xi + 1.0) * x1)
        + 8.0 * lam2 * lam * (1.0 - 2.0 * xi) * f1 * x2
    ) / (32.0 * lam2 * xi2sq * f1 * f1 * g1 * D)
    denom23 = 8.0 * lam2 * xi2sq * xi2sq * f1 * f1 * g1 * (f1 - g1) * D
    term2 = (
        lam2 * xi2sq * f2 * (4.0 * lam2 * x2 - xi2sq * f2)
        + xi2sq * f1**3 * (xi2sq * g1 + 4.0 * lam2 * (2.0 * xi - 1.0) * x1)
    ) / denom23
    term3 = (
        2.0
        * lam2
        * f1
        * f1
        * (
            (2.0 * xi - 1.0) * x1 * (xi2sq * g1 + 4.0 * lam2 * (2.0 * xi - 1.0) * x1)
            - 2.0 * lam * xi2sq * x2
        )
        - 2.0 * lam2 * lam * (2.0 * xi - 1.0) * f1 * x1 * (xi2sq * f2 + 4.0 * lam2 * x2)
    ) / denom23
    return term1 + term2 + term3


def hopf_analysis(cp: CriticalPoint, degeneracy_tol: float = 1e-8) -> HopfData:
    """Hopf point data at mu0 for a critical point with g' > f' > 0.

    l1 is local: it needs three derivatives of both response curves at
    theta_c, which every CriticalPoint carries (critical_point_at raises
    NonDifferentiablePoint at a piecewise-linear kink).
    """
    if not cp.g1 > cp.f1 > 0:
        raise NotHopfCandidate(
            f"need g' > f' > 0 at the critical point, got f' = {cp.f1}, g' = {cp.g1}"
        )
    th = mu_thresholds(cp)
    l1 = lyapunov_l1(cp)
    tol = degeneracy_tol * (1.0 + abs(l1))
    if abs(l1) <= tol:
        crit = Criticality.DEGENERATE
    elif l1 < 0:
        crit = Criticality.SUPERCRITICAL
    else:
        crit = Criticality.SUBCRITICAL
    return HopfData(
        mu0=th.mu0,
        omega0=th.omega0,
        l1=l1,
        criticality=crit,
        transversality=0.5 * cp.alpha2 * cp.gamma * cp.f1,
    )


def tangency_directions(
    cp: CriticalPoint, mu: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Eigenvector pair (p, q) at an f' = g' tangency.

    p spans the zero-eigenvalue (center) direction, q the direction of the
    nonzero eigenvalue mu*alpha2*gamma*f' - xi/sqrt(lambda).
    """
    b = cp.xi_c / math.sqrt(cp.lambda_c)
    w = 4.0 * cp.lambda_c ** 1.5 * cp.xi1 / cp.xi_c
    p = (-b, -w)
    q = (cp.gamma * mu * cp.alpha2 * cp.f1, w)
    return p, q


def center_manifold(
    cp: CriticalPoint, mu: float
) -> tuple[float, float, CenterManifoldVerdict]:
    """Quadratic center-manifold reduction at an f' = g' > 0 tangency.

    Returns (c2, quad_coeff, verdict): c2 is the quadratic coefficient of the
    manifold graph kappa = K(psi), over powers of the same linear factor
    xi - alpha2*gamma*sqrt(lambda)*mu*f' as quad_coeff, the psi^2 coefficient
    of the reduced flow

        dpsi/dtau = 2*alpha2*gamma*mu*xi^2*(f'' - g'')
                    / (alpha2*gamma*sqrt(lambda)*mu*f' - xi)^3 * psi^2 + ...

    For mu > mu0 the point is unstable outright (positive eigenvalue). For
    mu < mu0 it is unstable whenever f'' != g''; when the quadratic term
    vanishes the truncation decides nothing and the verdict is Inconclusive.
    """
    if not is_tangent(cp):
        raise NotTangent(
            f"slopes differ beyond tolerance: f' = {cp.f1}, g' = {cp.g1}"
        )
    if not cp.f1 > 0:
        raise NotTangent(f"tangency analysis needs f' > 0, got {cp.f1}")
    sq = math.sqrt(cp.lambda_c)
    xi, x1, x2 = cp.xi_c, cp.xi1, cp.xi2
    a2, gm = cp.alpha2, cp.gamma
    mu0 = xi / (a2 * gm * cp.f1 * sq)

    denom_lin = xi - a2 * gm * sq * mu * cp.f1
    c2 = (
        a2 * gm * sq * mu * x1 * (4.0 * cp.lambda_c**2 * x2 - xi * xi * cp.f2)
        + xi * xi * x2 * denom_lin
        - 8.0 * cp.lambda_c * xi * xi * x1 * x1
    ) / (2.0 * sq * x1 * denom_lin**2)
    quad = 2.0 * a2 * gm * mu * xi * xi * (cp.f2 - cp.g2) / (a2 * gm * sq * mu * cp.f1 - xi) ** 3

    if mu > mu0:
        verdict = CenterManifoldVerdict.UNSTABLE
    elif abs(cp.f2 - cp.g2) <= QUAD_REL_TOL * max(1.0, abs(cp.f2), abs(cp.g2)):
        verdict = CenterManifoldVerdict.INCONCLUSIVE
    else:
        verdict = CenterManifoldVerdict.UNSTABLE
    return c2, quad, verdict
