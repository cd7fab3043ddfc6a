"""Noise-free dynamics: steady states and the self-pulsing instability.

The deterministic limit of the doubled-phase-space equations closes on the
classical manifold alpha_plus = conj(alpha), leaving three complex ODEs.
Their stationary equations reduce to one strictly increasing scalar equation,
so every parameter set has exactly one stationary point: closed form up to
one root, bisected to the float next to it.  It counts as stationary only
when every drift eigenvalue there has a positive real part; the same point
plus eigenvalues tracks the branch past the instability, whose threshold
one more bisection locates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linearized import build_drift
from .model import (FieldState, NonPositiveRate, SystemParams,
                    doubled_drift, validate_params)

__all__ = [
    "SteadyStateResult",
    "ThresholdResult",
    "NotStationary",
    "NoThresholdInRange",
    "require_steady_state",
    "algebraic_steady_state",
    "pulsing_threshold",
]

# Largest drift residual of a stationary state: 1e-12, or 16 ulps of the
# largest drift term where that is larger: roundoff alone leaves several.
_STATIONARY_TOL = 1e-12
# Evenly spaced pumps of the threshold scan, ends included.
_SCAN_POINTS = 33


class NotStationary(RuntimeError):
    """No stable stationary state: self-pulsing, an unstable real direction,
    or a drift residual above tolerance."""


class NoThresholdInRange(RuntimeError):
    """No stability crossing inside the scanned pump interval."""


@dataclass(frozen=True)
class SteadyStateResult:
    """The stable stationary state and its largest drift residual."""

    state: FieldState
    residual: float


@dataclass(frozen=True)
class ThresholdResult:
    """Critical pump with its final bracketing interval and the coarse scan."""

    eps_critical: float
    bracket: tuple[float, float]
    scan_eps: np.ndarray
    scan_stability: np.ndarray  # min real part of drift eigenvalues per eps


def _residual_of(state: FieldState, p: SystemParams) -> float:
    f = doubled_drift(state.alpha, state.alpha_plus, p)
    return float(np.abs(f[:3]).max())


def _residual_bound(state: FieldState, p: SystemParams) -> float:
    a1, a2, a3 = np.abs(state.alpha).tolist()
    largest = max(abs(p.epsilon), p.gamma1 * a1, p.gamma2 * a2, p.gamma3 * a3,
                  p.kappa1 * a1 * max(a2, 0.5 * a1),
                  p.kappa2 * a2 * max(a3, 0.5 * a2))
    return max(_STATIONARY_TOL, 16 * math.ulp(largest))


def _bisect(below, lo: float, hi: float, rtol: float) -> tuple[float, float]:
    """Halve (lo, hi), below(lo) true and below(hi) false, at 0.5 (lo + hi)
    until hi - lo <= rtol max(1, |hi|) or no float lies strictly between."""
    while hi - lo > rtol * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def require_steady_state(p: SystemParams) -> SteadyStateResult:
    """The stable stationary state: the closed form plus a stability check.

    The stationary point is returned only when every drift eigenvalue has a
    positive real part and its residual is at most 1e-12 or, where that is
    larger, 16 ulps of the largest term of the stationary equations there
    (the pump, or a loss or coupling term of one mode).  Otherwise
    NotStationary names the residual and its bound, or the least stable
    eigenvalue: one of a complex pair means the self-pulsing regime, with
    the Hopf frequency |Im lambda|.
    """
    state, eigenvalues = _stationary_point(p)
    lam = eigenvalues[np.argmin(eigenvalues.real)]
    if lam.real <= 0:
        # Roundoff leaves a tiny imaginary part on a real eigenvalue.
        if abs(lam.imag) > 1e-9 * abs(lam):
            raise NotStationary(
                f"self-pulsing regime: drift eigenvalue pair {lam.real:.4g} "
                f"+/- {abs(lam.imag):.4g}i, Hopf frequency "
                f"{abs(lam.imag):.4g}")
        raise NotStationary("unstable stationary point: real drift "
                            f"eigenvalue {lam.real:.4g}")
    residual = _residual_of(state, p)
    bound = _residual_bound(state, p)
    if residual > bound:
        raise NotStationary(f"root residual {residual:.3e} above {bound:.3e}, "
                            f"the larger of {_STATIONARY_TOL:g} and 16 ulps "
                            "of the largest drift term")
    return SteadyStateResult(state=state, residual=residual)


def algebraic_steady_state(p: SystemParams) -> FieldState:
    """The one stationary point on the classical manifold, stable or not.

    With t = kappa2 |alpha2| / sqrt(2 gamma3), stationarity of modes 3, 2
    and 1 gives alpha3 = -kappa2 alpha2^2 / 2 gamma3,
    alpha2 = -kappa1 alpha1^2 / 2 (gamma2 + t^2),
    alpha1 = epsilon / (gamma1 + beta t) and

        |epsilon| = sqrt(q t (gamma2 + t^2)) (gamma1 + beta t),

    with q = sqrt(8 gamma3) / (kappa1 kappa2) and
    beta = kappa1 sqrt(2 gamma3) / kappa2.  The right side rises strictly
    from 0, so one bracketed root in t gives the only stationary point, with
    finite amplitudes for every finite pump.  t is the least float at which
    the right side reaches |epsilon|, found by bisection: 0 for a zero pump.
    NonPositiveRate refuses rates that put q or beta, or a pump that puts
    t^2, out of float range.
    """
    validate_params(p)
    # Python floats: their products overflow to inf without a warning.
    k1, k2, g1, g2, g3 = map(float, (p.kappa1, p.kappa2, p.gamma1, p.gamma2,
                                     p.gamma3))
    q = math.sqrt(8.0 * g3) / (k1 * k2) if k1 * k2 else math.inf
    beta = k1 * math.sqrt(2.0 * g3) / k2
    if not 0 < math.sqrt(q) * beta < math.inf:
        raise NonPositiveRate(f"kappa1 = {k1:g} and kappa2 = {k2:g} put the "
                              "steady state's coefficients out of float range")
    e = complex(p.epsilon)
    pump = abs(e)
    sqrt_g2 = math.sqrt(g2)

    def below(t: float) -> bool:
        # A NaN counts as below, so the root never lands on one.
        return not (math.sqrt(q * t) * math.hypot(sqrt_g2, t)
                    * (g1 + beta * t) >= pump)

    # Keeping only the gamma2 gamma1 or only the t^2 beta t part of the
    # product gives a lower bound that reaches |epsilon| at each of these,
    # and at twice either clears it by more than roundoff.  Below the
    # 1e-300 floor, where the first bound underflows, t moves no amplitude.
    t_hi = max(2.0 * min(pump * pump / (q * g2 * g1 * g1),
                         pump ** 0.4 / (math.sqrt(q) * beta) ** 0.4), 1e-300)
    if below(t_hi):
        raise ValueError(f"the steady state's root is not below t = {t_hi:g}")
    t = _bisect(below, 0.0, t_hi, 0.0)[1]
    if t * t == math.inf:
        raise NonPositiveRate(f"|epsilon| = {pump:g} puts the steady state's "
                              "amplitudes out of float range")
    a1 = e / (g1 + beta * t)
    # Negated factors first: the products then keep a real pump's amplitudes
    # free of negative zeros, and no intermediate overflows.
    a2 = -k1 * a1 / (2.0 * (g2 + t * t)) * a1
    a3 = -k2 * a2 / (2.0 * g3) * a2
    return FieldState.classical([a1, a2, a3])


def _stationary_point(p: SystemParams) -> tuple[FieldState, np.ndarray]:
    """Stationary point and the eigenvalues of the drift matrix there."""
    state = algebraic_steady_state(p)
    return state, np.linalg.eigvals(build_drift(p, state))


def pulsing_threshold(p: SystemParams,
                      eps_range: tuple[float, float]) -> ThresholdResult:
    """Smallest pump at which the stationary branch loses linear stability.

    Scans 33 pumps over eps_range, then bisects the first stability sign
    change of min Re eig(A).  The stationary point is unique and found in
    closed form, so the scan follows the branch past the crossing, where it
    persists but is no longer an attractor, with no seeding or continuation.
    """
    validate_params(p)
    if not eps_range[0] < eps_range[1]:
        raise ValueError("eps_range must be increasing")

    def stability(eps: float) -> float:
        return float(_stationary_point(replace(p, epsilon=eps))[1].real.min())

    scan_eps = np.linspace(eps_range[0], eps_range[1], _SCAN_POINTS)
    scan_stab = np.array([stability(float(eps)) for eps in scan_eps])
    if scan_stab[0] <= 0:
        raise NoThresholdInRange(
            f"already unstable at eps={scan_eps[0]}; range does not bracket")
    crossing = np.flatnonzero(scan_stab <= 0)
    if crossing.size == 0:
        raise NoThresholdInRange(
            f"stable throughout [{eps_range[0]}, {eps_range[1]}]")
    i = int(crossing[0])
    # Bisected to a width well inside any scan resolution; tighter brackets
    # only resolve the eigenvalue sign at roundoff for no gain.
    lo, hi = _bisect(lambda eps: stability(eps) > 0,
                     *scan_eps[i - 1:i + 1].tolist(), 1e-7)
    return ThresholdResult(eps_critical=0.5 * (lo + hi), bracket=(lo, hi),
                           scan_eps=scan_eps, scan_stability=scan_stab)
