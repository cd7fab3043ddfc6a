"""Noise-free dynamics: steady states and the self-pulsing instability.

The deterministic limit of the doubled-phase-space equations closes on the
classical manifold alpha_plus = conj(alpha), leaving three complex ODEs.
Their stationary equations reduce to one strictly increasing scalar equation,
so every parameter set has exactly one stationary point, found in closed form
up to one bracketed scalar root: Brent's method with the iterates,
tolerances and exceptions of scipy.optimize.brentq, ported so that numpy is
the package's only runtime import.  It counts as stationary only when every
eigenvalue of the drift matrix there has a positive real part; the same point
plus eigenvalues tracks the branch past the instability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linearized import build_drift
from .model import FieldState, SystemParams, doubled_drift, validate_params

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
# scipy.optimize.brentq's default relative tolerance and iteration limit.
_BRENT_RTOL = 4 * math.ulp(1.0)
_BRENT_MAXITER = 100


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


# A port of Brent's method from scipy/optimize/Zeros/brentq.c, the loop
# behind scipy.optimize.brentq: the same float64 operations in the same
# order, so the same iterates, root and exceptions.
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# SPDX-License-Identifier: BSD-3-Clause
def _brentq(f, xa: float, xb: float, *, xtol: float) -> float:
    """Root of f in [xa, xb], as scipy.optimize.brentq(f, xa, xb, xtol=xtol).

    ValueError for a value of f that is NaN or a bracket whose ends have the
    same sign, RuntimeError after _BRENT_MAXITER iterations.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre != fpre or fcur != fcur:
        raise ValueError("a function value is NaN; solver cannot continue")
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 delta
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless a short step is tried and taken
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C's step is then inf or NaN, as f is nonzero at all three
                # points, so it bisects.
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # good short step
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if fcur != fcur:
            raise ValueError("a function value is NaN; solver cannot continue")
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} "
                       f"iterations, value is {xcur:f}")


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
        raise NotStationary(
            f"unstable stationary point: real drift eigenvalue "
            f"{lam.real:.4g}")
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
    finite amplitudes for every finite pump.  The root is Brent's method with
    scipy.optimize.brentq's iterates, tolerances (rtol 4 eps, 100
    iterations) and exceptions; t is exactly 0 for a zero pump.
    """
    validate_params(p)
    # Python floats: their products overflow to inf without a warning.
    k1, k2, g1, g2, g3 = map(float, (p.kappa1, p.kappa2, p.gamma1, p.gamma2,
                                     p.gamma3))
    q = math.sqrt(8.0 * g3) / (k1 * k2)
    beta = k1 * math.sqrt(2.0 * g3) / k2
    e = complex(p.epsilon)
    pump = abs(e)

    def excess(t: float) -> float:
        return (math.sqrt(q * t) * math.hypot(math.sqrt(g2), t)
                * (g1 + beta * t) - pump)

    # Keeping only the gamma2 gamma1 or only the t^2 beta t part of the
    # product gives a lower bound that reaches |epsilon| at each of these,
    # and at twice either clears it by more than roundoff.  Below the
    # 1e-300 floor, where the first bound underflows, t moves no amplitude.
    t_hi = 2.0 * min(pump * pump / (q * g2 * g1 * g1),
                     pump ** 0.4 / (math.sqrt(q) * beta) ** 0.4)
    t = _brentq(excess, 0.0, max(t_hi, 1e-300), xtol=1e-300)
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
    hi_idx = int(crossing[0])
    lo, hi = float(scan_eps[hi_idx - 1]), float(scan_eps[hi_idx])
    for _ in range(80):
        # Width well inside any scan resolution; tighter brackets only
        # resolve the eigenvalue sign at roundoff for no gain.
        if hi - lo <= 1e-7 * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if stability(mid) > 0:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(eps_critical=0.5 * (lo + hi), bracket=(lo, hi),
                           scan_eps=scan_eps, scan_stability=scan_stab)
