"""Noise-free dynamics: steady states and the self-pulsing instability.

The deterministic limit of the doubled-phase-space equations closes on the
classical manifold alpha_plus = conj(alpha), leaving three complex ODEs.
Steady states come from algebraic root-finding, seeded from the lossy-cavity
pump response, and count as stationary only when every eigenvalue of the
drift matrix there has a positive real part; the same root plus eigenvalues
track the stationary branch past the instability.  Forward integration from
the vacuum, which can only settle onto a stable branch, is kept as an
independent oracle that selects the basin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import root

from .linearized import build_drift
from .model import FieldState, SystemParams, doubled_drift, validate_params

__all__ = [
    "SteadyStateResult",
    "ThresholdResult",
    "NotStationary",
    "IntegrationFailure",
    "NoThresholdInRange",
    "semiclassical_derivative",
    "find_steady_state",
    "require_steady_state",
    "algebraic_steady_state",
    "pulsing_threshold",
]

# Integrator accuracy; the residual tolerance below is achievable because the
# attractor pulls the numerical solution exponentially onto the fixed point.
_RTOL = 1e-10
_ATOL = 1e-12
# Largest drift residual of a stationary state, on either route.
_STATIONARY_TOL = 1e-12


class NotStationary(RuntimeError):
    """No stable stationary state: self-pulsing, an unstable real direction,
    or no root at all."""


class IntegrationFailure(RuntimeError):
    """The ODE integrator failed (step-size underflow or non-finite state)."""


class NoThresholdInRange(RuntimeError):
    """No stability crossing inside the scanned pump interval."""


@dataclass(frozen=True)
class SteadyStateResult:
    state: FieldState
    residual: float
    converged: bool


@dataclass(frozen=True)
class ThresholdResult:
    """Critical pump with its final bracketing interval and the coarse scan."""

    eps_critical: float
    bracket: tuple[float, float]
    scan_eps: np.ndarray
    scan_stability: np.ndarray  # min real part of drift eigenvalues per eps


def semiclassical_derivative(s: FieldState, p: SystemParams) -> FieldState:
    """Deterministic drift of the doubled amplitudes.

    Valid off the classical manifold as well (the plus variables evolve under
    their own equations); on the manifold the plus drift is the conjugate of
    the plain drift, so classical states stay classical.
    """
    f = doubled_drift(s.alpha, s.alpha_plus, p)
    return FieldState(alpha=f[:3], alpha_plus=f[3:])


def _classical_rhs(t, y, p: SystemParams):
    # y holds (re a1, im a1, re a2, im a2, re a3, im a3); stiff scipy methods
    # need real vectors, so the three complex equations are unpacked here.
    # Plain Python scalars make each call about twice as fast as numpy ones.
    r1, i1, r2, i2, r3, i3 = y.tolist()
    a = (complex(r1, i1), complex(r2, i2), complex(r3, i3))
    f1, f2, f3 = doubled_drift(a, [z.conjugate() for z in a], p)[:3]
    return [f1.real, f1.imag, f2.real, f2.imag, f3.real, f3.imag]


def _residual_of(y, p: SystemParams) -> float:
    f = _classical_rhs(0.0, y, p)
    return float(np.abs(np.asarray(f[0::2]) + 1j * np.asarray(f[1::2])).max())


def _pack(state: FieldState) -> np.ndarray:
    y = np.empty(6)
    y[0::2] = state.alpha.real
    y[1::2] = state.alpha.imag
    return y


def _unpack(y) -> FieldState:
    return FieldState.classical(np.asarray(y)[0::2] + 1j * np.asarray(y)[1::2])


def find_steady_state(p: SystemParams,
                      t_max: float = 400.0) -> SteadyStateResult:
    """Integrate from the vacuum until the drift residual drops to 1e-12.

    The oracle route: returns converged=False with the state reached at
    t_max when the residual is still above 1e-12 there.  The classical
    manifold is enforced exactly: only the three alpha equations are
    integrated and alpha_plus is their conjugate bit for bit.

    The start is vacuum plus an infinitesimal imaginary seed on the pumped
    mode.  With a real pump the all-real subspace is invariant bit for bit,
    and the self-pulsing Hopf destabilizes the phase directions first; an
    exactly real start would converge onto that unstable point and report it
    as stationary.  The seed decays below threshold (final imaginary parts
    land at roundoff) and grows above it, so convergence implies stability.
    """
    p = validate_params(p)
    y = np.zeros(6)
    if p.epsilon != 0:
        y[1] = 1e-8
    t = 0.0
    res = _residual_of(y, p)
    chunk = 25.0
    while res > _STATIONARY_TOL and t < t_max:
        t_next = min(t + chunk, t_max)
        sol = solve_ivp(_classical_rhs, (t, t_next), y, args=(p,),
                        method="LSODA", rtol=_RTOL, atol=_ATOL)
        if not sol.success:
            raise IntegrationFailure(sol.message)
        if not np.all(np.isfinite(sol.y[:, -1])):
            raise IntegrationFailure("non-finite state during integration")
        y = sol.y[:, -1]
        t = t_next
        res = _residual_of(y, p)
    return SteadyStateResult(state=_unpack(y), residual=res,
                             converged=res <= _STATIONARY_TOL)


def require_steady_state(p: SystemParams) -> SteadyStateResult:
    """The stable stationary state: algebraic root plus a stability check.

    The root is seeded from the lossy-cavity guess.  It is returned only
    when every drift eigenvalue has a positive real part and its residual
    is at most 1e-12.  Otherwise NotStationary names the least stable
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
    residual = _residual_of(_pack(state), p)
    if residual > _STATIONARY_TOL:
        raise NotStationary(f"root residual {residual:.3e} above "
                            f"{_STATIONARY_TOL:g}")
    return SteadyStateResult(state=state, residual=residual, converged=True)


def algebraic_steady_state(p: SystemParams,
                           guess: FieldState | None = None) -> FieldState:
    """Stationary point by multidimensional root-finding.

    Stable or not; used by require_steady_state and for continuation onto
    the unstable branch.  The default guess is the lossy-cavity pump
    response with empty harmonics.  Raises NotStationary when no root is
    found.
    """
    p = validate_params(p)
    if guess is None:
        y0 = np.zeros(6)
        y0[0] = (p.epsilon / p.gamma1).real
        y0[1] = (p.epsilon / p.gamma1).imag
    else:
        y0 = _pack(guess)

    def rhs(y):
        return _classical_rhs(0.0, y, p)

    sol = root(rhs, y0, method="hybr", tol=1e-13)
    if _residual_of(sol.x, p) > _STATIONARY_TOL:
        # hybr can stop a few ulps short of the residual the integration
        # reaches; a restart from there polishes the root.
        sol = root(rhs, sol.x, method="hybr", tol=1e-13)
    # hybr reports "not making good progress" when seeded at (or within
    # rounding of) the root itself; judge by the residual, not the flag.
    scale = max(1.0, np.abs(sol.x).max())
    if not sol.success and _residual_of(sol.x, p) > 1e-10 * scale:
        raise NotStationary(f"root-finder did not converge: {sol.message}")
    return _unpack(sol.x)


def _stationary_point(p: SystemParams, guess: FieldState | None = None
                      ) -> tuple[FieldState, np.ndarray]:
    """Algebraic root and the eigenvalues of the drift matrix there."""
    state = algebraic_steady_state(p, guess)
    return state, np.linalg.eigvals(build_drift(p, state))


def pulsing_threshold(p: SystemParams, eps_range: tuple[float, float],
                      n_steps: int = 33) -> ThresholdResult:
    """Smallest pump at which the stationary branch loses linear stability.

    Scans the pump over eps_range following the stationary branch with the
    continuation root-finder, then bisects the first stability sign change of
    min Re eig(A).  Continuation (not integration) is essential above the
    crossing, where the branch persists but is no longer an attractor.
    """
    p = validate_params(p)
    if not (eps_range[0] < eps_range[1]) or n_steps < 2:
        raise ValueError("eps_range must be increasing and n_steps >= 2")

    def stability(eps: float, seed: FieldState | None) -> tuple[float, FieldState]:
        ss, ev = _stationary_point(replace(p, epsilon=eps), seed)
        return float(ev.real.min()), ss

    scan_eps = np.linspace(eps_range[0], eps_range[1], n_steps)
    scan_stab = np.empty(n_steps)
    seed = None
    states: list[FieldState] = []
    for idx, eps in enumerate(scan_eps):
        scan_stab[idx], seed = stability(float(eps), seed)
        states.append(seed)
    if scan_stab[0] <= 0:
        raise NoThresholdInRange(
            f"already unstable at eps={scan_eps[0]}; range does not bracket")
    crossing = np.flatnonzero(scan_stab <= 0)
    if crossing.size == 0:
        raise NoThresholdInRange(
            f"stable throughout [{eps_range[0]}, {eps_range[1]}]")
    hi_idx = int(crossing[0])
    lo, hi = float(scan_eps[hi_idx - 1]), float(scan_eps[hi_idx])
    seed = states[hi_idx - 1]
    for _ in range(80):
        # Width well inside any scan resolution; tighter brackets run the
        # root-finder against its own convergence floor for no gain.
        if hi - lo <= 1e-7 * max(1.0, abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        s_mid, state_mid = stability(mid, seed)
        if s_mid > 0:
            lo, seed = mid, state_mid
        else:
            hi = mid
    return ThresholdResult(eps_critical=0.5 * (lo + hi), bracket=(lo, hi),
                           scan_eps=scan_eps, scan_stability=scan_stab)
