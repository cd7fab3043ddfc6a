"""Noise-free dynamics: steady states and the self-pulsing instability.

The deterministic limit of the doubled-phase-space equations closes on the
classical manifold alpha_plus = conj(alpha), leaving three complex ODEs.
Steady states are found by forward integration from the vacuum, which can
only settle onto a stable branch; an independent algebraic root-finder is
provided as a cross-check oracle and for tracking the stationary branch
above the instability, where integration cannot converge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import root

from .model import FieldState, SystemParams, doubled_drift, validate_params

__all__ = [
    "SteadyStateResult",
    "TrajectoryTail",
    "PulsingDiagnosis",
    "ThresholdResult",
    "NotStationary",
    "IntegrationFailure",
    "InsufficientData",
    "NoThresholdInRange",
    "semiclassical_derivative",
    "find_steady_state",
    "require_steady_state",
    "algebraic_steady_state",
    "detect_pulsing",
    "pulsing_threshold",
]

# Integrator accuracy; the residual tolerance below is achievable because the
# attractor pulls the numerical solution exponentially onto the fixed point.
_RTOL = 1e-10
_ATOL = 1e-12
# Time discarded before tail analysis, in 1/gamma1 units.
_TRANSIENT_DISCARD = 50.0
# Relative intensity modulation that counts as sustained pulsing.
_PULSING_LEVEL = 1e-6


class NotStationary(RuntimeError):
    """No stationary steady state: the system is in the self-pulsing regime."""


class IntegrationFailure(RuntimeError):
    """The ODE integrator failed (step-size underflow or non-finite state)."""


class InsufficientData(ValueError):
    """Trajectory tail too short to diagnose pulsing."""


class NoThresholdInRange(RuntimeError):
    """No stability crossing inside the scanned pump interval."""


@dataclass(frozen=True)
class TrajectoryTail:
    """Sampled late-time trajectory used for pulsing diagnosis."""

    times: np.ndarray
    alpha: np.ndarray  # shape (n_samples, 3), complex


@dataclass(frozen=True)
class SteadyStateResult:
    state: FieldState
    residual: float
    converged: bool
    trajectory_tail: TrajectoryTail | None = None


@dataclass(frozen=True)
class PulsingDiagnosis:
    is_pulsing: bool
    period_estimate: float | None
    amplitude: float


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


def find_steady_state(p: SystemParams, tol: float = 1e-12,
                      t_max: float = 400.0) -> SteadyStateResult:
    """Integrate from the vacuum until the drift residual drops below tol.

    Returns converged=False with a sampled trajectory tail when the residual
    is still above tol at t_max, which is the self-pulsing signature below
    the integration-failure level.  The classical manifold is enforced
    exactly: only the three alpha equations are integrated and alpha_plus is
    their conjugate bit for bit.

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
    while res > tol and t < t_max:
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
    if res <= tol:
        return SteadyStateResult(state=_unpack(y), residual=res, converged=True)
    # Not stationary: sample a dense tail for pulsing diagnosis.
    span = max(4.0 * _TRANSIENT_DISCARD, 120.0)
    times = np.arange(0.0, span + 1e-9, 0.05)
    sol = solve_ivp(_classical_rhs, (t, t + span), y, args=(p,),
                    t_eval=t + times, method="LSODA", rtol=_RTOL, atol=_ATOL)
    if not sol.success:
        raise IntegrationFailure(sol.message)
    alpha = (sol.y[0::2] + 1j * sol.y[1::2]).T
    keep = times >= _TRANSIENT_DISCARD
    tail = TrajectoryTail(times=t + times[keep], alpha=alpha[keep])
    return SteadyStateResult(state=_unpack(sol.y[:, -1]),
                             residual=_residual_of(sol.y[:, -1], p),
                             converged=False, trajectory_tail=tail)


def require_steady_state(p: SystemParams, tol: float = 1e-12,
                         t_max: float = 400.0) -> SteadyStateResult:
    """find_steady_state that raises NotStationary instead of returning
    an unconverged result."""
    result = find_steady_state(p, tol=tol, t_max=t_max)
    if not result.converged:
        diag = None
        if result.trajectory_tail is not None:
            diag = detect_pulsing(result.trajectory_tail, p)
        if diag is not None and diag.is_pulsing:
            raise NotStationary(
                f"self-pulsing regime: intensity modulation {diag.amplitude:.3e}"
                + (f", period ~ {diag.period_estimate:.3g}" if diag.period_estimate else ""))
        raise NotStationary(
            f"no stationary state reached by t={t_max} (residual {result.residual:.3e})")
    return result


def algebraic_steady_state(p: SystemParams,
                           guess: FieldState | None = None) -> FieldState:
    """Stationary point by multidimensional root-finding.

    Independent of the integration route; used as a cross-check oracle and
    for continuation onto the unstable branch.  The default guess is the
    lossy-cavity pump response with empty harmonics.
    """
    p = validate_params(p)
    if guess is None:
        y0 = np.zeros(6)
        y0[0] = (p.epsilon / p.gamma1).real
        y0[1] = (p.epsilon / p.gamma1).imag
    else:
        y0 = _pack(guess)
    sol = root(lambda y: _classical_rhs(0.0, y, p), y0, method="hybr",
               tol=1e-13)
    # hybr reports "not making good progress" when seeded at (or within
    # rounding of) the root itself; judge by the residual, not the flag.
    resid = np.abs(_classical_rhs(0.0, sol.x, p)).max()
    scale = max(1.0, np.abs(sol.x).max())
    if not sol.success and resid > 1e-10 * scale:
        raise RuntimeError(f"root-finder did not converge: {sol.message}")
    return _unpack(sol.x)


def detect_pulsing(tail: TrajectoryTail, p: SystemParams) -> PulsingDiagnosis:
    """Flag sustained oscillation of the fundamental intensity.

    Uses the last half of the tail only, so slow residual transients in the
    first half cannot masquerade as a limit cycle.  The period comes from
    averaged upward zero-crossing spacings of the mean-removed intensity.
    """
    times = np.asarray(tail.times, dtype=float)
    if times.size < 8 or (times[-1] - times[0]) < 20.0:
        raise InsufficientData(
            "tail must span at least 20 cavity lifetimes after the transient")
    intensity = np.abs(np.asarray(tail.alpha)[:, 0]) ** 2
    half = times.size // 2
    t2, s2 = times[half:], intensity[half:]
    mean = s2.mean()
    swing = s2.max() - s2.min()
    level = _PULSING_LEVEL * max(mean, 1e-300)
    if swing <= level:
        return PulsingDiagnosis(is_pulsing=False, period_estimate=None,
                                amplitude=float(swing))
    # Upward zero crossings of the mean-removed signal, linearly interpolated.
    d = s2 - mean
    up = np.flatnonzero((d[:-1] < 0) & (d[1:] >= 0))
    crossings = t2[up] + (t2[up + 1] - t2[up]) * (-d[up]) / (d[up + 1] - d[up])
    period = float(np.diff(crossings).mean()) if crossings.size >= 2 else None
    return PulsingDiagnosis(is_pulsing=True, period_estimate=period,
                            amplitude=float(swing))


def pulsing_threshold(p: SystemParams, eps_range: tuple[float, float],
                      n_steps: int = 33) -> ThresholdResult:
    """Smallest pump at which the stationary branch loses linear stability.

    Scans the pump over eps_range following the stationary branch with the
    continuation root-finder, then bisects the first stability sign change of
    min Re eig(A).  Continuation (not integration) is essential above the
    crossing, where the branch persists but is no longer an attractor.
    """
    from .linearized import build_drift  # local import keeps layering acyclic

    p = validate_params(p)
    if not (eps_range[0] < eps_range[1]) or n_steps < 2:
        raise ValueError("eps_range must be increasing and n_steps >= 2")

    def stability(eps: float, seed: FieldState | None) -> tuple[float, FieldState]:
        q = replace(p, epsilon=eps)
        ss = algebraic_steady_state(q, guess=seed)
        ev = np.linalg.eigvals(build_drift(q, ss))
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
