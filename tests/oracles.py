"""Second computations that the package itself does not need.

relax_from_vacuum finds the stable stationary state by integrating the
classical equations of motion forward in time, a route independent of the
closed form in harmoniccascade.semiclassical.  Tests compare the two.
brentq_steady_state is that closed form with its root in t taken by
scipy.optimize.brentq instead of the package's bisection.

write_csv_per_cell writes a CLI artifact one cell at a time through
csv.writer, the reference for the column writer in harmoniccascade.cli.

sample_moments reduces the full (6, 6, n) arrays of pair products, the
reference for the ensemble's blocked moments.  principal_sqrt is glibc's
complex square root formula element by element, the reference for the root
that wide ensembles take in place.  euler_covariance is the exact stationary
covariance of the Euler-Maruyama scheme on the linearized equations, the
prediction of the ensemble's step bias.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import ode
from scipy.optimize import brentq

from harmoniccascade import (FieldState, SystemParams, __version__,
                             validate_params)
from harmoniccascade.model import doubled_drift
from harmoniccascade.semiclassical import _STATIONARY_TOL, _residual_of

# Integrator accuracy; the package's 1e-12 residual tolerance is achievable
# because the attractor pulls the numerical solution exponentially onto the
# fixed point.  Components that stay near zero (the imaginary parts under a
# real pump) are held by the absolute tolerance: at 1e-12 the step errors it
# allows kept a weakly damped mode at residual 1e-10 at 0.99 of threshold.
_RTOL = 1e-10
_ATOL = 1e-14
# Integration length between residual checks; one LSODA run continues
# across them.
_CHUNK = 25.0
# Highest BDF order LSODA's stiff mode may use.  Orders above 2 are not
# A-stable: near the self-pulsing threshold the slowest eigenvalues lie close
# to the imaginary axis, outside their stability region at the large steps
# taken near the fixed point, and the numerical solution jitters there at
# residuals of 1e-7 to 1e-6 instead of relaxing.  BDF2 damps every stable
# mode.
_MAX_ORDER_STIFF = 2
# Step limit within one chunk, far above what a chunk takes.
_NSTEPS = 10**6


@dataclass(frozen=True)
class Relaxation:
    """The state reached, its largest drift residual, and whether that
    residual is within the stationary tolerance."""

    state: FieldState
    residual: float
    converged: bool


def _classical_rhs(t, y, p: SystemParams):
    # y holds (re a1, im a1, re a2, im a2, re a3, im a3); stiff scipy methods
    # need real vectors, so the three complex equations are unpacked here.
    # Plain Python scalars make each call about twice as fast as numpy ones.
    r1, i1, r2, i2, r3, i3 = y.tolist()
    a = (complex(r1, i1), complex(r2, i2), complex(r3, i3))
    f1, f2, f3 = doubled_drift(a, [z.conjugate() for z in a], p)[:3]
    return [f1.real, f1.imag, f2.real, f2.imag, f3.real, f3.imag]


def _unpack(y) -> FieldState:
    return FieldState.classical(np.asarray(y)[0::2] + 1j * np.asarray(y)[1::2])


def relax_from_vacuum(p: SystemParams, t_max: float = 400.0) -> Relaxation:
    """Integrate from the vacuum until the drift residual drops to 1e-12.

    Returns converged=False with the state reached at t_max when the
    residual is still above 1e-12 there.  The classical manifold is enforced
    exactly: only the three alpha equations are integrated (one LSODA run
    with its stiff order capped at 2, the residual checked every 25 time
    units) and alpha_plus is their conjugate bit for bit.

    The start is vacuum plus an infinitesimal imaginary seed on the pumped
    mode.  With a real pump the all-real subspace is invariant bit for bit,
    and the self-pulsing Hopf destabilizes the phase directions first; an
    exactly real start would converge onto that unstable point and report it
    as stationary.  The seed decays below threshold (final imaginary parts
    land at roundoff) and grows above it, so convergence implies stability.
    """
    validate_params(p)
    y = np.zeros(6)
    if p.epsilon != 0:
        y[1] = 1e-8
    solver = ode(_classical_rhs).set_integrator(
        "lsoda", rtol=_RTOL, atol=_ATOL, max_order_s=_MAX_ORDER_STIFF,
        nsteps=_NSTEPS)
    solver.set_initial_value(y, 0.0).set_f_params(p)
    t = 0.0
    res = _residual_of(_unpack(y), p)
    while res > _STATIONARY_TOL and t < t_max:
        t = min(t + _CHUNK, t_max)
        # The solver hands back its own buffer, overwritten on the next call.
        y = solver.integrate(t).copy()
        if not solver.successful():
            raise RuntimeError("integration failed: LSODA return code "
                               f"{solver.get_return_code()}")
        if not np.all(np.isfinite(y)):
            raise RuntimeError("non-finite state during integration")
        res = _residual_of(_unpack(y), p)
    return Relaxation(state=_unpack(y), residual=res,
                      converged=res <= _STATIONARY_TOL)


def brentq_steady_state(p: SystemParams) -> np.ndarray:
    """alpha1..alpha3 of algebraic_steady_state, with t the root that
    scipy.optimize.brentq finds (xtol 1e-300, rtol 4 eps) on the same
    bracket, so within about 4 ulps of the root where the bisection lands
    within 1."""
    k1, k2, g1, g2, g3 = map(float, (p.kappa1, p.kappa2, p.gamma1, p.gamma2,
                                     p.gamma3))
    q = math.sqrt(8.0 * g3) / (k1 * k2)
    beta = k1 * math.sqrt(2.0 * g3) / k2
    e = complex(p.epsilon)
    pump = abs(e)

    def excess(t):
        return (math.sqrt(q * t) * math.hypot(math.sqrt(g2), t)
                * (g1 + beta * t) - pump)

    t_hi = 2.0 * min(pump * pump / (q * g2 * g1 * g1),
                     pump ** 0.4 / (math.sqrt(q) * beta) ** 0.4)
    t = brentq(excess, 0.0, max(t_hi, 1e-300), xtol=1e-300)
    a1 = e / (g1 + beta * t)
    a2 = -k1 * a1 / (2.0 * (g2 + t * t)) * a1
    return np.array([a1, a2, -k2 * a2 / (2.0 * g3) * a2])


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def write_csv_per_cell(path, meta, columns, rows, footer=None) -> None:
    """The CLI's CSV format, each cell formatted and quoted on its own.

    The version line and ``# `` meta lines, the header, one row per item of
    rows through csv.writer (which quotes a cell where the format needs
    it), then ``# `` footer lines.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# harmoniccascade {__version__}\n")
        for line in meta:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(x) for x in row])
        for line in footer or ():
            fh.write(f"# {line}\n")


def _mean_and_stderr(values):
    # Mean over the last axis, then SE(real) + 1j SE(imag); one column has
    # no spread, so its standard errors are zero.
    mean, n = values.mean(axis=-1), values.shape[-1]
    if n < 2:
        return mean, np.zeros_like(mean)
    se = (values.real.std(axis=-1, ddof=1)
          + 1j * values.imag.std(axis=-1, ddof=1)) / np.sqrt(n)
    return mean, se


def sample_moments(v):
    """Means, pair products and fluctuation covariance of the (6, n) columns
    v, each followed by its standard error, from the (6, 6, n) arrays of all
    products v[i] * v[j] and w[i] * w[j], w = v - mean."""
    means, means_se = _mean_and_stderr(v)
    w = v - means[:, None]
    return (means, means_se, *_mean_and_stderr(v[:, None, :] * v[None, :, :]),
            *_mean_and_stderr(w[:, None, :] * w[None, :, :]))


def principal_sqrt(z):
    """The principal square root of each element of z by glibc's csqrt
    formula, with |z| from np.abs: u = sqrt(0.5 (|z| + |Re z|)) and
    v = 0.5 (Im z / u) give u + i v where Re z > 0 and
    |v| + i copysign(u, Im z) elsewhere.  Where u is NaN or outside
    [2**-510, 2**510], the range in which glibc neither rescales nor
    special-cases, the element is np.sqrt's."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):
        u = np.sqrt(0.5 * (np.abs(z) + np.abs(z.real)))
        v = 0.5 * (z.imag / u)
        root = np.empty_like(z)
        root.real = np.where(z.real > 0, u, np.abs(v))
        root.imag = np.where(z.real > 0, v, np.copysign(u, z.imag))
        return np.where((u >= 2.0**-510) & (u <= 2.0**510), root, np.sqrt(z))


def euler_covariance(A, D, dt):
    """Stationary covariance P of Euler-Maruyama at step dt on dx = -A x dt
    + noise of diffusion D: A P + P A^T - dt A P A^T = D, one 36x36 solve.

    x' = (1 - dt A) x + sqrt(dt) noise keeps P when P = (1 - dt A) P
    (1 - dt A)^T + dt D, which is the equation above; at dt = 0 it is the
    continuous Lyapunov equation, and P - C is the step bias.
    """
    eye = np.eye(6)
    K = np.kron(eye, A) + np.kron(A, eye) - dt * np.kron(A, A)
    return np.linalg.solve(K, D.flatten(order="F")).reshape((6, 6), order="F")
