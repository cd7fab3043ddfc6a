"""Second computations that the package itself does not need.

relax_from_vacuum finds the stable stationary state by integrating the
classical equations of motion forward in time, a route independent of the
closed form in harmoniccascade.semiclassical.  Tests compare the two.

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
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from harmoniccascade import (FieldState, SystemParams, __version__,
                             validate_params)
from harmoniccascade.model import doubled_drift
from harmoniccascade.semiclassical import _STATIONARY_TOL, _residual_of

# Integrator accuracy; the package's 1e-12 residual tolerance is achievable
# because the attractor pulls the numerical solution exponentially onto the
# fixed point.
_RTOL = 1e-10
_ATOL = 1e-12
# Integration length between residual checks.  Each chunk restarts LSODA,
# which can stall a slowly relaxing state short of the tolerance (ROADMAP
# item 6); the frozen bounds of the tests were set with this length.
_CHUNK = 25.0


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
    exactly: only the three alpha equations are integrated (LSODA, in
    25-unit chunks with the residual checked after each) and alpha_plus is
    their conjugate bit for bit.

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
    t = 0.0
    res = _residual_of(_unpack(y), p)
    while res > _STATIONARY_TOL and t < t_max:
        t_next = min(t + _CHUNK, t_max)
        sol = solve_ivp(_classical_rhs, (t, t_next), y, args=(p,),
                        method="LSODA", rtol=_RTOL, atol=_ATOL)
        if not sol.success:
            raise RuntimeError(f"integration failed: {sol.message}")
        if not np.all(np.isfinite(sol.y[:, -1])):
            raise RuntimeError("non-finite state during integration")
        y = sol.y[:, -1]
        t = t_next
        res = _residual_of(_unpack(y), p)
    return Relaxation(state=_unpack(y), residual=res,
                      converged=res <= _STATIONARY_TOL)


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
