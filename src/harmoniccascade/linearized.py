"""Fluctuation spectra around a stationary state.

Small fluctuations about a stable steady state obey a linear
Ornstein-Uhlenbeck equation d(dv) = -A dv dt + B dW in the interleaved
doubled basis (da1, da1+, da2, da2+, da3, da3+).  Only D = B B^T enters the
stationary spectrum

    S(omega) = (A + i omega)^-1 D (A^T - i omega)^-1,

so B is never formed and no square-root branch choice is needed here.  The
measured output spectra follow by transforming to quadratures and applying
the input-output relation, which adds the vacuum floor:

    S_out[p, q] = delta_pq + sqrt(gamma_p gamma_q) (Sq[p, q] + Sq[q, p]).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from .model import (FieldState, NonHermitianResidue, QuadCovariance,
                    SystemParams, noise_variances)

__all__ = [
    "DriftDiffusion",
    "SpectrumResult",
    "build_drift",
    "build_diffusion",
    "stability_eigenvalues",
    "intracavity_spectrum",
    "output_quad_spectrum",
    "compute_spectrum",
    "spectrum_grid",
    "lyapunov_covariance",
    "default_omega_grid",
]

_I6 = np.eye(6)

# Maps the interleaved doubled basis to quadratures (X1, Y1, X2, Y2, X3, Y3):
# X_i = da_i + da_i+, Y_i = -i (da_i - da_i+), the same block for each mode.
_QUAD_MAP = np.kron(np.eye(3), [[1, 1], [-1j, 1j]])

# Residual imaginary part allowed in the symmetrized quadrature spectrum.
_IMAG_TOL = 1e-10
_COND_WARN = 1e12


def default_omega_grid() -> np.ndarray:
    """Frequency grid for figure-style outputs: [-20, 20], 801 points.

    All correlation features at the built-in presets sit within a few gamma1
    of omega = 0; the step of 0.05 resolves them.
    """
    return np.linspace(-20.0, 20.0, 801)


def build_drift(p: SystemParams, ss: FieldState) -> np.ndarray:
    """Drift matrix A at a steady state (interleaved doubled basis).

    Equals the negated Jacobian of model.doubled_drift, written out by hand
    (the tests check it against finite differences of that function); the
    diagonal carries the bare loss rates and every off-diagonal entry is a
    coupling rate times a steady-state amplitude.
    """
    a1, a2, a3 = ss.alpha
    b1, b2, b3 = ss.alpha_plus
    k1, k2 = p.kappa1, p.kappa2
    g1, g2, g3 = p.gamma1, p.gamma2, p.gamma3
    return np.array([
        [g1, -k1 * a2, -k1 * b1, 0, 0, 0],
        [-k1 * b2, g1, 0, -k1 * a1, 0, 0],
        [k1 * a1, 0, g2, -k2 * a3, -k2 * b2, 0],
        [0, k1 * b1, -k2 * b3, g2, 0, -k2 * a2],
        [0, 0, k2 * a2, 0, g3, 0],
        [0, 0, 0, k2 * b2, 0, g3],
    ], dtype=complex)


def build_diffusion(p: SystemParams, ss: FieldState) -> np.ndarray:
    """Diffusion matrix D: diagonal, rows 5 and 6 zero.

    Entries are the squared noise coefficients of the stochastic equations;
    negative diagonal entries are legitimate in the doubled phase space.
    """
    return np.diag(np.array(
        [*noise_variances(ss.alpha, ss.alpha_plus, p), 0, 0], dtype=complex))


@dataclass(frozen=True)
class DriftDiffusion:
    """Drift and diffusion matrices bundled with the state they came from."""

    a_matrix: np.ndarray
    d_matrix: np.ndarray
    steady_state: FieldState

    @classmethod
    def from_steady_state(cls, p: SystemParams, ss: FieldState) -> "DriftDiffusion":
        A = build_drift(p, ss)
        D = build_diffusion(p, ss)
        A.setflags(write=False)
        D.setflags(write=False)
        return cls(a_matrix=A, d_matrix=D, steady_state=ss)

    def is_stable(self) -> bool:
        return bool(stability_eigenvalues(self.a_matrix).real.min() > 0)


def stability_eigenvalues(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of the drift matrix, sorted by real part.

    All real parts positive means the steady state is linearly stable and
    the stationary spectra below are valid; a crossing to negative real part
    is the self-pulsing bifurcation.
    """
    ev = np.linalg.eigvals(np.asarray(A))
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


def intracavity_spectrum(A: np.ndarray, D: np.ndarray,
                         omega: float | np.ndarray) -> np.ndarray:
    """S(omega) = (A + i omega)^-1 D (A^T - i omega)^-1 via two linear solves.

    A^T is the plain transpose, not the conjugate transpose.  Explicit
    inversion is avoided; partial-pivoted solves are used instead.  A scalar
    omega gives one 6x6 matrix, an array of n frequencies an (n, 6, 6)
    stack.  One RuntimeWarning names the worst-conditioned frequency when
    any resolvent has a condition number above 1e12 or a non-finite one.
    """
    w = np.asarray(omega, dtype=float)[..., None, None]
    left = A + 1j * w * _I6
    cond = np.linalg.cond(left).reshape(-1)
    worst = cond.argmax()    # argmax returns a NaN first: worst
    if not cond[worst] <= _COND_WARN:
        warnings.warn(f"ill-conditioned resolvent at omega={w.flat[worst]}: "
                      f"cond={cond[worst]:.3e}", RuntimeWarning, stacklevel=2)
    Y = np.linalg.solve(left, D)
    # S = Y (A^T - i omega)^-1, computed as a solve against the transpose.
    return np.linalg.solve(A - 1j * w * _I6, Y.mT).mT


def output_quad_spectrum(p: SystemParams, A: np.ndarray, D: np.ndarray,
                         omega: float | np.ndarray) -> QuadCovariance:
    """Output quadrature spectral covariance at one frequency or a grid.

    Transforms the intracavity spectrum to the quadrature basis, symmetrizes,
    scales by the mirror couplings and adds the vacuum floor.  The result
    must be real; residual imaginary parts above tolerance signal an
    upstream bug and raise NonHermitianResidue.
    """
    return _output_from_intracavity(p, intracavity_spectrum(A, D, omega), omega)


def _output_from_intracavity(p: SystemParams, S: np.ndarray,
                             omega: float | np.ndarray) -> QuadCovariance:
    Sq = _QUAD_MAP @ S @ _QUAD_MAP.T
    M = Sq + Sq.mT
    imag = np.abs(M.imag).max(axis=(-2, -1)).reshape(-1)
    if np.any(imag > _IMAG_TOL):
        worst = np.nanargmax(imag)
        raise NonHermitianResidue(
            f"imaginary residue {imag[worst]:.3e} in quadrature spectrum at "
            f"omega={np.reshape(omega, -1)[worst]}")
    g = np.sqrt(np.repeat(p.gammas(), 2))
    out = _I6 + np.outer(g, g) * M.real
    return QuadCovariance(omega=omega, matrix=out)


@dataclass(frozen=True)
class SpectrumResult:
    """Intracavity and output spectra at one frequency."""

    omega: float
    s_alpha: np.ndarray
    s_quad: QuadCovariance


def compute_spectrum(p: SystemParams, dd: DriftDiffusion,
                     omega: float) -> SpectrumResult:
    """Spectra at one frequency: the one-point grid."""
    return spectrum_grid(p, dd, [omega])[0]


def spectrum_grid(p: SystemParams, dd: DriftDiffusion,
                  omegas: np.ndarray | None = None) -> list[SpectrumResult]:
    """Spectra over a frequency grid (default grid when omegas is None).

    All frequencies are solved as one stack; the items are slices of it.
    """
    omegas = default_omega_grid() if omegas is None else np.asarray(
        omegas, dtype=float)
    s_alpha = intracavity_spectrum(dd.a_matrix, dd.d_matrix, omegas)
    s_quad = _output_from_intracavity(p, s_alpha, omegas)
    return [SpectrumResult(omega=float(w), s_alpha=s,
                           s_quad=QuadCovariance(omega=float(w), matrix=m))
            for w, s, m in zip(omegas, s_alpha, s_quad.matrix)]


def lyapunov_covariance(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Stationary covariance C of the fluctuations: A C + C A^T = D.

    This is the frequency integral of S(omega) d omega / 2 pi; used as a
    consistency oracle for the spectra and for the stochastic ensemble.
    """
    A = np.asarray(A)
    D = np.asarray(D)
    if np.isrealobj(A) and np.isrealobj(D) or (
            np.abs(A.imag).max() == 0 and np.abs(D.imag).max() == 0):
        C = solve_continuous_lyapunov(A.real, D.real)
    else:
        # Complex steady state pairs C with the plain transpose, which the
        # Hermitian-convention solver cannot express; solve the 36x36 system.
        K = np.kron(_I6, A) + np.kron(A, _I6)
        C = np.linalg.solve(K, D.flatten(order="F")).reshape((6, 6), order="F")
    resid = np.abs(A @ C + C @ A.T - D).max()
    if resid > 1e-10 * max(1.0, float(np.abs(D).max())):
        raise RuntimeError(f"Lyapunov solve residual {resid:.3e}")
    return C
