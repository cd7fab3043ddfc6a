"""Fluctuation spectra around a stationary state.

Small fluctuations about a stable steady state obey a linear
Ornstein-Uhlenbeck equation d(dv) = -A dv dt + B dW in the interleaved
doubled basis (da1, da1+, da2, da2+, da3, da3+).  Only D = B B^T enters the
stationary spectrum

    S(omega) = (A + i omega)^-1 D (A^T - i omega)^-1,

so B is never formed and no square-root branch choice is needed here.  It is
evaluated in the eigenbasis of A (the modal solution of the OU spectrum):
with A = V L V^-1 and C = V^-1 D V^-T, splitting each product of two poles
into partial fractions gives a sum of twelve simple poles

    S(omega) = sum_j P_j / (l_j + i omega) + P_j^T / (l_j - i omega),
    P_j = v_j (C' V^T)_j,   C'_jk = C_jk / (l_j + l_k),

whose residues are fixed 6x6 matrices: one eigendecomposition per call and
one small product per frequency.  The eigenvalues also bound the resolvent
conditioning, so the exact condition number is computed only where that
bound comes near the warning threshold.  A nearly defective A (large
cond(V)) falls back to two linear solves per frequency.

The measured output spectra are read in the quadrature basis
(X1, Y1, X2, Y2, X3, Y3), where input-output theory applies the mirror
couplings and adds the vacuum floor:

    S_out[p, q] = delta_pq + sqrt(gamma_p gamma_q) (Sq[p, q] + Sq[q, p]).

The spectrum itself is computed in that basis: A_q = Q A Q^-1 and
D_q = Q D Q^T are real for every classical state, so the output is real up
to roundoff however close the state is to threshold.  An imaginary part in
A_q or D_q above tolerance means the state is not classical and raises
NonHermitianResidue before any spectrum is formed.

spectrum_grid is the one entry point: it evaluates a frequency grid as one
(n, 6, 6) stack and returns the output spectra as one SpectrumResult.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import (FieldState, NonHermitianResidue, QuadCovariance,
                    SystemParams, noise_variances)

__all__ = [
    "DriftDiffusion",
    "SpectrumResult",
    "build_drift",
    "build_diffusion",
    "intracavity_spectrum",
    "spectrum_grid",
    "lyapunov_covariance",
    "default_omega_grid",
]

_I6 = np.eye(6)

# Maps the interleaved doubled basis to quadratures (X1, Y1, X2, Y2, X3, Y3):
# X_i = da_i + da_i+, Y_i = -i (da_i - da_i+), the same block for each mode.
_QUAD_MAP = np.kron(np.eye(3), [[1, 1], [-1j, 1j]])
_QUAD_INV = _QUAD_MAP.conj().T / 2

# Residual imaginary part allowed in the quadrature-basis drift and diffusion
# and in the symmetrized quadrature spectrum.
_IMAG_TOL = 1e-10
_COND_WARN = 1e12
# Largest cond(V) for which the modal route is used.  Its roundoff grows like
# cond(V)^2 * eps (in the quadrature basis near regime 2's pump 57.176:
# 9e-14 relative at cond(V) = 102, 6e-13 at 187, 9e-12 at 808), so 1e2
# keeps it at the 1e-12 the two-solve route is held to.  A 600-pump scan of
# each preset's stable branch gives cond(V) <= 15; it diverges at regime 2's
# pump 57.176, where two drift eigenvalues meet, and exceeds 1e2 within 0.015.
_MODAL_COND_MAX = 1e2


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
    a, b = noise_variances(ss.alpha, p), noise_variances(ss.alpha_plus, p)
    return np.diag(np.array([a[0], b[0], a[1], b[1], 0, 0], dtype=complex))


@dataclass(frozen=True)
class DriftDiffusion:
    """Drift and diffusion matrices at one steady state."""

    a_matrix: np.ndarray
    d_matrix: np.ndarray

    @classmethod
    def from_steady_state(cls, p: SystemParams, ss: FieldState) -> "DriftDiffusion":
        A = build_drift(p, ss)
        D = build_diffusion(p, ss)
        A.setflags(write=False)
        D.setflags(write=False)
        return cls(a_matrix=A, d_matrix=D)


def intracavity_spectrum(A: np.ndarray, D: np.ndarray,
                         omega: float | np.ndarray) -> np.ndarray:
    """S(omega) = (A + i omega)^-1 D (A^T - i omega)^-1 by the modal route.

    A^T is the plain transpose, not the conjugate transpose.  A scalar omega
    gives one 6x6 matrix, an array of n frequencies an (n, 6, 6) stack.  One
    eigendecomposition A = V L V^-1 gives the twelve pole residues that
    serve every frequency (module docstring); the partial fractions need
    l_j + l_k != 0, which every stable A (all Re l_j > 0) satisfies.  When
    cond(V) exceeds _MODAL_COND_MAX (A close to defective) two
    partial-pivoted solves per frequency are used instead.

    One RuntimeWarning names the worst-conditioned frequency when any
    resolvent has a condition number above 1e12 or a non-finite one.  As
    cond(A + i omega) <= cond(V)^2 max_j|l_j + i omega| / min_j|l_j + i omega|,
    the modal route computes the exact condition number only where twice
    that bound reaches 1e12, which gives the same warning.
    """
    w = np.asarray(omega, dtype=float)
    wf = w.reshape(-1)
    lam, V = np.linalg.eig(A)
    kappa = np.linalg.cond(V)
    modal = kappa <= _MODAL_COND_MAX
    if modal:
        dist = np.abs(lam + 1j * wf[:, None])
        # factor 2: roundoff in the eigenvalues and in cond(V); a NaN or an
        # exactly singular resolvent is checked too
        safe = 2 * kappa ** 2 * dist.max(axis=1) < _COND_WARN * dist.min(axis=1)
        check = np.flatnonzero(~safe)
    else:
        check = np.arange(wf.size)
    if check.size:
        cond = np.linalg.cond(A + 1j * wf[check, None, None] * _I6)
        k = cond.argmax()    # argmax returns a NaN first: worst
        if not cond[k] <= _COND_WARN:
            warnings.warn(f"ill-conditioned resolvent at omega={wf[check[k]]}: "
                          f"cond={cond[k]:.3e}", RuntimeWarning, stacklevel=2)
    if modal:
        if not dist.all():    # as the solves, refuse an exactly singular one
            raise np.linalg.LinAlgError("Singular matrix")
        Vinv = np.linalg.inv(V)
        C = (Vinv @ D @ Vinv.T) / (lam[:, None] + lam)
        P = V.T[:, :, None] * (C @ V.T)[:, None, :]    # P[j] = v_j (C V^T)_j
        residues = np.concatenate([P, P.mT]).reshape(12, 36)
        shift = 1j * wf[:, None]
        poles = 1 / np.concatenate([lam + shift, lam - shift], axis=1)
        # one (1, 12) @ (12, 36) product per frequency, so a grid item equals
        # the one-point result bit for bit (a single (n, 12) GEMM would not)
        S = poles[:, None, :] @ residues
        return S.reshape(w.shape + (6, 6))
    w = w[..., None, None]
    Y = np.linalg.solve(A + 1j * w * _I6, D)
    # S = Y (A^T - i omega)^-1, computed as a solve against the transpose.
    return np.linalg.solve(A - 1j * w * _I6, Y.mT).mT


@dataclass(frozen=True)
class SpectrumResult:
    """Output spectra at one frequency or over a grid.

    Over n frequencies omega is an array and s_quad one QuadCovariance
    stack; at one frequency omega is a scalar and s_quad one 6x6 matrix.
    s_quad is computed in the real quadrature basis from the pole-residue
    form of the intracavity spectrum (module docstring), after a check that
    the quadrature drift and diffusion are real.  len() counts the
    frequencies, and indexing along omega gives the spectra there: an int
    one frequency, a slice a sub-grid.
    """

    omega: float | np.ndarray
    s_quad: QuadCovariance

    def __len__(self) -> int:
        return int(np.size(self.omega))

    def __getitem__(self, index) -> "SpectrumResult":
        if np.ndim(self.omega) == 0:    # else iteration would end silently
            raise TypeError("one frequency has no frequency axis to index")
        omega = self.omega[index]
        return SpectrumResult(omega=omega, s_quad=QuadCovariance(
            omega=omega, matrix=self.s_quad.matrix[index]))


def spectrum_grid(p: SystemParams, dd: DriftDiffusion,
                  omegas: float | np.ndarray | None = None) -> SpectrumResult:
    """Output spectra over a frequency grid (default grid when omegas is None).

    A scalar omega gives the spectra at that one frequency.  The drift and
    diffusion are moved to the quadrature basis, where they must be real: an
    imaginary part above tolerance means the state is not classical and
    raises NonHermitianResidue.  All frequencies are then evaluated as one
    stack; the output spectrum symmetrizes, scales by the mirror couplings
    and adds the vacuum floor.  It must be real too; a residual imaginary
    part above tolerance signals an upstream bug and raises
    NonHermitianResidue.
    """
    omegas = default_omega_grid() if omegas is None else np.array(
        omegas, dtype=float)[()]    # [()] keeps a scalar omega a scalar
    A = _QUAD_MAP @ dd.a_matrix @ _QUAD_INV
    D = _QUAD_MAP @ dd.d_matrix @ _QUAD_MAP.T
    imag = max(np.abs(A.imag).max(), np.abs(D.imag).max())
    if imag > _IMAG_TOL:
        raise NonHermitianResidue(
            f"imaginary residue {imag:.3e} in the quadrature-basis drift "
            f"or diffusion")
    Sq = intracavity_spectrum(A.real, D.real, omegas)
    M = Sq + Sq.mT
    imag = np.abs(M.imag).max(axis=(-2, -1)).reshape(-1)
    if np.any(imag > _IMAG_TOL):
        worst = np.nanargmax(imag)
        raise NonHermitianResidue(
            f"imaginary residue {imag[worst]:.3e} in quadrature spectrum at "
            f"omega={np.reshape(omegas, -1)[worst]}")
    g = np.sqrt(np.repeat(p.gammas(), 2))
    s_quad = QuadCovariance(omega=omegas, matrix=_I6 + np.outer(g, g) * M.real)
    return SpectrumResult(omega=omegas, s_quad=s_quad)


def lyapunov_covariance(A: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Stationary covariance C of the fluctuations: A C + C A^T = D.

    This is the frequency integral of S(omega) d omega / 2 pi; used as a
    consistency oracle for the spectra and for the stochastic ensemble.
    """
    A = np.asarray(A)
    D = np.asarray(D)
    # A complex steady state pairs C with the plain transpose, which
    # Hermitian-convention solvers cannot express; the 36x36 system covers
    # real and complex states alike.
    K = np.kron(_I6, A) + np.kron(A, _I6)
    C = np.linalg.solve(K, D.flatten(order="F")).reshape((6, 6), order="F")
    resid = np.abs(A @ C + C @ A.T - D).max()
    if resid > 1e-10 * max(1.0, float(np.abs(D).max())):
        raise RuntimeError(f"Lyapunov solve residual {resid:.3e}")
    return C
