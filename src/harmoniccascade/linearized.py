"""Fluctuation spectra around a stationary state.

Small fluctuations about a stable steady state obey a linear
Ornstein-Uhlenbeck equation d(dv) = -A dv dt + B dW in the interleaved
doubled basis (da1, da1+, da2, da2+, da3, da3+).  Only D = B B^T enters the
stationary spectrum

    S(omega) = (A + i omega)^-1 D (A^T - i omega)^-1,

so B is never formed and no square-root branch choice is needed here.  Only
its symmetric part M = S + S^T reaches any output.  In the eigenbasis of A,
A = V L V^-1 and C = V^-1 D V^-T, partial fractions give S = sum_j P_j /
(l_j + i omega) + P_j^T / (l_j - i omega), so M has six simple poles

    M(omega) = sum_j R_j 2 l_j / (l_j^2 + omega^2),   R_j = P_j + P_j^T,
    P_j = v_j (C' V^T)_j,   C'_jk = C_jk / (l_j + l_k),

with fixed symmetric residues (the modal solution of the OU spectrum): one
eigendecomposition per call, one small product per frequency.  A real A
has real poles or conjugate pairs with conjugate residues; a pair adds up to
twice the real part of its pole with Im l_j > 0, so M is real by
construction.  One scalar bound from the eigenvalues covers the resolvent
conditioning at every omega.  A nearly defective A (large cond(V)), or one
with an eigenvalue on or left of the imaginary axis (where l_j + l_k can
vanish), falls back to two solves per frequency.

The measured output spectra are read in the quadrature basis
(X1, Y1, X2, Y2, X3, Y3), where input-output theory applies the mirror
couplings and adds the vacuum floor:

    S_out[p, q] = delta_pq + sqrt(gamma_p gamma_q) M_q[p, q].

The spectrum itself is computed in that basis: A_q = Q A Q^-1 and
D_q = Q D Q^T are real for every classical state, so M is real however
close the state is to threshold.  An imaginary part in
A_q or D_q above tolerance means the state is not classical and raises
NonHermitianResidue before any spectrum is formed.

spectrum_grid is the one entry point for output spectra: it evaluates a
frequency grid as one (n, 6, 6) stack and returns them as one SpectrumResult.
Its private kernel returns the 21 upper-triangle entries (the diagonal
first) of scale * M at each frequency; the scale multiplies the kept
residues, so the mirror couplings sqrt(gamma_p gamma_q) cost one (k, 21)
product per call.  spectrum_grid adds the vacuum floor to the 6 diagonal
entries and scatters the 21 into each exactly symmetric 6x6 matrix once.
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
    "spectrum_grid",
    "lyapunov_covariance",
    "default_omega_grid",
]

_I6 = np.eye(6)

# Maps the interleaved doubled basis to quadratures (X1, Y1, X2, Y2, X3, Y3):
# X_i = da_i + da_i+, Y_i = -i (da_i - da_i+), the same block for each mode.
_QUAD_MAP = np.kron(np.eye(3), [[1, 1], [-1j, 1j]])
_QUAD_INV = _QUAD_MAP.conj().T / 2
# The 21 upper-triangle entries of a 6x6 matrix, the 6 diagonal ones first;
# M[a, b] and M[b, a] read entry _SYM[a, b].
_UPPER = tuple(np.concatenate(rows_or_cols) for rows_or_cols
               in zip(np.diag_indices(6), np.triu_indices(6, 1)))
_SYM = np.zeros((6, 6), dtype=int)
_SYM[_UPPER] = _SYM.T[_UPPER] = np.arange(21)

# Largest imaginary part allowed in the quadrature drift and diffusion.
_IMAG_TOL = 1e-10
_COND_WARN = 1e12
# Largest cond(V) for which the modal route is used.  Its roundoff grows like
# cond(V)^2 * eps (in the quadrature basis near regime 2's pump 57.176:
# 9e-14 relative at cond(V) = 102, 6e-13 at 187, 9e-12 at 808), so 1e2
# keeps it at the 1e-12 the two-solve route is held to.  A 600-pump scan of
# each preset's stable branch gives cond(V) <= 15; it diverges at regime 2's
# pump 57.176, where two drift eigenvalues meet, and exceeds 1e2 within 0.015.
_MODAL_COND_MAX = 1e2
# The grid spectrum_grid evaluates when given none: one read-only array.
_OMEGA_GRID = np.linspace(-20.0, 20.0, 801)
_OMEGA_GRID.setflags(write=False)


def default_omega_grid() -> np.ndarray:
    """Frequency grid for figure-style outputs: [-20, 20], 801 points.

    All correlation features at the built-in presets sit within a few gamma1
    of omega = 0; the step of 0.05 resolves them.  Each call returns a fresh
    writeable array.
    """
    return _OMEGA_GRID.copy()


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


@dataclass(frozen=True)
class DriftDiffusion:
    """Drift and diffusion matrices at one steady state.

    a_matrix is build_drift's A.  d_matrix is the diffusion matrix D:
    diagonal, rows 5 and 6 zero.  Its entries are the squared noise
    coefficients of the stochastic equations; negative diagonal entries are
    legitimate in the doubled phase space.
    """

    a_matrix: np.ndarray
    d_matrix: np.ndarray

    @classmethod
    def from_steady_state(cls, p: SystemParams, ss: FieldState) -> "DriftDiffusion":
        A = build_drift(p, ss)
        a, b = noise_variances(ss.alpha, p), noise_variances(ss.alpha_plus, p)
        D = np.diag(np.array([a[0], b[0], a[1], b[1], 0, 0], dtype=complex))
        A.setflags(write=False)
        D.setflags(write=False)
        return cls(a_matrix=A, d_matrix=D)


def _pole_residues(lam, V, D, poles) -> np.ndarray:
    """Upper triangles (k, 21) of the residues R_j of M for the poles j
    selected by poles (module docstring)."""
    Vinv = np.linalg.inv(V)
    C = (Vinv[poles] @ D @ Vinv.T) / (lam[poles, None] + lam)
    Vt, W = V.T[poles], C @ V.T    # P[j] = v_j W_j, R_j = P_j + P_j^T
    a, b = _UPPER
    return Vt[:, a] * W[:, b] + Vt[:, b] * W[:, a]


def _entries(A, D, wf, scale) -> np.ndarray:
    """Upper triangles (n, 21) of scale * M at the frequencies wf, for the
    real quadrature pair A and D (module docstring).

    The modal route sums the poles of one eigendecomposition and multiplies
    the kept residues by scale.  When cond(V) exceeds _MODAL_COND_MAX (A
    close to defective) or an eigenvalue of A has no positive real part,
    two solves per frequency give S instead, and the entries of the real
    part of S + S^T (for real A and D, S^T = conj(S)) are scaled after them.

    One RuntimeWarning names the worst-conditioned frequency when any
    resolvent has a condition number above 1e12 or a non-finite one.  As
    cond(A + i omega) <= cond(V)^2 max_j|l_j + i omega| / min_j|l_j + i omega|
    <= cond(V)^2 (1 + max_jk|l_j - l_k| / min_j Re l_j) for every omega,
    exact condition numbers are computed, one per frequency, only on the
    fallback, when twice that bound reaches 1e12 or for a non-finite omega.
    """
    lam, V = np.linalg.eig(A)
    sv = np.linalg.svd(V, compute_uv=False)
    kappa = sv[0] / sv[-1]
    re, spread = lam.real.min(), np.abs(lam[:, None] - lam).max()
    modal = kappa <= _MODAL_COND_MAX and re > 0
    # 2 cond(V)^2 (1 + spread / re) < 1e12, the 2 for roundoff
    if not (modal and 2 * kappa ** 2 * (re + spread) < _COND_WARN * re
            and np.isfinite(wf).all()):
        cond = np.linalg.cond(A + 1j * wf[:, None, None] * _I6)
        k = cond.argmax()    # argmax returns a NaN first: worst
        if not cond[k] <= _COND_WARN:
            warnings.warn(f"ill-conditioned resolvent at omega={wf[k]}: "
                          f"cond={cond[k]:.3e}", RuntimeWarning, stacklevel=3)
    if not modal:
        w = wf[:, None, None]
        Y = np.linalg.solve(A + 1j * w * _I6, D)
        # S = Y (A^T - i omega)^-1, computed as a solve against the transpose.
        S = np.linalg.solve(A - 1j * w * _I6, Y.mT).mT
        return (S + S.mT).real[:, _UPPER[0], _UPPER[1]] * scale
    keep = np.flatnonzero(lam.imag >= 0)    # one pole of each conjugate pair
    R = _pole_residues(lam, V, D, keep) * scale
    lam = lam[keep].astype(complex, copy=False)    # eig may return reals
    num = np.where(lam.imag > 0, 4.0, 2.0) * lam
    weight = num / (lam * lam + (wf * wf)[:, None])
    # Re(w R) = Re w Re R - Im w Im R as one (1, 2k) @ (2k, 21) product per
    # frequency, so a grid item equals the one-point result bit for bit (one
    # (n, 2k) GEMM would not); the weights are read as interleaved floats
    RI = np.concatenate([R.real, -R.imag], axis=1).reshape(-1, 21)
    return (weight.view(float)[:, None, :] @ RI)[:, 0]


@dataclass(frozen=True)
class SpectrumResult:
    """Output spectra at one frequency or over a grid.

    s_quad is one QuadCovariance stack over n frequencies, or one 6x6
    matrix at one frequency; omega reads its frequencies.  len() counts
    them, and indexing along omega gives the spectra there: an int one
    frequency, a slice a sub-grid.
    """

    s_quad: QuadCovariance

    @property
    def omega(self) -> float | np.ndarray:
        return self.s_quad.omega

    def __len__(self) -> int:
        return int(np.size(self.omega))

    def __getitem__(self, index) -> "SpectrumResult":
        if np.ndim(self.omega) == 0:    # else iteration would end silently
            raise TypeError("one frequency has no frequency axis to index")
        return SpectrumResult(QuadCovariance(
            omega=self.omega[index], matrix=self.s_quad.matrix[index]))


def spectrum_grid(p: SystemParams, dd: DriftDiffusion,
                  omegas: float | np.ndarray | None = None) -> SpectrumResult:
    """Output spectra over a frequency grid (default grid when omegas is None).

    A scalar omega gives the spectra at that one frequency.  The drift and
    diffusion are moved to the quadrature basis, where an imaginary part
    above tolerance (the state is not classical) raises NonHermitianResidue.
    The entries of M = S + S^T, evaluated over all frequencies as one real
    stack, are scaled by the mirror couplings over the vacuum floor.
    """
    omegas = _OMEGA_GRID if omegas is None else np.array(
        omegas, dtype=float)[()]    # [()] keeps a scalar omega a scalar
    A = _QUAD_MAP @ dd.a_matrix @ _QUAD_INV
    D = _QUAD_MAP @ dd.d_matrix @ _QUAD_MAP.T
    imag = max(np.abs(A.imag).max(), np.abs(D.imag).max())
    if imag > _IMAG_TOL:
        raise NonHermitianResidue(f"imaginary residue {imag:.3e} in the "
                                  "quadrature-basis drift or diffusion")
    g = np.sqrt(np.repeat(p.gammas(), 2))
    entries = _entries(A.real, D.real, np.reshape(omegas, -1),
                       g[_UPPER[0]] * g[_UPPER[1]])
    entries[:, :6] += 1.0    # the vacuum floor, on the diagonal entries
    matrix = entries[:, _SYM].reshape(np.shape(omegas) + (6, 6))
    return SpectrumResult(QuadCovariance(omega=omegas, matrix=matrix))


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
