"""Parameter and state types shared by every other module.

The physical system is a driven cavity holding three resonant fields at a
fundamental frequency and its second and fourth harmonics, coupled by two
chi(2) processes.  Mode indexing is fixed throughout the package:

    1 = fundamental, 2 = second harmonic, 3 = fourth harmonic.

Quadratures follow the convention X = a + a^dag, Y = -i(a - a^dag), so the
vacuum variance is 1 and the uncertainty bound is V(X) V(Y) >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemParams",
    "FieldState",
    "QuadCovariance",
    "NonPositiveRate",
    "NonHermitianResidue",
    "validate_params",
    "half_drift",
    "doubled_drift",
    "noise_variances",
]


class NonPositiveRate(ValueError):
    """A rate that is not positive and finite, a pump that is not finite, or
    coupling rates out of the steady state's float range."""


class NonHermitianResidue(ValueError):
    """A matrix expected to be real symmetric is not: an imaginary part
    above tolerance, or any asymmetry in a QuadCovariance."""


@dataclass(frozen=True)
class SystemParams:
    """Rates and pump amplitude defining one experiment.

    kappa1 couples modes 1 and 2, kappa2 couples modes 2 and 3 (inverse time
    per unit amplitude).  epsilon is the external pump amplitude feeding mode
    1; it may be complex, though every reference configuration uses real
    positive epsilon.  gamma1..gamma3 are the cavity loss rates of the three
    modes.  Time is measured in units of 1/gamma1, so gamma1 == 1 in the
    canonical normalization.
    """

    kappa1: float
    kappa2: float
    epsilon: complex
    gamma1: float = 1.0
    gamma2: float = 1.0
    gamma3: float = 1.0

    def gammas(self) -> np.ndarray:
        return np.array([self.gamma1, self.gamma2, self.gamma3], dtype=float)


def validate_params(p: SystemParams) -> None:
    """Check finite positive rates, a finite pump and gamma1 == 1.

    Raises NonPositiveRate otherwise.  Time is in units of 1/gamma1, so
    rates given in other units are to be divided by gamma1, the pump too.
    """
    bad = [name for name in ("kappa1", "kappa2", "gamma1", "gamma2", "gamma3")
           if not 0 < getattr(p, name) < np.inf]
    if not np.isfinite(p.epsilon):
        bad.append("epsilon")
    if bad:
        raise NonPositiveRate("rates must be positive and finite and the "
                              "pump finite, violated by: " + ", ".join(bad))
    if p.gamma1 != 1.0:
        raise NonPositiveRate(
            f"gamma1 must be 1 in canonical time units, got {p.gamma1}; "
            "divide every rate and the pump by gamma1")


def half_drift(x, y, e, p: SystemParams) -> tuple:
    """Drifts (f1, f2, f3) of the amplitudes x1..x3 of one phase-space half:
    the one definition of the equations of motion.

    y holds the partner half and e the pump x sees: f(a, b, epsilon) drives
    alpha, f(b, a, conj(epsilon)) alpha_plus.  x and y index modes first, as
    scalar triples or arrays.  The stochastic ensemble step writes the same
    arithmetic in place, and a test pins it to doubled_drift bit for bit.
    """
    x1, x2, x3 = x
    y1, y2, y3 = y
    k1, k2 = p.kappa1, p.kappa2
    return (e - p.gamma1 * x1 + k1 * y1 * x2,
            -p.gamma2 * x2 + k2 * y2 * x3 - 0.5 * k1 * x1 * x1,
            -p.gamma3 * x3 - 0.5 * k2 * x2 * x2)


def doubled_drift(a, b, p: SystemParams) -> tuple:
    """Drifts (f1, f2, f3, g1, g2, g3) of a1..a3 and b1..b3: half_drift of
    each half, taking a and b as half_drift takes x.  Stationary points are
    checked on it."""
    e = complex(p.epsilon)
    return half_drift(a, b, e, p) + half_drift(b, a, e.conjugate(), p)


def noise_variances(x, p: SystemParams) -> tuple:
    """Squared noise coefficients on x1 and x2; mode 3 is noiseless.

    Takes x as half_drift does.  These are the diagonal of the diffusion
    matrix; they may be negative or complex in the doubled space.
    """
    return p.kappa1 * x[1], p.kappa2 * x[2]


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FieldState:
    """Six doubled phase-space amplitudes (alpha_i, alpha_i_plus).

    On the classical manifold alpha_plus[i] == conj(alpha[i]) exactly; in
    stochastic trajectories the pair members evolve independently and the
    equality holds only on ensemble average.
    """

    alpha: np.ndarray
    alpha_plus: np.ndarray

    def __post_init__(self):
        a = _frozen(np.asarray(self.alpha, dtype=complex).reshape(3))
        ap = _frozen(np.asarray(self.alpha_plus, dtype=complex).reshape(3))
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "alpha_plus", ap)

    @classmethod
    def classical(cls, alpha) -> "FieldState":
        """State on the classical manifold: alpha_plus = conj(alpha)."""
        a = np.asarray(alpha, dtype=complex).reshape(3)
        return cls(alpha=a, alpha_plus=np.conj(a))

    @classmethod
    def vacuum(cls) -> "FieldState":
        return cls.classical(np.zeros(3))

    def doubled(self) -> np.ndarray:
        """Interleaved 6-vector (a1, a1+, a2, a2+, a3, a3+)."""
        out = np.empty(6, dtype=complex)
        out[0::2] = self.alpha
        out[1::2] = self.alpha_plus
        return out


@dataclass(frozen=True)
class QuadCovariance:
    """Output spectral covariance at one frequency or over a grid of them.

    matrix is the 6x6 real symmetric array of output quadrature variances
    and covariances in the basis (X1, Y1, X2, Y2, X3, Y3), normalized so the
    vacuum value is 1 on the diagonal.  omega is in units of gamma1.  A stack
    holds an (n, 6, 6) matrix with an array of n frequencies.  A matrix that
    is not exactly symmetric in its last two axes raises NonHermitianResidue;
    an exactly symmetric one is kept as is.
    """

    omega: float | np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim > 3 or m.shape != np.shape(self.omega) + (6, 6):
            raise ValueError(f"matrix must be 6x6, or (n, 6, 6) for n "
                             f"frequencies; got {m.shape}")
        if not np.array_equal(m, m.mT):
            raise NonHermitianResidue(f"matrix is not exactly symmetric: "
                                      f"asymmetry {np.abs(m - m.mT).max():.3e}")
        object.__setattr__(self, "matrix", _frozen(m))

    def variance(self, label: str, mode: int) -> float | np.ndarray:
        """V(X_mode) for label 'X', V(Y_mode) for label 'Y'; over omega
        for a stack."""
        if label not in ("X", "Y"):
            raise ValueError(f"label must be 'X' or 'Y', got {label!r}")
        if mode not in (1, 2, 3):
            raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
        idx = 2 * (mode - 1) + (label == "Y")
        return self.matrix[..., idx, idx]

    def uncertainty_products(self) -> np.ndarray:
        """V(X_i) V(Y_i) for the three modes; each >= 1 for physical states."""
        d = np.diagonal(self.matrix, axis1=-2, axis2=-1)
        return d[..., 0::2] * d[..., 1::2]
