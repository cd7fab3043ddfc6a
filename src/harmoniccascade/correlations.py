"""Tripartite inseparability, entanglement, and steering criteria.

All quantities are bilinear forms on one 6x6 output quadrature covariance
or an (n, 6, 6) stack, with zero-mean fluctuations so V(A, B) is the matrix
entry itself.  Formulas read the transpose, whose V[a, b] is that entry of
every matrix (all are symmetric), so they give arrays over omega for a stack.
Three families are evaluated:

  * pairwise correlations V_ij with an optimized gain on the third mode
    (threshold 4, two of the three below it for full inseparability;
    Teh-Reid sharpenings: sum < 8 entangled, sum < 4 genuine steering),
  * triple correlations V_ijk with fixed 1/sqrt(2) weights (threshold 4;
    below 2 genuine entanglement, below 1 genuine steering),
  * obr_ijk, the product of the inferred X and Y variances of mode i given
    the joint quadratures of modes j and k (below 1: modes j,k steer mode i;
    He-Reid sum below 1: genuine tripartite steering).

The inferred variances condition on the sum quadratures X_j + X_k and
Y_j + Y_k.

Each family's formula is written once.  It reads the matrix entries it
needs in one gather, through a fixed index table that holds the (row,
column) of every entry for every permutation of the family's *_ORDER.
evaluate_grid evaluates each family over all three permutations at once,
and a table of one permutation gives that permutation's values bit for bit.
The triples and the OBR products read the same entries: V_ijk is symmetric
in j and k, and each family pairs every mode i with the other two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CorrelationReport",
    "GridSummary",
    "DegenerateVariance",
    "PAIR_ORDER",
    "TRIPLE_ORDER",
    "OBR_ORDER",
    "evaluate_grid",
    "summarize_grid",
]

# Pair (i, j) is always reported with the gain applied to the remaining mode.
PAIR_ORDER = ((1, 2), (1, 3), (2, 3))
TRIPLE_ORDER = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
OBR_ORDER = ((1, 2, 3), (2, 1, 3), (3, 1, 2))

_DEGENERATE_TOL = 1e-12


class DegenerateVariance(ValueError):
    """A variance needed as a denominator is numerically zero."""


def _modes(perms):
    """Rows (3, 2, P) in the basis (X1, Y1, X2, Y2, X3, Y3): for modes i, j
    and k of each permutation (i, j, k), that of X and that of Y."""
    x = 2 * np.array(perms).T - 2
    return np.stack([x, x + 1], axis=1)


def _pair_table(perms) -> np.ndarray:
    """Entries [row or column][entry][permutation] that V_ij reads:
    X_i X_i, X_j X_j, X_i X_j, Y_i Y_i, Y_j Y_j, Y_i Y_j, Y_k Y_k, Y_k Y_i
    and Y_k Y_j."""
    (xi, yi), (xj, yj), (_, yk) = _modes(perms)
    return np.array([[xi, xj, xi, yi, yj, yi, yk, yk, yk],
                     [xi, xj, xj, yi, yj, yj, yk, yi, yj]])


def _trio_table(perms) -> np.ndarray:
    """Entries [row or column][entry][X or Y][permutation] that V_ijk and
    obr_ijk read: (i, i), (j, j), (k, k), (j, k), (i, j) and (i, k)."""
    i, j, k = _modes(perms)
    return np.array([[i, j, k, j, i, i], [i, j, k, k, j, k]])


_PAIR_TABLE = _pair_table([(i, j, 6 - i - j) for i, j in PAIR_ORDER])
# V_ijk is symmetric in j and k, bit for bit on an exactly symmetric matrix,
# so the triples of TRIPLE_ORDER read the entries of the OBR permutations
# with the same mode i: one table serves both families.
_TRIO_TABLE = _trio_table(OBR_ORDER)


def _mode(row) -> int:
    """The mode whose X or Y sits at this row of (X1, Y1, X2, Y2, X3, Y3)."""
    return int(row) // 2 + 1


def _require_variance(den, message) -> None:
    """Raise DegenerateVariance at the first permutation p, X before Y, where
    den[q, p] (q for X or Y) drops below tolerance; message(p, minimum)."""
    if np.any(den < _DEGENERATE_TOL):
        for p, q in np.ndindex(den.shape[1], den.shape[0]):
            if np.any(den[q, p] < _DEGENERATE_TOL):
                raise DegenerateVariance(message(p, np.min(den[q, p])))


def _pair_values(V, table, gain=None):
    """V_ij = V(X_i - X_j) + V(Y_i + Y_j + g_k Y_k) and the gain g_k for each
    permutation of table; V is the transpose of a covariance or stack (module
    docstring), read in one gather.  With no gain given, g_k = -[V(Y_k, Y_i)
    + V(Y_k, Y_j)] / V(Y_k) minimizes the Y term exactly."""
    xii, xjj, xij, yii, yjj, yij, ykk, yki, ykj = V[table[0], table[1]]
    vx = xii + xjj - 2.0 * xij
    if gain is None:
        _require_variance(ykk[None], lambda p, v: (
            f"V(Y_{_mode(table[0, 6, p])}) = {v:.3e}; cannot optimize gain"))
        gain = -(yki + ykj) / ykk
    vy = (yii + yjj + gain * gain * ykk
          + 2.0 * yij + 2.0 * gain * yki + 2.0 * gain * ykj)
    return vx + vy, gain


def _trio_terms(V, table):
    """V(Q_i), V(Q_j + Q_k) and V(Q_i, Q_j + Q_k), stacked (2, P, ...) for
    Q = X, Y and each permutation of table, read in one gather."""
    vii, vjj, vkk, vjk, vij, vik = V[table[0], table[1]]
    return vii, vjj + vkk + 2.0 * vjk, vij + vik


def _triple_values(vii, den, cov):
    """V_ijk = V(X_i - (X_j + X_k)/sqrt 2) + V(Y_i + (Y_j + Y_k)/sqrt 2)."""
    base = vii + 0.5 * den
    cross = np.sqrt(2.0) * cov
    return (base[0] - cross[0]) + (base[1] + cross[1])


def _inferred_values(vii, den, cov, table):
    """Inferred X and Y variances of mode i given the sum of modes j and k,
    V(Q_i) - V(Q_i, Q_j + Q_k)^2 / V(Q_j + Q_k): never above V(Q_i)."""
    _require_variance(den, lambda p, v: (
        f"combined variance {v:.3e} for modes ({_mode(table[0, 1, 0, p])},"
        f"{_mode(table[0, 2, 0, p])}); cannot infer"))
    return vii - cov * cov / den


@dataclass(frozen=True)
class CorrelationReport:
    """Every criterion evaluated on one covariance or on a stack of them.

    v_pair and gains are keyed by the pair (i, j); v_triple and obr by the
    full index triple.  It holds values only; the thresholds they are read
    against are stated in the module docstring.  From a stack of
    covariances each value is an array over omega, and len() counts the
    frequencies.
    """

    omega: float | np.ndarray
    v_pair: dict[tuple[int, int], float]
    gains: dict[tuple[int, int], float]
    v_triple: dict[tuple[int, int, int], float]
    obr: dict[tuple[int, int, int], float]
    sum_v_pair: float
    sum_obr: float

    def __len__(self) -> int:
        return int(np.size(self.omega))


def _report(omega, pair, gains, triple, obr) -> CorrelationReport:
    """The report from each family's values stacked in its *_ORDER."""
    return CorrelationReport(
        omega=omega,
        v_pair=dict(zip(PAIR_ORDER, pair)), gains=dict(zip(PAIR_ORDER, gains)),
        v_triple=dict(zip(TRIPLE_ORDER, triple)), obr=dict(zip(OBR_ORDER, obr)),
        sum_v_pair=pair[0] + pair[1] + pair[2],
        sum_obr=obr[0] + obr[1] + obr[2],
    )


def evaluate_grid(spectra) -> CorrelationReport:
    """Compute all correlations from a SpectrumResult's output spectra:
    arrays over a grid, scalars at one frequency.  Each family is evaluated
    over its three permutations at once."""
    S = spectra.s_quad
    pair, gains = _pair_values(S.matrix.T, _PAIR_TABLE)
    trio = _trio_terms(S.matrix.T, _TRIO_TABLE)
    vx, vy = _inferred_values(*trio, _TRIO_TABLE)
    return _report(S.omega, pair, gains, _triple_values(*trio), vx * vy)


@dataclass(frozen=True)
class GridSummary:
    """Grid minima with the frequency at which each is attained."""

    min_v_pair: dict[tuple[int, int], tuple[float, float]]
    min_v_triple: dict[tuple[int, int, int], tuple[float, float]]
    min_obr: dict[tuple[int, int, int], tuple[float, float]]
    min_sum_v_pair: tuple[float, float]
    min_sum_obr: tuple[float, float]


def summarize_grid(report: CorrelationReport) -> GridSummary:
    """Minimum of every value over a grid report; ties go to the first."""
    def min_over(values):
        idx = int(np.argmin(values))
        return float(values[idx]), float(report.omega[idx])

    return GridSummary(
        min_v_pair={pq: min_over(report.v_pair[pq]) for pq in PAIR_ORDER},
        min_v_triple={t: min_over(report.v_triple[t]) for t in TRIPLE_ORDER},
        min_obr={t: min_over(report.obr[t]) for t in OBR_ORDER},
        min_sum_v_pair=min_over(report.sum_v_pair),
        min_sum_obr=min_over(report.sum_obr),
    )
