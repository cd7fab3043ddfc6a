"""Tripartite inseparability, entanglement, and steering criteria.

All quantities are bilinear forms on one 6x6 output quadrature covariance
or an (n, 6, 6) stack, with zero-mean fluctuations so V(A, B) is the matrix
entry itself.  Formulas read the transpose, whose V[a, b] is that entry of
every matrix (all are symmetric), so they give arrays over omega for a stack.
Three families are evaluated:

  * pairwise correlations V_ij with an optimized gain on the third mode
    (threshold 4; Teh-Reid sharpenings: sum < 8 entangled, sum < 4 genuine
    steering),
  * triple correlations V_ijk with fixed 1/sqrt(2) weights (threshold 4;
    below 2 genuine entanglement, below 1 genuine steering),
  * obr_ijk, the product of the inferred X and Y variances of mode i given
    the joint quadratures of modes j and k (below 1: modes j,k steer mode i;
    He-Reid sum below 1: genuine tripartite steering).

The inferred variances condition on the sum quadratures X_j + X_k and
Y_j + Y_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import QuadCovariance, quad_index_x, quad_index_y

__all__ = [
    "CorrelationReport",
    "GridSummary",
    "DegenerateVariance",
    "PAIR_ORDER",
    "TRIPLE_ORDER",
    "OBR_ORDER",
    "vlf_pair",
    "vlf_triple",
    "obr_inferred",
    "obr_product",
    "classify",
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


def _check_perm(i: int, j: int, k: int) -> None:
    if sorted((i, j, k)) != [1, 2, 3]:
        raise ValueError(f"(i, j, k) must be a permutation of (1, 2, 3), "
                         f"got ({i}, {j}, {k})")


def vlf_pair(S: QuadCovariance, i: int, j: int, k: int,
             gain: float | None = None) -> tuple[float, float]:
    """Pairwise correlation V_ij = V(X_i - X_j) + V(Y_i + Y_j + g_k Y_k).

    Separable states satisfy V_ij >= 4.  The default gain minimizes the Y
    term exactly, g_k = -[V(Y_k, Y_i) + V(Y_k, Y_j)] / V(Y_k); pass an
    explicit gain to evaluate off-optimum.  Returns (V_ij, gain used).
    """
    _check_perm(i, j, k)
    V = S.matrix.T
    xi, xj = quad_index_x(i), quad_index_x(j)
    yi, yj, yk = quad_index_y(i), quad_index_y(j), quad_index_y(k)
    vx = V[xi, xi] + V[xj, xj] - 2.0 * V[xi, xj]
    if gain is None:
        if np.any(V[yk, yk] < _DEGENERATE_TOL):
            raise DegenerateVariance(
                f"V(Y_{k}) = {np.min(V[yk, yk]):.3e}; cannot optimize gain")
        gain = -(V[yk, yi] + V[yk, yj]) / V[yk, yk]
    vy = (V[yi, yi] + V[yj, yj] + gain * gain * V[yk, yk]
          + 2.0 * V[yi, yj] + 2.0 * gain * V[yk, yi] + 2.0 * gain * V[yk, yj])
    return vx + vy, gain


def vlf_triple(S: QuadCovariance, i: int, j: int, k: int) -> float:
    """Triple correlation with fixed weights; separable states give >= 4.

    V_ijk = V(X_i - (X_j + X_k)/sqrt 2) + V(Y_i + (Y_j + Y_k)/sqrt 2);
    symmetric under j <-> k, no free gains.
    """
    _check_perm(i, j, k)
    V = S.matrix.T
    xi, xj, xk = quad_index_x(i), quad_index_x(j), quad_index_x(k)
    yi, yj, yk = quad_index_y(i), quad_index_y(j), quad_index_y(k)
    r = np.sqrt(2.0)
    vx = (V[xi, xi] + 0.5 * (V[xj, xj] + V[xk, xk] + 2.0 * V[xj, xk])
          - r * (V[xi, xj] + V[xi, xk]))
    vy = (V[yi, yi] + 0.5 * (V[yj, yj] + V[yk, yk] + 2.0 * V[yj, yk])
          + r * (V[yi, yj] + V[yi, yk]))
    return vx + vy


def obr_inferred(S: QuadCovariance, i: int, j: int,
                 k: int) -> tuple[float, float]:
    """Inferred variances of mode i given the joint sum of modes j and k.

    V_inf(X_i) = V(X_i) - V(X_i, X_j + X_k)^2 / V(X_j + X_k) and likewise
    for Y: the variance left after the optimal linear estimate from the sum
    quadrature.  Never exceeds the unconditional variance.
    """
    _check_perm(i, j, k)
    V = S.matrix.T
    out = []
    for index_of in (quad_index_x, quad_index_y):
        qi, qj, qk = index_of(i), index_of(j), index_of(k)
        den = V[qj, qj] + V[qk, qk] + 2.0 * V[qj, qk]
        if np.any(den < _DEGENERATE_TOL):
            raise DegenerateVariance(f"combined variance {np.min(den):.3e} "
                                     f"for modes ({j},{k}); cannot infer")
        cov = V[qi, qj] + V[qi, qk]
        out.append(V[qi, qi] - cov * cov / den)
    return out[0], out[1]


def obr_product(S: QuadCovariance, i: int, j: int, k: int) -> float:
    """obr_ijk = V_inf(X_i) V_inf(Y_i); below 1 means (j, k) steer mode i."""
    vx, vy = obr_inferred(S, i, j, k)
    return vx * vy


@dataclass(frozen=True)
class CorrelationReport:
    """Every criterion evaluated on one covariance or on a stack of them.

    v_pair and gains are keyed by the pair (i, j); v_triple and obr by the
    full index triple.  The flags restate the numeric thresholds and are
    pure functions of the values.  From a stack of covariances each value
    and flag is an array over omega, and len() counts the frequencies.
    """

    omega: float | np.ndarray
    v_pair: dict[tuple[int, int], float]
    gains: dict[tuple[int, int], float]
    v_triple: dict[tuple[int, int, int], float]
    obr: dict[tuple[int, int, int], float]
    sum_v_pair: float
    sum_obr: float
    inseparable_pairwise: bool       # >= 2 of the V_ij below 4
    inseparable_triple: bool         # >= 1 of the V_ijk below 4
    tr_entangled_pairwise: bool      # sum of V_ij below 8
    tr_genuine_steer_pairwise: bool  # sum of V_ij below 4
    genuine_entangled_triple: bool   # any V_ijk below 2
    genuine_steer_triple: bool       # any V_ijk below 1
    steer_1_by_23: bool
    steer_2_by_13: bool
    steer_3_by_12: bool
    genuine_tri_steer: bool          # sum of obr below 1

    def __len__(self) -> int:
        return int(np.size(self.omega))


def classify(omega: float | np.ndarray,
             v_pair: dict[tuple[int, int], float],
             gains: dict[tuple[int, int], float],
             v_triple: dict[tuple[int, int, int], float],
             obr: dict[tuple[int, int, int], float]) -> CorrelationReport:
    """Assemble the report and set every threshold flag.

    All inputs must have been computed at the same frequency or frequencies;
    the grid-level minima are the caller's business.
    """
    pair_vals = [v_pair[pq] for pq in PAIR_ORDER]
    triple = np.array([v_triple[t] for t in TRIPLE_ORDER])
    sum_pair = sum(pair_vals)
    sum_obr = sum(obr[t] for t in OBR_ORDER)
    return CorrelationReport(
        omega=omega,
        v_pair=dict(v_pair), gains=dict(gains),
        v_triple=dict(v_triple), obr=dict(obr),
        sum_v_pair=sum_pair, sum_obr=sum_obr,
        inseparable_pairwise=(np.array(pair_vals) < 4.0).sum(axis=0) >= 2,
        inseparable_triple=(triple < 4.0).any(axis=0),
        tr_entangled_pairwise=sum_pair < 8.0,
        tr_genuine_steer_pairwise=sum_pair < 4.0,
        genuine_entangled_triple=(triple < 2.0).any(axis=0),
        genuine_steer_triple=(triple < 1.0).any(axis=0),
        steer_1_by_23=obr[(1, 2, 3)] < 1.0,
        steer_2_by_13=obr[(2, 1, 3)] < 1.0,
        steer_3_by_12=obr[(3, 1, 2)] < 1.0,
        genuine_tri_steer=sum_obr < 1.0,
    )


def evaluate_grid(spectra) -> CorrelationReport:
    """Compute all correlations from a SpectrumResult's output spectra and
    classify them: arrays over a grid, scalars at one frequency."""
    S = spectra.s_quad
    v_pair: dict[tuple[int, int], float] = {}
    gains: dict[tuple[int, int], float] = {}
    for i, j in PAIR_ORDER:
        k = ({1, 2, 3} - {i, j}).pop()
        v_pair[(i, j)], gains[(i, j)] = vlf_pair(S, i, j, k)
    v_triple = {t: vlf_triple(S, *t) for t in TRIPLE_ORDER}
    obr = {t: obr_product(S, *t) for t in OBR_ORDER}
    return classify(S.omega, v_pair, gains, v_triple, obr)


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
