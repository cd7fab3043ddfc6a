"""End-to-end acceptance checks.

Each test evaluates one headline claim at its stated tolerance and emits a
single [criterion N] PASS/FAIL line with the measured numbers before
asserting, so a full run always yields the complete scoreboard regardless
of which assertions hold.  The lines are written past the capture layer to
stay visible in ordinary pytest output.
"""

import sys
import time

import numpy as np
import pytest

from conftest import fd_jacobian, first_order_mean_shift
from oracles import relax_from_vacuum
from harmoniccascade import (
    REGIME_PRESETS,
    DriftDiffusion,
    QuadCovariance,
    SpectrumResult,
    build_drift,
    evaluate_grid,
    pulsing_threshold,
    require_steady_state,
    spectrum_grid,
    summarize_grid,
)
from harmoniccascade.correlations import (
    OBR_ORDER,
    PAIR_ORDER,
    TRIPLE_ORDER,
    _pair_table,
    _pair_values,
)
from harmoniccascade.model import SystemParams


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    return line


def _fresh_summary(regime: int):
    start = time.perf_counter()
    p = REGIME_PRESETS[regime]
    ss = require_steady_state(p)
    dd = DriftDiffusion.from_steady_state(p, ss.state)
    summary = summarize_grid(evaluate_grid(spectrum_grid(p, dd)))
    return summary, time.perf_counter() - start


# The targets of criteria 1 and 3 come from the source paper, whose full text
# is not in the repository; ROADMAP item 6 records what has been ruled out.
def test_criterion_1_regime1_obr_sum_minimum():
    summary, elapsed = _fresh_summary(1)
    value = summary.min_sum_obr[0]
    ok = abs(value - 1.44) <= 0.02 and elapsed < 60.0
    line = _report(1, ok, f"min sum OBR over the grid is {value:.17g} "
                          f"(target 1.44 +/- 0.02) in {elapsed:.1f} s")
    assert ok, line


def test_criterion_2_regime1_every_pair_steers(summary1):
    obr_ok = all(summary1.min_obr[t][0] < 1.0 - 1e-6 for t in OBR_ORDER)
    pair_ok = all(summary1.min_v_pair[pr][0] > 4.0 + 1e-6
                  for pr in PAIR_ORDER)
    obr_vals = ", ".join(f"OBR_{i}{j}{k} {summary1.min_obr[(i, j, k)][0]:.6f}"
                         for i, j, k in OBR_ORDER)
    pair_vals = ", ".join(f"V_{i}{j} {summary1.min_v_pair[(i, j)][0]:.8f}"
                          for i, j in PAIR_ORDER)
    ok = obr_ok and pair_ok
    line = _report(2, ok, f"minima {obr_vals} all below 1; {pair_vals} all "
                          f"above 4")
    assert ok, line


# Target pattern from the source paper; see the note above criterion 1.
def test_criterion_3_regime2_vlf_pattern():
    summary, elapsed = _fresh_summary(2)
    pairs_below = [pr for pr in PAIR_ORDER if summary.min_v_pair[pr][0] < 4.0]
    triples_below_4 = [t for t in TRIPLE_ORDER
                       if summary.min_v_triple[t][0] < 4.0]
    triples_below_2 = [t for t in TRIPLE_ORDER
                       if summary.min_v_triple[t][0] < 2.0]
    ok = (pairs_below == [(1, 2)] and len(triples_below_4) == 2
          and not triples_below_2 and elapsed < 60.0)
    triple_vals = ", ".join(
        f"V_{i}{j}{k} {summary.min_v_triple[(i, j, k)][0]:.10f}"
        for i, j, k in TRIPLE_ORDER)
    line = _report(
        3, ok,
        f"pairs below 4: {pairs_below}; triples below 4: "
        f"{len(triples_below_4)} of 3 (expected exactly 2; minima "
        f"{triple_vals}); none below 2: {not triples_below_2}; "
        f"{elapsed:.1f} s")
    assert ok, line


def test_criterion_4_regime2_obr_pattern(summary2):
    v123 = summary2.min_obr[(1, 2, 3)][0]
    v213 = summary2.min_obr[(2, 1, 3)][0]
    v312 = summary2.min_obr[(3, 1, 2)][0]
    ok = v123 < 1.0 and v213 >= 1.0 and v312 >= 1.0
    line = _report(4, ok, f"min OBR_123 {v123:.6f} < 1; min OBR_213 "
                          f"{v213:.10f} >= 1; min OBR_312 {v312:.13f} >= 1")
    assert ok, line


def test_criterion_5_vacuum_calibration():
    vac = QuadCovariance(omega=0.0, matrix=np.eye(6))
    dev_identity = np.abs(vac.matrix - np.eye(6)).max()
    report = evaluate_grid(SpectrumResult(vac))
    dev_pair = max(abs(v - 4.0) for v in report.v_pair.values())
    dev_triple = max(abs(v - 4.0) for v in report.v_triple.values())
    dev_obr = max(abs(v - 1.0) for v in report.obr.values())
    worst = max(dev_identity, dev_pair, dev_triple, dev_obr)
    ok = worst <= 1e-12
    line = _report(5, ok, f"identity covariance, V_ij = 4, V_ijk = 4, "
                          f"OBR = 1 all within {worst:.3g} (tolerance 1e-12)")
    assert ok, line


def test_criterion_6_oracle_equivalence(flagship_ensemble, ss1, dd1, lyap1,
                                        regime1):
    moments, elapsed = flagship_ensemble

    drift_dev = 0.0
    ode_dev = 0.0
    for regime in (1, 2):
        p = REGIME_PRESETS[regime]
        ss = require_steady_state(p)
        A = build_drift(p, ss.state)
        jac = fd_jacobian(p, ss.state, h=1e-6)
        drift_dev = max(drift_dev,
                        float(np.abs(A + jac).max() / np.abs(A).max()))
        ode = relax_from_vacuum(p)
        ode_dev = max(ode_dev,
                      float(np.abs(ss.state.doubled()
                                   - ode.state.doubled()).max()))
    drift_ok = drift_dev < 1e-6
    ode_ok = ode_dev < 1e-9

    # Ensemble means estimate the quantum mean field, which sits a fixed
    # normal-ordering shift from the semiclassical fixed point (README,
    # "Numerical notes"); at 10^4 trajectories that shift is resolved, so
    # the means are scored against the shifted point.
    ssd = ss1.state.doubled()
    shift = first_order_mean_shift(regime1, dd1.a_matrix, lyap1)
    zm_re = np.abs((moments.means[-1] - (ssd + shift)).real) \
        / moments.means_stderr[-1].real
    means_ok = zm_re.max() < 3.0
    z_bare = np.abs((moments.means[-1] - ssd).real) \
        / moments.means_stderr[-1].real
    dc = moments.fluct_cov[-1] - lyap1
    zf = np.maximum(np.abs(dc.real) / moments.fluct_cov_stderr[-1].real,
                    np.abs(dc.imag) / moments.fluct_cov_stderr[-1].imag)
    fluct_ok = zf.max() < 3.0
    time_ok = elapsed < 600.0

    ok = drift_ok and ode_ok and means_ok and fluct_ok and time_ok
    line = _report(
        6, ok,
        f"drift vs FD Jacobian rel {drift_dev:.2e} (<1e-6: {drift_ok}); "
        f"ODE vs algebraic {ode_dev:.2e} (<1e-9: {ode_ok}); ensemble means "
        f"vs semiclassical point plus normal-ordering shift max "
        f"{zm_re.max():.2f} SE (<3: {means_ok}; bare semiclassical point "
        f"max {z_bare.max():.1f} SE, for information); fluctuation "
        f"covariance vs Lyapunov max {zf.max():.2f} SE (<3: {fluct_ok}); "
        f"n_traj=10^4 in {elapsed:.0f} s (<=600: {time_ok})")
    assert ok, line


def test_criterion_7_structural_properties(spectra1, spectra2):
    sym_dev = 0.0
    xy_dev = 0.0
    min_product = np.inf
    gain_ok = True
    for spectra in (spectra1, spectra2):
        n = len(spectra)
        mats = np.array([s.s_quad.matrix for s in spectra])
        sym_dev = max(sym_dev, float(np.abs(mats - mats[::-1]).max()))
        xy_dev = max(xy_dev, float(np.abs(mats[:, 0::2, 1::2]).max()))
        min_product = min(min_product,
                          min(float(s.s_quad.uncertainty_products().min())
                              for s in spectra))
        for s in spectra[:: n // 100]:
            for i, j in PAIR_ORDER:
                k = ({1, 2, 3} - {i, j}).pop()
                table = _pair_table([(i, j, k)])
                value, gain = _pair_values(s.s_quad.matrix.T, table)
                for bump in (-1e-3, 1e-3):
                    bumped, _ = _pair_values(s.s_quad.matrix.T, table,
                                             gain=gain + bump)
                    gain_ok = gain_ok and bumped[0] >= value[0]
    sym_ok = sym_dev < 1e-10
    xy_ok = xy_dev < 1e-10
    heis_ok = min_product >= 1.0 - 1e-9
    ok = sym_ok and xy_ok and heis_ok and gain_ok
    line = _report(
        7, ok,
        f"omega symmetry dev {sym_dev:.2e} (<1e-10: {sym_ok}); X-Y cross "
        f"blocks {xy_dev:.2e} (<1e-10: {xy_ok}); min V(X)V(Y) "
        f"{min_product:.12f} (>=1-1e-9: {heis_ok}); optimal gain is a local "
        f"minimum under +/-1e-3: {gain_ok}")
    assert ok, line


def test_criterion_8_threshold_consistency():
    details = []
    ok = True
    scan_grids = {1: np.arange(85.0, 290.0, 50.0),
                  2: np.arange(700.0, 901.0, 50.0)}
    for regime, grid in scan_grids.items():
        p = REGIME_PRESETS[regime]
        ss = require_steady_state(p)
        eigs_positive = bool(
            np.all(np.linalg.eigvals(build_drift(p, ss.state)).real > 0))
        crossing = pulsing_threshold(p, (100.0, 3000.0)).eps_critical
        onset = None
        for eps in grid:
            q = SystemParams(p.kappa1, p.kappa2, float(eps), p.gamma1,
                            p.gamma2, p.gamma3)
            if not relax_from_vacuum(q, t_max=5000.0).converged:
                onset = float(eps)
                break
        step = float(grid[1] - grid[0])
        agrees = onset is not None and 0.0 <= onset - crossing <= step
        ok = ok and eigs_positive and agrees
        details.append(
            f"regime {regime}: eigenvalues of A at eps=105 all in the right "
            f"half plane ({eigs_positive}); integration onset {onset} vs "
            f"crossing {crossing:.1f} within step {step:.0f} ({agrees})")
    line = _report(8, ok, "; ".join(details))
    assert ok, line
