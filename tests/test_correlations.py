import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmoniccascade import (
    DegenerateVariance,
    QuadCovariance,
    SpectrumResult,
    evaluate_grid,
    spectrum_grid,
    summarize_grid,
)
from harmoniccascade.correlations import (OBR_ORDER, PAIR_ORDER,
                                          TRIPLE_ORDER, _inferred_values,
                                          _pair_table, _pair_values, _report,
                                          _trio_table, _trio_terms,
                                          _triple_values)

# Grid minima on the default 801-point grid, frozen from cross-checked runs
# (the spectra route agrees with an independent input-output computation to
# 1e-15, so these carry the full precision of the linear algebra).
R1_MIN = {
    "sum_obr": 2.7807079858409516,
    "obr": {(1, 2, 3): 0.95090870875361833,
            (2, 1, 3): 0.90854044959731195,
            (3, 1, 2): 0.90196660077743018},
    "v_pair": {(1, 2): 4.0000113035320028,
               (1, 3): 4.0000093667093397,
               (2, 3): 4.0000060945900628},
    "v_triple": {(1, 2, 3): 4.0000134157202734,
                 (2, 3, 1): 4.0000110402227689,
                 (3, 1, 2): 4.0000101144523663},
}
R2_MIN = {
    "sum_obr": 2.9971725735370756,
    "obr": {(1, 2, 3): 0.9850892084348718,
            (2, 1, 3): 1.0000000169099446,
            (3, 1, 2): 1.0000000000004012},
    "v_pair": {(1, 2): 3.3219897044575428,
               (1, 3): 4.0000046021824049,
               (2, 3): 4.0000001888772152},
    "v_triple": {(1, 2, 3): 3.4875866551270001,
                 (2, 3, 1): 3.5358729942968741,
                 (3, 1, 2): 3.9924767082510075},
}


# The benchmark's pump_sweep gate: both presets' GridSummary on the default
# grid, read here and never written.
PUMP105 = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
           / "pump105.json")


def _diag_cov(variances):
    return QuadCovariance(omega=0.0, matrix=np.diag(np.asarray(variances, float)))


# One permutation (i, j, k) through the kernels evaluate_grid runs over
# three: a one-permutation index table, any order of the modes.
def one_pair(S, i, j, k, gain=None):
    """V_ij and the gain on mode k (the given gain, if any)."""
    v, used = _pair_values(S.matrix.T, _pair_table([(i, j, k)]), gain)
    return v[0], used[0] if gain is None else gain


def one_triple(S, i, j, k):
    table = _trio_table([(i, j, k)])
    return _triple_values(*_trio_terms(S.matrix.T, table))[0]


def one_inferred(S, i, j, k):
    """Inferred X and Y variances of mode i given modes j and k."""
    table = _trio_table([(i, j, k)])
    vx, vy = _inferred_values(*_trio_terms(S.matrix.T, table), table)
    return vx[0], vy[0]


def one_obr(S, i, j, k):
    vx, vy = one_inferred(S, i, j, k)
    return vx * vy


def test_vacuum_values_exact():
    S = _diag_cov(np.ones(6))
    for i, j in PAIR_ORDER:
        k = ({1, 2, 3} - {i, j}).pop()
        v, g = one_pair(S, i, j, k)
        assert v == 4.0 and g == 0.0
    for i, j, k in TRIPLE_ORDER:
        assert one_triple(S, i, j, k) == 4.0
    for i, j, k in OBR_ORDER:
        assert one_obr(S, i, j, k) == 1.0
        assert one_inferred(S, i, j, k) == (1.0, 1.0)


def test_pair_symmetric_in_first_two_modes(spectra1):
    S = spectra1[400].s_quad
    v_ij, g_ij = one_pair(S, 1, 2, 3)
    v_ji, g_ji = one_pair(S, 2, 1, 3)
    assert v_ij == pytest.approx(v_ji, rel=1e-14)
    assert g_ij == pytest.approx(g_ji, rel=1e-14)


def test_triple_symmetric_in_last_two_modes(spectra1):
    S = spectra1[400].s_quad
    assert one_triple(S, 1, 2, 3) == pytest.approx(one_triple(S, 1, 3, 2),
                                                   rel=1e-14)


def test_optimal_gain_is_a_minimum(spectra2):
    S = spectra2[400].s_quad
    for i, j in PAIR_ORDER:
        k = ({1, 2, 3} - {i, j}).pop()
        v_opt, g = one_pair(S, i, j, k)
        for dg in (-1e-3, 1e-3):
            v_off, _ = one_pair(S, i, j, k, gain=g + dg)
            assert v_off >= v_opt - 1e-12


def test_gain_closed_form(spectra2):
    S = spectra2[400].s_quad
    V = S.matrix
    _, g = one_pair(S, 1, 2, 3)
    assert g == pytest.approx(-(V[5, 1] + V[5, 3]) / V[5, 5], rel=1e-12)


def test_inferred_variance_never_exceeds_unconditional(spectra2):
    for s in spectra2[::100]:
        V = s.s_quad.matrix
        for i, j, k in OBR_ORDER:
            vx, vy = one_inferred(s.s_quad, i, j, k)
            assert vx <= V[2 * (i - 1), 2 * (i - 1)] + 1e-14
            assert vy <= V[2 * i - 1, 2 * i - 1] + 1e-14
            assert vx >= -1e-14 and vy >= -1e-14


def test_degenerate_variance_raises():
    v = np.ones(6)
    v[5] = 0.0     # Y_3 collapses
    with pytest.raises(DegenerateVariance):
        one_pair(_diag_cov(v), 1, 2, 3)
    v = np.ones(6)
    v[2] = v[4] = 0.0    # X_2 + X_3 sum variance collapses
    with pytest.raises(DegenerateVariance):
        one_inferred(_diag_cov(v), 1, 2, 3)
    # one degenerate frequency in a stack is enough
    stack = QuadCovariance(omega=np.array([0.0, 1.0]),
                           matrix=np.stack([np.eye(6), np.diag(v)]))
    with pytest.raises(DegenerateVariance):
        one_inferred(stack, 1, 2, 3)


@given(st.lists(st.floats(min_value=1.0, max_value=10.0), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_uncorrelated_states_violate_nothing(vs):
    # diagonal covariance at or above vacuum: no entanglement, no steering
    diag = np.repeat(vs, 2)
    S = _diag_cov(diag)
    for i, j in PAIR_ORDER:
        k = ({1, 2, 3} - {i, j}).pop()
        v, g = one_pair(S, i, j, k)
        assert g == 0.0
        assert v >= 4.0 - 1e-12
    for i, j, k in TRIPLE_ORDER:
        assert one_triple(S, i, j, k) >= 4.0 - 1e-12
    for i, j, k in OBR_ORDER:
        assert one_obr(S, i, j, k) >= 1.0 - 1e-12


def test_report_collects_all_families(spectra1):
    r = evaluate_grid(spectra1[400])
    assert set(r.v_pair) == set(PAIR_ORDER)
    assert set(r.v_triple) == set(TRIPLE_ORDER)
    assert set(r.obr) == set(OBR_ORDER)
    assert r.sum_v_pair == pytest.approx(sum(r.v_pair.values()))
    assert r.sum_obr == pytest.approx(sum(r.obr.values()))
    assert r.omega == spectra1[400].omega


def test_report_keys_values_by_order():
    v_pair = np.array([3.0, 3.9, 4.5])      # in PAIR_ORDER
    v_triple = np.array([1.8, 4.2, 5.0])    # in TRIPLE_ORDER
    obr = np.array([0.7, 1.1, 0.9])         # in OBR_ORDER
    r = _report(0.0, v_pair, np.zeros(3), v_triple, obr)
    assert (r.v_pair[(1, 3)], r.v_triple[(2, 3, 1)], r.obr[(2, 1, 3)]) == (
        3.9, 4.2, 1.1)


@pytest.mark.parametrize("regime,frozen", [(1, R1_MIN), (2, R2_MIN)])
def test_grid_minima_frozen(regime, frozen, request):
    summary = request.getfixturevalue(f"summary{regime}")
    assert summary.min_sum_obr[0] == pytest.approx(frozen["sum_obr"], rel=1e-9)
    for key, want in frozen["obr"].items():
        assert summary.min_obr[key][0] == pytest.approx(want, rel=1e-9)
    for key, want in frozen["v_pair"].items():
        assert summary.min_v_pair[key][0] == pytest.approx(want, rel=1e-9)
    for key, want in frozen["v_triple"].items():
        assert summary.min_v_triple[key][0] == pytest.approx(want, rel=1e-9)


def test_regime1_minima_sit_at_center_frequencies(summary1):
    # the obr minima live within a gamma of omega = 0
    for key, (_, omega) in summary1.min_obr.items():
        assert abs(omega) <= 1.0


def test_sum_obr_minimum_at_zero_frequency(summary1):
    assert summary1.min_sum_obr[1] == 0.0


@pytest.mark.parametrize("regime", [1, 2])
@given(omegas=st.lists(st.floats(min_value=-30.0, max_value=30.0),
                       min_size=1, max_size=20).map(sorted))
@settings(max_examples=25, deadline=None)
def test_grid_equals_pointwise_evaluation(regime, omegas, regime1, regime2,
                                          dd1, dd2):
    # The batched grid must reproduce, bit for bit, what one frequency at a
    # time gives, and its minima must be the first minima over the items.
    p, dd = (regime1, dd1) if regime == 1 else (regime2, dd2)
    spectra = spectrum_grid(p, dd, omegas)
    for item in spectra:
        one = spectrum_grid(p, dd, [item.omega])[0]
        assert one.omega == item.omega
        np.testing.assert_array_equal(item.s_quad.matrix, one.s_quad.matrix)

    grid = evaluate_grid(spectra)
    reports = [evaluate_grid(item) for item in spectra]
    assert len(grid) == len(reports)
    for field in dataclasses.fields(grid):
        column = getattr(grid, field.name)
        for k, report in enumerate(reports):
            want = getattr(report, field.name)
            if isinstance(want, dict):
                assert {key: v[k] for key, v in column.items()} == want
            else:
                assert column[k] == want

    def first_min(get):
        values = [get(r) for r in reports]
        k = min(range(len(values)), key=values.__getitem__)
        return values[k], reports[k].omega

    summary = summarize_grid(grid)
    assert summary.min_v_pair == {
        pq: first_min(lambda r: r.v_pair[pq]) for pq in PAIR_ORDER}
    assert summary.min_v_triple == {
        t: first_min(lambda r: r.v_triple[t]) for t in TRIPLE_ORDER}
    assert summary.min_obr == {
        t: first_min(lambda r: r.obr[t]) for t in OBR_ORDER}
    assert summary.min_sum_v_pair == first_min(lambda r: r.sum_v_pair)
    assert summary.min_sum_obr == first_min(lambda r: r.sum_obr)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("regime", [1, 2])
def test_grid_report_equals_per_permutation_values(regime, request):
    # evaluate_grid takes every permutation of a family at once; each value
    # and gain must be that of a one-permutation table, bit for bit.
    S = request.getfixturevalue(f"spectra{regime}").s_quad
    report = request.getfixturevalue(f"reports{regime}")
    for i, j in PAIR_ORDER:
        v, g = one_pair(S, i, j, 6 - i - j)
        assert _same_bits(report.v_pair[i, j], v)
        assert _same_bits(report.gains[i, j], g)
    for t in TRIPLE_ORDER:
        assert _same_bits(report.v_triple[t], one_triple(S, *t))
    for t in OBR_ORDER:
        assert _same_bits(report.obr[t], one_obr(S, *t))


@pytest.mark.parametrize("entries,call", [
    # V(Y_1) collapses: the gain of the third pair, (2, 3), fails first
    ({(1, 1): 5e-13}, lambda S: one_pair(S, 2, 3, 1)),
    # X_1 + X_3 collapses: obr_213, the second permutation, fails first
    ({(0, 0): 3e-13, (4, 4): 4e-13}, lambda S: one_inferred(S, 2, 1, 3)),
    # Y_1 + Y_2 collapses, no single variance does: the Y half of obr_312
    ({(1, 3): -(2.0 - 5e-14)}, lambda S: one_inferred(S, 3, 1, 2)),
])
def test_grid_raise_names_the_per_permutation_failure(entries, call):
    # One degenerate frequency in a stack: evaluate_grid raises with the
    # mode and value a one-permutation table names.
    m = 2.0 * np.eye(6)
    for (a, b), value in entries.items():
        m[a, b] = m[b, a] = value
    omega = np.array([-1.0, 0.0, 1.0])
    stack = QuadCovariance(omega=omega, matrix=np.stack(
        [np.eye(6), m, 3.0 * np.eye(6)]))
    with pytest.raises(DegenerateVariance) as one:
        call(stack)
    with pytest.raises(DegenerateVariance) as grid:
        evaluate_grid(SpectrumResult(stack))
    assert str(grid.value) == str(one.value)


@pytest.mark.parametrize("regime", [1, 2])
def test_grid_minima_match_benchmark_reference(regime, request):
    # Every GridSummary entry, the sums and the frequencies included, as the
    # benchmark gates it: values at rel 1e-9, omega by |omega| (the spectra
    # are even in omega, so an edge minimum ties between -20 and +20).
    summary = request.getfixturevalue(f"summary{regime}")
    want = json.loads(PUMP105.read_text())[str(regime)]
    got = {f"{field}.{''.join(map(str, key))}": minimum
           for field in ("min_v_pair", "min_v_triple", "min_obr")
           for key, minimum in getattr(summary, field).items()}
    got["min_sum_v_pair"] = summary.min_sum_v_pair
    got["min_sum_obr"] = summary.min_sum_obr
    assert set(got) == set(want)
    for key, (value, omega) in want.items():
        assert got[key][0] == pytest.approx(value, rel=1e-9, abs=0.0), key
        assert abs(got[key][1]) == pytest.approx(abs(omega), rel=1e-9,
                                                 abs=1e-9), key
