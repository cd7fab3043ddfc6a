import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmoniccascade import (
    REGIME_PRESETS,
    NonPositiveRate,
    NoThresholdInRange,
    NotStationary,
    SystemParams,
    algebraic_steady_state,
    pulsing_threshold,
    require_steady_state,
    semiclassical,
)
from harmoniccascade.cli import main
from harmoniccascade.model import doubled_drift
from oracles import brentq_steady_state, relax_from_vacuum

# Long-time integration and root-finding agree on these to ~1e-13; frozen
# from runs cross-checked between both routes.
STEADY_ALPHA = {
    1: (92.505144836731148, -27.014400518634737, -14.595556707624254),
    2: (88.075528890839763, -19.215860889278698, -3.692493097161107),
}
EPS_CRITICAL = {1: 230.41235506534576, 2: 896.0026979446411}


def test_derivative_pump_only_from_vacuum():
    f = doubled_drift(np.zeros(3), np.zeros(3), REGIME_PRESETS[1])
    np.testing.assert_allclose(f, [105.0, 0.0, 0.0, 105.0, 0.0, 0.0])


def test_derivative_zero_at_zero_without_pump():
    p = replace(REGIME_PRESETS[1], epsilon=0.0)
    assert np.all(np.array(doubled_drift(np.zeros(3), np.zeros(3), p)) == 0)


def test_derivative_valid_off_manifold():
    # plus variables evolve under their own equations, not the conjugate
    p = REGIME_PRESETS[1]
    f = doubled_drift([1.0, 2.0, 3.0], [0.5, -1.0, 2j], p)
    assert f[0] == pytest.approx(105.0 - 1.0 + p.kappa1 * 0.5 * 2.0)
    assert f[3] == pytest.approx(105.0 - 0.5 + p.kappa1 * 1.0 * (-1.0))


@pytest.mark.parametrize("regime", [1, 2])
def test_steady_state_matches_frozen_values(regime, request):
    ss = request.getfixturevalue(f"ss{regime}")
    assert ss.residual < 1e-12
    np.testing.assert_allclose(ss.state.alpha.real, STEADY_ALPHA[regime],
                               rtol=1e-9)
    # a real pump gives an exactly real stationary point
    assert np.all(ss.state.alpha.imag == 0)


@pytest.mark.parametrize("regime", [1, 2])
def test_steady_state_sign_structure(regime, request):
    a = request.getfixturevalue(f"ss{regime}").state.alpha.real
    assert a[0] > 0 and a[1] < 0 and a[2] < 0


@pytest.mark.parametrize("regime", [1, 2])
def test_ode_and_algebraic_routes_agree(regime, request):
    ss = request.getfixturevalue(f"ss{regime}")
    ode = relax_from_vacuum(REGIME_PRESETS[regime])
    assert ode.converged
    assert np.abs(ss.state.alpha - ode.state.alpha).max() < 1e-9


@pytest.mark.parametrize("regime", [1, 2])
def test_steady_state_closes_the_harmonic_chain(regime, request):
    # stationarity of mode 3 pins alpha3 = -(kappa2 / 2 gamma3) alpha2^2
    p = REGIME_PRESETS[regime]
    a = request.getfixturevalue(f"ss{regime}").state.alpha
    predicted = -0.5 * p.kappa2 / p.gamma3 * a[1] ** 2
    assert abs(a[2] - predicted) < 1e-10


def test_steady_state_manifold_exact_bits():
    for ss in (require_steady_state(REGIME_PRESETS[1]),
               relax_from_vacuum(REGIME_PRESETS[1])):
        a, ap = ss.state.alpha, ss.state.alpha_plus
        assert np.array_equal(ap, np.conj(a))


def test_zero_pump_keeps_exact_vacuum():
    p = replace(REGIME_PRESETS[1], epsilon=0.0)
    ode = relax_from_vacuum(p)
    assert ode.converged
    for ss in (require_steady_state(p), ode):
        assert ss.residual == 0.0
        assert np.all(ss.state.alpha == 0)


def test_steady_state_continuity_in_pump():
    # no branch jumps below threshold
    p = REGIME_PRESETS[1]
    prev_a = None
    for eps in np.linspace(20.0, 200.0, 10):
        a = algebraic_steady_state(replace(p, epsilon=float(eps))).alpha.real
        if prev_a is not None:
            assert np.abs(a - prev_a).max() < 25.0
        prev_a = a


# Up to 0.97 of each preset's threshold; at 0.99 in regime 2 the
# integration is still short of the 1e-12 residual at t = 5000.
@given(regime=st.sampled_from([1, 2]),
       frac=st.floats(min_value=0.0, max_value=1.0),
       phase=st.one_of(st.just(0.0), st.floats(-np.pi, np.pi)))
# Kept because a single multidimensional root-finder step left a 3.7e-12
# residual here, above the 1e-12 bound: a complex pump near the regime-2
# threshold, where the drift terms are largest.
@example(regime=2, frac=0.9, phase=-1.0)
@settings(max_examples=20, deadline=None)
def test_routes_agree_across_pump_strengths(regime, frac, phase):
    # The root is the basin the integration from the vacuum selects; a
    # complex pump rotates the phases but leaves the threshold in place.
    eps = 1.0 + frac * (0.97 * EPS_CRITICAL[regime] - 1.0)
    p = replace(REGIME_PRESETS[regime], epsilon=eps * np.exp(1j * phase))
    ss = require_steady_state(p)
    assert ss.residual <= 1e-12
    ode = relax_from_vacuum(p, t_max=3000.0)
    assert ode.converged
    assert np.abs(ss.state.alpha - ode.state.alpha).max() < 1e-9


# Rates over one to two decades each around the presets.  The box stops where
# thresholds pass about 1e3: beyond that the drift terms reach 1e3-1e4 and a
# few ulps of roundoff exceed the oracle's absolute 1e-12 residual bound.
@given(kappa1=st.floats(5e-3, 5e-2), kappa2=st.floats(5e-3, 2e-1),
       gamma2=st.floats(0.1, 1.0), gamma3=st.floats(0.05, 0.5),
       frac=st.floats(0.0, 0.9), phase=st.floats(-np.pi, np.pi))
@settings(max_examples=20, deadline=None)
def test_routes_agree_beyond_the_presets(kappa1, kappa2, gamma2, gamma3,
                                         frac, phase):
    # The closed form's point is the basin the integration from the vacuum
    # selects for any rates, not only the presets.  Thresholds in this box
    # lie within a factor 10 of sqrt(gamma2) / kappa1, the pump at which the
    # harmonics deplete the fundamental.
    p = SystemParams(kappa1, kappa2, 0.0, 1.0, gamma2, gamma3)
    scale = np.sqrt(gamma2) / kappa1
    eps_c = pulsing_threshold(p, (1e-2 * scale, 1e2 * scale)).eps_critical
    p = replace(p, epsilon=frac * eps_c * np.exp(1j * phase))
    ss = require_steady_state(p)
    ode = relax_from_vacuum(p, t_max=3000.0)
    assert ode.converged
    assert np.abs(ss.state.alpha - ode.state.alpha).max() < 1e-9


def test_residual_bound_scales_with_the_largest_drift_term(monkeypatch):
    # Threshold 7436.9: at this complex pump, 0.92 of it, the exact point's
    # roundoff leaves 3.2 ulps of the pump, the largest term; an absolute
    # 1e-12 refused it.
    eps = complex(-5481.3467855740355, -4094.688267721263)
    p = SystemParams(1e-3, 1e-3, eps, 1.0, 2.0, 0.5)
    ss = require_steady_state(p)
    assert 1e-12 < ss.residual <= 16 * math.ulp(abs(p.epsilon))
    bound = semiclassical._residual_bound(ss.state, p)
    assert bound == 16 * math.ulp(abs(p.epsilon))
    # Where every term is below 1024 the floor of 1e-12 holds.
    preset = REGIME_PRESETS[1]
    state = algebraic_steady_state(preset)
    assert semiclassical._residual_bound(state, preset) == 1e-12
    # A residual at the bound passes, one just above it is refused.
    monkeypatch.setattr(semiclassical, "_residual_of", lambda s, q: bound)
    assert require_steady_state(p).residual == bound
    above = math.nextafter(bound, math.inf)
    monkeypatch.setattr(semiclassical, "_residual_of", lambda s, q: above)
    with pytest.raises(NotStationary, match=f"above {bound:.3e}, the larger "
                       "of 1e-12 and 16 ulps of the largest drift term"):
        require_steady_state(p)


@pytest.mark.parametrize("eps", [1e-300, 1e-160, 1e60, 1e100, 1e300,
                                 -105.0, 105j])
def test_extreme_pumps_give_a_state_or_not_stationary(eps, tmp_path):
    # Every finite pump has its one stationary point with finite amplitudes;
    # past the threshold it is reported as not stationary, never as a crash.
    for regime in (1, 2):
        p = replace(REGIME_PRESETS[regime], epsilon=eps)
        state = algebraic_steady_state(p)
        assert np.all(np.isfinite(state.alpha))
        try:
            assert require_steady_state(p).residual <= 1e-12
        except NotStationary:
            assert abs(eps) > EPS_CRITICAL[regime]
        if np.isrealobj(eps):
            code = main(["steady", "--regime", str(regime), "--epsilon",
                         repr(eps), "--out", str(tmp_path)])
            assert code in (0, 3)


def test_pulsing_raises_not_stationary_above_threshold():
    p = replace(REGIME_PRESETS[1], epsilon=255.0)
    # the Hopf frequency is that of the critical eigenvalue pair
    with pytest.raises(NotStationary,
                       match=r"self-pulsing.*Hopf frequency 1\.336"):
        require_steady_state(p)


@pytest.mark.parametrize("regime", [1, 2])
def test_threshold_location_frozen(regime):
    lo = 100.0 if regime == 1 else 400.0
    hi = 400.0 if regime == 1 else 2000.0
    thr = pulsing_threshold(REGIME_PRESETS[regime], (lo, hi))
    assert thr.eps_critical == pytest.approx(EPS_CRITICAL[regime], abs=1e-3)
    assert thr.bracket[0] < thr.eps_critical < thr.bracket[1]
    assert thr.eps_critical > 105.0


def test_threshold_range_guards():
    p = REGIME_PRESETS[1]
    with pytest.raises(NoThresholdInRange):
        pulsing_threshold(p, (300.0, 400.0))     # already unstable at lo
    with pytest.raises(NoThresholdInRange):
        pulsing_threshold(p, (50.0, 120.0))      # stable throughout
    with pytest.raises(ValueError):
        pulsing_threshold(p, (200.0, 100.0))


def test_threshold_diverges_in_linear_cavity_limit():
    # kappa1 -> 0: no feedback chain, unconditionally stable
    p = replace(REGIME_PRESETS[1], kappa1=1e-12)
    with pytest.raises(NoThresholdInRange):
        pulsing_threshold(p, (100.0, 5000.0))


# Pumps log-uniform over 1e-300..1e200 on both presets.  The bisection lands
# 1 ulp from the root and Brent's method within about 4, so the amplitudes
# differ by a few eps of their magnitude at most.
@given(regime=st.sampled_from([1, 2]),
       pump=st.floats(-300.0, 200.0).map(lambda x: 10.0 ** x),
       phase=st.one_of(st.just(0.0), st.floats(-np.pi, np.pi)))
@example(regime=1, pump=0.0, phase=0.0)
@example(regime=2, pump=5e-324, phase=0.0)
@example(regime=1, pump=1e-300, phase=1.0)
@example(regime=2, pump=105.0, phase=0.0)
@example(regime=2, pump=57.176, phase=-2.0)
@example(regime=1, pump=230.4, phase=0.0)
@example(regime=2, pump=896.0, phase=0.5)
@settings(max_examples=300, deadline=None)
def test_steady_state_matches_the_brentq_oracle(regime, pump, phase):
    p = replace(REGIME_PRESETS[regime], epsilon=pump * np.exp(1j * phase))
    reference = brentq_steady_state(p)
    error = np.abs(algebraic_steady_state(p).alpha - reference)
    assert np.all(error <= 32 * np.finfo(float).eps * np.abs(reference))


# Steps and a saturating function, flat in float64 away from their sign
# change, bracketed from both sides.
@given(c=st.floats(-10.0, 10.0), lo=st.floats(0.1, 20.0),
       hi=st.floats(0.1, 20.0), rtol=st.sampled_from([0.0, 1e-7]))
@settings(max_examples=300, deadline=None)
def test_bisect_stops_at_adjacent_floats_or_the_relative_width(c, lo, hi,
                                                               rtol):
    def steps(x):
        return -1.0 if x < c else 0.5 if x < c + 1.0 else 1.0

    for f in (steps, lambda x: math.tanh(x - c)):
        a, b = semiclassical._bisect(lambda x: f(x) < 0, c - lo, c + hi, rtol)
        assert f(a) < 0 <= f(b)
        if rtol == 0:
            assert b == math.nextafter(a, math.inf)
        else:
            # Stopped at the first bracket within the width, not later.
            assert rtol / 4 < (b - a) / max(1.0, abs(b)) <= rtol


def test_bisect_crosses_a_bracket_1e300_wide():
    # About 2,000 halvings, where Brent's method stopped after 100.
    lo, hi = semiclassical._bisect(lambda x: x < 1e-305, -1e300, 3e299, 0.0)
    assert (lo, hi) == (math.nextafter(1e-305, -math.inf), 1e-305)


@pytest.mark.parametrize("kappa1, kappa2", [(1e-200, 1e-200),
                                            (1e-160, 1e-160),
                                            (1e200, 1e-200)])
def test_couplings_out_of_float_range_are_refused(kappa1, kappa2, tmp_path):
    # kappa1 kappa2 underflows, q overflows, or beta does: the closed form
    # would divide by zero or land on a wrong point, so the rates are
    # refused as the command line's configuration errors are.
    p = replace(REGIME_PRESETS[1], kappa1=kappa1, kappa2=kappa2)
    with pytest.raises(NonPositiveRate, match="out of float range"):
        algebraic_steady_state(p)
    config = tmp_path / "rates.toml"
    config.write_text(f"kappa1 = {kappa1!r}\nkappa2 = {kappa2!r}\n")
    for mode in ("steady", "threshold"):
        assert main([mode, "--config", str(config), "--out",
                     str(tmp_path)]) == 2


def test_weak_couplings_inside_the_range_leave_the_pumped_mode_alone():
    # kappa1 kappa2 = 1e-300 is still a normal float: the harmonics barely
    # fill and alpha1 is the empty cavity's epsilon / gamma1.
    p = replace(REGIME_PRESETS[1], kappa1=1e-150, kappa2=1e-150)
    ss = require_steady_state(p)
    assert ss.residual <= 1e-12 and ss.state.alpha[0] == p.epsilon


def test_package_import_leaves_out_scipy():
    # numpy is the only runtime dependency: scipy's integrator, Lyapunov
    # solver and brentq are test oracles, so the package and its command
    # line must not load any scipy module.
    code = ("import sys, harmoniccascade.cli; "
            "print([m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')])")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
