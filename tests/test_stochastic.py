"""Ensemble integrator tests.

The deterministic parts (single steps, seeding, divergence bookkeeping) are
checked exactly.  The statistical parts compare frozen-seed ensembles against
the independent oracles from the other modules: the semiclassical fixed point
plus its noise-induced mean shift, and the Lyapunov stationary covariance.
Standardized deviations (z-scores) are bounded at the 3-sigma level; every
seed below is fixed, so the suite is deterministic despite the statistics.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_order_mean_shift, interleaved_drift
from harmoniccascade import FieldState, SystemParams, run_ensemble, stochastic
from harmoniccascade.model import doubled_drift, noise_variances
from harmoniccascade.stochastic import ExcessiveDivergence, make_rng


def _z(dev: np.ndarray, se: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Standard errors pack SE(real) + 1j SE(imag); score each part alone.
    assert np.all(se.real > 0) and np.all(se.imag > 0)
    return np.abs(dev.real) / se.real, np.abs(dev.imag) / se.imag


def _euler_maruyama(a, b, p, dt, w):
    """One step written out term by term, interleaved as (a1, b1, a2, ...).

    a and b are the plain and plus amplitudes, w the four standard normals
    on (a1, b1, a2, b2); gamma1 is 1.
    """
    sdt = np.sqrt(dt)
    return np.array([
        a[0] + dt * (p.epsilon - a[0] + p.kappa1 * b[0] * a[1])
        + np.sqrt(complex(p.kappa1) * a[1]) * sdt * w[0],
        b[0] + dt * (p.epsilon - b[0] + p.kappa1 * a[0] * b[1])
        + np.sqrt(complex(p.kappa1) * b[1]) * sdt * w[1],
        a[1] + dt * (-p.gamma2 * a[1] + p.kappa2 * b[1] * a[2]
                     - 0.5 * p.kappa1 * a[0] ** 2)
        + np.sqrt(complex(p.kappa2) * a[2]) * sdt * w[2],
        b[1] + dt * (-p.gamma2 * b[1] + p.kappa2 * a[1] * b[2]
                     - 0.5 * p.kappa1 * b[0] ** 2)
        + np.sqrt(complex(p.kappa2) * b[2]) * sdt * w[3],
        a[2] + dt * (-p.gamma3 * a[2] - 0.5 * p.kappa2 * a[1] ** 2),
        b[2] + dt * (-p.gamma3 * b[2] - 0.5 * p.kappa2 * b[1] ** 2),
    ])


def _one_step(p, s, dt, seed):
    # One trajectory started at s and sampled after its first step.
    m = run_ensemble(p, dt=dt, t_end=dt, n_traj=1, seed=seed, initial=s)
    return m.means[-1]


def test_zero_noise_step_is_deterministic_euler(regime1):
    # Noise enters with amplitudes set by the harmonics; with both empty the
    # ensemble step is the Euler step of the drift.
    s = FieldState(alpha=[0.3 + 0.1j, 0, 0], alpha_plus=[0.25 - 0.05j, 0, 0])
    dt = 1e-3
    out = _one_step(regime1, s, dt, seed=3)
    expect = s.doubled() + dt * interleaved_drift(s.doubled(), regime1)
    np.testing.assert_allclose(out, expect, rtol=1e-13, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    amps=st.lists(
        st.floats(-5, 5, allow_nan=False, allow_infinity=False),
        min_size=12, max_size=12,
    ),
    seed=st.integers(0, 2**128 - 1),
    dt=st.floats(1e-5, 1e-2),
)
def test_step_formula_term_by_term(amps, seed, dt):
    # Independent route: write out each update explicitly and compare.  The
    # first step consumes the first four normals of the seed's stream.
    p = SystemParams(5e-3, 2e-2, 105.0, 1.0, 0.5, 0.5)
    a = [complex(amps[2 * i], amps[2 * i + 1]) for i in range(3)]
    b = [complex(amps[6 + 2 * i], amps[7 + 2 * i]) for i in range(3)]
    out = _one_step(p, FieldState(alpha=a, alpha_plus=b), dt, seed)
    w = make_rng(seed).standard_normal((4, 1))[:, 0]
    np.testing.assert_allclose(out, _euler_maruyama(a, b, p, dt, w),
                               rtol=1e-12, atol=1e-12)


def test_step_escape_raises(regime1):
    s = FieldState.classical([9e5, 9e5, 9e5])
    with pytest.raises(ExcessiveDivergence, match="all trajectories"):
        run_ensemble(regime1, dt=1.0, t_end=1.0, n_traj=1, initial=s)


def test_step_escape_in_plus_half_alone_raises(regime1):
    # alpha stays small while alpha_plus is past the cap after one step, so
    # a divergence check that skipped the plus half would let it through.
    s = FieldState(alpha=[0.1, 0, 0], alpha_plus=[2e6, 0, 0])
    with pytest.raises(ExcessiveDivergence, match="all trajectories diverged"):
        run_ensemble(regime1, dt=1e-3, t_end=1e-3, n_traj=1, initial=s)


def test_stacked_step_matches_row_by_row_equations_bit_for_bit():
    # The ensemble steps both phase-space halves as one stacked array.  The
    # same equations applied row by row on (3, n) arrays, with the same
    # Philox blocks, must give the same bits: a swapped row, a misplaced
    # noise or an unconjugated pump would move every sampled moment.
    p = SystemParams(5e-3, 2e-2, 80.0 + 30.0j, 1.0, 0.5, 0.5)
    s0 = FieldState(alpha=[0.3 + 0.1j, 2.0 - 1.0j, 0.5j],
                    alpha_plus=[0.25 - 0.05j, -1.0 + 0.3j, 0.2])
    dt, n_steps, n, seed = 1e-3, 4, 5, 8
    m = run_ensemble(p, dt=dt, t_end=n_steps * dt, n_traj=n, seed=seed,
                     initial=s0)
    rng = make_rng(seed)
    a = np.tile(s0.alpha[:, None], (1, n))
    b = np.tile(s0.alpha_plus[:, None], (1, n))
    samples = []
    for step in range(1, n_steps + 1):
        (va1, va2), (vb1, vb2) = noise_variances(a, p), noise_variances(b, p)
        kicks = [np.sqrt(v) * (np.sqrt(dt) * w) for v, w in
                 zip((va1, vb1, va2, vb2), rng.standard_normal((4, n)))]
        for row, drift in zip((*a, *b), doubled_drift(a, b, p)):
            row += drift * dt
        for row, kick in zip((a[0], b[0], a[1], b[1]), kicks):
            row += kick
        if step in (2, 3, 4):  # half, three quarters and the end of the run
            v = np.empty((6, n), dtype=complex)
            v[0::2], v[1::2] = a, b
            samples.append(v)
    v = np.array(samples)
    np.testing.assert_array_equal(m.t_grid, [2 * dt, 3 * dt, 4 * dt])
    np.testing.assert_array_equal(m.means, v.mean(axis=-1))
    np.testing.assert_array_equal(
        m.second_doubled, (v[:, :, None] * v[:, None, :]).mean(axis=-1))
    assert m.divergent == 0


def test_single_trajectory_reproduces_ensemble_stream(regime1):
    # The documented contract: one (4, n_traj) block of standard normals per
    # step.  The written-out step, fed the same stream block by block, must
    # land on the state the ensemble reports.  The two evaluate the drift in
    # different orders, so they agree to roundoff; a block taken out of turn
    # would move the state by the noise itself.
    dt, n_steps = 1e-3, 10
    m = run_ensemble(regime1, dt=dt, t_end=n_steps * dt, n_traj=1, seed=42)
    rng = make_rng(42)
    v = np.zeros(6, dtype=complex)
    for _ in range(n_steps):
        v = _euler_maruyama(v[0::2], v[1::2], regime1, dt,
                            rng.standard_normal((4, 1))[:, 0])
    np.testing.assert_allclose(m.means[-1], v, rtol=1e-13, atol=0)
    np.testing.assert_array_equal(m.second_doubled[-1],
                                  np.outer(m.means[-1], m.means[-1]))
    assert m.divergent == 0
    assert np.all(m.means_stderr == 0)  # single trajectory has no spread


def test_no_pump_ensemble_is_exactly_zero():
    p = SystemParams(5e-3, 2e-2, 0.0, 1.0, 0.5, 0.5)
    m = run_ensemble(p, dt=1e-3, t_end=1.0, n_traj=32, seed=0)
    assert m.divergent == 0
    for arr in (m.means, m.means_stderr, m.second_doubled,
                m.second_doubled_stderr, m.fluct_cov, m.fluct_cov_stderr):
        assert np.all(arr == 0)


def test_fixed_seed_bit_identical(regime1):
    kw = dict(dt=1e-3, t_end=0.5, n_traj=64)
    one = run_ensemble(regime1, seed=9, **kw)
    two = run_ensemble(regime1, seed=9, **kw)
    np.testing.assert_array_equal(one.means, two.means)
    np.testing.assert_array_equal(one.second_doubled, two.second_doubled)
    np.testing.assert_array_equal(one.fluct_cov, two.fluct_cov)
    np.testing.assert_array_equal(one.means_stderr, two.means_stderr)
    other = run_ensemble(regime1, seed=10, **kw)
    assert not np.array_equal(one.means, other.means)


def test_run_ensemble_input_validation(regime1):
    with pytest.raises(ValueError):
        run_ensemble(regime1, dt=0.0)
    with pytest.raises(ValueError):
        run_ensemble(regime1, t_end=-1.0)
    with pytest.raises(ValueError):
        run_ensemble(regime1, n_traj=0)
    # Settings that give no step at all, or no finite step count.
    for dt, t_end in ((1.0, 0.4), (1.0, 0.5), (np.inf, 1.0), (np.nan, 1.0),
                      (1e-3, np.inf), (1e-3, np.nan), (5e-324, 1.0)):
        with pytest.raises(ValueError):
            run_ensemble(regime1, dt=dt, t_end=t_end, n_traj=2)
    assert run_ensemble(regime1, dt=1.0, t_end=0.6, n_traj=2).t_grid[-1] == 1.0


def test_divergence_budget_enforced():
    # Couplings forty times the regime-1 values at a coarse step: a sizable
    # deterministic fraction of trajectories escapes past the amplitude cap.
    p = SystemParams(0.06, 0.24, 105.0, 1.0, 0.5, 0.5)
    kw = dict(dt=1e-2, t_end=5.0, n_traj=200, seed=3)
    with pytest.raises(ExcessiveDivergence, match="diverged"):
        run_ensemble(p, **kw)
    m = run_ensemble(p, strict=False, **kw)
    assert not m.reliable
    assert m.divergent == 31  # frozen by the determinism contract
    assert np.all(np.isfinite(m.means.view(float)))


def test_total_divergence_raises_even_when_not_strict():
    p = SystemParams(0.5, 2.0, 105.0, 1.0, 0.5, 0.5)
    with pytest.raises(ExcessiveDivergence):
        run_ensemble(p, dt=1e-2, t_end=3.0, n_traj=8, seed=0, strict=False)


class _DrawLog:
    """A generator that records the thread making each of its draws."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.threads: list[int] = []

    def standard_normal(self, *args, **kwargs):
        self.threads.append(threading.get_ident())
        return self.rng.standard_normal(*args, **kwargs)


@pytest.fixture
def noise_path(monkeypatch):
    """Select how run_ensemble draws its noise; returns the run's draw log.

    Pipelined runs set the width constant to one trajectory and report two
    usable cores, so a single-core host takes that path too.
    """
    def select(pipelined: bool) -> _DrawLog:
        log = _DrawLog(None)

        def logged_rng(seed):
            log.rng = make_rng(seed)
            return log

        monkeypatch.setattr(stochastic, "make_rng", logged_rng)
        monkeypatch.setattr(stochastic, "_PIPELINE_MIN_TRAJ",
                            1 if pipelined else 10**9)
        monkeypatch.setattr(stochastic, "_usable_cores", lambda: 2)
        return log

    return select


_MOMENT_FIELDS = ("t_grid", "means", "means_stderr", "second_doubled",
                  "second_doubled_stderr", "fluct_cov", "fluct_cov_stderr")


@pytest.mark.parametrize("case", ["mid_run_samples", "divergence_budget"])
def test_serial_and_pipelined_noise_agree_bit_for_bit(case, regime1,
                                                      noise_path):
    if case == "mid_run_samples":
        p = regime1
        kw = dict(dt=1e-3, t_end=0.5, n_traj=64, seed=9)
    else:  # the setup of test_divergence_budget_enforced
        p = SystemParams(0.06, 0.24, 105.0, 1.0, 0.5, 0.5)
        kw = dict(dt=1e-2, t_end=5.0, n_traj=200, seed=3, strict=False)
    n_steps = stochastic.step_count(kw["dt"], kw["t_end"])
    runs = {}
    for pipelined in (False, True):
        log = noise_path(pipelined)
        runs[pipelined] = run_ensemble(p, **kw)
        assert len(log.threads) == -(-n_steps // stochastic._CHUNK_STEPS)
        on_main = [t == threading.get_ident() for t in log.threads]
        assert not any(on_main) if pipelined else all(on_main)
    serial, pipelined = runs[False], runs[True]
    for name in _MOMENT_FIELDS:
        np.testing.assert_array_equal(getattr(serial, name),
                                      getattr(pipelined, name))
    assert serial.divergent == pipelined.divergent
    if case == "divergence_budget":
        assert pipelined.divergent == 31


@pytest.mark.parametrize("pipelined", [False, True])
@pytest.mark.parametrize("n_steps", [1, 8, 21])
def test_noise_chunks_give_one_block_per_step_stream(pipelined, n_steps,
                                                     noise_path):
    # Drawing several steps per generator call must return exactly the
    # blocks of one (4, n_traj) call per step, also for a short last chunk.
    noise_path(pipelined)
    with stochastic._noise_blocks(make_rng(21), 5, n_steps) as blocks:
        got = [block.copy() for block in blocks]
    ref = make_rng(21)
    assert len(got) == n_steps
    for block in got:
        np.testing.assert_array_equal(block, ref.standard_normal((4, 5)))


def test_noise_worker_does_not_outlive_run(noise_path):
    before = threading.active_count()
    log = noise_path(pipelined=True)
    p = SystemParams(0.5, 2.0, 105.0, 1.0, 0.5, 0.5)
    # the setup of test_total_divergence_raises_even_when_not_strict
    with pytest.raises(ExcessiveDivergence):
        run_ensemble(p, dt=1e-2, t_end=3.0, n_traj=8, seed=0, strict=False)
    assert log.threads and threading.get_ident() not in log.threads
    assert threading.active_count() == before
    run_ensemble(p, dt=1e-2, t_end=0.05, n_traj=8, seed=0)
    assert threading.active_count() == before


def test_means_carry_normal_ordering_shift(regime1, ss1, dd1, lyap1,
                                           small_ensemble):
    # Ensemble averages estimate normally ordered quantum expectations.  The
    # quantum mean field sits a fixed distance from the semiclassical fixed
    # point: the drift curvature rectifies the stationary fluctuations, and
    # solving the drift matrix against those quadratic averages gives the
    # offset.  The shifted prediction agrees at 3 sigma; the bare fixed
    # point is many standard errors away in the harmonic modes.
    delta = first_order_mean_shift(regime1, dd1.a_matrix, lyap1)
    sd = ss1.state.doubled()
    zr_plain, _ = _z(small_ensemble.means[-1] - sd,
                     small_ensemble.means_stderr[-1])
    zr_shift, zi_shift = _z(small_ensemble.means[-1] - (sd + delta),
                            small_ensemble.means_stderr[-1])
    assert zr_shift.max() < 3.0
    assert zi_shift.max() < 3.0
    assert zr_plain[4] > 8.0 and zr_plain[5] > 8.0


def test_number_moments_match_shifted_prediction(regime1, ss1, dd1, lyap1,
                                                 small_ensemble):
    delta = first_order_mean_shift(regime1, dd1.a_matrix, lyap1)
    mean = ss1.state.doubled() + delta
    plain = ss1.state.doubled()
    for i in (1, 2, 3):
        k = 2 * (i - 1)
        got = small_ensemble.number_moment(i, i)
        se = small_ensemble.second_doubled_stderr[-1, k + 1, k]
        pred = lyap1[k + 1, k] + mean[k + 1] * mean[k]
        assert abs((got - pred).real) / se.real < 3.0
    # Without the mean shift the third-mode occupation misses badly.
    bare = lyap1[5, 4] + plain[5] * plain[4]
    se3 = small_ensemble.second_doubled_stderr[-1, 5, 4]
    assert abs((small_ensemble.number_moment(3, 3) - bare).real) / se3.real > 20


def test_fluctuation_covariance_matches_lyapunov(lyap1, small_ensemble):
    # 600 trajectories, 36 matrix entries: the largest standardized
    # deviation is expected to brush 3, so the bound carries slack.
    zr, zi = _z(small_ensemble.fluct_cov[-1] - lyap1,
                small_ensemble.fluct_cov_stderr[-1])
    assert zr.max() < 3.2
    assert zi.max() < 3.2


def test_occupation_imaginary_parts_vanish(small_ensemble):
    for i in (1, 2, 3):
        k = 2 * (i - 1)
        nm = small_ensemble.number_moment(i, i)
        se = small_ensemble.second_doubled_stderr[-1, k + 1, k]
        assert abs(nm.imag) / se.imag < 3.0


def test_stderr_scales_as_inverse_sqrt_n(regime1):
    big = run_ensemble(regime1, dt=5e-3, t_end=10.0, n_traj=1600, seed=11)
    small = run_ensemble(regime1, dt=5e-3, t_end=10.0, n_traj=400, seed=11)
    ratio = small.means_stderr[-1].real / big.means_stderr[-1].real
    assert np.all(ratio > 1.5) and np.all(ratio < 2.6)
    denom = big.fluct_cov_stderr[-1].real
    mask = denom > 0
    fr = small.fluct_cov_stderr[-1].real[mask] / denom[mask]
    assert 1.7 < np.median(fr) < 2.3


def test_halving_dt_leaves_moments_statistically_unchanged(regime1):
    # Weak-convergence check: the two step sizes give estimates whose
    # differences stay within ordinary sampling fluctuation.
    kw = dict(t_end=20.0, n_traj=800, seed=13)
    coarse = run_ensemble(regime1, dt=2e-3, **kw)
    fine = run_ensemble(regime1, dt=1e-3, **kw)
    comb = (np.sqrt(coarse.means_stderr[-1].real ** 2
                    + fine.means_stderr[-1].real ** 2)
            + 1j * np.sqrt(coarse.means_stderr[-1].imag ** 2
                           + fine.means_stderr[-1].imag ** 2))
    zr, zi = _z(coarse.means[-1] - fine.means[-1], comb)
    assert zr.max() < 3.0
    assert zi.max() < 3.0
    for i in (1, 2, 3):
        k = 2 * (i - 1)
        d = coarse.number_moment(i, i) - fine.number_moment(i, i)
        se = np.hypot(coarse.second_doubled_stderr[-1, k + 1, k].real,
                      fine.second_doubled_stderr[-1, k + 1, k].real)
        assert abs(d.real) / se < 3.0


def test_weak_drive_matches_linearized_covariance(regime1):
    # At a tenth of the regime-1 drive the fluctuations are deep in the
    # linear regime, so the Lyapunov covariance should hold without any
    # nonlinear correction, and the bare occupation prediction with it.
    from harmoniccascade import (DriftDiffusion, lyapunov_covariance,
                                 require_steady_state)

    p = SystemParams(regime1.kappa1, regime1.kappa2, 10.5,
                     regime1.gamma1, regime1.gamma2, regime1.gamma3)
    ss = require_steady_state(p)
    dd = DriftDiffusion.from_steady_state(p, ss.state)
    cov = lyapunov_covariance(dd.a_matrix, dd.d_matrix)
    m = run_ensemble(p, dt=2e-3, t_end=30.0, n_traj=2000, seed=17)
    assert m.divergent == 0
    zr, zi = _z(m.fluct_cov[-1] - cov, m.fluct_cov_stderr[-1])
    assert zr.max() < 3.0
    assert zi.max() < 3.0
    sd = ss.state.doubled()
    pred = cov[1, 0] + sd[1] * sd[0]
    se = m.second_doubled_stderr[-1, 1, 0]
    assert abs((m.number_moment(1, 1) - pred).real) / se.real < 3.0
