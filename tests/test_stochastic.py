"""Ensemble integrator tests.

The deterministic parts (single steps, seeding, divergence bookkeeping) are
checked exactly.  The statistical parts compare frozen-seed ensembles against
the independent oracles from the other modules: the semiclassical fixed point
plus its noise-induced mean shift, and the Lyapunov stationary covariance.
Standardized deviations (z-scores) are bounded at the 3-sigma level; every
seed below is fixed, so the suite is deterministic despite the statistics.
"""

import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_order_mean_shift, interleaved_drift
from oracles import euler_covariance, principal_sqrt, sample_moments
from harmoniccascade import (REGIME_PRESETS, FieldState, SystemParams,
                             run_ensemble, stochastic)
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


_MOMENT_FIELDS = ("t_grid", "means", "means_stderr", "second_doubled",
                  "second_doubled_stderr", "fluct_cov", "fluct_cov_stderr")


_S0 = FieldState(alpha=[0.3 + 0.1j, 2.0 - 1.0j, 0.5j],
                 alpha_plus=[0.25 - 0.05j, -1.0 + 0.3j, 0.2])

# name: (params, run settings, initial state); every run samples at whole
# steps, half, three quarters and all the way through.
_STEP_CASES = {
    "complex_pump": (SystemParams(5e-3, 2e-2, 80.0 + 30.0j, 1.0, 0.5, 0.5),
                     dict(dt=1e-3, t_end=4e-3, n_traj=5, seed=8), _S0),
    # more steps than one noise chunk, at an odd width
    "regime2_complex_pump_odd_width": (
        replace(REGIME_PRESETS[2], epsilon=60.0 - 85.0j),
        dict(dt=1e-3, t_end=12e-3, n_traj=301, seed=4), _S0),
    "zero_pump": (SystemParams(5e-3, 2e-2, 0.0, 1.0, 0.5, 0.5),
                  dict(dt=1e-3, t_end=4e-3, n_traj=5, seed=8), _S0),
    # the setup of test_divergence_budget_enforced: escaped columns parked
    "divergence_budget": (SystemParams(0.06, 0.24, 105.0, 1.0, 0.5, 0.5),
                          dict(dt=1e-2, t_end=5.0, n_traj=200, seed=3,
                               strict=False), FieldState.vacuum()),
    # broadcast operands, from _WIDE_STEP_MIN_TRAJ trajectories on; every
    # case above holds them at full shape.  On a multi-core host the noise
    # worker draws for every case, whatever layout.
    "wide_layout": (replace(REGIME_PRESETS[2], epsilon=60.0 - 85.0j),
                    dict(dt=1e-3, t_end=12e-3,
                         n_traj=stochastic._WIDE_STEP_MIN_TRAJ, seed=5), _S0),
    # wide enough for the size cap to bind: 4-step chunks, a 2-step last one
    "capped_chunks": (replace(REGIME_PRESETS[2], epsilon=60.0 - 85.0j),
                      dict(dt=1e-3, t_end=14e-3, n_traj=5000, seed=6), _S0),
    # samples reduced in one-row blocks
    "one_row_blocks": (replace(REGIME_PRESETS[2], epsilon=60.0 - 85.0j),
                       dict(dt=1e-3, t_end=4e-3, n_traj=10_000, seed=7), _S0),
    # and the live columns of one-row blocks after a divergence
    "divergence_one_row_blocks": (
        SystemParams(0.06, 0.24, 105.0, 1.0, 0.5, 0.5),
        dict(dt=1e-2, t_end=5.0, n_traj=10_000, seed=3, strict=False),
        FieldState.vacuum()),
}
# trajectories that diverge, frozen by the determinism contract
_DIVERGENT = {"divergence_budget": 31, "divergence_one_row_blocks": 1566}


@pytest.mark.parametrize("case", list(_STEP_CASES))
def test_stacked_step_matches_row_by_row_equations_bit_for_bit(case):
    # The ensemble steps both phase-space halves as one stacked array.  The
    # same equations applied row by row on (3, n) arrays, with the same
    # Philox blocks, must give the same bits: a swapped row, a misplaced
    # noise, an unconjugated pump or a reordered operation would move the
    # sampled moments.  Bytes are compared, so a sign of zero counts too;
    # every field stochastic.csv writes is compared, against the reduction
    # of the full (6, 6, n) product arrays in oracles.sample_moments.  From
    # _WIDE_STEP_MIN_TRAJ trajectories on the step's root is glibc's formula
    # with numpy's |z|, oracles.principal_sqrt; below it, np.sqrt.
    p, kw, s0 = _STEP_CASES[case]
    dt, n = kw["dt"], kw["n_traj"]
    root = principal_sqrt if n >= stochastic._WIDE_STEP_MIN_TRAJ else np.sqrt
    n_steps = stochastic.step_count(dt, kw["t_end"])
    m = run_ensemble(p, initial=s0, **kw)
    rng = make_rng(kw["seed"])
    a = np.tile(s0.alpha[:, None], (1, n))
    b = np.tile(s0.alpha_plus[:, None], (1, n))
    alive = np.ones(n, dtype=bool)
    sample_steps = (n_steps // 2, 3 * n_steps // 4, n_steps)
    samples = []
    with np.errstate(invalid="ignore", over="ignore"):
        for step in range(1, n_steps + 1):
            (va1, va2), (vb1, vb2) = (noise_variances(a, p),
                                      noise_variances(b, p))
            kicks = [root(v) * (np.sqrt(dt) * w) for v, w in
                     zip((va1, vb1, va2, vb2), rng.standard_normal((4, n)))]
            for row, drift in zip((*a, *b), doubled_drift(a, b, p)):
                row += drift * dt
            for row, kick in zip((a[0], b[0], a[1], b[1]), kicks):
                row += kick
            if step % 200 == 0 or step in sample_steps:
                ok = np.abs(np.vstack((a, b))).max(axis=0) <= 1e6
                newly_dead = alive & ~ok
                alive &= ok
                a[:, newly_dead] = b[:, newly_dead] = 0
            if step in sample_steps:
                v = np.empty((6, n), dtype=complex)
                v[0::2], v[1::2] = a, b
                samples.append(v.compress(alive, axis=1))
    assert m.t_grid.tobytes() == np.multiply(sample_steps, dt).tobytes()
    ref = zip(*map(sample_moments, samples))
    for name, values in zip(_MOMENT_FIELDS[1:], ref, strict=True):
        assert getattr(m, name).tobytes() == np.array(values).tobytes(), name
    assert m.divergent == n - alive.sum()
    assert m.divergent == _DIVERGENT.get(case, 0)


def _root(z: np.ndarray) -> np.ndarray:
    """stochastic._principal_sqrt of a copy of z, with scratch of its own."""
    out = np.array(z, dtype=complex)
    u, v = np.empty((2, *out.shape))
    with np.errstate(all="ignore"):
        stochastic._principal_sqrt(out, u, v,
                                   np.empty((3, *out.shape), dtype=bool))
    return out


def _ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # distance in units in the last place of each part of same-sign values
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_principal_sqrt_stays_within_ulps_of_np_sqrt(regime1, ss1):
    # Wide ensembles take the root in place, by glibc's csqrt formula with
    # numpy's SIMD complex abs in place of libm's hypot.  The abs is up to
    # 2 ulp from hypot, which moves a part of the root by at most 3 ulp from
    # np.sqrt across magnitudes (3 of 10^6 random values) and at most 2 near
    # the negative real axis, where kappa1 alpha2 sits at the steady state,
    # and on a 10^4-trajectory state 600 steps past it.  The in-place root
    # must also be the bytes of oracles.principal_sqrt, its transcription.
    rng = make_rng(11)
    n = 200_000
    anywhere = 10.0 ** rng.uniform(-150, 150, n) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, n))
    near_axis = -10.0 ** rng.uniform(-3, 3, n) * (
        1 + 1j * rng.choice([-1, 1], n) * 10.0 ** rng.uniform(-17, -1, n))
    s = np.tile(ss1.state.doubled().reshape(3, 2, 1), (1, 1, 10_000))
    step = stochastic._euler_step(s, regime1, 2e-3)
    for noise in stochastic._noise_chunks(rng, 10_000, 600, 2e-3, 1):
        for block in noise:
            step(block)
    state = np.array([regime1.kappa1, regime1.kappa2])[:, None, None] * s[1:]
    for z, bound in ((anywhere, 3), (near_axis, 2), (state, 2)):
        got = _root(z)
        assert got.tobytes() == principal_sqrt(z).tobytes()
        assert _ulps(got, np.sqrt(z)).max() <= bound


def test_principal_sqrt_is_np_sqrt_on_zeros_infinities_nans_and_reals():
    # Signed zeros, infinities and NaNs in either part, subnormal and huge
    # |z| (np.sqrt's elements there) and reals with a signed zero imaginary
    # part come out as np.sqrt's bytes.  The formula takes a normal |z| with
    # a finite nonzero Im z, pure imaginary values too, where glibc has a
    # branch of its own: those stay within the ulp bound.  Each set is one
    # call, so the range check on a set of normal values alone is seen.
    parts = (0.0, -0.0, 1.0, -4.0, 5e-324, -1e-310, 2.0**1022, -1e308,
             np.inf, -np.inf, np.nan)
    rng = make_rng(12)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, (2, 1000)))
    for z in (np.array([complex(a, b) for a in parts for b in parts]),
              10.0 ** rng.uniform(-323, -308, 1000) * phases[0],
              2.0 ** rng.uniform(1021.01, 1023.99, 1000) * phases[1]):
        size = np.abs(z)
        formula = (np.isfinite(z.imag) & (z.imag != 0)
                   & (size >= 2.0**-1020) & (size <= 2.0**1020))
        got = _root(z)
        assert got.tobytes() == principal_sqrt(z).tobytes()
        assert got[~formula].tobytes() == np.sqrt(z[~formula]).tobytes()
        assert _ulps(got[formula], np.sqrt(z[formula])).max(initial=0) <= 3


# The widest ensemble whose samples reduce all six rows in one block.
_ONE_BLOCK_MAX = stochastic._SAMPLE_BYTES // (16 * 6)


@pytest.mark.parametrize("n, dead", [
    *((n, 0.0) for n in (1, 2, 7, 300, _ONE_BLOCK_MAX - 1, _ONE_BLOCK_MAX,
                         _ONE_BLOCK_MAX + 1, 5000, 10_000)),
    (10_000, 0.15)])
def test_blocked_moments_match_full_products_bit_for_bit(n, dead):
    # Samples reduce the products in blocks of rows, all six up to
    # _ONE_BLOCK_MAX live columns and one at 10^4; every field must be the
    # bytes of the whole (6, 6, n) product arrays.  With dead columns the
    # sample takes the live ones block by block, as after a divergence.
    x = make_rng(n).standard_normal((2, 6, n))
    v = x[0] + 1j * x[1]
    alive = make_rng(n + 1).random(n) >= dead
    got = stochastic._moments(v, alive)
    for name, a, b in zip(_MOMENT_FIELDS[1:], got,
                          sample_moments(v.compress(alive, axis=1)),
                          strict=True):
        assert a.tobytes() == b.tobytes(), name


def _traced_peak(run) -> tuple:
    """The bytes that run() allocates at its peak, traced, and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


def test_moments_hold_under_the_live_state():
    # One-row blocks at 10^4 trajectories: the sample holds one deviation
    # block, one deviation row, their product and a real temporary of std,
    # 0.6 times the state.  Six-row blocks held 2.5.
    x = make_rng(5).standard_normal((2, 6, 10_000))
    v = x[0] + 1j * x[1]
    alive = np.ones(10_000, dtype=bool)
    assert _traced_peak(lambda: stochastic._moments(v, alive))[0] < v.nbytes


@pytest.mark.parametrize("cores", [2, 1])
@pytest.mark.parametrize("case", ["all_alive", "divergence_one_row_blocks"])
def test_wide_run_holds_under_five_and_a_half_times_the_state(
        case, cores, regime1, ss1, monkeypatch):
    # 10^4 trajectories: the state, the step's drift and pair arrays, one or
    # two 0.64 MB noise buffers and a sample of one-row blocks.  Samples of
    # six-row blocks, reading a copy of the live columns after a divergence,
    # peaked at 6.6 (worker) and 5.9 (serial) times the state in 16 steps,
    # and at 7.5 and 6.8 in the divergence-budget run.
    monkeypatch.setattr(stochastic, "_usable_cores", lambda: cores)
    if case == "all_alive":
        p, s0 = regime1, ss1.state
        kw = dict(dt=2e-3, t_end=16 * 2e-3, n_traj=10_000, seed=3)
    else:
        p, kw, s0 = _STEP_CASES[case]
    make_rng(3)  # numpy.random is imported on first use: trace the run alone
    peak, m = _traced_peak(lambda: run_ensemble(p, initial=s0, **kw))
    assert m.divergent == _DIVERGENT.get(case, 0)
    assert peak < 5.5 * np.empty((6, 10_000), complex).nbytes


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
    valid = dict(dt=1e-3, t_end=1e-3, n_traj=2)
    for bad in (dict(dt=0.0), dict(t_end=-1.0), dict(n_traj=0)):
        with pytest.raises(ValueError):
            run_ensemble(regime1, **{**valid, **bad})
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

    The usable cores choose the path: two take the worker, on a single-core
    host too, and one draws serially.  The step is the one of the run's
    width: full shape below _WIDE_STEP_MIN_TRAJ, broadcast from it on.
    """
    def select(pipelined: bool) -> _DrawLog:
        log = _DrawLog(None)

        def logged_rng(seed):
            log.rng = make_rng(seed)
            return log

        monkeypatch.setattr(stochastic, "make_rng", logged_rng)
        monkeypatch.setattr(stochastic, "_usable_cores",
                            lambda: 2 if pipelined else 1)
        return log

    return select


@pytest.mark.parametrize("case", ["mid_run_samples", "divergence_budget",
                                  "divergence_budget_broadcast",
                                  "full_shape_300", "full_shape_1000"])
def test_serial_and_pipelined_noise_agree_bit_for_bit(case, regime1,
                                                      noise_path, monkeypatch):
    # Every width keeps its bits with the worker: the full-shape step at
    # 64, 200, 300 and 1000 trajectories (32- and 20-step chunks), and the
    # broadcast step with divergent trajectories parked.
    p = regime1
    if case == "mid_run_samples":
        kw = dict(dt=1e-3, t_end=0.5, n_traj=64, seed=9)
    elif case.startswith("divergence_budget"):
        # the setup of test_divergence_budget_enforced
        p = SystemParams(0.06, 0.24, 105.0, 1.0, 0.5, 0.5)
        kw = dict(dt=1e-2, t_end=5.0, n_traj=200, seed=3, strict=False)
        if case.endswith("broadcast"):
            monkeypatch.setattr(stochastic, "_WIDE_STEP_MIN_TRAJ", 1)
    else:  # the cli_modes settings, over a shorter run
        kw = dict(dt=2e-3, t_end=0.5, n_traj=int(case.split("_")[-1]),
                  seed=5)
    n_steps = stochastic.step_count(kw["dt"], kw["t_end"])
    runs = {}
    for pipelined in (False, True):
        log = noise_path(pipelined)
        runs[pipelined] = run_ensemble(p, **kw)
        chunk = stochastic._chunk_length(kw["n_traj"], n_steps)
        assert len(log.threads) == -(-n_steps // chunk)
        on_main = [t == threading.get_ident() for t in log.threads]
        assert not any(on_main) if pipelined else all(on_main)
    serial, pipelined = runs[False], runs[True]
    for name in _MOMENT_FIELDS:
        assert (getattr(serial, name).tobytes()
                == getattr(pipelined, name).tobytes()), name
    assert serial.divergent == pipelined.divergent
    if case.startswith("divergence_budget"):
        assert pipelined.divergent == 31


@pytest.mark.parametrize("pipelined", [False, True])
@pytest.mark.parametrize("n_steps", [1, 8, 21, 45])
def test_noise_chunks_give_one_block_per_step_stream(pipelined, n_steps):
    # Drawing and scaling several steps per generator call must return
    # exactly the scaled blocks of one (4, n_traj) call per step, the
    # expression of the row-by-row reference, also for a short last chunk;
    # taken ahead on a worker, the second buffer keeps each chunk intact.
    # The 80,000-normal cap gives 20-step chunks at 1000 trajectories,
    # 2-step ones at 10^4 and 1-step ones past 20,000.
    dt = 2e-3
    for n_traj, steps_per_call in ((5, 32), (300, 32), (1000, 20),
                                   (10_000, 2), (20_001, 1)):
        chunks = stochastic._noise_chunks(make_rng(21), n_traj, n_steps, dt,
                                          2 if pipelined else 1)
        with ThreadPoolExecutor(1) as worker:
            got = [chunk.copy() for chunk in
                   (stochastic._ahead(worker, chunks) if pipelined else chunks)]
        whole, rest = divmod(n_steps, steps_per_call)
        assert [len(c) for c in got] == ([steps_per_call] * whole
                                         + [rest] * (rest > 0))
        ref = make_rng(21)
        for block in (block for chunk in got for block in chunk):
            want = np.sqrt(dt) * ref.standard_normal((4, n_traj))
            assert block.shape == want.shape
            assert block.tobytes() == want.tobytes()


def test_ahead_takes_items_in_order_on_the_worker():
    takers = []

    def items(n: int, then_raise: bool):
        for i in range(n):
            takers.append(threading.get_ident())
            yield i
        if then_raise:
            raise RuntimeError("drawn past the end")

    with ThreadPoolExecutor(1) as worker:
        assert list(stochastic._ahead(worker, items(5, False))) == [*range(5)]
        assert len(takers) == 5 and threading.get_ident() not in takers
        got = []
        with pytest.raises(RuntimeError, match="drawn past the end"):
            got.extend(stochastic._ahead(worker, items(3, True)))
        assert got == [0, 1, 2]
        assert list(stochastic._ahead(worker, iter(()))) == []


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


def test_coarse_step_covariance_matches_euler_prediction(regime1, ss1, dd1,
                                                         lyap1):
    # Euler-Maruyama on the linearized equations keeps the covariance P of
    # A P + P A^T - dt A P A^T = D, not the Lyapunov C; at dt 0.1 they differ
    # by 7% of the largest entry of C.  10^4 trajectories resolve that step
    # bias: the sampled covariance sits within 4 standard errors of P and
    # at least 4 from C.  Settings and bounds were fixed before a first run.
    A, D, dt = dd1.a_matrix, dd1.d_matrix, 0.1
    np.testing.assert_allclose(euler_covariance(A, D, 0.0), lyap1,
                               rtol=1e-12, atol=1e-15)
    P = euler_covariance(A, D, dt)
    assert np.abs(A @ P + P @ A.T - dt * A @ P @ A.T - D).max() < 1e-12
    m = run_ensemble(regime1, dt=dt, t_end=400 * dt, n_traj=10_000, seed=27,
                     initial=ss1.state)
    assert m.divergent == 0
    assert max(z.max() for z in _z(m.fluct_cov[-1] - P,
                                   m.fluct_cov_stderr[-1])) <= 4.0
    assert max(z.max() for z in _z(m.fluct_cov[-1] - lyap1,
                                   m.fluct_cov_stderr[-1])) >= 4.0
