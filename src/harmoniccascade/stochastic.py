"""Ensemble integrator for the full doubled-phase-space stochastic equations.

The ensemble is one complex (3, 2, n_traj) array s with s[i] = (alpha_i,
alpha_i_plus), the order of FieldState.doubled().  The alpha_plus equations
are the alpha equations with the halves swapped and the pump conjugated, so
a step treats both halves in one array operation.  Noise enters the first
two modes with amplitude-dependent coefficients whose squares form the
diffusion matrix of the linearized module; the third mode is noiseless.
Ensemble averages of products converge to normally ordered expectation
values, which makes this module an independent oracle for the steady states
and the linearized covariances.

The drift is not globally Lipschitz, so trajectories can escape to infinity
in finite time.  Every 200 steps and at each sample, a column with an
amplitude beyond _AMPLITUDE_CAP (or NaN) is counted divergent, set to zero
and left out of every later sample.

Stream contract: the generator is Philox keyed by the seed, and a run
consumes one (4, n_traj) block of standard normals per step, rows ordered as
the noises on (alpha_1, alpha_1_plus, alpha_2, alpha_2_plus).  Identical
seed and settings give bit-identical results on one numpy build and CPU,
however many blocks one generator call draws and on whichever thread.

Which widths keep their bits: below _WIDE_STEP_MIN_TRAJ trajectories a step
is the arithmetic of model.doubled_drift and noise_variances bit for bit,
with np.sqrt as the root.  From that width on the root is _principal_sqrt,
within 3 ulp of np.sqrt, so wide runs differ at roundoff from a step with
np.sqrt.  At every width a sample is bit for bit the reduction of the whole
(6, 6, n) pair-product arrays.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .model import FieldState, SystemParams, validate_params

__all__ = [
    "EnsembleMoments",
    "ExcessiveDivergence",
    "make_rng",
    "step_count",
    "run_ensemble",
]

# Amplitudes beyond this are treated as escaped trajectories.
_AMPLITUDE_CAP = 1e6
# Fraction of divergent trajectories above which results are unreliable.
_DIVERGENCE_BUDGET = 0.01
# Ensemble width from which _euler_step takes its wide layout and root.  The
# wide step is faster from about 1000 trajectories on; the width stays at
# 2500 so that narrower runs, the CLI default among them, keep their bits.
_WIDE_STEP_MIN_TRAJ = 2500
# Steps of noise drawn by one generator call, as one (m, 4, n_traj) array.
# The generator keeps no state between calls but its Philox counter, so a
# chunk holds exactly the blocks that m calls of (4, n_traj) would return;
# fewer, larger calls wake the worker less often.
_CHUNK_STEPS = 32
# Normals drawn by one generator call at most, 640 KB per buffer: 32-step
# chunks up to 625 trajectories, 8-step ones at 2500 and 2-step ones at
# 10^4, so the buffers stay small beside the state.
_CHUNK_NORMALS = 80_000
# Bytes of one block of complex products that a sample reduces at once:
# b = max(1, min(6, _SAMPLE_BYTES // (16 * n_live))) rows per block, all six
# up to 1,666 live columns and one from 10^4.
_SAMPLE_BYTES = 160_000


class ExcessiveDivergence(RuntimeError):
    """More than the budgeted fraction of trajectories diverged."""


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; independent streams come from distinct seeds."""
    return np.random.Generator(np.random.Philox(key=seed))


def step_count(dt: float, t_end: float) -> int:
    """Euler steps in a run of length t_end: t_end / dt, rounded.

    Raises ValueError unless dt and t_end are finite and positive and the
    run holds at least one step.
    """
    if not (np.isfinite(dt) and np.isfinite(t_end)):
        raise ValueError("dt and t_end must be finite")
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    ratio = t_end / dt
    if not np.isfinite(ratio) or round(ratio) < 1:
        raise ValueError(f"t_end / dt = {ratio:g} must round to a finite "
                         "count of at least one step")
    return int(round(ratio))


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_length(n_traj: int, n_steps: int) -> int:
    """Steps per noise chunk: at most _CHUNK_STEPS, _CHUNK_NORMALS normals
    (but at least one step) and the run's n_steps."""
    return max(1, min(_CHUNK_STEPS, _CHUNK_NORMALS // (4 * n_traj), n_steps))


def _noise_chunks(rng: np.random.Generator, n_traj: int, n_steps: int,
                  dt: float, n_buffers: int):
    """The run's n_steps (4, n_traj) blocks of sqrt(dt)-scaled normals, as
    (m, 4, n_traj) chunks of m = _chunk_length(n_traj, n_steps) steps (the
    last one may be shorter), each one generator call into the next of
    n_buffers reused buffers, scaled in place and valid until n_buffers more
    are taken.  The buffers are made by this call, on the caller's thread; a
    worker would put them in its own malloc arena and raise the peak RSS."""
    m = _chunk_length(n_traj, n_steps)
    buffers = np.empty((n_buffers, m, 4, n_traj))
    sqrt_dt = np.sqrt(dt)

    def fill(c: int) -> np.ndarray:
        chunk = rng.standard_normal(
            out=buffers[c % n_buffers, :min(m, n_steps - c * m)])
        return np.multiply(chunk, sqrt_dt, chunk)

    return map(fill, range(-(-n_steps // m)))


def _ahead(worker: ThreadPoolExecutor, items):
    """Yield the items of the iterator items, each taken on worker while
    the caller uses the one before; an exception from items is raised here."""
    end = object()
    pending = worker.submit(next, items, end)
    while (item := pending.result()) is not end:
        pending = worker.submit(next, items, end)
        yield item


def _principal_sqrt(z: np.ndarray, u: np.ndarray, v: np.ndarray,
                    masks: np.ndarray) -> None:
    """The principal square root of the complex array z, in place, by glibc's
    csqrt formula (Kahan's) over whole arrays: u = sqrt(0.5 (|z| + |Re z|))
    and v = 0.5 (Im z / u) give (u, v) where Re z > 0 and (|v|, copysign(u,
    Im z)) elsewhere.  |z| comes from numpy's SIMD complex abs, up to 2 ulp
    from libm's hypot, so a part can differ from np.sqrt by up to 3 ulp.  If
    any u falls outside [2**-510, 2**510] or is NaN (a zero, subnormal or
    huge |z|, an infinity or a NaN, where glibc rescales or special-cases),
    np.sqrt takes those elements.  u and v are real scratch arrays of z's
    shape, masks a bool scratch array of shape (3, *z.shape)."""
    re, im = z.real, z.imag
    upper, other, inside = masks
    np.abs(z, u)
    np.copyto(v, re)   # Re z compared contiguously: faster than strided
    np.greater(v, 0, upper)
    np.absolute(v, v)
    np.add(u, v, u)
    np.multiply(u, 0.5, u)
    np.sqrt(u, u)
    np.divide(im, u, v)
    np.multiply(v, 0.5, v)
    if not (2.0**-510 <= u.min() and u.max() <= 2.0**510):  # NaN fails too
        np.greater_equal(u, 2.0**-510, inside)
        np.less_equal(u, 2.0**510, other)
        np.logical_and(inside, other, inside)
        np.logical_not(inside, other)
        np.sqrt(z, z, where=other)
        np.copyto(u, re, where=other)
        np.copyto(v, im, where=other)
        np.logical_or(upper, other, upper)
    np.copysign(u, v, im)   # v has the sign of Im z where u is in range
    np.absolute(v, re)
    np.copyto(re, u, where=upper)
    np.copyto(im, v, where=upper)


def _euler_step(s: np.ndarray, p: SystemParams, dt: float):
    """The in-place Euler-Maruyama update of the (3, 2, n) state s, as a
    function of one (4, n) noise block already scaled by sqrt(dt); a step
    allocates nothing and passes every output positionally.  The noise
    variances kappa x come from the pre-step state (Ito reading, which the
    equations' form makes equivalent to Stratonovich for these moments) and
    their roots are taken once the drift is added.  Below _WIDE_STEP_MIN_TRAJ
    trajectories the rates, couplings and pumps are held at their partners'
    full shape and the root is np.sqrt; wider ensembles broadcast them and
    take _principal_sqrt in scratch carved out of the drift array."""
    x12, x23, y12 = s[:2], s[1:], s[:2, ::-1]
    drift = np.empty_like(s)
    pair = np.empty_like(x23)
    d0, d01, d12 = drift[0], drift[:2], drift[1:]
    rates = np.array([p.gamma1, -p.gamma2, -p.gamma3], complex)[:, None, None]
    kappa = np.array([p.kappa1, p.kappa2], complex)[:, None, None]
    half_kappa = 0.5 * kappa
    e = np.array([[p.epsilon], [np.conj(p.epsilon)]], dtype=complex)
    if s.shape[-1] < _WIDE_STEP_MIN_TRAJ:
        rates, kappa, half_kappa, e = (
            np.broadcast_to(v, like.shape).copy() for v, like in
            ((rates, s), (kappa, pair), (half_kappa, pair), (e, d0)))
        root = partial(np.sqrt, pair, pair)
    else:
        # the drift's 12 reals a column: 4 for u, 4 for v, 4 for the masks
        work = drift.view(float).reshape(6, 2, -1)
        masks = work[4:].view(bool).reshape(-1)[:3 * pair.size]
        root = partial(_principal_sqrt, pair, work[:2], work[2:4],
                       masks.reshape(3, *pair.shape))
    dt = np.array(dt, complex)

    def step(noise: np.ndarray) -> None:
        np.multiply(rates, s, drift)
        np.subtract(e, d0, d0)
        np.multiply(kappa, y12, pair)        # k1 y1 x2, k2 y2 x3
        np.multiply(pair, x23, pair)
        np.add(d01, pair, d01)
        np.multiply(half_kappa, x12, pair)   # 0.5 k1 x1 x1, 0.5 k2 x2 x2
        np.multiply(pair, x12, pair)
        np.subtract(d12, pair, d12)
        np.multiply(kappa, x23, pair)        # the noise variances
        np.multiply(drift, dt, drift)
        np.add(s, drift, s)
        root()
        np.multiply(pair, noise.reshape(2, 2, -1), pair)
        np.add(x12, pair, x12)

    return step


def _moments(v: np.ndarray, alive: np.ndarray) -> tuple:
    """Means, pair products and fluctuation covariance of the columns of the
    (6, n) doubled state v that the mask alive keeps, each followed by its
    stderr.  The products of each row with rows lo:lo+b are reduced one
    block of at most _SAMPLE_BYTES (or one row) at a time: each block of
    rows is read once, and each row outside it once per block."""
    n = int(np.count_nonzero(alive))
    if n == 0:
        raise ExcessiveDivergence("all trajectories diverged")
    b = max(1, min(6, _SAMPLE_BYTES // (16 * n)))
    means = np.zeros((2, 6), complex)         # means, stderr
    pairs = np.zeros((2, 2, 6, 6), complex)   # [centred] means, stderr

    def rows(lo: int, hi: int, centred: int) -> np.ndarray:
        # in place while every column lives; else a C-ordered copy (unlike
        # [:, alive]), so that rows sum in the same order
        x = v[lo:hi] if n == v.shape[1] else v[lo:hi].compress(alive, axis=1)
        return x - means[0, lo:hi, None] if centred else x

    def reduce(values: np.ndarray, mean: np.ndarray, se: np.ndarray) -> None:
        # se = SE(real) + 1j SE(imag) over the last axis; zero for one column
        mean[...] = values.mean(axis=-1)
        if n > 1:
            se[...] = (values.real.std(axis=-1, ddof=1)
                       + 1j * values.imag.std(axis=-1, ddof=1)) / np.sqrt(n)

    for centred in (0, 1):
        for lo in range(0, 6, b):
            block = rows(lo, lo + b, centred)
            if not centred:
                reduce(block, *means[:, lo:lo + b])
            for i in range(6):
                row = (block[i - lo] if lo <= i < lo + b
                       else rows(i, i + 1, centred)[0])
                reduce(row * block, *pairs[centred, :, i, lo:lo + b])
    return (*means, *pairs[0], *pairs[1])


@dataclass(frozen=True)
class EnsembleMoments:
    """Ensemble statistics at the sampled times.

    means holds the six doubled amplitudes (a1, a1+, a2, a2+, a3, a3+) per
    sample time; second_doubled the (6, 6) trajectory means of the pair
    products v_i v_j of the doubled vector v, which contain every normally
    ordered pair: <a_i a_j> at [2i, 2j], <a_i+ a_j> at [2i+1, 2j],
    <a_i+ a_j+> at [2i+1, 2j+1] (zero-based mode offsets).  Entries [i, j]
    and [j, i] are separate means of v_i v_j and v_j v_i, equal in exact
    arithmetic but not always in the last bits, as the complex multiply is
    not bitwise commutative.  stochastic.csv reads n_ij at [2i+1, 2j] and
    anom_ij at [2i, 2j] with i <= j, the upper triangle.  fluct_cov is the
    sample covariance of the doubled vector (products of deviations from
    the ensemble mean), directly comparable to the linearized stationary
    covariance, and holds its two triangles the same way.  All stderr
    arrays pack SE(real) + 1j SE(imag).
    """

    n_traj: int
    dt: float
    t_grid: np.ndarray
    means: np.ndarray
    means_stderr: np.ndarray
    second_doubled: np.ndarray
    second_doubled_stderr: np.ndarray
    fluct_cov: np.ndarray
    fluct_cov_stderr: np.ndarray
    divergent: int

    @property
    def reliable(self) -> bool:
        return self.divergent <= _DIVERGENCE_BUDGET * self.n_traj

    def number_moment(self, i: int, j: int) -> complex:
        """<alpha_i+ alpha_j> at the last sample time (modes 1-based)."""
        return complex(self.second_doubled[-1, 2 * (i - 1) + 1, 2 * (j - 1)])


def run_ensemble(p: SystemParams, dt: float, t_end: float, n_traj: int,
                 seed: int = 0, initial: FieldState | None = None,
                 strict: bool = True) -> EnsembleMoments:
    """Integrate an ensemble and return its moment statistics.

    Sampling happens at the steps closest to half, three quarters and the
    end of the run, each at least the first step; coinciding steps are
    sampled once.  Divergent trajectories are frozen out of all later
    samples; when more than 1% diverge the result is unreliable and
    strict=True raises ExcessiveDivergence (strict=False returns it flagged
    instead).
    """
    validate_params(p)
    n_steps = step_count(dt, t_end)
    if n_traj < 1:
        raise ValueError("n_traj must be positive")
    sample_steps = {min(n_steps, max(1, int(round(ts / dt))))
                    for ts in (0.5 * t_end, 0.75 * t_end, t_end)}
    t_grid = np.array([s * dt for s in sorted(sample_steps)])

    if initial is None:
        initial = FieldState.vacuum()
    s = np.tile(initial.doubled().reshape(3, 2, 1), (1, 1, n_traj))
    step_once = _euler_step(s, p, dt)
    alive = np.ones(n_traj, dtype=bool)
    pipelined = _usable_cores() >= 2
    chunks = _noise_chunks(make_rng(seed), n_traj, n_steps, dt,
                           2 if pipelined else 1)

    samples = []
    with (np.errstate(invalid="ignore", over="ignore", divide="ignore"),
          ThreadPoolExecutor(1) if pipelined else nullcontext() as worker):
        blocks = chain.from_iterable(
            _ahead(worker, chunks) if pipelined else chunks)
        for step, noise in enumerate(blocks, start=1):
            step_once(noise)
            sampled = step in sample_steps
            if step % 200 == 0 or sampled:    # the last step is sampled
                # max propagates NaN, and NaN <= cap is False; one mode's
                # magnitudes at a time
                ok = np.logical_and.reduce(
                    [np.abs(mode).max(axis=0) <= _AMPLITUDE_CAP for mode in s])
                newly_dead = alive & ~ok
                if newly_dead.any():
                    alive &= ok
                    # park escaped columns so they stop producing overflow
                    s[..., newly_dead] = 0
            if sampled:
                samples.append(_moments(s.reshape(6, n_traj), alive))
    means, means_se, m2, m2_se, fcov, fcov_se = map(np.array, zip(*samples))

    divergent = int(n_traj - alive.sum())
    result = EnsembleMoments(
        n_traj=n_traj, dt=dt, t_grid=t_grid,
        means=means, means_stderr=means_se,
        second_doubled=m2, second_doubled_stderr=m2_se,
        fluct_cov=fcov, fluct_cov_stderr=fcov_se,
        divergent=divergent)
    if strict and not result.reliable:
        raise ExcessiveDivergence(
            f"{divergent} of {n_traj} trajectories diverged")
    return result
