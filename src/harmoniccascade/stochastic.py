"""Ensemble integrator for the full doubled-phase-space stochastic equations.

Each mode contributes an independent pair (alpha_i, alpha_i_plus); noise
enters the first two modes with amplitude-dependent coefficients whose
squares form the diffusion matrix of the linearized module, and the third
mode is noiseless.  Ensemble averages of products converge to normally
ordered expectation values, which is what makes this module an independent
oracle for the deterministic steady states and the linearized covariances.

Scheme: Euler-Maruyama with fixed step.  The drift is not globally
Lipschitz, so trajectories can escape to infinity in finite time; amplitudes
beyond a hard cap are classified as divergent and excluded from averages
rather than silently integrated on.  The ensemble is one (3, 2, n_traj)
array s with s[i] = (alpha_i, alpha_i_plus), the order of
FieldState.doubled(): the alpha_plus equations are the alpha equations with
the halves swapped and the pump conjugated, so the step does each operation
of model.doubled_drift and noise_variances as one ufunc call over both halves
into arrays made once per run, with their per-element arithmetic bit for
bit (test_stacked_step_matches_row_by_row_equations_bit_for_bit).  Outputs
are passed positionally and the noise arrives scaled by sqrt(dt).  A step
takes the noise variances kappa x from the pre-step state, adds the drift,
then takes the variances' square roots in the drift array's scratch.  Below
_PIPELINE_MIN_TRAJ trajectories the constant operands are held at their
partners' full shape and the root is np.sqrt (glibc's csqrt, one element at
a time).  Wider ensembles broadcast the operands and take the root by
glibc's formula in whole-array real arithmetic (_principal_sqrt), with |z|
from numpy's SIMD complex abs: a part differs from np.sqrt by at most 3 ulp
(2 on the ensemble's own values), so wide runs move at roundoff against
versions that took np.sqrt there.

Each sample reduces the live columns to their means, pair products and
fluctuation covariance in blocks of products x[i] * x[j:j+b] of at most
_SAMPLE_BYTES (or one row j).  It reads the state in place, and after a
divergence copies the live columns of one block or row at a time; the
deviations from the means are formed block by block too.  So no temporary
is larger than one block of products, where whole (6, 6, n_live) product
arrays held 10 times the live state, and every moment is bit for bit that
of the whole arrays.  The divergence check takes magnitudes one mode at a
time.

Reproducibility contract, kept by _noise_chunks: the generator is
counter-based (Philox keyed by the seed) and the run consumes one (4, n_traj)
block of standard normals per time step, rows ordered as the noises on
(alpha_1, alpha_1_plus, alpha_2, alpha_2_plus).  Identical seed and settings
give bit-identical results on one numpy build and CPU.  Blocks are drawn
several steps per generator call (_chunk_length: at most _CHUNK_STEPS steps
and _CHUNK_NORMALS normals), which yields the same stream as one call per
step.
On a host with two or more usable cores, every ensemble takes each chunk on
one worker thread (_ahead) while the main thread integrates the one before,
whichever step layout it takes.  That changes which thread makes the
generator calls, not the calls or their order, so the stream and every
result are unchanged.
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
# Ensemble width from which the step's constant operands stay broadcast
# vectors and the root is _principal_sqrt; below it they are held at full
# shape and the root is np.sqrt.  The wide step is faster from about 1000
# trajectories on; the width stays at 2500 so that narrower runs keep their
# bits (timings in CHANGES).
_PIPELINE_MIN_TRAJ = 2500
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
    their roots are taken once the drift is added: from _PIPELINE_MIN_TRAJ
    trajectories on by _principal_sqrt, in scratch carved out of the drift
    array.  Below that width the rates, couplings and pumps are held at
    their partners' full shape; wider ensembles broadcast them."""
    x12, x23, y12 = s[:2], s[1:], s[:2, ::-1]
    drift = np.empty_like(s)
    pair = np.empty_like(x23)
    d0, d01, d12 = drift[0], drift[:2], drift[1:]
    rates = np.array([p.gamma1, -p.gamma2, -p.gamma3], complex)[:, None, None]
    kappa = np.array([p.kappa1, p.kappa2], complex)[:, None, None]
    half_kappa = 0.5 * kappa
    e = np.array([[p.epsilon], [np.conj(p.epsilon)]], dtype=complex)
    if s.shape[-1] < _PIPELINE_MIN_TRAJ:
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


def _mean_and_stderr(values: np.ndarray):
    # values: (..., n) complex over trajectories; stderr is packed with the
    # real part's standard error in .real and the imaginary part's in .imag.
    n = values.shape[-1]
    mean = values.mean(axis=-1)
    if n < 2:
        se = np.zeros_like(mean)
    else:
        se = (values.real.std(axis=-1, ddof=1)
              + 1j * values.imag.std(axis=-1, ddof=1)) / np.sqrt(n)
    return mean, se


def _pair_moments(rows, b: int) -> tuple:
    # The (6, 6) means of x[i] * x[j] over the columns of x and their
    # stderr, where rows(lo, hi) returns x[lo:hi], for b columns j at a
    # time: each block x[lo:lo+b] is taken once, and each row outside it
    # once per block.  Each product row reduces as the same row of the
    # (6, 6, n) product would.  Every [i, j] is computed: the SIMD complex
    # multiply is not bitwise commutative, so mirroring [i, j] into [j, i]
    # would change the last bits.
    mean, se = np.empty((2, 6, 6), complex)
    for lo in range(0, 6, b):
        block = rows(lo, lo + b)
        for i in range(6):
            row = block[i - lo] if lo <= i < lo + b else rows(i, i + 1)[0]
            mean[i, lo:lo + b], se[i, lo:lo + b] = _mean_and_stderr(
                row * block)
    return mean, se


def _moments(v: np.ndarray, alive: np.ndarray | None = None) -> tuple:
    """Means, pair products and fluctuation covariance of the columns of the
    (6, n) doubled state v that the mask alive keeps (all by default), each
    followed by its stderr; products are taken one block of rows at a
    time, of at most _SAMPLE_BYTES or else one row."""
    n = v.shape[1] if alive is None else int(np.count_nonzero(alive))
    if n == 0:
        raise ExcessiveDivergence("all trajectories diverged")
    b = max(1, min(6, _SAMPLE_BYTES // (16 * n)))

    def live(lo: int, hi: int) -> np.ndarray:
        # a C-ordered copy (unlike [:, alive]): rows sum in the same order
        return v[lo:hi] if alive is None else v[lo:hi].compress(alive, axis=1)

    means, means_se = np.empty((2, 6), complex)
    for lo in range(0, 6, b):
        means[lo:lo + b], means_se[lo:lo + b] = _mean_and_stderr(
            live(lo, lo + b))

    def deviations(lo: int, hi: int) -> np.ndarray:
        return live(lo, hi) - means[lo:hi, None]

    return (means, means_se, *_pair_moments(live, b),
            *_pair_moments(deviations, b))


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


def run_ensemble(p: SystemParams, dt: float = 1e-4, t_end: float = 50.0,
                 n_traj: int = 1000, seed: int = 0,
                 initial: FieldState | None = None,
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
                samples.append(_moments(s.reshape(6, n_traj),
                                        None if alive.all() else alive))
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
