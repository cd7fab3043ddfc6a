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
the halves swapped and the pump conjugated, so each model.half_drift term
is one array operation over both halves.

Reproducibility contract: the generator is counter-based (Philox keyed by
the seed) and the run consumes one (4, n_traj) block of standard normals per
time step, rows ordered as the noises on (alpha_1, alpha_1_plus, alpha_2,
alpha_2_plus).  Identical seed and settings give bit-identical results.
Blocks are drawn _CHUNK_STEPS steps per generator call, which yields the
same stream as one call per step.  Ensembles of at least _PIPELINE_MIN_TRAJ
trajectories, on a host with two or more usable cores, draw the next chunk
on one worker thread while the main thread integrates the current one.
Only that thread calls the generator, with the same calls in the same order
as the serial path, so the stream and every result are unchanged.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .model import (FieldState, SystemParams, half_drift, noise_variances,
                    validate_params)

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
# Ensemble width from which the noise is drawn on a worker thread.  Handing a
# chunk to and from the thread costs about the same at any width, while the
# draw it hides grows with the width (Philox fills the chunk without the GIL,
# and a wide step's ufuncs release it too).  Medians of 6 to 10 alternating
# runs per width and pass, regime 1, 2-core shared host, pipelined against
# serial in scaled us per step, ranges over passes: 82-96 vs 79-90 at 300,
# 124-129 vs 117-127 at 500, 156-167 vs 147-156 at 700, 153-216 vs 194-210 at
# 1000, 301-462 vs 413-455 at 2000 trajectories.  Below 1000 the thread never
# paid; from 1000 it pays while the second core is free and costs at most 7%
# when it is not.
_PIPELINE_MIN_TRAJ = 1000
# Steps of noise drawn by one generator call, as one (m, 4, n_traj) array.
# The generator keeps no state between calls but its Philox counter, so a
# chunk holds exactly the blocks that m calls of (4, n_traj) would return.
# A block per call woke the worker at every step, and each late wake-up on
# a shared host stalled the main thread.  Eight alternating runs of the
# 10^4-trajectory benchmark workload on a 2-core host: throughput quartiles
# spread by 13% of the median drawing per step, 10% drawing 8 steps per
# call, at equal medians.  Two 8-step buffers take 5 MB at 10^4 trajectories.
_CHUNK_STEPS = 8


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


@contextmanager
def _noise_blocks(rng: np.random.Generator, n_traj: int, n_steps: int):
    """The run's n_steps (4, n_traj) standard-normal blocks, in stream order.

    They are drawn _CHUNK_STEPS steps per generator call into reused
    buffers, so a block is valid only until the next one is taken.  Wide
    ensembles on a multi-core host fill one buffer on a worker thread while
    the caller works through the other; the thread is joined on exit, also
    when the caller raises.
    """
    sizes = [min(_CHUNK_STEPS, n_steps - start)
             for start in range(0, n_steps, _CHUNK_STEPS)]
    pipelined = n_traj >= _PIPELINE_MIN_TRAJ and _usable_cores() >= 2
    buffers = np.empty((2 if pipelined else 1, _CHUNK_STEPS, 4, n_traj))

    def fill(c: int) -> np.ndarray:
        return rng.standard_normal(out=buffers[c % len(buffers), :sizes[c]])

    if not pipelined:
        yield (block for c in range(len(sizes)) for block in fill(c))
        return
    with ThreadPoolExecutor(max_workers=1) as worker:
        def ahead():
            pending = worker.submit(fill, 0)
            for c in range(len(sizes)):
                chunk = pending.result()
                if c + 1 < len(sizes):
                    # into the buffer of chunk c - 1, which is used up
                    pending = worker.submit(fill, c + 1)
                yield from chunk

        yield ahead()


def _apply_step(s: np.ndarray, e: np.ndarray, p: SystemParams, dt: float,
                noise: np.ndarray) -> None:
    # In-place Euler-Maruyama update of the state s, e the halves' pumps;
    # noise coefficients use the pre-step state (Ito reading, which the
    # equations' form makes equivalent to Stratonovich for these moments).
    kicks = [np.sqrt(v) * w for v, w in
             zip(noise_variances(s, p), np.sqrt(dt) * noise.reshape(2, 2, -1))]
    for row, drift in zip(s, half_drift(s, s[:, ::-1], e, p)):
        drift *= dt
        row += drift
    for row, kick in zip(s, kicks):
        row += kick


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


@dataclass(frozen=True)
class EnsembleMoments:
    """Ensemble statistics at the sampled times.

    means holds the six doubled amplitudes (a1, a1+, a2, a2+, a3, a3+) per
    sample time; second_doubled the full symmetric matrix of pair products
    of the doubled vector, which contains every normally ordered pair:
    <a_i a_j> at [2i, 2j], <a_i+ a_j> at [2i+1, 2j], <a_i+ a_j+> at
    [2i+1, 2j+1] (zero-based mode offsets).  fluct_cov is the sample
    covariance of the doubled vector (products of deviations from the
    ensemble mean), directly comparable to the linearized stationary
    covariance.  All stderr arrays pack SE(real) + 1j SE(imag).
    """

    n_traj: int
    dt: float
    seed: int
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

    def number_moment(self, i: int, j: int, t_index: int = -1) -> complex:
        """<alpha_i+ alpha_j> at a sample time (modes 1-based)."""
        return complex(self.second_doubled[t_index, 2 * (i - 1) + 1, 2 * (j - 1)])


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
    sample_steps = sorted({min(n_steps, max(1, int(round(ts / dt))))
                           for ts in (0.5 * t_end, 0.75 * t_end, t_end)})
    t_grid = np.array([s * dt for s in sample_steps])

    if initial is None:
        initial = FieldState.vacuum()
    s = np.tile(initial.doubled().reshape(3, 2, 1), (1, 1, n_traj))
    e = np.array([[p.epsilon], [np.conj(p.epsilon)]], dtype=complex)  # (2, 1)
    alive = np.ones(n_traj, dtype=bool)
    rng = make_rng(seed)

    n_samples = len(sample_steps)
    means, means_se = np.empty((2, n_samples, 6), dtype=complex)
    m2, m2_se, fcov, fcov_se = np.empty((4, n_samples, 6, 6), dtype=complex)

    def record(slot: int) -> None:
        # C-ordered, unlike [:, alive], so the means sum in the same order
        v = s.reshape(6, n_traj).compress(alive, axis=1)
        if v.shape[1] == 0:
            raise ExcessiveDivergence("all trajectories diverged")
        means[slot], means_se[slot] = _mean_and_stderr(v)
        prod = v[:, None, :] * v[None, :, :]
        m2[slot], m2_se[slot] = _mean_and_stderr(prod)
        w = v - means[slot][:, None]
        dev = w[:, None, :] * w[None, :, :]
        fcov[slot], fcov_se[slot] = _mean_and_stderr(dev)

    sample_iter = iter(enumerate(sample_steps))
    next_slot, next_step = next(sample_iter)
    with (np.errstate(invalid="ignore", over="ignore"),
          _noise_blocks(rng, n_traj, n_steps) as blocks):
        for step, noise in enumerate(blocks, start=1):
            _apply_step(s, e, p, dt, noise)
            if step % 200 == 0 or step == n_steps or step == next_step:
                # max propagates NaN, and NaN <= cap is False
                ok = np.abs(s).max(axis=(0, 1)) <= _AMPLITUDE_CAP
                newly_dead = alive & ~ok
                if newly_dead.any():
                    alive &= ok
                    # park escaped columns so they stop producing overflow
                    s[..., newly_dead] = 0
            if step == next_step:
                record(next_slot)
                next_slot, next_step = next(sample_iter, (None, -1))

    divergent = int(n_traj - alive.sum())
    result = EnsembleMoments(
        n_traj=n_traj, dt=dt, seed=seed, t_grid=t_grid,
        means=means, means_stderr=means_se,
        second_doubled=m2, second_doubled_stderr=m2_se,
        fluct_cov=fcov, fluct_cov_stderr=fcov_se,
        divergent=divergent)
    if strict and not result.reliable:
        raise ExcessiveDivergence(
            f"{divergent} of {n_traj} trajectories diverged")
    return result
