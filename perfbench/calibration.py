"""Host-speed calibration for the end-to-end timings.

The 2-core box this benchmark was written on shares its host: the same
fixed computation ran 20-40% slower in some minutes than in others, and
10-20% slower for a few seconds at a time, with no steal time recorded.
Raw medians of runs a few minutes apart moved by 15-36%, more than any
useful regression bound.  A fixed kernel that uses no package code is timed
before every round of operations.  Each operation's time is multiplied by
``REFERENCE_MS`` / (median kernel time around it), which reports it as if
the host ran at the speed where the kernel takes ``REFERENCE_MS``.  Setup
times, measured before the operations, take the factor of the whole run.
The raw timings and the kernel samples are kept in the result file.

The kernel mixes the kinds of work the workloads do: 6x6 complex solves
(the spectrum grid), elementwise complex arithmetic and Philox draws on
(4, 10^4) arrays (the ensemble), and 17-digit float formatting (the CSVs).
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

# Median kernel time on the development box (2 vCPUs, x86_64).
REFERENCE_MS = 10.0

_rng = np.random.default_rng(20261017)
_MATS = _rng.standard_normal((25, 6, 6)) + 4.0 * np.eye(6) + 0.5j
_RHS = _rng.standard_normal((6, 6)) + 0j
_ARR = _rng.standard_normal((4, 10_000)) + 1j
_FLOATS = _rng.standard_normal(1000).tolist()


def kernel_ms() -> float:
    t0 = time.perf_counter()
    for m in _MATS:
        np.linalg.solve(m, _RHS)
    rng = np.random.Generator(np.random.Philox(key=7))
    for _ in range(4):
        z = rng.standard_normal((4, 10_000))
        np.sqrt(_ARR * z) * _ARR + z
    ",".join(f"{x:.17g}" for x in _FLOATS)
    return (time.perf_counter() - t0) * 1e3


class Calibration:
    """Kernel samples taken through a run, one before each round of
    operations and one after the last."""

    def __init__(self, calls_per_sample: int) -> None:
        self.calls = calls_per_sample
        self.samples: list[list[float]] = []

    def sample(self) -> None:
        self.samples.append([kernel_ms() for _ in range(self.calls)])

    def factor(self, k: int | None = None, width: int = 3) -> float:
        """Scale for a timing of round k: REFERENCE_MS over the median kernel
        time from ``width`` rounds before it to ``width`` rounds after; for
        the whole run when k is None.

        The host's speed drifts within seconds as well as minutes; a local
        window follows it while pooling enough kernel calls to average out
        the noise of a single call.
        """
        window = (self.samples if k is None
                  else self.samples[max(0, k - width): k + width + 2])
        return REFERENCE_MS / statistics.median(
            itertools.chain.from_iterable(window))
