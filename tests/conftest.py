"""Shared fixtures: steady states, spectra grids and the large ensemble run.

Everything expensive is session-scoped so the full suite pays for each
computation once.  The flagship ensemble (10^4 trajectories, 50,000 steps)
takes about 45 s on a two-core host, over half of the suite, and is only
requested by the tests that need that statistical weight.
"""

import numpy as np
import pytest

from harmoniccascade import (
    REGIME_PRESETS,
    DriftDiffusion,
    default_omega_grid,
    evaluate_grid,
    lyapunov_covariance,
    require_steady_state,
    run_ensemble,
    spectrum_grid,
    summarize_grid,
)
from harmoniccascade.model import FieldState, doubled_drift


@pytest.fixture(scope="session")
def regime1():
    return REGIME_PRESETS[1]


@pytest.fixture(scope="session")
def regime2():
    return REGIME_PRESETS[2]


@pytest.fixture(scope="session")
def ss1(regime1):
    return require_steady_state(regime1)


@pytest.fixture(scope="session")
def ss2(regime2):
    return require_steady_state(regime2)


@pytest.fixture(scope="session")
def dd1(regime1, ss1):
    return DriftDiffusion.from_steady_state(regime1, ss1.state)


@pytest.fixture(scope="session")
def dd2(regime2, ss2):
    return DriftDiffusion.from_steady_state(regime2, ss2.state)


@pytest.fixture(scope="session")
def omega_grid():
    return default_omega_grid()


@pytest.fixture(scope="session")
def spectra1(regime1, dd1, omega_grid):
    return spectrum_grid(regime1, dd1, omega_grid)


@pytest.fixture(scope="session")
def spectra2(regime2, dd2, omega_grid):
    return spectrum_grid(regime2, dd2, omega_grid)


@pytest.fixture(scope="session")
def reports1(spectra1):
    return evaluate_grid(spectra1)


@pytest.fixture(scope="session")
def reports2(spectra2):
    return evaluate_grid(spectra2)


@pytest.fixture(scope="session")
def summary1(reports1):
    return summarize_grid(reports1)


@pytest.fixture(scope="session")
def summary2(reports2):
    return summarize_grid(reports2)


@pytest.fixture(scope="session")
def lyap1(dd1):
    return lyapunov_covariance(dd1.a_matrix, dd1.d_matrix)


@pytest.fixture(scope="session")
def lyap2(dd2):
    return lyapunov_covariance(dd2.a_matrix, dd2.d_matrix)


@pytest.fixture(scope="session")
def small_ensemble(regime1):
    # dt coarser than the flagship's 1e-3: the dt-halving test in
    # test_stochastic shows the Euler bias sits below one standard error.
    return run_ensemble(regime1, dt=2e-3, t_end=40.0, n_traj=600, seed=7)


@pytest.fixture(scope="session")
def flagship_ensemble(regime1):
    import time

    t0 = time.time()
    moments = run_ensemble(regime1, dt=1e-3, t_end=50.0, n_traj=10_000,
                           seed=20260822)
    return moments, time.time() - t0


def first_order_mean_shift(p, a_matrix, cov):
    """Stationary quantum correction to the mean field, A d = r.

    r collects the second-moment terms of the exact mean equations that the
    semiclassical factorization drops; cov is the stationary fluctuation
    covariance of the interleaved doubled vector.
    """
    r = np.array([
        p.kappa1 * cov[1, 2],
        p.kappa1 * cov[0, 3],
        p.kappa2 * cov[3, 4] - 0.5 * p.kappa1 * cov[0, 0],
        p.kappa2 * cov[2, 5] - 0.5 * p.kappa1 * cov[1, 1],
        -0.5 * p.kappa2 * cov[2, 2],
        -0.5 * p.kappa2 * cov[3, 3],
    ])
    return np.linalg.solve(a_matrix, r)


def interleaved_drift(v, p):
    """model.doubled_drift at the interleaved 6-vector v = (a1, a1+, a2, ...),
    interleaved the same way."""
    f = doubled_drift(v[0::2], v[1::2], p)
    return FieldState(alpha=f[:3], alpha_plus=f[3:]).doubled()


def fd_jacobian(p, state, h):
    """Centred differences of model.doubled_drift at a FieldState.

    Rows and columns follow the interleaved doubled basis (a1, a1+, a2, ...).
    The drift is holomorphic in the six amplitudes, so real steps give the
    complex derivative.
    """
    v0 = state.doubled()
    jac = np.empty((6, 6), dtype=complex)
    for col in range(6):
        step = np.zeros(6)
        step[col] = h
        jac[:, col] = (interleaved_drift(v0 + step, p)
                       - interleaved_drift(v0 - step, p)) / (2 * h)
    return jac
