import warnings

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_continuous_lyapunov

from conftest import fd_jacobian
from harmoniccascade import (
    REGIME_PRESETS,
    DriftDiffusion,
    FieldState,
    NonHermitianResidue,
    QuadCovariance,
    algebraic_steady_state,
    build_drift,
    default_omega_grid,
    lyapunov_covariance,
    require_steady_state,
    spectrum_grid,
)
from harmoniccascade.linearized import (_MODAL_COND_MAX, _QUAD_INV, _QUAD_MAP,
                                        _SYM, _entries, _pole_residues)

# Frozen eigenvalue sets at the preset operating points (sorted by real
# part, then imaginary part).
EIGENVALUES = {
    1: [0.41551206747888036 - 0.6580785317370799j,
        0.41551206747888036 + 0.6580785317370799j,
        0.7419927282965804,
        0.7714678360512321 - 0.639545083542923j,
        0.7714678360512321 + 0.639545083542923j,
        0.8840474646431954],
    2: [0.252952505084518,
        0.253562286000468,
        1.3932132102684442 - 0.6612089601075261j,
        1.3932132102684442 + 0.6612089601075261j,
        1.6035293941890618 - 0.7806715759435202j,
        1.6035293941890618 + 0.7806715759435202j],
}


# Self-pulsing thresholds of the presets.
THRESHOLDS = {1: 230.4, 2: 896.0}


def test_default_grid_shape():
    w = default_omega_grid()
    assert w.shape == (801,)
    assert w[0] == -20.0 and w[-1] == 20.0
    assert 0.0 in w


def test_default_grid_is_shared_read_only(regime1, dd1):
    # Without omegas spectrum_grid reads one read-only module grid, bit for
    # bit the grid default_omega_grid returns; that stays a fresh copy.
    default = spectrum_grid(regime1, dd1)
    explicit = spectrum_grid(regime1, dd1, default_omega_grid())
    assert default.omega.tobytes() == explicit.omega.tobytes()
    assert default.s_quad.matrix.tobytes() == explicit.s_quad.matrix.tobytes()
    assert not default.omega.flags.writeable
    w = default_omega_grid()
    assert w.flags.writeable and w is not default_omega_grid()
    w[0] = 1.0
    assert default_omega_grid()[0] == -20.0
    assert spectrum_grid(regime1, dd1).omega[0] == -20.0


@pytest.mark.parametrize("regime", [1, 2])
def test_drift_is_negated_jacobian(regime, request):
    p = REGIME_PRESETS[regime]
    ss = request.getfixturevalue(f"ss{regime}").state
    A = build_drift(p, ss)
    J = fd_jacobian(p, ss, h=1e-7)
    scale = np.abs(A).max()
    assert np.abs(A + J).max() / scale < 1e-6


def test_drift_jacobian_holds_off_manifold():
    # the doubled drift is polynomial in (alpha, alpha_plus) jointly, so the
    # identity is not restricted to conjugate pairs
    p = REGIME_PRESETS[1]
    s = FieldState(alpha=[40.0 + 1j, -10.0, -3.0],
                   alpha_plus=[38.0, -11.0 + 0.5j, -2.5])
    A = build_drift(p, s)
    J = fd_jacobian(p, s, h=1e-7)
    assert np.abs(A + J).max() / np.abs(A).max() < 1e-6


@pytest.mark.parametrize("regime", [1, 2])
def test_diffusion_structure(regime, request):
    p = REGIME_PRESETS[regime]
    ss = request.getfixturevalue(f"ss{regime}").state
    D = DriftDiffusion.from_steady_state(p, ss).d_matrix
    assert np.abs(D - np.diag(np.diag(D))).max() == 0
    assert D[0, 0] == p.kappa1 * ss.alpha[1]
    assert D[2, 2] == p.kappa2 * ss.alpha[2]
    assert D[4, 4] == 0 and D[5, 5] == 0
    # harmonics sit at negative amplitude here, so the phase-space diffusion
    # is negative on the diagonal; that is what squeezes below vacuum
    assert D[0, 0].real < 0 and D[2, 2].real < 0


@pytest.mark.parametrize("regime", [1, 2])
def test_stability_eigenvalues_frozen(regime, request):
    dd = request.getfixturevalue(f"dd{regime}")
    ev = np.linalg.eigvals(dd.a_matrix)
    # eig returns no fixed order, so match by distance
    pool = list(ev)
    for want in EIGENVALUES[regime]:
        k = int(np.argmin(np.abs(np.asarray(pool) - want)))
        assert abs(pool.pop(k) - want) < 3e-9
    assert ev.real.min() > 0


def test_instability_above_threshold(cond_calls):
    # Above threshold a drift eigenvalue has a negative real part.  A
    # DriftDiffusion built there, at a state require_steady_state refuses,
    # reaches spectrum_grid's two-solve route: the residues are not formed,
    # each frequency gets an exact condition number, and none warns.
    p = replace(REGIME_PRESETS[1], epsilon=260.0)
    ss = algebraic_steady_state(p)
    dd = DriftDiffusion.from_steady_state(p, ss)
    assert np.linalg.eigvals(dd.a_matrix).real.min() < 0
    w = default_omega_grid()
    cond_calls.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = spectrum_grid(p, dd, w).s_quad.matrix
    assert cond_calls == [len(w)]
    ref = _output_by_two_solves(p, dd, w)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.fixture
def cond_calls(monkeypatch):
    """Frequency counts of the resolvent stacks passed to np.linalg.cond."""
    calls = []
    cond = np.linalg.cond

    def spy(x, *args):
        if np.ndim(x) == 3:    # a single 6x6 matrix is cond(V)
            calls.append(len(x))
        return cond(x, *args)

    monkeypatch.setattr(np.linalg, "cond", spy)
    return calls


def _quad_pair(dd):
    """The real quadrature drift and diffusion (A_q, D_q) of dd."""
    return ((_QUAD_MAP @ dd.a_matrix @ _QUAD_INV).real,
            (_QUAD_MAP @ dd.d_matrix @ _QUAD_MAP.T).real)


def _intracavity(A, D, w):
    """M = S + S^T at each frequency of w (a scalar is one) for a real pair
    (A, D): the kernel of spectrum_grid, unscaled and with no vacuum."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    return _entries(A, D, w, np.ones(21))[:, _SYM]


def _two_solves(A, D, w):
    """(A + i w)^-1 D (A^T - i w)^-1 for each w, by two linear solves."""
    shift = 1j * np.asarray(w)[:, None, None] * np.eye(6)
    Y = np.linalg.solve(A + shift, D)
    return np.linalg.solve(A - shift, Y.mT).mT


def _output_by_two_solves(p, dd, w):
    """Output spectra over w from two solves per frequency in the doubled
    basis, moved to quadratures afterwards."""
    Sq = _QUAD_MAP @ _two_solves(dd.a_matrix, dd.d_matrix, w) @ _QUAD_MAP.T
    g = np.sqrt(np.repeat(p.gammas(), 2))
    return np.eye(6) + np.outer(g, g) * (Sq + Sq.mT).real


@given(regime=st.sampled_from([1, 2]),
       frac=st.floats(0.02, 0.97),
       phase=st.one_of(st.just(0.0), st.floats(-np.pi, np.pi)),
       omegas=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=8))
@example(regime=1, frac=105 / 230.4, phase=0.0, omegas=[0.0, 0.731, 4.2])
@settings(max_examples=30, deadline=None)
def test_intracavity_spectrum_matches_direct_inverse(regime, frac, phase, omegas):
    # Over the stable branch of both presets the modal S + S^T equals that of
    # the two-solve resolvent product; the output spectra are even in omega
    # for a real pump and respect the uncertainty bound.
    p = replace(REGIME_PRESETS[regime],
                epsilon=frac * THRESHOLDS[regime] * np.exp(1j * phase))
    dd = DriftDiffusion.from_steady_state(p, require_steady_state(p).state)
    A, D = _quad_pair(dd)
    w = np.concatenate([-np.array(omegas), omegas])
    M = _intracavity(A, D, w)
    S = _two_solves(A, D, w)
    ref = S + S.mT
    err = np.abs(M - ref).max(axis=(1, 2))
    assert np.all(err <= 1e-12 * np.abs(ref).max(axis=(1, 2)))
    out = spectrum_grid(p, dd, w).s_quad
    if phase == 0.0:
        n = len(omegas)
        assert np.abs(out.matrix[:n] - out.matrix[n:]).max() < 1e-10
    assert out.uncertainty_products().min() >= 1.0 - 1e-9


@given(regime=st.sampled_from([1, 2]),
       frac=st.floats(0.95, 0.9995),
       phase=st.one_of(st.just(0.0), st.floats(-np.pi, np.pi)))
@example(regime=1, frac=228.1 / 230.4, phase=0.0)
@example(regime=2, frac=880.0 / 896.0, phase=0.0)
@example(regime=1, frac=230.3 / 230.4, phase=0.0)
@example(regime=2, frac=0.9995, phase=0.0)
@settings(max_examples=20, deadline=None)
def test_near_threshold_spectra_are_real(regime, frac, phase):
    # Close to threshold the spectral peaks reach 1e5 and more.  In the
    # quadrature basis drift and diffusion are real for every classical
    # state (each 2x2 block pairs a number with its conjugate, so the
    # imaginary parts cancel exactly), so the default grid does not raise
    # NonHermitianResidue.  M is real by construction there, so nothing
    # checks its imaginary part: this holds the real route within 1e-11 of
    # the complex two-solve route in the doubled basis, up to 0.9995 of
    # threshold (at 0.9999 the difference reaches 1.35e-11).
    p = replace(REGIME_PRESETS[regime],
                epsilon=frac * THRESHOLDS[regime] * np.exp(1j * phase))
    dd = DriftDiffusion.from_steady_state(p, require_steady_state(p).state)
    assert not (_QUAD_MAP @ dd.a_matrix @ _QUAD_INV).imag.any()
    assert not (_QUAD_MAP @ dd.d_matrix @ _QUAD_MAP.T).imag.any()
    out = spectrum_grid(p, dd).s_quad.matrix
    ref = _output_by_two_solves(p, dd, default_omega_grid())
    assert np.abs(out - ref).max() <= 1e-11 * np.abs(ref).max()


def test_physical_near_defective_drift_takes_two_solves(cond_calls):
    # At regime 2's pump 57.176 two drift eigenvalues nearly meet, so the
    # default grid takes the two-solve route with its full-grid check.
    p = replace(REGIME_PRESETS[2], epsilon=57.176)
    dd = DriftDiffusion.from_steady_state(p, require_steady_state(p).state)
    assert np.linalg.cond(np.linalg.eig(dd.a_matrix)[1]) > _MODAL_COND_MAX
    cond_calls.clear()
    out = spectrum_grid(p, dd).s_quad.matrix
    assert cond_calls == [801]
    ref = _output_by_two_solves(p, dd, default_omega_grid())
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def _assert_matches_inverses(A, D, w, M):
    for k, wk in enumerate(w):
        S = (np.linalg.inv(A + 1j * wk * np.eye(6)) @ D
             @ np.linalg.inv(A.T - 1j * wk * np.eye(6)))
        ref = S + S.T
        assert np.abs(M[k] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_near_defective_drift_takes_two_solves(cond_calls):
    # A Jordan block split by 1e-10 has nearly parallel eigenvectors
    # (cond(V) ~ 1e10); the modal route would lose every digit there.
    A = np.diag([1.0, 1.0 + 1e-10, 2.0, 3.0, 4.0, 5.0])
    A[0, 1] = 1.0
    D = np.diag([1.0, -2.0, 3.0, 0.5, 0.0, 0.0])
    D[0, 2] = D[2, 0] = 0.3
    w = np.array([0.0, 0.7, -3.0])
    M = _intracavity(A, D, w)
    assert M.dtype == np.float64
    _assert_matches_inverses(A, D, w, M)
    # the fallback checks the condition number at every frequency
    assert cond_calls == [3]


def test_real_eigenvalues_take_the_modal_route(cond_calls):
    # A non-normal real A with distinct real eigenvalues: eig returns real
    # arrays, so every pole is its own conjugate and is summed once.
    A = np.diag([0.5, 1.0, 1.5, 2.0, 3.0, 4.0]) + np.triu(np.ones((6, 6)), 1)
    D = np.diag([1.0, -2.0, 3.0, 0.5, 0.0, 0.0])
    D[0, 2] = D[2, 0] = 0.3
    lam, V = np.linalg.eig(A)
    assert not np.iscomplexobj(lam) and not np.iscomplexobj(V)
    assert np.linalg.cond(V) <= _MODAL_COND_MAX
    w = np.array([0.0, 0.7, -3.0, 20.0])
    M = _intracavity(A, D, w)
    assert M.dtype == np.float64 and cond_calls == []
    _assert_matches_inverses(A, D, w, M)


def test_resolvent_warning_sees_non_normal_drift(cond_calls):
    # A real block with eigenvalues 1e-11 +- 0.5i, conjugated by a
    # non-normal V.  Eigenvalue distances alone bound cond(A + i omega) by
    # 6.1e11 at omega = +-0.5; the non-normal V (cond 43 as eig returns it)
    # lifts it to 3.0e12 at both.
    V = np.eye(6) + 2.0 * np.triu(np.ones((6, 6)), 1)
    B = np.diag([1e-11, 1e-11, 1.5, 2.0, 2.5, 3.0])
    B[0, 1], B[1, 0] = 0.5, -0.5
    A = V @ B @ np.linalg.inv(V)
    D = np.eye(6)
    w = np.linspace(-1.0, 1.0, 5)
    cond = np.linalg.cond(A + 1j * w[:, None, None] * np.eye(6))
    k = cond.argmax()
    assert k == 1 and np.flatnonzero(cond > 1e12).tolist() == [1, 3]
    cond_calls.clear()
    with pytest.warns(RuntimeWarning) as record:
        _intracavity(A, D, w)
    assert len(record) == 1
    assert str(record[0].message) == (
        f"ill-conditioned resolvent at omega={w[k]}: cond={cond[k]:.3e}")
    # Twice the scalar bound (1.1e15 here, as min Re l = 1e-11) clears no
    # frequency, so the exact check runs over the whole grid.  This pins the
    # mechanism, not a result: the warning above is the result.
    assert cond_calls == [5]


def test_singular_or_non_finite_input_raises():
    # a NaN frequency counts as suspect, and its exact check cannot converge
    A = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    D = np.eye(6)
    with pytest.raises(np.linalg.LinAlgError):
        _intracavity(A, D, np.array([0.0, np.nan, 1.0]))
    # an exactly singular resolvent warns, then raises as a solve would: a
    # real rotation block has eigenvalues +-i, so A + i omega is singular at
    # omega = +-1
    A[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
    w = np.array([-1.0, 1.0])
    cond = np.linalg.cond(A + 1j * w[:, None, None] * np.eye(6))
    with pytest.warns(RuntimeWarning) as record:
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            _intracavity(A, D, w)
    assert cond.min() > 1e15
    assert [str(r.message) for r in record] == [
        f"ill-conditioned resolvent at omega=-1.0: cond={cond[0]:.3e}"]
    A[0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _intracavity(A, D, 0.0)


@pytest.mark.parametrize("regime", [1, 2])
def test_default_grid_needs_no_exact_conditioning(regime, request, cond_calls):
    dd = request.getfixturevalue(f"dd{regime}")
    spectrum_grid(REGIME_PRESETS[regime], dd)
    assert cond_calls == []


@given(regime=st.sampled_from([1, 2]),
       frac=st.floats(0.02, 0.9995),
       phase=st.one_of(st.just(0.0), st.floats(-np.pi, np.pi)))
@example(regime=1, frac=0.9995, phase=0.0)
@example(regime=2, frac=0.9995, phase=0.0)
@example(regime=2, frac=0.0622967006854159, phase=1.0)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_scalar_bound_covers_every_frequency(regime, frac, phase, cond_calls):
    # max_j|l_j + i omega| / min_j|l_j + i omega| <= 1 + max|l_j - l_k| /
    # min Re l_j at every omega of the default grid, and over both stable
    # branches twice cond(V)^2 times that stays below 1e12, so the modal
    # route computes no exact condition number.
    p = replace(REGIME_PRESETS[regime],
                epsilon=frac * THRESHOLDS[regime] * np.exp(1j * phase))
    dd = DriftDiffusion.from_steady_state(p, require_steady_state(p).state)
    lam, V = np.linalg.eig(_quad_pair(dd)[0])
    assume(np.linalg.cond(V) <= _MODAL_COND_MAX)    # else two solves are used
    spread = np.abs(lam[:, None] - lam).max()
    dist = np.abs(lam + 1j * default_omega_grid()[:, None])
    # The bound's two steps, max <= min + spread and min >= min Re l_j.  The
    # first is an equality at omega = 0 when the largest and smallest
    # eigenvalues are real; checked as one product it can miss by an ulp.
    assert np.all(dist.max(axis=1) - dist.min(axis=1) <= spread)
    assert np.all(dist.min(axis=1) >= lam.real.min())
    cond_calls.clear()
    spectrum_grid(p, dd)
    assert cond_calls == []


@pytest.mark.parametrize("regime", [1, 2])
@pytest.mark.parametrize("phase", [0.0, 0.3])
def test_folded_poles_real_symmetric_and_pointwise(regime, phase):
    # One pole of each conjugate pair carries both: the output is float64
    # and exactly symmetric, and each grid item equals the one-point result
    # bit for bit, for a real and a complex pump.
    p = replace(REGIME_PRESETS[regime],
                epsilon=REGIME_PRESETS[regime].epsilon * np.exp(1j * phase))
    dd = DriftDiffusion.from_steady_state(p, require_steady_state(p).state)
    w = np.array([-20.0, -0.4, 0.0, 3.1, 20.0])
    out = spectrum_grid(p, dd, w).s_quad.matrix
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, out.mT)
    for k, wk in enumerate(w):
        np.testing.assert_array_equal(spectrum_grid(p, dd, wk).s_quad.matrix,
                                      out[k])
    assert _intracavity(*_quad_pair(dd), w).dtype == np.float64


def test_eigenvalue_on_imaginary_axis_takes_two_solves():
    # A real rotation block has eigenvalues +-i, so l_j + l_k = 0 for that
    # pair and the residues are undefined; the resolvent is regular at
    # omega = 0 and 2, so two solves give a finite M there, without warning.
    A = np.diag([0.0, 0.0, 3.0, 4.0, 5.0, 6.0])
    A[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
    D = np.eye(6)
    D[0, 2] = D[2, 0] = 0.3
    w = np.array([0.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        M = _intracavity(A, D, w)
    S = _two_solves(A, D, w)
    ref = (S + S.mT).real
    assert np.isfinite(M).all()
    assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()


def test_ill_conditioned_resolvent_warns():
    A = np.diag([1e-13, 1.0, 1.0, 1.0, 1.0, 1.0])
    D = np.eye(6)
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        _intracavity(A, D, 0.0)
    # a grid warns once, naming its worst frequency
    with pytest.warns(RuntimeWarning) as record:
        _intracavity(A, D, np.array([-1.0, 0.0, 2.0]))
    assert len(record) == 1
    assert "omega=0.0:" in str(record[0].message)


@pytest.mark.parametrize("regime", [1, 2])
def test_spectra_symmetric_in_omega(regime, request):
    spectra = request.getfixturevalue(f"spectra{regime}")
    n = len(spectra)
    for k in range(n // 2):
        d = np.abs(spectra[k].s_quad.matrix - spectra[n - 1 - k].s_quad.matrix)
        assert d.max() < 1e-10


@pytest.mark.parametrize("regime", [1, 2])
def test_xy_cross_blocks_vanish_for_real_pump(regime, request):
    spectra = request.getfixturevalue(f"spectra{regime}")
    xi, yi = [0, 2, 4], [1, 3, 5]    # X1, X2, X3 and Y1, Y2, Y3
    worst = max(np.abs(s.s_quad.matrix[np.ix_(xi, yi)]).max() for s in spectra)
    assert worst < 1e-10


@pytest.mark.parametrize("regime", [1, 2])
def test_uncertainty_products_respect_heisenberg(regime, request):
    spectra = request.getfixturevalue(f"spectra{regime}")
    worst = min(s.s_quad.uncertainty_products().min() for s in spectra)
    assert worst >= 1.0 - 1e-9


def test_vacuum_limit_output_is_identity():
    p = replace(REGIME_PRESETS[1], epsilon=1e-300)
    ss = FieldState.vacuum()
    dd = DriftDiffusion.from_steady_state(p, ss)
    out = spectrum_grid(p, dd, [0.0, 1.5, -20.0])
    assert np.abs(out.s_quad.matrix - np.eye(6)).max() < 1e-12


def test_output_spectrum_rejects_imaginary_residue(dd1):
    D_bad = dd1.d_matrix.copy()
    D_bad[0, 0] = 1j * abs(D_bad[0, 0])    # breaks the conjugate pairing
    with pytest.raises(NonHermitianResidue):
        spectrum_grid(REGIME_PRESETS[1], replace(dd1, d_matrix=D_bad), 0.3)


def test_spectrum_grid_carries_frequencies(regime1, dd1):
    omegas = np.array([-1.0, 0.0, 2.5])
    out = spectrum_grid(regime1, dd1, omegas)
    assert len(out) == 3
    assert [s.omega for s in out] == [-1.0, 0.0, 2.5]
    # an int gives one frequency, counted from the end when negative
    last = out[-1]
    assert last.omega == 2.5
    np.testing.assert_array_equal(last.s_quad.matrix, out.s_quad.matrix[2])
    with pytest.raises(IndexError):
        out[3]
    # a slice gives a sub-grid
    sub = out[1:]
    assert len(sub) == 2
    np.testing.assert_array_equal(sub.omega, [0.0, 2.5])
    np.testing.assert_array_equal(sub.s_quad.matrix, out.s_quad.matrix[1:])
    # a scalar omega is the one-point case and the same code
    one = spectrum_grid(regime1, dd1, 2.5)
    assert one.omega == 2.5 and np.ndim(one.omega) == 0
    with pytest.raises(TypeError):
        list(one)
    np.testing.assert_array_equal(out[2].s_quad.matrix, one.s_quad.matrix)
    # items are plain dataclasses
    vac = replace(out[0], s_quad=QuadCovariance(omega=-1.0, matrix=np.eye(6)))
    assert vac.omega == -1.0
    np.testing.assert_array_equal(vac.s_quad.matrix, np.eye(6))


@pytest.mark.parametrize("regime,epsilon", [
    pytest.param(1, 105.0, id="1"), pytest.param(2, 105.0, id="2"),
    # two drift eigenvalues meet near here: cond(V) is 1e5, and a covariance
    # from the eigenbasis misses this bound by a factor of hundreds or more
    pytest.param(2, 57.1757744, id="2-near-defective")])
def test_lyapunov_solution_solves_the_equation(regime, epsilon):
    p = replace(REGIME_PRESETS[regime], epsilon=epsilon)
    dd = DriftDiffusion.from_steady_state(p, require_steady_state(p).state)
    C = lyapunov_covariance(dd.a_matrix, dd.d_matrix)
    resid = np.abs(dd.a_matrix @ C + C @ dd.a_matrix.T - dd.d_matrix).max()
    assert resid < 1e-10 * max(1.0, np.abs(dd.d_matrix).max())


def _whole_line_rule():
    """Nodes and weights for the integral of f(omega) over the real line.

    omega = tan(theta) maps it onto (-pi/2, pi/2) with no tail cut off; each
    of 800 equal theta panels takes 8-point Gauss-Legendre.
    """
    edges = np.linspace(-np.pi / 2, np.pi / 2, 801)
    x, w = np.polynomial.legendre.leggauss(8)
    half = 0.5 * np.diff(edges)[:, None]
    theta = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half * x
    return np.tan(theta).ravel(), (half * w / np.cos(theta) ** 2).ravel()


@pytest.mark.parametrize("regime", [1, 2])
@given(frac=st.floats(0.02, 0.97),
       phase=st.one_of(st.just(0.0), st.floats(-np.pi, np.pi)))
@example(frac=105 / 230.4, phase=0.0)
@example(frac=105 / 896.0, phase=0.0)
@settings(max_examples=20, deadline=None)
def test_spectrum_integral_recovers_lyapunov(regime, frac, phase):
    # (1/2pi) integral of S + S^T over all omega is C + C^T, C the stationary
    # covariance, over the stable branch of both presets up to 0.97 of
    # threshold.  There the rule stays within 6.2e-11 of max|C|; nearer
    # threshold the spectral peaks narrow past what 800 panels resolve (the
    # residue sum rule below covers that range exactly).
    p = replace(REGIME_PRESETS[regime],
                epsilon=frac * THRESHOLDS[regime] * np.exp(1j * phase))
    dd = DriftDiffusion.from_steady_state(p, require_steady_state(p).state)
    A, D = _quad_pair(dd)
    C = lyapunov_covariance(A, D)
    omega, weight = _whole_line_rule()
    M = _intracavity(A, D, omega)
    integral = np.tensordot(weight, M, axes=1) / (2 * np.pi)
    assert np.abs(integral - (C + C.T)).max() <= 1e-9 * np.abs(C).max()


@given(regime=st.sampled_from([1, 2]),
       frac=st.floats(0.02, 0.998),
       phase=st.one_of(st.just(0.0), st.floats(-np.pi, np.pi)))
@example(regime=1, frac=0.998, phase=0.0)
@example(regime=1, frac=0.998, phase=2.0)
@example(regime=2, frac=0.998, phase=0.0)
@example(regime=2, frac=0.998, phase=-1.0)
@settings(max_examples=30, deadline=None)
def test_pole_residues_sum_to_lyapunov(regime, frac, phase):
    # Each pole weight 2 l / (l^2 + omega^2) integrates to 1 over
    # d omega / 2 pi, so the six residues of M sum to C + C^T exactly: the
    # integral check above without quadrature, up to 0.998 of threshold.
    # The residues are those the library uses, in the quadrature basis.
    p = replace(REGIME_PRESETS[regime],
                epsilon=frac * THRESHOLDS[regime] * np.exp(1j * phase))
    dd = DriftDiffusion.from_steady_state(p, require_steady_state(p).state)
    A, D = _quad_pair(dd)
    lam, V = np.linalg.eig(A)
    assume(np.linalg.cond(V) <= _MODAL_COND_MAX)    # else two solves are used
    C = lyapunov_covariance(A, D)
    total = _pole_residues(lam, V, D, slice(None)).sum(axis=0)[_SYM]
    assert np.abs(total - (C + C.T)).max() <= 1e-10 * np.abs(C).max()


@pytest.mark.parametrize("regime", [1, 2])
def test_output_spectra_exactly_symmetric(regime, request):
    out = request.getfixturevalue(f"spectra{regime}").s_quad.matrix
    np.testing.assert_array_equal(out, out.mT)


def test_fallback_output_symmetric_and_pointwise(cond_calls):
    # The two-solve route (regime 2 at pump 57.176) is symmetric exactly as
    # well, and each grid item equals the one-point result bit for bit.
    p = replace(REGIME_PRESETS[2], epsilon=57.176)
    dd = DriftDiffusion.from_steady_state(p, require_steady_state(p).state)
    out = spectrum_grid(p, dd)
    assert cond_calls == [801]    # the fallback's full-grid check
    np.testing.assert_array_equal(out.s_quad.matrix, out.s_quad.matrix.mT)
    for k in (0, 137, 400, 800):
        one = spectrum_grid(p, dd, out.omega[k])
        np.testing.assert_array_equal(one.s_quad.matrix, out.s_quad.matrix[k])


def test_lyapunov_matches_scipy_oracle_and_phase_gauge(dd1):
    C_real = lyapunov_covariance(dd1.a_matrix, dd1.d_matrix)
    # On the real preset state scipy's Hermitian-convention solver applies
    # and serves as the oracle for the 36x36 linear system.
    assert np.isrealobj(dd1.a_matrix) or not dd1.a_matrix.imag.any()
    C_scipy = solve_continuous_lyapunov(dd1.a_matrix.real, dd1.d_matrix.real)
    np.testing.assert_allclose(C_real, C_scipy, rtol=1e-12, atol=1e-12)
    # phase-rotated pump: the steady state leaves the real axis
    p = replace(REGIME_PRESETS[1], epsilon=105.0 * np.exp(0.3j))
    ss = algebraic_steady_state(p)
    dd = DriftDiffusion.from_steady_state(p, ss)
    C_rot = lyapunov_covariance(dd.a_matrix, dd.d_matrix)
    resid = np.abs(dd.a_matrix @ C_rot + C_rot @ dd.a_matrix.T - dd.d_matrix).max()
    assert resid < 1e-10 * max(1.0, np.abs(dd.d_matrix).max())
    # the phase rotation is a gauge move; number-like moments are unchanged
    assert abs(C_rot[0, 1] - C_real[0, 1]) < 1e-8
