import importlib
import pkgutil

import numpy as np
import pytest

import harmoniccascade
from harmoniccascade import (
    FieldState,
    NonHermitianResidue,
    NonPositiveRate,
    QuadCovariance,
    SystemParams,
    validate_params,
)
from harmoniccascade.linearized import _QUAD_MAP


def test_quad_indices_interleave():
    # basis (X1, Y1, X2, Y2, X3, Y3): a diagonal of distinct values shows
    # which row variance reads for each label and mode
    q = QuadCovariance(omega=0.0, matrix=np.diag(np.arange(6.0)))
    assert [q.variance("X", m) for m in (1, 2, 3)] == [0, 2, 4]
    assert [q.variance("Y", m) for m in (1, 2, 3)] == [1, 3, 5]
    for label, mode in (("X", 0), ("Y", 4)):
        with pytest.raises(ValueError, match="mode must be 1, 2 or 3"):
            q.variance(label, mode)
    with pytest.raises(ValueError, match="label"):
        q.variance("Z", 1)


def test_validate_params_accepts_reference_regime():
    p = SystemParams(kappa1=5e-3, kappa2=2e-2, epsilon=105.0,
                     gamma1=1.0, gamma2=0.5, gamma3=0.5)
    assert validate_params(p) is None
    np.testing.assert_array_equal(p.gammas(), [1.0, 0.5, 0.5])


@pytest.mark.parametrize("field", ["kappa1", "kappa2", "gamma1", "gamma2",
                                   "gamma3", "epsilon"])
def test_validate_params_rejects_nonpositive_rates(field):
    base = dict(kappa1=5e-3, kappa2=2e-2, epsilon=105.0,
                gamma1=1.0, gamma2=0.5, gamma3=0.5)
    # the pump may be zero or negative, but like every rate must be finite
    bad = ((np.nan, np.inf, complex(105.0, np.nan), complex(0.0, -np.inf))
           if field == "epsilon" else (0.0, -1.0, np.nan, np.inf))
    for value in bad:
        base[field] = value
        with pytest.raises(NonPositiveRate, match=field):
            validate_params(SystemParams(**base))


def test_validate_params_requires_unit_gamma1():
    p = SystemParams(kappa1=5e-3, kappa2=2e-2, epsilon=105.0,
                     gamma1=2.0, gamma2=1.0, gamma3=1.0)
    with pytest.raises(NonPositiveRate):
        validate_params(p)


def test_field_state_doubled_round_trip():
    a = np.array([1 + 2j, -3.0, 0.5j])
    s = FieldState(alpha=a, alpha_plus=2 * a)
    v = s.doubled()
    assert v.shape == (6,)
    np.testing.assert_array_equal(v[0::2], a)
    np.testing.assert_array_equal(v[1::2], 2 * a)


def test_field_state_classical_and_vacuum():
    s = FieldState.classical([1 + 1j, -2.0, 3j])
    np.testing.assert_array_equal(s.alpha_plus, np.conj(s.alpha))
    v = FieldState.vacuum()
    assert np.all(v.alpha == 0) and np.all(v.alpha_plus == 0)


def test_field_state_arrays_are_immutable():
    s = FieldState.vacuum()
    with pytest.raises(ValueError):
        s.alpha[0] = 1.0


def test_mean_quadratures_real_on_manifold():
    # the quadrature map the spectra use, applied to a state's amplitudes
    s = FieldState.classical([2 + 1j, -1.0, 0.25j])
    q = _QUAD_MAP @ s.doubled()
    assert np.abs(q.imag).max() < 1e-15
    assert q[0].real == pytest.approx(4.0)   # X1 = a + a*
    assert q[1].real == pytest.approx(2.0)   # Y1 = -i(a - a*)


def test_quad_covariance_vacuum_identity():
    v = QuadCovariance(omega=0.0, matrix=np.eye(6))
    np.testing.assert_array_equal(v.matrix, np.eye(6))
    assert v.variance("X", 1) == 1.0
    assert v.variance("Y", 3) == 1.0
    np.testing.assert_allclose(v.uncertainty_products(), np.ones(3))


def test_quad_covariance_variance_over_a_stack():
    stack = np.stack([np.diag(np.arange(1.0, 7.0)) * k for k in (1, 2, 3)])
    c = QuadCovariance(omega=np.arange(3.0), matrix=stack)
    np.testing.assert_array_equal(c.variance("X", 1), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(c.variance("Y", 3), [6.0, 12.0, 18.0])
    np.testing.assert_array_equal(c.uncertainty_products()[:, 1],
                                  c.variance("X", 2) * c.variance("Y", 2))
    for label in ("x", "y", "P", ""):
        with pytest.raises(ValueError, match="label"):
            c.variance(label, 1)


def test_public_names_resolve():
    # `from harmoniccascade[.module] import *` fails on any stale __all__ entry
    modules = [harmoniccascade] + [
        importlib.import_module(f"harmoniccascade.{info.name}")
        for info in pkgutil.iter_modules(harmoniccascade.__path__)]
    assert len(modules) >= 7    # the package and each of its modules
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_quad_covariance_rejects_asymmetry():
    # Every asymmetry is refused, down to one ulp: nothing is averaged away.
    for upper, lower in ((1e-6, 0.0), (1e-12, 0.0),
                         (np.nextafter(0.3, 1.0), 0.3)):
        m = np.eye(6)
        m[0, 1], m[1, 0] = upper, lower
        with pytest.raises(NonHermitianResidue, match="not exactly symmetric"):
            QuadCovariance(omega=0.0, matrix=m)
        # in a stack, one asymmetric matrix is enough
        with pytest.raises(NonHermitianResidue):
            QuadCovariance(omega=np.zeros(3),
                           matrix=np.stack([np.eye(6), m, np.eye(6)]))
        m[1, 0] = upper    # exactly symmetric: kept as is
        assert QuadCovariance(omega=0.0, matrix=m).matrix.tobytes() == (
            m.tobytes())


def test_quad_covariance_rejects_wrong_shape():
    with pytest.raises(ValueError):
        QuadCovariance(omega=0.0, matrix=np.eye(4))
    stack = np.stack([np.eye(6)] * 3)
    ok = QuadCovariance(omega=np.arange(3.0), matrix=stack)
    assert ok.matrix.shape == (3, 6, 6)
    for omega in (0.0, np.arange(2.0)):   # one frequency per matrix
        with pytest.raises(ValueError):
            QuadCovariance(omega=omega, matrix=stack)
