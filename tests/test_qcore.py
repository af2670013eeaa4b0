import warnings

import numpy as np
import pytest

from disentsim import qcore
from disentsim.bases import SIGMA_Z, bloch_matrix, reduced_state_a
from disentsim.qcore import (
    DimensionError,
    PSDViolationError,
    QuantumState,
    expectation,
)

from conftest import BELL


def test_partial_trace_product_state(rng):
    rho_a = qcore.random_density_matrix(2, rng)
    rho_b = qcore.random_density_matrix(2, rng)
    st = QuantumState.mixed(np.kron(rho_a, rho_b))
    assert np.abs(reduced_state_a(bloch_matrix(st)) - rho_a).max() < 1e-12


def test_partial_trace_bell_and_basis():
    st = QuantumState.pure(BELL)
    assert np.abs(reduced_state_a(bloch_matrix(st)) - np.eye(2) / 2).max() < 1e-12
    basis = QuantumState.pure([1, 0, 0, 0])
    assert np.abs(reduced_state_a(bloch_matrix(basis)) - np.diag([1.0, 0.0])).max() < 1e-12


def test_partial_trace_preserves_trace(rng):
    rho = qcore.random_density_matrix(4, rng)
    st = QuantumState.mixed(rho)
    assert abs(np.trace(reduced_state_a(bloch_matrix(st))).real - 1.0) < 1e-12


def test_expectation_cases():
    rho = np.eye(2) / 2
    assert abs(expectation(rho, SIGMA_Z)) < 1e-14
    up = np.zeros((2, 2)); up[0, 0] = 1.0
    assert abs(expectation(up, SIGMA_Z) - 1.0) < 1e-14
    st = QuantumState.pure(BELL)
    assert abs(expectation(st, np.kron(SIGMA_Z, SIGMA_Z)) - 1.0) < 1e-12


def test_expectation_dimension_mismatch():
    with pytest.raises(DimensionError):
        expectation(np.eye(2) / 2, np.eye(4))


def test_quantum_state_validation(rng):
    with pytest.raises(ValueError):
        QuantumState.pure([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        QuantumState.mixed(np.eye(4))
    with pytest.raises(PSDViolationError):
        QuantumState.mixed(np.diag([1.5, -0.5, 0.0, 0.0]))
    with pytest.raises(DimensionError):
        QuantumState.pure(qcore.random_pure_state(9, rng))
    for rho in (np.eye(9) / 9, np.eye(2) / 2):
        with pytest.raises(DimensionError):
            QuantumState.mixed(rho)


# The floor-clamped logs that floored_log replaced, kept as the reference it
# must reproduce bit for bit.  Each takes an ascending spectrum, as eigh and
# eigvalsh return it.


def _ref_clamped_log(w, floor):  # the one-matrix clamp spectral_log used
    wmax = float(np.max(w)) if w.size else 0.0
    cut = floor * (wmax if wmax > 0.0 else 1.0)
    return np.log(np.maximum(w, cut))


def _ref_neg_x_log_x(w, floor):  # the entropy sum entanglement_l used
    wmax = float(np.max(w)) if w.size else 0.0
    cut = floor * (wmax if wmax > 0.0 else 1.0)
    wp = np.maximum(w, 0.0)
    return float(-(wp * np.log(np.maximum(wp, cut))).sum())


def _ref_log_eigs(w, floor):  # the stacked clamp of the sampler and of Theta's log
    wmax = np.maximum(w[..., -1], 0.0)
    cut = floor * np.where(wmax > 0.0, wmax, 1.0)
    return np.log(np.maximum(w, cut[..., None]))


def _ref_sym_log_eigs(w, floor):  # the one-matrix clamp of Theta's log
    wmax = max(float(w[-1]), 0.0)
    cut = floor * (wmax if wmax > 0.0 else 1.0)
    return np.log(np.maximum(w, cut))


def _spectra(rng):
    rows = [np.linalg.eigvalsh(qcore.random_density_matrix(4, rng, rank=r)) for r in (1, 2, 3, 4)]
    rows += [np.linalg.eigvalsh(qcore.random_density_matrix(4, rng)) * s for s in (1e-6, 3e4)]
    rows += [
        np.zeros(4),
        np.array([-3e-17, -1e-18, 0.0, 0.0]),
        np.array([-2e-17, 5e-18, 0.25, 0.75]),
        np.array([-1e-3, -2e-4, -1e-5, -1e-9]),
        np.array([1e-300, 2e-300, 3e-300, 1e-299]),
    ]
    return np.stack(rows)


@pytest.mark.parametrize("floor", [qcore.DEFAULT_LOG_FLOOR, 1e-6])
def test_floored_log_reproduces_the_replaced_copies(rng, floor):
    spectra = _spectra(rng)
    stacked = qcore.floored_log(spectra, floor)
    assert stacked.tobytes() == _ref_log_eigs(spectra, floor).tobytes()
    stack_3d = spectra.reshape(11, 1, 4)
    assert qcore.floored_log(stack_3d, floor).tobytes() == _ref_log_eigs(stack_3d, floor).tobytes()
    for w, row in zip(spectra, stacked):
        one = qcore.floored_log(w, floor)
        assert one.tobytes() == row.tobytes()
        assert one.tobytes() == _ref_sym_log_eigs(w, floor).tobytes()
        assert one.tobytes() == _ref_clamped_log(w, floor).tobytes()
        # spectral_log used to clamp the spectrum at 0 before the log
        assert one.tobytes() == _ref_clamped_log(np.maximum(w, 0.0), floor).tobytes()
        # the measure kernel's entropy expression
        ent = float(-(np.maximum(w, 0.0) * one).sum())
        assert ent == _ref_neg_x_log_x(w, floor)


# The integrators' errstate around every Theta stage and step.
INTEGRATOR_ERRSTATE = dict(over="ignore", invalid="ignore", divide="ignore")


def _symmetric(rng, shape):
    a = rng.standard_normal(shape)
    return a @ a.mT


def _hermitian(rng, shape):
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return a @ a.mT.conj()


@pytest.mark.parametrize("make,shape", [(_symmetric, (4, 4)), (_symmetric, (3, 4, 4)),
                                        (_hermitian, (2, 2)), (_hermitian, (5, 2, 2))])
def test_eigh_is_the_wrappers_bits(rng, make, shape):
    a = make(rng, shape)
    w, v = qcore.eigh(a)
    want_w, want_v = np.linalg.eigh(a)
    assert w.dtype == want_w.dtype and v.dtype == want_v.dtype
    assert w.tobytes() == want_w.tobytes() and v.tobytes() == want_v.tobytes()
    # rank-deficient inputs, as the deranking kernels meet on product states
    a = a[..., :1] @ a[..., :1].mT.conj()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(qcore.eigh(a), np.linalg.eigh(a)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigh_raises_where_the_wrapper_does(rng, bad):
    # a real stack with a NaN or inf matrix fails in LAPACK; the integrators'
    # errstate keeps the gufunc silent and the helper raises, as the wrapper does
    a = _symmetric(rng, (3, 4, 4))
    a[1] = bad
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigh(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(**INTEGRATOR_ERRSTATE):
            with pytest.raises(np.linalg.LinAlgError):
                qcore.eigh(a)
            with pytest.raises(np.linalg.LinAlgError):
                qcore.eigh(a[1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigh_returns_nan_where_the_wrapper_does(rng, bad):
    # the complex gufunc decomposes a NaN or inf matrix without failing, and
    # the wrapper hands its NaN back: so does the helper
    a = _hermitian(rng, (5, 2, 2))
    a[3] = bad
    want = np.linalg.eigh(a)
    assert np.isnan(want[0][3]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(**INTEGRATOR_ERRSTATE):
            got = qcore.eigh(a)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))


def _parent_floored_log(w, floor):  # the masked-store clamp floored_log replaced
    cut = floor * w[..., -1:]
    cut[cut <= 0.0] = floor
    return np.log(np.maximum(w, cut))


def test_floored_log_keeps_the_masked_store_bits_on_nan_and_non_positive_cuts(rng):
    spectra = np.concatenate([_spectra(rng), np.array([[0.1, 0.2, 0.3, np.nan],
                                                       [np.nan, 0.2, 0.3, 0.4]])])
    with np.errstate(invalid="ignore"):
        want = _parent_floored_log(spectra, 1e-13)
        assert qcore.floored_log(spectra, 1e-13).tobytes() == want.tobytes()
        for w, row in zip(spectra, want):
            assert qcore.floored_log(w, 1e-13).tobytes() == row.tobytes()
    assert np.isnan(want[-2]).all()
