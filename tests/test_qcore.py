import numpy as np
import pytest

from disentsim import qcore
from disentsim.bases import SIGMA_X, SIGMA_Y, SIGMA_Z, bloch_matrix, reduced_state_a
from disentsim.qcore import (
    DimensionError,
    Factorization,
    HermiticityError,
    PSDViolationError,
    QuantumState,
    TWO_QUBITS,
    expectation,
    herm_eig,
    kron,
    spectral_log,
)

from conftest import BELL


def test_kron_identity_and_diagonal():
    i2 = np.eye(2)
    assert np.array_equal(kron(i2, i2), np.eye(4))
    assert np.allclose(kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]))


def test_kron_trace_of_traceless_factors():
    assert abs(np.trace(kron(SIGMA_X, SIGMA_Y))) == 0.0


def test_kron_trace_product_random(rng):
    for _ in range(100):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def test_kron_mixed_product_identity(rng):
    a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                  for _ in range(4))
    assert np.allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12)


def test_partial_trace_product_state(rng):
    rho_a = qcore.random_density_matrix(2, rng)
    rho_b = qcore.random_density_matrix(2, rng)
    st = QuantumState.mixed(kron(rho_a, rho_b), TWO_QUBITS)
    assert np.abs(reduced_state_a(bloch_matrix(st)) - rho_a).max() < 1e-12


def test_partial_trace_bell_and_basis():
    st = QuantumState.pure(BELL, TWO_QUBITS)
    assert np.abs(reduced_state_a(bloch_matrix(st)) - np.eye(2) / 2).max() < 1e-12
    basis = QuantumState.pure([1, 0, 0, 0], TWO_QUBITS)
    assert np.abs(reduced_state_a(bloch_matrix(basis)) - np.diag([1.0, 0.0])).max() < 1e-12


def test_partial_trace_preserves_trace(rng):
    rho = qcore.random_density_matrix(4, rng)
    st = QuantumState.mixed(rho, TWO_QUBITS)
    assert abs(np.trace(reduced_state_a(bloch_matrix(st))).real - 1.0) < 1e-12


def test_herm_eig_diagonal_and_pauli():
    w, _ = herm_eig(np.diag([2.0, 1.0]))
    assert np.allclose(w, [1.0, 2.0])
    w, _ = herm_eig(SIGMA_X)
    assert np.allclose(w, [-1.0, 1.0])


def test_herm_eig_roundtrip(rng):
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = a + a.conj().T
    w, v = herm_eig(h)
    assert np.abs((v * w) @ v.conj().T - h).max() < 1e-10 * np.abs(h).max()
    assert np.abs(v.conj().T @ v - np.eye(6)).max() < 1e-10


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionError):
        herm_eig(np.zeros((2, 3)))


def test_spectral_log_identity_is_zero():
    assert np.abs(spectral_log(np.eye(5))).max() < 1e-14


def test_spectral_log_diagonal():
    out = spectral_log(np.diag([np.e, np.e**2]))
    assert np.allclose(out, np.diag([1.0, 2.0]))


def test_spectral_log_floor_clamp():
    out = spectral_log(np.diag([1.0, 0.0]), floor=1e-13)
    assert np.allclose(out, np.diag([0.0, np.log(1e-13)]))


def test_spectral_log_rejects_negative():
    with pytest.raises(PSDViolationError):
        spectral_log(np.diag([1.0, -1e-3]))


def test_spectral_log_commutes(rng):
    rho = qcore.random_density_matrix(4, rng)
    lg = spectral_log(rho)
    assert np.abs(rho @ lg - lg @ rho).max() < 1e-9


def test_expectation_cases():
    rho = np.eye(2) / 2
    assert abs(expectation(rho, SIGMA_Z)) < 1e-14
    up = np.zeros((2, 2)); up[0, 0] = 1.0
    assert abs(expectation(up, SIGMA_Z) - 1.0) < 1e-14
    st = QuantumState.pure(BELL, TWO_QUBITS)
    assert abs(expectation(st, kron(SIGMA_Z, SIGMA_Z)) - 1.0) < 1e-12


def test_expectation_dimension_mismatch():
    with pytest.raises(DimensionError):
        expectation(np.eye(2) / 2, np.eye(4))


def test_quantum_state_validation():
    with pytest.raises(ValueError):
        QuantumState.pure([1.0, 1.0, 0.0, 0.0], TWO_QUBITS)
    with pytest.raises(ValueError):
        QuantumState.mixed(np.eye(4), TWO_QUBITS)
    with pytest.raises(PSDViolationError):
        QuantumState.mixed(np.diag([1.5, -0.5, 0.0, 0.0]), TWO_QUBITS)
    with pytest.raises(DimensionError):
        Factorization(1, 2)


# The floor-clamped logs that floored_log replaced, kept as the reference it
# must reproduce bit for bit.  Each takes an ascending spectrum, as eigh and
# eigvalsh return it.


def _ref_clamped_log(w, floor):  # qcore._clamped_log, behind spectral_log
    wmax = float(np.max(w)) if w.size else 0.0
    cut = floor * (wmax if wmax > 0.0 else 1.0)
    return np.log(np.maximum(w, cut))


def _ref_neg_x_log_x(w, floor):  # entangle._neg_x_log_x, behind entanglement_l
    wmax = float(np.max(w)) if w.size else 0.0
    cut = floor * (wmax if wmax > 0.0 else 1.0)
    wp = np.maximum(w, 0.0)
    return float(-(wp * np.log(np.maximum(wp, cut))).sum())


def _ref_log_eigs(w, floor):  # the sampler's _log_eigs; ThetaEngine._batched_log's clamp
    wmax = np.maximum(w[..., -1], 0.0)
    cut = floor * np.where(wmax > 0.0, wmax, 1.0)
    return np.log(np.maximum(w, cut[..., None]))


def _ref_sym_log_eigs(w, floor):  # ThetaEngine._sym_log's clamp
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


def test_spectral_log_on_a_stack_checks_every_matrix(rng):
    rhos = np.stack([qcore.random_density_matrix(3, rng) for _ in range(5)])
    stacked = spectral_log(rhos)
    for rho, got in zip(rhos, stacked):
        assert np.abs(got - spectral_log(rho)).max() < 1e-14
    bad = rhos.copy()
    bad[3] = np.diag([1.0, 0.5, -1e-3])
    with pytest.raises(PSDViolationError):
        spectral_log(bad)
    bad[3] = np.array([[0.5, 0.1, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.2]])
    with pytest.raises(HermiticityError):
        spectral_log(bad)
