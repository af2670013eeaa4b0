import numpy as np
import pytest

from disentsim import qcore
from disentsim.bases import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_matrix,
    bloch_matrix_from_rho,
    gell_mann,
    observable_grid,
    single_spin_bloch_vectors,
    weyl_matrix,
    weyl_matrix_single,
    weyl_ops,
    weyl_s_matrix,
)
from disentsim.qcore import DimensionError, QuantumState, TWO_QUBITS, kron

from conftest import BELL


def test_gell_mann_d2_is_pauli():
    mats = gell_mann(2).matrices
    assert np.array_equal(mats[0], SIGMA_X)
    assert np.array_equal(mats[1], SIGMA_Y)
    assert np.array_equal(mats[2], SIGMA_Z)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gell_mann_orthogonality(d):
    mats = gell_mann(d).matrices
    assert len(mats) == d * d - 1
    for i, a in enumerate(mats):
        assert abs(np.trace(a)) < 1e-14
        assert np.abs(a - a.conj().T).max() == 0.0
        for j, b in enumerate(mats):
            val = np.trace(a @ b).real / 2.0
            assert abs(val - (1.0 if i == j else 0.0)) < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gell_mann_norm_sum(d):
    total = sum(np.trace(m @ m).real for m in gell_mann(d).matrices)
    assert abs(total - 2 * (d * d - 1)) < 1e-12


def test_gell_mann_rejects_d1():
    with pytest.raises(DimensionError):
        gell_mann(1)


def test_grid_g00_and_normalization():
    grid = observable_grid(2, 2)
    g00 = grid.entries[0, 0]
    assert np.allclose(g00, np.eye(4) / np.sqrt(2.0))
    assert abs(np.trace(g00 @ g00).real / 2.0 - 1.0) < 1e-14


def test_grid_tracelessness_and_orthogonality():
    grid = observable_grid(2, 2).entries
    for a in range(4):
        for b in range(4):
            if (a, b) != (0, 0):
                assert abs(np.trace(grid[a, b])) < 1e-12
    flat = grid.reshape(16, 4, 4)
    for i in range(16):
        for j in range(16):
            val = np.trace(flat[i] @ flat[j]).real / 2.0
            assert abs(val - (1.0 if i == j else 0.0)) < 1e-12


def test_bloch_b00_constant(rng):
    rho = qcore.random_density_matrix(4, rng)
    b = bloch_matrix(QuantumState.mixed(rho, TWO_QUBITS))
    assert abs(b.values[0, 0] - 1.0 / np.sqrt(2.0)) < 1e-12


def test_bloch_maximally_mixed():
    b = bloch_matrix(QuantumState.mixed(np.eye(4) / 4, TWO_QUBITS))
    vals = b.values.copy()
    vals[0, 0] = 0.0
    assert np.abs(vals).max() < 1e-14


def test_bloch_gram_norm_is_twice_purity(rng):
    st = QuantumState.pure(BELL, TWO_QUBITS)
    assert abs(bloch_matrix(st).gram_norm - 2.0) < 1e-12
    rho = qcore.random_density_matrix(4, rng)
    st = QuantumState.mixed(rho, TWO_QUBITS)
    purity = np.trace(rho @ rho).real
    assert abs(bloch_matrix(st).gram_norm - 2.0 * purity) < 1e-12


def test_bloch_matrix_of_stack_matches_per_state(rng):
    rhos = np.stack([qcore.random_density_matrix(4, rng) for _ in range(12)])
    stacked = bloch_matrix_from_rho(rhos.reshape(3, 4, 4, 4), 2, 2)
    assert stacked.values.shape == (3, 4, 4, 4)
    k_a, k_b = single_spin_bloch_vectors(stacked)
    gram = stacked.gram_norm
    for n, rho in enumerate(rhos):
        one = bloch_matrix(QuantumState.mixed(rho, TWO_QUBITS))
        ka1, kb1 = single_spin_bloch_vectors(one)
        idx = divmod(n, 4)
        assert np.abs(stacked.values[idx] - one.values).max() < 1e-15
        assert np.abs(k_a[idx] - ka1).max() < 1e-15
        assert np.abs(k_b[idx] - kb1).max() < 1e-15
        assert abs(gram[idx] - one.gram_norm) < 1e-14
    with pytest.raises(DimensionError):
        bloch_matrix_from_rho(np.eye(3), 2, 2)


def test_bloch_reconstruction_identity(rng):
    grid = observable_grid(2, 2).entries
    for _ in range(50):
        rho = qcore.random_density_matrix(4, rng)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = a + a.conj().T
        direct = np.trace(rho @ a).real
        b = np.einsum("abij,ji->ab", grid, rho).real
        coeff = np.einsum("abij,ji->ab", grid, a).real
        assert abs(direct - (b * coeff).sum() / 2.0) < 1e-10


def test_single_spin_vectors_product_and_bell():
    st = QuantumState.pure([1, 0, 0, 0], TWO_QUBITS)
    k_a, k_b = single_spin_bloch_vectors(bloch_matrix(st))
    assert np.allclose(k_a, [0, 0, 1], atol=1e-12)
    assert np.allclose(k_b, [0, 0, 1], atol=1e-12)
    k_a, k_b = single_spin_bloch_vectors(bloch_matrix(QuantumState.pure(BELL, TWO_QUBITS)))
    assert np.abs(k_a).max() < 1e-12
    assert np.abs(k_b).max() < 1e-12


def test_single_spin_vector_thermal():
    n0 = 0.37
    p = 1.0 / (2.0 * n0 + 1.0)
    rho_a = np.diag([(1 - p) / 2, (1 + p) / 2]).astype(complex)
    rho = kron(rho_a, np.eye(2) / 2)
    k_a, _ = single_spin_bloch_vectors(bloch_matrix(QuantumState.mixed(rho, TWO_QUBITS)))
    assert abs(k_a[2] + 1.0 / (2.0 * n0 + 1.0)) < 1e-12
    assert np.linalg.norm(k_a) <= 1.0 + 1e-9


def test_weyl_ops_d2_values():
    w = weyl_ops(2)
    assert np.allclose(w[0, 0], np.eye(2))
    assert np.allclose(w[1, 0], np.diag([1.0, -1.0]))
    assert np.allclose(w[0, 1], np.array([[0, 1], [1, 0]]))
    assert np.allclose(w[1, 1], np.array([[0, 1], [-1, 0]]))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_weyl_ops_unitary(d):
    w = weyl_ops(d)
    for p in range(d):
        for q in range(d):
            u = w[p, q]
            assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-12


def test_weyl_matrix_single_mixed_and_pure(rng):
    w = weyl_matrix_single(np.eye(2) / 2)
    assert abs(w[0, 0] - 1.0 / np.sqrt(2.0)) < 1e-14
    w[0, 0] = 0.0
    assert np.abs(w).max() < 1e-14
    psi = np.array([1.0, 0.0], dtype=complex)
    w = weyl_matrix_single(np.outer(psi, psi.conj()))
    assert abs(np.trace(w.conj().T @ w).real - 1.0) < 1e-12


def test_weyl_matrix_purity_identity(rng):
    for _ in range(20):
        rho = qcore.random_density_matrix(3, rng)
        w = weyl_matrix_single(rho)
        assert abs(np.trace(w.conj().T @ w).real - np.trace(rho @ rho).real) < 1e-12


@pytest.mark.parametrize("d", [2, 4])
def test_weyl_pure_state_bound(d, rng):
    for _ in range(100):
        psi = qcore.random_pure_state(d, rng)
        w = weyl_matrix_single(np.outer(psi, psi.conj()))
        ww = w.conj().T @ w
        val = np.trace(ww @ ww).real
        assert 1.0 / d - 1e-10 <= val <= 1.0 + 1e-10


def test_weyl_matrix_product_factorizes(rng):
    rho_a = qcore.random_density_matrix(2, rng)
    rho_b = qcore.random_density_matrix(2, rng)
    st = QuantumState.mixed(kron(rho_a, rho_b), TWO_QUBITS)
    w = weyl_matrix(st)
    wa = weyl_matrix_single(rho_a)
    wb = weyl_matrix_single(rho_b)
    assert np.abs(w - kron(wa, wb)).max() < 1e-12


def test_weyl_s_product_and_bell(rng):
    psi = np.kron(qcore.random_pure_state(2, rng), qcore.random_pure_state(2, rng))
    s = weyl_s_matrix(QuantumState.pure(psi, TWO_QUBITS))
    sds = s.conj().T @ s
    assert abs(np.trace(sds).real - 1.0) < 1e-12
    assert abs(np.trace(sds @ sds).real - 1.0) < 1e-12
    s = weyl_s_matrix(QuantumState.pure(BELL, TWO_QUBITS))
    sds = s.conj().T @ s
    assert abs(np.trace(sds @ sds).real - 0.25) < 1e-12


def test_weyl_s_spectrum_matches_state_matrix(rng):
    from disentsim.entangle import state_matrix

    for _ in range(20):
        psi = qcore.random_pure_state(4, rng)
        st = QuantumState.pure(psi, TWO_QUBITS)
        s = weyl_s_matrix(st)
        sds = s.conj().T @ s
        m = state_matrix(psi, TWO_QUBITS)
        mm = m.conj().T @ m
        ref = np.sort(np.linalg.eigvalsh(np.kron(mm, mm)))
        got = np.sort(np.linalg.eigvalsh(0.5 * (sds + sds.conj().T)))
        assert np.abs(ref - got).max() < 1e-10
