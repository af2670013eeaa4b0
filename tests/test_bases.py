import numpy as np
import pytest

from disentsim import qcore
from disentsim.bases import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _contract,
    bloch_matrix,
    bloch_matrix_from_rho,
    observable_grid,
    reduced_state_a,
    single_spin_bloch_vectors,
    spin_grid,
    weyl_ops,
    weyl_s_matrix,
)
from disentsim.qcore import DimensionError, QuantumState

from conftest import BELL


def _gell_mann_d2():
    """The generalized Gell-Mann set of a qubit from its definition: the
    symmetric and the antisymmetric matrix of the pair (0, 1), then the
    diagonal sqrt(2/(l(l+1))) (sum_{i<l} |i><i| - l |l><l|) at l = 1."""
    sym, anti, diag = (np.zeros((2, 2), dtype=complex) for _ in range(3))
    sym[0, 1] = sym[1, 0] = 1.0
    anti[0, 1], anti[1, 0] = -1j, 1j
    coeff = np.sqrt(2.0 / 2)
    diag[0, 0], diag[1, 1] = coeff, -coeff
    return sym, anti, diag


def test_gell_mann_d2_is_pauli():
    # the one-spin basis is built from SIGMA_X, SIGMA_Y, SIGMA_Z in place of
    # the Gell-Mann set, which they equal exactly
    mats = _gell_mann_d2()
    assert np.array_equal(mats[0], SIGMA_X)
    assert np.array_equal(mats[1], SIGMA_Y)
    assert np.array_equal(mats[2], SIGMA_Z)


@pytest.mark.parametrize("d", [2])
def test_gell_mann_orthogonality(d):
    mats = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    assert len(mats) == d * d - 1
    for i, a in enumerate(mats):
        assert abs(np.trace(a)) < 1e-14
        assert np.abs(a - a.conj().T).max() == 0.0
        for j, b in enumerate(mats):
            val = np.trace(a @ b).real / 2.0
            assert abs(val - (1.0 if i == j else 0.0)) < 1e-14


@pytest.mark.parametrize("d", [2])
def test_gell_mann_norm_sum(d):
    total = sum(np.trace(m @ m).real for m in (SIGMA_X, SIGMA_Y, SIGMA_Z))
    assert abs(total - 2 * (d * d - 1)) < 1e-12


def test_grid_g00_and_normalization():
    grid = observable_grid()
    g00 = grid.entries[0, 0]
    assert np.allclose(g00, np.eye(4) / np.sqrt(2.0))
    assert abs(np.trace(g00 @ g00).real / 2.0 - 1.0) < 1e-14


def test_grid_tracelessness_and_orthogonality():
    grid = observable_grid().entries
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
    b = bloch_matrix(QuantumState.mixed(rho))
    assert abs(b[0, 0] - 1.0 / np.sqrt(2.0)) < 1e-12


def test_bloch_maximally_mixed():
    b = bloch_matrix(QuantumState.mixed(np.eye(4) / 4))
    vals = b.copy()
    vals[0, 0] = 0.0
    assert np.abs(vals).max() < 1e-14


def test_bloch_gram_norm_is_twice_purity(rng):
    st = QuantumState.pure(BELL)
    assert abs((bloch_matrix(st) ** 2).sum() - 2.0) < 1e-12
    rho = qcore.random_density_matrix(4, rng)
    st = QuantumState.mixed(rho)
    purity = np.trace(rho @ rho).real
    assert abs((bloch_matrix(st) ** 2).sum() - 2.0 * purity) < 1e-12


def test_bloch_matrix_of_stack_matches_per_state(rng):
    rhos = np.stack([qcore.random_density_matrix(4, rng) for _ in range(12)])
    stacked = bloch_matrix_from_rho(rhos.reshape(3, 4, 4, 4))
    assert stacked.shape == (3, 4, 4, 4)
    k_a, k_b = single_spin_bloch_vectors(stacked)
    gram = (stacked ** 2).sum(axis=(-2, -1))
    for n, rho in enumerate(rhos):
        one = bloch_matrix(QuantumState.mixed(rho))
        ka1, kb1 = single_spin_bloch_vectors(one)
        idx = divmod(n, 4)
        assert np.abs(stacked[idx] - one).max() < 1e-15
        assert np.abs(k_a[idx] - ka1).max() < 1e-15
        assert np.abs(k_b[idx] - kb1).max() < 1e-15
        assert abs(gram[idx] - (one ** 2).sum()) < 1e-14
    with pytest.raises(DimensionError):
        bloch_matrix_from_rho(np.eye(3))


@pytest.mark.parametrize("d_a, d_b", [(2, 2)])
def test_reduced_state_a_matches_literal_partial_trace(rng, d_a, d_b):
    dim = d_a * d_b
    rhos = np.stack([qcore.random_density_matrix(dim, rng, rank=1 + k % dim)
                     for k in range(10)]).reshape(2, 5, dim, dim)
    ref = np.einsum("...ibjb->...ij", rhos.reshape(2, 5, d_a, d_b, d_a, d_b))
    got = reduced_state_a(bloch_matrix_from_rho(rhos))
    assert got.shape == (2, 5, d_a, d_a)
    assert np.abs(got - ref).max() < 1e-15
    one = reduced_state_a(bloch_matrix_from_rho(rhos[1, 3]))
    assert one.shape == (d_a, d_a)
    assert np.abs(one - ref[1, 3]).max() < 1e-15


def test_bloch_matrix_is_a_plain_array_checked_by_shape(rng):
    # B is the real C-contiguous array itself; the single-spin vectors check
    # its trailing shape, (4, 4)
    rhos = np.stack([qcore.random_density_matrix(4, rng) for _ in range(3)])
    b = bloch_matrix_from_rho(rhos)
    assert type(b) is np.ndarray and b.dtype == np.float64 and b.flags.c_contiguous
    for shape in ((2, 4, 9), (2, 9, 9)):
        with pytest.raises(DimensionError):
            single_spin_bloch_vectors(np.zeros(shape))


def _random_hermitian(rng, n: int = 4) -> np.ndarray:
    """Random Hermitian matrix of unit spectral norm."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = a + a.conj().T
    return a / np.abs(np.linalg.eigvalsh(a)).max()


def test_grid_tables_match_matrix_forms(rng):
    # in grid coordinates x = B(rho): rho = (1/2) x . G, L_r B(rho) = B(L rho)
    # for a Liouvillian L, and B({Theta, rho}) is the anticommutator tensor
    # contracted with B(Theta) and B(rho)
    from disentsim.dynamics import dissipator_superop, hamiltonian_superop

    def liouvillian(h, jumps):
        return hamiltonian_superop(h) + dissipator_superop(jumps, len(h))

    grid = observable_grid()
    b = lambda m: bloch_matrix_from_rho(m).reshape(-1)  # noqa: E731
    table = grid.anticommutator.reshape(16, 256)
    for _ in range(20):
        rho = qcore.random_density_matrix(4, rng)
        theta, h = _random_hermitian(rng), _random_hermitian(rng)
        jumps = [0.5 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
                 for _ in range(3)]
        lv = liouvillian(h, jumps)
        x = b(rho)
        assert np.abs((x @ grid.half).reshape(4, 4) - rho).max() < 1e-14
        assert np.abs(b((x @ grid.half).reshape(4, 4)) - x).max() < 1e-14
        lr = grid.superop(lv)
        assert lr.dtype == np.float64
        assert np.abs(lr @ x - b((lv @ rho.reshape(-1)).reshape(4, 4))).max() < 1e-14
        anti = (b(theta) @ table).reshape(16, 16) @ x
        assert np.abs(anti - b(theta @ rho + rho @ theta)).max() < 1e-14
    # the single-spin grid is the Pauli grid, and L_r acts on it the same way
    grid = spin_grid()
    assert np.abs(grid.entries[:, 0] - np.stack([np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z])).max() < 1e-15
    for _ in range(20):
        rho = qcore.random_density_matrix(2, rng)
        x = _contract(rho, grid.expect).real
        jump = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lv = liouvillian(_random_hermitian(rng, 2), [jump])
        assert np.abs(grid.superop(lv) @ x
                      - _contract((lv @ rho.reshape(-1)).reshape(2, 2), grid.expect).real
                      ).max() < 1e-14


def test_grid_tables_are_cached_and_read_only():
    grid = observable_grid()
    assert grid.anticommutator.shape == (16, 16, 16)
    assert grid.half.shape == (16, 16)
    for name in ("half", "anticommutator", "expect"):
        table = getattr(grid, name)
        assert getattr(observable_grid(), name) is table
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


def test_bloch_reconstruction_identity(rng):
    grid = observable_grid().entries
    for _ in range(50):
        rho = qcore.random_density_matrix(4, rng)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = a + a.conj().T
        direct = np.trace(rho @ a).real
        b = np.einsum("abij,ji->ab", grid, rho).real
        coeff = np.einsum("abij,ji->ab", grid, a).real
        assert abs(direct - (b * coeff).sum() / 2.0) < 1e-10


def test_single_spin_vectors_product_and_bell():
    st = QuantumState.pure([1, 0, 0, 0])
    k_a, k_b = single_spin_bloch_vectors(bloch_matrix(st))
    assert np.allclose(k_a, [0, 0, 1], atol=1e-12)
    assert np.allclose(k_b, [0, 0, 1], atol=1e-12)
    k_a, k_b = single_spin_bloch_vectors(bloch_matrix(QuantumState.pure(BELL)))
    assert np.abs(k_a).max() < 1e-12
    assert np.abs(k_b).max() < 1e-12


def test_single_spin_vector_thermal():
    n0 = 0.37
    p = 1.0 / (2.0 * n0 + 1.0)
    rho_a = np.diag([(1 - p) / 2, (1 + p) / 2]).astype(complex)
    rho = np.kron(rho_a, np.eye(2) / 2)
    k_a, _ = single_spin_bloch_vectors(bloch_matrix(QuantumState.mixed(rho)))
    assert abs(k_a[2] + 1.0 / (2.0 * n0 + 1.0)) < 1e-12
    assert np.linalg.norm(k_a) <= 1.0 + 1e-9


def test_weyl_ops_d2_values():
    w = weyl_ops()
    assert np.allclose(w[0, 0], np.eye(2))
    assert np.allclose(w[1, 0], np.diag([1.0, -1.0]))
    assert np.allclose(w[0, 1], np.array([[0, 1], [1, 0]]))
    assert np.allclose(w[1, 1], np.array([[0, 1], [-1, 0]]))


@pytest.mark.parametrize("d", [2])
def test_weyl_ops_unitary(d):
    w = weyl_ops()
    for p in range(d):
        for q in range(d):
            u = w[p, q]
            assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-12


def test_weyl_s_product_and_bell(rng):
    psi = np.kron(qcore.random_pure_state(2, rng), qcore.random_pure_state(2, rng))
    s = weyl_s_matrix(QuantumState.pure(psi))
    sds = s.conj().T @ s
    assert abs(np.trace(sds).real - 1.0) < 1e-12
    assert abs(np.trace(sds @ sds).real - 1.0) < 1e-12
    s = weyl_s_matrix(QuantumState.pure(BELL))
    sds = s.conj().T @ s
    assert abs(np.trace(sds @ sds).real - 0.25) < 1e-12


def test_weyl_s_spectrum_matches_state_matrix(rng):
    from disentsim.entangle import state_matrix

    for _ in range(20):
        psi = qcore.random_pure_state(4, rng)
        st = QuantumState.pure(psi)
        s = weyl_s_matrix(st)
        sds = s.conj().T @ s
        m = state_matrix(psi)
        mm = m.conj().T @ m
        ref = np.sort(np.linalg.eigvalsh(np.kron(mm, mm)))
        got = np.sort(np.linalg.eigvalsh(0.5 * (sds + sds.conj().T)))
        assert np.abs(ref - got).max() < 1e-10
