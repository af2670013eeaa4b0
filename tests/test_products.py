"""The one-state products of the hot paths go through ``np.dot``, which reaches
the BLAS call of ``@`` without matmul's gufunc dispatch.  Each test here checks
that the ``np.dot`` form gives the bits of the ``@`` form on the shapes the
integrators run, and the last one runs ``integrate_master`` against its RK4
loop written with ``@``."""

import math

import numpy as np
import pytest

from disentsim import bases, dynamics, entangle, qcore
from disentsim.dynamics import (
    DampingParams,
    IntegratorConfig,
    SpinDamping,
    _mme_stage,
    _sle_block_step,
    _sle_step_matrix,
    grid_liouvillian,
    integrate_master,
    steady_state,
    two_spin_jump_operators,
)
from disentsim.entangle import DisentanglementSpec, ThetaEngine, ThetaFamily
from disentsim.qcore import QuantumState
from disentsim.twospin import DRIVING_POINTS, TwoSpinParams, build_hamiltonian

FIG2_DAMPING = DampingParams(a=SpinDamping(0.1, 0.01, 5e-4), b=SpinDamping(1.0, 0.1, 1e-5))
FAMILIES = [ThetaFamily.CORR_SUPPRESS, ThetaFamily.BLOCH_DERANK_A, ThetaFamily.BLOCH_DERANK_B,
            ThetaFamily.STATE_MATRIX_DERANK, ThetaFamily.THERMALIZATION]


def _spec(family: ThetaFamily) -> DisentanglementSpec:
    if family is ThetaFamily.THERMALIZATION:
        return DisentanglementSpec(family=family, gamma_h=0.7, beta=1.3)
    return DisentanglementSpec(family=family, gamma_d=0.5)


def _hamiltonian() -> np.ndarray:
    delta, omega1 = DRIVING_POINTS[2]
    return build_hamiltonian(TwoSpinParams(delta=delta, omega1=omega1, g=1.0))


def _states(rng, n: int) -> np.ndarray:
    """Grid coordinates (n, 16) of random states of every rank, and a product state."""
    rhos = np.stack([qcore.random_density_matrix(4, rng, rank=1 + k % 4) for k in range(n)])
    psi = np.kron(qcore.random_pure_state(2, rng), qcore.random_pure_state(2, rng))
    rhos[0] = np.outer(psi, psi.conj())  # singular G and alpha: the floor clamps
    return bases.bloch_matrix_from_rho(rhos).reshape(n, 16)


def _matmul_eig_log(w, v, floor=qcore.DEFAULT_LOG_FLOOR):
    """qcore.eig_log as written with ``@``."""
    return (v * qcore.floored_log(w, floor)[..., None, :]) @ v.mT.conj()


def test_stage_matvec_keeps_the_bits_of_matmul(rng):
    lr = grid_liouvillian(_hamiltonian(), FIG2_DAMPING)[1]
    lr[0] = 0.0
    for x in _states(rng, 20):
        m = lr - 0.3 * rng.standard_normal((16, 16))
        k = np.empty((2, 16))
        np.dot(m, x, out=k[0])
        np.matmul(m, x, out=k[1])
        assert k[0].tobytes() == k[1].tobytes()


@pytest.mark.parametrize("family, rows", [(ThetaFamily.CORR_SUPPRESS, 9),
                                          (ThetaFamily.BLOCH_DERANK_A, 15),
                                          (ThetaFamily.STATE_MATRIX_DERANK, 3)])
def test_coefficient_table_product_keeps_the_bits_of_matmul(family, rows, rng):
    coeff, table = ThetaEngine(_spec(family)).grid()
    assert table.shape == (rows, 256)
    for x in _states(rng, 20):
        c = coeff(x)
        assert np.dot(c, table).tobytes() == (c @ table).tobytes()
        c = rng.standard_normal(rows)
        assert np.dot(c, table).tobytes() == (c @ table).tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
def test_bloch_gram_log_products_keep_the_bits_of_matmul(dtype, rng):
    # alpha = B B^T / 2 (the syrk form of both entry points), its floored log
    # and log(alpha) . B, on real Bloch matrices and on complex 4x4 matrices
    for x in _states(rng, 20):
        b = x.reshape(4, 4)
        if dtype is complex:
            b = b + 1j * rng.standard_normal((4, 4))
        a = np.dot(b, b.mT)
        assert a.tobytes() == (b @ b.mT).tobytes()
        if dtype is complex:
            a = 0.5 * (a + a.mT.conj())
        w, v = qcore.eigh(a)
        log = qcore.eig_log(w, v)
        assert log.tobytes() == _matmul_eig_log(w, v).tobytes()
        assert np.dot(log, b).tobytes() == (log @ b).tobytes()


def test_reduced_state_and_its_log_keep_the_bits_of_matmul(rng):
    # state-matrix-derank's 2x2 G = Tr_b rho off B, its floored log and the
    # log's coefficients over the one-qubit grid
    single = bases.spin_grid()
    for x in _states(rng, 20):
        b = x.reshape(4, 4)
        g = bases.reduced_state_a(b)
        assert g.tobytes() == (math.sqrt(2) * (b[:, 0] @ single.half)).reshape(2, 2).tobytes()
        w, v = qcore.eigh(g)
        log = qcore.eig_log(w, v)
        assert log.tobytes() == _matmul_eig_log(w, v).tobytes()
        assert bases._contract(log, single.expect).tobytes() == (
            log.reshape(4) @ single.expect).tobytes()


@pytest.mark.parametrize("n", [1, 16, 129, 1000])
def test_stochastic_products_keep_the_bits_of_matmul(n):
    # the block step's gemm and the drift's contraction, with six channels and
    # a corr-suppress Theta (ten Theta blocks)
    rng = np.random.default_rng(n)
    h = _hamiltonian()
    engine = ThetaEngine(DisentanglementSpec(ThetaFamily.CORR_SUPPRESS, gamma_d=0.5), h=h)
    ops = two_spin_jump_operators(FIG2_DAMPING)
    step_mat = _sle_step_matrix(h, ops, 1e-3, engine.drift_ops)
    psi = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    psi /= np.linalg.norm(psi, axis=0)
    dw = np.sqrt(5e-4) * (rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n)))

    rho = (psi[:, None] * psi.conj()[None]).reshape(-1, n)
    assert np.dot(engine._drift_expect, rho).tobytes() == (engine._drift_expect @ rho).tobytes()
    weights = engine.drift(psi)
    e = (engine._drift_expect @ rho).real
    want = np.empty_like(weights)
    want[:-1] = entangle._covariances(e[:engine._expect.shape[1]].T)[0].T
    np.vecdot(want[:-1], e[engine._expect.shape[1]:], axis=0, out=want[-1])
    assert weights.tobytes() == want.tobytes()

    stack = np.empty((step_mat.shape[1] // 4, 4, n), dtype=complex)
    out, nrm2 = _sle_block_step(psi.copy(), step_mat, dw, stack, weights)
    want = step_mat @ stack.reshape(-1, n)
    assert np.dot(step_mat, stack.reshape(-1, n)).tobytes() == want.tobytes()
    want_nrm2 = (want.real * want.real + want.imag * want.imag).sum(axis=0)
    want *= 1.0 / np.sqrt(want_nrm2)
    assert out.tobytes() == want.tobytes()
    assert nrm2.tobytes() == want_nrm2.tobytes()


def _matmul_coefficients(family: ThetaFamily, engine: ThetaEngine):
    """x -> Theta's grid coefficients over ``drift_ops`` of one state, as the
    engine computed them with ``@``."""
    floor = engine.floor
    if family is ThetaFamily.CORR_SUPPRESS:
        s = entangle._covariance_map()
        return lambda x: entangle._covariances(x @ s)[0]
    if family is ThetaFamily.STATE_MATRIX_DERANK:
        single = bases.spin_grid()

        def smd(x):
            g = (math.sqrt(2) * (x.reshape(4, 4)[:, 0] @ single.half)).reshape(2, 2)
            log_g = _matmul_eig_log(*qcore.eigh(g), floor)
            return (log_g.reshape(4) @ single.expect).real[1:]
        return smd
    if family is ThetaFamily.THERMALIZATION:
        grid = bases.observable_grid()
        half, g = grid.half.view(float), grid.entries.reshape(16, -1).view(float)
        beta_h = engine.spec.beta * np.vecdot(engine.h.reshape(1, 16).view(float), g)

        def thermal(x):  # beta B(H) + B(log rho) but the coefficient of G_00
            rho = np.vecdot(x[..., None], half, axis=-2).view(complex)
            log = _matmul_eig_log(*np.linalg.eigh(rho.reshape(4, 4)), floor)
            return (np.vecdot(log.reshape(1, 16).view(float), g) + beta_h)[1:]
        return thermal

    def bloch(x):
        b = x.reshape(4, 4)
        a = b @ b.mT
        a *= 0.5
        return (_matmul_eig_log(*qcore.eigh(a), floor) @ b).reshape(16)[1:]
    return bloch


def _matmul_rk4(x, lr, coeff, table, dt, n_steps):
    """The stage inputs (4 n_steps, 16) and the final x of integrate_master's
    RK4 loop as written with ``@``: fresh stage inputs x + a k, numpy-scalar
    z_0 / x_0 and x = x + w @ K."""
    n = len(x)
    k = np.empty((4, n))
    w, nodes = (dt / 6.0) * np.array([1.0, 2.0, 2.0, 1.0]), (0.0, 0.5 * dt, 0.5 * dt, dt)
    inputs = []
    for _ in range(n_steps):
        for i in range(4):
            r = x + nodes[i] * k[i - 1] if i else x
            inputs.append(r.copy())
            z = np.matmul(lr - (coeff(r) @ table).reshape(n, n), r, out=k[i])
            z -= (z[0] / r[0]) * r
        x = x + w @ k
    return np.array(inputs), x


@pytest.mark.parametrize("family", FAMILIES)
def test_integrate_master_keeps_the_bits_of_its_matmul_loop(family, monkeypatch):
    # 300 steps from the linear steady state at fig2 driving point 2: every
    # stage input, and the record's last sample, byte for byte
    h = _hamiltonian()
    rho0 = steady_state(h, FIG2_DAMPING)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.3, sample_every=100)
    spec = _spec(family)
    engine = ThetaEngine(spec, h=h, floor=cfg.log_floor)
    _, table = engine.grid()
    lr = grid_liouvillian(h, FIG2_DAMPING)[1]
    lr[0] = 0.0
    x0 = bases.bloch_matrix(QuantumState.mixed(rho0)).reshape(-1)
    want_inputs, want_x = _matmul_rk4(x0, lr, _matmul_coefficients(family, engine), table,
                                      cfg.dt, cfg.n_steps)

    inputs = []

    def stage(lr, x, c, table, out=None):
        inputs.append(x.copy())
        return _mme_stage(lr, x, c, table, out)
    monkeypatch.setattr(dynamics, "_mme_stage", stage)
    rec = integrate_master(QuantumState.mixed(rho0), h, spec, FIG2_DAMPING, cfg)
    assert np.array(inputs).tobytes() == want_inputs.tobytes()
    b = want_x.reshape(1, 4, 4)
    k_a, k_b = bases.single_spin_bloch_vectors(b)
    assert rec.k_a[-1].tobytes() == k_a[0].tobytes()
    assert rec.k_b[-1].tobytes() == k_b[0].tobytes()
    assert rec.purity[-1].tobytes() == (0.5 * (b * b).sum(axis=(-2, -1)))[0].tobytes()
