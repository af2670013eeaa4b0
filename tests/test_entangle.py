import warnings

import numpy as np
import pytest

from disentsim import bases, qcore
from disentsim.entangle import (
    DisentanglementSpec,
    MeasureReport,
    ThetaEngine,
    ThetaFamily,
    build_theta,
    correlation_operator,
    delta_measure,
    entanglement_k,
    entanglement_l,
    g_from_state,
    measure_report,
    measures_from_bloch,
    q_bloch_operators,
    state_matrix,
    tau_correlation,
    tau_from_bloch,
    weyl_t2_expectation,
)
from disentsim.qcore import QuantumState

from conftest import BELL, TILTED, literal_theta, random_product_psi

LOG2 = np.log(2.0)

DERANK_FAMILIES = (
    ThetaFamily.CORR_SUPPRESS,
    ThetaFamily.BLOCH_DERANK_A,
    ThetaFamily.BLOCH_DERANK_B,
    ThetaFamily.STATE_MATRIX_DERANK,
)


def _unit_theta(st, family, **kw):
    return build_theta(st, DisentanglementSpec(family=family, gamma_d=1.0), **kw)


def _thermalization_theta(st, h, gamma_h, beta):
    spec = DisentanglementSpec(family=ThetaFamily.THERMALIZATION, gamma_h=gamma_h, beta=beta)
    return build_theta(st, spec, h=h)


def _pure_columns(rng, n):
    return np.stack([qcore.random_pure_state(4, rng) for _ in range(n)], axis=1)


def _two_qubit_stack(rng, n_pure, n_mixed):
    psi = _pure_columns(rng, n_pure)
    pure = np.einsum("in,jn->nij", psi, psi.conj())
    mixed = [qcore.random_density_matrix(4, rng, rank=1 + k % 4) for k in range(n_mixed)]
    return np.concatenate([pure, np.stack(mixed)])


def test_state_matrix_layout():
    m = state_matrix([1, 0, 0, 0])
    assert np.array_equal(m, [[1, 0], [0, 0]])
    m = state_matrix(BELL)
    assert np.allclose(m, np.eye(2) / np.sqrt(2.0))
    psi = np.array([1, 2, 3, 4], dtype=complex)
    assert np.array_equal(state_matrix(psi), [[1, 2], [3, 4]])


def test_entanglement_k_values(rng):
    prod = QuantumState.pure(random_product_psi(rng))
    assert entanglement_k(prod) < 1e-10
    assert abs(entanglement_k(QuantumState.pure(BELL)) - LOG2) < 1e-12
    expected = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
    assert abs(entanglement_k(QuantumState.pure(TILTED)) - expected) < 1e-12


def test_q_s_expectation_matches_k(rng):
    def q_s(st):
        return _unit_theta(st, ThetaFamily.STATE_MATRIX_DERANK)

    st = QuantumState.pure(BELL)
    assert abs(q_s(st).expectation(st) - LOG2) < 1e-8
    mm = QuantumState.mixed(np.eye(4) / 4)
    assert abs(q_s(mm).expectation(mm) - LOG2) < 1e-8
    for _ in range(20):
        st = QuantumState.pure(qcore.random_pure_state(4, rng))
        assert abs(q_s(st).expectation(st) - entanglement_k(st)) < 1e-8


def test_entanglement_l_values(rng):
    prod = QuantumState.pure(random_product_psi(rng))
    assert abs(entanglement_l(prod)) < 1e-9
    assert abs(entanglement_l(QuantumState.pure(BELL)) - 2 * LOG2) < 1e-10
    expected = 2 * -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
    got = entanglement_l(QuantumState.pure(TILTED))
    assert abs(got - expected) < 1e-10
    assert abs(got - 1.1246) < 5e-4


def test_two_k_equals_l(rng):
    for _ in range(30):
        st = QuantumState.pure(qcore.random_pure_state(4, rng))
        assert abs(2 * entanglement_k(st) - entanglement_l(st)) < 1e-8


def test_q_bloch_expectations(rng):
    st = QuantumState.pure(BELL)
    qa, qb = q_bloch_operators(st)
    assert qa is qb  # Q_a = Q_b, built once
    assert abs(qa.expectation(st) - 2 * LOG2) < 1e-8
    for _ in range(20):
        rho = qcore.random_density_matrix(4, rng)
        st = QuantumState.mixed(rho)
        qa, qb = q_bloch_operators(st)
        l_val = entanglement_l(st)
        assert abs(qa.expectation(st) - l_val) < 1e-8
        assert abs(qa.expectation(st) - qb.expectation(st)) < 1e-9


def test_q_bloch_product_drift_vanishes(rng):
    for _ in range(10):
        psi = random_product_psi(rng)
        st = QuantumState.pure(psi)
        qa, _ = q_bloch_operators(st)
        drift = qa.matrix @ psi - qa.expectation(st) * psi
        assert np.linalg.norm(drift) < 1e-6


def test_correlation_operator_cases(rng):
    psi = random_product_psi(rng)
    st = QuantumState.pure(psi)
    assert np.abs(correlation_operator(st).matrix).max() < 1e-12
    st = QuantumState.pure(BELL)
    assert abs(tau_correlation(st) - 1.0) < 1e-12
    st = QuantumState.pure(TILTED)
    assert abs(tau_correlation(st) - 11.0 / 16.0) < 1e-12


def test_correlation_expectation_is_nonnegative(rng):
    for _ in range(50):
        rho = qcore.random_density_matrix(4, rng)
        st = QuantumState.mixed(rho)
        q = correlation_operator(st)
        assert q.expectation(st) >= -1e-12


def test_tau_delta_identity(rng):
    for _ in range(100):
        psi = qcore.random_pure_state(4, rng)
        st = QuantumState.pure(psi)
        d = delta_measure(psi)
        assert abs(tau_correlation(st) - 2.0 * d * (1.0 + d / 2.0) / 3.0) < 1e-9


def test_tau_of_stack_matches_per_state(rng):
    rhos = np.stack([qcore.random_density_matrix(4, rng) for _ in range(10)])
    b = bases.bloch_matrix_from_rho(rhos.reshape(2, 5, 4, 4))
    stacked = tau_from_bloch(b)
    assert stacked.shape == (2, 5)
    for n, rho in enumerate(rhos):
        one = tau_correlation(QuantumState.mixed(rho))
        assert abs(stacked[divmod(n, 5)] - one) < 1e-15


@pytest.mark.parametrize("dims", [(2, 2)])
def test_tau_and_q_ab_match_literal_gell_mann_forms(rng, dims):
    # tau and Q_ab read <l_a>, <l_b> and <l_a (x) l_b> from B; the reference is
    # the kron-built basis of the Gell-Mann matrices of a qubit, the Pauli
    # matrices
    dim = dims[0] * dims[1]
    ia, ib = np.eye(dims[0]), np.eye(dims[1])
    lam_a = lam_b = (bases.SIGMA_X, bases.SIGMA_Y, bases.SIGMA_Z)
    engine = ThetaEngine(DisentanglementSpec(ThetaFamily.CORR_SUPPRESS, gamma_d=1.0))
    psi = qcore.random_pure_state(dim, rng)
    for rho in (np.outer(psi, psi.conj()), qcore.random_density_matrix(dim, rng)):
        ex = lambda o: np.trace(o @ rho).real  # noqa: E731
        tau, q = 0.0, np.zeros_like(rho)
        for x in lam_a:
            for y in lam_b:
                ab = ex(np.kron(x, ib)) * ex(np.kron(ia, y))
                cov = ex(np.kron(x, y)) - ab
                tau += cov * cov / 3.0
                q += cov * (np.kron(x, y) - ab * np.eye(dim)) / 3.0
        assert abs(tau_from_bloch(bases.bloch_matrix_from_rho(rho)) - tau) < 1e-14
        assert np.abs(engine.matrix(rho) - q).max() < 1e-14


def test_gram_eigenvalues_vs_delta(rng):
    for _ in range(50):
        psi = qcore.random_pure_state(4, rng)
        d = delta_measure(psi)
        g = g_from_state(QuantumState.pure(psi))
        got = np.sort(np.linalg.eigvalsh(g))
        ref = np.sort([(1 - np.sqrt(1 - d)) / 2, (1 + np.sqrt(1 - d)) / 2])
        assert np.abs(got - ref).max() < 1e-10


def test_tau_local_unitary_invariance(rng):
    psi = qcore.random_pure_state(4, rng)
    base = tau_correlation(QuantumState.pure(psi))
    for _ in range(25):
        u = np.kron(qcore.random_unitary(2, rng), qcore.random_unitary(2, rng))
        rotated = QuantumState.pure(u @ psi)
        assert abs(tau_correlation(rotated) - base) < 1e-9


def test_delta_measure_cases(rng):
    assert delta_measure(random_product_psi(rng)) < 1e-12
    assert abs(delta_measure(BELL) - 1.0) < 1e-12
    assert abs(delta_measure(TILTED) - 0.75) < 1e-12
    with pytest.raises(Exception):
        delta_measure([1.0, 0.0])


def test_measure_bounds_random_states(rng):
    for _ in range(1000):
        if rng.random() < 0.5:
            st = QuantumState.pure(qcore.random_pure_state(4, rng))
        else:
            rank = int(rng.integers(1, 5))
            st = QuantumState.mixed(qcore.random_density_matrix(4, rng, rank=rank))
        k = entanglement_k(st)
        t = tau_correlation(st)
        assert -1e-12 <= k <= LOG2 + 1e-9
        assert -1e-12 <= t <= 1.0 + 1e-9


def _literal_weyl_t2(state: QuantumState) -> float:
    """The quadruple Weyl-pair sum of weyl_t2_expectation as explicit loops."""
    d = 2
    rho = state.density()
    w = bases.weyl_ops().reshape(d * d, d, d)
    pair = [[np.kron(wi, wj) for wj in w] for wi in w]
    acc = np.zeros_like(rho)
    for q2 in range(d * d):
        for q1 in range(d * d):
            left = pair[q2][q1].conj().T @ rho
            for q3 in range(d * d):
                mid = left @ pair[q2][q3] @ rho
                for q4 in range(d * d):
                    acc += mid @ pair[q4][q3].conj().T @ rho @ pair[q4][q1]
    return float(np.vdot(state.psi, acc @ state.psi).real) / d ** 4


def test_weyl_t2_cases(rng):
    from disentsim.bases import weyl_s_matrix

    psi = random_product_psi(rng)
    st = QuantumState.pure(psi)
    assert abs(weyl_t2_expectation(st) - 1.0) < 1e-9
    st = QuantumState.pure(BELL)
    assert abs(weyl_t2_expectation(st) - 0.25) < 1e-9
    for _ in range(10):
        st = QuantumState.pure(qcore.random_pure_state(4, rng))
        s = weyl_s_matrix(st)
        sds = s.conj().T @ s
        assert abs(weyl_t2_expectation(st) - np.trace(sds @ sds).real) < 1e-9
        assert abs(weyl_t2_expectation(st) - _literal_weyl_t2(st)) < 1e-13


def test_weyl_t2_rejects_mixed(rng):
    st = QuantumState.mixed(qcore.random_density_matrix(4, rng))
    with pytest.raises(ValueError):
        weyl_t2_expectation(st)


def _thermalization_stage(rho, h, beta):
    """The undamped master stage integrate_master runs, with the thermalization
    drive at gamma_h = 1, on x = B(rho), mapped back to a matrix."""
    from disentsim.dynamics import _mme_stage, grid_liouvillian

    spec = DisentanglementSpec(family=ThetaFamily.THERMALIZATION, gamma_h=1.0, beta=beta)
    coeff, table = ThetaEngine(spec, h=h).grid()
    grid, lr = grid_liouvillian(h, None)
    x = bases.bloch_matrix_from_rho(rho).reshape(-1)
    return (_mme_stage(lr, coeff, table)(x) @ grid.half).reshape(4, 4)


def test_thermalization_gibbs_inert():
    from disentsim.twospin import TwoSpinParams, build_hamiltonian

    h = build_hamiltonian(TwoSpinParams(delta=0.3, omega1=0.4, g=0.2))
    beta = 1.7
    w, v = np.linalg.eigh(h)
    rho = (v * np.exp(-beta * w)) @ v.conj().T
    rho /= rho.trace()
    assert np.abs(_thermalization_stage(rho, h, beta)).max() < 1e-9


def test_thermalization_maximal_entropy_zero_drift():
    h = np.zeros((4, 4), dtype=complex)
    rho = np.eye(4, dtype=complex) / 4.0
    assert np.abs(_thermalization_stage(rho, h, 1.0)).max() < 1e-9


def test_thermalization_expectation_hand_value():
    # single-spin content embedded in the two-qubit frame: spin b maximally mixed
    from disentsim.bases import SIGMA_Z

    h = np.kron(0.5 * SIGMA_Z, np.eye(2))
    rho = np.kron(np.diag([0.9, 0.1]).astype(complex), np.eye(2) / 2)
    st = QuantumState.mixed(rho)
    theta = _thermalization_theta(st, h, gamma_h=1.0, beta=1.0)
    # by hand: beta*Tr(rho H) + Tr(rho log rho)
    expect_h = 0.5 * 0.9 - 0.5 * 0.1
    expect_log = (0.9 * np.log(0.45) + 0.1 * np.log(0.05))
    assert abs(theta.expectation(st) - (expect_h + expect_log)) < 1e-10


def test_product_state_noop_all_families(rng):
    h = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)
    for _ in range(10):
        psi = random_product_psi(rng)
        st = QuantumState.pure(psi)
        for fam in DERANK_FAMILIES:
            spec = DisentanglementSpec(family=fam, gamma_d=1.0)
            theta = build_theta(st, spec, h=h)
            drift = theta.matrix @ psi - theta.expectation(st) * psi
            assert np.linalg.norm(drift) < 1e-6, fam


def test_theta_engine_matrix_matches_literal_operators(rng):
    h = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)
    rhos = [QuantumState.pure(qcore.random_pure_state(4, rng)).density(),
            qcore.random_density_matrix(4, rng)]
    for rho in rhos:
        for fam in (*DERANK_FAMILIES, ThetaFamily.THERMALIZATION):
            if fam is ThetaFamily.THERMALIZATION:
                spec = DisentanglementSpec(family=fam, gamma_h=1.3, beta=0.8)
            else:
                spec = DisentanglementSpec(family=fam, gamma_d=1.0)
            got = ThetaEngine(spec, h=h).matrix(rho)
            assert np.abs(got - literal_theta(fam, rho, h, 1.3, 0.8)).max() < 1e-11, fam


def _drift_vectors(eng: ThetaEngine, psi: np.ndarray) -> np.ndarray:
    """(<Theta> - Theta) psi of each column of psi, from the weights of
    ``eng.drift`` over ``eng.drift_ops``, as the block step applies them."""
    w = eng.drift(psi)
    assert w.shape == (len(eng.drift_ops) + 1, psi.shape[1])
    return w[-1] * psi - np.einsum("kij,jn,kn->in", eng.drift_ops, psi, w[:-1])


def test_theta_engine_drift_matches_matrix(rng):
    h = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)
    psi = qcore.random_pure_state(4, rng)
    st = QuantumState.pure(psi)
    for fam in DERANK_FAMILIES:
        spec = DisentanglementSpec(family=fam, gamma_d=0.7)
        eng = ThetaEngine(spec, h=h)
        tm = eng.matrix(st.density())
        expected = -(tm @ psi - np.vdot(psi, tm @ psi).real * psi)
        got = _drift_vectors(eng, psi[:, None])[:, 0]
        assert np.abs(got - expected).max() < 1e-10, fam


def test_disentanglement_spec_validation():
    with pytest.raises(ValueError):
        DisentanglementSpec(family=ThetaFamily.NONE, gamma_d=0.5)
    with pytest.raises(ValueError):
        DisentanglementSpec(family=ThetaFamily.CORR_SUPPRESS, gamma_d=-1.0)
    assert not DisentanglementSpec().active


def test_measure_report_fields(rng):
    st = QuantumState.pure(TILTED)
    rep = measure_report(st)
    assert abs(rep.delta - 0.75) < 1e-10
    assert abs(rep.tau_ab - 11.0 / 16.0) < 1e-10
    assert abs(rep.purity - 1.0) < 1e-10
    assert abs(2 * rep.k_entropy - rep.l_entropy) < 1e-8
    rho = qcore.random_density_matrix(4, rng)
    rep = measure_report(QuantumState.mixed(rho))
    assert 0.0 <= rep.delta <= 1.0
    assert 0.0 < rep.purity <= 1.0


def test_theta_engine_matrix_on_a_stack_matches_per_matrix_calls(rng):
    # One matrix contracts its expectations with gemv and a stack with gemm,
    # so B can differ in its last bit.  The Bloch families take the floored
    # log of B B^T/2, whose sensitivity grows as 1/lambda_min: that last bit
    # reached 5e-14 in Theta over 1500 random mixed states and 3.6e-12 over
    # 400 pure ones, so they are held to the literal-operator tolerance.
    h = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)
    rhos = _two_qubit_stack(rng, 6, 8)
    for fam in (*DERANK_FAMILIES, ThetaFamily.THERMALIZATION):
        tol = 1e-11 if fam in (ThetaFamily.BLOCH_DERANK_A, ThetaFamily.BLOCH_DERANK_B) else 1e-14
        if fam is ThetaFamily.THERMALIZATION:
            spec = DisentanglementSpec(family=fam, gamma_h=1.3, beta=0.8)
        else:
            spec = DisentanglementSpec(family=fam, gamma_d=0.7)
        eng = ThetaEngine(spec, h=h)
        stacked = eng.matrix(rhos)
        assert stacked.shape == rhos.shape
        for rho, got in zip(rhos, stacked):
            assert np.abs(got - eng.matrix(rho)).max() < tol, fam
        nested = eng.matrix(rhos[:4].reshape(2, 2, 4, 4))
        assert np.abs(nested.reshape(4, 4, 4) - eng.matrix(rhos[:4])).max() < 1e-14, fam


@pytest.mark.parametrize("r", [1, 3, 129])
@pytest.mark.parametrize("fam", [*DERANK_FAMILIES, ThetaFamily.THERMALIZATION])
def test_grid_coefficients_on_a_stack_match_per_state_calls(rng, fam, r):
    # the master stage's coefficient callable on an (R, 16) stack of grid
    # coordinates against R one-state calls.  Thermalization forms rho =
    # (1/2) x . G and reads B(log rho) with one dot per entry, whose bits do not
    # depend on R (a gemv for one state and a gemm for a stack could differ in
    # the last bit, which the floored log of rho magnifies by 1 / lambda_min)
    h = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)
    if fam is ThetaFamily.THERMALIZATION:
        spec = DisentanglementSpec(family=fam, gamma_h=1.3, beta=0.8)
    else:
        spec = DisentanglementSpec(family=fam, gamma_d=0.7)
    coeff, table = ThetaEngine(spec, h=h).grid()
    rhos = np.stack([qcore.random_density_matrix(4, rng, rank=1 + k % 4) for k in range(r)])
    x = bases.bloch_matrix_from_rho(rhos).reshape(r, 16)
    stacked = coeff(x)
    assert stacked.shape == (r, len(table))
    for xk, got in zip(x, stacked):
        assert np.abs(got - coeff(xk)).max() < 1e-12, fam


def _parent_eig_log(w, v):  # eig_log before qcore.eigh: a masked-store clamp, V^dag
    cut = qcore.DEFAULT_LOG_FLOOR * w[..., -1:]
    cut[cut <= 0.0] = qcore.DEFAULT_LOG_FLOOR
    return (v * np.log(np.maximum(w, cut))[..., None, :]) @ v.mT.conj()


@pytest.mark.parametrize("r", [1, 3, 17])
def test_theta_eigendecompositions_keep_the_wrappers_bits(rng, r):
    # the Bloch, state-matrix-derank and thermalization kernels run qcore.eigh;
    # their literal np.linalg.eigh forms are the references, bit for bit
    h = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)
    rhos = np.stack([qcore.random_density_matrix(4, rng, rank=1 + k % 4) for k in range(r)])
    psi = random_product_psi(rng)  # singular G and alpha: the floor clamps
    rhos[0] = np.outer(psi, psi.conj())
    b = bases.bloch_matrix_from_rho(rhos)
    x = b.reshape(r, 16)
    for x_in, b_in in ((x, b), (x[0], b[0])):  # a stack and one state
        bloch = ThetaEngine(DisentanglementSpec(ThetaFamily.BLOCH_DERANK_A, gamma_d=0.7))
        want = (_parent_eig_log(*np.linalg.eigh(b_in @ b_in.mT / 2.0)) @ b_in).reshape(x_in.shape)
        assert bloch.coefficients(x_in).tobytes() == want.tobytes()
        smd = ThetaEngine(DisentanglementSpec(ThetaFamily.STATE_MATRIX_DERANK, gamma_d=0.7))
        log_g = _parent_eig_log(*np.linalg.eigh(bases.reduced_state_a(b_in)))
        want = bases._contract(log_g, bases.spin_grid().expect).real
        assert smd.coefficients(x_in).tobytes() == want.tobytes()
    # thermalization: beta B(H) + B(log rho) over gamma_h G / 2, each B read
    # with one real dot per entry of the matrix
    therm = ThetaEngine(DisentanglementSpec(ThetaFamily.THERMALIZATION, gamma_h=1.3, beta=0.8),
                        h=h)
    grid = bases.observable_grid()
    g = grid.entries.reshape(16, -1).view(float)
    beta_h = 0.8 * np.vecdot(h.reshape(1, 16).view(float), g)
    for rho_in in (rhos[0], rhos):  # one state, then the stack
        lead = rho_in.shape[:-2]
        log = _parent_eig_log(*np.linalg.eigh(rho_in)).reshape(*lead, 1, 16)
        want = np.vecdot(log.view(float), g) + beta_h
        e = rho_in.reshape(*lead, 16).view(float)  # rho's entries, (Re, Im)
        assert therm.coefficients(e).tobytes() == want.tobytes()
    want = (want @ (1.3 * grid.half)).reshape(rhos.shape)
    assert therm.matrix(rhos).tobytes() == want.tobytes()


def test_theta_matrix_of_a_nan_state_follows_the_callers_errstate():
    # the real eigendecomposition of alpha, and thermalization's complex one
    # of rho, fail with LinAlgError; with no errstate around the call numpy
    # warns about the gufunc's flags first, and under the integrators'
    # errstate it does not
    h = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)
    rho = np.full((4, 4), np.nan, dtype=complex)
    for spec in (DisentanglementSpec(ThetaFamily.BLOCH_DERANK_A, gamma_d=0.7),
                 DisentanglementSpec(ThetaFamily.THERMALIZATION, gamma_h=1.3, beta=0.8)):
        engine = ThetaEngine(spec, h=h)
        with pytest.warns(RuntimeWarning, match="eigh_lo"):
            with pytest.raises(np.linalg.LinAlgError):
                engine.matrix(rho)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                with pytest.raises(np.linalg.LinAlgError):
                    engine.matrix(rho)


def test_thermalization_floors_a_stage_state_that_is_not_positive(rng):
    # a finite stage state with an eigenvalue of -1e-3 has its spectrum
    # floored, as state-matrix deranking's G has, and no error is raised
    h = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)
    u = qcore.random_unitary(4, rng)
    rho = (u * np.array([-1e-3, 0.2, 0.3, 0.501])) @ u.conj().T
    assert np.linalg.eigvalsh(rho)[0] < -9e-4
    x = bases.bloch_matrix_from_rho(rho).reshape(-1)
    spec = DisentanglementSpec(ThetaFamily.THERMALIZATION, gamma_h=1.3, beta=0.8)
    coeff, table = ThetaEngine(spec, h=h).grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (coeff(x), coeff(np.stack([x, x]))):
            assert c.shape[-1] == len(table)
            assert np.isfinite(c).all()


def test_bloch_theta_reads_the_measured_bloch_matrix(rng):
    # Theta's Bloch branch contracts rho through the grid's expectation matrix,
    # as bloch_matrix_from_rho does, so the engine's formula applied to the
    # measured B rebuilds the engine's Theta bit for bit
    rhos = np.stack([qcore.random_density_matrix(4, rng, rank=1 + k % 4) for k in range(20)])
    b = bases.bloch_matrix_from_rho(rhos)
    w = qcore.eig_log(*np.linalg.eigh(b @ b.mT / 2.0), qcore.DEFAULT_LOG_FLOOR) @ b
    pairs = -0.5 * 0.7 * bases.observable_grid().entries.reshape(16, 16)
    want = (w.reshape(20, 16) @ pairs).reshape(rhos.shape)
    for fam in (ThetaFamily.BLOCH_DERANK_A, ThetaFamily.BLOCH_DERANK_B):
        spec = DisentanglementSpec(family=fam, gamma_d=0.7)
        assert np.array_equal(ThetaEngine(spec).matrix(rhos), want), fam


def test_bloch_derank_b_is_the_beta_formula(rng):
    # bloch-derank-b runs the alpha kernel log(B B^T/2) B; the literal
    # operator takes B log(B^T B/2), which is the same matrix, since
    # f(B B^T) B = B f(B^T B) for any f (and the floored log cuts both
    # spectra at the same floor * w_max)
    fam = ThetaFamily.BLOCH_DERANK_B
    psi = [random_product_psi(rng) for _ in range(50)]
    psi += [qcore.random_pure_state(4, rng) for _ in range(50)]
    rhos = [np.outer(p, p.conj()) for p in psi]
    rhos += [qcore.random_density_matrix(4, rng, rank=1 + k % 4) for k in range(100)]
    engine = ThetaEngine(DisentanglementSpec(fam, gamma_d=1.0))
    for k, rho in enumerate(rhos):
        assert np.abs(engine.matrix(rho) - literal_theta(fam, rho, None)).max() < 1e-12, k


@pytest.mark.parametrize("n", [1, 129])
def test_theta_engine_drift_matches_literal_operators(rng, n):
    h = np.diag([1.0, 0.5, -0.5, -1.0]).astype(complex)
    psi = _pure_columns(rng, n)
    for fam in DERANK_FAMILIES:
        got = _drift_vectors(ThetaEngine(DisentanglementSpec(family=fam, gamma_d=0.7), h=h), psi)
        assert got.shape == psi.shape
        for k in range(n):
            p = psi[:, k]
            tm = 0.7 * literal_theta(fam, np.outer(p, p.conj()), h)
            expected = -(tm @ p - np.vdot(p, tm @ p).real * p)
            assert np.abs(got[:, k] - expected).max() < 1e-10, (fam, k)


def test_thermalization_drift_is_the_pure_state_identity(rng):
    # drift uses -gamma_h beta (H - <H>) psi; the generic path puts the whole
    # matrix, floored log of |psi><psi| included, on each column
    from disentsim.twospin import TwoSpinParams, build_hamiltonian

    h = build_hamiltonian(TwoSpinParams(delta=0.3, omega1=0.5, g=0.4))
    psi = _pure_columns(rng, 129)
    for gamma_h in (0.05, 1.0, 40.0):
        spec = DisentanglementSpec(family=ThetaFamily.THERMALIZATION, gamma_h=gamma_h, beta=0.8)
        eng = ThetaEngine(spec, h=h)
        got = _drift_vectors(eng, psi)
        for k in range(psi.shape[1]):
            p = psi[:, k]
            tm = eng.matrix(np.outer(p, p.conj()))
            generic = -(tm @ p - np.vdot(p, tm @ p).real * p)
            assert np.abs(got[:, k] - generic).max() < 1e-13 * max(gamma_h, 1.0), (gamma_h, k)


# The integrators' sampler formulas that the measure kernel replaced, kept as
# the reference it must match.


def _ref_log_eigs(w, floor):
    wmax = np.maximum(w[..., -1], 0.0)
    cut = floor * np.where(wmax > 0.0, wmax, 1.0)
    return np.log(np.maximum(w, cut[..., None]))


def _ref_from_bloch(b, gram, purity, floor):
    k_a = np.sqrt(2.0) * b[:, 1:4, 0]
    k_b = np.sqrt(2.0) * b[:, 0, 1:4]
    alpha = 0.5 * np.einsum("nab,ncb->nac", b, b)
    wa = np.linalg.eigvalsh(alpha)
    l_ent = -(np.maximum(wa, 0.0) * _ref_log_eigs(wa, floor)).sum(axis=-1)
    wg = np.linalg.eigvalsh(gram)
    k_ent = -(np.maximum(wg, 0.0) * _ref_log_eigs(wg, floor)).sum(axis=-1)
    delta = np.clip(4.0 * np.linalg.det(gram).real, 0.0, 1.0)
    cov = (np.sqrt(2.0) * b[:, 1:, 1:]
           - 2.0 * b[:, 1:, :1] * b[:, :1, 1:])
    tau = (cov * cov).sum(axis=(1, 2)) / 3.0
    return k_a, k_b, k_ent, l_ent, delta, tau, purity


def _ref_from_rho_stack(rhos, floor):
    b = np.einsum("abij,nji->nab", bases.observable_grid().entries, rhos).real
    gram = np.einsum("nibjb->nij", rhos.reshape(-1, 2, 2, 2, 2))
    purity = np.einsum("nij,nji->n", rhos, rhos).real
    return _ref_from_bloch(b, gram, purity, floor)


def _ref_from_psi_block(psi, floor):
    b = np.einsum("abij,jn,in->nab", bases.observable_grid().entries, psi, psi.conj()).real
    m = psi.reshape(2, 2, -1)
    gram = np.einsum("abn,cbn->nac", m, m.conj())
    return _ref_from_bloch(b, gram, np.ones(psi.shape[1]), floor)


def _kernel_columns(rhos, floor):
    b = bases.bloch_matrix_from_rho(rhos)
    rep = measures_from_bloch(b, floor)
    k_a, k_b = bases.single_spin_bloch_vectors(b)
    return k_a, k_b, rep.k_entropy, rep.l_entropy, rep.delta, rep.tau_ab, rep.purity


@pytest.mark.parametrize("floor", [qcore.DEFAULT_LOG_FLOOR, 1e-8])
def test_measure_kernel_matches_the_replaced_sampler(rng, floor):
    psi = np.concatenate([_pure_columns(rng, 40),
                          np.stack([random_product_psi(rng) for _ in range(5)], axis=1)], axis=1)
    rhos = np.einsum("in,jn->nij", psi, psi.conj())
    pairs = [(_kernel_columns(rhos, floor), _ref_from_psi_block(psi, floor))]
    mixed = np.stack([qcore.random_density_matrix(4, rng, rank=1 + k % 4) for k in range(40)])
    pairs.append((_kernel_columns(mixed, floor), _ref_from_rho_stack(mixed, floor)))
    for got, ref in pairs:
        for g, r in zip(got, ref):
            assert g.shape == r.shape
            assert np.abs(g - r).max() < 1e-12


def test_single_state_measures_are_the_kernel_row(rng):
    states = [QuantumState.pure(qcore.random_pure_state(4, rng)),
              QuantumState.pure(TILTED),
              QuantumState.mixed(qcore.random_density_matrix(4, rng))]
    for st in states:
        rep = measures_from_bloch(bases.bloch_matrix(st))
        assert measure_report(st) == MeasureReport(**{f: float(v) for f, v in vars(rep).items()})
        assert entanglement_l(st) == rep.l_entropy
        assert entanglement_k(st) == rep.k_entropy
        assert tau_correlation(st) == rep.tau_ab
