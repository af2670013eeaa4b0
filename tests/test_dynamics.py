import numpy as np
import pytest

from disentsim import bases, qcore
from disentsim.bases import ID2, SIGMA_MINUS, SIGMA_X, SIGMA_Y, SIGMA_Z
from disentsim.dynamics import (
    DampingParams,
    DegenerateSteadyStateError,
    IntegratorConfig,
    SdeModel,
    SpinDamping,
    StateHealthError,
    _mme_stage,
    dissipator_superop,
    integrate_master,
    integrate_sle_ensemble,
    kraus_step_error,
    lindblad_dissipator,
    liouvillian_matrix,
    mme_rhs,
    noise_increments,
    sle_step,
    spin_jump_operators,
    steady_state,
    steady_states,
    two_spin_jump_operators,
    two_spin_lindblad,
)
from disentsim.entangle import (
    DisentanglementSpec,
    ThetaEngine,
    ThetaFamily,
    build_theta,
    tau_from_rho,
    thermalization_operator,
)
from disentsim.qcore import QuantumState, TWO_QUBITS, kron
from disentsim.twospin import TwoSpinParams, build_hamiltonian, single_spin_hamiltonian

from conftest import analytic_driven_spin_bloch, literal_theta


def thermal_qubit(n0: float) -> np.ndarray:
    p = 1.0 / (2.0 * n0 + 1.0)
    return np.diag([(1 - p) / 2, (1 + p) / 2]).astype(complex)


def test_damping_derived_times_roundtrip():
    d = SpinDamping(gamma1=0.2, gamma_phi=0.05, n0=1.5)
    assert abs(1.0 / d.t1 - (-d.gamma1 / d.p_z0)) < 1e-15
    assert abs(1.0 / d.t2 - (-(d.gamma1 / 2 + d.gamma_phi) / d.p_z0)) < 1e-15
    assert abs(-1.0 / d.p_z0 - (2 * d.n0 + 1.0)) < 1e-15


def test_dissipator_identity_is_zero(rng):
    rho = qcore.random_density_matrix(3, rng)
    assert np.abs(lindblad_dissipator(np.eye(3), rho)).max() < 1e-14


def test_dissipator_decay_channel():
    excited = np.diag([1.0, 0.0]).astype(complex)
    out = lindblad_dissipator(SIGMA_MINUS, excited)
    assert np.allclose(out, np.diag([-1.0, 1.0]))


def test_dissipator_traceless(rng):
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = qcore.random_density_matrix(4, rng)
    out = lindblad_dissipator(x, rho)
    assert abs(np.trace(out)) < 1e-12
    assert np.abs(out - out.conj().T).max() < 1e-12


def test_two_spin_thermal_fixed_point():
    d = DampingParams(a=SpinDamping(0.3, 0.02, 2.0), b=SpinDamping(0.1, 0.05, 0.4))
    rho = kron(thermal_qubit(d.a.n0), thermal_qubit(d.b.n0))
    assert np.abs(two_spin_lindblad(rho, d)).max() < 1e-12


def test_pure_dephasing_keeps_populations(rng):
    d = DampingParams(a=SpinDamping(0.0, 0.4, 0.0), b=SpinDamping(0.0, 0.2, 0.0))
    rho = qcore.random_density_matrix(4, rng)
    out = two_spin_lindblad(rho, d)
    assert np.abs(np.diag(out)).max() < 1e-12
    assert np.abs(out[0, 3]) > 0  # coherences do decay


def test_dissipator_superop_matches_literal(rng):
    d = DampingParams(a=SpinDamping(0.3, 0.02, 2.0), b=SpinDamping(0.1, 0.05, 0.4))
    ops = two_spin_jump_operators(d)
    ld = dissipator_superop(ops, 4)
    rho = qcore.random_density_matrix(4, rng)
    lhs = (ld @ rho.reshape(-1)).reshape(4, 4)
    assert np.abs(lhs - two_spin_lindblad(rho, d)).max() < 1e-12


def test_mme_rhs_traceless_and_unitary_limit(rng):
    h = build_hamiltonian(TwoSpinParams(delta=0.3, omega1=0.8, g=0.5))
    rho = qcore.random_density_matrix(4, rng)
    out = mme_rhs(rho, h)
    assert abs(np.trace(out)) < 1e-10
    # purity is conserved by the bare commutator flow
    d_purity = 2.0 * np.trace(rho @ out).real
    assert abs(d_purity) < 1e-10


def test_mme_identity_theta_is_inert(rng):
    h = build_hamiltonian(TwoSpinParams(delta=0.1, omega1=0.5, g=0.2))
    rho = qcore.random_density_matrix(4, rng)
    base = mme_rhs(rho, h)
    shifted = mme_rhs(rho, h, theta=3.7 * np.eye(4))
    assert np.abs(base - shifted).max() < 1e-10


def test_mme_rhs_nonlinear_term_traceless(rng):
    h = build_hamiltonian(TwoSpinParams(delta=0.1, omega1=0.5, g=0.2))
    rho = qcore.random_density_matrix(4, rng)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    theta = a + a.conj().T
    out = mme_rhs(rho, h, theta=theta)
    assert abs(np.trace(out)) < 1e-10


def test_kraus_error_zero_theta(rng):
    # the truncated pair is norm-exact only when both generators vanish;
    # with a Hamiltonian present the defect is exactly tau^2 <H^2>
    rho = qcore.random_density_matrix(4, rng)
    assert kraus_step_error(rho, np.zeros((4, 4)), np.zeros((4, 4)), 1e-2) < 1e-12
    h = build_hamiltonian(TwoSpinParams(delta=0.2, omega1=0.6, g=0.3))
    tau = 1e-2
    expected = tau * tau * np.trace(rho @ h @ h).real
    assert abs(kraus_step_error(rho, h, np.zeros((4, 4)), tau) - expected) < 1e-12


def test_kraus_error_quadratic_scaling(rng):
    h = build_hamiltonian(TwoSpinParams(delta=0.2, omega1=0.6, g=0.3))
    rho = qcore.random_density_matrix(4, rng)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    theta = a + a.conj().T
    theta = theta + 4.0 * np.eye(4)  # keep <Theta> positive for K0
    tau = 1e-3
    e1 = kraus_step_error(rho, h, theta, tau)
    e2 = kraus_step_error(rho, h, theta, tau / 2)
    assert 3.5 <= e1 / e2 <= 4.5


def test_kraus_flags_negative_expectation(rng):
    rho = qcore.random_density_matrix(4, rng)
    with pytest.raises(ValueError):
        kraus_step_error(rho, np.zeros((4, 4)), -np.eye(4), 1e-3)


def test_kraus_operators_hermitian_without_hamiltonian(rng):
    # with H = 0 both Kraus factors are Hermitian: K1 = 1 - Theta tau
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    theta = a + a.conj().T
    k1 = np.eye(4) - theta * 1e-3
    assert np.abs(k1 - k1.conj().T).max() < 1e-15


def test_steady_state_no_drive_thermal_product():
    d = DampingParams(a=SpinDamping(0.2, 0.01, 3.0), b=SpinDamping(0.4, 0.02, 0.2))
    h = build_hamiltonian(TwoSpinParams(delta=0.0, omega1=0.0, g=0.0))
    rho = steady_state(h, d)
    ref = kron(thermal_qubit(d.a.n0), thermal_qubit(d.b.n0))
    assert np.abs(rho - ref).max() < 1e-10


def test_steady_state_single_spin_matches_analytic(rng):
    for _ in range(10):
        delta = rng.uniform(-2, 2)
        omega1 = rng.uniform(0.05, 2)
        d = SpinDamping(gamma1=rng.uniform(0.01, 0.5), gamma_phi=rng.uniform(0.0, 0.3),
                        n0=rng.uniform(0.0, 5.0))
        rho = steady_state(single_spin_hamiltonian(delta, omega1), d)
        got = np.array([np.trace(s @ rho).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])
        ref = analytic_driven_spin_bloch(delta, omega1, d)
        assert np.abs(got - ref).max() < 1e-9


def test_steady_state_zero_detuning_kills_dispersive():
    d = SpinDamping(gamma1=0.1, gamma_phi=0.02, n0=0.3)
    rho = steady_state(single_spin_hamiltonian(0.0, 0.7), d)
    assert abs(np.trace(SIGMA_X @ rho).real) < 1e-10


def test_steady_state_degenerate_reported():
    # pure dephasing with no drive leaves every population distribution steady
    d = SpinDamping(gamma1=0.0, gamma_phi=0.3, n0=0.0)
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(0.5 * SIGMA_Z, d)


def _rank_one_deficient(rho: np.ndarray) -> np.ndarray:
    """A generator whose only null vector is vec(rho)."""
    v = rho.reshape(-1) / np.linalg.norm(rho)
    return np.eye(v.size) - np.outer(v, v.conj())


def test_steady_states_verdict_rules():
    good = np.diag([0.25, 0.75]).astype(complex)
    lv = np.stack([
        _rank_one_deficient(good),
        _rank_one_deficient(np.diag([1.0, -1.0]).astype(complex)),  # traceless
        np.zeros((4, 4), dtype=complex),                             # 4-dim null space
    ])
    rho, degenerate = steady_states(lv)
    assert degenerate.tolist() == [False, True, True]
    assert np.abs(rho[0] - good).max() < 1e-14
    assert np.isnan(rho[1:]).all()
    indefinite = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(StateHealthError):
        steady_states(np.stack([lv[0], _rank_one_deficient(indefinite)]))


def test_liouvillian_matrix_action(rng):
    d = DampingParams(a=SpinDamping(0.3, 0.02, 2.0), b=SpinDamping(0.1, 0.05, 0.4))
    h = build_hamiltonian(TwoSpinParams(delta=0.2, omega1=0.4, g=0.3))
    lv = liouvillian_matrix(h, two_spin_jump_operators(d))
    rho = qcore.random_density_matrix(4, rng)
    lhs = (lv @ rho.reshape(-1)).reshape(4, 4)
    rhs = mme_rhs(rho, h, damping=d)
    assert np.abs(lhs - rhs).max() < 1e-12


FIG2_DAMPING = DampingParams(a=SpinDamping(0.1, 0.01, 5e-4),
                             b=SpinDamping(1.0, 0.1, 1e-5))


def test_integrate_master_stationary_at_linear_steady_state():
    p = TwoSpinParams(delta=-0.4, omega1=0.9, g=1.0)
    h = build_hamiltonian(p)
    rho0 = steady_state(h, FIG2_DAMPING)
    cfg = IntegratorConfig(dt=2e-3, t_end=100.0, sample_every=100)
    rec = integrate_master(QuantumState(factor=TWO_QUBITS, rho=rho0), h,
                           None, FIG2_DAMPING, cfg)
    drift = max(np.abs(rec.k_a - rec.k_a[0]).max(), np.abs(rec.k_b - rec.k_b[0]).max())
    assert drift < 1e-8
    assert rec.trace_err.max() < 1e-8
    assert rec.herm_err.max() < 1e-9
    assert rec.min_eig.min() > -1e-6


def test_integrate_master_rk4_convergence():
    p = TwoSpinParams(delta=0.5, omega1=0.7, g=0.8)
    h = build_hamiltonian(p)
    rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    initial = QuantumState(factor=TWO_QUBITS, rho=rho0)

    def final_bloch(dt):
        cfg = IntegratorConfig(dt=dt, t_end=2.0, sample_every=10**9)
        rec = integrate_master(initial, h, None, FIG2_DAMPING, cfg)
        return rec.k_a[-1]

    ref = final_bloch(0.0025)
    e1 = np.abs(final_bloch(0.04) - ref).max()
    e2 = np.abs(final_bloch(0.02) - ref).max()
    assert 10.0 < e1 / e2 < 22.0  # fourth order: ratio ~ 16


def test_integrate_master_positivity_abort():
    # a wildly oversized step makes RK4 leave the physical state space;
    # the integrator must report, not repair
    p = TwoSpinParams(delta=0.5, omega1=0.7, g=1.0)
    h = build_hamiltonian(p)
    rho0 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    cfg = IntegratorConfig(dt=0.9, t_end=400.0, sample_every=1)
    with pytest.raises(StateHealthError) as err:
        integrate_master(QuantumState(factor=TWO_QUBITS, rho=rho0), h,
                         None, FIG2_DAMPING, cfg)
    assert "min eigenvalue" in str(err.value)


@pytest.mark.parametrize("family", [ThetaFamily.NONE, ThetaFamily.BLOCH_DERANK_A])
def test_integrate_master_non_finite_abort(family):
    # one step of 1e100 overflows the state; the linear run meets it at the
    # sample point, the nonlinear one inside Theta's eigendecomposition
    h = build_hamiltonian(TwoSpinParams(delta=0.5, omega1=0.7, g=1.0))
    rho0 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    spec = DisentanglementSpec(family=family,
                               gamma_d=0.0 if family is ThetaFamily.NONE else 0.5)
    cfg = IntegratorConfig(dt=1e100, t_end=1e100)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StateHealthError, match="not finite") as err:
            integrate_master(QuantumState(factor=TWO_QUBITS, rho=rho0), h,
                             spec, FIG2_DAMPING, cfg)
    assert np.isnan(err.value.min_eig)


ALL_FAMILIES = [ThetaFamily.CORR_SUPPRESS, ThetaFamily.BLOCH_DERANK_A,
                ThetaFamily.BLOCH_DERANK_B, ThetaFamily.STATE_MATRIX_DERANK,
                ThetaFamily.THERMALIZATION]


def _spec(family: ThetaFamily) -> DisentanglementSpec:
    if family is ThetaFamily.THERMALIZATION:
        return DisentanglementSpec(family=family, gamma_h=0.7, beta=1.3)
    return DisentanglementSpec(family=family, gamma_d=0.5)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_integrator_stage_matches_mme_rhs(family, rng):
    # the stage integrate_master runs (one Liouvillian matvec plus the
    # engine's Theta) against the public right-hand side, and that against
    # the literal equation with a literal Theta
    h = build_hamiltonian(TwoSpinParams(delta=0.3, omega1=0.8, g=0.5))
    spec = _spec(family)
    lv = liouvillian_matrix(h, two_spin_jump_operators(FIG2_DAMPING))
    engine = ThetaEngine(spec, TWO_QUBITS, h=h)
    for _ in range(3):
        rho = qcore.random_density_matrix(4, rng)
        state = QuantumState.mixed(rho, TWO_QUBITS)
        stage = _mme_stage(lv, rho, engine.matrix(rho))
        public = mme_rhs(rho, h, build_theta(state, spec, h), FIG2_DAMPING)
        assert np.abs(stage - public).max() < 1e-12
        if family is ThetaFamily.THERMALIZATION:
            tm = literal_theta(family, rho, h, spec.gamma_h, spec.beta)
        else:
            tm = spec.gamma_d * literal_theta(family, rho, h)
        literal = (1j * (rho @ h - h @ rho) + two_spin_lindblad(rho, FIG2_DAMPING)
                   - tm @ rho - rho @ tm + 2.0 * np.trace(tm @ rho).real * rho)
        assert np.abs(public - literal).max() < 1e-10


def _reference_rk4(rho, h, spec, damping, dt, n_steps, stride):
    """Plain RK4 on the public mme_rhs, Theta rebuilt by build_theta per stage."""
    def rhs(r):
        theta = build_theta(QuantumState(factor=TWO_QUBITS, rho=r), spec, h)
        return mme_rhs(r, h, theta, damping)

    samples = [rho]
    for step in range(1, n_steps + 1):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % stride == 0:
            samples.append(rho)
    return np.stack(samples)


@pytest.mark.parametrize("family,point", [(ThetaFamily.CORR_SUPPRESS, 2),
                                          (ThetaFamily.BLOCH_DERANK_A, 2)])
def test_integrate_master_matches_reference_rk4(family, point):
    # fig2-A2 and fig2-B2 over 2000 steps
    from disentsim.twospin import DRIVING_POINTS

    delta, omega1 = DRIVING_POINTS[point]
    h = build_hamiltonian(TwoSpinParams(delta=delta, omega1=omega1, g=1.0))
    rho0 = steady_state(h, FIG2_DAMPING)
    spec = DisentanglementSpec(family=family, gamma_d=0.5)
    cfg = IntegratorConfig(dt=1e-3, t_end=2.0, sample_every=100)
    rec = integrate_master(QuantumState(factor=TWO_QUBITS, rho=rho0), h, spec,
                           FIG2_DAMPING, cfg)
    ref = _reference_rk4(rho0, h, spec, FIG2_DAMPING, cfg.dt, cfg.n_steps, cfg.stride)
    ref = 0.5 * (ref + ref.conj().transpose(0, 2, 1))
    k_a, k_b = bases.single_spin_bloch_vectors(bases.bloch_matrix_from_rho(ref, 2, 2))
    assert rec.n_samples == len(ref)
    assert np.abs(rec.k_a - k_a).max() < 1e-10
    assert np.abs(rec.k_b - k_b).max() < 1e-10
    assert np.abs(rec.tau_ab - tau_from_rho(ref, TWO_QUBITS)).max() < 1e-10


def test_sle_ensemble_rejects_non_positive_damping_factor():
    # dt * lambda_max(sum V^dag V / 2) >= 1 flips the sign of the
    # Euler-Maruyama damping factor; the run must not start
    h = build_hamiltonian(TwoSpinParams(delta=0.4, omega1=0.6, g=0.5))
    model = SdeModel.two_spin(h, FIG2_DAMPING)
    rate = 0.5 * np.linalg.eigvalsh(
        sum(x.conj().T @ x for x in two_spin_jump_operators(FIG2_DAMPING)))[-1]
    psi0 = np.array([1.0, 0, 0, 0], dtype=complex)
    for dt in (1.0 / rate, 1e100):
        cfg = IntegratorConfig(dt=dt, t_end=dt, method="euler-maruyama")
        with pytest.raises(StateHealthError, match="damping factor"):
            integrate_sle_ensemble(psi0, model, cfg, n_traj=2)
    cfg = IntegratorConfig(dt=0.9 / rate, t_end=0.9 / rate, method="euler-maruyama")
    integrate_sle_ensemble(psi0, model, cfg, n_traj=2)


def test_sle_ensemble_non_finite_abort():
    # no jump operators, so only the sample-point check can catch the
    # thermalization drift overflowing in one step of 1e300
    h = build_hamiltonian(TwoSpinParams(delta=0.4, omega1=0.6, g=0.5))
    model = SdeModel(h=h, jump_ops=(), factor=TWO_QUBITS,
                     dspec=DisentanglementSpec(family=ThetaFamily.THERMALIZATION,
                                               gamma_h=1.0))
    psi0 = np.full(4, 0.5, dtype=complex)
    cfg = IntegratorConfig(dt=1e300, t_end=1e300, method="euler-maruyama")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StateHealthError, match="not finite") as err:
            integrate_sle_ensemble(psi0, model, cfg, n_traj=2)
    assert err.value.t == 1e300


def test_sle_step_unitary_limit(rng):
    h = build_hamiltonian(TwoSpinParams(delta=0.3, omega1=0.5, g=0.4))
    psi = qcore.random_pure_state(4, rng)
    out = sle_step(psi, h, [], None, 1e-3, rng, renormalize=False)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_sle_noise_moments(rng):
    dt = 1e-3
    draws = noise_increments(rng, 1, dt, shape=(100_000,))[:, 0]
    n = len(draws)
    assert abs(draws.mean()) < 3.0 * np.sqrt(dt / n)
    var_re = draws.real.var()
    assert abs(var_re - dt / 2) < 0.05 * (dt / 2)
    var_im = draws.imag.var()
    assert abs(var_im - dt / 2) < 0.05 * (dt / 2)
    # no non-conjugate correlation: E[xi^2] = 0
    assert abs((draws ** 2).mean()) < 3.0 * dt / np.sqrt(n)


def test_sle_step_product_state_theta_noop(rng):
    from disentsim.entangle import correlation_operator

    h = build_hamiltonian(TwoSpinParams(delta=0.3, omega1=0.5, g=0.4))
    psi = np.kron(qcore.random_pure_state(2, rng), qcore.random_pure_state(2, rng))
    st = QuantumState.pure(psi, TWO_QUBITS)
    theta = correlation_operator(st)
    r1 = np.random.default_rng(99)
    r2 = np.random.default_rng(99)
    with_theta = sle_step(psi, h, [], theta, 1e-3, r1)
    without = sle_step(psi, h, [], None, 1e-3, r2)
    assert np.abs(with_theta - without).max() < 1e-9


def test_sle_step_norm_drift_second_order(rng):
    # deterministic damping drift alone changes the norm only at O(dt)
    # with coefficient <V+V>; after the analytic correction the residue is O(dt^2)
    d = SpinDamping(0.3, 0.1, 0.2)
    ops = [kron(x, ID2) for x in spin_jump_operators(d)]
    h = build_hamiltonian(TwoSpinParams(delta=0.3, omega1=0.5, g=0.4))
    psi = qcore.random_pure_state(4, rng)
    half = sum(x.conj().T @ x for x in ops)
    vexp = float(np.vdot(psi, half @ psi).real)
    for dt in (1e-3, 5e-4):
        out = psi - 0.5 * dt * (half @ psi)
        drift = abs(np.vdot(out, out).real - (1.0 - dt * vexp))
        assert drift < 2.0 * (dt * np.abs(half).max()) ** 2


def test_sle_nonlinear_drift_conserves_norm_to_second_order(rng):
    # the modified-Schrodinger drift -(Theta - <Theta>)psi leaves the norm
    # unchanged at first order; the pre-renormalization residue is O(dt^2)
    from disentsim.entangle import correlation_operator

    psi = qcore.random_pure_state(4, rng)
    st = QuantumState.pure(psi, TWO_QUBITS)
    theta = correlation_operator(st)
    h = build_hamiltonian(TwoSpinParams(delta=0.3, omega1=0.5, g=0.4))
    dt = 1e-4
    out = sle_step(psi, h, [], theta, dt, rng, renormalize=False)
    assert abs(np.vdot(out, out).real - 1.0) <= 1e-8


def test_classify_linear_runs_always_fixed_point():
    from disentsim.twospin import AttractorKind, classify_attractor

    d = DampingParams(a=SpinDamping(0.1, 0.01, 5e-4), b=SpinDamping(1.0, 0.1, 1e-5))
    h = build_hamiltonian(TwoSpinParams(delta=0.7, omega1=0.7, g=1.0))
    rho0 = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
    cfg = IntegratorConfig(dt=2e-3, t_end=150.0, sample_every=25)
    rec = integrate_master(QuantumState(factor=TWO_QUBITS, rho=rho0), h, None, d, cfg)
    verdict = classify_attractor(rec)
    assert verdict.kind is AttractorKind.FIXED_POINT


def test_ensemble_deterministic_for_fixed_seed():
    d = DampingParams(a=SpinDamping(0.05, 0.01, 0.1), b=SpinDamping(0.1, 0.02, 0.05))
    h = build_hamiltonian(TwoSpinParams(delta=0.4, omega1=0.6, g=0.5))
    model = SdeModel.two_spin(h, d)
    psi0 = np.array([1.0, 0, 0, 0], dtype=complex)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.8, method="euler-maruyama", seed=42,
                           sample_every=100)
    rho1, recs1 = integrate_sle_ensemble(psi0, model, cfg, n_traj=7)
    rho2, recs2 = integrate_sle_ensemble(psi0, model, cfg, n_traj=7)
    assert np.array_equal(rho1, rho2)
    for a, b in zip(recs1, recs2):
        assert np.array_equal(a.k_a, b.k_a)
    cfg3 = IntegratorConfig(dt=1e-3, t_end=0.8, method="euler-maruyama", seed=43,
                            sample_every=100)
    rho3, _ = integrate_sle_ensemble(psi0, model, cfg3, n_traj=7)
    assert np.abs(rho1 - rho3).max() > 0


def test_ensemble_single_driven_spin_matches_analytic():
    # weighted time-and-ensemble average vs the closed-form steady state
    delta, omega1 = 0.6, 0.9
    d = SpinDamping(gamma1=0.25, gamma_phi=0.05, n0=0.15)
    h = single_spin_hamiltonian(delta, omega1)
    model = SdeModel(h=h, jump_ops=tuple(spin_jump_operators(d)))
    psi0 = np.array([0.0, 1.0], dtype=complex)
    cfg = IntegratorConfig(dt=1e-3, t_end=30.0, method="euler-maruyama", seed=7,
                           sample_every=50)
    _, recs = integrate_sle_ensemble(psi0, model, cfg, n_traj=1024)
    times = recs[0].times
    mask = times >= 12.0
    w = np.stack([r.weight[mask] for r in recs])
    w = w / w.sum()
    k_mean = np.einsum("rs,rsj->j", w, np.stack([r.k_a[mask] for r in recs]))
    ref = analytic_driven_spin_bloch(delta, omega1, d)
    # 3 standard errors with the effective (weight-degraded, time-correlated)
    # sample count: ~one independent draw per T2 per trajectory
    ess = float(w.sum() ** 2 / (w * w).sum()) * (times[mask][-1] - times[mask][0]) \
        / (mask.sum() * d.t2)
    se = 1.0 / np.sqrt(max(ess, 1.0))
    assert np.abs(k_mean - ref).max() < max(3.0 * se, 0.05)


def test_ensemble_mean_matches_master_without_theta():
    d = DampingParams(a=SpinDamping(0.2, 0.05, 0.3), b=SpinDamping(0.3, 0.1, 0.1))
    p = TwoSpinParams(delta=0.4, omega1=0.8, g=0.6)
    h = build_hamiltonian(p)
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    cfg = IntegratorConfig(dt=1e-3, t_end=6.0, method="euler-maruyama", seed=11,
                           sample_every=500)
    model = SdeModel.two_spin(h, d)
    _, recs = integrate_sle_ensemble(psi0, model, cfg, n_traj=800)
    mcfg = IntegratorConfig(dt=5e-4, t_end=6.0, sample_every=1000)
    rec_master = integrate_master(
        QuantumState(factor=TWO_QUBITS, rho=np.outer(psi0, psi0.conj())),
        h, None, d, mcfg)
    from disentsim.dynamics import ensemble_mean_bloch

    _, ka_sde, _ = ensemble_mean_bloch(recs)
    tol = 4.0 / np.sqrt(800)
    assert np.abs(ka_sde[-1] - rec_master.k_a[-1]).max() < tol


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=-1e-3)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1.0, t_end=0.5)
    with pytest.raises(ValueError):
        IntegratorConfig(method="heun")
