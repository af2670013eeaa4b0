"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The expensive fixtures (the six driven-pair nonlinear runs, the full sweep
and the trajectory ensemble) are session-scoped and shared between criteria.
"""

import time

import numpy as np
import pytest

from disentsim import qcore
from disentsim.bases import weyl_s_matrix
from disentsim.dynamics import (
    DampingParams,
    IntegratorConfig,
    SdeModel,
    SpinDamping,
    ensemble_mean_record,
    integrate_master,
    integrate_sle_ensemble,
    kraus_step_error,
    steady_state,
)
from disentsim.entangle import (
    DisentanglementSpec,
    ThetaFamily,
    build_theta,
    correlation_operator,
    delta_measure,
    entanglement_k,
    entanglement_l,
    g_from_state,
    q_bloch_operators,
    state_matrix,
    tau_correlation,
    weyl_t2_expectation,
)
from disentsim.qcore import QuantumState, TWO_QUBITS, kron
from disentsim.twospin import (
    DRIVING_POINTS,
    AttractorKind,
    SweepGrid,
    TwoSpinParams,
    build_hamiltonian,
    classify_attractor,
    run_sweep,
    single_spin_hamiltonian,
)

from conftest import analytic_driven_spin_bloch


def report(n: int, condition: bool, detail: str):
    status = "PASS" if condition else "FAIL"
    print(f"[criterion {n:02d}] {status} - {detail}")
    assert condition, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# Shared expensive fixtures.

FIG2_DAMPING = DampingParams(a=SpinDamping(0.1, 0.01, 5e-4),
                             b=SpinDamping(1.0, 0.1, 1e-5))
FIG3_DAMPING = DampingParams(a=SpinDamping(1e-3, 1e-4, 5e-4),
                             b=SpinDamping(1e-2, 1e-3, 1e-5))

FIG2_PRESETS = {
    f"fig2-{letter}{point}": (
        ThetaFamily.CORR_SUPPRESS if letter == "A" else ThetaFamily.BLOCH_DERANK_A,
        point,
    )
    for letter in "AB" for point in (1, 2, 3)
}


@pytest.fixture(scope="session")
def fig2_runs():
    cfg = IntegratorConfig(dt=1e-3, t_end=200.0)
    runs = {}
    for name, (family, point) in FIG2_PRESETS.items():
        delta, omega1 = DRIVING_POINTS[point]
        p = TwoSpinParams(delta=delta, omega1=omega1, g=1.0)
        h = build_hamiltonian(p)
        rho0 = steady_state(h, FIG2_DAMPING)
        initial = QuantumState(factor=TWO_QUBITS, rho=rho0)
        spec = DisentanglementSpec(family=family, gamma_d=0.5)
        rec = integrate_master(initial, h, spec, FIG2_DAMPING, cfg)
        runs[name] = rec
    return runs


@pytest.fixture(scope="session")
def fig1_sweep():
    damping = DampingParams(a=SpinDamping(1e-2, 1e-6, 10.0),
                            b=SpinDamping(1e-1, 1e-5, 1e-4))
    return run_sweep(TwoSpinParams(g=1e-3), damping, SweepGrid())


@pytest.fixture(scope="session")
def unravelling_pair():
    """SDE ensemble and GKSL reference on the strongly coupled model, gamma_D = 0."""
    delta, omega1 = DRIVING_POINTS[2]
    p = TwoSpinParams(delta=delta, omega1=omega1, g=100.0)
    h = build_hamiltonian(p)
    rho_ss = steady_state(h, FIG3_DAMPING)
    w, v = np.linalg.eigh(rho_ss)
    psi0 = v[:, -1]
    psi0 = psi0 * np.exp(-1j * np.angle(psi0[int(np.argmax(np.abs(psi0)))]))

    t_end = 40.0
    sde_cfg = IntegratorConfig(dt=2e-4, t_end=t_end, seed=20260810, sample_every=1000)
    model = SdeModel.two_spin(h, FIG3_DAMPING)
    # two worker processes give the bytes of one (tests/test_dynamics.py)
    _, records = integrate_sle_ensemble(psi0, model, sde_cfg, n_traj=2000, workers=2)
    mean = ensemble_mean_record(records)

    mcfg = IntegratorConfig(dt=2e-4, t_end=t_end, sample_every=1000)
    rec_master = integrate_master(
        QuantumState(factor=TWO_QUBITS, rho=np.outer(psi0, psi0.conj())),
        h, None, FIG3_DAMPING, mcfg)
    assert np.abs(mean.times - rec_master.times).max() < 1e-9
    return mean.times, mean.k_a, mean.k_b, rec_master


# ---------------------------------------------------------------------------
# Criteria.


def test_criterion_01_steady_state_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        delta = rng.uniform(-2.0, 2.0)
        omega1 = rng.uniform(0.05, 2.0)
        d = SpinDamping(gamma1=rng.uniform(0.01, 0.5),
                        gamma_phi=rng.uniform(0.0, 0.3),
                        n0=rng.uniform(0.0, 10.0))
        rho = steady_state(single_spin_hamiltonian(delta, omega1), d)
        got = np.array([
            np.trace(m @ rho).real
            for m in (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                      np.diag([1.0, -1.0]))
        ])
        worst = max(worst, float(np.abs(got - analytic_driven_spin_bloch(delta, omega1, d)).max()))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-9 and elapsed < 1.0,
           f"20 random driven spins, worst componentwise error {worst:.2e}, "
           f"runtime {elapsed:.2f}s")


def test_criterion_02_entanglement_identity_suite():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = {"tau": 0.0, "geig": 0.0, "kl": 0.0, "qa": 0.0, "qb": 0.0}
    for _ in range(200):
        psi = qcore.random_pure_state(4, rng)
        st = QuantumState.pure(psi, TWO_QUBITS)
        d = delta_measure(psi)
        worst["tau"] = max(worst["tau"],
                           abs(tau_correlation(st) - 2.0 * d * (1.0 + d / 2.0) / 3.0))
        ev = np.sort(np.linalg.eigvalsh(g_from_state(st)))
        ref = np.sort([(1 - np.sqrt(1 - d)) / 2, (1 + np.sqrt(1 - d)) / 2])
        worst["geig"] = max(worst["geig"], float(np.abs(ev - ref).max()))
        k = entanglement_k(st)
        l_val = entanglement_l(st)
        worst["kl"] = max(worst["kl"], abs(2 * k - l_val))
        qa, qb = q_bloch_operators(st)
        worst["qa"] = max(worst["qa"], abs(qa.expectation(st) - l_val))
        worst["qb"] = max(worst["qb"], abs(qb.expectation(st) - l_val))
    elapsed = time.perf_counter() - t0
    ok = (worst["tau"] <= 1e-9 and worst["geig"] <= 1e-10
          and worst["kl"] <= 1e-8 and worst["qa"] <= 1e-8 and worst["qb"] <= 1e-8
          and elapsed < 5.0)
    report(2, ok, "200 random pure states: "
           + ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
           + f", runtime {elapsed:.2f}s")


def test_criterion_03_local_unitary_invariance():
    rng = np.random.default_rng(303)
    psi = qcore.random_pure_state(4, rng)
    base = tau_correlation(QuantumState.pure(psi, TWO_QUBITS))
    worst = 0.0
    for _ in range(100):
        u = kron(qcore.random_unitary(2, rng), qcore.random_unitary(2, rng))
        rotated = QuantumState.pure(u @ psi, TWO_QUBITS)
        worst = max(worst, abs(tau_correlation(rotated) - base))
    report(3, worst <= 1e-9,
           f"tau_ab invariant under 100 random local unitaries, worst drift {worst:.2e}")


def test_criterion_04_product_state_noop():
    rng = np.random.default_rng(404)
    h = build_hamiltonian(TwoSpinParams(delta=0.3, omega1=0.7, g=1.0))
    families = (ThetaFamily.CORR_SUPPRESS, ThetaFamily.BLOCH_DERANK_A,
                ThetaFamily.BLOCH_DERANK_B, ThetaFamily.STATE_MATRIX_DERANK)
    worst = 0.0
    for _ in range(50):
        psi = np.kron(qcore.random_pure_state(2, rng), qcore.random_pure_state(2, rng))
        st = QuantumState.pure(psi, TWO_QUBITS)
        for fam in families:
            theta = build_theta(st, DisentanglementSpec(family=fam, gamma_d=1.0), h=h)
            drift = theta.matrix @ psi - theta.expectation(st) * psi
            worst = max(worst, float(np.linalg.norm(drift)))
    report(4, worst <= 1e-6,
           f"50 product states x 4 families at gamma_D=1: worst drift norm {worst:.2e}")


@pytest.mark.slow
def test_criterion_05_conservation_suite(fig2_runs):
    worst_tr, worst_herm, worst_eig = 0.0, 0.0, 0.0
    for rec in fig2_runs.values():
        worst_tr = max(worst_tr, float(rec.trace_err.max()))
        worst_herm = max(worst_herm, float(rec.herm_err.max()))
        worst_eig = min(worst_eig, float(rec.min_eig.min()))
    ok = worst_tr <= 1e-8 and worst_herm <= 1e-9 and worst_eig >= -1e-6
    report(5, ok, f"six nonlinear runs: |Tr-1| <= {worst_tr:.1e}, "
           f"herm <= {worst_herm:.1e}, min eig >= {worst_eig:.1e}")


def test_criterion_06_kraus_quadratic_order():
    rng = np.random.default_rng(606)
    h = build_hamiltonian(TwoSpinParams(delta=0.7, omega1=0.7, g=1.0))
    psi = qcore.random_pure_state(4, rng)
    st = QuantumState.pure(psi, TWO_QUBITS)
    theta = correlation_operator(st).matrix
    rho = st.density()
    ratios = []
    for tau in (2e-2, 1e-2, 5e-3):
        ratios.append(kraus_step_error(rho, h, theta, tau)
                      / kraus_step_error(rho, h, theta, tau / 2))
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    report(6, ok, "norm-conservation defect scales as tau^2, halving ratios "
           + ", ".join(f"{r:.3f}" for r in ratios))


@pytest.mark.slow
def test_criterion_07_unravelling_equivalence(unravelling_pair):
    times, ka_sde, kb_sde, rec_master = unravelling_pair
    tol = 4.0 / np.sqrt(2000.0)
    err_a = float(np.abs(ka_sde - rec_master.k_a).max())
    err_b = float(np.abs(kb_sde - rec_master.k_b).max())
    ok = err_a <= tol and err_b <= tol
    report(7, ok, f"2000 trajectories vs GKSL over {times[-1]:.0f}/omega_a: "
           f"max deviation k_a {err_a:.3f}, k_b {err_b:.3f} (tol {tol:.3f})")


def test_criterion_08_weyl_suite():
    rng = np.random.default_rng(808)
    psi_prod = np.kron(qcore.random_pure_state(2, rng), qcore.random_pure_state(2, rng))
    st = QuantumState.pure(psi_prod, TWO_QUBITS)
    s = weyl_s_matrix(st)
    sds = s.conj().T @ s
    prod_val = float(np.trace(sds @ sds).real)

    bell = QuantumState.pure(np.array([1, 0, 0, 1]) / np.sqrt(2.0), TWO_QUBITS)
    s = weyl_s_matrix(bell)
    sds_bell = s.conj().T @ s
    bell_val = float(np.trace(sds_bell @ sds_bell).real)

    worst_t2, worst_spec = 0.0, 0.0
    for _ in range(25):
        psi = qcore.random_pure_state(4, rng)
        st = QuantumState.pure(psi, TWO_QUBITS)
        s = weyl_s_matrix(st)
        sds = s.conj().T @ s
        worst_t2 = max(worst_t2, abs(weyl_t2_expectation(st)
                                     - float(np.trace(sds @ sds).real)))
        m = state_matrix(psi, TWO_QUBITS)
        mm = m.conj().T @ m
        ref = np.sort(np.linalg.eigvalsh(np.kron(mm, mm)))
        got = np.sort(np.linalg.eigvalsh(0.5 * (sds + sds.conj().T)))
        worst_spec = max(worst_spec, float(np.abs(ref - got).max()))
    ok = (abs(prod_val - 1.0) <= 1e-10 and abs(bell_val - 0.25) <= 1e-10
          and worst_t2 <= 1e-9 and worst_spec <= 1e-10)
    report(8, ok, f"product Tr((S+S)^2)={prod_val:.12f}, Bell={bell_val:.12f}, "
           f"T2 defect {worst_t2:.1e}, spectrum defect {worst_spec:.1e}")


@pytest.mark.slow
def test_criterion_09_sweep_qualitative(fig1_sweep):
    res = fig1_sweep
    grid = res.grid
    i, j = res.argmax_tau()
    omega_r = float(np.hypot(grid.delta_values[i], grid.omega1_values[j]))
    cell = float(np.hypot(grid.delta_values[1] - grid.delta_values[0],
                          grid.omega1_values[1] - grid.omega1_values[0]))
    on_circle = abs(omega_r - 1.0) <= cell

    t_base = res.base_temperature
    jcol = int(np.argmin(np.abs(grid.omega1_values - 0.7)))
    signs_ok = True
    for irow, dv in enumerate(grid.delta_values):
        if dv == 0.0:
            continue  # zero detuning carries no red/blue sign
        te = res.t_eff[irow, jcol]
        if not np.isfinite(te) or np.sign(te - t_base) != -np.sign(dv):
            signs_ok = False
            break
    report(9, on_circle and signs_ok,
           f"tau argmax at omega_R={omega_r:.4f} (cell {cell:.4f}); "
           f"sign(T_eff - T) == -sign(delta) along omega1={grid.omega1_values[jcol]:.3f}: "
           f"{signs_ok}")


EXPECTED_VERDICTS = {
    "fig2-A1": AttractorKind.FIXED_POINT,
    "fig2-B1": AttractorKind.FIXED_POINT,
    "fig2-A2": AttractorKind.LIMIT_CYCLE,
    "fig2-A3": AttractorKind.LIMIT_CYCLE,
    "fig2-B2": AttractorKind.LIMIT_CYCLE,
    "fig2-B3": AttractorKind.LIMIT_CYCLE,
}


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(EXPECTED_VERDICTS))
def test_criterion_10_attractor_verdicts(name, fig2_runs):
    # NOTE: the four blue-detuned limit-cycle cases fail in this
    # implementation: with the operator normalization pinned by criterion 2,
    # the reachable fixed point stays linearly stable at gamma_D = 0.5.
    # Newton in x_1..x_15 with a central-difference Jacobian of the RK4 stage
    # gives a largest Re lambda of -0.1752 (A2), -0.2725 (A3), -0.2737 (B2)
    # and -0.3670 (B3), and a scan up to gamma_D = 50 found no unstable fixed
    # point for corr-suppress or bloch-derank.  The assertion is kept as
    # specified rather than weakened.
    verdict = classify_attractor(fig2_runs[name])
    expected = EXPECTED_VERDICTS[name]
    report(10, verdict.kind is expected,
           f"{name}: expected {expected.value}, got {verdict.kind.value} "
           f"(amplitude {verdict.amplitude:.4f})")


def test_criterion_11_determinism(tmp_path):
    from disentsim.cli import main

    def run(tag, threads, seed=9):
        out = tmp_path / tag
        doc = tmp_path / f"{tag}.cfg"
        doc.write_text("\n".join([
            "command = sde",
            "model.delta = 0.7071", "model.omega1 = 0.7071", "model.g = 1.0",
            "damping.a.gamma1 = 0.001", "damping.a.gamma_phi = 0.0001",
            "damping.a.n0 = 0.0005",
            "damping.b.gamma1 = 0.01", "damping.b.gamma_phi = 0.001",
            "damping.b.n0 = 0.00001",
            "disentangle.family = corr-suppress", "disentangle.gamma_d = 0.5",
            "integrator.dt = 0.001", "integrator.t_end = 2.0",
            f"integrator.seed = {seed}", "integrator.sample_every = 200",
            "sde.n_traj = 32", "sde.emit_trajectories = 2",
            f"output.dir = {out}",
        ]) + "\n")
        assert main(["--config", str(doc), "--threads", str(threads)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.suffix in (".ndjson", ".csv", ".svg")}

    first = run("r1", threads=1)
    second = run("r2", threads=4)
    identical = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first)
    changed = run("r3", threads=1, seed=10)
    differs = any(first[k] != changed[k] for k in first if k.endswith(".ndjson"))
    report(11, identical and differs,
           f"{len(first)} data files byte-identical across repeat runs and "
           f"thread counts; seed change alters output: {differs}")
