import numpy as np
import pytest

from disentsim import bases
from disentsim.bases import SIGMA_X, SIGMA_Z
from disentsim.dynamics import (
    DampingParams,
    DegenerateSteadyStateError,
    SpinDamping,
    TrajectoryRecord,
    dissipator_superop,
    hamiltonian_superop,
    steady_state,
    steady_states,
    two_spin_jump_operators,
)
from disentsim.entangle import tau_correlation
from disentsim.qcore import TWO_QUBITS, QuantumState, kron
from disentsim.twospin import (
    DRIVING_POINTS,
    PRESET_NAMES,
    AttractorKind,
    SweepGrid,
    TemperatureDomainError,
    TwoSpinParams,
    bath_temperature,
    build_hamiltonian,
    classify_attractor,
    effective_temperature,
    experiment_preset,
    rabi_frequency,
    run_sweep,
)


def test_hamiltonian_decoupled_limit():
    h = build_hamiltonian(TwoSpinParams())
    assert np.allclose(h, 0.5 * kron(SIGMA_Z, np.eye(2)))


def test_hamiltonian_hermitian_and_coupling_term(rng):
    for _ in range(20):
        p = TwoSpinParams(delta=rng.uniform(-2, 2), omega1=rng.uniform(0, 2),
                          g=rng.uniform(-3, 3))
        h = build_hamiltonian(p)
        assert np.abs(h - h.conj().T).max() == 0.0
    p0 = TwoSpinParams(g=1.3)
    base = build_hamiltonian(TwoSpinParams())
    assert np.allclose(build_hamiltonian(p0) - base, 0.5 * 1.3 * kron(SIGMA_X, SIGMA_Z))


def test_hamiltonian_detuning_mirror_spectrum():
    # conjugation by sigma_z (x) sigma_x maps delta -> -delta, so spectra match
    p = TwoSpinParams(delta=0.7, omega1=0.4, g=0.9)
    m = TwoSpinParams(delta=-0.7, omega1=0.4, g=0.9)
    w1 = np.linalg.eigvalsh(build_hamiltonian(p))
    w2 = np.linalg.eigvalsh(build_hamiltonian(m))
    assert np.abs(w1 - w2).max() < 1e-12


def test_rabi_frequency_values():
    s = 1.0 / np.sqrt(2.0)
    assert abs(rabi_frequency(TwoSpinParams(delta=s, omega1=s)) - 1.0) < 1e-15
    assert rabi_frequency(TwoSpinParams(delta=-0.4, omega1=0.0)) == 0.4
    assert abs(rabi_frequency(TwoSpinParams(delta=0.6, omega1=0.8)) - 1.0) < 1e-15


def test_effective_temperature_equilibrium_consistency():
    t = 3.7
    k_z = -np.tanh(1.0 / (2.0 * t))
    assert abs(effective_temperature(k_z) - t) < 1e-12


def test_effective_temperature_divergence_and_domain():
    assert effective_temperature(-1e-9) > 1e8
    for bad in (0.0, 0.2, -1.0, -1.5):
        with pytest.raises(TemperatureDomainError):
            effective_temperature(bad)


def test_bath_temperature_matches_polarization():
    n0 = 4.2
    t = bath_temperature(n0)
    assert abs(-np.tanh(1.0 / (2.0 * t)) + 1.0 / (2.0 * n0 + 1.0)) < 1e-12


def _synthetic_record(times, k_az):
    n = len(times)
    zeros = np.zeros(n)
    k_a = np.zeros((n, 3))
    k_a[:, 2] = k_az
    return TrajectoryRecord(
        times=times, k_a=k_a, k_b=np.zeros((n, 3)),
        k_entropy=zeros, l_entropy=zeros, delta=zeros, tau_ab=zeros,
        purity=np.ones(n), trace_err=zeros, herm_err=zeros, min_eig=zeros,
    )


def test_classify_synthetic_decay_is_fixed_point():
    t = np.linspace(0.0, 200.0, 2001)
    rec = _synthetic_record(t, 0.5 * np.exp(-t / 5.0) - 0.3)
    v = classify_attractor(rec)
    assert v.kind is AttractorKind.FIXED_POINT


def test_classify_synthetic_sinusoid_is_limit_cycle():
    t = np.linspace(0.0, 200.0, 4001)
    rec = _synthetic_record(t, -0.2 + 0.1 * np.sin(2 * np.pi * t / 7.0))
    v = classify_attractor(rec)
    assert v.kind is AttractorKind.LIMIT_CYCLE
    assert abs(v.period_estimate - 7.0) < 0.7


def test_classify_noise_is_not_a_cycle(rng):
    t = np.linspace(0.0, 200.0, 2001)
    rec = _synthetic_record(t, 0.05 * rng.standard_normal(len(t)))
    v = classify_attractor(rec)
    assert v.kind in (AttractorKind.UNDETERMINED, AttractorKind.FIXED_POINT)


def test_classify_rejects_short_record():
    t = np.linspace(0.0, 40.0, 401)
    rec = _synthetic_record(t, np.zeros(401))
    with pytest.raises(ValueError):
        classify_attractor(rec)


FIG1_DAMPING = DampingParams(a=SpinDamping(1e-2, 1e-6, 10.0),
                             b=SpinDamping(1e-1, 1e-5, 1e-4))


def test_run_sweep_deterministic_and_g0_column():
    grid = SweepGrid(delta_min=-1.0, delta_max=1.0, delta_n=5,
                     omega1_min=0.3, omega1_max=1.5, omega1_n=4)
    p = TwoSpinParams(g=0.0)
    r1 = run_sweep(p, FIG1_DAMPING, grid)
    r2 = run_sweep(p, FIG1_DAMPING, grid)
    assert np.array_equal(r1.bloch, r2.bloch)
    assert np.array_equal(r1.tau_ab, r2.tau_ab)
    # decoupled spins never correlate; spin a stays thermal
    assert np.nanmax(r1.tau_ab) < 1e-20
    k_az = np.sqrt(2.0) * r1.bloch[:, :, 3, 0]
    assert np.abs(k_az - FIG1_DAMPING.a.p_z0).max() < 1e-9


def test_run_sweep_hartmann_hahn_enhancement():
    grid = SweepGrid(delta_min=-2.0, delta_max=2.0, delta_n=17,
                     omega1_min=0.1, omega1_max=2.0, omega1_n=17)
    res = run_sweep(TwoSpinParams(g=1e-3), FIG1_DAMPING, grid)
    i, j = res.argmax_tau()
    omega_r = np.hypot(grid.delta_values[i], grid.omega1_values[j])
    cell = np.hypot(grid.delta_values[1] - grid.delta_values[0],
                    grid.omega1_values[1] - grid.omega1_values[0])
    assert abs(omega_r - 1.0) <= cell


def test_run_sweep_trace_coordinate_is_exact():
    # B[0,0] = Tr(rho)/2 of a trace-one state; a constant map, not one that
    # varies in the last bit from cell to cell
    grid = SweepGrid(delta_n=9, omega1_n=9)
    res = run_sweep(TwoSpinParams(g=1e-3), FIG1_DAMPING, grid)
    assert np.unique(res.bloch[..., 0, 0]).size == 1
    assert res.bloch[0, 0, 0, 0] == 1.0 / (4 * bases.observable_grid(2, 2).half[0, 0].real)


def test_run_sweep_records_cell_failures():
    # gamma1 = 0 everywhere makes the no-drive cells degenerate; the sweep
    # must keep going and mark them
    d = DampingParams(a=SpinDamping(0.0, 0.1, 0.0), b=SpinDamping(0.0, 0.1, 0.0))
    grid = SweepGrid(delta_min=-0.5, delta_max=0.5, delta_n=3,
                     omega1_min=0.5, omega1_max=1.0, omega1_n=2)
    res = run_sweep(TwoSpinParams(g=0.0), d, grid)
    assert (res.status == "degenerate").any()


def _per_cell_sweep(p, d, grid):
    """The cell-by-cell reference: one steady_state solve per grid cell."""
    shape = (grid.delta_n, grid.omega1_n)
    bloch = np.full((*shape, 4, 4), np.nan)
    tau = np.full(shape, np.nan)
    teff = np.full(shape, np.nan)
    status = np.full(shape, "", dtype=object)
    for i, dv in enumerate(grid.delta_values):
        for j, w1 in enumerate(grid.omega1_values):
            h = build_hamiltonian(TwoSpinParams(delta=float(dv), omega1=float(w1),
                                                g=p.g, omega_a=p.omega_a))
            try:
                rho = steady_state(h, d)
            except DegenerateSteadyStateError:
                status[i, j] = "degenerate"
                continue
            state = QuantumState(factor=TWO_QUBITS, rho=rho)
            b = bases.bloch_matrix(state)
            bloch[i, j] = b
            tau[i, j] = tau_correlation(state)
            k_a, _ = bases.single_spin_bloch_vectors(b)
            try:
                teff[i, j] = effective_temperature(float(k_a[2]), p.omega_a)
            except TemperatureDomainError:
                status[i, j] = "t_eff_domain"
    return bloch, tau, teff, status


def test_run_sweep_rows_match_per_cell_solves():
    grid = SweepGrid(delta_min=-1.5, delta_max=1.2, delta_n=6,
                     omega1_min=0.1, omega1_max=1.8, omega1_n=7)
    p = TwoSpinParams(g=0.3, omega_a=1.1)
    res = run_sweep(p, FIG1_DAMPING, grid)
    bloch, tau, teff, status = _per_cell_sweep(p, FIG1_DAMPING, grid)
    assert np.array_equal(res.status, status)
    assert np.abs(res.bloch - bloch).max() < 1e-12
    assert np.abs(res.tau_ab - tau).max() < 1e-12
    assert np.array_equal(np.isnan(res.t_eff), np.isnan(teff))
    assert np.nanmax(np.abs(res.t_eff / teff - 1.0)) < 1e-12
    assert np.nanmax(res.tau_ab) > 1e-6
    assert (status == "t_eff_domain").any()


def test_batched_kernel_flags_degenerate_cells():
    # the damping and grid of test_run_sweep_records_cell_failures
    d = DampingParams(a=SpinDamping(0.0, 0.1, 0.0), b=SpinDamping(0.0, 0.1, 0.0))
    grid = SweepGrid(delta_min=-0.5, delta_max=0.5, delta_n=3,
                     omega1_min=0.5, omega1_max=1.0, omega1_n=2)
    ops = two_spin_jump_operators(d)
    cells = [TwoSpinParams(delta=float(dv), omega1=float(w1))
             for dv in grid.delta_values for w1 in grid.omega1_values]
    lv = np.stack([hamiltonian_superop(build_hamiltonian(c)) + dissipator_superop(ops, 4)
                   for c in cells])
    obs = bases.observable_grid(2, 2)
    _, degenerate = steady_states(obs.superop(lv), obs)
    _, _, _, status = _per_cell_sweep(TwoSpinParams(g=0.0), d, grid)
    assert degenerate.any()
    assert np.array_equal(degenerate, (status == "degenerate").reshape(-1))
    res = run_sweep(TwoSpinParams(g=0.0), d, grid)
    assert np.array_equal(res.status, status)
    assert np.isnan(res.bloch[res.status == "degenerate"]).all()


def test_presets_cover_expected_names():
    for name in PRESET_NAMES:
        cfg = experiment_preset(name)
        assert "command" in cfg
    with pytest.raises(KeyError):
        experiment_preset("fig9-z")


def test_preset_fig2_b2_values():
    cfg = experiment_preset("fig2-B2")
    s = 1.0 / np.sqrt(2.0)
    assert cfg["disentangle.family"] == "bloch-derank-a"
    assert cfg["disentangle.gamma_d"] == 0.5
    assert abs(cfg["model.delta"] - s) < 1e-15
    assert abs(cfg["model.omega1"] - s) < 1e-15
    assert cfg["model.g"] == 1.0
    assert cfg["damping.a.gamma1"] == 0.1
    assert cfg["damping.a.gamma_phi"] == 0.01
    assert cfg["damping.b.gamma1"] == 1.0
    assert cfg["damping.b.gamma_phi"] == 0.1
    assert cfg["damping.a.n0"] == 5e-4
    assert cfg["damping.b.n0"] == 1e-5
    assert cfg["master.initial"] == "steady-linear"


def test_preset_fig1_ratios():
    cfg = experiment_preset("fig1-sweep")
    g = cfg["model.g"]
    assert g == 1e-3
    assert np.isclose(cfg["damping.a.gamma1"], 10.0 * g, rtol=1e-12)
    assert np.isclose(cfg["damping.a.gamma_phi"], 1e-4 * cfg["damping.a.gamma1"], rtol=1e-12)
    assert np.isclose(cfg["damping.b.gamma1"], 10.0 * cfg["damping.a.gamma1"], rtol=1e-12)
    assert np.isclose(cfg["damping.b.gamma_phi"], 10.0 * cfg["damping.a.gamma_phi"], rtol=1e-12)
    assert cfg["damping.a.n0"] == 10.0
    assert cfg["damping.b.n0"] == 1e-4
    assert cfg["disentangle.family"] == "none"


def test_preset_fig3_variants():
    a = experiment_preset("fig3-A")
    b = experiment_preset("fig3-B")
    assert a["command"] == b["command"] == "sde"
    assert a["disentangle.gamma_d"] == 0.1
    assert b["disentangle.gamma_d"] == 0.5
    assert a["model.g"] == 100.0
    assert a["damping.a.gamma1"] == 1e-3
    assert a["integrator.dt"] <= 1e-4
    s = 1.0 / np.sqrt(2.0)
    assert abs(a["model.delta"] - s) < 1e-15 and abs(a["model.omega1"] - s) < 1e-15


def test_driving_points_geometry():
    d1 = DRIVING_POINTS[1]
    d2 = DRIVING_POINTS[2]
    d3 = DRIVING_POINTS[3]
    assert d1[0] < 0 < d2[0] and d3[0] > 0
    for dv, ov in (d1, d2, d3):
        assert abs(np.hypot(dv, ov) - 1.0) < 0.05
