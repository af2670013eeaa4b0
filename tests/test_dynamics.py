import math
import multiprocessing
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from disentsim import bases, dynamics, qcore
from disentsim.bases import ID2, SIGMA_MINUS, SIGMA_X, SIGMA_Y, SIGMA_Z
from disentsim.dynamics import (
    DampingParams,
    DegenerateSteadyStateError,
    IntegratorConfig,
    MIN_BLOCK,
    SdeModel,
    SpinDamping,
    StateHealthError,
    _NOISE_BLOCK,
    _NOISE_CHUNK,
    _mme_stage,
    _noise_chunks,
    _sle_block_step,
    _sle_step_matrix,
    block_bounds,
    damping_superop,
    dissipator_superop,
    ensemble_mean_record,
    grid_liouvillian,
    hamiltonian_superop,
    integrate_master,
    integrate_sle_ensemble,
    kraus_step_error,
    spin_jump_operators,
    steady_state,
    steady_states,
    two_spin_jump_operators,
)
from disentsim.config import parse_config_dict
from disentsim.entangle import (
    DisentanglementSpec,
    ThetaEngine,
    ThetaFamily,
    build_theta,
    tau_from_bloch,
)
from disentsim.qcore import QuantumState, TWO_QUBITS, kron
from disentsim.twospin import (TwoSpinParams, build_hamiltonian, experiment_preset,
                               single_spin_hamiltonian)
from disentsim.workers import run_blocks

from conftest import analytic_driven_spin_bloch, literal_theta

FIG3_DAMPING = DampingParams(a=SpinDamping(1e-3, 1e-4, 5e-4),
                             b=SpinDamping(1e-2, 1e-3, 1e-5))


def lindblad_dissipator(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Literal D_rho(X) = X rho X^dag - (X^dag X rho + rho X^dag X)/2."""
    xdx = x.conj().T @ x
    return x @ rho @ x.conj().T - 0.5 * (xdx @ rho + rho @ xdx)


def two_spin_lindblad(rho: np.ndarray, d: DampingParams) -> np.ndarray:
    """Literal sum of the six per-spin dissipators acting on a 4x4 density matrix."""
    return sum(lindblad_dissipator(x, rho) for x in two_spin_jump_operators(d))


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


def test_damping_superop_is_cached_and_read_only():
    d = DampingParams(a=SpinDamping(0.02, 0.003, 0.4), b=SpinDamping(0.05, 0.0, 0.01))
    lv = damping_superop(d)
    assert damping_superop(d) is lv
    assert np.array_equal(lv, dissipator_superop(two_spin_jump_operators(d), 4))
    with pytest.raises(ValueError):
        lv[0, 0] = 1.0


def _bloch(m: np.ndarray) -> np.ndarray:
    return bases.bloch_matrix_from_rho(m, 2, 2).reshape(-1)


def stage_matrix(rho, h, theta=None, damping=None):
    """``_mme_stage`` on x = B(rho), with B(Theta) as Theta's coefficients over
    the grid's anticommutator table, mapped back to a matrix."""
    grid, lr = grid_liouvillian(h, damping)
    c = None if theta is None else _bloch(theta)
    out = _mme_stage(lr, _bloch(rho), c, grid.anticommutator.reshape(16, -1))
    return (out @ grid.half).reshape(4, 4)


def test_mme_stage_traceless_and_unitary_limit(rng):
    h = build_hamiltonian(TwoSpinParams(delta=0.3, omega1=0.8, g=0.5))
    rho = qcore.random_density_matrix(4, rng)
    out = stage_matrix(rho, h)
    assert abs(np.trace(out)) < 1e-10
    # purity is conserved by the bare commutator flow
    d_purity = 2.0 * np.trace(rho @ out).real
    assert abs(d_purity) < 1e-10


def test_mme_identity_theta_is_inert(rng):
    h = build_hamiltonian(TwoSpinParams(delta=0.1, omega1=0.5, g=0.2))
    rho = qcore.random_density_matrix(4, rng)
    base = stage_matrix(rho, h)
    shifted = stage_matrix(rho, h, theta=3.7 * np.eye(4))
    assert np.abs(base - shifted).max() < 1e-10


def test_mme_stage_nonlinear_term_traceless(rng):
    h = build_hamiltonian(TwoSpinParams(delta=0.1, omega1=0.5, g=0.2))
    rho = qcore.random_density_matrix(4, rng)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    theta = a + a.conj().T
    out = stage_matrix(rho, h, theta=theta)
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
    grid = bases.observable_grid(2, 1)
    x, degenerate = steady_states(grid.superop(lv), grid)
    rho = (x @ grid.half).reshape(-1, 2, 2)
    assert degenerate.tolist() == [False, True, True]
    assert np.abs(rho[0] - good).max() < 1e-14
    assert np.isnan(rho[1:]).all()
    indefinite = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(StateHealthError):
        steady_states(grid.superop(np.stack([lv[0], _rank_one_deficient(indefinite)])), grid)


def svd_steady_states(lr: np.ndarray, grid: bases.ObservableGrid) -> tuple[np.ndarray, np.ndarray]:
    """Reference null-space kernel, literally: the last right singular vector
    of a full SVD of each L_r, scaled to trace one, with the traceless rule
    read off its trace."""
    _, s, vh = np.linalg.svd(lr)
    smax = np.maximum(s[:, 0], 1.0)
    degenerate = (s <= 1e-12 * smax[:, None]).sum(axis=1) > 1
    x = vh[:, -1]
    dim = grid.d_a * grid.d_b
    tr = dim * grid.half[0, 0].real * x[:, 0]
    degenerate |= np.abs(tr) < 1e-10
    x[degenerate] = np.nan
    ok = ~degenerate
    x[ok] /= tr[ok, None]
    x[ok, 0] = 1.0 / (dim * grid.half[0, 0].real)
    return x, degenerate


def _random_gksl(rng, pair: bool) -> np.ndarray:
    n = 4 if pair else 2
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    spin = lambda: SpinDamping(*rng.uniform(0.01, 1.0, 3))  # noqa: E731
    return grid_liouvillian(a + a.conj().T, DampingParams(spin(), spin()) if pair else spin())[1]


def _fig1_rows():
    """L_r of every Delta row of the fig1-sweep preset, built cell by cell."""
    cfg = parse_config_dict(experiment_preset("fig1-sweep"))
    p = cfg.model
    for dv in cfg.sweep.delta_values:
        yield np.stack([grid_liouvillian(build_hamiltonian(TwoSpinParams(
            delta=float(dv), omega1=float(w), g=p.g, omega_a=p.omega_a)), cfg.damping)[1]
            for w in cfg.sweep.omega1_values])


def _dephasing_row():
    """L_r of six driven cells with dephasing only: every cell is degenerate."""
    d = DampingParams(a=SpinDamping(0.0, 0.1, 0.0), b=SpinDamping(0.0, 0.1, 0.0))
    return np.stack([grid_liouvillian(build_hamiltonian(
        TwoSpinParams(delta=dv, omega1=w1, g=0.0)), d)[1]
        for dv in (-0.5, 0.0, 0.5) for w1 in (0.5, 1.0)])


def _reference_inputs():
    rng = np.random.default_rng(58)
    pair, single = bases.observable_grid(2, 2), bases.observable_grid(2, 1)
    yield "random two-spin", np.stack([_random_gksl(rng, True) for _ in range(20)]), pair
    yield "random single-spin", np.stack([_random_gksl(rng, False) for _ in range(20)]), single
    lv = np.stack([_rank_one_deficient(np.diag([0.25, 0.75]).astype(complex)),
                   _rank_one_deficient(np.diag([1.0, -1.0]).astype(complex)),
                   np.zeros((4, 4), dtype=complex)])
    yield "synthetic", single.superop(lv), single
    yield "dephasing-only", _dephasing_row(), pair
    for i, lr in enumerate(_fig1_rows()):
        yield f"fig1 row {i}", lr, pair


def test_steady_states_match_full_svd_reference():
    seen = set()
    for name, lr, grid in _reference_inputs():
        x, degenerate = steady_states(lr, grid)
        ref, ref_degenerate = svd_steady_states(lr, grid)
        assert np.array_equal(degenerate, ref_degenerate), name
        assert np.isnan(x[degenerate]).all(), name
        assert np.abs(x[~degenerate] - ref[~degenerate]).max(initial=0.0) < 1e-13, name
        seen.update(degenerate.tolist())
    assert seen == {False, True}


def test_steady_states_exactly_singular_block_is_degenerate():
    # the null vector e_1 is traceless and L_r[1:, 1:] is exactly singular
    x, degenerate = steady_states(np.diag([1.0, 0.0, 1.0, 1.0])[None], bases.observable_grid(2, 1))
    assert degenerate.tolist() == [True]
    assert np.isnan(x).all()


def test_steady_states_numerically_singular_traceless_null_vector_is_degenerate():
    # L_r = U diag(2 ... 0.5, 0) V^T whose null vector has x_0 = 0: A = L_r[1:, 1:]
    # is singular only to rounding, so the solve returns a huge trace-one x
    # whose residual passes; the size rule |x_k| <= 1e10 |G_k|_2 marks it
    # before the positivity rule would abort
    rng = np.random.default_rng(0)
    pair = bases.observable_grid(2, 2)
    traceless = [_with_null_vector(rng, np.r_[0.0, rng.standard_normal(15)],
                                   np.r_[np.geomspace(2.0, 0.5, 15), 0.0]) for _ in range(5)]
    lr = np.stack(traceless + [_random_gksl(rng, True)])
    assert (np.linalg.svd(lr[:5, 1:, 1:], compute_uv=False)[:, -1] > 0).all()
    x, degenerate = steady_states(lr, pair)
    assert degenerate.tolist() == [True] * 5 + [False]
    assert np.isnan(x[:5]).all()
    assert (np.abs(x[5]) <= pair.norms * (1 + 1e-12)).all()


def test_grid_norms_bound_every_state(rng):
    for grid in (bases.observable_grid(2, 2), bases.observable_grid(2, 1)):
        dim = grid.d_a * grid.d_b
        rhos = np.stack([qcore.random_density_matrix(dim, rng, rank=1 + k % dim)
                         for k in range(50)])
        x = rhos.reshape(len(rhos), -1) @ grid.expect
        assert (np.abs(x) <= grid.norms * (1 + 1e-12)).all()
        assert np.isclose(x[0, 0].real, grid.norms[0])  # x_0 = |G_0|_2 = Tr(G_0 rho)


def values_only_steady_states(lr: np.ndarray, grid: bases.ObservableGrid) -> tuple[np.ndarray, np.ndarray]:
    """Grid coordinates x, rho = (1/2) x . G, of the trace-one null vectors of
    a stack (N, n, n) of real grid Liouvillians: x_0 is fixed at its trace-one
    value and one batched solve of L_r[1:, 1:] x[1:] = -x_0 L_r[1:, 0] gives
    the rest.  One values-only SVD call gives the singular values (L_r is
    unitarily similar to the vectorized L) for the degeneracy rule.

    Returns the rows x (N, n) and a boolean mask (N,) of degenerate cells,
    whose rows are NaN: a null space of dimension > 1 (singular values at or
    below 1e-12 * max(s_0, 1)), or a trace-one solution that is not a null
    vector, |L_r x|_inf > 1e-10 max(s_0, 1) |x|_inf (a traceless null vector
    has no trace-one multiple and leaves a residual of order x_0; rounding
    leaves ~1e-16).  An eigenvalue below -1e-8 raises StateHealthError.
    """
    s = np.linalg.svd(lr, compute_uv=False)
    smax = np.maximum(s[:, 0], 1.0)
    degenerate = (s <= 1e-12 * smax[:, None]).sum(axis=1) > 1
    a = lr[:, 1:, 1:].copy()
    a[degenerate] = np.eye(len(a[0]))
    try:
        y = np.linalg.solve(a, lr[:, 1:, :1])
    except np.linalg.LinAlgError:  # exactly singular blocks: their cells fail the residual rule
        singular = np.linalg.slogdet(a)[0] == 0
        a[singular] = np.eye(len(a[0]))
        y = np.where(singular[:, None, None], np.nan, np.linalg.solve(a, lr[:, 1:, :1]))
    dim = grid.d_a * grid.d_b  # G_0 is the only G with a trace
    x = np.concatenate([np.ones((len(a), 1)), -y[..., 0]], axis=1) / (dim * grid.half[0, 0].real)
    resid = np.abs(lr @ x[..., None]).max(axis=(1, 2))
    degenerate |= ~(resid <= 1e-10 * smax * np.abs(x).max(axis=1))  # a NaN residual fails
    x[degenerate] = np.nan
    w0 = np.linalg.eigvalsh((x[~degenerate] @ grid.half).reshape(-1, dim, dim))[:, 0]
    negative = w0[w0 < -1e-8]
    if negative.size:
        raise StateHealthError(0.0, float(negative[0]))
    return x, degenerate


def _with_null_vector(rng, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """U diag(s) V^T with random orthogonal U and V, where V's last column is
    x / |x| (so x is the null vector when s[-1] = 0)."""
    n = len(x)
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.roll(np.linalg.qr(np.column_stack([x, rng.standard_normal((n, n - 1))]))[0], -1, axis=1)
    return (u * s) @ v.T


def _near_singular_cells(rng, second=(3e-12, 1e-11, 1e-10, 1e-9, 5e-9)) -> np.ndarray:
    """Two-spin grid generators with a positive null vector and singular
    values s_0 = 2 down to 0.5, then r for each r of ``second``, then 0.  The
    default r lie above the degeneracy threshold 2e-12 and below what the
    inverse screen can clear, so each cell has a unique steady state that
    the SVD judges."""
    pair = bases.observable_grid(2, 2)
    x = steady_states(np.stack([_random_gksl(rng, True) for _ in second]), pair)[0]
    return np.stack([_with_null_vector(rng, xi, np.r_[np.geomspace(2.0, 0.5, 14), r, 0.0])
                     for xi, r in zip(x, second)])


def _mixed_stack(singular: bool = False) -> np.ndarray:
    """Two-spin cells of every kind in one stack: five fig1 cells, which the
    screen clears, and, for the SVD to judge, near-singular cells on both
    sides of the degeneracy threshold and a null space of dimension 2.  With
    ``singular``, also cells whose A is exactly singular, so that the stack
    has no inverse: the dephasing-only row and a traceless null vector e_1."""
    rng = np.random.default_rng(7)
    x = steady_states(_random_gksl(rng, True)[None], bases.observable_grid(2, 2))[0][0]
    cells = [next(_fig1_rows())[::20], _near_singular_cells(rng, (5e-13, 1.5e-12, 3e-12, 1e-9)),
             _with_null_vector(rng, x, np.r_[np.geomspace(2.0, 0.5, 14), 0.0, 0.0])[None]]
    if singular:
        cells += [_dephasing_row(), np.diag(np.r_[1.0, 0.0, np.ones(14)])[None]]
    return np.concatenate(cells)


def _equivalence_inputs():
    pair = bases.observable_grid(2, 2)
    yield from _reference_inputs()
    yield "near-singular", _near_singular_cells(np.random.default_rng(19)), pair
    yield "mixed", _mixed_stack(), pair
    yield "mixed with a singular A", _mixed_stack(singular=True), pair


def test_steady_states_match_values_only_svd_kernel():
    # the inverse screen and its SVD fallback reach the values-only kernel's
    # verdicts, and the same solve gives the same bits
    for name, lr, grid in _equivalence_inputs():
        x, degenerate = steady_states(lr, grid)
        ref, ref_degenerate = values_only_steady_states(lr, grid)
        assert np.array_equal(degenerate, ref_degenerate), name
        assert np.array_equal(x, ref, equal_nan=True), name
        if name == "near-singular":
            assert not degenerate.any()


class _LinalgCalls(list):
    """The matrix count of each np.linalg.svd call; ``solves`` counts the
    np.linalg.solve calls."""

    solves = 0


@pytest.fixture
def svd_rows(monkeypatch):
    """Count the matrices np.linalg.svd is given, and the np.linalg.solve calls."""
    rows = _LinalgCalls()
    svd, solve = np.linalg.svd, np.linalg.solve

    def counted(a, *args, **kwargs):
        rows.append(len(a))
        return svd(a, *args, **kwargs)

    def counted_solve(*args, **kwargs):
        rows.solves += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    return rows


def _one_pass(calls: _LinalgCalls, lr: np.ndarray, grid: bases.ObservableGrid):
    """steady_states(lr, grid), checking that it makes at most one SVD call
    and exactly one solve call."""
    svds, solves = len(calls), calls.solves
    out = steady_states(lr, grid)
    assert len(calls) - svds <= 1 and calls.solves - solves == 1
    return out


def test_steady_states_runs_the_svd_only_where_the_screen_fails(svd_rows):
    pair = bases.observable_grid(2, 2)
    _one_pass(svd_rows, next(_fig1_rows()), pair)
    assert svd_rows == []
    dephasing = _dephasing_row()
    _one_pass(svd_rows, dephasing, pair)
    assert sum(svd_rows) == len(dephasing)
    svd_rows.clear()
    mixed = _mixed_stack()
    _one_pass(svd_rows, mixed, pair)
    assert sum(svd_rows) == len(mixed) - 5  # all but the five fig1 cells


def test_steady_states_without_an_inverse_keep_the_svd_verdicts(svd_rows):
    lr = _mixed_stack(singular=True)
    pair = bases.observable_grid(2, 2)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(lr[:, 1:, 1:])
    x, degenerate = _one_pass(svd_rows, lr, pair)
    assert sum(svd_rows) == len(lr)
    ref, ref_degenerate = values_only_steady_states(lr, pair)
    assert np.array_equal(degenerate, ref_degenerate)
    assert np.array_equal(x, ref, equal_nan=True)


def test_steady_states_residual_between_the_s0_bounds_reads_s0(svd_rows):
    # well-conditioned A, smallest singular value eps: the trace-one solution
    # leaves a residual of order eps, which passes, needs s_0 or fails as eps grows
    rng = np.random.default_rng(3)
    pair = bases.observable_grid(2, 2)
    x = steady_states(_random_gksl(rng, True)[None], pair)[0][0]
    eps = np.geomspace(1e-12, 1e-8, 41)
    lr = np.stack([_with_null_vector(rng, x, np.r_[np.geomspace(8.0, 2.0, 15), e]) for e in eps])
    got, degenerate = _one_pass(svd_rows, lr, pair)
    assert 0 < sum(svd_rows) < len(lr)
    ref, ref_degenerate = values_only_steady_states(lr, pair)
    assert np.array_equal(degenerate, ref_degenerate)
    assert np.array_equal(got, ref, equal_nan=True)
    assert degenerate.any() and not degenerate.all()


def test_steady_state_overflowing_rates_is_degenerate_without_warnings():
    d = DampingParams(a=SpinDamping(1e200, 0.01, 5e-4), b=SpinDamping(1.0, 0.1, 1e-5))
    h = build_hamiltonian(TwoSpinParams(delta=-0.4, omega1=0.9, g=1.0))
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(h, d)  # RuntimeWarnings are errors in this suite


def test_liouvillian_superop_and_stage_match_literal_form(rng):
    # the vectorized Liouvillian and the linear stage the RK4 runs, against
    # the literal i[rho, H] plus the six dissipators
    d = DampingParams(a=SpinDamping(0.3, 0.02, 2.0), b=SpinDamping(0.1, 0.05, 0.4))
    h = build_hamiltonian(TwoSpinParams(delta=0.2, omega1=0.4, g=0.3))
    lv = hamiltonian_superop(h) + dissipator_superop(two_spin_jump_operators(d), 4)
    rho = qcore.random_density_matrix(4, rng)
    literal = 1j * (rho @ h - h @ rho) + two_spin_lindblad(rho, d)
    assert np.abs((lv @ rho.reshape(-1)).reshape(4, 4) - literal).max() < 1e-12
    assert np.abs(stage_matrix(rho, h, damping=d) - literal).max() < 1e-12


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


def test_non_hermitian_hamiltonian_is_rejected():
    # grid.superop keeps the real part, which is exact only for maps that
    # preserve Hermiticity, and the unitary step reads one triangle of H
    h = build_hamiltonian(TwoSpinParams(0.7, 0.7, 1.0))
    h[0, 1] += 0.3
    rho0 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(qcore.HermiticityError):
        steady_state(h, FIG2_DAMPING)
    with pytest.raises(qcore.HermiticityError):
        integrate_master(QuantumState(factor=TWO_QUBITS, rho=rho0), h, None, FIG2_DAMPING,
                         IntegratorConfig(dt=1e-3, t_end=1e-2))
    with pytest.raises(qcore.HermiticityError):
        integrate_sle_ensemble(np.array([1.0, 0, 0, 0], dtype=complex),
                               SdeModel.two_spin(h, FIG2_DAMPING),
                               IntegratorConfig(dt=1e-3, t_end=1e-2), n_traj=2)


ALL_FAMILIES = [ThetaFamily.CORR_SUPPRESS, ThetaFamily.BLOCH_DERANK_A,
                ThetaFamily.BLOCH_DERANK_B, ThetaFamily.STATE_MATRIX_DERANK,
                ThetaFamily.THERMALIZATION]


def _spec(family: ThetaFamily) -> DisentanglementSpec:
    if family is ThetaFamily.THERMALIZATION:
        return DisentanglementSpec(family=family, gamma_h=0.7, beta=1.3)
    return DisentanglementSpec(family=family, gamma_d=0.5)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_integrator_stage_matches_mme_rhs(family, rng):
    # the stage integrate_master runs (the grid Liouvillian plus the engine's
    # grid coefficients of Theta) against the literal right-hand side of the
    # modified master equation with a literal Theta
    h = build_hamiltonian(TwoSpinParams(delta=0.3, omega1=0.8, g=0.5))
    spec = _spec(family)
    grid, lr = grid_liouvillian(h, FIG2_DAMPING)
    coeff, table = ThetaEngine(spec, TWO_QUBITS, h=h).grid()
    for _ in range(3):
        rho = qcore.random_density_matrix(4, rng)
        x = _bloch(rho)
        stage = (_mme_stage(lr, x, coeff(x), table) @ grid.half).reshape(4, 4)
        if family is ThetaFamily.THERMALIZATION:
            tm = literal_theta(family, rho, h, spec.gamma_h, spec.beta)
        else:
            tm = spec.gamma_d * literal_theta(family, rho, h)
        literal = (1j * (rho @ h - h @ rho) + two_spin_lindblad(rho, FIG2_DAMPING)
                   - tm @ rho - rho @ tm + 2.0 * np.trace(tm @ rho).real * rho)
        assert np.abs(stage - literal).max() < 1e-10


def _reference_rk4(rho, h, spec, damping, dt, n_steps, stride):
    """Plain RK4 in rho space on the literal right-hand side i[rho, H] + the
    six dissipators - {Theta, rho} + 2 <Theta> rho / Tr(rho), Theta rebuilt by
    build_theta at every stage."""
    def rhs(r):
        out = 1j * (r @ h - h @ r) + two_spin_lindblad(r, damping)
        theta = build_theta(QuantumState(factor=TWO_QUBITS, rho=r), spec, h)
        if theta is not None:
            tm = theta.matrix
            out += 2.0 * (np.trace(tm @ r).real / np.trace(r).real) * r - tm @ r - r @ tm
        return out

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


@pytest.mark.parametrize("family,point", [(family, 2) for family in ALL_FAMILIES])
def test_integrate_master_matches_reference_rk4(family, point):
    # every family at the fig2 driving point 2 over 2000 steps (corr-suppress
    # and bloch-derank-a are fig2-A2 and fig2-B2)
    from disentsim.twospin import DRIVING_POINTS

    delta, omega1 = DRIVING_POINTS[point]
    h = build_hamiltonian(TwoSpinParams(delta=delta, omega1=omega1, g=1.0))
    rho0 = steady_state(h, FIG2_DAMPING)
    spec = _spec(family)
    cfg = IntegratorConfig(dt=1e-3, t_end=2.0, sample_every=100)
    rec = integrate_master(QuantumState(factor=TWO_QUBITS, rho=rho0), h, spec,
                           FIG2_DAMPING, cfg)
    ref = _reference_rk4(rho0, h, spec, FIG2_DAMPING, cfg.dt, cfg.n_steps, cfg.stride)
    ref = 0.5 * (ref + ref.conj().transpose(0, 2, 1))
    k_a, k_b = bases.single_spin_bloch_vectors(bases.bloch_matrix_from_rho(ref, 2, 2))
    assert rec.n_samples == len(ref)
    assert np.abs(rec.k_a - k_a).max() < 1e-10
    assert np.abs(rec.k_b - k_b).max() < 1e-10
    assert np.abs(rec.tau_ab - tau_from_bloch(bases.bloch_matrix_from_rho(ref, 2, 2))).max() < 1e-10
    # the measures, read from x, against the literal forms of the reference rho
    gram = np.einsum("nibjb->nij", ref.reshape(-1, 2, 2, 2, 2))
    b = np.einsum("abij,nji->nab", bases.observable_grid(2, 2).entries, ref).real

    def entropy(m):
        w = np.maximum(np.linalg.eigvalsh(m), 1e-300)
        return -(w * np.log(w)).sum(axis=-1)

    assert np.abs(rec.k_entropy - entropy(gram)).max() < 1e-10
    assert np.abs(rec.l_entropy - entropy(0.5 * b @ b.transpose(0, 2, 1))).max() < 1e-10
    assert np.abs(rec.delta - np.clip(4.0 * np.linalg.det(gram).real, 0.0, 1.0)).max() < 1e-10
    assert np.abs(rec.purity - np.einsum("nij,nji->n", ref, ref).real).max() < 1e-10
    assert np.abs(rec.min_eig - np.linalg.eigvalsh(ref)[:, 0]).max() < 1e-10


def test_sle_ensemble_rejects_non_positive_damping_factor():
    # dt * lambda_max(sum V^dag V / 2) >= 1 flips the sign of the
    # Euler-Maruyama damping factor; the run must not start
    h = build_hamiltonian(TwoSpinParams(delta=0.4, omega1=0.6, g=0.5))
    model = SdeModel.two_spin(h, FIG2_DAMPING)
    rate = 0.5 * np.linalg.eigvalsh(
        sum(x.conj().T @ x for x in two_spin_jump_operators(FIG2_DAMPING)))[-1]
    psi0 = np.array([1.0, 0, 0, 0], dtype=complex)
    for dt in (1.0 / rate, 1e100):
        cfg = IntegratorConfig(dt=dt, t_end=dt)
        with pytest.raises(StateHealthError, match="damping factor"):
            integrate_sle_ensemble(psi0, model, cfg, n_traj=2)
    cfg = IntegratorConfig(dt=0.9 / rate, t_end=0.9 / rate)
    integrate_sle_ensemble(psi0, model, cfg, n_traj=2)


def _overflowing_ensemble(family):
    """(model, cfg, abort time) of an ensemble whose state overflows:
    thermalization without jump operators in one step of 1e300, caught by the
    sample-point check; bloch-derank-a at gamma_d = 1e300, whose Theta
    eigendecomposition fails between sample points: the first step, from a
    product state, overflows the squared norm (the rounding of sum_k c_k U O_k
    psi against <Theta> U psi, each about dt * 1e300 * 1e-16) and leaves psi
    zero, the second leaves it NaN, and the third step's eigh fails."""
    h = build_hamiltonian(TwoSpinParams(delta=0.4, omega1=0.6, g=0.5))
    if family is ThetaFamily.THERMALIZATION:
        model = SdeModel(h=h, jump_ops=(), factor=TWO_QUBITS,
                         dspec=DisentanglementSpec(family=family, gamma_h=1.0))
        return model, IntegratorConfig(dt=1e300, t_end=1e300), 1e300
    model = SdeModel.two_spin(h, FIG2_DAMPING, DisentanglementSpec(family=family, gamma_d=1e300))
    cfg = IntegratorConfig(dt=1e-3, t_end=0.01, sample_every=5)
    return model, cfg, 0.002


def test_sle_ensemble_non_finite_abort():
    for family in (ThetaFamily.THERMALIZATION, ThetaFamily.BLOCH_DERANK_A):
        model, cfg, t_abort = _overflowing_ensemble(family)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StateHealthError, match="not finite") as err:
                integrate_sle_ensemble(np.full(4, 0.5, dtype=complex), model, cfg, n_traj=2)
        assert err.value.t == t_abort, family


def test_sle_ensemble_overflow_is_silent():
    # the same overflowing runs as above, without an errstate around the
    # call: the health abort is the only report
    for family in (ThetaFamily.THERMALIZATION, ThetaFamily.BLOCH_DERANK_A):
        model, cfg, _ = _overflowing_ensemble(family)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(StateHealthError, match="not finite"):
                integrate_sle_ensemble(np.full(4, 0.5, dtype=complex), model, cfg, n_traj=2)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], family


def _raw_norm2(psi, h, ops, dt, engine=None):
    """Squared norm of one noiseless block step of psi before renormalization,
    with the drift of ``engine`` folded in as the ensemble folds it."""
    step_mat = _sle_step_matrix(h, ops, dt, None if engine is None else engine.drift_ops)
    col = psi[:, None]
    weights = None if engine is None else engine.drift(col)
    stack = np.empty((step_mat.shape[1] // 4, *col.shape), dtype=complex)
    dw = np.zeros((len(ops), 1), dtype=complex)
    return float(_sle_block_step(col, step_mat, dw, stack, weights)[1][0])


def test_sle_block_step_unitary_limit(rng):
    h = build_hamiltonian(TwoSpinParams(delta=0.3, omega1=0.5, g=0.4))
    psi = qcore.random_pure_state(4, rng)
    assert abs(np.sqrt(_raw_norm2(psi, h, [], 1e-3)) - 1.0) < 1e-12


def test_sle_noise_moments(rng):
    # drawn through the ensemble's chunked noise stream
    dt = 1e-3
    draws = np.concatenate([c[:, 0, 0].copy() for c in _noise_chunks([rng], 1, 100_000, dt)])
    n = len(draws)
    assert abs(draws.mean()) < 3.0 * np.sqrt(dt / n)
    var_re = draws.real.var()
    assert abs(var_re - dt / 2) < 0.05 * (dt / 2)
    var_im = draws.imag.var()
    assert abs(var_im - dt / 2) < 0.05 * (dt / 2)
    # no non-conjugate correlation: E[xi^2] = 0
    assert abs((draws ** 2).mean()) < 3.0 * dt / np.sqrt(n)


def test_sle_block_step_product_state_theta_noop(rng):
    # the block step with the engine's corr-suppress drift, and without it,
    # under the same noise
    h = build_hamiltonian(TwoSpinParams(delta=0.3, omega1=0.5, g=0.4))
    ops = two_spin_jump_operators(FIG2_DAMPING)
    dt = 1e-3
    psi = np.stack([np.kron(qcore.random_pure_state(2, rng), qcore.random_pure_state(2, rng))
                    for _ in range(5)], axis=1)
    dw = np.sqrt(dt / 2.0) * (rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5)))
    engine = ThetaEngine(DisentanglementSpec(family=ThetaFamily.CORR_SUPPRESS, gamma_d=1.0),
                         TWO_QUBITS)
    step_mat = _sle_step_matrix(h, ops, dt, engine.drift_ops)
    stack = np.empty((step_mat.shape[1] // 4, 4, 5), dtype=complex)
    with_theta = _sle_block_step(psi, step_mat, dw, stack, engine.drift(psi))[0]
    without = _sle_block_step(psi, _sle_step_matrix(h, ops, dt), dw, stack[:7])[0]
    assert np.abs(with_theta - without).max() < 1e-9


def test_sle_block_step_norm_drift_second_order(rng):
    # the block step's deterministic damping drift alone (dW = 0, no
    # renormalization) changes the norm only at O(dt) with coefficient
    # <V+V>; after the analytic correction the residue is O(dt^2).  The
    # Hamiltonian acts through the unitary U, which keeps the norm.
    d = SpinDamping(0.3, 0.1, 0.2)
    ops = [kron(x, ID2) for x in spin_jump_operators(d)]
    h = build_hamiltonian(TwoSpinParams(delta=0.3, omega1=0.5, g=0.4))
    psi = qcore.random_pure_state(4, rng)
    half = sum(x.conj().T @ x for x in ops)
    vexp = float(np.vdot(psi, half @ psi).real)
    for dt in (1e-3, 5e-4):
        drift = abs(_raw_norm2(psi, h, ops, dt) - (1.0 - dt * vexp))
        assert drift < 2.0 * (dt * np.abs(half).max()) ** 2


def test_sle_nonlinear_drift_conserves_norm_to_second_order(rng):
    # the modified-Schrodinger drift -(Theta - <Theta>)psi leaves the norm
    # unchanged at first order; the pre-renormalization residue is O(dt^2)
    psi = qcore.random_pure_state(4, rng)
    engine = ThetaEngine(DisentanglementSpec(family=ThetaFamily.CORR_SUPPRESS, gamma_d=1.0),
                         TWO_QUBITS)
    h = build_hamiltonian(TwoSpinParams(delta=0.3, omega1=0.5, g=0.4))
    assert abs(_raw_norm2(psi, h, [], 1e-4, engine) - 1.0) <= 1e-8


@pytest.mark.parametrize("n_traj, n_steps", [
    (3, 2 * _NOISE_CHUNK + 44),             # a short last chunk
    (2, 5),                                 # fewer steps than one chunk
    (_NOISE_BLOCK + 3, _NOISE_CHUNK + 1),   # a partial draw block
    (1, _NOISE_CHUNK + 7),                  # a single trajectory
])
def test_noise_chunks_are_the_per_trajectory_streams(n_traj, n_steps):
    # the block-transposed chunks hold, bit for bit, what each trajectory's
    # own generator gives when it draws all its steps in one call
    seed, n_ch, dt = 17, 6, 2e-4
    gens = [np.random.default_rng(np.random.SeedSequence([seed, k])) for k in range(n_traj)]
    views = []
    chunks = []
    for c in _noise_chunks(gens, n_ch, n_steps, dt):
        assert c.flags.c_contiguous and c.shape[1:] == (n_ch, n_traj)
        views.append(c)
        chunks.append(c.copy())
    assert [len(c) for c in chunks] == [min(_NOISE_CHUNK, n_steps - b)
                                        for b in range(0, n_steps, _NOISE_CHUNK)]
    assert all(np.shares_memory(v, views[0]) for v in views)
    dw = np.concatenate(chunks)
    for k in range(n_traj):
        g = np.random.default_rng(np.random.SeedSequence([seed, k])).standard_normal(
            (n_steps, n_ch, 2))
        ref = np.sqrt(dt / 2.0) * (g[..., 0] + 1j * g[..., 1])
        assert np.ascontiguousarray(dw[:, :, k]).tobytes() == ref.tobytes(), k


def test_noise_chunks_do_not_depend_on_chunk_length(monkeypatch):
    # a generator's stream is the same however its draws are split into calls
    def stream(chunk):
        monkeypatch.setattr(dynamics, "_NOISE_CHUNK", chunk)
        gens = [np.random.default_rng(np.random.SeedSequence([5, k])) for k in range(3)]
        return np.concatenate([c.copy() for c in _noise_chunks(gens, 6, 500, 2e-4)])
    assert stream(7).tobytes() == stream(_NOISE_CHUNK).tobytes()


@pytest.mark.parametrize("family", [ThetaFamily.NONE, *ALL_FAMILIES])
@pytest.mark.parametrize("n_traj", [1, _NOISE_BLOCK + 1])
def test_block_step_matches_literal_formula(family, n_traj):
    # det_step psi + sum_l dW_l (U X_l) psi + dt U (<Theta> - Theta) psi,
    # renormalized, with U = expm(-i H dt) and the literal Theta
    rng = np.random.default_rng(31)
    h = build_hamiltonian(TwoSpinParams(delta=0.4, omega1=0.6, g=5.0))
    ops = two_spin_jump_operators(DampingParams(a=SpinDamping(0.3, 0.1, 0.2),
                                                b=SpinDamping(0.2, 0.05, 0.1)))
    dt, gamma_d = 1e-3, 0.7
    psi = rng.standard_normal((4, n_traj)) + 1j * rng.standard_normal((4, n_traj))
    psi /= np.linalg.norm(psi, axis=0)
    dw = np.sqrt(dt / 2.0) * (rng.standard_normal((6, n_traj))
                              + 1j * rng.standard_normal((6, n_traj)))

    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * dt)) @ v.conj().T
    half = sum(x.conj().T @ x for x in ops)
    ref = (u @ (np.eye(4) - 0.5 * dt * half)) @ psi
    ref += sum(dw[l] * (u @ ops[l] @ psi) for l in range(6))
    theta_ops = weights = None
    if family is not ThetaFamily.NONE:
        thermal = family is ThetaFamily.THERMALIZATION
        spec = (_spec(family) if thermal
                else DisentanglementSpec(family=family, gamma_d=gamma_d))
        engine = ThetaEngine(spec, TWO_QUBITS, h=h)
        theta_ops, weights = engine.drift_ops, engine.drift(psi)
        for k in range(n_traj):
            p = psi[:, k]
            rho = np.outer(p, p.conj())
            tm = (literal_theta(family, rho, h, spec.gamma_h, spec.beta) if thermal
                  else gamma_d * literal_theta(family, rho, h))
            ref[:, k] -= dt * (u @ (tm @ p - np.vdot(p, tm @ p).real * p))
    nrm2_ref = np.linalg.norm(ref, axis=0) ** 2
    ref /= np.sqrt(nrm2_ref)

    step_mat = _sle_step_matrix(h, ops, dt, theta_ops)
    stack = np.empty((step_mat.shape[1] // 4, 4, n_traj), dtype=complex)
    out, nrm2 = _sle_block_step(psi.copy(), step_mat, dw, stack, weights)
    assert np.abs(out - ref).max() < 1e-13
    assert np.abs(nrm2 - nrm2_ref).max() < 1e-13


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_folded_drift_drops_exactly_the_multiples_of_identity(family, rng):
    # the step folds every rate-scaled operator of Theta into its gemm but the
    # multiples of I, which cancel in <Theta> psi - Theta psi: putting a * I
    # back into Theta leaves the step as it is
    h = build_hamiltonian(TwoSpinParams(delta=0.4, omega1=0.6, g=5.0))
    spec = _spec(family)
    engine = ThetaEngine(spec, TWO_QUBITS, h=h)
    if family is ThetaFamily.THERMALIZATION:
        ops = [spec.gamma_h * spec.beta * h]
    else:
        ops = list(engine.ops.reshape(-1, 4, 4))
    kept = [any((o == k).all() for k in engine.drift_ops) for o in ops]
    assert sum(kept) == len(engine.drift_ops)
    for o, k in zip(ops, kept):
        traceless = o - np.trace(o) / 4.0 * np.eye(4)
        assert bool(np.abs(traceless).max() > 0.0) == k
        assert k or np.count_nonzero(o - o[0, 0] * np.eye(4)) == 0
    assert len(ops) - sum(kept) == (family is not ThetaFamily.THERMALIZATION)

    jump = two_spin_jump_operators(FIG2_DAMPING)
    dt, n = 1e-3, 9
    psi = np.stack([qcore.random_pure_state(4, rng) for _ in range(n)], axis=1)
    dw = np.sqrt(dt / 2.0) * (rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n)))
    weights = engine.drift(psi)
    step_mat = _sle_step_matrix(h, jump, dt, engine.drift_ops)
    stack = np.empty((step_mat.shape[1] // 4 + 1, 4, n), dtype=complex)
    out, nrm2 = _sle_block_step(psi, step_mat, dw, stack[:-1], weights)
    with_identity = _sle_step_matrix(h, jump, dt, np.concatenate([engine.drift_ops,
                                                                  np.eye(4)[None]]))
    for a in (-2.5, 0.3, 40.0):
        shifted = np.vstack([weights[:-1], np.full((1, n), a), weights[-1:] + a])
        out_a, nrm2_a = _sle_block_step(psi, with_identity, dw, stack, shifted)
        assert np.abs(out_a - out).max() <= 1e-15, a
        assert np.abs(nrm2_a - nrm2).max() <= 1e-15, a


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_master_stage_drops_exactly_the_multiples_of_identity(family, rng):
    # the master stage applies Theta over every operator but the multiples of
    # I, which cancel in -{Theta, rho} + 2 <Theta> rho / Tr(rho): the full
    # grid table with B(Theta), and with B(Theta + a I), gives the same stage
    h = build_hamiltonian(TwoSpinParams(delta=0.3, omega1=0.8, g=0.5))
    engine = ThetaEngine(_spec(family), TWO_QUBITS, h=h)
    grid, lr = grid_liouvillian(h, FIG2_DAMPING)
    lr[0] = 0.0  # as integrate_master runs it
    full = grid.anticommutator.reshape(16, -1)
    coeff, table = engine.grid()
    if family is ThetaFamily.THERMALIZATION:
        ops = grid.half.reshape(16, 4, 4)  # Theta = B(Theta) . G / 2
    else:
        ops = engine.ops.reshape(-1, 4, 4)
    identity = np.array([np.count_nonzero(o - o[0, 0] * np.eye(4)) == 0 for o in ops])
    assert identity.sum() == 1
    kept = bases.bloch_matrix_from_rho(ops[~identity], 2, 2).reshape(-1, 16) @ full
    assert table.shape == kept.shape
    assert np.abs(table - kept).max() <= 1e-14 * np.abs(kept).max()

    b_identity = _bloch(np.eye(4))
    for _ in range(3):
        rho = qcore.random_density_matrix(4, rng)
        x = _bloch(rho)
        stage = _mme_stage(lr, x, coeff(x), table)
        c = _bloch(engine.matrix(rho))
        assert np.abs(_mme_stage(lr, x, c, full) - stage).max() <= 1e-13
        for a in (-2.5, 0.3, 40.0):
            shifted = _mme_stage(lr, x, c + a * b_identity, full)
            assert np.abs(shifted - stage).max() <= 1e-13, a


@pytest.mark.parametrize("case", ["fig1-sweep", "fig2-A2", "fig3-A", "random", "spin"])
def test_grid_liouvillian_trace_row_is_zero(case, rng):
    # a GKSL generator preserves Tr(rho) = x_0 Tr(G_0) / 2, so row 0 of L_r is
    # rounding: the master stage reads 2 <Theta> / Tr(rho) off it as -z_0 / x_0
    if case == "random":
        lr = _random_gksl(rng, pair=True)
    elif case == "spin":
        lr = grid_liouvillian(bases.SIGMA_X + 0.3 * bases.SIGMA_Z, SpinDamping(0.2, 0.05, 0.3))[1]
    else:
        cfg = parse_config_dict(experiment_preset(case))
        lr = grid_liouvillian(build_hamiltonian(cfg.model), cfg.damping)[1]
    assert np.abs(lr[0]).max() <= 1e-15 * np.sqrt((lr * lr).sum())


def test_sle_ensemble_holds_one_noise_buffer():
    # a second, shorter chunk reuses the first chunk's dW buffer, so the run
    # never holds two of them
    h = build_hamiltonian(TwoSpinParams(delta=0.7, omega1=0.7, g=100.0))
    model = SdeModel.two_spin(h, FIG3_DAMPING)
    n_steps = 2 * _NOISE_CHUNK - 1
    cfg = IntegratorConfig(dt=2e-4, t_end=n_steps * 2e-4, seed=3, sample_every=n_steps)
    psi0 = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    buffer_bytes = _NOISE_CHUNK * len(model.jump_ops) * 2000 * 16
    tracemalloc.start()
    try:
        integrate_sle_ensemble(psi0, model, cfg, n_traj=2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * buffer_bytes, (peak / 1e6, buffer_bytes / 1e6)


def test_sle_ensemble_merge_copies_one_record_column_at_a_time():
    # each block's record column is dropped as it is merged, so the run does
    # not hold the blocks' columns and the merged record at once
    model = _split_model(ThetaFamily.NONE)
    cfg = IntegratorConfig(dt=1e-3, t_end=2.0, seed=5, sample_every=1)
    tracemalloc.start()
    try:
        _, rec = integrate_sle_ensemble(np.array([1.0, 0, 0, 0], dtype=complex), model, cfg,
                                        n_traj=128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    record_bytes = sum(v.nbytes for v in vars(rec).values() if v is not None)
    assert peak < 1.6 * record_bytes, peak / record_bytes


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
    cfg = IntegratorConfig(dt=1e-3, t_end=0.8, seed=42, sample_every=100)
    rho1, recs1 = integrate_sle_ensemble(psi0, model, cfg, n_traj=7)
    rho2, recs2 = integrate_sle_ensemble(psi0, model, cfg, n_traj=7)
    assert np.array_equal(rho1, rho2)
    for a, b in zip(recs1, recs2):
        assert np.array_equal(a.k_a, b.k_a)
    cfg3 = IntegratorConfig(dt=1e-3, t_end=0.8, seed=43, sample_every=100)
    rho3, _ = integrate_sle_ensemble(psi0, model, cfg3, n_traj=7)
    assert np.abs(rho1 - rho3).max() > 0


@pytest.fixture
def four_cores(monkeypatch):
    """Let block_bounds use four cores, so that splits into up to four
    blocks run as asked on any host."""
    monkeypatch.setattr(dynamics, "usable_cores", lambda: 4)


def test_trajectory_blocks_split_at_multiples_of_eight(monkeypatch):
    def no_fork():
        raise AssertionError("block_bounds started a process")

    monkeypatch.setattr(os, "fork", no_fork)
    for cores in (1, 2, 3, 16):
        monkeypatch.setattr(dynamics, "usable_cores", lambda: cores)
        for n_traj in (1, 7, 255, 511, 512, 768, 1001, 2000, 4099):
            for workers in (1, 2, 3, 10_000):
                bounds = block_bounds(n_traj, workers)
                assert len(bounds) == max(1, min(workers, cores, n_traj // MIN_BLOCK))
                starts, stops = np.array(bounds).T
                assert starts[0] == 0 and stops[-1] == n_traj
                assert (starts[1:] == stops[:-1]).all() and (starts % 8 == 0).all()
                sizes = stops - starts
                assert sizes.max() - sizes.min() <= 8
                if len(bounds) > 1:
                    assert sizes.min() >= MIN_BLOCK
    monkeypatch.setattr(dynamics, "usable_cores", lambda: 3)
    assert block_bounds(10_000, 10_000) == [(0, 3336), (3336, 6672), (6672, 10_000)]
    assert len(block_bounds(600, 10_000)) == 2


def test_row_blocks_split_at_any_row(monkeypatch):
    # a sweep's blocks of whole Delta rows: align 1, at least min_size rows each
    for cores in (1, 2, 3, 16):
        monkeypatch.setattr(dynamics, "usable_cores", lambda: cores)
        for n in (1, 2, 5, 19, 81):
            for min_size in (1, 3, 10):
                for workers in (1, 2, 3, 10_000):
                    bounds = block_bounds(n, workers, min_size, 1)
                    assert len(bounds) == max(1, min(workers, cores, n // min_size))
                    starts, stops = np.array(bounds).T
                    assert starts[0] == 0 and stops[-1] == n
                    assert (starts[1:] == stops[:-1]).all()
                    sizes = stops - starts
                    assert sizes.max() - sizes.min() <= 1
                    if len(bounds) > 1:
                        assert sizes.min() >= min_size
    monkeypatch.setattr(dynamics, "usable_cores", lambda: 2)
    assert block_bounds(81, 2, 3, 1) == [(0, 41), (41, 81)]


def _split_model(family):
    d = DampingParams(a=SpinDamping(0.05, 0.01, 0.1), b=SpinDamping(0.1, 0.02, 0.05))
    h = build_hamiltonian(TwoSpinParams(delta=0.4, omega1=0.6, g=0.5))
    if family in (ThetaFamily.STATE_MATRIX_DERANK, ThetaFamily.THERMALIZATION):
        return SdeModel.two_spin(h, d, _spec(family))
    gamma_d = 0.0 if family is ThetaFamily.NONE else 0.7
    return SdeModel.two_spin(h, d, DisentanglementSpec(family=family, gamma_d=gamma_d))


@pytest.mark.parametrize("family", [ThetaFamily.NONE, ThetaFamily.CORR_SUPPRESS,
                                    ThetaFamily.BLOCH_DERANK_A,
                                    ThetaFamily.STATE_MATRIX_DERANK,
                                    ThetaFamily.THERMALIZATION])
def test_split_ensemble_is_byte_identical(family, four_cores):
    model = _split_model(family)
    psi0 = np.array([0.6, 0.0, 0.8j, 0.0], dtype=complex)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.06, seed=5, sample_every=20)
    runs = []
    for workers in (1, 2, 3):
        assert len(block_bounds(768, workers)) == workers
        runs.append(integrate_sle_ensemble(psi0, model, cfg, n_traj=768, workers=workers))
    (rho, rec), rest = runs[0], runs[1:]
    for other_rho, other in rest:
        assert other_rho.tobytes() == rho.tobytes()
        for f, v in vars(rec).items():
            w = getattr(other, f)
            assert (v is None and w is None) or (
                w.shape == v.shape and w.tobytes() == v.tobytes() and w.flags.c_contiguous), f


@pytest.mark.parametrize("family", [ThetaFamily.THERMALIZATION, ThetaFamily.BLOCH_DERANK_A])
def test_split_ensemble_overflow_ends_as_one_block(family, four_cores):
    model, cfg, t_abort = _overflowing_ensemble(family)
    errors = []
    for workers in (1, 2, 4):  # four blocks on fewer cores share the halt steps too
        with pytest.raises(StateHealthError, match="not finite") as err:
            integrate_sle_ensemble(np.full(4, 0.5, dtype=complex), model, cfg, n_traj=1024,
                                   workers=workers)
        errors.append(err.value)
        assert not multiprocessing.active_children()
    assert len({str(e) for e in errors}) == 1 and {e.t for e in errors} == {t_abort}


def test_split_ensemble_worker_without_result_is_named(monkeypatch, four_cores, hang_guard):
    parent, block = os.getpid(), dynamics._sle_block

    def dies_in_worker(*args):
        if os.getpid() != parent:
            os._exit(7)
        return block(*args)

    monkeypatch.setattr(dynamics, "_sle_block", dies_in_worker)
    model = _split_model(ThetaFamily.NONE)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.01, seed=5)
    with pytest.raises(ChildProcessError,
                       match=r"block 1 \(trajectories 256\.\.511\).*exit code 7"):
        integrate_sle_ensemble(np.array([1.0, 0, 0, 0], dtype=complex), model, cfg,
                               n_traj=768, workers=3)
    assert not multiprocessing.active_children()


def test_sle_block_records_its_failure_and_stops_after_an_earlier_one():
    model, cfg, t_abort = _overflowing_ensemble(ThetaFamily.BLOCH_DERANK_A)
    engine = ThetaEngine(model.dspec, model.factor, h=model.h, floor=cfg.log_floor)
    step_mat = _sle_step_matrix(model.h, list(model.jump_ops), cfg.dt, engine.drift_ops)
    halt = np.full(2, cfg.n_steps)
    with pytest.raises(StateHealthError):
        dynamics._sle_block(model, np.full(4, 0.5, dtype=complex), step_mat, engine, cfg,
                            halt, 1, 8, 16)
    assert halt.tolist() == [cfg.n_steps, round(t_abort / cfg.dt)]

    # a block stops at the first noise chunk that starts after a failure,
    # and runs every step up to it
    model = _split_model(ThetaFamily.NONE)
    cfg = IntegratorConfig(dt=1e-3, t_end=(_NOISE_CHUNK + 1) * 1e-3)
    step_mat = _sle_step_matrix(model.h, list(model.jump_ops), cfg.dt)
    for failed_at, stops in ((cfg.n_steps, False), (_NOISE_CHUNK, False),
                             (_NOISE_CHUNK - 1, True), (0, True), (-1, True)):
        out = dynamics._sle_block(model, np.array([1.0, 0, 0, 0], dtype=complex), step_mat,
                                  None, cfg, np.array([cfg.n_steps, failed_at]), 0, 0, 8)
        assert (out is None) is stops, failed_at


def test_split_errors_raise_the_earliest():
    # each block fails at its own time: the run raises the smallest t, and on
    # a tie the lowest block's error
    times = {0: 0.5, 1: 0.25, 2: 0.25}

    def run(i, start, stop):
        raise StateHealthError(times[i], math.nan, reason=f"block {i}")

    with pytest.raises(StateHealthError, match="block 1 at t = 0.25"):
        run_blocks(run, [(0, 256), (256, 512), (512, 768)], str)
    assert not multiprocessing.active_children()


def _list_ensemble_mean(records):
    """Reference mean over a list of per-trajectory records with their own
    contiguous arrays: per-sample weights normalized to sum 1, the records'
    fields stacked along a new trajectory axis and summed by einsum."""
    w = np.stack([r.weight for r in records])
    wn = w / w.sum(axis=0, keepdims=True)
    mean = {f: np.einsum("rs,rsj->sj", wn, np.stack([getattr(r, f) for r in records]))
            for f in ("k_a", "k_b")}
    mean.update((f, np.einsum("rs,rs->s", wn, np.stack([getattr(r, f) for r in records])))
                for f in ("k_entropy", "l_entropy", "delta", "tau_ab", "purity"))
    mean["trace_err"] = np.max([r.trace_err for r in records], axis=0)
    return mean


@pytest.mark.parametrize("family", [ThetaFamily.NONE, ThetaFamily.CORR_SUPPRESS])
def test_ensemble_record_views_and_mean(family):
    d = DampingParams(a=SpinDamping(0.05, 0.01, 0.1), b=SpinDamping(0.1, 0.02, 0.05))
    h = build_hamiltonian(TwoSpinParams(delta=0.4, omega1=0.6, g=0.5))
    gamma_d = 0.0 if family is ThetaFamily.NONE else 0.7
    model = SdeModel.two_spin(h, d, DisentanglementSpec(family=family, gamma_d=gamma_d))
    psi0 = np.array([1.0, 0, 0, 0], dtype=complex)
    cfg = IntegratorConfig(dt=1e-3, t_end=0.8, seed=42, sample_every=100)
    _, rec = integrate_sle_ensemble(psi0, model, cfg, n_traj=7)
    assert rec.herm_err is None and rec.min_eig is None
    copies = []
    for k in range(7):
        traj = rec[k]
        assert traj.times is rec.times
        assert traj.herm_err is None and traj.min_eig is None
        for f in ("k_a", "k_b", "k_entropy", "l_entropy", "delta", "tau_ab", "purity",
                  "trace_err", "weight"):
            assert np.shares_memory(getattr(traj, f), getattr(rec, f)), (k, f)
            assert np.array_equal(getattr(traj, f), getattr(rec, f)[k]), (k, f)
        copies.append(type(traj)(**{f: None if v is None else np.array(v)
                                    for f, v in vars(traj).items()}))

    mean = ensemble_mean_record(rec)
    ref = _list_ensemble_mean(copies)
    for f, v in ref.items():
        assert getattr(mean, f).tobytes() == v.tobytes(), f
    assert mean.times is rec.times
    assert mean.herm_err is None and mean.min_eig is None


def test_ensemble_single_driven_spin_matches_analytic():
    # weighted time-and-ensemble average vs the closed-form steady state
    delta, omega1 = 0.6, 0.9
    d = SpinDamping(gamma1=0.25, gamma_phi=0.05, n0=0.15)
    h = single_spin_hamiltonian(delta, omega1)
    model = SdeModel(h=h, jump_ops=tuple(spin_jump_operators(d)))
    psi0 = np.array([0.0, 1.0], dtype=complex)
    cfg = IntegratorConfig(dt=1e-3, t_end=30.0, seed=7, sample_every=50)
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
    cfg = IntegratorConfig(dt=1e-3, t_end=6.0, seed=11, sample_every=500)
    model = SdeModel.two_spin(h, d)
    _, recs = integrate_sle_ensemble(psi0, model, cfg, n_traj=800)
    mcfg = IntegratorConfig(dt=5e-4, t_end=6.0, sample_every=1000)
    rec_master = integrate_master(
        QuantumState(factor=TWO_QUBITS, rho=np.outer(psi0, psi0.conj())),
        h, None, d, mcfg)
    ka_sde = ensemble_mean_record(recs).k_a
    tol = 4.0 / np.sqrt(800)
    assert np.abs(ka_sde[-1] - rec_master.k_a[-1]).max() < tol


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=-1e-3)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1.0, t_end=0.5)
