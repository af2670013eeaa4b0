"""Time evolution engines.

* GKSL master equation with per-spin decay, pumping and dephasing channels.
* The nonlinear modified master equation
      drho/dt = i[rho, H] - Theta rho - rho Theta + 2 <Theta> rho / Tr(rho)
  integrated with fixed-step RK4, Theta rebuilt from the instantaneous state
  at every stage.
* Kraus-pair norm-conservation diagnostic (quadratic in the step).
* Stochastic Schrodinger-Langevin trajectories: an Euler-Maruyama step for
  the dissipative, noise and nonlinear drifts, with the Hamiltonian rotation
  applied through its exact unitary (the coupling g can exceed the damping
  rates by orders of magnitude, and a plain first-order treatment of H is
  unstable there).
* Linear steady-state solver via the vectorized Liouvillian null space,
  batched over a stack of Liouvillians: one SVD call decomposes the whole
  stack (the parameter sweep passes one grid row at a time), and the
  degeneracy and positivity rules are applied per cell in that one kernel,
  so single solves and sweeps reach the same verdicts.

Trace/norm conservation, Hermiticity and positivity are tracked as
diagnostics at every sample; positivity violations beyond tolerance abort
the run rather than being repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bases, entangle
from .entangle import DisentanglementSpec, MeasureReport, ThetaEngine, ThetaFamily, ThetaOperator
from .qcore import (
    DEFAULT_LOG_FLOOR,
    ComplexMatrix,
    DimensionError,
    Factorization,
    QuantumState,
    TWO_QUBITS,
    as_complex_matrix,
    herm_residual,
    kron,
)

POSITIVITY_ABORT = -1e-6


class StateHealthError(RuntimeError):
    """A trajectory left the physical state space (reports time and min eigenvalue).

    A NaN ``min_eig`` marks a state that is no longer finite; ``reason``
    replaces the default message.
    """

    def __init__(self, t: float, min_eig: float, reason: str | None = None):
        if reason is not None:
            msg = f"{reason} at t = {t:.6g}"
        elif math.isnan(min_eig):
            msg = f"density matrix is not finite at t = {t:.6g}"
        else:
            msg = f"density matrix positivity violated at t = {t:.6g}: min eigenvalue {min_eig:.3e}"
        super().__init__(msg)
        self.t = t
        self.min_eig = min_eig


class DegenerateSteadyStateError(RuntimeError):
    """The Liouvillian null space has dimension > 1; no unique steady state."""


# ---------------------------------------------------------------------------
# Damping parameters and jump operators.


@dataclass(frozen=True)
class SpinDamping:
    """Single-spin bath coupling: relaxation, dephasing and thermal occupation."""

    gamma1: float = 0.0
    gamma_phi: float = 0.0
    n0: float = 0.0

    def __post_init__(self):
        if self.gamma1 < 0 or self.gamma_phi < 0 or self.n0 < 0:
            raise ValueError("damping rates and occupation must be nonnegative")

    @property
    def p_z0(self) -> float:
        """Thermal equilibrium polarization -1/(2 n0 + 1)."""
        return -1.0 / (2.0 * self.n0 + 1.0)

    @property
    def t1(self) -> float:
        """Longitudinal relaxation time, 1/T1 = -Gamma1 / P_z0."""
        if self.gamma1 == 0.0:
            return math.inf
        return -self.p_z0 / self.gamma1

    @property
    def t2(self) -> float:
        """Transverse relaxation time, 1/T2 = -(Gamma1/2 + Gamma_phi) / P_z0."""
        rate = 0.5 * self.gamma1 + self.gamma_phi
        if rate == 0.0:
            return math.inf
        return -self.p_z0 / rate


@dataclass(frozen=True)
class DampingParams:
    a: SpinDamping = SpinDamping()
    b: SpinDamping = SpinDamping()


def spin_jump_operators(d: SpinDamping) -> list[np.ndarray]:
    """The three 2x2 channels: decay, thermal pumping and dephasing.

    Weights reproduce the standard per-spin dissipator
    (n0+1) G1 D[s-] + n0 G1 D[s+] + (2 n0 + 1) G_phi / 2 D[s_z].
    """
    return [
        np.sqrt((d.n0 + 1.0) * d.gamma1) * bases.SIGMA_MINUS,
        np.sqrt(d.n0 * d.gamma1) * bases.SIGMA_PLUS,
        np.sqrt((2.0 * d.n0 + 1.0) * d.gamma_phi / 2.0) * bases.SIGMA_Z,
    ]


def two_spin_jump_operators(d: DampingParams) -> list[np.ndarray]:
    """All six channels embedded in the 4-dim product space (a first)."""
    ops = [kron(x, bases.ID2) for x in spin_jump_operators(d.a)]
    ops += [kron(bases.ID2, x) for x in spin_jump_operators(d.b)]
    return ops


def lindblad_dissipator(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D_rho(X) = X rho X^dag - (X^dag X rho + rho X^dag X)/2 (traceless output)."""
    x = as_complex_matrix(x)
    rho = as_complex_matrix(rho)
    if x.shape != rho.shape:
        raise DimensionError(f"jump operator {x.shape} vs state {rho.shape}")
    xdx = x.conj().T @ x
    return x @ rho @ x.conj().T - 0.5 * (xdx @ rho + rho @ xdx)


def two_spin_lindblad(rho: np.ndarray, d: DampingParams) -> np.ndarray:
    """Sum of the six per-spin dissipators acting on a 4x4 density matrix."""
    rho = as_complex_matrix(rho)
    if rho.shape != (4, 4):
        raise DimensionError("two-spin dissipator needs a 4x4 density matrix")
    out = np.zeros_like(rho)
    for x in two_spin_jump_operators(d):
        out += lindblad_dissipator(x, rho)
    return out


# ---------------------------------------------------------------------------
# Superoperators (row-major vec convention: vec(A rho B) = (A kron B^T) vec(rho)).


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """Matrix form of rho -> i [rho, H]."""
    h = as_complex_matrix(h)
    eye = np.eye(h.shape[0])
    return 1j * (kron(eye, h.T) - kron(h, eye))


def dissipator_superop(ops: list[np.ndarray], dim: int) -> np.ndarray:
    """Matrix form of the summed Lindblad dissipators."""
    eye = np.eye(dim)
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for x in ops:
        xdx = x.conj().T @ x
        out += kron(x, x.conj()) - 0.5 * kron(xdx, eye) - 0.5 * kron(eye, xdx.T)
    return out


def liouvillian_matrix(h: np.ndarray, ops: list[np.ndarray]) -> np.ndarray:
    return hamiltonian_superop(h) + dissipator_superop(ops, as_complex_matrix(h).shape[0])


def steady_states(lv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace-one null vectors of a stack of vectorized Liouvillians.

    ``lv`` has shape (N, d^2, d^2); all N are decomposed by one batched SVD.
    Returns the states (N, d, d) and a boolean mask (N,) of degenerate cells,
    whose states are NaN: a null space of dimension > 1 (singular values at
    or below 1e-12 * max(s_0, 1)) or a traceless null vector.  A state with
    an eigenvalue below -1e-8 raises StateHealthError.
    """
    n, d2, _ = lv.shape
    dim = math.isqrt(d2)
    _, s, vh = np.linalg.svd(lv)
    smax = np.maximum(s[:, 0], 1.0)
    degenerate = (s <= 1e-12 * smax[:, None]).sum(axis=1) > 1
    rho = vh[:, -1].conj().reshape(n, dim, dim)
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    tr = np.einsum("nii->n", rho)
    degenerate |= np.abs(tr) < 1e-10
    rho[degenerate] = np.nan
    ok = ~degenerate
    rho[ok] /= tr[ok, None, None]
    w0 = np.linalg.eigvalsh(rho[ok])[:, 0]
    negative = w0[w0 < -1e-8]
    if negative.size:
        raise StateHealthError(0.0, float(negative[0]))
    return rho, degenerate


def steady_state_from_ops(h: np.ndarray, ops: list[np.ndarray]) -> np.ndarray:
    """Unique trace-one steady state of the linear GKSL generator.

    Solves the null space of the vectorized Liouvillian by SVD; a null space
    of dimension > 1 raises instead of being resolved silently.
    """
    rho, degenerate = steady_states(liouvillian_matrix(h, ops)[None])
    if degenerate[0]:
        raise DegenerateSteadyStateError(
            "Liouvillian has no unique trace-one steady state "
            "(null space of dimension > 1, or a traceless null vector)"
        )
    return rho[0]


def steady_state(h: np.ndarray, d: DampingParams | SpinDamping) -> np.ndarray:
    """Steady state for the two-spin system (4x4) or a single spin (2x2)."""
    h = as_complex_matrix(h)
    if isinstance(d, DampingParams):
        if h.shape != (4, 4):
            raise DimensionError("DampingParams damping needs a 4x4 Hamiltonian")
        return steady_state_from_ops(h, two_spin_jump_operators(d))
    if h.shape != (2, 2):
        raise DimensionError("SpinDamping damping needs a 2x2 Hamiltonian")
    return steady_state_from_ops(h, spin_jump_operators(d))


# ---------------------------------------------------------------------------
# Modified master equation.


def _theta_matrix(theta) -> np.ndarray | None:
    if theta is None:
        return None
    if isinstance(theta, ThetaOperator):
        return theta.matrix
    return as_complex_matrix(theta)


def _mme_stage(lv: np.ndarray, rho: np.ndarray, tm: np.ndarray | None) -> np.ndarray:
    """One evaluation of the modified master equation: the vectorized
    Liouvillian ``lv`` applied to rho, plus -Theta rho - rho Theta +
    2 <Theta> rho / Tr(rho) when a Theta matrix ``tm`` is given."""
    out = (lv @ rho.reshape(-1)).reshape(rho.shape)
    if tm is not None:
        trho = tm @ rho
        out += (2.0 * trho.trace().real / rho.trace().real) * rho - trho - rho @ tm
    return out


def mme_rhs(
    rho: np.ndarray,
    h: np.ndarray,
    theta: ThetaOperator | np.ndarray | None = None,
    damping: DampingParams | None = None,
) -> np.ndarray:
    """Right-hand side of the modified master equation (trace-free by construction)."""
    rho = as_complex_matrix(rho)
    h = as_complex_matrix(h)
    if rho.shape != h.shape:
        raise DimensionError("state and Hamiltonian dimensions differ")
    if damping is not None and rho.shape != (4, 4):
        raise DimensionError("two-spin dissipator needs a 4x4 density matrix")
    ops = [] if damping is None else two_spin_jump_operators(damping)
    tm = _theta_matrix(theta)
    if tm is not None:
        scale = max(float(np.abs(tm).max()), 1.0)
        if herm_residual(tm) > 1e-10 * scale:
            raise ValueError("Theta must be Hermitian")
    return _mme_stage(liouvillian_matrix(h, ops), rho, tm)


def kraus_step_error(
    rho: np.ndarray,
    h: np.ndarray,
    theta: ThetaOperator | np.ndarray,
    tau: float,
) -> float:
    """Norm-conservation defect |<K0+ K0 + K1+ K1> - 1| of the Kraus pair
    K0 = sqrt(2 <Theta> tau), K1 = 1 - (i H + Theta) tau.

    Exactly quadratic in tau, so halving the step divides the defect by 4.
    """
    rho = as_complex_matrix(rho)
    tm = _theta_matrix(theta)
    texp = float(np.einsum("ij,ji->", tm, rho).real)
    if texp < 0.0:
        raise ValueError(
            f"<Theta> = {texp:.3e} < 0: K0 = sqrt(2 <Theta> tau) is not defined"
        )
    k1 = np.eye(rho.shape[0]) - (1j * as_complex_matrix(h) + tm) * tau
    val = 2.0 * texp * tau + float(np.einsum("ij,ji->", k1.conj().T @ k1, rho).real)
    return abs(val - 1.0)


# ---------------------------------------------------------------------------
# Integration configuration and records.


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 1e-3
    t_end: float = 200.0
    method: str = "rk4"  # "rk4" or "euler-maruyama"
    seed: int = 0
    renormalize_every_step: bool = False
    log_floor: float = DEFAULT_LOG_FLOOR
    sample_every: int = 0  # 0 = choose automatically (~2000 samples)

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least one step")
        if self.method not in ("rk4", "euler-maruyama"):
            raise ValueError(f"unknown integrator method {self.method!r}")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))

    @property
    def stride(self) -> int:
        if self.sample_every > 0:
            return self.sample_every
        return max(1, self.n_steps // 2000)


@dataclass
class TrajectoryRecord:
    """Sampled time series of Bloch vectors, measures and health diagnostics.

    ``weight`` is only set on stochastic trajectories: the accumulated squared
    norm of the linear (pre-renormalization) solution, which is the correct
    statistical weight when averaging projectors over an ensemble.
    """

    times: np.ndarray
    k_a: np.ndarray  # (n, 3)
    k_b: np.ndarray  # (n, 3)
    k_entropy: np.ndarray
    l_entropy: np.ndarray
    delta: np.ndarray
    tau_ab: np.ndarray
    purity: np.ndarray
    trace_err: np.ndarray
    herm_err: np.ndarray
    min_eig: np.ndarray
    weight: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def measures(self, i: int) -> MeasureReport:
        return MeasureReport(
            k_entropy=float(self.k_entropy[i]),
            l_entropy=float(self.l_entropy[i]),
            delta=float(self.delta[i]),
            tau_ab=float(self.tau_ab[i]),
            purity=float(self.purity[i]),
        )


class _TwoQubitSampler:
    """Batched extraction of Bloch vectors and measures from states.

    Works either on a stack of density matrices (n, 4, 4) or on a block of
    pure-state columns (4, n).
    """

    def __init__(self, floor: float):
        self.floor = floor
        self.grid = bases.observable_grid(2, 2).entries

    def _log_eigs(self, w: np.ndarray) -> np.ndarray:
        wmax = np.maximum(w[..., -1], 0.0)
        cut = self.floor * np.where(wmax > 0.0, wmax, 1.0)
        return np.log(np.maximum(w, cut[..., None]))

    def from_bloch(self, b: np.ndarray, gram: np.ndarray, purity: np.ndarray):
        """Common tail: b has shape (n, 4, 4), gram (n, 2, 2)."""
        k_a = np.sqrt(2.0) * b[:, 1:4, 0]
        k_b = np.sqrt(2.0) * b[:, 0, 1:4]
        alpha = 0.5 * np.einsum("nab,ncb->nac", b, b)
        wa = np.linalg.eigvalsh(alpha)
        l_ent = -(np.maximum(wa, 0.0) * self._log_eigs(wa)).sum(axis=-1)
        wg = np.linalg.eigvalsh(gram)
        k_ent = -(np.maximum(wg, 0.0) * self._log_eigs(wg)).sum(axis=-1)
        delta = np.clip(4.0 * np.linalg.det(gram).real, 0.0, 1.0)
        cov = (np.sqrt(2.0) * b[:, 1:, 1:]
               - 2.0 * b[:, 1:, :1] * b[:, :1, 1:])
        tau = (cov * cov).sum(axis=(1, 2)) / 3.0
        return k_a, k_b, k_ent, l_ent, delta, tau, purity

    def from_rho_stack(self, rhos: np.ndarray):
        b = np.einsum("abij,nji->nab", self.grid, rhos).real
        gram = np.einsum("nibjb->nij", rhos.reshape(-1, 2, 2, 2, 2))
        purity = np.einsum("nij,nji->n", rhos, rhos).real
        return self.from_bloch(b, gram, purity)

    def from_psi_block(self, psi: np.ndarray):
        c = psi.conj()
        b = np.einsum("abij,jn,in->nab", self.grid, psi, c).real
        m = psi.reshape(2, 2, -1)
        gram = np.einsum("abn,cbn->nac", m, m.conj())
        purity = np.ones(psi.shape[1])
        return self.from_bloch(b, gram, purity)


def integrate_master(
    initial: QuantumState,
    h: np.ndarray,
    dspec: DisentanglementSpec | None,
    damping: DampingParams | None,
    cfg: IntegratorConfig,
) -> TrajectoryRecord:
    """RK4 integration of the (possibly nonlinear) master equation.

    Theta is rebuilt from the current density matrix at every RK4 stage.
    Diagnostics are recorded at each sample; a minimum eigenvalue below
    -1e-6, or a state that is no longer finite, aborts with a StateHealthError.
    """
    if cfg.method != "rk4":
        raise ValueError("the master equation integrator is RK4 only")
    if initial.factor != TWO_QUBITS:
        raise DimensionError("integrate_master drives the two-qubit system")
    h = as_complex_matrix(h)
    rho = initial.density().astype(complex)

    dspec = dspec or DisentanglementSpec()
    theta = lambda r: None  # noqa: E731
    if dspec.active:
        theta = ThetaEngine(dspec, initial.factor, h=h, floor=cfg.log_floor).matrix
    lv = liouvillian_matrix(h, [] if damping is None else two_spin_jump_operators(damping))

    dt = cfg.dt
    n_steps = cfg.n_steps
    stride = cfg.stride
    sample_steps = list(range(0, n_steps + 1, stride))
    if sample_steps[-1] != n_steps:
        sample_steps.append(n_steps)
    rho_samples = np.empty((len(sample_steps), 4, 4), dtype=complex)
    times = np.empty(len(sample_steps))
    si = 0

    # an overflowing step is reported by the health checks below, not by
    # numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps + 1):
            if step == sample_steps[si]:
                t = step * dt
                if not np.isfinite(rho).all():
                    raise StateHealthError(t, math.nan)
                w_min = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
                if w_min < POSITIVITY_ABORT:
                    raise StateHealthError(t, w_min)
                rho_samples[si] = rho
                times[si] = t
                si += 1
            if step == n_steps:
                break
            try:
                k1 = _mme_stage(lv, rho, theta(rho))
                r = rho + 0.5 * dt * k1
                k2 = _mme_stage(lv, r, theta(r))
                r = rho + 0.5 * dt * k2
                k3 = _mme_stage(lv, r, theta(r))
                r = rho + dt * k3
                k4 = _mme_stage(lv, r, theta(r))
            except np.linalg.LinAlgError:
                # Theta's eigendecomposition fails only on a stage state that
                # overflowed to inf/NaN
                raise StateHealthError(step * dt, math.nan) from None
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if cfg.renormalize_every_step:
                rho = rho / rho.trace().real

    sampler = _TwoQubitSampler(cfg.log_floor)
    sym = 0.5 * (rho_samples + rho_samples.conj().transpose(0, 2, 1))
    k_a, k_b, k_ent, l_ent, delta, tau, purity = sampler.from_rho_stack(sym)
    trace_err = np.abs(np.einsum("nii->n", rho_samples).real - 1.0)
    herm_err = np.abs(rho_samples - rho_samples.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    min_eig = np.linalg.eigvalsh(sym)[:, 0]
    return TrajectoryRecord(
        times=times, k_a=k_a, k_b=k_b,
        k_entropy=k_ent, l_entropy=l_ent, delta=delta, tau_ab=tau, purity=purity,
        trace_err=trace_err, herm_err=herm_err, min_eig=min_eig,
    )


# ---------------------------------------------------------------------------
# Stochastic Schrodinger-Langevin trajectories.


def _unitary_step(h: np.ndarray, dt: float) -> np.ndarray:
    w, v = np.linalg.eigh(as_complex_matrix(h))
    return (v * np.exp(-1j * w * dt)) @ v.conj().T


def noise_increments(rng: np.random.Generator, n_channels: int, dt: float,
                     shape: tuple[int, ...] = ()) -> np.ndarray:
    """Complex Wiener increments dW with E dW = 0, E |dW|^2 = dt, E dW^2 = 0."""
    g = rng.standard_normal((*shape, n_channels, 2))
    return np.sqrt(dt / 2.0) * (g[..., 0] + 1j * g[..., 1])


def sle_step(
    psi: np.ndarray,
    h: np.ndarray,
    jump_ops: list[np.ndarray],
    theta: ThetaOperator | np.ndarray | None,
    dt: float,
    rng: np.random.Generator,
    renormalize: bool = True,
) -> np.ndarray:
    """One stochastic step of the (modified) Schrodinger-Langevin equation.

    Damping drift -(1/2) sum V^dag V, complex white noise sum xi_l V_l and
    the nonlinear drift -(Theta - <Theta>) are applied Euler-Maruyama style;
    the Hamiltonian acts through its exact one-step unitary.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    u = _unitary_step(h, dt)
    out = psi.copy()
    if jump_ops:
        half = sum(x.conj().T @ x for x in jump_ops)
        dw = noise_increments(rng, len(jump_ops), dt)
        out = out - 0.5 * dt * (half @ psi)
        for w, x in zip(dw, jump_ops):
            out = out + w * (x @ psi)
    tm = _theta_matrix(theta)
    if tm is not None:
        texp = float(np.vdot(psi, tm @ psi).real / np.vdot(psi, psi).real)
        out = out - dt * (tm @ psi - texp * psi)
    out = u @ out
    if renormalize:
        out = out / np.linalg.norm(out)
    return out


@dataclass(frozen=True)
class SdeModel:
    """Operator bundle for stochastic trajectories."""

    h: np.ndarray
    jump_ops: tuple[np.ndarray, ...]
    dspec: DisentanglementSpec = field(default_factory=DisentanglementSpec)
    factor: Factorization | None = None

    @staticmethod
    def two_spin(h: np.ndarray, damping: DampingParams,
                 dspec: DisentanglementSpec | None = None) -> "SdeModel":
        return SdeModel(
            h=as_complex_matrix(h),
            jump_ops=tuple(two_spin_jump_operators(damping)),
            dspec=dspec or DisentanglementSpec(),
            factor=TWO_QUBITS,
        )


#: Steps of per-trajectory noise drawn per generator call; fixed so that the
#: byte stream consumed by each trajectory never depends on run partitioning.
_NOISE_CHUNK = 256


def integrate_sle_ensemble(
    initial: np.ndarray,
    model: SdeModel,
    cfg: IntegratorConfig,
    n_traj: int,
) -> tuple[np.ndarray, list[TrajectoryRecord]]:
    """Evolve an ensemble of trajectories and average the projectors.

    Per-trajectory noise streams are seeded deterministically from
    (cfg.seed, trajectory index), so results are bit-identical for a given
    seed regardless of how the ensemble is executed.  Returns the ensemble
    mean density matrix at the final time plus one record per trajectory.

    States are renormalized every step, and the discarded squared norm is
    accumulated as a per-trajectory weight: the stochastic equation is a
    linear unravelling, so the noise-average that reproduces the master
    equation is the weighted mean of projectors, sum(w |psi><psi|)/sum(w).
    An unweighted mean of renormalized projectors is a biased estimator.
    """
    if cfg.method != "euler-maruyama":
        raise ValueError("the stochastic integrator is Euler-Maruyama only")
    if n_traj < 1:
        raise ValueError("need at least one trajectory")
    psi0 = np.asarray(initial, dtype=complex).reshape(-1)
    dim = psi0.size
    h = as_complex_matrix(model.h)
    if h.shape[0] != dim:
        raise DimensionError("initial state and Hamiltonian dimensions differ")

    ops = [as_complex_matrix(x) for x in model.jump_ops]
    n_ch = len(ops)
    half = sum((x.conj().T @ x for x in ops), np.zeros((dim, dim), dtype=complex))
    rate = 0.5 * float(np.linalg.eigvalsh(half)[-1])
    if cfg.dt * rate >= 1.0:
        raise StateHealthError(0.0, math.nan, reason=(
            f"step dt = {cfg.dt:.6g} makes the damping factor I - dt/2 sum V^dag V "
            f"non-positive (dt * lambda_max = {cfg.dt * rate:.3g} >= 1)"))
    u = _unitary_step(h, cfg.dt)
    # deterministic one-step factor and rotated jump stack, merged so the
    # inner loop is two gemms plus the noise contraction
    det_step = u @ (np.eye(dim) - 0.5 * cfg.dt * half)
    ux = (np.stack([u @ x for x in ops]).reshape(n_ch * dim, dim)
          if ops else np.zeros((0, dim), dtype=complex))

    engine = None
    if model.dspec.active:
        if model.factor is None:
            raise ValueError("nonlinear families need a factorization")
        engine = ThetaEngine(model.dspec, model.factor, h=h, floor=cfg.log_floor)

    two_qubit = model.factor == TWO_QUBITS
    sampler = _TwoQubitSampler(cfg.log_floor) if two_qubit else None

    dt = cfg.dt
    n_steps = cfg.n_steps
    stride = cfg.stride
    sample_steps = list(range(0, n_steps + 1, stride))
    if sample_steps[-1] != n_steps:
        sample_steps.append(n_steps)
    n_samp = len(sample_steps)

    gens = [
        np.random.default_rng(np.random.SeedSequence([int(cfg.seed), k]))
        for k in range(n_traj)
    ]
    psi = np.tile(psi0[:, None], (1, n_traj))

    times = np.array([s * dt for s in sample_steps])
    k_a = np.zeros((n_samp, n_traj, 3))
    k_b = np.zeros((n_samp, n_traj, 3))
    k_ent = np.zeros((n_samp, n_traj))
    l_ent = np.zeros((n_samp, n_traj))
    delta = np.zeros((n_samp, n_traj))
    tau = np.zeros((n_samp, n_traj))
    purity = np.ones((n_samp, n_traj))
    norm_err = np.zeros((n_samp, n_traj))
    weights = np.ones((n_samp, n_traj))
    log_w = np.zeros(n_traj)

    def record(si: int):
        rel = np.exp(log_w - log_w.max())
        weights[si] = rel / rel.mean()
        nrm = np.sqrt(np.einsum("in,in->n", psi.conj(), psi).real)
        norm_err[si] = np.abs(nrm * nrm - 1.0)
        if sampler is not None:
            ka, kb, ke, le, dl, ta, pu = sampler.from_psi_block(psi)
            k_a[si], k_b[si] = ka, kb
            k_ent[si], l_ent[si], delta[si], tau[si], purity[si] = ke, le, dl, ta, pu
        elif dim == 2:
            for j, s in enumerate((bases.SIGMA_X, bases.SIGMA_Y, bases.SIGMA_Z)):
                k_a[si, :, j] = np.einsum("in,ij,jn->n", psi.conj(), s, psi).real

    scale = np.sqrt(dt / 2.0)
    si = 0
    step = 0
    raw_buf = None        # (n_traj, chunk_len, n_ch, 2), contiguous per trajectory
    chunk_len = 0
    chunk_base = 0
    while True:
        if si < n_samp and step == sample_steps[si]:
            if not (np.isfinite(psi).all() and np.isfinite(log_w).all()):
                raise StateHealthError(step * dt, math.nan,
                                       reason="state vector or weight is not finite")
            record(si)
            si += 1
        if step == n_steps:
            break
        local = step - chunk_base
        if raw_buf is None or local >= chunk_len:
            chunk_base = step
            local = 0
            chunk_len = min(_NOISE_CHUNK, n_steps - step)
            if raw_buf is None or raw_buf.shape[1] != chunk_len:
                raw_buf = np.empty((n_traj, chunk_len, n_ch, 2))
            for k, g in enumerate(gens):
                raw_buf[k] = g.standard_normal((chunk_len, n_ch, 2))
        out = det_step @ psi
        if n_ch:
            sl = raw_buf[:, local]                       # (n_traj, n_ch, 2)
            dw = scale * (sl[:, :, 0].T + 1j * sl[:, :, 1].T)
            xpsi = (ux @ psi).reshape(n_ch, dim, n_traj)
            out += np.einsum("ln,lin->in", dw, xpsi)
        if engine is not None:
            out += dt * (u @ engine.drift(psi))
        psi = out
        nrm2 = (psi.real * psi.real + psi.imag * psi.imag).sum(axis=0)
        log_w += np.log(nrm2)
        psi /= np.sqrt(nrm2)
        step += 1

    w_final = np.exp(log_w - log_w.max())
    mean_rho = np.einsum("in,jn,n->ij", psi, psi.conj(), w_final) / w_final.sum()

    zeros = np.zeros(n_samp)
    records = []
    for k in range(n_traj):
        records.append(TrajectoryRecord(
            times=times.copy(),
            k_a=np.ascontiguousarray(k_a[:, k]),
            k_b=np.ascontiguousarray(k_b[:, k]),
            k_entropy=np.ascontiguousarray(k_ent[:, k]),
            l_entropy=np.ascontiguousarray(l_ent[:, k]),
            delta=np.ascontiguousarray(delta[:, k]),
            tau_ab=np.ascontiguousarray(tau[:, k]),
            purity=np.ascontiguousarray(purity[:, k]),
            trace_err=np.ascontiguousarray(norm_err[:, k]),
            herm_err=zeros.copy(),
            min_eig=zeros.copy(),
            weight=np.ascontiguousarray(weights[:, k]),
        ))
    return mean_rho, records


def _ensemble_weights(records: list[TrajectoryRecord]) -> np.ndarray:
    """Per-sample trajectory weights normalized to sum 1, shape (n_traj, n_samp)."""
    if records[0].weight is not None:
        w = np.stack([r.weight for r in records])
    else:
        w = np.ones((len(records), records[0].n_samples))
    return w / w.sum(axis=0, keepdims=True)


def ensemble_mean_bloch(records: list[TrajectoryRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted ensemble averages (times, mean k_a, mean k_b) over records."""
    wn = _ensemble_weights(records)
    ka = np.einsum("rs,rsj->sj", wn, np.stack([r.k_a for r in records]))
    kb = np.einsum("rs,rsj->sj", wn, np.stack([r.k_b for r in records]))
    return records[0].times, ka, kb


def ensemble_mean_record(records: list[TrajectoryRecord]) -> TrajectoryRecord:
    """Weighted ensemble-mean time series (Bloch vectors and measures)."""
    wn = _ensemble_weights(records)

    def avg(field: str) -> np.ndarray:
        return np.einsum("rs,rs->s", wn, np.stack([getattr(r, field) for r in records]))

    times, ka, kb = ensemble_mean_bloch(records)
    return TrajectoryRecord(
        times=times, k_a=ka, k_b=kb,
        k_entropy=avg("k_entropy"), l_entropy=avg("l_entropy"),
        delta=avg("delta"), tau_ab=avg("tau_ab"), purity=avg("purity"),
        trace_err=np.max([r.trace_err for r in records], axis=0),
        herm_err=np.zeros_like(times), min_eig=np.zeros_like(times),
    )
