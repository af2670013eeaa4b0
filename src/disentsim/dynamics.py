"""Time evolution engines of the driven spin pair.

Every model entry point (``grid_liouvillian``, ``steady_state``,
``integrate_master`` and ``integrate_sle_ensemble``) takes a 4x4 H and a
``DampingParams`` (None: no damping).  A lone driven spin is the pair at
g = 0, whose steady state is rho_a (x) rho_b.

* GKSL master equation with per-spin decay, pumping and dephasing channels.
* The nonlinear modified master equation
      drho/dt = i[rho, H] - Theta rho - rho Theta + 2 <Theta> rho / Tr(rho)
  integrated with fixed-step RK4 in grid coordinates x = B(rho): a stage
  (``_mme_stage``) is one matvec of L_r - A, L_r the real grid Liouvillian
  (``grid_liouvillian``, whose null vector is the linear steady state) and A
  the anticommutator with Theta less its multiple of I (``ThetaEngine.grid``);
  <Theta> comes off the result's trace entry, as L_r's trace row is zero.
  Every product of the one state, here and in Theta's coefficients, goes
  through ``np.dot``: the BLAS call of ``@`` with its bits, without matmul's
  gufunc dispatch (0.78 against 1.12 us for a 4x4 real product, one BLAS
  thread).  Stacks keep ``@``, since ``np.dot`` is not a batched product.
* Kraus-pair norm-conservation diagnostic (quadratic in the step).
* Stochastic Schrodinger-Langevin trajectories: an Euler-Maruyama step for
  the dissipative, noise and nonlinear drifts, with the Hamiltonian rotation
  applied through its exact unitary (the coupling g can exceed the damping
  rates by orders of magnitude, and a plain first-order treatment of H is
  unstable there).  The ensemble steps its trajectories as the columns of
  contiguous blocks (``block_bounds``: starts at multiples of 8, at
  least 256 trajectories each, one per process up to ``workers`` and the
  usable cores).  The calling process steps block 0 and forked workers the
  others (``_sle_block``, run by ``run_in_blocks``), each with its own
  generators and its own dW, laid out once per 256-step chunk in one
  reused, contiguous (step, channel, trajectory) buffer.  A step is one gemm
  of [U (I - dt/2 sum V^dag V) | U V_1 | ... | -dt U O_1 | ... | dt U] with the
  stack of psi, dW_l psi, c_k psi and <Theta> psi (``_sle_block_step``,
  through ``np.dot``, as the stack is always 2-D), over the channels with a
  nonzero rate.  The
  blocks' final psi, raw log weights and record columns are merged into one
  ensemble record with a trajectory axis, and the weights are normalized
  over the whole ensemble, so any split gives the bytes of one block.
* Linear steady-state solver via the null space of L_r, batched over a
  stack (the sweep passes one grid row): ``steady_states`` is the one
  kernel, and its docstring states its flow (an inverse screen, one solve,
  at most one values-only SVD, the degeneracy, residual, size and
  positivity rules), so single solves and sweeps reach the same verdicts.

Trace conservation, Hermiticity and positivity are tracked at every
master-equation sample, where rho = (1/2) x . G is formed (Hermitian by
construction, so herm_err reads 0), and the norm error at every stochastic one;
positivity violations beyond tolerance abort the run rather than being
repaired.  Both integrators take the Bloch vectors and measures of their
samples from B with ``entangle.measures_from_bloch``; a master sample's B is x.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
from dataclasses import dataclass

import numpy as np

from . import bases, entangle
from .entangle import DisentanglementSpec, ThetaEngine
from .qcore import (
    DEFAULT_LOG_FLOOR,
    DimensionError,
    QuantumState,
    as_complex_matrix,
    require_hermitian,
)

POSITIVITY_ABORT = -1e-6


class StateHealthError(RuntimeError):
    """A trajectory left the physical state space (reports time and min eigenvalue).

    A NaN ``min_eig`` marks a state that is no longer finite; ``reason``
    replaces the default message.
    """

    def __init__(self, t: float, min_eig: float, reason: str | None = None):
        self.reason = reason
        if reason is not None:
            msg = f"{reason} at t = {t:.6g}"
        elif math.isnan(min_eig):
            msg = f"density matrix is not finite at t = {t:.6g}"
        else:
            msg = f"density matrix positivity violated at t = {t:.6g}: min eigenvalue {min_eig:.3e}"
        super().__init__(msg)
        self.t = t
        self.min_eig = min_eig

    def __reduce__(self):  # a worker process sends it back pickled
        return type(self), (self.t, self.min_eig, self.reason)


class DegenerateSteadyStateError(RuntimeError):
    """The Liouvillian null space has dimension > 1; no unique steady state."""


# ---------------------------------------------------------------------------
# Damping parameters and jump operators.


@dataclass(frozen=True)
class SpinDamping:
    """One spin's bath coupling (a field of DampingParams): relaxation, dephasing
    and thermal occupation."""

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
    ops = [np.kron(x, bases.ID2) for x in spin_jump_operators(d.a)]
    ops += [np.kron(bases.ID2, x) for x in spin_jump_operators(d.b)]
    return ops


def _pair_hamiltonian(h: np.ndarray) -> np.ndarray:
    """H as a complex matrix: anything but a 4x4 H raises DimensionError, and
    a non-Hermitian one HermiticityError."""
    h = as_complex_matrix(h)
    if h.shape != (4, 4):
        raise DimensionError("the two-spin model needs a 4x4 H")
    require_hermitian(h, "Hamiltonian")
    return h


# ---------------------------------------------------------------------------
# Superoperators (row-major vec convention: vec(A rho B) = (A kron B^T) vec(rho)).


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """Matrix form of rho -> i [rho, H]."""
    h = as_complex_matrix(h)
    eye = np.eye(h.shape[0])
    return 1j * (np.kron(eye, h.T) - np.kron(h, eye))


def dissipator_superop(ops: list[np.ndarray], dim: int) -> np.ndarray:
    """Matrix form of the summed Lindblad dissipators."""
    eye = np.eye(dim)
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for x in ops:
        xdx = x.conj().T @ x
        out += np.kron(x, x.conj()) - 0.5 * np.kron(xdx, eye) - 0.5 * np.kron(eye, xdx.T)
    return out


@functools.lru_cache(maxsize=16)
def damping_superop(d: DampingParams) -> np.ndarray:
    """Read-only dissipator superoperator of the six two-spin channels, built
    once per (frozen, hashable) damping."""
    out = dissipator_superop(two_spin_jump_operators(d), 4)
    out.flags.writeable = False
    return out


def grid_liouvillian(h: np.ndarray, d: DampingParams | None
                     ) -> tuple[bases.ObservableGrid, np.ndarray]:
    """The two-spin observable grid and the real grid form L_r of the
    Liouvillian rho -> i[rho, H] + (damping dissipator; none for None).  L_r
    is real because the map preserves Hermiticity, so a non-Hermitian H
    raises HermiticityError (and an H that is not 4x4 DimensionError)."""
    grid = bases.observable_grid()
    lv = hamiltonian_superop(_pair_hamiltonian(h))
    return grid, grid.superop(lv if d is None else lv + damping_superop(d))


def steady_states(lr: np.ndarray, grid: bases.ObservableGrid) -> tuple[np.ndarray, np.ndarray]:
    """Grid coordinates x, rho = (1/2) x . G, of the trace-one null vectors of
    a stack (N, n, n) of real grid Liouvillians, and a boolean mask (N,) of
    the degenerate cells, whose rows are NaN.  One pass over the stack:

    1. Screen: F = |L_r|_F and one batched inverse of A = L_r[1:, 1:].  A
       cell is cleared when 1/|A^-1|_F > 1e-8 max(F, 1).  If the inverse
       raises, the exactly singular blocks (a zero LU pivot) become identity
       blocks and no cell is cleared.
    2. Solve: x_0 is fixed at its trace-one value and one batched solve of
       A x[1:] = -x_0 L_r[1:, 0] gives the rest; the rows of exactly singular
       blocks are NaN.  inv and solve factor the same A, so the solve cannot
       raise, and x is never taken from the inverse.
    3. Bounds: a cleared cell's residual |L_r x|_inf passes at or below
       1e-10 max(F/sqrt(n), 1) |x|_inf and fails above 1e-10 max(F, 1) |x|_inf
       (or when NaN), whatever s_0 is; both bounds are widened by 1e-6 for the
       rounding of F and s_0.
    4. SVD: one values-only SVD of the cells the screen leaves open (not
       cleared, or a cleared residual between the bounds) applies both
       rules on the singular values s of L_r, which is unitarily similar to
       the vectorized L.  Degeneracy: more than one s at or below
       1e-12 max(s_0, 1).  Residual: |L_r x|_inf > 1e-10 max(s_0, 1) |x|_inf.
    5. Size: a cell with some |x_k| > 1e10 |G_k|_2 is degenerate.
    6. Positivity: an eigenvalue below -1e-8 raises StateHealthError.

    A cleared cell gets the verdicts the SVD would give.  Interlacing
    gives s_{n-2} >= sigma_min(A) >= 1/|A^-1|_F (Horn & Johnson, Topics in
    Matrix Analysis, Thm 3.1.3), so a cleared cell has at most one s at or
    below 1e-12 max(s_0, 1); the margin of 1e-8 over that 1e-12 caps
    cond(A) near 1e8, where the computed |A^-1|_F is good to about 1e-7.
    And s_0 lies in [F/sqrt(n), F], which gives the bounds of step 3.

    A traceless null vector has no trace-one multiple.  When A is exactly
    singular its row is NaN and fails the residual rule.  When A is only
    numerically singular the solve returns an x of order x_0/sigma_min(A)
    along that vector, whose residual is rounding relative to |x|_inf and
    passes; the size rule marks it.  Every trace-one positive semidefinite
    rho has |x_k| = |Tr(G_k rho)| <= |G_k|_2 (and x_0 = |G_0|_2), so a
    physical cell is never near the bound's margin of 1e10.  That margin is
    the reciprocal of the residual tolerance 1e-10: beyond it x is more than
    1e10 times its own trace coordinate, the residual rule (relative to
    |x|_inf) cannot tell it from a null vector, and its unit vector has a
    trace below 1e-10, which a full SVD would call traceless.  Below it, a
    trace-one x with a negative eigenvalue stays a positivity abort (a
    non-physical unique steady state).  Any x the size rule marks has
    |rho|_1 > 1e10 and would fail the positivity rule, so the rule turns
    that abort into a degenerate cell and leaves every other verdict.  The
    GKSL generators of the CLI have no traceless null vector.  Rates that
    overflow make F, |A^-1|_F or the residual inf or NaN: such a cell is
    not cleared, a NaN residual fails, and no numpy warning is printed.
    """
    n = lr.shape[-1]
    a = lr[:, 1:, 1:].copy()
    singular = np.zeros(len(lr), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN clear nothing
        f = np.sqrt(np.einsum("kij,kij->k", lr, lr))
        try:
            inv = np.linalg.inv(a)
            cleared = np.sqrt(np.einsum("kij,kij->k", inv, inv)) * (1e-8 * np.maximum(f, 1.0)) < 1.0
        except np.linalg.LinAlgError:  # exactly singular blocks: their cells fail the residual rule
            singular = np.linalg.slogdet(a)[0] == 0
            a[singular] = np.eye(n - 1)
            cleared = np.zeros(len(lr), dtype=bool)
    y = np.linalg.solve(a, lr[:, 1:, :1])
    y[singular] = np.nan
    dim = grid.entries.shape[-1]  # G_0 is the only G with a trace
    x = np.concatenate([np.ones((len(a), 1)), -y[..., 0]], axis=1) / (dim * grid.half[0, 0].real)
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN residual fails
        resid = np.abs(lr @ x[..., None]).max(axis=(1, 2))
        xmax = np.abs(x).max(axis=1)
        ok = resid <= 1e-10 * ((1 - 1e-6) * np.maximum(f / math.sqrt(n), 1.0)) * xmax
        open_ = ~cleared | (~ok & (resid <= 1e-10 * ((1 + 1e-6) * np.maximum(f, 1.0)) * xmax))
        if open_.any():
            s = np.linalg.svd(lr[open_], compute_uv=False)
            smax = np.maximum(s[:, 0], 1.0)
            ok[open_] = ((resid[open_] <= 1e-10 * smax * xmax[open_])
                         & ((s <= 1e-12 * smax[:, None]).sum(axis=1) <= 1))
    degenerate = ~ok | (np.abs(x) > 1e10 * grid.norms).any(axis=1)
    x[degenerate] = np.nan
    w0 = np.linalg.eigvalsh((x[~degenerate] @ grid.half).reshape(-1, dim, dim))[:, 0]
    negative = w0[w0 < -1e-8]
    if negative.size:
        raise StateHealthError(0.0, float(negative[0]))
    return x, degenerate


def steady_state(h: np.ndarray, d: DampingParams | None) -> np.ndarray:
    """Unique trace-one steady state (4x4) of the linear GKSL generator of the
    two-spin system.

    Takes the null vector x of the grid Liouvillian from ``steady_states`` and
    returns (1/2) x . G; a null space of dimension > 1 raises instead of being
    resolved silently.
    """
    grid, lr = grid_liouvillian(h, d)
    x, degenerate = steady_states(lr[None], grid)
    if degenerate[0]:
        raise DegenerateSteadyStateError(
            "Liouvillian has no unique trace-one steady state "
            "(null space of dimension > 1, or a traceless null vector)"
        )
    return (x[0] @ grid.half).reshape(4, 4)


# ---------------------------------------------------------------------------
# Modified master equation.


def _mme_stage(lr: np.ndarray, x: np.ndarray, c: np.ndarray | None,
               table: np.ndarray | None, out: np.ndarray | None = None) -> np.ndarray:
    """One evaluation of the modified master equation in x = B(rho), into
    ``out`` if given: L_r x, plus B(-{Theta, rho} + 2 <Theta> rho / Tr(rho))
    for Theta's coefficients c over the operators of ``table``
    (``ThetaEngine.grid``), in one matvec z = (L_r - A) x, A = (c @ table):
    2 <Theta> / Tr(rho) = -z_0 / x_0, since L_r's trace row is zero.  Both
    products go through ``np.dot``: the BLAS call of ``@`` with its bits,
    without matmul's gufunc dispatch."""
    if c is None:
        return np.dot(lr, x, out=out)
    n = len(x)
    z = np.dot(lr - np.dot(c, table).reshape(n, n), x, out=out)
    z -= (z.item(0) / x.item(0)) * x
    return z


def kraus_step_error(
    rho: np.ndarray,
    h: np.ndarray,
    theta: np.ndarray,
    tau: float,
) -> float:
    """Norm-conservation defect |<K0+ K0 + K1+ K1> - 1| of the Kraus pair
    K0 = sqrt(2 <Theta> tau), K1 = 1 - (i H + Theta) tau, for a Hermitian
    matrix Theta.

    Exactly quadratic in tau, so halving the step divides the defect by 4.
    """
    rho = as_complex_matrix(rho)
    tm = as_complex_matrix(theta)
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
    seed: int = 0
    log_floor: float = DEFAULT_LOG_FLOOR
    sample_every: int = 0  # 0 = choose automatically (~2000 samples)

    def __post_init__(self):
        if not (math.isfinite(self.dt) and math.isfinite(self.t_end)):
            raise ValueError(f"dt = {self.dt!r} and t_end = {self.t_end!r} must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least one step")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end / dt = {self.t_end!r} / {self.dt!r} "
                             "is not a finite number of steps")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))

    @property
    def stride(self) -> int:
        if self.sample_every > 0:
            return self.sample_every
        return max(1, self.n_steps // 2000)

    @property
    def sample_steps(self) -> list[int]:
        """Steps 0, stride, 2 stride, ... and always the last step."""
        steps = list(range(0, self.n_steps + 1, self.stride))
        return steps if steps[-1] == self.n_steps else steps + [self.n_steps]


@dataclass
class TrajectoryRecord:
    """Sampled time series of Bloch vectors, measures and health diagnostics.

    An ensemble record has a leading trajectory axis on every field but
    ``times``; ``rec[k]`` is trajectory k's record, made of views.

    ``weight`` is only set on stochastic trajectories: the accumulated squared
    norm of the linear (pre-renormalization) solution, which is the correct
    statistical weight when averaging projectors over an ensemble.  There
    ``herm_err`` and ``min_eig`` are not measured (None) and ``trace_err`` is
    the norm error |<psi|psi> - 1|.
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
    herm_err: np.ndarray | None = None
    min_eig: np.ndarray | None = None
    weight: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def __getitem__(self, k: int) -> TrajectoryRecord:
        return TrajectoryRecord(**{f: v if f == "times" or v is None else v[k]
                                   for f, v in vars(self).items()})


def integrate_master(
    initial: QuantumState,
    h: np.ndarray,
    dspec: DisentanglementSpec | None,
    damping: DampingParams | None,
    cfg: IntegratorConfig,
) -> TrajectoryRecord:
    """RK4 integration of the (possibly nonlinear) master equation in grid
    coordinates x = B(rho), with L_r's trace row (rounding) set to 0; Theta is
    rebuilt from x at every stage, and a step is x + (dt/6) (1, 2, 2, 1) . K,
    K the (4, n) stage vectors (``_mme_stage``).  Diagnostics are recorded at
    each sample; a minimum eigenvalue below -1e-6, or a state that is no
    longer finite, aborts with a StateHealthError, as does a stage state
    whose Theta eigendecomposition fails (one that is no longer finite) at
    its step's t.  A finite stage state is never rejected: every log of Theta
    floors its eigenvalues, so one that is not positive semi-definite gives
    finite coefficients."""
    grid, lr = grid_liouvillian(h, damping)
    lr[0] = 0.0
    x = bases.bloch_matrix(initial).reshape(-1)

    coeff, table = (lambda x: None), None
    if dspec is not None and dspec.active:
        coeff, table = ThetaEngine(dspec, h=h, floor=cfg.log_floor).grid()

    dt, n_steps, sample_steps = cfg.dt, cfg.n_steps, cfg.sample_steps
    x_samples = np.empty((len(sample_steps), len(x)))
    times = np.empty(len(sample_steps))
    min_eig = np.empty(len(sample_steps))
    k, stage = np.empty((4, len(x))), np.empty(len(x))
    w, nodes = (dt / 6.0) * np.array([1.0, 2.0, 2.0, 1.0]), (0.0, 0.5 * dt, 0.5 * dt, dt)
    si = 0

    # an overflowing step is reported by the health checks below, not by
    # numpy warnings (an inf stage state sets divide in Theta's eigh)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(n_steps + 1):
            if step == sample_steps[si]:
                t = step * dt
                if not np.isfinite(x).all():
                    raise StateHealthError(t, math.nan)
                min_eig[si] = np.linalg.eigvalsh((x @ grid.half).reshape(4, 4))[0]
                if min_eig[si] < POSITIVITY_ABORT:
                    raise StateHealthError(t, float(min_eig[si]))
                x_samples[si] = x
                times[si] = t
                si += 1
            if step == n_steps:
                break
            try:
                for i in range(4):
                    r = x
                    if i:  # nodes[i] k[i-1] + x: the bits of x + nodes[i] k[i-1]
                        r = np.multiply(k[i - 1], nodes[i], out=stage)
                        r += x
                    _mme_stage(lr, r, coeff(r), table, k[i])
            except np.linalg.LinAlgError:
                # Theta's eigendecomposition fails only on a stage state that
                # overflowed to inf/NaN
                raise StateHealthError(step * dt, math.nan) from None
            x += np.dot(w, k)

    b = x_samples.reshape(-1, 4, 4)
    k_a, k_b = bases.single_spin_bloch_vectors(b)
    rho_samples = (x_samples @ grid.half).reshape(-1, 4, 4)
    trace_err = np.abs(np.einsum("nii->n", rho_samples).real - 1.0)
    herm_err = np.abs(rho_samples - rho_samples.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    rep = entangle.measures_from_bloch(b, cfg.log_floor)
    return TrajectoryRecord(
        times=times, k_a=k_a, k_b=k_b, **vars(rep),
        trace_err=trace_err, herm_err=herm_err, min_eig=min_eig,
    )


# ---------------------------------------------------------------------------
# Stochastic Schrodinger-Langevin trajectories.


def _sle_step_matrix(h: np.ndarray, ops: list, dt: float,
                     theta_ops: np.ndarray | None = None) -> np.ndarray:
    """The step matrix [U (I - dt/2 sum V^dag V) | U V_1 | ... | U V_m], U =
    exp(-i H dt), and for a Theta [-dt U O_1 | ... | -dt U O_K | dt U] after it
    (O_k: ``ThetaEngine.drift_ops``); raises StateHealthError when dt *
    lambda_max(sum V^dag V / 2) >= 1, where the damping factor turns negative."""
    dim = h.shape[0]
    half = sum((x.conj().T @ x for x in ops), np.zeros((dim, dim), dtype=complex))
    rate = 0.5 * float(np.linalg.eigvalsh(half)[-1])
    if dt * rate >= 1.0:
        raise StateHealthError(0.0, math.nan, reason=(
            f"step dt = {dt:.6g} makes the damping factor I - dt/2 sum V^dag V "
            f"non-positive (dt * lambda_max = {dt * rate:.3g} >= 1)"))
    w, v = np.linalg.eigh(as_complex_matrix(h))
    u = (v * np.exp(-1j * w * dt)) @ v.conj().T
    blocks = [u @ (np.eye(dim) - 0.5 * dt * half)] + [u @ x for x in ops]
    if theta_ops is not None:
        blocks += [-dt * (u @ x) for x in theta_ops] + [dt * u]
    return np.concatenate(blocks, axis=1)


def _sle_block_step(psi: np.ndarray, step_mat: np.ndarray, dw: np.ndarray, stack: np.ndarray,
                    weights: np.ndarray | None = None):
    """One Euler-Maruyama step of a (dim, n) block of state columns: one gemm of
    ``step_mat`` with the stack of psi, dW_l psi and, for a Theta, w_k psi for
    each row w_k of ``weights`` (``ThetaEngine.drift``: the c_k, then <Theta>),
    in ``stack`` (columns of step_mat / dim, dim, n).  Returns the new block,
    renormalized in place, and the squared norms it was divided by."""
    stack[0] = psi
    np.multiply(dw[:, None, :], psi, out=stack[1:len(dw) + 1])
    if weights is not None:
        np.multiply(weights[:, None, :], psi, out=stack[len(dw) + 1:])
    out = np.dot(step_mat, stack.reshape(-1, psi.shape[1]))
    nrm2 = (out.real * out.real + out.imag * out.imag).sum(axis=0)
    out *= 1.0 / np.sqrt(nrm2)  # the bits of out /= sqrt(nrm2), without complex division
    return out, nrm2


#: Steps of per-trajectory noise drawn per generator call.  A generator's
#: stream does not depend on how its draws are split, so this only trades the
#: memory of a trajectory block's dW buffer (49 MB for a block of 2000
#: trajectories) against the number of calls.
_NOISE_CHUNK = 256
#: Trajectories drawn into one float scratch before it is transposed into dW.
_NOISE_BLOCK = 128
#: Fewest trajectories a worker process steps.  The fixed cost of a step
#: (Python and numpy calls) does not shrink with the block, so splitting a
#: small ensemble gains little or loses.  On the fig3 model (2-core x86-64,
#: one BLAS thread, medians of 7), two processes against one took: 16
#: trajectories as 8 + 8, 5000 steps, 0.183 against 0.120 s linear and 0.340
#: against 0.355 s corr-suppress; 128 + 128, 2000 steps, 0.173 against 0.252
#: and 0.490 against 0.488 s; 256 + 256, 1000 steps, 0.187 against 0.239 and
#: 0.307 against 0.444 s.
MIN_BLOCK = 256
#: Block starts are multiples of this: the zgemm kernels of the block step
#: treat every aligned group of 8 columns alike, so a trajectory's bits do
#: not depend on the split.
_BLOCK_ALIGN = 8


def _noise_chunks(gens: list[np.random.Generator], n_ch: int, n_steps: int, dt: float):
    """The complex dW (E dW = 0, E |dW|^2 = dt, E dW^2 = 0) of every step as
    (chunk, n_ch, n_traj) arrays of up to _NOISE_CHUNK steps; gens[k] draws
    each chunk with one (chunk, n_ch, 2) standard-normal call.  Every chunk is
    a view of one reused buffer (a short last chunk is its leading slice)."""
    n_traj = len(gens)
    size = min(_NOISE_CHUNK, n_steps)
    buf = np.empty((size, n_ch, n_traj), dtype=complex)
    raw = np.empty((min(_NOISE_BLOCK, n_traj), size, n_ch, 2))
    scale = np.sqrt(dt / 2.0)
    for base in range(0, n_steps, size):
        c = min(size, n_steps - base)
        for k0 in range(0, n_traj, _NOISE_BLOCK):
            block = gens[k0:k0 + _NOISE_BLOCK]
            for j, g in enumerate(block):
                g.standard_normal(out=raw[j, :c])
            r = raw[:len(block), :c]
            np.multiply(r, scale, out=r)
            buf[:c, :, k0:k0 + len(block)] = r.view(complex)[..., 0].transpose(1, 2, 0)
        yield buf[:c]


def usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def block_bounds(n: int, workers: int, min_size: int = MIN_BLOCK,
                 align: int = _BLOCK_ALIGN) -> list[tuple[int, int]]:
    """Contiguous (start, stop) blocks of range(n), one per worker process:
    min(workers, usable cores, n // min_size) of them, and at least one.
    Every start is a multiple of ``align``, and the sizes differ by at most
    ``align`` (the last block takes the n % align remainder).  The defaults
    are the trajectory blocks of a stochastic ensemble."""
    k = max(1, min(workers, usable_cores(), n // min_size))
    groups, rest = divmod(n, align)
    q, r = divmod(groups, k)
    stops = np.cumsum([align * (q + (j < r)) for j in range(k)])
    stops[-1] += rest
    return [(int(a), int(b)) for a, b in zip(np.r_[0, stops[:-1]], stops)]


def run_in_blocks(run, bounds: list[tuple[int, int]], what) -> list:
    """[run(i, start, stop) for every block i of ``bounds``], in block order.
    A single block runs in this process.  More run through
    ``workers.run_blocks``: block 0 here and the others in forked worker
    processes.  That module, and ``multiprocessing`` with it, is imported
    and compiled only then.  ``what(start, stop)`` names the items of a block
    whose worker ends without a result.  Anything the blocks share (such as
    an ensemble's halt array) is bound into ``run`` by the caller."""
    if len(bounds) == 1:
        return [run(0, *bounds[0])]
    from .workers import run_blocks
    return run_blocks(run, bounds, what)


def _sle_block(n_ch: int, psi0: np.ndarray, step_mat: np.ndarray,
               engine: ThetaEngine | None, cfg: IntegratorConfig, halt: np.ndarray,
               i: int, start: int, stop: int):
    """Trajectories start..stop-1 of an ensemble, block i of a run, stepped
    as the columns of one block, with ``n_ch`` noise channels.  Returns the
    final psi (4, n), the raw log weight log_w at each sample (n_samples, n),
    and the record columns (n, n_samples, ...) of every TrajectoryRecord
    field but ``weight``.

    ``halt`` is the run's shared int64 array, one slot per block, which
    ``integrate_sle_ensemble`` makes before any fork (every slot at the int64
    maximum) and binds, with the arguments before it, into the
    run(i, start, stop) that ``run_in_blocks`` calls.  A block that fails
    sets halt[i] to the step of its StateHealthError (-1 for any other
    error), and a block whose next noise chunk starts after min(halt)
    returns None, because an earlier failure decides the run."""
    n = stop - start
    dt = cfg.dt
    sample_steps = cfg.sample_steps
    n_samp = len(sample_steps)

    gens = [np.random.default_rng(np.random.SeedSequence([int(cfg.seed), k]))
            for k in range(start, stop)]
    psi = np.tile(psi0[:, None], (1, n))
    stack = np.empty((step_mat.shape[1] // 4, 4, n), dtype=complex)
    log_w = np.zeros(n)
    log_w_samples = np.empty((n_samp, n))

    # per-trajectory, per-sample record columns, named as TrajectoryRecord
    # fields, each filled at every sample
    cols = {f: np.empty((n, n_samp, 3)) for f in ("k_a", "k_b")}
    cols.update((f, np.empty((n, n_samp))) for f in (
        "k_entropy", "l_entropy", "delta", "tau_ab", "purity", "trace_err"))

    si = step = 0

    def sample():
        nonlocal si
        if not (np.isfinite(psi).all() and np.isfinite(log_w).all()):
            raise StateHealthError(step * dt, math.nan,
                                   reason="state vector or weight is not finite")
        log_w_samples[si] = log_w
        nrm = np.sqrt(np.einsum("in,in->n", psi.conj(), psi).real)
        cols["trace_err"][:, si] = np.abs(nrm * nrm - 1.0)
        b = bases.bloch_matrix_from_rho(np.einsum("in,jn->nij", psi, psi.conj()))
        cols["k_a"][:, si], cols["k_b"][:, si] = bases.single_spin_bloch_vectors(b)
        for f, v in vars(entangle.measures_from_bloch(b, cfg.log_floor)).items():
            cols[f][:, si] = v
        si += 1

    try:
        # an overflowing step is reported by a StateHealthError, not by warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for chunk in _noise_chunks(gens, n_ch, cfg.n_steps, dt):
                if step > halt.min():
                    return None
                for dw in chunk:
                    if step == sample_steps[si]:
                        sample()
                    try:
                        weights = None if engine is None else engine.drift(psi)
                    except np.linalg.LinAlgError:  # Theta of a state that overflowed
                        raise StateHealthError(step * dt, math.nan,
                                               reason="state vector or weight is not finite"
                                               ) from None
                    psi, nrm2 = _sle_block_step(psi, step_mat, dw, stack, weights)
                    log_w += np.log(nrm2)
                    step += 1
            sample()
    except Exception as exc:
        halt[i] = step if isinstance(exc, StateHealthError) else -1
        raise
    return psi, log_w_samples, cols


def integrate_sle_ensemble(initial: np.ndarray, h: np.ndarray,
                           dspec: DisentanglementSpec | None,
                           damping: DampingParams | None, cfg: IntegratorConfig,
                           n_traj: int, workers: int = 1) -> tuple[np.ndarray, TrajectoryRecord]:
    """Evolve an ensemble of two-spin trajectories (None: no jump channels)
    and average the projectors.  A channel with a zero rate (an all-zero V)
    adds nothing to a step: it is dropped, and draws no noise.

    Returns the ensemble mean density matrix at the final time plus one
    ensemble record of contiguous (n_traj, n_samples, ...) columns.
    Trajectory k draws its noise from its own generator, seeded from
    (cfg.seed, k), so its noise does not depend on n_traj.  The same seed
    and the same n_traj give the same bytes on the same machine and BLAS,
    for any ``workers``; across different n_traj a trajectory's state
    agrees only to the last few ulps, because the BLAS kernels of the block
    step depend on the column count, and its weight is relative to the
    ensemble.

    The trajectories are stepped in ``block_bounds(n_traj, workers)``:
    block 0 in this process and the others in forked worker processes.
    Blocks start at multiples of 8, so each trajectory gets the bits one
    block of all of them would give it; the raw log weights of all blocks
    are merged before the weights are shifted and normalized.

    States are renormalized every step, and the discarded squared norm is
    accumulated as a per-trajectory weight: the stochastic equation is a
    linear unravelling, so the noise-average that reproduces the master
    equation is the weighted mean of projectors, sum(w |psi><psi|)/sum(w).
    An unweighted mean of renormalized projectors is a biased estimator.
    """
    if n_traj < 1:
        raise ValueError("need at least one trajectory")
    if workers < 1:
        raise ValueError("need at least one worker")
    psi0 = np.asarray(initial, dtype=complex).reshape(-1)
    h = _pair_hamiltonian(h)
    if psi0.size != 4:
        raise DimensionError("initial state and Hamiltonian dimensions differ")

    engine = None
    if dspec is not None and dspec.active:
        engine = ThetaEngine(dspec, h=h, floor=cfg.log_floor)
    ops = [] if damping is None else [v for v in two_spin_jump_operators(damping) if v.any()]
    step_mat = _sle_step_matrix(h, ops, cfg.dt, None if engine is None else engine.drift_ops)

    bounds = block_bounds(n_traj, workers)
    halt = np.frombuffer(mmap.mmap(-1, 8 * len(bounds)), dtype=np.int64)  # anonymous, shared
    halt[:] = np.iinfo(np.int64).max
    run = functools.partial(_sle_block, len(ops), psi0, step_mat, engine, cfg, halt)
    parts = run_in_blocks(run, bounds, lambda start, stop: f"trajectories {start}..{stop - 1}")
    psi, log_w = (np.concatenate([p[k] for p in parts], axis=1) for k in (0, 1))
    # each block's column is dropped as it is merged: one column is held twice, not all
    cols = {f: np.concatenate([p[2].pop(f) for p in parts]) for f in list(parts[0][2])}

    rel = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    cols["weight"] = np.ascontiguousarray((rel / rel.mean(axis=1, keepdims=True)).T)
    w_final = rel[-1]  # the last sample is the final step
    mean_rho = np.einsum("in,jn,n->ij", psi, psi.conj(), w_final) / w_final.sum()
    times = np.array([s * cfg.dt for s in cfg.sample_steps])
    return mean_rho, TrajectoryRecord(times=times, **cols)


def ensemble_mean_record(rec: TrajectoryRecord) -> TrajectoryRecord:
    """Weighted ensemble-mean time series (Bloch vectors and measures), each
    sample's weights normalized to sum 1; ``trace_err`` is the worst one's."""
    wn = rec.weight / rec.weight.sum(axis=0, keepdims=True)
    return TrajectoryRecord(
        times=rec.times, trace_err=rec.trace_err.max(axis=0),
        **{f: np.einsum("rs,rs...->s...", wn, getattr(rec, f))
           for f in ("k_a", "k_b", "k_entropy", "l_entropy", "delta", "tau_ab", "purity")},
    )
