"""Entanglement measures and the nonlinear operators that suppress them.

Four operator families can be inserted into the modified Schrodinger /
master equations:

* ``state-matrix-derank``  -- Q_S, built from the log of the subsystem Gram
  matrix G = M M^dag (pure states) or the reduced density matrix (general
  states); <Q_S> equals the entanglement entropy K.
* ``bloch-derank-a`` / ``bloch-derank-b`` -- Q_a / Q_b, built from the log of
  the Bloch Gram matrices alpha = B B^T/2 and beta = B^T B/2; both have
  expectation L, the Bloch-matrix entanglement measure.  Q_a = Q_b, since
  f(B B^T) B = B f(B^T B) for any f, so both run one kernel.
* ``corr-suppress`` -- Q_ab, the covariance-squared functional over the
  subsystem Gell-Mann bases; <Q_ab> = tau_ab in [0, 1] vanishes exactly on
  product states.
* ``thermalization`` -- gamma_h * beta * (H + log(rho)/beta), the free-energy
  operator; included for completeness, it is not a disentangler.

All operators vanish (act as a multiple of the identity) on product states,
except thermalization; that no-op property is what makes the nonlinear
dynamics leave uncorrelated physics untouched.

Each kernel has one implementation.  Each Theta family is written once, in
``ThetaEngine``, as ``coefficients(e) @ ops`` over expectations e read off B
(thermalization alone builds its matrix directly).  ``matrix`` serves
``build_theta``, ``grid`` the master equation (on x = B(rho) or a stack of
them), ``drift`` the weights the stochastic step applies Theta with, read from
a stack of |psi><psi|.  ``measures_from_bloch``
computes every measure of a stack of Bloch matrices for the single-state
functions and both integrators' sample points; K, delta and Q_S read the
reduced state off B (``bases.reduced_state_a``).  B comes from one contraction,
``bases._contract``; tau and Q_ab read the expectations <l_a>, <l_b> and
<l_a (x) l_b> from B through one cached, read-only map S (``_covariance_map``),
so the measures, the sweep and Theta share B.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bases
from .qcore import (
    DEFAULT_LOG_FLOOR,
    DimensionError,
    Factorization,
    QuantumState,
    as_complex_matrix,
    eig_log,
    expectation,
    floored_log,
    spectral_log,
)

#: Normalization of the correlation-suppression operator for a qubit pair
#: (chosen so tau_ab reaches exactly 1 on maximally entangled states).
ETA_TWO_QUBITS = 1.0 / 3.0


class ThetaFamily(str, enum.Enum):
    NONE = "none"
    CORR_SUPPRESS = "corr-suppress"
    BLOCH_DERANK_A = "bloch-derank-a"
    BLOCH_DERANK_B = "bloch-derank-b"
    STATE_MATRIX_DERANK = "state-matrix-derank"
    THERMALIZATION = "thermalization"


@dataclass(frozen=True)
class ThetaOperator:
    """A concrete nonlinear-drive operator: its Hermitian matrix, rate included."""

    matrix: np.ndarray

    def expectation(self, state: QuantumState | np.ndarray) -> float:
        return expectation(state, self.matrix)


@dataclass(frozen=True)
class DisentanglementSpec:
    """Which operator family drives the nonlinear term, and how fast."""

    family: ThetaFamily = ThetaFamily.NONE
    gamma_d: float = 0.0
    gamma_h: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        if self.gamma_d < 0 or self.gamma_h < 0:
            raise ValueError("disentanglement rates must be nonnegative")
        if self.family is ThetaFamily.NONE and self.gamma_d != 0.0:
            raise ValueError("family 'none' forces gamma_d = 0")

    @property
    def active(self) -> bool:
        if self.family is ThetaFamily.NONE:
            return False
        if self.family is ThetaFamily.THERMALIZATION:
            return self.gamma_h > 0
        return self.gamma_d > 0


@dataclass(frozen=True)
class MeasureReport:
    """Scalar health/entanglement summary of a state (arrays of them for a stack)."""

    k_entropy: float
    l_entropy: float
    delta: float
    tau_ab: float
    purity: float


# ---------------------------------------------------------------------------
# State matrix, Gram matrix, and scalar measures.


def state_matrix(psi, factor: Factorization) -> np.ndarray:
    """Reshape a bipartite state vector into its d_a x d_b state matrix."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size != factor.d_a * factor.d_b:
        raise DimensionError(
            f"state vector length {v.size} != {factor.d_a} * {factor.d_b}"
        )
    return v.reshape(factor.d_a, factor.d_b)


def g_from_state(state: QuantumState) -> np.ndarray:
    """Gram matrix of a general state: the subsystem-a reduction of rho."""
    return bases.reduced_state_a(bases.bloch_matrix(state))


def entanglement_k(state: QuantumState) -> float:
    """Entanglement entropy K = -Tr(G log G) in nats (bounded by log min(d))."""
    return float(measures_from_bloch(bases.bloch_matrix(state)).k_entropy)


def entanglement_l(state: QuantumState, floor: float = DEFAULT_LOG_FLOOR) -> float:
    """Bloch-matrix entanglement L = -Tr(alpha log alpha), alpha = B B^T / 2.

    Unlike the spectral entropy, alpha is not renormalized by its trace
    (Tr alpha = Tr rho^2 < 1 for mixed states).  For pure states with equal
    subsystem dimensions, L = 2 K.
    """
    return float(measures_from_bloch(bases.bloch_matrix(state), floor).l_entropy)


def delta_measure(psi) -> float:
    """Two-qubit pure-state entanglement parameter delta = 4 |psi1 psi4 - psi2 psi3|^2."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size != 4:
        raise DimensionError("delta is defined for two-qubit state vectors")
    return float(4.0 * abs(v[0] * v[3] - v[1] * v[2]) ** 2)


# ---------------------------------------------------------------------------
# Covariances behind tau_ab and Q_ab, read from the grid coordinates x = B(rho).


@lru_cache(maxsize=None)
def _covariance_map(d_a: int, d_b: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Read-only real S, shape (d_a^2 d_b^2, n_a + n_b + n_a n_b), with x @ S =
    (<l_a>, <l_b>, <l_a (x) l_b>) for x = B(rho) flattened, and the split points
    of that layout: <l_a> = sqrt(d_b) B[a, 0], <l_b> = sqrt(d_a) B[0, b] and
    <l_a (x) l_b> = sqrt(2) B[a, b] for a, b >= 1."""
    scale = np.full((d_a * d_a, d_b * d_b), np.sqrt(2.0))
    scale[:, 0], scale[0] = np.sqrt(d_b), np.sqrt(d_a)
    flat = np.arange(scale.size).reshape(scale.shape)
    s = np.diag(scale.ravel())[:, np.concatenate([flat[1:, 0], flat[0, 1:], flat[1:, 1:].ravel()])]
    s.setflags(write=False)
    return s, (d_a * d_a - 1, d_a * d_a + d_b * d_b - 2)


def _covariances(e: np.ndarray, split: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(<l_a l_b> - <l_a><l_b>, <l_a><l_b>), shape (..., n_a n_b) each, from the
    expectations e (..., n) = x @ S split at ``split`` (``_covariance_map``)."""
    i, j = split
    ab = (e[..., :i, None] * e[..., None, i:j]).reshape(*e.shape[:-1], i * (j - i))
    return e[..., j:] - ab, ab


# ---------------------------------------------------------------------------
# Theta constructors: unit-rate operators from the integrators' kernel.


def q_bloch_operators(
    state: QuantumState, floor: float = DEFAULT_LOG_FLOOR
) -> tuple[ThetaOperator, ThetaOperator]:
    """Bloch deranking operators (Q_a, Q_b) with <Q_a> = <Q_b> = L.

    Q_a = -(1/2) sum_ab (log(alpha) B)_ab G_ab with alpha = B B^T/2, and
    symmetrically for Q_b with beta = B^T B/2; the two are equal, so one
    operator is built and returned twice.
    """
    q = build_theta(state, DisentanglementSpec(ThetaFamily.BLOCH_DERANK_A, gamma_d=1.0),
                    floor=floor)
    return q, q


def correlation_operator(state: QuantumState) -> ThetaOperator:
    """Correlation-suppression operator Q_ab.

    Built from the operator-valued covariance grid C(l_a, l_b) =
    l_a (x) l_b - <l_a><l_b> I contracted with its own expectation values;
    <Q_ab> = tau_ab.
    """
    return build_theta(state, DisentanglementSpec(ThetaFamily.CORR_SUPPRESS, gamma_d=1.0))


def tau_from_bloch(b: np.ndarray) -> np.ndarray:
    """tau_ab of each Bloch matrix of a (..., d_a^2, d_b^2) stack, shape (...):
    ETA_TWO_QUBITS times the summed squared covariances <l_a l_b> - <l_a><l_b>."""
    s, split = _covariance_map(math.isqrt(b.shape[-2]), math.isqrt(b.shape[-1]))
    cov = _covariances(b.reshape(*b.shape[:-2], -1) @ s, split)[0]
    return ETA_TWO_QUBITS * (cov * cov).sum(axis=-1)


def tau_correlation(state: QuantumState) -> float:
    """Correlation parameter tau_ab = ETA_TWO_QUBITS * sum of squared covariances."""
    return float(tau_from_bloch(bases.bloch_matrix(state)))


def weyl_t2_expectation(state: QuantumState) -> float:
    """Expectation of the Weyl T2 operator, equal to Tr((S^dag S)^2).

    Assembled as the quadruple Weyl-pair sum over products of rho; this is
    the state-vector route to the purity of the S matrix and requires a pure
    state with d_a = d_b.
    """
    if not state.is_pure:
        raise ValueError("T2 expectation is defined for pure states")
    if state.factor.d_a != state.factor.d_b:
        raise DimensionError("T2 needs equal subsystem dimensions")
    d = state.factor.d_a
    w = bases.weyl_ops(d).reshape(d * d, d, d)
    pair = np.einsum("iac,jbd->ijabcd", w, w).reshape((d * d,) * 4)  # pair[i, j] = w_i (x) w_j
    rho, psi = state.density(), state.psi
    # <psi| sum_{q1..q4} P[q2,q1]^dag rho P[q2,q3] rho P[q4,q3]^dag rho P[q4,q1] |psi> / d^4
    val = np.einsum("a,ijca,cd,ikde,ef,lkgf,gh,ljhb,b->", psi.conj(), pair.conj(), rho, pair,
                    rho, pair.conj(), rho, pair, psi, optimize=True) / float(d ** 4)
    return float(val.real)


# ---------------------------------------------------------------------------
# Shared engine used by the integrators.


class ThetaEngine:
    """Theta of a fixed family/rate: from density matrices (``matrix``), in grid
    form for the master equation (``grid``) and as the weights of the drift
    (<Theta> - Theta)|psi> of a (D, N) block of state vectors (``drift``).

    Every family but thermalization is ``coefficients(e) @ ops`` over a
    rate-scaled operator stack, e = x = B(rho) (the deranking families) or
    x @ S (corr-suppress, ``_covariance_map``), which ``matrix`` reads from rho
    through the grid's expectation matrix; thermalization builds its matrix.
    ``drift``/``grid`` run over ``ops`` but the multiples of I (``drift_ops``;
    thermalization: gamma_h beta H / G_k, k >= 1), which cancel in both."""

    def __init__(
        self,
        spec: DisentanglementSpec,
        factor: Factorization,
        h: np.ndarray | None = None,
        floor: float = DEFAULT_LOG_FLOOR,
    ):
        self.spec = spec
        self.factor = factor
        self.floor = floor
        self.h = None if h is None else as_complex_matrix(h)
        fam = spec.family
        if fam is ThetaFamily.NONE:
            raise ValueError("family 'none' has no Theta")
        if fam is ThetaFamily.THERMALIZATION and self.h is None:
            raise ValueError("thermalization needs the Hamiltonian")
        grid = self._grid = bases.observable_grid(factor.d_a, factor.d_b)
        self._shape = grid.entries.shape[:2]
        # e's expectation matrix (grid.expect, times S for corr-suppress), held
        # so that no call looks it up
        self._expect, self._s = grid.expect, None
        if fam is ThetaFamily.CORR_SUPPRESS:
            self._s, self._split = _covariance_map(factor.d_a, factor.d_b)
            self._expect = grid.expect @ self._s
            # l_a (x) l_b = sqrt(2) G[a, b] for a, b >= 1
            pairs = np.sqrt(2.0) * grid.entries[1:, 1:].reshape(-1, factor.dim ** 2)
            self.ops = spec.gamma_d * ETA_TWO_QUBITS * np.vstack([pairs,
                                                                  -np.eye(factor.dim).ravel()])
        elif fam is ThetaFamily.STATE_MATRIX_DERANK:
            # -gamma_d (P_a / 2) (x) I_b over the single-factor grid P, which is
            # (I, sigma_x, sigma_y, sigma_z) for a qubit
            self._single = bases.observable_grid(factor.d_a, 1)
            half = self._single.half.reshape(-1, factor.d_a, factor.d_a)
            self.ops = -spec.gamma_d * np.kron(half, np.eye(factor.d_b)).reshape(len(half), -1)
        elif fam in (ThetaFamily.BLOCH_DERANK_A, ThetaFamily.BLOCH_DERANK_B):
            self.ops = -0.5 * spec.gamma_d * grid.entries.reshape(factor.dim ** 2, -1)
        ops = (spec.gamma_h * spec.beta * self.h).reshape(1, -1) if (
            fam is ThetaFamily.THERMALIZATION) else self.ops
        self._keep = np.flatnonzero((ops != ops[:, :1] * np.eye(factor.dim).ravel()).any(axis=1))
        self.drift_ops = ops[self._keep].reshape(-1, factor.dim, factor.dim)
        # rows of e and of each <O_k> = Tr(rho O_k) (O_k Hermitian) for rho.ravel()
        self._drift_expect = np.vstack([self._expect.T, ops[self._keep].conj()])

    def coefficients(self, e: np.ndarray) -> np.ndarray:
        """Theta's coefficients over ``ops`` from the expectations e (..., n) of
        each state: the covariances and <l_a><l_b> . cov (corr-suppress), the
        coefficients over P of log(G), G = Tr_b rho (state-matrix-derank), or
        log(alpha) B, alpha = B B^T/2, which equals B log(B^T B/2) (Bloch)."""
        if self.spec.family is ThetaFamily.CORR_SUPPRESS:
            cov, ab = _covariances(e, self._split)
            return np.concatenate([cov, np.vecdot(cov, ab)[..., None]], axis=-1)
        b = e.reshape(*e.shape[:-1], *self._shape)
        if self.spec.family is ThetaFamily.STATE_MATRIX_DERANK:
            log_g = eig_log(*np.linalg.eigh(bases.reduced_state_a(b)), self.floor)
            return bases._contract(log_g, self._single.expect).real
        return (eig_log(*np.linalg.eigh(b @ b.mT / 2.0), self.floor) @ b).reshape(e.shape)

    def matrix(self, rho: np.ndarray) -> np.ndarray:
        """Full Theta matrix (rate included) for a density matrix, or for each
        matrix of a (..., D, D) stack (``build_theta``, thermalization's ``grid``)."""
        if self.spec.family is ThetaFamily.THERMALIZATION:
            return (self.spec.gamma_h * self.spec.beta * self.h
                    + self.spec.gamma_h * spectral_log(rho, self.floor))
        e = bases._contract(rho, self._expect).real
        return (self.coefficients(e) @ self.ops).reshape(rho.shape)

    def grid(self) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
        """Theta but its multiple of I (which cancels in the master equation) in
        grid coordinates: (x -> c, table), with B({Theta', rho}) =
        (c @ table).reshape(n, n) @ x; table's rows are the anticommutator tensors
        of ``drift_ops`` (thermalization: G_k / 2, k >= 1, c_k = B(Theta)_k).
        c takes x or a (..., n) stack, with bits that do not depend on its size."""
        grid = self._grid
        table = grid.anticommutator.reshape(len(grid.half), -1)
        if self.spec.family is ThetaFamily.THERMALIZATION:
            half, g = grid.half.view(float), grid.entries.reshape(len(table), -1)[1:].view(float)

            def coeff(x):  # real dots, one per entry (not gemv, or gemm for a stack)
                rho = np.vecdot(x[..., None], half, axis=-2).view(complex)
                theta = self.matrix(rho.reshape(*x.shape[:-1], self.factor.dim, -1))
                return np.vecdot(theta.reshape(rho.shape).view(float)[..., None, :], g)
            return coeff, table[1:]
        table = bases._contract(self.drift_ops, grid.expect).real @ table
        if self._s is not None:  # corr-suppress: the pairs' covariances
            return (lambda x: _covariances(x @ self._s, self._split)[0]), table
        return (lambda x: self.coefficients(x)[..., 1:]), table  # drop G_00 or P_0 = I

    def drift(self, psi_block: np.ndarray) -> np.ndarray:
        """The real (K + 1, N) weights of the drift <Theta> psi - Theta psi of
        the unit-norm columns of a (D, N) block, which ``dynamics._sle_block_step``
        applies: Theta's coefficients c_k over ``drift_ops``, then <Theta> =
        sum_k c_k <O_k>, read from one contraction of the stack of |psi><psi|.
        Thermalization's c is 1: the floored log of |psi><psi| annihilates psi
        and has zero expectation in it, so only gamma_h beta H drifts a pure
        state (the log path agrees to about 1e-14 max(gamma_h, 1))."""
        n, cols = self._expect.shape[1], psi_block.shape[1]
        rho = (psi_block[:, None] * psi_block.conj()[None]).reshape(-1, cols)
        e = (self._drift_expect @ rho).real  # e and <O_k>, one row each
        w = np.empty((len(self._keep) + 1, cols))
        if self.spec.family is ThetaFamily.CORR_SUPPRESS:  # the pairs' coefficients
            w[:-1] = _covariances(e[:n].T, self._split)[0].T
        elif self.spec.family is ThetaFamily.THERMALIZATION:
            w[:-1] = 1.0
        else:
            w[:-1] = self.coefficients(e[:n].T)[:, self._keep].T
        np.vecdot(w[:-1], e[n:], axis=0, out=w[-1])
        return w


def build_theta(
    state: QuantumState,
    spec: DisentanglementSpec,
    h: np.ndarray | None = None,
    floor: float = DEFAULT_LOG_FLOOR,
) -> ThetaOperator | None:
    """Theta of a state for a spec (``ThetaEngine.matrix``), None when inactive."""
    if not spec.active:
        return None
    return ThetaOperator(ThetaEngine(spec, state.factor, h=h, floor=floor).matrix(state.density()))


def measures_from_bloch(b: np.ndarray, floor: float = DEFAULT_LOG_FLOOR) -> MeasureReport:
    """Scalar measures of each Bloch matrix of a (..., d_a^2, d_b^2) stack; the
    report's fields are arrays of shape (...).

    The one measure kernel: ``measure_report``, ``entanglement_k``,
    ``entanglement_l`` and both integrators' sample points call it.
    K and L take the floored log of the unnormalized G = Tr_b rho
    (``bases.reduced_state_a``) and alpha = B B^T / 2; delta extends the
    pure-state 4 |psi1 psi4 - psi2 psi3|^2 to mixed states as 4 det G, clipped
    to [0, 1]; tau is ``tau_from_bloch``; and the purity Tr rho^2 is
    ||B||^2 / 2, since Tr(G_i G_j) / 2 = delta_ij.
    """
    g = bases.reduced_state_a(b)
    k_ent, l_ent = (-(np.maximum(w, 0.0) * floored_log(w, floor)).sum(axis=-1)
                    for w in (np.linalg.eigvalsh(g), np.linalg.eigvalsh(0.5 * (b @ b.mT))))
    return MeasureReport(
        k_entropy=k_ent,
        l_entropy=l_ent,
        delta=np.clip(4.0 * np.linalg.det(g).real, 0.0, 1.0),
        tau_ab=tau_from_bloch(b),
        purity=0.5 * (b * b).sum(axis=(-2, -1)),
    )


def measure_report(state: QuantumState, floor: float = DEFAULT_LOG_FLOOR) -> MeasureReport:
    """All scalar measures of a bipartite state: the measure kernel on its B."""
    rep = measures_from_bloch(bases.bloch_matrix(state), floor)
    return MeasureReport(**{f: float(v) for f, v in vars(rep).items()})
