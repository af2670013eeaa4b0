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
  Pauli matrices of the two spins; <Q_ab> = tau_ab in [0, 1] vanishes
  exactly on product states.
* ``thermalization`` -- gamma_h * beta * (H + log(rho)/beta), the free-energy
  operator; included for completeness, it is not a disentangler.

All operators vanish (act as a multiple of the identity) on product states,
except thermalization; that no-op property is what makes the nonlinear
dynamics leave uncorrelated physics untouched.

Each kernel has one implementation.  Each Theta family is written once, in
``ThetaEngine``, as ``coefficients(e) @ ops`` over expectations e of the state
(B itself, B's covariances, or, for thermalization, rho's own entries).
``matrix`` serves ``build_theta``, ``grid`` the master equation (on x = B(rho)
or a stack of them), ``drift`` the weights the stochastic step applies Theta
with, read from a stack of |psi><psi|.  ``measures_from_bloch``
computes every measure of a stack of Bloch matrices for the single-state
functions and both integrators' sample points; K, delta and Q_S read the
reduced state off B (``bases.reduced_state_a``).  B comes from one contraction,
``bases._contract``; tau and Q_ab read the expectations <l_a>, <l_b> and
<l_a (x) l_b> from B through one cached, read-only map S (``_covariance_map``),
so the measures, the sweep and Theta share B.  The products of one state's
Theta (B B^T, log(alpha) B, x S and the reduced state's contractions) and
the drift's contraction go through ``np.dot``, the BLAS call of ``@`` with
its bits, without matmul's gufunc dispatch; stacks keep ``@``.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bases
from .qcore import (
    DEFAULT_LOG_FLOOR,
    DimensionError,
    QuantumState,
    as_complex_matrix,
    eig_log,
    eigh,
    expectation,
    floored_log,
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


def state_matrix(psi) -> np.ndarray:
    """Reshape a state vector of the pair into its 2 x 2 state matrix."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size != 4:
        raise DimensionError(f"a spin-pair state vector has 4 amplitudes, got {v.size}")
    return v.reshape(2, 2)


def g_from_state(state: QuantumState) -> np.ndarray:
    """Gram matrix of a general state: the subsystem-a reduction of rho."""
    return bases.reduced_state_a(bases.bloch_matrix(state))


def entanglement_k(state: QuantumState) -> float:
    """Entanglement entropy K = -Tr(G log G) in nats (bounded by log 2)."""
    return float(measures_from_bloch(bases.bloch_matrix(state)).k_entropy)


def entanglement_l(state: QuantumState, floor: float = DEFAULT_LOG_FLOOR) -> float:
    """Bloch-matrix entanglement L = -Tr(alpha log alpha), alpha = B B^T / 2.

    Unlike the spectral entropy, alpha is not renormalized by its trace
    (Tr alpha = Tr rho^2 < 1 for mixed states).  For pure states L = 2 K.
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
def _covariance_map() -> np.ndarray:
    """Read-only real S, shape (16, 3 + 3 + 9), with x @ S =
    (<l_a>, <l_b>, <l_a (x) l_b>) for x = B(rho) flattened:
    <l_a> = sqrt(2) B[a, 0], <l_b> = sqrt(2) B[0, b] and
    <l_a (x) l_b> = sqrt(2) B[a, b] for a, b >= 1."""
    flat = np.arange(16).reshape(4, 4)
    keep = np.concatenate([flat[1:, 0], flat[0, 1:], flat[1:, 1:].ravel()])
    s = np.sqrt(2.0) * np.eye(16)[:, keep]
    s.setflags(write=False)
    return s


def _covariances(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(<l_a l_b> - <l_a><l_b>, <l_a><l_b>), shape (..., 9) each, from the
    expectations e (..., 15) = x @ S (``_covariance_map``)."""
    ab = (e[..., :3, None] * e[..., None, 3:6]).reshape(e.shape[:-1] + (9,))
    return e[..., 6:] - ab, ab


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
    """tau_ab of each Bloch matrix of a (..., 4, 4) stack, shape (...):
    ETA_TWO_QUBITS times the summed squared covariances <l_a l_b> - <l_a><l_b>."""
    cov = _covariances(b.reshape(*b.shape[:-2], -1) @ _covariance_map())[0]
    return ETA_TWO_QUBITS * (cov * cov).sum(axis=-1)


def tau_correlation(state: QuantumState) -> float:
    """Correlation parameter tau_ab = ETA_TWO_QUBITS * sum of squared covariances."""
    return float(tau_from_bloch(bases.bloch_matrix(state)))


def weyl_t2_expectation(state: QuantumState) -> float:
    """Expectation of the Weyl T2 operator, equal to Tr((S^dag S)^2).

    Assembled as the quadruple Weyl-pair sum over products of rho; this is
    the state-vector route to the purity of the S matrix and requires a pure
    state.
    """
    if not state.is_pure:
        raise ValueError("T2 expectation is defined for pure states")
    w = bases.weyl_ops().reshape(4, 2, 2)
    pair = np.einsum("iac,jbd->ijabcd", w, w).reshape((4,) * 4)  # pair[i, j] = w_i (x) w_j
    rho, psi = state.density(), state.psi
    # <psi| sum_{q1..q4} P[q2,q1]^dag rho P[q2,q3] rho P[q4,q3]^dag rho P[q4,q1] |psi> / 2^4
    val = np.einsum("a,ijca,cd,ikde,ef,lkgf,gh,ljhb,b->", psi.conj(), pair.conj(), rho, pair,
                    rho, pair.conj(), rho, pair, psi, optimize=True) / 16.0
    return float(val.real)


# ---------------------------------------------------------------------------
# Shared engine used by the integrators.


def _varying_rows(ops: np.ndarray) -> slice:
    """The rows of a (K, 16) operator stack that are not multiples of I: one
    run in every family, so that kept coefficients are a view."""
    keep = np.flatnonzero((ops != ops[:, :1] * np.eye(4).ravel()).any(axis=1))
    return slice(keep[0], keep[-1] + 1) if keep.size else slice(0)


class ThetaEngine:
    """Theta of a fixed family/rate: from density matrices (``matrix``), in grid
    form for the master equation (``grid``) and as the weights of the drift
    (<Theta> - Theta)|psi> of a (4, N) block of state vectors (``drift``).

    Every family is ``coefficients(e) @ ops`` over a rate-scaled operator
    stack, e = x = B(rho) (the deranking families), x @ S (corr-suppress,
    ``_covariance_map``) or (Re rho, Im rho) entry by entry (thermalization,
    over gamma_h G / 2), which ``matrix`` reads from rho through one
    expectation matrix.  ``grid`` runs over ``ops`` but the multiples of I,
    which cancel in the master equation, and ``drift`` over ``drift_ops``:
    the same operators, but gamma_h beta H alone for thermalization."""

    def __init__(
        self,
        spec: DisentanglementSpec,
        h: np.ndarray | None = None,
        floor: float = DEFAULT_LOG_FLOOR,
    ):
        self.spec = spec
        self.floor = floor
        self.h = None if h is None else as_complex_matrix(h)
        fam = spec.family
        if fam is ThetaFamily.NONE:
            raise ValueError("family 'none' has no Theta")
        if fam is ThetaFamily.THERMALIZATION and self.h is None:
            raise ValueError("thermalization needs the Hamiltonian")
        grid = self._grid = bases.observable_grid()
        # e's expectation matrix, held so that no call looks it up, and the
        # map x -> e of ``grid`` (None: e = x)
        self._expect, self._s, self._to_e = grid.expect, None, None
        if fam is ThetaFamily.CORR_SUPPRESS:
            s = self._s = _covariance_map()
            self._expect = grid.expect @ s
            self._to_e = lambda x: np.dot(x, s) if x.ndim == 1 else x @ s
            # l_a (x) l_b = sqrt(2) G[a, b] for a, b >= 1
            pairs = np.sqrt(2.0) * grid.entries[1:, 1:].reshape(-1, 16)
            self.ops = spec.gamma_d * ETA_TWO_QUBITS * np.vstack([pairs, -np.eye(4).ravel()])
        elif fam is ThetaFamily.STATE_MATRIX_DERANK:
            # -gamma_d (P_a / 2) (x) I_b over the one-spin grid
            # P = (I, sigma_x, sigma_y, sigma_z)
            self._single = bases.spin_grid()
            half = self._single.half.reshape(-1, 2, 2)
            self.ops = -spec.gamma_d * np.kron(half, np.eye(2)).reshape(len(half), -1)
        elif fam in (ThetaFamily.BLOCH_DERANK_A, ThetaFamily.BLOCH_DERANK_B):
            self.ops = -0.5 * spec.gamma_d * grid.entries.reshape(16, -1)
        else:  # thermalization
            # e = (Re rho, Im rho) entry by entry: exact from rho (a unit or -i
            # per column) and from x (one real dot per entry, not a gemv or
            # gemm, whose last bits the log of rho would magnify)
            self._expect = np.kron(np.eye(16), [1.0, -1j])
            half = grid.half.view(float)
            self._to_e = lambda x: np.vecdot(x[..., None], half, axis=-2)
            # B(A)_k = Tr(A G_k), read the same way: one real dot per entry
            self._g = grid.entries.reshape(16, -1).view(float)
            self._beta_h = spec.beta * np.vecdot(self.h.reshape(1, -1).view(float), self._g)
            self.ops = spec.gamma_h * grid.half
        self._keep = _varying_rows(self.ops)
        drift, drift_e = self.ops[self._keep], self._expect
        if fam is ThetaFamily.THERMALIZATION:
            # gamma_h beta H alone drifts a pure state (``drift``), with
            # weights that read no e; x's 16 rows keep the contraction's
            # shape, and with it the bits of <H>
            drift = (spec.gamma_h * spec.beta * self.h).reshape(1, -1)
            drift, drift_e = drift[_varying_rows(drift)], grid.expect
        self.drift_ops = drift.reshape(-1, 4, 4)
        # rows of e and of each <O_k> = Tr(rho O_k) (O_k Hermitian) for rho.ravel()
        self._drift_expect = np.vstack([drift_e.T, drift.conj()])

    def coefficients(self, e: np.ndarray) -> np.ndarray:
        """Theta's coefficients over ``ops`` from the expectations e (..., n) of
        each state: the covariances and <l_a><l_b> . cov (corr-suppress),
        beta B(H) + B(log rho) (thermalization), the coefficients over P of
        log(G), G = Tr_b rho (state-matrix-derank), or log(alpha) B, alpha =
        B B^T/2, which equals B log(B^T B/2) (Bloch).  One state's products go
        through ``np.dot`` (matmul's BLAS call and bits, without its gufunc
        dispatch); a stack's through ``np.matmul``."""
        if self.spec.family is ThetaFamily.CORR_SUPPRESS:
            cov, ab = _covariances(e)
            return np.concatenate([cov, np.vecdot(cov, ab)[..., None]], axis=-1)
        if self.spec.family is ThetaFamily.THERMALIZATION:
            # (``matrix`` passes the strided real part of a complex contraction)
            rho = np.ascontiguousarray(e).view(complex).reshape(e.shape[:-1] + (4, 4))
            log = eig_log(*eigh(rho), self.floor).reshape(e.shape[:-1] + (1, 16))
            c = np.vecdot(log.view(float), self._g)
            c += self._beta_h
            return c
        b = e.reshape(e.shape[:-1] + (4, 4))
        if self.spec.family is ThetaFamily.STATE_MATRIX_DERANK:
            log_g = eig_log(*eigh(bases.reduced_state_a(b)), self.floor)
            return bases._contract(log_g, self._single.expect).real
        mm = np.dot if e.ndim == 1 else np.matmul
        a = mm(b, b.mT)
        a *= 0.5
        return mm(eig_log(*eigh(a), self.floor), b).reshape(e.shape)

    def matrix(self, rho: np.ndarray) -> np.ndarray:
        """Full Theta matrix (rate included) for a density matrix, or for each
        matrix of a (..., 4, 4) stack (``build_theta``)."""
        e = bases._contract(rho, self._expect).real
        return (self.coefficients(e) @ self.ops).reshape(rho.shape)

    def grid(self) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
        """Theta but its multiple of I (which cancels in the master equation) in
        grid coordinates: (x -> c, table), with B({Theta', rho}) =
        (c @ table).reshape(n, n) @ x; table's rows are the anticommutator
        tensors of the operators that are not multiples of I, and c their
        coefficients.  c takes x or a (..., n) stack, with bits that do not
        depend on its size."""
        grid = self._grid
        kept = bases._contract(self.ops[self._keep].reshape(-1, 4, 4), grid.expect).real
        table = kept @ grid.anticommutator.reshape(len(grid.half), -1)
        if self._to_e is None:
            return self._kept, table
        to_e, coeff = self._to_e, self._kept
        return (lambda x: coeff(to_e(x))), table

    def _kept(self, e: np.ndarray) -> np.ndarray:
        """Theta's coefficients over the operators that are not multiples of I
        from the expectations e (..., n): corr-suppress's covariances of the
        pairs, or ``coefficients`` less the one of G_00 or P_0 = I."""
        if self._s is not None:
            return _covariances(e)[0]
        c = self.coefficients(e)
        return c[self._keep] if c.ndim == 1 else c[..., self._keep]

    def drift(self, psi_block: np.ndarray) -> np.ndarray:
        """The real (K + 1, N) weights of the drift <Theta> psi - Theta psi of
        the unit-norm columns of a (4, N) block, which ``dynamics._sle_block_step``
        applies: Theta's coefficients c_k over ``drift_ops``, then <Theta> =
        sum_k c_k <O_k>, read from one contraction of the stack of |psi><psi|.
        Thermalization's c is 1: the floored log of |psi><psi| annihilates psi
        and has zero expectation in it, so only gamma_h beta H drifts a pure
        state (the log path agrees to about 1e-14 max(gamma_h, 1))."""
        n, cols = len(self._drift_expect) - len(self.drift_ops), psi_block.shape[1]
        rho = (psi_block[:, None] * psi_block.conj()[None]).reshape(-1, cols)
        e = np.dot(self._drift_expect, rho).real  # e and <O_k>, one row each
        w = np.empty((len(self.drift_ops) + 1, cols))
        w[:-1] = 1.0 if self.spec.family is ThetaFamily.THERMALIZATION else self._kept(e[:n].T).T
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
    return ThetaOperator(ThetaEngine(spec, h=h, floor=floor).matrix(state.density()))


def measures_from_bloch(b: np.ndarray, floor: float = DEFAULT_LOG_FLOOR) -> MeasureReport:
    """Scalar measures of each Bloch matrix of a (..., 4, 4) stack; the
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
    """All scalar measures of a state of the pair: the measure kernel on its B."""
    rep = measures_from_bloch(bases.bloch_matrix(state), floor)
    return MeasureReport(**{f: float(v) for f, v in vars(rep).items()})
