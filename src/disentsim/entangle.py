"""Entanglement measures and the nonlinear operators that suppress them.

Four operator families can be inserted into the modified Schrodinger /
master equations:

* ``state-matrix-derank``  -- Q_S, built from the log of the subsystem Gram
  matrix G = M M^dag (pure states) or the reduced density matrix (general
  states); <Q_S> equals the entanglement entropy K.
* ``bloch-derank-a`` / ``bloch-derank-b`` -- Q_a / Q_b, built from the log of
  the Bloch Gram matrices alpha = B B^T/2 and beta = B^T B/2; both have
  expectation L, the Bloch-matrix entanglement measure.
* ``corr-suppress`` -- Q_ab, the covariance-squared functional over the
  subsystem Gell-Mann bases; <Q_ab> = tau_ab in [0, 1] vanishes exactly on
  product states.
* ``thermalization`` -- gamma_h * beta * (H + log(rho)/beta), the free-energy
  operator; included for completeness, it is not a disentangler.

All operators vanish (act as a multiple of the identity) on product states,
except thermalization; that no-op property is what makes the nonlinear
dynamics leave uncorrelated physics untouched.

``ThetaEngine`` is the shared implementation: it precomputes the operator
stacks for a given factorization and evaluates either a full operator matrix
for the density-matrix path or a batched state-vector drift for stochastic
ensembles.
"""

from __future__ import annotations

import enum
import math
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
    entropy_functional,
    expectation,
    kron,
    partial_trace_rho,
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
    """A concrete nonlinear-drive operator: Hermitian matrix plus bookkeeping."""

    matrix: np.ndarray
    family: ThetaFamily
    rate: float = 1.0

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
    """Scalar health/entanglement summary of a state."""

    k_entropy: float
    l_entropy: float
    delta: float
    tau_ab: float
    purity: float


# ---------------------------------------------------------------------------
# State matrix, Gram matrix, and scalar measures.


def state_matrix(psi, factor: Factorization) -> np.ndarray:
    """Reshape a bipartite state vector into its d_a x d_b state matrix."""
    if factor.d_c != 1:
        raise DimensionError("state matrix needs a trivial spectator slot")
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size != factor.d_a * factor.d_b:
        raise DimensionError(
            f"state vector length {v.size} != {factor.d_a} * {factor.d_b}"
        )
    return v.reshape(factor.d_a, factor.d_b)


def g_matrix(m: np.ndarray) -> np.ndarray:
    """Gram matrix G = M M^dag of a state matrix; PSD with Tr G = |psi|^2."""
    m = as_complex_matrix(m)
    return m @ m.conj().T


def g_from_state(state: QuantumState) -> np.ndarray:
    """Gram matrix of a general state: the subsystem-a reduction of rho."""
    return partial_trace_rho(state.density(), state.factor, "a")


def entanglement_k(state: QuantumState) -> float:
    """Entanglement entropy K = -Tr(G log G) in nats (bounded by log min(d))."""
    if state.factor.d_c != 1:
        raise DimensionError("entanglement K needs a trivial spectator slot")
    return entropy_functional(g_from_state(state))


def _neg_x_log_x(w: np.ndarray, floor: float) -> float:
    wmax = float(np.max(w)) if w.size else 0.0
    cut = floor * (wmax if wmax > 0.0 else 1.0)
    wp = np.maximum(w, 0.0)
    return float(-(wp * np.log(np.maximum(wp, cut))).sum())


def entanglement_l(state: QuantumState, floor: float = DEFAULT_LOG_FLOOR) -> float:
    """Bloch-matrix entanglement L = -Tr(alpha log alpha), alpha = B B^T / 2.

    Unlike the spectral entropy, alpha is not renormalized by its trace
    (Tr alpha = Tr rho^2 < 1 for mixed states).  For pure states with equal
    subsystem dimensions, L = 2 K.
    """
    b = bases.bloch_matrix(state).values
    alpha = 0.5 * (b @ b.T)
    w = np.linalg.eigvalsh(alpha)
    return _neg_x_log_x(w, floor)


def delta_measure(psi) -> float:
    """Two-qubit pure-state entanglement parameter delta = 4 |psi1 psi4 - psi2 psi3|^2."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size != 4:
        raise DimensionError("delta is defined for two-qubit state vectors")
    return float(4.0 * abs(v[0] * v[3] - v[1] * v[2]) ** 2)


def delta_from_gram(g: np.ndarray) -> float:
    """Mixed-state extension of delta via 4 det(G); matches delta on pure states."""
    d = float(np.linalg.det(as_complex_matrix(g)).real)
    return float(min(max(4.0 * d, 0.0), 1.0))


# ---------------------------------------------------------------------------
# Operator-stack context shared by the Theta constructors.


@dataclass(frozen=True)
class _OperatorStacks:
    factor: Factorization
    lam_a_full: np.ndarray  # (n_a, D, D) subsystem-a generators embedded in full space
    lam_b_full: np.ndarray
    lam_ab_full: np.ndarray  # (n_a * n_b, D, D) pair products embedded in full space
    grid: np.ndarray | None  # (d_a^2, d_b^2, D, D), only when d_c == 1


@lru_cache(maxsize=None)
def _stacks(factor: Factorization) -> _OperatorStacks:
    da, db, dc = factor.d_a, factor.d_b, factor.d_c
    ia, ib, ic = np.eye(da), np.eye(db), np.eye(dc)
    lam_a = bases.gell_mann(da).matrices
    lam_b = bases.gell_mann(db).matrices
    la = np.stack([kron(kron(x, ib), ic) for x in lam_a])
    lb = np.stack([kron(kron(ia, x), ic) for x in lam_b])
    lab = np.stack([kron(kron(x, y), ic) for x in lam_a for y in lam_b])
    grid = None
    if dc == 1:
        grid = bases.observable_grid(da, db).entries
    return _OperatorStacks(factor=factor, lam_a_full=la, lam_b_full=lb,
                           lam_ab_full=lab, grid=grid)


# ---------------------------------------------------------------------------
# Theta constructors: unit-rate operators from the integrators' kernel.


def _engine_operator(state: QuantumState, family: ThetaFamily, **engine_kw) -> ThetaOperator:
    spec = DisentanglementSpec(family=family, gamma_d=1.0)
    mat = ThetaEngine(spec, state.factor, **engine_kw).matrix(state.density())
    return ThetaOperator(matrix=mat, family=family)


def q_s_operator(state: QuantumState, floor: float = DEFAULT_LOG_FLOOR) -> ThetaOperator:
    """State-matrix deranking operator Q_S = -log(G) (x) I_b, G the subsystem-a
    Gram matrix (the sum of the subsystem embeddings of -log G); <Q_S> = K."""
    return _engine_operator(state, ThetaFamily.STATE_MATRIX_DERANK, floor=floor)


def q_bloch_operators(
    state: QuantumState, floor: float = DEFAULT_LOG_FLOOR
) -> tuple[ThetaOperator, ThetaOperator]:
    """Bloch deranking operators (Q_a, Q_b) with <Q_a> = <Q_b> = L.

    Q_a = -(1/2) sum_ab (log(alpha) B)_ab G_ab with alpha = B B^T/2, and
    symmetrically for Q_b with beta = B^T B/2.
    """
    return (_engine_operator(state, ThetaFamily.BLOCH_DERANK_A, floor=floor),
            _engine_operator(state, ThetaFamily.BLOCH_DERANK_B, floor=floor))


def correlation_operator(
    state: QuantumState, eta: float = ETA_TWO_QUBITS
) -> ThetaOperator:
    """Correlation-suppression operator Q_ab.

    Built from the operator-valued covariance grid C(l_a, l_b) =
    l_a (x) l_b (x) I_c - <l_a><l_b> I (the scalar term multiplies the full
    identity) contracted with its own expectation values; <Q_ab> = tau_ab.
    """
    return _engine_operator(state, ThetaFamily.CORR_SUPPRESS, eta=eta)


def tau_from_rho(rho: np.ndarray, factor: Factorization,
                 eta: float = ETA_TWO_QUBITS) -> np.ndarray:
    """tau_ab of each density matrix of a (..., D, D) stack, shape (...): eta
    times the summed squared covariances <l_a l_b> - <l_a><l_b>."""
    st = _stacks(factor)
    rho = np.asarray(rho, dtype=complex)
    a = np.einsum("kij,...ji->...k", st.lam_a_full, rho).real
    b = np.einsum("kij,...ji->...k", st.lam_b_full, rho).real
    m = np.einsum("kij,...ji->...k", st.lam_ab_full, rho).real
    cov = m - (a[..., :, None] * b[..., None, :]).reshape(m.shape)
    return eta * (cov * cov).sum(axis=-1)


def tau_correlation(state: QuantumState, eta: float = ETA_TWO_QUBITS) -> float:
    """Correlation parameter tau_ab = eta * sum of squared covariances."""
    return float(tau_from_rho(state.density(), state.factor, eta))


def thermalization_operator(
    state: QuantumState,
    h: np.ndarray,
    gamma_h: float,
    beta: float,
    floor: float = DEFAULT_LOG_FLOOR,
) -> ThetaOperator:
    """Free-energy drive gamma_h * beta * (H + log(rho)/beta).

    Gibbs states of H at inverse temperature beta turn this into a multiple
    of the identity, which the nonlinear equations ignore, so thermal
    equilibrium is a fixed point.
    """
    rho = state.density()
    mat = gamma_h * beta * as_complex_matrix(h) + gamma_h * spectral_log(rho, floor)
    return ThetaOperator(matrix=mat, family=ThetaFamily.THERMALIZATION, rate=gamma_h)


def weyl_t2_expectation(state: QuantumState) -> float:
    """Expectation of the Weyl T2 operator, equal to Tr((S^dag S)^2).

    Assembled as the quadruple Weyl-pair sum over products of rho; this is
    the state-vector route to the purity of the S matrix and requires a pure
    state with d_a = d_b.
    """
    if not state.is_pure:
        raise ValueError("T2 expectation is defined for pure states")
    if state.factor.d_a != state.factor.d_b or state.factor.d_c != 1:
        raise DimensionError("T2 needs equal subsystem dimensions and d_c = 1")
    d = state.factor.d_a
    rho = state.density()
    w = bases.weyl_ops(d).reshape(d * d, d, d)
    pair = np.empty((d * d, d * d, d * d, d * d), dtype=complex)
    for i in range(d * d):
        for j in range(d * d):
            pair[i, j] = kron(w[i], w[j])
    acc = np.zeros_like(rho)
    for q2 in range(d * d):
        for q1 in range(d * d):
            left = pair[q2, q1].conj().T @ rho
            for q3 in range(d * d):
                mid = left @ pair[q2, q3] @ rho
                for q4 in range(d * d):
                    acc += mid @ pair[q4, q3].conj().T @ rho @ pair[q4, q1]
    t2 = acc / float(d ** 4)
    val = complex(np.vdot(state.psi, t2 @ state.psi))
    return float(val.real)


# ---------------------------------------------------------------------------
# Shared engine used by the integrators.

_BLOCH_FAMILIES = (ThetaFamily.BLOCH_DERANK_A, ThetaFamily.BLOCH_DERANK_B)


class ThetaEngine:
    """Builds Theta for a fixed family/rate, either as a matrix from rho or
    as a batched modified-Schrodinger drift -(Theta - <Theta>)|psi> applied
    to a (D, N) block of state-vector columns."""

    def __init__(
        self,
        spec: DisentanglementSpec,
        factor: Factorization,
        h: np.ndarray | None = None,
        floor: float = DEFAULT_LOG_FLOOR,
        eta: float = ETA_TWO_QUBITS,
    ):
        self.spec = spec
        self.factor = factor
        self.floor = floor
        self.eta = eta
        self.h = None if h is None else as_complex_matrix(h)
        self.stacks = _stacks(factor)
        if spec.family is ThetaFamily.THERMALIZATION and self.h is None:
            raise ValueError("thermalization needs the Hamiltonian")
        if factor.d_c != 1 and spec.family in (*_BLOCH_FAMILIES,
                                               ThetaFamily.STATE_MATRIX_DERANK):
            raise DimensionError(f"{spec.family.value} needs a trivial spectator slot")
        # Flattened, rate-scaled stacks for ``matrix``: rho.ravel() @ _expect
        # gives every expectation it needs in one matmul, and a coefficient
        # vector @ _pairs contracts back to the flattened Theta.
        st = self.stacks
        if spec.family is ThetaFamily.CORR_SUPPRESS:
            gens = np.concatenate([st.lam_a_full, st.lam_b_full, st.lam_ab_full])
            rate = spec.gamma_d * eta
            self._split = (len(st.lam_a_full), len(st.lam_a_full) + len(st.lam_b_full))
            self._pairs = rate * st.lam_ab_full.reshape(len(st.lam_ab_full), -1)
            self._eye = rate * np.eye(factor.dim).reshape(-1)
        elif spec.family in _BLOCH_FAMILIES:
            gens = st.grid.reshape(-1, factor.dim, factor.dim)
            self._bshape = st.grid.shape[:2]
            self._pairs = -0.5 * spec.gamma_d * gens.reshape(len(gens), -1)
        else:
            gens = None
        if gens is not None:
            self._expect = np.ascontiguousarray(gens.transpose(2, 1, 0).reshape(-1, len(gens)))

    @property
    def active(self) -> bool:
        return self.spec.active

    # -- density-matrix side -------------------------------------------------

    def matrix(self, rho: np.ndarray) -> np.ndarray:
        """Full Theta matrix (rate included) for the given density matrix.

        The flattened kernel every integrator stage calls and the public
        constructors wrap; tests compare it with literal Pauli-product forms.
        """
        fam = self.spec.family
        if fam is ThetaFamily.CORR_SUPPRESS:
            e = (rho.reshape(-1) @ self._expect).real
            i, j = self._split
            ab = (e[:i, None] * e[i:j]).reshape(-1)
            cov = e[j:] - ab
            return (cov @ self._pairs - (cov @ ab) * self._eye).reshape(rho.shape)
        if fam in _BLOCH_FAMILIES:
            b = (rho.reshape(-1) @ self._expect).real.reshape(self._bshape)
            if fam is ThetaFamily.BLOCH_DERANK_A:
                w = self._sym_log(b @ b.T / 2.0) @ b
            else:
                w = b @ self._sym_log(b.T @ b / 2.0)
            return (w.reshape(-1) @ self._pairs).reshape(rho.shape)
        if fam is ThetaFamily.STATE_MATRIX_DERANK:
            log_g = spectral_log(partial_trace_rho(rho, self.factor, "a"), self.floor)
            return -self.spec.gamma_d * kron(log_g, np.eye(self.factor.d_b))
        if fam is ThetaFamily.THERMALIZATION:
            return (self.spec.gamma_h * self.spec.beta * self.h
                    + self.spec.gamma_h * spectral_log(rho, self.floor))
        raise ValueError(f"no Theta matrix for family {fam}")

    def _sym_log(self, mat: np.ndarray) -> np.ndarray:
        w, v = np.linalg.eigh(mat)
        wmax = max(float(w[-1]), 0.0)
        cut = self.floor * (wmax if wmax > 0.0 else 1.0)
        return (v * np.log(np.maximum(w, cut))) @ v.T

    # -- state-vector side ---------------------------------------------------

    def drift(self, psi_block: np.ndarray) -> np.ndarray:
        """Batched drift -(Theta - <Theta>) psi for unit-norm columns."""
        fam = self.spec.family
        if fam is ThetaFamily.CORR_SUPPRESS:
            return self._drift_corr(psi_block)
        if fam is ThetaFamily.BLOCH_DERANK_A:
            return self._drift_bloch(psi_block, side="a")
        if fam is ThetaFamily.BLOCH_DERANK_B:
            return self._drift_bloch(psi_block, side="b")
        if fam is ThetaFamily.STATE_MATRIX_DERANK:
            return self._drift_state_matrix(psi_block)
        if fam is ThetaFamily.THERMALIZATION:
            return self._drift_thermal(psi_block)
        raise ValueError(f"no drift for family {fam}")

    def _drift_corr(self, psi: np.ndarray) -> np.ndarray:
        st = self.stacks
        c = psi.conj()
        a = np.einsum("kij,jn,in->kn", st.lam_a_full, psi, c).real
        b = np.einsum("kij,jn,in->kn", st.lam_b_full, psi, c).real
        m = np.einsum("kij,jn,in->kn", st.lam_ab_full, psi, c).real
        na, nb = a.shape[0], b.shape[0]
        ab = (a[:, None, :] * b[None, :, :]).reshape(na * nb, -1)
        cov = m - ab
        qpsi = np.einsum("kn,kij,jn->in", cov, st.lam_ab_full, psi)
        scalar = (cov * ab).sum(axis=0)
        tau = (cov * cov).sum(axis=0)
        gd = self.spec.gamma_d * self.eta
        return -gd * (qpsi - scalar * psi - tau * psi)

    def _batched_log(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigen-log of a (N, d, d) stack of symmetric PSD matrices."""
        w, v = np.linalg.eigh(mats)
        wmax = np.maximum(w[..., -1], 0.0)
        cut = self.floor * np.where(wmax > 0.0, wmax, 1.0)
        lw = np.log(np.maximum(w, cut[..., None]))
        log_m = np.einsum("nab,nb,ncb->nac", v, lw, v.conj())
        return log_m, w

    def _drift_bloch(self, psi: np.ndarray, side: str) -> np.ndarray:
        grid = self.stacks.grid
        c = psi.conj()
        b = np.einsum("abij,jn,in->abn", grid, psi, c).real
        if side == "a":
            gram = np.einsum("abn,cbn->nac", b, b) / 2.0
            log_g, _ = self._batched_log(gram)
            w = np.einsum("nac,cbn->abn", log_g, b)
        else:
            gram = np.einsum("ban,bcn->nac", b, b) / 2.0
            log_g, _ = self._batched_log(gram)
            w = np.einsum("acn,ncb->abn", b, log_g)
        qpsi = -0.5 * np.einsum("abn,abij,jn->in", w, grid, psi)
        qexp = -0.5 * np.einsum("abn,abn->n", w, b)
        return -self.spec.gamma_d * (qpsi - qexp * psi)

    def _drift_state_matrix(self, psi: np.ndarray) -> np.ndarray:
        f = self.factor
        m = psi.reshape(f.d_a, f.d_b, -1)
        gram = np.einsum("abn,cbn->nac", m, m.conj())
        log_g, _ = self._batched_log(gram)
        qpsi = -np.einsum("nac,cbn->abn", log_g, m).reshape(f.dim, -1)
        qexp = -np.einsum("nac,nca->n", gram, log_g).real
        return -self.spec.gamma_d * (qpsi - qexp * psi)

    def _drift_thermal(self, psi: np.ndarray) -> np.ndarray:
        # log(|psi><psi|) annihilates psi itself and has zero expectation in
        # it, so only the Hamiltonian part of the free energy drifts a pure
        # state.
        hpsi = self.h @ psi
        hexp = np.einsum("in,in->n", psi.conj(), hpsi).real
        return -self.spec.gamma_h * self.spec.beta * (hpsi - hexp * psi)


def build_theta(
    state: QuantumState,
    spec: DisentanglementSpec,
    h: np.ndarray | None = None,
    floor: float = DEFAULT_LOG_FLOOR,
) -> ThetaOperator | None:
    """Assemble the Theta operator a spec asks for, or None when inactive."""
    if not spec.active:
        return None
    engine = ThetaEngine(spec, state.factor, h=h, floor=floor)
    rate = spec.gamma_h if spec.family is ThetaFamily.THERMALIZATION else spec.gamma_d
    return ThetaOperator(matrix=engine.matrix(state.density()),
                         family=spec.family, rate=rate)


def measure_report(state: QuantumState, floor: float = DEFAULT_LOG_FLOOR) -> MeasureReport:
    """All scalar measures of a bipartite (d_c = 1) state in one pass."""
    rho = state.density()
    g = partial_trace_rho(rho, state.factor, "a")
    purity = float(np.einsum("ij,ji->", rho, rho).real)
    return MeasureReport(
        k_entropy=entropy_functional(g),
        l_entropy=entanglement_l(state, floor),
        delta=delta_from_gram(g),
        tau_ab=tau_correlation(state),
        purity=purity,
    )
