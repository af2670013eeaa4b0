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

Each kernel has one implementation.  Each Theta family is written once, in
``ThetaEngine``: ``matrix`` builds it from a (..., D, D) stack for the public
constructors and the stochastic drift (``matrix`` on the stack of
|psi><psi|), and ``grid`` reads the same formulas from the grid coordinates
x = B(rho) the master equation is integrated in.  ``measures_from_rho``
computes every measure of a stack of states for the single-state functions
and both integrators' sample points.  B comes from one contraction,
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
    return partial_trace_rho(state.density(), state.factor, "a")


def entanglement_k(state: QuantumState) -> float:
    """Entanglement entropy K = -Tr(G log G) in nats (bounded by log min(d))."""
    return float(measures_from_rho(state.density()[None], state.factor)[1].k_entropy[0])


def entanglement_l(state: QuantumState, floor: float = DEFAULT_LOG_FLOOR) -> float:
    """Bloch-matrix entanglement L = -Tr(alpha log alpha), alpha = B B^T / 2.

    Unlike the spectral entropy, alpha is not renormalized by its trace
    (Tr alpha = Tr rho^2 < 1 for mixed states).  For pure states with equal
    subsystem dimensions, L = 2 K.
    """
    return float(measures_from_rho(state.density()[None], state.factor, floor)[1].l_entropy[0])


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


def _engine_operator(state: QuantumState, spec: DisentanglementSpec, **engine_kw) -> ThetaOperator:
    return ThetaOperator(ThetaEngine(spec, state.factor, **engine_kw).matrix(state.density()))


def _unit_rate(family: ThetaFamily) -> DisentanglementSpec:
    return DisentanglementSpec(family=family, gamma_d=1.0)


def q_s_operator(state: QuantumState, floor: float = DEFAULT_LOG_FLOOR) -> ThetaOperator:
    """State-matrix deranking operator Q_S = -log(G) (x) I_b, G the subsystem-a
    Gram matrix (the sum of the subsystem embeddings of -log G); <Q_S> = K."""
    return _engine_operator(state, _unit_rate(ThetaFamily.STATE_MATRIX_DERANK), floor=floor)


def q_bloch_operators(
    state: QuantumState, floor: float = DEFAULT_LOG_FLOOR
) -> tuple[ThetaOperator, ThetaOperator]:
    """Bloch deranking operators (Q_a, Q_b) with <Q_a> = <Q_b> = L.

    Q_a = -(1/2) sum_ab (log(alpha) B)_ab G_ab with alpha = B B^T/2, and
    symmetrically for Q_b with beta = B^T B/2.
    """
    return (_engine_operator(state, _unit_rate(ThetaFamily.BLOCH_DERANK_A), floor=floor),
            _engine_operator(state, _unit_rate(ThetaFamily.BLOCH_DERANK_B), floor=floor))


def correlation_operator(state: QuantumState) -> ThetaOperator:
    """Correlation-suppression operator Q_ab.

    Built from the operator-valued covariance grid C(l_a, l_b) =
    l_a (x) l_b - <l_a><l_b> I contracted with its own expectation values;
    <Q_ab> = tau_ab.
    """
    return _engine_operator(state, _unit_rate(ThetaFamily.CORR_SUPPRESS))


def tau_from_bloch(b: np.ndarray) -> np.ndarray:
    """tau_ab of each Bloch matrix of a (..., d_a^2, d_b^2) stack, shape (...):
    ETA_TWO_QUBITS times the summed squared covariances <l_a l_b> - <l_a><l_b>."""
    s, split = _covariance_map(math.isqrt(b.shape[-2]), math.isqrt(b.shape[-1]))
    cov = _covariances(b.reshape(*b.shape[:-2], -1) @ s, split)[0]
    return ETA_TWO_QUBITS * (cov * cov).sum(axis=-1)


def tau_correlation(state: QuantumState) -> float:
    """Correlation parameter tau_ab = ETA_TWO_QUBITS * sum of squared covariances."""
    return float(tau_from_bloch(bases.bloch_matrix(state)))


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
    spec = DisentanglementSpec(family=ThetaFamily.THERMALIZATION, gamma_h=gamma_h, beta=beta)
    return _engine_operator(state, spec, h=h, floor=floor)


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
    """Builds Theta for a fixed family/rate from density matrices (``matrix``)
    or grid coordinates x = B(rho) (``grid``), and the batched drift
    -(Theta - <Theta>)|psi> of a (D, N) block of state-vector columns.

    corr-suppress and the Bloch families are ``coefficients(e) @ ops`` over
    a rate-scaled operator stack, with e = x = B(rho) (Bloch families) or
    e = x @ S (corr-suppress, ``_covariance_map``); ``matrix`` reads e from
    rho through the grid's expectation matrix (times S).  The log families
    build their matrix directly, and their grid coefficients are B(Theta) of
    the matrix built from (1/2) x . G."""

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
        if spec.family is ThetaFamily.THERMALIZATION and self.h is None:
            raise ValueError("thermalization needs the Hamiltonian")
        # e's expectation matrix (grid.expect, times S for corr-suppress), held
        # so that no call looks it up
        self._expect = self._s = None
        grid = bases.observable_grid(factor.d_a, factor.d_b)
        if spec.family is ThetaFamily.CORR_SUPPRESS:
            self._s, self._split = _covariance_map(factor.d_a, factor.d_b)
            self._expect = grid.expect @ self._s
            # l_a (x) l_b = sqrt(2) G[a, b] for a, b >= 1
            pairs = np.sqrt(2.0) * grid.entries[1:, 1:].reshape(-1, factor.dim ** 2)
            self.ops = spec.gamma_d * ETA_TWO_QUBITS * np.vstack([pairs,
                                                                  -np.eye(factor.dim).ravel()])
        elif spec.family in _BLOCH_FAMILIES:
            self._expect, self._shape = grid.expect, grid.entries.shape[:2]
            self.ops = -0.5 * spec.gamma_d * grid.entries.reshape(factor.dim ** 2, -1)

    def coefficients(self, e: np.ndarray) -> np.ndarray:
        """Theta's coefficients over ``ops`` from the expectations e (..., n) of
        each state: the covariances and <l_a><l_b> . cov (corr-suppress), or
        log(alpha) B or B log(beta) with alpha = B B^T/2, beta = B^T B/2."""
        if self.spec.family is ThetaFamily.CORR_SUPPRESS:
            cov, ab = _covariances(e, self._split)
            return np.concatenate([cov, np.vecdot(cov, ab)[..., None]], axis=-1)
        b = e.reshape(*e.shape[:-1], *self._shape)
        if self.spec.family is ThetaFamily.BLOCH_DERANK_A:
            w = eig_log(*np.linalg.eigh(b @ b.mT / 2.0), self.floor) @ b
        else:
            w = b @ eig_log(*np.linalg.eigh(b.mT @ b / 2.0), self.floor)
        return w.reshape(e.shape)

    def matrix(self, rho: np.ndarray) -> np.ndarray:
        """Full Theta matrix (rate included) for a density matrix, or for each
        matrix of a (..., D, D) stack.

        ``drift`` and the public constructors call it, and tests compare it
        with literal Pauli-product forms.
        """
        if self._expect is not None:
            e = bases._contract(rho, self._expect).real
            return (self.coefficients(e) @ self.ops).reshape(rho.shape)
        fam = self.spec.family
        if fam is ThetaFamily.STATE_MATRIX_DERANK:
            # -gamma_d log(G) (x) I_b in the (..., a, b, a', b') layout
            log_g = eig_log(*np.linalg.eigh(partial_trace_rho(rho, self.factor, "a")), self.floor)
            out = -self.spec.gamma_d * log_g[..., :, None, :, None] * np.eye(self.factor.d_b)[:, None]
            return out.reshape(rho.shape)
        if fam is ThetaFamily.THERMALIZATION:
            return (self.spec.gamma_h * self.spec.beta * self.h
                    + self.spec.gamma_h * spectral_log(rho, self.floor))
        raise ValueError(f"no Theta matrix for family {fam}")

    def grid(self) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
        """Theta in grid coordinates: (x -> c, table), where
        B({Theta, rho}) = (c @ table).reshape(n, n) @ x and the (len(c), n^2)
        table holds the anticommutator tensor of each operator c runs over."""
        grid = bases.observable_grid(self.factor.d_a, self.factor.d_b)
        dim, table = self.factor.dim, grid.anticommutator.reshape(len(grid.half), -1)
        if self._expect is None:
            return (lambda x: bases._contract(self.matrix((x @ grid.half).reshape(dim, dim)),
                                              grid.expect).real), table
        table = bases._contract(self.ops.reshape(-1, dim, dim), grid.expect).real @ table
        if self._s is None:  # the Bloch families: e is x itself
            return self.coefficients, table
        return (lambda x: self.coefficients(x @ self._s)), table

    def drift(self, psi_block: np.ndarray) -> np.ndarray:
        """Batched drift -(Theta - <Theta>) psi for the unit-norm columns of a
        (D, N) block: ``matrix`` on the stack of |psi><psi|.

        Thermalization uses the pure-state identity instead: the floored log
        of |psi><psi| annihilates psi and has zero expectation in it, so only
        gamma_h beta H drifts a pure state.  The log path agrees with it to
        about 1e-14 max(gamma_h, 1) but costs one eigendecomposition per column.
        """
        if self.spec.family is ThetaFamily.THERMALIZATION:
            qpsi = (self.spec.gamma_h * self.spec.beta * self.h) @ psi_block
        else:
            cols = psi_block.T
            tm = self.matrix(cols[:, :, None] * cols.conj()[:, None, :])
            qpsi = np.einsum("nij,jn->in", tm, psi_block)
        return np.einsum("in,in->n", psi_block.conj(), qpsi).real * psi_block - qpsi


def build_theta(
    state: QuantumState,
    spec: DisentanglementSpec,
    h: np.ndarray | None = None,
    floor: float = DEFAULT_LOG_FLOOR,
) -> ThetaOperator | None:
    """Assemble the Theta operator a spec asks for, or None when inactive."""
    if not spec.active:
        return None
    return _engine_operator(state, spec, h=h, floor=floor)


def measures_from_rho(rho: np.ndarray, factor: Factorization,
                      floor: float = DEFAULT_LOG_FLOOR) -> tuple[np.ndarray, MeasureReport]:
    """Bloch matrices and scalar measures of each density matrix of a
    (..., D, D) stack; the report's fields are arrays of shape (...).

    The one measure kernel: ``measure_report``, ``entanglement_k``,
    ``entanglement_l`` and both integrators' sample points call it, and its
    tau is ``tau_from_bloch`` of its B, as in ``tau_correlation``.
    K and L take the floored log of the unnormalized G (the subsystem-a
    reduction) and alpha = B B^T / 2; delta extends the pure-state
    4 |psi1 psi4 - psi2 psi3|^2 to mixed states as 4 det G, clipped to [0, 1].
    """
    rho = np.asarray(rho, dtype=complex)
    b = bases.bloch_matrix_from_rho(rho, factor.d_a, factor.d_b)
    g = partial_trace_rho(rho, factor, "a")
    alpha = 0.5 * (b @ b.mT)
    k_ent, l_ent = (-(np.maximum(w, 0.0) * floored_log(w, floor)).sum(axis=-1)
                    for w in (np.linalg.eigvalsh(g), np.linalg.eigvalsh(alpha)))
    return b, MeasureReport(
        k_entropy=k_ent,
        l_entropy=l_ent,
        delta=np.clip(4.0 * np.linalg.det(g).real, 0.0, 1.0),
        tau_ab=tau_from_bloch(b),
        purity=np.einsum("...ij,...ji->...", rho, rho).real,
    )


def measure_report(state: QuantumState, floor: float = DEFAULT_LOG_FLOOR) -> MeasureReport:
    """All scalar measures of a bipartite state: the measure
    kernel's row for the one-state stack."""
    rep = measures_from_rho(state.density()[None], state.factor, floor)[1]
    return MeasureReport(**{f: float(v[0]) for f, v in vars(rep).items()})
