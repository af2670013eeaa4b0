"""Dense complex linear algebra on small Hilbert spaces.

Everything here operates on plain ``numpy`` arrays (``complex128``); operators
and density matrices are ordinary 2-D arrays, tagged in ``QuantumState`` with
their bipartite ``Factorization`` (d_a, d_b).  Units follow the convention
hbar = k_B = 1, with all rates and frequencies expressed relative to the
reference Larmor frequency of the undriven spin.

Bare matrix logarithms are regularized by clamping eigenvalues at
``floor * max(eigenvalue)``, all in ``floored_log``.  The clamp matters
because the deranking operators take log of matrices that are exactly
singular on product states; the clamped eigendirections are annihilated by
the accompanying factors, so the floor value never leaks into physical
drifts (verified by tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Default relative eigenvalue floor used inside matrix logarithms.
DEFAULT_LOG_FLOOR = 1e-13

PURE_NORM_TOL = 1e-10
MIXED_TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-12
MIN_EIGENVALUE_TOL = -1e-8


class DimensionError(ValueError):
    """Operands have incompatible or invalid shapes."""


class HermiticityError(ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class PSDViolationError(ValueError):
    """A matrix required to be positive semi-definite has a negative eigenvalue."""


def as_complex_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def herm_residual(a: np.ndarray) -> float:
    """max|A - A^dag|, the absolute deviation from Hermiticity."""
    return float(np.abs(a - a.conj().T).max())


@dataclass(frozen=True)
class Factorization:
    """Bipartite tensor factorization (d_a, d_b) of a Hilbert space."""

    d_a: int
    d_b: int

    def __post_init__(self):
        if self.d_a < 2 or self.d_b < 2:
            raise DimensionError("subsystems a and b need dimension >= 2")

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b


TWO_QUBITS = Factorization(2, 2)


@dataclass
class QuantumState:
    """A pure state vector or a density operator, tagged with its factorization.

    Use the ``pure``/``mixed`` constructors; they validate normalization,
    Hermiticity and positivity at the documented tolerances.
    """

    factor: Factorization
    psi: np.ndarray | None = None
    rho: np.ndarray | None = None

    @classmethod
    def pure(cls, psi, factor: Factorization) -> "QuantumState":
        v = np.asarray(psi, dtype=complex).reshape(-1)
        if v.size != factor.dim:
            raise DimensionError(
                f"state vector length {v.size} != factorization dim {factor.dim}"
            )
        norm2 = float(np.vdot(v, v).real)
        if abs(norm2 - 1.0) > PURE_NORM_TOL:
            raise ValueError(f"state vector not normalized: <psi|psi> = {norm2!r}")
        return cls(factor=factor, psi=v)

    @classmethod
    def mixed(cls, rho, factor: Factorization) -> "QuantumState":
        m = as_complex_matrix(rho)
        if m.shape != (factor.dim, factor.dim):
            raise DimensionError(
                f"density matrix shape {m.shape} != ({factor.dim}, {factor.dim})"
            )
        tr = float(m.trace().real)
        if abs(tr - 1.0) > MIXED_TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        scale = max(float(np.abs(m).max()), 1.0)
        if herm_residual(m) > HERMITICITY_TOL * scale:
            raise HermiticityError("density matrix is not Hermitian")
        w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if w[0] < MIN_EIGENVALUE_TOL:
            raise PSDViolationError(f"density matrix has eigenvalue {w[0]!r}")
        return cls(factor=factor, rho=m)

    @property
    def is_pure(self) -> bool:
        return self.psi is not None

    def density(self) -> np.ndarray:
        """Density matrix; pure states are promoted to |psi><psi|."""
        if self.rho is not None:
            return self.rho
        return np.outer(self.psi, self.psi.conj())


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product (dimensions multiply, traces multiply)."""
    return np.kron(a, b)


def herm_eig(a: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, A = V diag(w) V^dag, or of
    each matrix of a (..., d, d) stack.

    The input is symmetrized as (A + A^dag)/2 before decomposition to strip
    integrator round-off; inputs that are non-Hermitian beyond ``tol``
    (relative to max|A| of each matrix) are rejected.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected square matrices, got shape {m.shape}")
    mh = m.mT.conj()
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    if (np.abs(m - mh).max(axis=(-2, -1)) > tol * scale).any():
        raise HermiticityError(f"matrix is not Hermitian within {tol!r}")
    return np.linalg.eigh(0.5 * (m + mh))


def floored_log(w: np.ndarray, floor: float = DEFAULT_LOG_FLOOR) -> np.ndarray:
    """Log of the ascending eigenvalues (..., k) of each matrix, as ``eigh``
    returns them, clamped at ``floor`` times that matrix's largest eigenvalue
    (at ``floor`` itself when none is positive).  Every floor-clamped log of
    the package goes through here."""
    cut = floor * w[..., -1:]
    cut[cut <= 0.0] = floor
    return np.log(np.maximum(w, cut))


def eig_log(w: np.ndarray, v: np.ndarray, floor: float = DEFAULT_LOG_FLOOR) -> np.ndarray:
    """V diag(floored_log(w)) V^dag for each eigensystem (w, v) of a stack, as
    returned by ``np.linalg.eigh``."""
    return (v * floored_log(w, floor)[..., None, :]) @ v.mT.conj()


def _psd_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """herm_eig, rejecting any matrix with an eigenvalue below -1e-8 max(|w|, 1)."""
    w, v = herm_eig(a)
    bad = w[..., 0] < -1e-8 * np.maximum(np.abs(w).max(axis=-1), 1.0)
    if bad.any():
        raise PSDViolationError(f"matrix has negative eigenvalue {w[..., 0][bad].min()!r}")
    return w, v


def spectral_log(a: np.ndarray, floor: float = DEFAULT_LOG_FLOOR) -> np.ndarray:
    """Matrix logarithm of a Hermitian PSD matrix, or of each matrix of a
    (..., d, d) stack, with eigenvalue flooring.

    Eigenvalues are clamped at ``floor`` times the largest eigenvalue before
    taking the log, which keeps the result finite on singular inputs.
    Hermiticity and positivity are checked for every matrix of a stack.
    """
    return eig_log(*_psd_eig(a), floor)


def expectation(state: QuantumState | np.ndarray, obs: np.ndarray) -> float:
    """Real expectation value Tr(rho O) of a Hermitian observable."""
    rho = state.density() if isinstance(state, QuantumState) else as_complex_matrix(state)
    o = as_complex_matrix(obs)
    if rho.shape != o.shape:
        raise DimensionError(f"dimension mismatch: state {rho.shape}, observable {o.shape}")
    val = complex(np.einsum("ij,ji->", o, rho))
    limit = 1e-10 * max(1.0, float(np.abs(o).max()) * float(np.abs(rho).max()) * o.shape[0])
    if abs(val.imag) > limit:
        raise HermiticityError(f"expectation has imaginary residue {val.imag!r}")
    return float(val.real)


# ---------------------------------------------------------------------------
# Random objects for tests and Monte Carlo checks.


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random normalized state vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random full(ish)-rank density matrix from a Ginibre factor."""
    k = rank or dim
    g = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    rho = g @ g.conj().T
    return rho / rho.trace()


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary (QR of a Ginibre matrix with phase-fixed R)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph
