"""Dense complex linear algebra on the Hilbert space of the spin pair.

Everything here operates on plain ``numpy`` arrays (``complex128``); operators
and density matrices are ordinary 2-D arrays.  A ``QuantumState`` is a state
of the qubit pair, the package's one Hilbert space: 4 amplitudes or a 4x4
density matrix, spin a the first tensor factor.  Units follow the convention
hbar = k_B = 1, with all rates and frequencies expressed relative to the
reference Larmor frequency of the undriven spin.

Bare matrix logarithms are regularized by clamping eigenvalues at
``floor * max(eigenvalue)``, all in ``floored_log``, and a matrix's log is
``eig_log(*eigh(a))``.  The clamp matters because the deranking operators
take log of matrices that are exactly singular on product states; the
clamped eigendirections are annihilated by the accompanying factors, so the
floor value never leaks into physical drifts (verified by tests).  A
negative eigenvalue is clamped the same way: no log here rejects a matrix
that is not positive semi-definite.

Every eigendecomposition a Theta stage runs goes through ``eigh``, which
calls the LAPACK gufunc behind ``np.linalg.eigh`` directly: on one 4x4
matrix the wrapper's checks and its ``errstate`` context cost about as much
as the decomposition itself (13.4 against 6.3 us, one BLAS thread).  It is
the one place in the package that touches a private numpy name.  One
eigensystem's V diag(log w) V^dag goes through ``np.dot``, as every
one-state product of the hot paths does: the BLAS call of ``@`` with its
bits, without matmul's gufunc dispatch (0.78 against 1.12 us for a 4x4 real
product, one BLAS thread); a stack keeps ``@``.  ``eigh``, ``floored_log`` and
``eig_log`` write into arrays the caller gives (``eig_workspace``), so that one
master run's stages reuse one set; without them each call allocates.
"""

from __future__ import annotations

import types
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

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


def require_hermitian(a: np.ndarray, what: str) -> None:
    """Raise HermiticityError unless max|A - A^dag| <= 1e-12 max(max|A|, 1)."""
    scale = max(float(np.abs(a).max()), 1.0)
    if float(np.abs(a - a.conj().T).max()) > HERMITICITY_TOL * scale:
        raise HermiticityError(f"{what} is not Hermitian")


@dataclass
class QuantumState:
    """A pure state vector or a density operator of the qubit pair.

    Use the ``pure``/``mixed`` constructors; they validate the dimension (4
    amplitudes, a 4x4 matrix), normalization, Hermiticity and positivity at
    the documented tolerances.
    """

    psi: np.ndarray | None = None
    rho: np.ndarray | None = None

    @classmethod
    def pure(cls, psi) -> "QuantumState":
        v = np.asarray(psi, dtype=complex).reshape(-1)
        if v.size != 4:
            raise DimensionError(f"a spin-pair state vector has 4 amplitudes, got {v.size}")
        norm2 = float(np.vdot(v, v).real)
        if abs(norm2 - 1.0) > PURE_NORM_TOL:
            raise ValueError(f"state vector not normalized: <psi|psi> = {norm2!r}")
        return cls(psi=v)

    @classmethod
    def mixed(cls, rho) -> "QuantumState":
        m = as_complex_matrix(rho)
        if m.shape != (4, 4):
            raise DimensionError(f"a spin-pair density matrix is 4x4, got shape {m.shape}")
        tr = float(m.trace().real)
        if abs(tr - 1.0) > MIXED_TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        require_hermitian(m, "density matrix")
        w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if w[0] < MIN_EIGENVALUE_TOL:
            raise PSDViolationError(f"density matrix has eigenvalue {w[0]!r}")
        return cls(rho=m)

    @property
    def is_pure(self) -> bool:
        return self.psi is not None

    def density(self) -> np.ndarray:
        """Density matrix; pure states are promoted to |psi><psi|."""
        if self.rho is not None:
            return self.rho
        return np.outer(self.psi, self.psi.conj())


class Workspace(types.SimpleNamespace):
    """The arrays of a kernel, and the views of them it reads, by name.  One
    master run's stage builds one for its one state and refills it at every
    call (``ThetaEngine.drift`` keeps one per block width); any other call
    on a stack builds a fresh one, so a stack allocates."""


def eig_workspace(v: np.ndarray) -> dict[str, np.ndarray]:
    """``eig_log``'s arrays for the eigenvectors v (..., m, m) that ``eigh``
    writes: the floored log lw (and lw as a row), V diag(lw), V's conjugate
    vh (a real V is its own) with the transpose the product reads, and the
    log itself."""
    lw = np.empty(v.shape[:-1])
    vh = v if v.dtype.kind == "f" else np.empty_like(v)
    return dict(lw=lw, lw_row=lw[..., None, :], vl=np.empty_like(v), vh=vh, vh_t=vh.mT,
                log=np.empty_like(v))


def eigh(a: np.ndarray, out: tuple = (None, None)) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) of each real-symmetric or complex-Hermitian matrix of a
    float64/complex128 (..., m, m) stack, read from its lower triangle, into
    ``out`` = (w, v) if given: the bits of ``np.linalg.eigh(a)`` from the
    same LAPACK gufunc, without the wrapper's checks and ``errstate``
    context.  A failed decomposition comes
    back NaN, so when some matrix's largest eigenvalue is NaN this calls the
    wrapper, which raises LinAlgError where LAPACK failed and returns the
    NaN where it did not (the complex gufunc decomposes NaN and inf input
    without failing): the helper fails exactly where ``np.linalg.eigh``
    does.  The gufunc's floating-point flags follow the caller's
    ``np.errstate``: a NaN or inf input sets ``invalid``, and an inf input
    also ``divide``.  The integrators ignore both, as the wrapper does; under
    the default errstate numpy warns before the LinAlgError.  The wrapper's
    (w, v) are fresh arrays, not ``out``."""
    w, v = _umath_linalg.eigh_lo(a, signature="D->dD" if a.dtype.kind == "c" else "d->dd",
                                 out=out)
    # a NaN top eigenvalue of any matrix; item() spares one matrix's stages
    # the reduction's microsecond
    top = w.item(-1) if w.ndim == 1 else w[..., -1].sum()
    if top != top:
        return np.linalg.eigh(a)
    return w, v


def floored_log(w: np.ndarray, floor: float = DEFAULT_LOG_FLOOR,
                out: np.ndarray | None = None) -> np.ndarray:
    """Log of the ascending eigenvalues (..., k) of each matrix, as ``eigh``
    returns them, clamped at ``floor`` times that matrix's largest eigenvalue
    (at ``floor`` itself when none is positive; a NaN cut stays NaN), into
    ``out`` if given.  Every floor-clamped log of the package goes through
    here.  One matrix's cut is a Python float, with no masked store: the
    master equation's stages take one matrix each."""
    if w.ndim == 1:
        cut = floor * w.item(-1)
        return np.log(np.maximum(w, floor if cut <= 0.0 else cut, out=out), out)
    cut = floor * w[..., -1:]
    cut[cut <= 0.0] = floor
    return np.log(np.maximum(w, cut, out=out), out)


def eig_log(w: np.ndarray, v: np.ndarray, floor: float = DEFAULT_LOG_FLOOR,
            ws: Workspace | None = None) -> np.ndarray:
    """V diag(floored_log(w)) V^dag for each eigensystem (w, v) of a stack, as
    returned by ``eigh``, in the arrays of ``ws`` (``eig_workspace``; None:
    fresh ones); one eigensystem's product goes through ``np.dot``.  V^dag is
    the transpose of V's conjugate, with the strides of ``v.mT.conj()``."""
    ws = Workspace(**eig_workspace(v)) if ws is None else ws
    floored_log(w, floor, ws.lw)
    np.multiply(v, ws.lw_row, ws.vl)
    if ws.vh is not v:  # complex, or a v that eigh's fallback returned
        np.conjugate(v, ws.vh)
    return (np.dot if w.ndim == 1 else np.matmul)(ws.vl, ws.vh_t, ws.log)


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
