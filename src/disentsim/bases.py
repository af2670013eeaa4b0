"""Operator bases: generalized Gell-Mann sets, the bipartite observable grid,
Bloch matrices, and Weyl (clock-and-shift) operators with the Weyl S matrix.
A Bloch matrix B is a plain real array of grid expectations, and the grid
coordinates x = B(rho) are the one representation of a state that the
steady-state solver, the master equation, the measures and Theta read: the
grid caches one read-only expectation matrix, and ``_contract`` reads B through it.

Conventions used throughout:

* Gell-Mann matrices are ordered symmetric pairs first (lexicographic),
  then antisymmetric pairs, then diagonal matrices; for d = 2 this is
  exactly (sigma_x, sigma_y, sigma_z).  They satisfy Tr(l l')/2 = delta.
* The bipartite grid G[a, b] = Gamma_a (x) Gamma_b uses the scaled elements
  Gamma_0 = 2^(1/4)/sqrt(d) * I and Gamma_l = 2^(-1/4) lambda_l, so the full
  grid is orthonormal in the same Tr(G G')/2 sense and traceless away from
  (0, 0).  A factor of dimension 1 contributes Gamma_0 alone, so the grid
  (2, 1) of a single spin is (I, sigma_x, sigma_y, sigma_z).
* All index origins are 0-based.  Extraction of physical single-spin Bloch
  vectors rescales grid expectations by sqrt(2) so that |k| <= 1 and
  k_z = -1/(2 n0 + 1) for a thermal spin (the grid normalization stores
  sigma expectations divided by sqrt(2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .qcore import (
    DimensionError,
    QuantumState,
    as_complex_matrix,
    kron,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


@lru_cache(maxsize=None)
def gell_mann(d: int) -> tuple[np.ndarray, ...]:
    """The d^2 - 1 traceless Hermitian generalized Gell-Mann matrices of a
    d-level system.

    Entries are 0, +-1, +-i and real diagonal normalization factors; the
    orthogonality relation Tr(l l')/2 = delta holds exactly.
    """
    if d < 2:
        raise DimensionError("Gell-Mann set needs dimension >= 2")
    mats: list[np.ndarray] = []
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = 1.0
        m[k, j] = 1.0
        mats.append(m)
    for j, k in pairs:
        m = np.zeros((d, d), dtype=complex)
        m[j, k] = -1j
        m[k, j] = 1j
        mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        coeff = np.sqrt(2.0 / (l * (l + 1)))
        for i in range(l):
            m[i, i] = coeff
        m[l, l] = -l * coeff
        mats.append(m)
    for m in mats:
        m.setflags(write=False)
    return tuple(mats)


def _gamma_elements(d: int) -> list[np.ndarray]:
    """Scaled subsystem basis [Gamma_0, Gamma_1, ...] for one factor (Gamma_0
    alone for d = 1)."""
    g0 = (2.0 ** 0.25 / np.sqrt(d)) * np.eye(d, dtype=complex)
    return [g0] + [(2.0 ** -0.25) * lam for lam in (gell_mann(d) if d > 1 else ())]


def _contract(rho: np.ndarray, expect: np.ndarray) -> np.ndarray:
    """Complex Tr(ops[k] rho), shape (..., n), of a (..., D, D) stack: one matmul.
    For N >= 2 matrices each row is bitwise independent of N; one matrix goes
    through gemv and can differ in its last bit (up to 2.2e-16 over 400 states),
    which the log in the Bloch families' Theta magnifies to up to 3.6e-12."""
    flat = rho.reshape(rho.shape[:-2] + expect.shape[:1])
    return np.dot(flat, expect) if flat.ndim == 1 else flat @ expect


@dataclass(frozen=True)
class ObservableGrid:
    """Grid of product observables G[a, b] = Gamma_a (x) Gamma_b; B(rho) is the
    plain array ``bloch_matrix_from_rho`` returns, flattened to n = d_a^2 d_b^2."""

    d_a: int
    d_b: int
    entries: np.ndarray  # shape (d_a^2, d_b^2, D, D)
    expect: np.ndarray  # shape (D^2, d_a^2 d_b^2): rho.ravel() @ expect = B(rho) flattened
    half: np.ndarray  # shape (d_a^2 d_b^2, D^2), flattened G / 2: rho.ravel() = B(rho) @ half

    @cached_property
    def anticommutator(self) -> np.ndarray:
        """Read-only real (n, n, n) T[k, i, j] = Tr(G_i {G_k, G_j}) / 4, so that
        B({Theta, rho})_i = sum_kj B(Theta)_k T[k, i, j] B(rho)_j."""
        g = self.entries.reshape(-1, *self.entries.shape[2:])
        gg = g[:, None] @ g[None]
        t = 0.25 * _contract(gg + gg.transpose(1, 0, 2, 3), self.expect).real
        out = t.transpose(0, 2, 1).copy()
        out.setflags(write=False)
        return out

    @cached_property
    def norms(self) -> np.ndarray:
        """Read-only spectral norms |G_k|_2 (n,): |B(rho)_k| = |Tr(G_k rho)|
        is at most |G_k|_2 for every trace-one positive semidefinite rho."""
        g = self.entries.reshape(-1, *self.entries.shape[2:])
        out = np.abs(np.linalg.eigvalsh(g)).max(axis=1)
        out.setflags(write=False)
        return out

    def superop(self, lv: np.ndarray) -> np.ndarray:
        """Real grid form L_r (..., n, n) of a vectorized superoperator or a stack
        of them, B(L rho) = L_r B(rho); exact for Hermiticity-preserving L."""
        return (self.expect.T @ lv @ self.half.T).real


@lru_cache(maxsize=None)
def observable_grid(d_a: int, d_b: int) -> ObservableGrid:
    if d_a < 2 or d_b < 1:
        raise DimensionError("observable grid needs d_a >= 2 and d_b >= 1")
    ga = _gamma_elements(d_a)
    gb = _gamma_elements(d_b)
    dim = d_a * d_b
    entries = np.empty((d_a ** 2, d_b ** 2, dim, dim), dtype=complex)
    for a, xa in enumerate(ga):
        for b, xb in enumerate(gb):
            entries[a, b] = kron(xa, xb)
    half = 0.5 * entries.reshape(d_a ** 2 * d_b ** 2, -1)
    expect = np.ascontiguousarray(entries.transpose(3, 2, 0, 1).reshape(-1, len(half)))
    for table in (entries, half, expect):
        table.setflags(write=False)
    return ObservableGrid(d_a, d_b, entries, expect, half)


def bloch_matrix_from_rho(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Bloch matrix B[a, b] = <G[a, b]> of a density matrix, or of each matrix
    of a (..., D, D) stack: a real C-contiguous (..., d_a^2, d_b^2) array."""
    grid = observable_grid(d_a, d_b)
    dim = d_a * d_b
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (dim, dim):
        raise DimensionError(f"expected (..., {dim}, {dim}) density matrices, got {rho.shape}")
    vals = _contract(rho, grid.expect).reshape(*rho.shape[:-2], d_a ** 2, d_b ** 2)
    resid = float(np.abs(vals.imag).max(initial=0.0))
    if resid > 1e-9:
        raise ValueError(f"Bloch matrix has imaginary residue {resid!r}")
    return np.ascontiguousarray(vals.real)


def bloch_matrix(state: QuantumState) -> np.ndarray:
    """Bloch matrix of a bipartite state."""
    return bloch_matrix_from_rho(state.density(), state.factor.d_a, state.factor.d_b)


def reduced_state_a(b: np.ndarray) -> np.ndarray:
    """Tr_b rho of each Bloch matrix of a (..., d_a^2, d_b^2) stack, shape
    (..., d_a, d_a): only G[a, 0] has a nonzero partial trace over b, so
    Tr_b rho = sqrt(d_b) B[:, 0] . (the single-factor grid (d_a, 1) / 2)."""
    d_a, d_b = math.isqrt(b.shape[-2]), math.isqrt(b.shape[-1])
    col, half = b[..., :, 0], observable_grid(d_a, 1).half
    flat = math.sqrt(d_b) * (np.dot(col, half) if col.ndim == 1 else col @ half)
    return flat.reshape(b.shape[:-2] + (d_a, d_a))


def single_spin_bloch_vectors(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Physical Bloch vectors (<sigma_x>, <sigma_y>, <sigma_z>) of each qubit.

    The first column / first row of B hold the single-spin expectations in
    grid normalization (sigma expectation divided by sqrt(2)); they are
    rescaled here so the vectors live in the unit ball.  A stacked Bloch
    matrix (..., 4, 4) gives vectors of shape (..., 3).
    """
    if b.shape[-2:] != (4, 4):
        raise DimensionError("single-spin Bloch vectors need a 2 x 2 factorization")
    k_a = np.sqrt(2.0) * b[..., 1:4, 0]
    k_b = np.sqrt(2.0) * b[..., 0, 1:4]
    return np.ascontiguousarray(k_a), np.ascontiguousarray(k_b)


# ---------------------------------------------------------------------------
# Weyl operators.


@lru_cache(maxsize=None)
def weyl_ops(d: int) -> np.ndarray:
    """Weyl operators W[n', n''] = sum_n exp(2 pi i n n'/d) |n><n + n'' mod d|.

    Returned as an array of shape (d, d, d, d); each W[n', n''] is unitary
    and W[0, 0] is the identity.
    """
    if d < 2:
        raise DimensionError("Weyl operators need dimension >= 2")
    w = np.zeros((d, d, d, d), dtype=complex)
    omega = np.exp(2j * np.pi / d)
    for np_ in range(d):
        for npp in range(d):
            for n in range(d):
                w[np_, npp, n, (n + npp) % d] = omega ** (n * np_)
    w.setflags(write=False)
    return w


def _weyl_product_traces(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """T[p, q, r, s] = Tr((W_a[p, q] (x) W_b[r, s]) rho)."""
    r4 = as_complex_matrix(rho).reshape(d_a, d_b, d_a, d_b)
    return np.einsum("pqik,rsjl,klij->pqrs", weyl_ops(d_a), weyl_ops(d_b), r4)


def weyl_s_matrix(state: QuantumState) -> np.ndarray:
    """Weyl S matrix: rows n' + n''*D collect the a-operator labels, columns
    n''' + n''''*D the b-operator labels, entries Tr((W (x) W) rho)/D.

    Only defined when both subsystems share the same dimension D; for pure
    states Tr(S^dag S) = 1 and the spectrum of S^dag S matches that of
    (M^dag M) (x) (M^dag M) built from the state matrix M.
    """
    if state.factor.d_a != state.factor.d_b:
        raise DimensionError("Weyl S matrix needs d_a = d_b")
    d = state.factor.d_a
    t = _weyl_product_traces(state.density(), d, d) / d
    return t.transpose(1, 0, 3, 2).reshape(d * d, d * d)
