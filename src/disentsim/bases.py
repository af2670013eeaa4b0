"""Operator bases of the spin pair: the Pauli matrices, the pair's observable
grid and the one-spin grid, Bloch matrices, and Weyl (clock-and-shift)
operators with the Weyl S matrix.  A Bloch matrix B is a plain real array of
grid expectations, and the grid coordinates x = B(rho) are the one
representation of a state that the steady-state solver, the master equation,
the measures and Theta read: the grid caches one read-only expectation
matrix, and ``_contract`` reads B through it.

Conventions used throughout:

* One spin's basis is Gamma_0 = 2^(1/4)/sqrt(2) * I and
  Gamma_l = 2^(-1/4) sigma_l, with (sigma_1, sigma_2, sigma_3) =
  (sigma_x, sigma_y, sigma_z), which satisfy Tr(s s')/2 = delta.
* The pair grid G[a, b] = Gamma_a (x) Gamma_b is orthonormal in the same
  Tr(G G')/2 sense and traceless away from (0, 0).  The one-spin grid is
  P_a = 2^(1/4) Gamma_a = (I, sigma_x, sigma_y, sigma_z); the reduced state
  and state-matrix deranking expand over it.
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

from .qcore import DimensionError, QuantumState, as_complex_matrix

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

#: One spin's scaled basis (Gamma_0, Gamma_1, Gamma_2, Gamma_3).
_GAMMA = ((2.0 ** 0.25 / np.sqrt(2)) * ID2,
          *((2.0 ** -0.25) * s for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)))


def _contract(rho: np.ndarray, expect: np.ndarray) -> np.ndarray:
    """Complex Tr(ops[k] rho), shape (..., n), of a (..., D, D) stack: one matmul.
    For N >= 2 matrices each row is bitwise independent of N; one matrix goes
    through gemv and can differ in its last bit (up to 2.2e-16 over 400 states),
    which the log in the Bloch families' Theta magnifies to up to 3.6e-12."""
    flat = rho.reshape(rho.shape[:-2] + expect.shape[:1])
    return np.dot(flat, expect) if flat.ndim == 1 else flat @ expect


@dataclass(frozen=True)
class ObservableGrid:
    """Grid of product observables G[a, b] = Gamma_a (x) Gamma_b (the pair) or
    P_a (one spin); B(rho) is the plain array ``bloch_matrix_from_rho``
    returns, flattened to n = 16 (4 for one spin)."""

    entries: np.ndarray  # shape (4, 4, 4, 4); one spin: (4, 1, 2, 2)
    expect: np.ndarray  # shape (D^2, n): rho.ravel() @ expect = B(rho) flattened
    half: np.ndarray  # shape (n, D^2), flattened G / 2: rho.ravel() = B(rho) @ half

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


def _grid(factor_b: tuple[np.ndarray, ...]) -> ObservableGrid:
    """The read-only grid Gamma_a (x) factor_b[b]."""
    entries = np.array([[np.kron(xa, xb) for xb in factor_b] for xa in _GAMMA])
    half = 0.5 * entries.reshape(len(_GAMMA) * len(factor_b), -1)
    expect = np.ascontiguousarray(entries.transpose(3, 2, 0, 1).reshape(-1, len(half)))
    for table in (entries, half, expect):
        table.setflags(write=False)
    return ObservableGrid(entries, expect, half)


@lru_cache(maxsize=None)
def observable_grid() -> ObservableGrid:
    """The pair grid G[a, b] = Gamma_a (x) Gamma_b, built once."""
    return _grid(_GAMMA)


@lru_cache(maxsize=None)
def spin_grid() -> ObservableGrid:
    """The one-spin grid P = (I, sigma_x, sigma_y, sigma_z), built once as
    Gamma (x) 2^(1/4): its elements carry that product's rounding (the unit
    entries read 0.9999999999999999), and the reduced state and state-matrix
    deranking are computed with those bits."""
    return _grid((np.full((1, 1), 2.0 ** 0.25, dtype=complex),))


def bloch_matrix_from_rho(rho: np.ndarray) -> np.ndarray:
    """Bloch matrix B[a, b] = <G[a, b]> of a density matrix, or of each matrix
    of a (..., 4, 4) stack: a real C-contiguous (..., 4, 4) array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (4, 4):
        raise DimensionError(f"expected (..., 4, 4) density matrices, got {rho.shape}")
    vals = _contract(rho, observable_grid().expect).reshape(*rho.shape[:-2], 4, 4)
    resid = float(np.abs(vals.imag).max(initial=0.0))
    if resid > 1e-9:
        raise ValueError(f"Bloch matrix has imaginary residue {resid!r}")
    return np.ascontiguousarray(vals.real)


def bloch_matrix(state: QuantumState) -> np.ndarray:
    """Bloch matrix of a state of the pair."""
    return bloch_matrix_from_rho(state.density())


def reduced_state_a(b: np.ndarray) -> np.ndarray:
    """Tr_b rho of each Bloch matrix of a (..., 4, 4) stack, shape (..., 2, 2):
    only G[a, 0] has a nonzero partial trace over b, so
    Tr_b rho = sqrt(2) B[:, 0] . (the one-spin grid P / 2)."""
    col, half = b[..., :, 0], spin_grid().half
    flat = math.sqrt(2) * (np.dot(col, half) if col.ndim == 1 else col @ half)
    return flat.reshape(b.shape[:-2] + (2, 2))


def single_spin_bloch_vectors(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Physical Bloch vectors (<sigma_x>, <sigma_y>, <sigma_z>) of each qubit.

    The first column / first row of B hold the single-spin expectations in
    grid normalization (sigma expectation divided by sqrt(2)); they are
    rescaled here so the vectors live in the unit ball.  A stacked Bloch
    matrix (..., 4, 4) gives vectors of shape (..., 3).
    """
    if b.shape[-2:] != (4, 4):
        raise DimensionError("single-spin Bloch vectors need a 4 x 4 Bloch matrix")
    k_a = np.sqrt(2.0) * b[..., 1:4, 0]
    k_b = np.sqrt(2.0) * b[..., 0, 1:4]
    return np.ascontiguousarray(k_a), np.ascontiguousarray(k_b)


# ---------------------------------------------------------------------------
# Weyl operators.


@lru_cache(maxsize=None)
def weyl_ops() -> np.ndarray:
    """One spin's Weyl operators W[n', n''] = sum_n exp(i pi n n') |n><n + n'' mod 2|.

    Returned as an array of shape (2, 2, 2, 2); each W[n', n''] is unitary
    and W[0, 0] is the identity.
    """
    w = np.zeros((2, 2, 2, 2), dtype=complex)
    omega = np.exp(1j * np.pi)  # -1, with the rounding of exp(2 pi i / 2)
    for np_ in range(2):
        for npp in range(2):
            for n in range(2):
                w[np_, npp, n, (n + npp) % 2] = omega ** (n * np_)
    w.setflags(write=False)
    return w


def _weyl_product_traces(rho: np.ndarray) -> np.ndarray:
    """T[p, q, r, s] = Tr((W[p, q] (x) W[r, s]) rho)."""
    r4 = as_complex_matrix(rho).reshape(2, 2, 2, 2)
    return np.einsum("pqik,rsjl,klij->pqrs", weyl_ops(), weyl_ops(), r4)


def weyl_s_matrix(state: QuantumState) -> np.ndarray:
    """Weyl S matrix: rows n' + 2 n'' collect the a-operator labels, columns
    n''' + 2 n'''' the b-operator labels, entries Tr((W (x) W) rho)/2.

    For pure states Tr(S^dag S) = 1 and the spectrum of S^dag S matches that
    of (M^dag M) (x) (M^dag M) built from the state matrix M.
    """
    t = _weyl_product_traces(state.density()) / 2
    return t.transpose(1, 0, 3, 2).reshape(4, 4)
