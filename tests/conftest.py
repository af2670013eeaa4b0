import multiprocessing
import signal

import numpy as np
import pytest

from disentsim.entangle import ThetaFamily
from disentsim.qcore import TWO_QUBITS, QuantumState


#: session fixtures whose tests the ``slow`` mark must cover (see pyproject)
SLOW_FIXTURES = ("fig2_runs", "fig1_sweep", "unravelling_pair")


def pytest_collection_modifyitems(config, items):
    unmarked = [item.nodeid for item in items
                if set(SLOW_FIXTURES) & set(item.fixturenames)
                and item.get_closest_marker("slow") is None]
    if unmarked:
        raise pytest.UsageError(
            f"tests on {', '.join(SLOW_FIXTURES)} need @pytest.mark.slow: " + ", ".join(unmarked))


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a worker process alive, after ending it: no
    worker may outlive the run that started it."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join()
    if left:
        pytest.fail(f"worker processes left running: {left}")


@pytest.fixture
def hang_guard():
    """End the test with a TimeoutError after 60 s: a parent that waits for a
    worker which ended without a result would otherwise hang the suite."""
    def hung(*_):
        raise TimeoutError("the parent waited for a worker that had ended")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)

# delta = 3/4 for this one; several expected values below derive from it
TILTED = np.array([np.sqrt(3.0) / 2.0, 0.0, 0.0, 0.5], dtype=complex)


def bell_state() -> QuantumState:
    return QuantumState.pure(BELL, TWO_QUBITS)


def tilted_state() -> QuantumState:
    return QuantumState.pure(TILTED, TWO_QUBITS)


def random_product_psi(rng) -> np.ndarray:
    from disentsim.qcore import random_pure_state

    return np.kron(random_pure_state(2, rng), random_pure_state(2, rng))


def analytic_driven_spin_bloch(delta, omega1, damping) -> np.ndarray:
    """Closed-form steady-state Bloch vector of a driven, damped spin.

    Independent oracle used against the numerical steady-state solver:
    dispersive, absorptive and longitudinal components of the standard
    saturation line shape expressed through T1, T2 and the equilibrium
    polarization.
    """
    t1, t2, pz0 = damping.t1, damping.t2, damping.p_z0
    den = 1.0 + delta**2 * t2**2 + omega1**2 * t1 * t2
    return np.array([
        delta * omega1 * t2**2 * pz0 / den,
        -omega1 * t2 * pz0 / den,
        (1.0 + delta**2 * t2**2) * pz0 / den,
    ])


PAULI = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]).astype(complex)]


def _floored_log(m: np.ndarray) -> np.ndarray:
    # README contract: eigenvalues clamped at 1e-13 times the largest
    w, v = np.linalg.eigh(m)
    return (v * np.log(np.maximum(w, 1e-13 * w[-1]))) @ v.conj().T


def literal_theta(family, rho: np.ndarray, h: np.ndarray,
                  gamma_h: float = 0.0, beta: float = 1.0) -> np.ndarray:
    """Theta at unit gamma_d (thermalization: at gamma_h, beta) written out over
    Pauli products, independent of the engine."""
    ops = [[np.kron(x, y) for y in PAULI] for x in PAULI]
    ex = lambda o: np.trace(o @ rho).real  # noqa: E731
    if family is ThetaFamily.CORR_SUPPRESS:
        q = np.zeros((4, 4), dtype=complex)
        for i in range(1, 4):
            for j in range(1, 4):
                ab = ex(ops[i][0]) * ex(ops[0][j])
                q += (ex(ops[i][j]) - ab) * (ops[i][j] - ab * np.eye(4))
        return q / 3.0
    if family in (ThetaFamily.BLOCH_DERANK_A, ThetaFamily.BLOCH_DERANK_B):
        b = np.array([[ex(ops[i][j]) for j in range(4)] for i in range(4)]) / np.sqrt(2.0)
        if family is ThetaFamily.BLOCH_DERANK_A:
            w = _floored_log(b @ b.T / 2.0) @ b
        else:
            w = b @ _floored_log(b.T @ b / 2.0)
        return -0.5 * sum(w[i, j] * ops[i][j] for i in range(4) for j in range(4)) / np.sqrt(2.0)
    if family is ThetaFamily.STATE_MATRIX_DERANK:
        # minus the subsystem embeddings |a, k><c, k| of log G, summed over k
        log_g = _floored_log(np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2)))
        q = np.zeros((4, 4), dtype=complex)
        for k in range(2):
            for a in range(2):
                for c in range(2):
                    q[2 * a + k, 2 * c + k] -= log_g[a, c]
        return q
    return gamma_h * beta * h + gamma_h * _floored_log(rho)
