"""disentsim: nonlinear open-quantum-system dynamics with disentanglement drives.

Library layout:

* ``qcore``    -- dense complex linear algebra, spectral calculus, states.
* ``bases``    -- Gell-Mann / Weyl operator bases, Bloch matrices.
* ``entangle`` -- entanglement measures and the nonlinear Theta operators.
* ``dynamics`` -- GKSL / modified master equation, stochastic trajectories,
                  steady-state solver.
* ``twospin``  -- the driven two-spin scenario, sweeps, presets, attractor
                  classification.
* ``cli``      -- configuration parsing and the command-line front end.
"""

__version__ = "0.1.0"

from .qcore import (  # noqa: F401
    Factorization,
    QuantumState,
    TWO_QUBITS,
    expectation,
    herm_eig,
    kron,
    spectral_log,
)
from .entangle import (  # noqa: F401
    DisentanglementSpec,
    MeasureReport,
    ThetaFamily,
    ThetaOperator,
    build_theta,
    correlation_operator,
    delta_measure,
    entanglement_k,
    entanglement_l,
    measure_report,
    q_bloch_operators,
    state_matrix,
    tau_correlation,
    weyl_t2_expectation,
)
from .dynamics import (  # noqa: F401
    DampingParams,
    IntegratorConfig,
    SdeModel,
    SpinDamping,
    StateHealthError,
    TrajectoryRecord,
    integrate_master,
    integrate_sle_ensemble,
    kraus_step_error,
    steady_state,
)
from .twospin import (  # noqa: F401
    AttractorKind,
    AttractorVerdict,
    SweepGrid,
    TwoSpinParams,
    build_hamiltonian,
    classify_attractor,
    effective_temperature,
    experiment_preset,
    rabi_frequency,
    run_sweep,
)
