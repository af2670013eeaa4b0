"""disentsim: nonlinear open-quantum-system dynamics with disentanglement drives.

Library layout:

* ``qcore``    -- dense complex linear algebra, spectral calculus, states of
                  the spin pair (the one Hilbert space).
* ``bases``    -- Pauli matrices, the pair and one-spin observable grids,
                  Bloch matrices, Weyl operators.
* ``entangle`` -- entanglement measures and the nonlinear Theta operators.
* ``dynamics`` -- GKSL / modified master equation, stochastic trajectories,
                  steady-state solver.
* ``twospin``  -- the driven two-spin scenario, sweeps, presets, attractor
                  classification.
* ``config``   -- run configuration documents, their schema and validation.
* ``output``   -- CSV, NDJSON and JSON writers for run results.
* ``svgplot``  -- deterministic SVG line plots and heat maps.
* ``workers``  -- fork/join of a split ensemble's or sweep's blocks.
* ``cli``      -- command-line front end: runs a command, writes its outputs.
"""

__version__ = "0.1.0"

from .qcore import (  # noqa: F401
    QuantumState,
    expectation,
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
