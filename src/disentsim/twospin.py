"""The driven two-spin scenario: rotating-frame Hamiltonian, Hartmann-Hahn
geometry, effective temperature, steady-state parameter sweeps, named
experiment presets, and attractor classification.

The model is expressed in the frame rotating at the drive frequency about
the b-spin z axis, where the drive is static:

    H = omega_a S_az + Delta S_bz + omega_1 S_bx + g (S_a+ + S_a-) S_bz

with S = sigma/2 and hbar = 1.  The detuning sign is fixed by requiring that
the driven spin's steady state reproduce the standard saturation line shape
(dispersive x component proportional to +Delta); the dissipative channels
are kept form-invariant under the frame rotation.  Hartmann-Hahn matching
omega_a = omega_R = sqrt(omega_1^2 + Delta^2) maximizes the cross-spin
correlation tau_ab.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import bases, entangle
from .dynamics import (
    DampingParams,
    TrajectoryRecord,
    grid_liouvillian,
    steady_states,
)


class TemperatureDomainError(ValueError):
    """k_z polarization outside (-1, 0): no finite positive temperature."""


@dataclass(frozen=True)
class TwoSpinParams:
    """Drive and coupling parameters, all in units of omega_a."""

    delta: float = 0.0
    omega1: float = 0.0
    g: float = 0.0
    omega_a: float = 1.0

    def __post_init__(self):
        if self.omega_a <= 0:
            raise ValueError("omega_a must be positive")


#: dH/dDelta and dH/domega_1: the drive enters the Hamiltonian linearly.
_H_DELTA = 0.5 * np.kron(bases.ID2, bases.SIGMA_Z)
_H_OMEGA1 = 0.5 * np.kron(bases.ID2, bases.SIGMA_X)


def build_hamiltonian(p: TwoSpinParams) -> np.ndarray:
    """Rotating-frame two-spin Hamiltonian (4x4 Hermitian)."""
    sz, sx = bases.SIGMA_Z, bases.SIGMA_X
    i2 = bases.ID2
    return (
        0.5 * p.omega_a * np.kron(sz, i2)
        + p.delta * _H_DELTA
        + p.omega1 * _H_OMEGA1
        + 0.5 * p.g * np.kron(sx, sz)
    )


def rabi_frequency(p: TwoSpinParams) -> float:
    """omega_R = sqrt(omega_1^2 + Delta^2); matching means omega_R = omega_a."""
    return math.hypot(p.omega1, p.delta)


def _temperature(k_az: np.ndarray, omega_a: float) -> np.ndarray:
    """omega_a / (2 atanh(-k_az)), elementwise; NaN outside (-1, 0)."""
    in_domain = (-1.0 < k_az) & (k_az < 0.0)
    safe = np.where(in_domain, k_az, -0.5)
    return np.where(in_domain, omega_a / (2.0 * np.arctanh(-safe)), np.nan)


def effective_temperature(k_az: float, omega_a: float = 1.0) -> float:
    """Temperature assigned to a z polarization via k_z = -tanh(omega_a/(2T)).

    Diverges as k_az -> 0- and is undefined outside (-1, 0); out-of-domain
    values raise rather than being clamped.
    """
    if not (-1.0 < k_az < 0.0):
        raise TemperatureDomainError(
            f"k_az = {k_az!r} outside (-1, 0); no thermal assignment"
        )
    return float(_temperature(k_az, omega_a))


def bath_temperature(n0: float, omega_a: float = 1.0) -> float:
    """Bath temperature implied by the thermal occupation n0 at omega_a."""
    if n0 <= 0.0:
        return 0.0
    return omega_a / math.log(1.0 + 1.0 / n0)


# ---------------------------------------------------------------------------
# Parameter sweeps (linear steady state only).


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian (Delta, omega_1) grid; cells are independent."""

    delta_min: float = -2.0
    delta_max: float = 2.0
    delta_n: int = 81
    omega1_min: float = 2.0 / 81.0
    omega1_max: float = 2.0
    omega1_n: int = 81

    def __post_init__(self):
        if self.delta_n < 2 or self.omega1_n < 2:
            raise ValueError("sweep axes need at least 2 points")

    @property
    def delta_values(self) -> np.ndarray:
        return np.linspace(self.delta_min, self.delta_max, self.delta_n)

    @property
    def omega1_values(self) -> np.ndarray:
        return np.linspace(self.omega1_min, self.omega1_max, self.omega1_n)


@dataclass
class SweepResult:
    """Per-cell steady-state outputs over the grid (NaN where a cell failed)."""

    grid: SweepGrid
    template: TwoSpinParams
    damping: DampingParams
    bloch: np.ndarray      # (delta_n, omega1_n, 4, 4)
    tau_ab: np.ndarray     # (delta_n, omega1_n)
    t_eff: np.ndarray      # (delta_n, omega1_n)
    status: np.ndarray     # (delta_n, omega1_n) of strings, "" = ok

    @classmethod
    def from_rows(cls, p: TwoSpinParams, d: DampingParams, grid: SweepGrid,
                  blocks: list[tuple[np.ndarray, ...]]) -> SweepResult:
        """The result of consecutive ``sweep_rows`` blocks that cover the grid."""
        bloch, tau, teff, status = (np.concatenate(a) for a in zip(*blocks))
        return cls(grid=grid, template=p, damping=d,
                   bloch=bloch, tau_ab=tau, t_eff=teff, status=status)

    @property
    def base_temperature(self) -> float:
        return bath_temperature(self.damping.a.n0, self.template.omega_a)

    def argmax_tau(self) -> tuple[int, int]:
        flat = np.nan_to_num(self.tau_ab, nan=-1.0)
        i, j = np.unravel_index(int(flat.argmax()), flat.shape)
        return int(i), int(j)


def sweep_rows(p: TwoSpinParams, d: DampingParams, grid: SweepGrid,
               start: int, stop: int) -> tuple[np.ndarray, ...]:
    """The (bloch, tau_ab, t_eff, status) arrays of Delta rows start..stop-1
    of the grid, each row's cells solved for their linear steady state.

    The real grid Liouvillian is affine in the drive, L_r = L_0 + Delta
    L_Delta + omega_1 L_omega1, so its three pieces are mapped to the grid
    once per call; each Delta row is then solved by one batched null-space
    kernel call, whose rows are the Bloch matrices.  A row's cells do not
    depend on which rows are solved with it.  Solver degeneracies (NaN rows)
    and out-of-domain effective temperatures are recorded in the cell's
    status column; a cell whose steady state has an eigenvalue below -1e-8
    raises a StateHealthError (exit 3), and no later row is solved.
    """
    shape = (stop - start, grid.omega1_n)
    bloch = np.empty((*shape, 4, 4))
    tau = np.empty(shape)
    teff = np.empty(shape)
    status = np.full(shape, "", dtype=object)
    obs, l_0 = grid_liouvillian(build_hamiltonian(TwoSpinParams(g=p.g, omega_a=p.omega_a)), d)
    l_delta = grid_liouvillian(_H_DELTA, None)[1]
    l_drive = grid.omega1_values[:, None, None] * grid_liouvillian(_H_OMEGA1, None)[1]
    for i, dv in enumerate(grid.delta_values[start:stop]):
        x, degenerate = steady_states(l_0 + dv * l_delta + l_drive, obs)
        bloch[i] = b = x.reshape(-1, 4, 4)
        tau[i] = entangle.tau_from_bloch(b)
        teff[i] = _temperature(bases.single_spin_bloch_vectors(b)[0][:, 2], p.omega_a)
        status[i, degenerate] = "degenerate"
        status[i, ~degenerate & np.isnan(teff[i])] = "t_eff_domain"
    return bloch, tau, teff, status


def run_sweep(p: TwoSpinParams, d: DampingParams, grid: SweepGrid) -> SweepResult:
    """Solve the linear steady state on every grid cell: ``sweep_rows`` of
    all rows, in this process (the ``sweep`` command splits the rows over
    ``--threads`` processes)."""
    return SweepResult.from_rows(p, d, grid, [sweep_rows(p, d, grid, 0, grid.delta_n)])


# ---------------------------------------------------------------------------
# Attractor classification.


class AttractorKind(str, enum.Enum):
    FIXED_POINT = "fixed-point"
    LIMIT_CYCLE = "limit-cycle"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class AttractorVerdict:
    kind: AttractorKind
    amplitude: float
    period_estimate: float | None = None


def _autocorrelation(x: np.ndarray) -> np.ndarray:
    x = x - x.mean()
    n = len(x)
    c = np.correlate(x, x, mode="full")[n - 1:]
    if c[0] <= 0.0:
        return np.zeros(n)
    return c / c[0]


def _period_from_autocorrelation(x: np.ndarray, dt: float) -> float | None:
    """Lag of repeated autocorrelation peaks, if their spacing is stable to 10%."""
    c = _autocorrelation(x)
    n = len(c)
    interior = np.arange(1, n - 1)
    is_peak = (c[interior] > c[interior - 1]) & (c[interior] >= c[interior + 1])
    peaks = interior[is_peak & (c[interior] >= 0.25)]
    if len(peaks) == 0:
        return None
    base = int(peaks[0])
    keep = peaks[peaks <= 6 * base][:5]
    intervals = np.diff(np.concatenate(([0], keep)))
    mean = float(intervals.mean())
    if mean <= 0.0:
        return None
    if len(intervals) >= 2 and float(np.abs(intervals - mean).max()) > 0.1 * mean:
        return None
    return mean * dt


def classify_attractor(
    rec: TrajectoryRecord,
    transient_fraction: float = 0.5,
    amp_threshold: float = 0.02,
) -> AttractorVerdict:
    """Decide whether a trajectory settled to a fixed point or a limit cycle.

    Only the post-transient window is inspected.  Fixed point: every k_a
    component has peak-to-peak below threshold.  Limit cycle: amplitude above
    threshold and the autocorrelation of k_a's z component shows repeated
    peaks with spacing stable to 10%.  Anything else stays undetermined.
    """
    times = rec.times
    span = times[-1] - times[0]
    start = times[0] + transient_fraction * span
    post = rec.k_a[times >= start]
    post_t = times[times >= start]
    if len(post_t) < 8 or (post_t[-1] - post_t[0]) < 50.0:
        raise ValueError("record too short: need >= 50 time units post-transient")
    ptp = post.max(axis=0) - post.min(axis=0)
    amplitude = float(ptp.max())
    if float(ptp.max()) < amp_threshold:
        return AttractorVerdict(kind=AttractorKind.FIXED_POINT, amplitude=amplitude)
    dt_s = float(post_t[1] - post_t[0])
    period = _period_from_autocorrelation(post[:, 2], dt_s)
    if period is None:
        return AttractorVerdict(kind=AttractorKind.UNDETERMINED, amplitude=amplitude)
    return AttractorVerdict(kind=AttractorKind.LIMIT_CYCLE, amplitude=amplitude,
                            period_estimate=period)


# ---------------------------------------------------------------------------
# Named experiment presets (serializable to the CLI config format).

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Driving points marked on the sweep map: 1 red-detuned on the matching
#: circle, 2 blue-detuned on the circle, 3 blue-detuned near the circle.
DRIVING_POINTS = {
    1: (-_INV_SQRT2, _INV_SQRT2),
    2: (_INV_SQRT2, _INV_SQRT2),
    3: (0.35, 0.92),
}

_FIG1_DAMPING = {
    "damping.a.gamma1": 1e-2,     # 10 * g, g = 1e-3
    "damping.a.gamma_phi": 1e-6,
    "damping.a.n0": 10.0,
    "damping.b.gamma1": 1e-1,
    "damping.b.gamma_phi": 1e-5,
    "damping.b.n0": 1e-4,
}

_FIG2_DAMPING = {
    "damping.a.gamma1": 0.1,
    "damping.a.gamma_phi": 0.01,
    "damping.a.n0": 5e-4,
    "damping.b.gamma1": 1.0,
    "damping.b.gamma_phi": 0.1,
    "damping.b.n0": 1e-5,
}

_FIG3_DAMPING = {
    "damping.a.gamma1": 1e-3,
    "damping.a.gamma_phi": 1e-4,
    "damping.a.n0": 5e-4,
    "damping.b.gamma1": 1e-2,
    "damping.b.gamma_phi": 1e-3,
    "damping.b.n0": 1e-5,
}

PRESET_NAMES = (
    "fig1-sweep",
    "fig2-A1", "fig2-A2", "fig2-A3",
    "fig2-B1", "fig2-B2", "fig2-B3",
    "fig3-A", "fig3-B",
)


def experiment_preset(name: str) -> dict:
    """Full run configuration for a named experiment, as flat config keys."""
    if name == "fig1-sweep":
        cfg = {
            "command": "sweep",
            "model.g": 1e-3,
            "disentangle.family": "none",
        }
        cfg.update(_FIG1_DAMPING)
        return cfg
    if name.startswith("fig2-"):
        tag = name[len("fig2-"):]
        if len(tag) == 2 and tag[0] in "AB" and tag[1] in "123":
            delta, omega1 = DRIVING_POINTS[int(tag[1])]
            family = "corr-suppress" if tag[0] == "A" else "bloch-derank-a"
            cfg = {
                "command": "master",
                "model.delta": delta,
                "model.omega1": omega1,
                "model.g": 1.0,
                "disentangle.family": family,
                "disentangle.gamma_d": 0.5,
                "integrator.dt": 1e-3,
                "integrator.t_end": 200.0,
                "master.initial": "steady-linear",
            }
            cfg.update(_FIG2_DAMPING)
            return cfg
    if name in ("fig3-A", "fig3-B"):
        delta, omega1 = DRIVING_POINTS[2]
        cfg = {
            "command": "sde",
            "model.delta": delta,
            "model.omega1": omega1,
            "model.g": 100.0,
            "disentangle.family": "corr-suppress",
            "disentangle.gamma_d": 0.1 if name == "fig3-A" else 0.5,
            "integrator.dt": 1e-4,
            "integrator.t_end": 200.0,
            "integrator.seed": 7041,
            "sde.n_traj": 16,
            "sde.initial": "steady-dominant",
        }
        cfg.update(_FIG3_DAMPING)
        return cfg
    raise KeyError(f"unknown preset {name!r} (known: {', '.join(PRESET_NAMES)})")
