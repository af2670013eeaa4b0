"""Run configuration: a flat key-value document with dotted sections.

Documents look like::

    command = master
    model.delta = 0.7071
    damping.a.gamma1 = 0.1
    disentangle.family = bloch-derank-a
    disentangle.gamma_d = 0.5

Lines starting with ``#`` are comments.  A ``preset = NAME`` key expands a
named experiment first; any further keys override the expanded values.
Unknown keys and domain violations are rejected with the offending key and
line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .dynamics import DampingParams, IntegratorConfig, SpinDamping
from .entangle import DisentanglementSpec, ThetaFamily
from .twospin import SweepGrid, TwoSpinParams, experiment_preset


class ConfigError(ValueError):
    """Invalid configuration document (syntax or domain)."""


COMMANDS = ("sweep", "master", "sde", "steady", "measures", "preset")

_FAMILIES = {f.value: f for f in ThetaFamily}


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


@dataclass(frozen=True)
class _Key:
    parse: Callable[[str], Any]
    default: Any
    check: Callable[[Any], str | None] = lambda v: None
    help: str = ""


def _nonneg(name):
    return lambda v: None if v >= 0 else f"{name} must be >= 0 (got {v!r})"


def _positive(name):
    return lambda v: None if v > 0 else f"{name} must be > 0 (got {v!r})"


def _choice(name, options):
    return lambda v: None if v in options else (
        f"{name} must be one of {', '.join(options)} (got {v!r})")


def _min_int(name, lo):
    return lambda v: None if v >= lo else f"{name} must be >= {lo} (got {v!r})"


def parse_state_psi(raw: str) -> np.ndarray:
    """The normalized two-qubit state vector of a ``state.psi`` value; ValueError
    unless it holds 4 finite complex amplitudes, not all zero."""
    psi = np.array([complex(tok.strip().replace(" ", "")) for tok in raw.split(",")])
    nrm = np.linalg.norm(psi)
    if psi.size != 4 or not np.isfinite(psi).all() or nrm == 0:
        raise ValueError("need 4 finite complex amplitudes, not all zero")
    return psi / nrm


def _check_state_psi(raw: str) -> str | None:
    try:
        if raw:  # empty: the measures command takes the linear steady state
            parse_state_psi(raw)
    except ValueError as exc:
        return f"state.psi: {exc} (got {raw!r})"
    return None


SCHEMA: dict[str, _Key] = {
    "command": _Key(str, None, _choice("command", COMMANDS), "what to run"),
    "model.omega_a": _Key(float, 1.0, _positive("model.omega_a"), "reference Larmor frequency"),
    "model.delta": _Key(float, 0.0, help="drive detuning (units omega_a)"),
    "model.omega1": _Key(float, 0.0, _nonneg("model.omega1"), "drive amplitude"),
    "model.g": _Key(float, 0.0, help="spin-spin coupling rate"),
    "damping.a.gamma1": _Key(float, 0.0, _nonneg("damping.a.gamma1"), "spin-a relaxation rate"),
    "damping.a.gamma_phi": _Key(float, 0.0, _nonneg("damping.a.gamma_phi"), "spin-a dephasing rate"),
    "damping.a.n0": _Key(float, 0.0, _nonneg("damping.a.n0"), "spin-a thermal occupation"),
    "damping.b.gamma1": _Key(float, 0.0, _nonneg("damping.b.gamma1"), "spin-b relaxation rate"),
    "damping.b.gamma_phi": _Key(float, 0.0, _nonneg("damping.b.gamma_phi"), "spin-b dephasing rate"),
    "damping.b.n0": _Key(float, 0.0, _nonneg("damping.b.n0"), "spin-b thermal occupation"),
    "disentangle.family": _Key(str, "none", _choice("disentangle.family", tuple(_FAMILIES)),
                               "nonlinear operator family: " + ", ".join(_FAMILIES)),
    "disentangle.gamma_d": _Key(float, 0.0, _nonneg("disentangle.gamma_d"), "disentanglement rate"),
    "disentangle.gamma_h": _Key(float, 0.0, _nonneg("disentangle.gamma_h"), "thermalization rate"),
    "disentangle.beta": _Key(float, 1.0, _positive("disentangle.beta"), "inverse temperature"),
    "integrator.dt": _Key(float, 1e-3, _positive("integrator.dt"), "time step (units 1/omega_a)"),
    "integrator.t_end": _Key(float, 200.0, _positive("integrator.t_end"), "duration"),
    "integrator.seed": _Key(int, 0, help="RNG seed for stochastic runs"),
    "integrator.log_floor": _Key(float, 1e-13, _positive("integrator.log_floor"),
                                 "relative eigenvalue floor in matrix logs"),
    "integrator.sample_every": _Key(int, 0, _nonneg("integrator.sample_every"),
                                    "record every N steps (0 = auto)"),
    "sweep.delta_min": _Key(float, -2.0, help="sweep detuning range start"),
    "sweep.delta_max": _Key(float, 2.0, help="sweep detuning range end"),
    "sweep.delta_n": _Key(int, 81, _min_int("sweep.delta_n", 2), "sweep detuning points"),
    "sweep.omega1_min": _Key(float, 2.0 / 81.0, _positive("sweep.omega1_min"),
                             "sweep amplitude range start"),
    "sweep.omega1_max": _Key(float, 2.0, _positive("sweep.omega1_max"), "sweep amplitude range end"),
    "sweep.omega1_n": _Key(int, 81, _min_int("sweep.omega1_n", 2), "sweep amplitude points"),
    "sde.n_traj": _Key(int, 2000, _min_int("sde.n_traj", 1), "ensemble size"),
    "sde.emit_trajectories": _Key(int, 4, _nonneg("sde.emit_trajectories"),
                                  "individual trajectory files to write"),
    "sde.initial": _Key(str, "steady-dominant",
                        _choice("sde.initial", ("steady-dominant", "ground")),
                        "initial pure state for stochastic runs"),
    "master.initial": _Key(str, "steady-linear",
                           _choice("master.initial", ("steady-linear", "maximally-mixed", "ground")),
                           "initial density matrix for master-equation runs"),
    "attractor.transient_fraction": _Key(float, 0.5,
                                         lambda v: None if 0.0 <= v < 1.0 else
                                         f"attractor.transient_fraction must be in [0, 1) (got {v!r})",
                                         "fraction of the record discarded before classification"),
    "attractor.amp_threshold": _Key(float, 0.02, _positive("attractor.amp_threshold"),
                                    "peak-to-peak threshold separating fixed points from cycles"),
    "state.psi": _Key(str, "", _check_state_psi,
                      "comma-separated complex amplitudes (measures command)"),
    "output.dir": _Key(str, "runs/out", help="output directory"),
    "output.plots": _Key(_parse_bool, True, help="emit SVG plots"),
}

REQUIRED_KEYS = ("command",)


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run configuration."""

    command: str
    model: TwoSpinParams
    damping: DampingParams
    disentangle: DisentanglementSpec
    integrator: IntegratorConfig
    sweep: SweepGrid
    n_traj: int
    emit_trajectories: int
    sde_initial: str
    master_initial: str
    transient_fraction: float
    amp_threshold: float
    state_psi: str
    out_dir: str
    plots: bool
    raw: tuple[tuple[str, Any], ...] = field(default=(), compare=False, repr=False)

    def flat(self) -> dict[str, Any]:
        """The resolved flat key-value form (round-trips through parse_config)."""
        return dict(self.raw)


def _coerce(key: str, raw: Any, line: int | None = None) -> Any:
    spec = SCHEMA[key]
    where = f" (line {line})" if line is not None else ""
    if isinstance(raw, str):
        try:
            value = spec.parse(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"bad value for {key}{where}: {raw!r}") from None
    else:
        value = spec.parse(str(raw)) if spec.parse in (str,) else raw
        if spec.parse is float:
            value = float(raw)
        elif spec.parse is int:
            if isinstance(raw, float) and raw != int(raw):
                raise ConfigError(f"bad value for {key}{where}: {raw!r} is not an integer")
            value = int(raw)
        elif spec.parse is _parse_bool and not isinstance(raw, bool):
            value = _parse_bool(str(raw))
    err = spec.check(value)
    if err:
        raise ConfigError(f"{err}{where}")
    return value


def parse_document(text: str) -> dict[str, tuple[Any, int]]:
    """Parse the key-value syntax; values stay raw strings keyed by line."""
    entries: dict[str, tuple[Any, int]] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"syntax error on line {ln}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"syntax error on line {ln}: empty key or value")
        entries[key] = (value, ln)
    return entries


def parse_config_dict(entries: dict[str, Any]) -> RunConfig:
    """Validate a flat mapping (values may be strings or already typed)."""
    pending: dict[str, tuple[Any, int | None]] = {}
    for key, value in entries.items():
        if isinstance(value, tuple):
            pending[key] = value
        else:
            pending[key] = (value, None)

    if "preset" in pending:
        name, line = pending.pop("preset")
        try:
            expanded = experiment_preset(str(name))
        except KeyError as exc:
            where = f" (line {line})" if line is not None else ""
            raise ConfigError(f"{exc.args[0]}{where}") from None
        merged = {k: (v, None) for k, v in expanded.items()}
        merged.update(pending)
        pending = merged

    unknown = [k for k in pending if k not in SCHEMA]
    if unknown:
        raise ConfigError(f"unknown configuration key(s): {', '.join(sorted(unknown))}")

    missing = [k for k in REQUIRED_KEYS if k not in pending]
    if missing:
        raise ConfigError(
            "missing required key(s): " + ", ".join(missing)
            + " (a minimal document is 'command = steady' or 'preset = fig1-sweep')"
        )

    values: dict[str, Any] = {}
    for key, spec in SCHEMA.items():
        if key in pending:
            raw, line = pending[key]
            values[key] = _coerce(key, raw, line)
        else:
            values[key] = spec.default

    family = _FAMILIES[values["disentangle.family"]]
    if family is ThetaFamily.NONE and values["disentangle.gamma_d"] != 0.0:
        raise ConfigError("disentangle.family = none forces disentangle.gamma_d = 0")

    command = values["command"]
    method = "euler-maruyama" if command == "sde" else "rk4"
    try:
        integrator = IntegratorConfig(
            dt=values["integrator.dt"],
            t_end=values["integrator.t_end"],
            method=method,
            seed=values["integrator.seed"],
            log_floor=values["integrator.log_floor"],
            sample_every=values["integrator.sample_every"],
        )
        model = TwoSpinParams(
            delta=values["model.delta"],
            omega1=values["model.omega1"],
            g=values["model.g"],
            omega_a=values["model.omega_a"],
        )
        damping = DampingParams(
            a=SpinDamping(values["damping.a.gamma1"], values["damping.a.gamma_phi"],
                          values["damping.a.n0"]),
            b=SpinDamping(values["damping.b.gamma1"], values["damping.b.gamma_phi"],
                          values["damping.b.n0"]),
        )
        disentangle = DisentanglementSpec(
            family=family,
            gamma_d=values["disentangle.gamma_d"],
            gamma_h=values["disentangle.gamma_h"],
            beta=values["disentangle.beta"],
        )
        grid = SweepGrid(
            delta_min=values["sweep.delta_min"], delta_max=values["sweep.delta_max"],
            delta_n=values["sweep.delta_n"],
            omega1_min=values["sweep.omega1_min"], omega1_max=values["sweep.omega1_max"],
            omega1_n=values["sweep.omega1_n"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    raw = tuple(sorted(values.items()))
    return RunConfig(
        command=command,
        model=model,
        damping=damping,
        disentangle=disentangle,
        integrator=integrator,
        sweep=grid,
        n_traj=values["sde.n_traj"],
        emit_trajectories=values["sde.emit_trajectories"],
        sde_initial=values["sde.initial"],
        master_initial=values["master.initial"],
        transient_fraction=values["attractor.transient_fraction"],
        amp_threshold=values["attractor.amp_threshold"],
        state_psi=values["state.psi"],
        out_dir=values["output.dir"],
        plots=values["output.plots"],
        raw=raw,
    )


def parse_config(text: str) -> RunConfig:
    return parse_config_dict(parse_document(text))


def render_config(config: RunConfig) -> str:
    """Config document that reproduces ``config`` exactly through parse_config.

    Keys holding an empty string (unset optional text values) are omitted;
    re-parsing restores their defaults.
    """
    lines = []
    for key, value in config.flat().items():
        if isinstance(value, str) and value == "":
            continue
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def schema_help() -> str:
    """Human-readable key table for --help."""
    rows = []
    for key, spec in SCHEMA.items():
        default = "(required)" if spec.default is None else repr(spec.default)
        rows.append(f"  {key:38s} default {default:12s} {spec.help}")
    return "\n".join(rows)
