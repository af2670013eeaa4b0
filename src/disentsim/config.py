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

``RunConfig`` holds the run objects, each built from its key section (a key's
last part is the field name), and every resolved setting by key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .dynamics import DampingParams, IntegratorConfig, SpinDamping
from .entangle import DisentanglementSpec, ThetaFamily
from .twospin import SweepGrid, TwoSpinParams, experiment_preset


class ConfigError(ValueError):
    """Invalid configuration document (syntax or domain)."""


COMMANDS = ("sweep", "master", "sde", "steady", "measures", "preset")

_FAMILIES = {f.value: f for f in ThetaFamily}


def _parse_bool(raw: str | bool) -> bool:
    if isinstance(raw, bool):
        return raw
    word = str(raw).lower()
    if word in ("true", "yes", "1"):
        return True
    if word in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


@dataclass(frozen=True)
class _Key:
    parse: Callable[[str], Any]
    default: Any
    check: Callable[[Any], str | None] = lambda v: None
    help: str = ""


def _nonneg(v):
    return None if v >= 0 else f"must be >= 0 (got {v!r})"


def _positive(v):
    return None if v > 0 else f"must be > 0 (got {v!r})"


def _choice(options):
    return lambda v: None if v in options else (
        f"must be one of {', '.join(options)} (got {v!r})")


def _min_int(lo):
    return lambda v: None if v >= lo else f"must be >= {lo} (got {v!r})"


def parse_state_psi(raw: str) -> np.ndarray:
    """The normalized two-qubit state vector of a ``state.psi`` value; ValueError
    unless it holds 4 finite complex amplitudes, not all zero.  Dividing by the
    largest real or imaginary part first keeps the norm from over/underflowing."""
    psi = np.array([complex(tok.strip().replace(" ", "")) for tok in raw.split(",")])
    scale = np.abs(psi.view(float)).max()
    if psi.size != 4 or not np.isfinite(scale) or scale == 0:
        raise ValueError("need 4 finite complex amplitudes, not all zero")
    psi = psi / scale
    return psi / np.linalg.norm(psi)


def _check_state_psi(raw: str) -> str | None:
    try:
        if raw:  # empty: the measures command takes the linear steady state
            parse_state_psi(raw)
    except ValueError as exc:
        return f"is invalid: {exc} (got {raw!r})"
    return None


SCHEMA: dict[str, _Key] = {
    "command": _Key(str, None, _choice(COMMANDS), "what to run"),
    "model.omega_a": _Key(float, 1.0, _positive, "reference Larmor frequency"),
    "model.delta": _Key(float, 0.0, help="drive detuning (units omega_a)"),
    "model.omega1": _Key(float, 0.0, _nonneg, "drive amplitude"),
    "model.g": _Key(float, 0.0, help="spin-spin coupling rate"),
    "damping.a.gamma1": _Key(float, 0.0, _nonneg, "spin-a relaxation rate"),
    "damping.a.gamma_phi": _Key(float, 0.0, _nonneg, "spin-a dephasing rate"),
    "damping.a.n0": _Key(float, 0.0, _nonneg, "spin-a thermal occupation"),
    "damping.b.gamma1": _Key(float, 0.0, _nonneg, "spin-b relaxation rate"),
    "damping.b.gamma_phi": _Key(float, 0.0, _nonneg, "spin-b dephasing rate"),
    "damping.b.n0": _Key(float, 0.0, _nonneg, "spin-b thermal occupation"),
    "disentangle.family": _Key(str, "none", _choice(tuple(_FAMILIES)),
                               "nonlinear operator family: " + ", ".join(_FAMILIES)),
    "disentangle.gamma_d": _Key(float, 0.0, _nonneg, "disentanglement rate"),
    "disentangle.gamma_h": _Key(float, 0.0, _nonneg, "thermalization rate"),
    "disentangle.beta": _Key(float, 1.0, _positive, "inverse temperature"),
    "integrator.dt": _Key(float, 1e-3, _positive, "time step (units 1/omega_a)"),
    "integrator.t_end": _Key(float, 200.0, _positive, "duration"),
    "integrator.seed": _Key(int, 0, _nonneg, "RNG seed for stochastic runs"),
    "integrator.log_floor": _Key(float, 1e-13, _positive,
                                 "relative eigenvalue floor in matrix logs"),
    "integrator.sample_every": _Key(int, 0, _nonneg, "record every N steps (0 = auto)"),
    "sweep.delta_min": _Key(float, -2.0, help="sweep detuning range start"),
    "sweep.delta_max": _Key(float, 2.0, help="sweep detuning range end"),
    "sweep.delta_n": _Key(int, 81, _min_int(2), "sweep detuning points"),
    "sweep.omega1_min": _Key(float, 2.0 / 81.0, _positive, "sweep amplitude range start"),
    "sweep.omega1_max": _Key(float, 2.0, _positive, "sweep amplitude range end"),
    "sweep.omega1_n": _Key(int, 81, _min_int(2), "sweep amplitude points"),
    "sde.n_traj": _Key(int, 2000, _min_int(1), "ensemble size"),
    "sde.emit_trajectories": _Key(int, 4, _nonneg, "individual trajectory files to write"),
    "sde.initial": _Key(str, "steady-dominant", _choice(("steady-dominant", "ground")),
                        "initial pure state for stochastic runs"),
    "master.initial": _Key(str, "steady-linear",
                           _choice(("steady-linear", "maximally-mixed", "ground")),
                           "initial density matrix for master-equation runs"),
    "attractor.transient_fraction": _Key(float, 0.5,
                                         lambda v: None if 0.0 <= v < 1.0 else
                                         f"must be in [0, 1) (got {v!r})",
                                         "fraction of the record discarded before classification"),
    "attractor.amp_threshold": _Key(float, 0.02, _positive,
                                    "peak-to-peak threshold separating fixed points from cycles"),
    "state.psi": _Key(str, "", _check_state_psi,
                      "comma-separated complex amplitudes (measures command)"),
    "output.dir": _Key(str, "runs/out", help="output directory"),
    "output.plots": _Key(_parse_bool, True, help="emit SVG plots"),
}

REQUIRED_KEYS = ("command",)


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run configuration; ``config[key]`` is a resolved setting."""

    command: str
    model: TwoSpinParams
    damping: DampingParams
    disentangle: DisentanglementSpec
    integrator: IntegratorConfig
    sweep: SweepGrid
    values: tuple[tuple[str, Any], ...]

    def __getitem__(self, key: str) -> Any:
        return self.flat()[key]

    def flat(self) -> dict[str, Any]:
        """The resolved flat key-value form (round-trips through parse_config)."""
        return dict(self.values)


def _coerce(key: str, raw: Any, line: int | None = None) -> Any:
    spec = SCHEMA[key]
    where = f" (line {line})" if line is not None else ""
    if spec.parse is int and isinstance(raw, float) and not raw.is_integer():
        raise ConfigError(f"bad value for {key}{where}: {raw!r} is not an integer")
    try:
        if isinstance(raw, bool) and spec.parse in (int, float):
            raise TypeError("a bool is not a number")
        value = spec.parse(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"bad value for {key}{where}: {raw!r}") from None
    finite = spec.parse is not float or np.isfinite(value)
    err = spec.check(value) if finite else f"must be finite (got {value!r})"
    if err:
        raise ConfigError(f"{key} {err}{where}")
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
    pending = {k: v if isinstance(v, tuple) else (v, None) for k, v in entries.items()}

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

    values = {key: _coerce(key, *pending[key]) if key in pending else spec.default
              for key, spec in SCHEMA.items()}

    family = _FAMILIES[values["disentangle.family"]]
    if family is ThetaFamily.NONE and values["disentangle.gamma_d"] != 0.0:
        raise ConfigError("disentangle.family = none forces disentangle.gamma_d = 0")
    t_end, dt = values["integrator.t_end"], values["integrator.dt"]
    if t_end < dt:
        raise ConfigError(f"integrator.t_end = {t_end!r} must be at least one step "
                          f"of integrator.dt = {dt!r}")
    if not np.isfinite(t_end / dt):  # the step count overflows a float
        raise ConfigError(f"integrator.t_end = {t_end!r} over integrator.dt = {dt!r} "
                          "is not a finite number of steps")

    def section(prefix: str, **given: Any) -> dict[str, Any]:
        # the last part of a section key is its run object's field name
        return {**{k[len(prefix):]: v for k, v in values.items() if k.startswith(prefix)},
                **given}

    try:
        integrator = IntegratorConfig(**section("integrator."))
        model = TwoSpinParams(**section("model."))
        damping = DampingParams(a=SpinDamping(**section("damping.a.")),
                                b=SpinDamping(**section("damping.b.")))
        disentangle = DisentanglementSpec(**section("disentangle.", family=family))
        sweep = SweepGrid(**section("sweep."))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    return RunConfig(command=values["command"], model=model, damping=damping,
                     disentangle=disentangle, integrator=integrator, sweep=sweep,
                     values=tuple(sorted(values.items())))


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
