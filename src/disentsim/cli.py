"""Command-line front end.

Loads a config document (file and/or preset), applies flag overrides, runs
the requested command and writes a manifest plus data files (CSV / NDJSON /
SVG) into the output directory.

Exit codes: 0 success, 2 configuration error, 3 numerical-health abort,
4 I/O or worker-process error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import tempfile
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import __version__, bases, entangle, svgplot
from .config import (ConfigError, RunConfig, parse_config_dict, parse_document, parse_state_psi,
                     render_config, schema_help)
from .dynamics import (
    MIN_BLOCK,
    DegenerateSteadyStateError,
    StateHealthError,
    TrajectoryRecord,
    block_bounds,
    ensemble_mean_record,
    integrate_master,
    integrate_sle_ensemble,
    run_in_blocks,
    steady_state,
    usable_cores,
)
from .output import (
    matrix_json,
    write_json,
    write_sweep_csv,
    write_sweep_rows,
    write_trajectory_ndjson,
)
from .qcore import QuantumState
from .twospin import (
    SweepResult,
    TemperatureDomainError,
    build_hamiltonian,
    classify_attractor,
    effective_temperature,
    rabi_frequency,
    sweep_rows,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _initial_density(config: RunConfig, h: np.ndarray) -> np.ndarray:
    kind = config["master.initial"]
    if kind == "steady-linear":
        return steady_state(h, config.damping)
    if kind == "maximally-mixed":
        return np.eye(4, dtype=complex) / 4.0
    return np.diag(np.array([0, 0, 0, 1], dtype=complex))  # "ground"; no other kind parses


def _initial_psi(config: RunConfig, h: np.ndarray) -> np.ndarray:
    if config["sde.initial"] == "ground":
        return np.array([0, 0, 0, 1], dtype=complex)
    # "steady-dominant"; parse_config_dict rejects other kinds
    rho = steady_state(h, config.damping)
    psi = np.linalg.eigh(rho)[1][:, -1]
    # fix the global phase so runs are reproducible across platforms
    k = int(np.argmax(np.abs(psi)))
    psi = psi * np.exp(-1j * np.angle(psi[k]))
    return psi


def _bloch_plots(out: Path, rec: TrajectoryRecord, prefix: str, outputs: list[str]) -> None:
    for spin, arr in (("a", rec.k_a), ("b", rec.k_b)):
        name = f"{prefix}bloch_{spin}.svg"
        svg = svgplot.line_svg(
            rec.times,
            [(f"k_{spin},x", arr[:, 0]), (f"k_{spin},y", arr[:, 1]), (f"k_{spin},z", arr[:, 2])],
            title=f"spin {spin} Bloch components",
            xlabel="t (1/omega_a)", ylabel=f"k_{spin}",
        )
        (out / name).write_text(svg, encoding="utf-8")
        outputs.append(name)
    name = f"{prefix}measures.svg"
    svg = svgplot.line_svg(
        rec.times,
        [("tau_ab", rec.tau_ab), ("K", rec.k_entropy), ("L", rec.l_entropy),
         ("purity", rec.purity)],
        title="entanglement measures", xlabel="t (1/omega_a)", ylabel="value",
    )
    (out / name).write_text(svg, encoding="utf-8")
    outputs.append(name)


def _run_master(config: RunConfig, out: Path, outputs: list[str]) -> dict:
    h = build_hamiltonian(config.model)
    rho0 = _initial_density(config, h)
    initial = QuantumState(rho=rho0)
    rec = integrate_master(initial, h, config.disentangle, config.damping,
                           config.integrator)
    write_trajectory_ndjson(out / "trajectory.ndjson", rec)
    outputs.append("trajectory.ndjson")
    if config["output.plots"]:
        _bloch_plots(out, rec, "", outputs)
    try:
        verdict = classify_attractor(rec, config["attractor.transient_fraction"],
                                     config["attractor.amp_threshold"])
        attractor = {
            "kind": verdict.kind.value,
            "amplitude": verdict.amplitude,
            "period_estimate": verdict.period_estimate,
        }
    except ValueError as exc:
        attractor = {"kind": "not-classified", "reason": str(exc)}
    return {
        "attractor": attractor,
        "final_k_a": [float(v) for v in rec.k_a[-1]],
        "final_k_b": [float(v) for v in rec.k_b[-1]],
    }


def _run_sde(config: RunConfig, out: Path, outputs: list[str], workers: int) -> dict:
    h = build_hamiltonian(config.model)
    psi0 = _initial_psi(config, h)
    mean_rho, records = integrate_sle_ensemble(psi0, h, config.disentangle, config.damping,
                                               config.integrator, config["sde.n_traj"], workers)
    mean_rec = ensemble_mean_record(records)
    write_trajectory_ndjson(out / "trajectory_mean.ndjson", mean_rec)
    outputs.append("trajectory_mean.ndjson")
    for k in range(min(config["sde.emit_trajectories"], config["sde.n_traj"])):
        name = f"trajectory_{k:03d}.ndjson"
        write_trajectory_ndjson(out / name, records[k])
        outputs.append(name)
    if config["output.plots"]:
        _bloch_plots(out, mean_rec, "mean_", outputs)
        if config["sde.emit_trajectories"] > 0:
            _bloch_plots(out, records[0], "traj000_", outputs)
    return {
        "n_traj": config["sde.n_traj"],
        "mean_rho_final": matrix_json(mean_rho),
        "final_mean_k_a": [float(v) for v in mean_rec.k_a[-1]],
        "final_mean_k_b": [float(v) for v in mean_rec.k_b[-1]],
    }


#: Fewest sweep cells (Delta rows times omega1 points) a block of rows takes;
#: the heat maps split into as many blocks as the rows.  A split costs a few
#: ms (forks, pipes, the arrays sent back), so a small sweep gains little or
#: loses.  On the fig1 model (2-core x86-64, one BLAS thread, medians of 40
#: alternating runs), two processes against one took, without plots: 14x14
#: cells 20.8 against 17.9 ms, 18x18 25.8 against 26.1 ms, 20x20 28.7
#: against 29.1 ms, 24x24 34.5 against 40.9 ms and 30x30 43.8 against 58.7
#: ms; with plots, 14x14 43.5 against 40.8 ms and 20x20 55.8 against 68.7 ms.
MIN_SWEEP_CELLS = 200


def _sweep_row_block(config: RunConfig, scratch: list[BinaryIO], i: int, start: int,
                     stop: int) -> tuple[np.ndarray, ...]:
    """The ``sweep_rows`` arrays of Delta rows start..stop-1; their CSV lines
    go to scratch[i]."""
    rows = sweep_rows(config.model, config.damping, config.sweep, start, stop)
    write_sweep_rows(scratch[i], config.sweep, start, *rows)
    return rows


def _heatmaps(result: SweepResult) -> dict[str, np.ndarray]:
    """The quantities of the sweep heat maps, by name, in output order."""
    maps = {f"b_{a}{b}": result.bloch[:, :, a, b] for a in range(4) for b in range(4)}
    maps["tau_ab"] = result.tau_ab
    maps["t_eff"] = result.t_eff
    return maps


def _write_heatmaps(out: Path, result: SweepResult, omega_a: float, _i: int, start: int,
                    stop: int) -> None:
    """Heat maps start..stop-1 of ``_heatmaps``, each written to NAME.svg."""
    x = result.grid.delta_values
    y = result.grid.omega1_values
    for name, vals in list(_heatmaps(result).items())[start:stop]:
        svg = svgplot.heatmap_svg(vals, x, y, title=name, xlabel="delta/omega_a",
                                  ylabel="omega1/omega_a", overlay_circle=omega_a)
        (out / f"{name}.svg").write_text(svg, encoding="utf-8")


def _run_sweep_cmd(config: RunConfig, out: Path, outputs: list[str], workers: int) -> dict:
    """The sweep in two phases of blocks, as many as ``block_bounds`` gives
    Delta rows of at least MIN_SWEEP_CELLS cells: the rows, then the heat maps.

    Each row block writes its CSV lines to its own unnamed, unbuffered
    scratch file, opened here before any worker is forked and written only
    by that block, so that the lines are neither held in memory nor sent
    back over a pipe.  sweep.csv is written from them once every block is
    done, and the scratch files are then closed (and gone): nothing is
    written when a row aborts, and no file is open when the heat-map workers
    are forked.  A failed heat-map block removes sweep.csv and the maps."""
    grid = config.sweep
    bounds = block_bounds(grid.delta_n, workers, -(-MIN_SWEEP_CELLS // grid.omega1_n), 1)
    with contextlib.ExitStack() as stack:
        scratch = [stack.enter_context(tempfile.TemporaryFile(dir=out, buffering=0))
                   for _ in bounds]
        parts = run_in_blocks(functools.partial(_sweep_row_block, config, scratch), bounds,
                              lambda start, stop: f"delta rows {start}..{stop - 1}")
        write_sweep_csv(out / "sweep.csv", scratch)
    outputs.append("sweep.csv")
    result = SweepResult.from_rows(config.model, config.damping, grid, parts)
    if config["output.plots"]:
        names = list(_heatmaps(result))
        try:
            run_in_blocks(functools.partial(_write_heatmaps, out, result, config.model.omega_a),
                          block_bounds(len(names), len(bounds), 1, 1),
                          lambda start, stop: "heat maps " + ", ".join(names[start:stop]))
        except Exception:  # as after a row abort, no output stays without a manifest
            for name in ["sweep.csv"] + [f"{name}.svg" for name in names]:
                (out / name).unlink(missing_ok=True)
            raise
        outputs.extend(f"{name}.svg" for name in names)
    i, j = result.argmax_tau()
    dv = float(result.grid.delta_values[i])
    w1 = float(result.grid.omega1_values[j])
    tau = float(result.tau_ab[i, j])  # NaN only when no cell has a finite tau
    return {
        "tau_argmax": None if np.isnan(tau) else {
            "delta": dv, "omega1": w1,
            "omega_r": float(np.hypot(dv, w1)),
            "tau_ab": tau,
        },
        "base_temperature": result.base_temperature,
        "cells_failed": int((result.status != "").sum()),
    }


def _run_steady(config: RunConfig, out: Path, outputs: list[str]) -> dict:
    h = build_hamiltonian(config.model)
    rho = steady_state(h, config.damping)
    state = QuantumState(rho=rho)
    b = bases.bloch_matrix(state)
    k_a, k_b = bases.single_spin_bloch_vectors(b)
    rep = entangle.measure_report(state, config.integrator.log_floor)
    try:
        teff = effective_temperature(float(k_a[2]), config.model.omega_a)
    except TemperatureDomainError:
        teff = float("nan")
    payload = {
        "rho": matrix_json(rho),
        "bloch_matrix": [[float(v) for v in row] for row in b],
        "k_a": [float(v) for v in k_a],
        "k_b": [float(v) for v in k_b],
        "measures": rep.__dict__,
        "t_eff": teff,
        "rabi_frequency": rabi_frequency(config.model),
    }
    write_json(out / "steady.json", payload)
    outputs.append("steady.json")
    return {"t_eff": teff, "tau_ab": rep.tau_ab}


def _run_measures(config: RunConfig, out: Path, outputs: list[str]) -> dict:
    if config["state.psi"]:
        psi = parse_state_psi(config["state.psi"])  # checked by parse_config_dict
        state = QuantumState.pure(psi)
        extra = {"weyl_t2": entangle.weyl_t2_expectation(state),
                 "delta_pure": entangle.delta_measure(psi)}
    else:
        h = build_hamiltonian(config.model)
        state = QuantumState(rho=steady_state(h, config.damping))
        extra = {}
    rep = entangle.measure_report(state, config.integrator.log_floor)
    payload = {"measures": rep.__dict__, **extra}
    write_json(out / "measures.json", payload)
    outputs.append("measures.json")
    return payload["measures"]


def execute(config: RunConfig, workers: int = 1) -> dict:
    """Run a validated config; returns the manifest contents.  ``workers``
    caps the processes a stochastic ensemble or a sweep runs in; no output
    depends on it."""
    out = Path(config["output.dir"])
    out.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []
    if config.command == "master":
        results = _run_master(config, out, outputs)
    elif config.command == "sde":
        results = _run_sde(config, out, outputs, workers)
    elif config.command == "sweep":
        results = _run_sweep_cmd(config, out, outputs, workers)
    elif config.command == "steady":
        results = _run_steady(config, out, outputs)
    elif config.command == "measures":
        results = _run_measures(config, out, outputs)
    else:  # "preset"; parse_config_dict rejects any other command
        (out / "config.txt").write_text(render_config(config), encoding="utf-8")
        outputs.append("config.txt")
        results = {}
    manifest = {
        "tool": "disentsim",
        "version": __version__,
        "command": config.command,
        "config": config.flat(),
        "outputs": sorted(outputs),
        "results": results,
    }
    write_json(out / "manifest.json", manifest)
    return manifest


def _worker_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least one process, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disentsim",
        description="Nonlinear open-quantum-system simulator for driven two-spin "
                    "dynamics with disentanglement drives.",
        epilog="configuration keys:\n" + schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", type=Path, help="config document path")
    parser.add_argument("--preset", help="named experiment preset")
    parser.add_argument("--seed", type=int, help="override integrator.seed")
    parser.add_argument("--out", help="override output.dir")
    parser.add_argument("--threads", type=_worker_count, default=usable_cores(),
                        help="processes a stochastic ensemble or a sweep may run in "
                             "(default: the cores this process may use); only ensembles "
                             f"of at least {2 * MIN_BLOCK} trajectories and sweeps of at "
                             f"least {2 * MIN_SWEEP_CELLS} cells split (a sweep in blocks "
                             f"of whole Delta rows, at least {MIN_SWEEP_CELLS} cells each), "
                             "and on the same machine and BLAS the output bytes never "
                             "depend on it")
    parser.add_argument("--dt", type=float, help="override integrator.dt")
    parser.add_argument("--t-end", type=float, help="override integrator.t_end")
    parser.add_argument("--no-plots", action="store_true", help="skip SVG output")
    parser.add_argument("--version", action="version", version=__version__)
    return parser


def _load_entries(args) -> dict:
    entries: dict = {}
    if args.preset:
        entries["preset"] = args.preset
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config} is not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                              f"at offset {exc.start}") from None
        file_entries = parse_document(text)
        if "preset" in file_entries and args.preset:
            raise ConfigError("preset given both on the command line and in the config file")
        entries.update(file_entries)
    if not entries:
        raise ConfigError("nothing to run: pass --config PATH and/or --preset NAME")
    if args.seed is not None:
        entries["integrator.seed"] = args.seed
    if args.dt is not None:
        entries["integrator.dt"] = args.dt
    if args.t_end is not None:
        entries["integrator.t_end"] = args.t_end
    if args.out is not None:
        entries["output.dir"] = args.out
    if args.no_plots:
        entries["output.plots"] = False
    return entries


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config_dict(_load_entries(args))
        manifest = execute(config, args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StateHealthError, DegenerateSteadyStateError, TemperatureDomainError) as exc:
        print(f"numerical-health abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    if config.command == "preset":
        sys.stdout.write(render_config(config))
    else:
        print(f"wrote {len(manifest['outputs'])} file(s) to {config['output.dir']}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
