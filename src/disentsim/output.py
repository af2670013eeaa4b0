"""Data-file writers: CSV sweep tables, NDJSON trajectories, JSON manifests.

All output is deterministic: floats are written with 17 significant digits
in CSV (scientific notation, '.' decimal) and via repr in JSON; no
timestamps or environment-dependent content anywhere.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dynamics import TrajectoryRecord
from .twospin import SweepResult


SWEEP_COLUMNS = (
    ["delta", "omega1"]
    + [f"b_{i}{j}" for i in range(4) for j in range(4)]
    + ["tau_ab", "t_eff", "status"]
)

#: One CSV line: the 20 float columns ('%.16e' writes NaN as 'nan'), then status.
_SWEEP_LINE = ",".join(["%.16e"] * 20) + ",%s\n"


def write_sweep_csv(path: Path, result: SweepResult) -> None:
    """The sweep table in grid order, formatted and written one Delta row
    (all omega1 cells) at a time."""
    omega1s = result.grid.omega1_values
    ny = len(omega1s)
    row_format = _SWEEP_LINE * ny
    with path.open("w", encoding="utf-8") as f:
        f.write(",".join(SWEEP_COLUMNS) + "\n")
        for i, dv in enumerate(result.grid.delta_values):
            cells = np.column_stack([np.full(ny, dv), omega1s, result.bloch[i].reshape(ny, 16),
                                     result.tau_ab[i], result.t_eff[i],
                                     result.status[i].astype(object)])
            f.write(row_format % tuple(cells.ravel().tolist()))


def trajectory_lines(rec: TrajectoryRecord):
    """NDJSON lines, one sample per line, stable field order; None is null."""
    for i in range(rec.n_samples):
        entry = {
            "t": float(rec.times[i]),
            "k_a": [float(v) for v in rec.k_a[i]],
            "k_b": [float(v) for v in rec.k_b[i]],
            "measures": {
                "k_entropy": float(rec.k_entropy[i]),
                "l_entropy": float(rec.l_entropy[i]),
                "delta": float(rec.delta[i]),
                "tau_ab": float(rec.tau_ab[i]),
                "purity": float(rec.purity[i]),
            },
            "diagnostics": {
                "trace_err": float(rec.trace_err[i]),
                "herm_err": None if rec.herm_err is None else float(rec.herm_err[i]),
                "min_eig": None if rec.min_eig is None else float(rec.min_eig[i]),
            },
        }
        yield json.dumps(entry)


def write_trajectory_ndjson(path: Path, rec: TrajectoryRecord) -> None:
    path.write_text("\n".join(trajectory_lines(rec)) + "\n", encoding="utf-8")


def write_json(path: Path, payload: dict) -> None:
    """A manifest or result document: sorted keys, two-space indent."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def matrix_json(m: np.ndarray) -> list[list[list[float]]]:
    return [[complex_pair(complex(v)) for v in row] for row in np.asarray(m)]
