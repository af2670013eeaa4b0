"""Data-file writers: CSV sweep tables, NDJSON trajectories, JSON manifests.

All output is deterministic: floats are written with 17 significant digits
in CSV (scientific notation, '.' decimal) and via repr in JSON (null if
not finite); no timestamps or environment-dependent content anywhere.
"""

from __future__ import annotations

import json
import math
import shutil
from collections.abc import Iterable
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .dynamics import TrajectoryRecord
from .twospin import SweepGrid


SWEEP_COLUMNS = (
    ["delta", "omega1"]
    + [f"b_{i}{j}" for i in range(4) for j in range(4)]
    + ["tau_ab", "t_eff", "status"]
)

#: One CSV line: the 20 float columns ('%.16e' writes NaN as 'nan'), then status.
_SWEEP_LINE = ",".join(["%.16e"] * 20) + ",%s\n"


def write_sweep_rows(f: BinaryIO, grid: SweepGrid, start: int, bloch: np.ndarray,
                     tau: np.ndarray, t_eff: np.ndarray, status: np.ndarray) -> None:
    """The CSV lines of the ``sweep_rows`` arrays of Delta rows start.., as
    UTF-8 into the binary file f: all omega1 cells of a row in grid order,
    formatted and written one row at a time."""
    omega1s = grid.omega1_values
    ny = len(omega1s)
    row_format = _SWEEP_LINE * ny
    for i, dv in enumerate(grid.delta_values[start:start + len(bloch)]):
        cells = np.column_stack([np.full(ny, dv), omega1s, bloch[i].reshape(ny, 16), tau[i],
                                 t_eff[i], status[i].astype(object)])
        f.write((row_format % tuple(cells.ravel().tolist())).encode())


def write_sweep_csv(path: Path, blocks: Iterable[BinaryIO]) -> None:
    """The sweep table: the header, then the ``write_sweep_rows`` lines of
    consecutive row blocks that cover the grid, each block's file copied
    from its start."""
    with path.open("wb") as f:
        f.write((",".join(SWEEP_COLUMNS) + "\n").encode())
        for block in blocks:
            block.seek(0)
            shutil.copyfileobj(block, f)


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
        yield json.dumps(entry, allow_nan=False)


def write_trajectory_ndjson(path: Path, rec: TrajectoryRecord) -> None:
    path.write_text("\n".join(trajectory_lines(rec)) + "\n", encoding="utf-8")


def _null_if_not_finite(v):
    """v with every non-finite float, nested in dicts and lists, replaced by None."""
    if isinstance(v, dict):
        return {k: _null_if_not_finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_null_if_not_finite(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def write_json(path: Path, payload: dict) -> None:
    """A manifest or result document: sorted keys, two-space indent.  JSON has
    no NaN (RFC 8259), so a non-finite float (a value not measured) is null."""
    text = json.dumps(_null_if_not_finite(payload), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def matrix_json(m: np.ndarray) -> list[list[list[float]]]:
    return [[complex_pair(complex(v)) for v in row] for row in np.asarray(m)]
