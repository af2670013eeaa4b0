import io

import numpy as np

from disentsim.dynamics import DampingParams
from disentsim.output import SWEEP_COLUMNS, write_sweep_csv, write_sweep_rows
from disentsim.twospin import SweepGrid, SweepResult, TwoSpinParams


def _fmt17(x: float) -> str:
    x = float(x)
    if np.isnan(x):
        return "nan"
    return f"{x:.16e}"


def _reference_csv(result: SweepResult) -> str:
    """One fmt17 call per field and one join per row."""
    lines = [",".join(SWEEP_COLUMNS)]
    for i, dv in enumerate(result.grid.delta_values):
        for j, w1 in enumerate(result.grid.omega1_values):
            row = [_fmt17(dv), _fmt17(w1)]
            row += [_fmt17(result.bloch[i, j, a, b]) for a in range(4) for b in range(4)]
            row += [_fmt17(result.tau_ab[i, j]), _fmt17(result.t_eff[i, j]),
                    str(result.status[i, j])]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_sweep_csv_matches_per_field_reference(tmp_path):
    rng = np.random.default_rng(11)
    grid = SweepGrid(delta_min=-1.0, delta_max=1.0, delta_n=3,
                     omega1_min=0.0, omega1_max=0.5, omega1_n=4)
    shape = (grid.delta_n, grid.omega1_n)
    bloch = rng.normal(size=(*shape, 4, 4))
    bloch[0, 1] = np.nan
    bloch[1, 2, 3, 3] = -0.0
    bloch[2, 0, 0, 1] = np.inf
    bloch[2, 3, 1, 2] = -np.inf
    tau = rng.uniform(size=shape)
    tau[0, 1] = np.nan
    tau[1, 0] = -0.0
    t_eff = rng.uniform(size=shape)
    t_eff[2, 2] = np.nan
    status = np.full(shape, "", dtype=object)
    status[0, 1] = "degenerate"
    status[2, 2] = "t_eff_domain"
    result = SweepResult(grid=grid, template=TwoSpinParams(), damping=DampingParams(),
                         bloch=bloch, tau_ab=tau, t_eff=t_eff, status=status)
    path = tmp_path / "sweep.csv"
    rows = io.BytesIO()
    write_sweep_rows(rows, grid, 0, bloch, tau, t_eff, status)
    write_sweep_csv(path, [rows])
    text = path.read_text(encoding="utf-8")
    assert text == _reference_csv(result)
    # the same table from two row blocks, written to their own files
    blocks = [io.BytesIO(), io.BytesIO()]
    for f, rows in zip(blocks, (slice(0, 1), slice(1, 3))):
        write_sweep_rows(f, grid, rows.start, bloch[rows], tau[rows], t_eff[rows], status[rows])
    write_sweep_csv(path, blocks)
    assert path.read_text(encoding="utf-8") == text
    assert ",-0.0000000000000000e+00," in text and ",inf," in text and ",-inf," in text
