"""Correctness checks of the workloads' outputs, computed without disentsim.

Every reference is built here from the model's definitions with numpy and
scipy alone: the rotating-frame two-spin Hamiltonian, the six GKSL channels,
the corr-suppress and bloch-derank-a operators, and the Bloch-grid
convention of the CSV.  Parameters come from each run's resolved config in
``manifest.json``; values are compared with the run's NDJSON/CSV/manifest.
Tolerances and their reasons are listed in README.md.

Each ``check_*`` returns a list of failure messages (empty when correct).
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
S_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)   # raises |1> to |0> (sigma_z = +1)
S_MINUS = S_PLUS.T.copy()
PAULI = (I2, SX, SY, SZ)
#: PP[i, j] = sigma_i (x) sigma_j with sigma_0 = identity.
PP = np.array([[np.kron(a, b) for b in PAULI] for a in PAULI])

ETA = 1.0 / 3.0          # corr-suppress normalization: tau = 1 on Bell states
MASTER_TOL = 1e-8        # RK4 at dt = 1e-3 vs DOP853 at rtol 1e-12
SWEEP_RESIDUAL_TOL = 1e-10
PURE_TOL = 1e-9
STATE_TOL = 1e-9
UNRAVEL_MULTIPLE = 0.1   # ensemble-mean error bound, in units of 1/sqrt(N); see README.md


# ---------------------------------------------------------------------------
# Model.


def hamiltonian(cfg: dict, delta: float | None = None, omega1: float | None = None) -> np.ndarray:
    """H = w_a S_az + Delta S_bz + w_1 S_bx + g S_ax S_bz, S = sigma/2."""
    delta = cfg["model.delta"] if delta is None else delta
    omega1 = cfg["model.omega1"] if omega1 is None else omega1
    return 0.5 * (cfg["model.omega_a"] * np.kron(SZ, I2) + delta * np.kron(I2, SZ)
                  + omega1 * np.kron(I2, SX) + cfg["model.g"] * np.kron(SX, SZ))


def jump_operators(cfg: dict) -> list[np.ndarray]:
    """Decay, thermal pumping and dephasing of each spin, in the 4-dim space."""
    ops = []
    for spin, embed in (("a", lambda x: np.kron(x, I2)), ("b", lambda x: np.kron(I2, x))):
        g1 = cfg[f"damping.{spin}.gamma1"]
        gphi = cfg[f"damping.{spin}.gamma_phi"]
        n0 = cfg[f"damping.{spin}.n0"]
        ops += [embed(math.sqrt((n0 + 1.0) * g1) * S_MINUS),
                embed(math.sqrt(n0 * g1) * S_PLUS),
                embed(math.sqrt((2.0 * n0 + 1.0) * gphi / 2.0) * SZ)]
    return ops


def hamiltonian_generator(h: np.ndarray) -> np.ndarray:
    """rho -> -i[H, rho] on row-major vec(rho): vec(A X B) = (A kron B^T) vec(X)."""
    eye = np.eye(h.shape[0])
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def dissipator_generator(ops: list[np.ndarray]) -> np.ndarray:
    eye = np.eye(ops[0].shape[0])
    out = np.zeros((eye.size, eye.size), dtype=complex)
    for x in ops:
        xdx = x.conj().T @ x
        out += np.kron(x, x.conj()) - 0.5 * np.kron(xdx, eye) - 0.5 * np.kron(eye, xdx.T)
    return out


def gksl_steady_state(lv: np.ndarray) -> np.ndarray:
    """Solve L vec(rho) = 0 with the (0,0) equation replaced by Tr rho = 1.

    Trace preservation makes the diagonal equations sum to zero, so the
    dropped row is implied by the others.
    """
    dim = int(round(math.sqrt(lv.shape[0])))
    a = lv.copy()
    a[0] = np.eye(dim).reshape(-1)
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    rho = np.linalg.solve(a, rhs).reshape(dim, dim)
    return 0.5 * (rho + rho.conj().T)


def pauli_table(rhos: np.ndarray) -> np.ndarray:
    """c[..., i, j] = Tr(sigma_i (x) sigma_j rho) for a stack of 4x4 states."""
    return np.einsum("abij,...ji->...ab", PP, rhos).real


def measures(rhos: np.ndarray) -> dict[str, np.ndarray]:
    c = pauli_table(rhos)
    cov = c[..., 1:, 1:] - c[..., 1:, :1] * c[..., :1, 1:]
    return {"k_a": c[..., 1:, 0], "k_b": c[..., 0, 1:],
            "tau_ab": ETA * (cov * cov).sum(axis=(-2, -1)),
            "purity": np.einsum("...ij,...ji->...", rhos, rhos).real}


def _clamped_log_sym(mat: np.ndarray, floor: float) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    cut = floor * (w[-1] if w[-1] > 0.0 else 1.0)
    return (v * np.log(np.maximum(w, cut))) @ v.conj().T


def theta_corr_suppress(rho: np.ndarray, gamma_d: float) -> np.ndarray:
    """gamma_D * eta * sum_ij cov_ij (s_i (x) s_j - <s_i><s_j>), with <Theta> = gamma_D tau."""
    c = pauli_table(rho)
    a, b = c[1:, 0], c[0, 1:]
    cov = c[1:, 1:] - np.outer(a, b)
    q = np.einsum("ij,ijkl->kl", cov, PP[1:, 1:]) - (cov * np.outer(a, b)).sum() * np.eye(4)
    return gamma_d * ETA * q


#: Bloch grid G[a, b] = Gamma_a (x) Gamma_b, Gamma_0 = 2^(1/4)/sqrt(2) I,
#: Gamma_l = 2^(-1/4) sigma_l; B[a, b] = Tr(G[a, b] rho).
GAMMA = [2.0 ** 0.25 / math.sqrt(2.0) * I2] + [2.0 ** -0.25 * s for s in PAULI[1:]]
GRID = np.array([[np.kron(a, b) for b in GAMMA] for a in GAMMA])


def theta_bloch_derank_a(rho: np.ndarray, gamma_d: float, floor: float) -> np.ndarray:
    """-gamma_D/2 sum_ab (log(alpha) B)_ab G_ab with alpha = B B^T / 2."""
    b = np.einsum("abij,ji->ab", GRID, rho).real
    w = _clamped_log_sym(0.5 * b @ b.T, floor) @ b
    return -0.5 * gamma_d * np.einsum("ab,abij->ij", w, GRID)


def master_rhs(h: np.ndarray, lv_diss: np.ndarray, theta):
    """drho/dt = -i[H, rho] + D(rho) - Theta rho - rho Theta + 2 <Theta> rho / Tr rho."""
    def rhs(_t, y):
        rho = y.reshape(4, 4)
        out = -1j * (h @ rho - rho @ h) + (lv_diss @ y).reshape(4, 4)
        if theta is not None:
            tm = theta(rho)
            out = out - tm @ rho - rho @ tm + (2.0 * np.trace(tm @ rho).real
                                                 / np.trace(rho).real) * rho
        return out.reshape(-1)
    return rhs


# ---------------------------------------------------------------------------
# Output readers.


def _manifest(run_dir: Path) -> dict:
    return json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))


def _ndjson(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _series(rows: list[dict]) -> dict[str, np.ndarray]:
    return {"t": np.array([r["t"] for r in rows]),
            "k_a": np.array([r["k_a"] for r in rows]),
            "k_b": np.array([r["k_b"] for r in rows]),
            **{k: np.array([r["measures"][k] for r in rows]) for k in rows[0]["measures"]}}


def _worst(name: str, got: np.ndarray, want: np.ndarray, tol: float, where: str) -> list[str]:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not err <= tol:
        return [f"{where}: {name} differs from the reference by {err:.3e} (tol {tol:.1e})"]
    return []


def _state_errors(rho: np.ndarray, where: str) -> list[str]:
    errs = []
    if abs(np.trace(rho) - 1.0) > STATE_TOL:
        errs.append(f"{where}: trace {np.trace(rho)!r} is not 1")
    if np.abs(rho - rho.conj().T).max() > STATE_TOL:
        errs.append(f"{where}: not Hermitian")
    w_min = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if w_min < -STATE_TOL:
        errs.append(f"{where}: not PSD (min eigenvalue {w_min:.3e})")
    return errs


# ---------------------------------------------------------------------------
# Per-workload checks.


def check_master(run_dir: Path) -> list[str]:
    """RK4 samples against a tight DOP853 integration of the same equation."""
    cfg = _manifest(run_dir)["config"]
    where = run_dir.name
    rec = _series(_ndjson(run_dir / "trajectory.ndjson"))
    errs = []
    if np.any(np.linalg.norm(rec["k_a"], axis=1) > 1.0 + 1e-12) or \
            np.any(np.linalg.norm(rec["k_b"], axis=1) > 1.0 + 1e-12):
        errs.append(f"{where}: a Bloch vector is longer than 1")
    if np.any(rec["tau_ab"] < 0.0) or np.any(rec["tau_ab"] > 1.0):
        errs.append(f"{where}: tau_ab outside [0, 1]")
    if np.any(rec["purity"] > 1.0 + 1e-12):
        errs.append(f"{where}: purity above 1")

    h = hamiltonian(cfg)
    lv_diss = dissipator_generator(jump_operators(cfg))
    if cfg["master.initial"] != "steady-linear":
        return errs + [f"{where}: unexpected master.initial {cfg['master.initial']!r}"]
    rho0 = gksl_steady_state(hamiltonian_generator(h) + lv_diss)
    family, gamma_d = cfg["disentangle.family"], cfg["disentangle.gamma_d"]
    if family == "corr-suppress":
        theta = lambda r: theta_corr_suppress(r, gamma_d)  # noqa: E731
    elif family == "bloch-derank-a":
        floor = cfg["integrator.log_floor"]
        theta = lambda r: theta_bloch_derank_a(r, gamma_d, floor)  # noqa: E731
    else:
        return errs + [f"{where}: no reference Theta for family {family!r}"]
    sol = solve_ivp(master_rhs(h, lv_diss, theta), (0.0, float(rec["t"][-1])),
                    rho0.reshape(-1), method="DOP853", t_eval=rec["t"],
                    rtol=1e-12, atol=1e-14)
    if not sol.success:
        return errs + [f"{where}: reference integration failed: {sol.message}"]
    ref = measures(sol.y.T.reshape(-1, 4, 4))
    for key in ("k_a", "k_b", "tau_ab", "purity"):
        errs += _worst(key, rec[key], ref[key], MASTER_TOL, where)
    return errs


def check_sweep(run_dir: Path) -> list[str]:
    """Every cell is a trace-one PSD steady state of its own GKSL generator."""
    manifest = _manifest(run_dir)
    cfg = manifest["config"]
    with (run_dir / "sweep.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    errs = []
    statuses = sorted({r[col["status"]] for r in rows} - {""})
    if statuses:
        errs.append(f"sweep: cells carry a status: {statuses}")
    nums = np.array([[float(r[col[k]]) for k in header if k != "status"] for r in rows])
    numcol = {k: i for i, k in enumerate(k for k in header if k != "status")}
    nd, nw = cfg["sweep.delta_n"], cfg["sweep.omega1_n"]
    deltas = np.linspace(cfg["sweep.delta_min"], cfg["sweep.delta_max"], nd)
    omega1s = np.linspace(cfg["sweep.omega1_min"], cfg["sweep.omega1_max"], nw)
    if nums.shape[0] != nd * nw:
        return errs + [f"sweep: {nums.shape[0]} rows for a {nd}x{nw} grid"]
    d_col, w_col = nums[:, numcol["delta"]], nums[:, numcol["omega1"]]
    if np.abs(d_col - np.repeat(deltas, nw)).max() > 1e-15 or \
            np.abs(w_col - np.tile(omega1s, nd)).max() > 1e-15:
        errs.append("sweep: rows are not the (delta outer, omega1 inner) grid")

    # rho = (1/4) sum_ij c_ij s_i (x) s_j with c = sqrt(2) B (the grid convention)
    b = nums[:, [numcol[f"b_{i}{j}"] for i in range(4) for j in range(4)]].reshape(-1, 4, 4)
    rhos = 0.25 * np.einsum("nij,ijkl->nkl", math.sqrt(2.0) * b, PP)
    tr_err = float(np.abs(np.einsum("nii->n", rhos) - 1.0).max())
    if tr_err > 1e-12:
        errs.append(f"sweep: trace off by {tr_err:.3e}")
    herm = float(np.abs(rhos - rhos.conj().transpose(0, 2, 1)).max())
    if herm > 1e-12:
        errs.append(f"sweep: Hermiticity defect {herm:.3e}")
    w_min = float(np.linalg.eigvalsh(rhos)[:, 0].min())
    if w_min < -STATE_TOL:
        errs.append(f"sweep: a cell is not PSD (min eigenvalue {w_min:.3e})")

    # L(delta, omega1) = L0 + delta L_delta + omega1 L_omega1 is affine
    lv0 = hamiltonian_generator(hamiltonian(cfg, 0.0, 0.0)) + \
        dissipator_generator(jump_operators(cfg))
    l_delta = hamiltonian_generator(0.5 * np.kron(I2, SZ))
    l_omega = hamiltonian_generator(0.5 * np.kron(I2, SX))
    v = rhos.reshape(-1, 16)
    resid = v @ lv0.T + d_col[:, None] * (v @ l_delta.T) + w_col[:, None] * (v @ l_omega.T)
    worst = float(np.abs(resid).max())
    if worst > SWEEP_RESIDUAL_TOL:
        errs.append(f"sweep: GKSL residual {worst:.3e} (tol {SWEEP_RESIDUAL_TOL:.0e})")

    tau = measures(rhos)["tau_ab"]
    errs += _worst("tau_ab", nums[:, numcol["tau_ab"]], tau, 1e-12, "sweep")
    k = int(np.argmax(tau))
    cell = math.hypot(deltas[1] - deltas[0], omega1s[1] - omega1s[0])
    omega_r = math.hypot(d_col[k], w_col[k])
    if abs(omega_r - cfg["model.omega_a"]) > cell:
        errs.append(f"sweep: tau maximum at omega_R = {omega_r:.4f}, "
                    f"more than one cell ({cell:.4f}) off the matching circle")

    svgs = [name for name in manifest["outputs"] if name.endswith(".svg")]
    if cfg["output.plots"] and len(svgs) != 18:
        errs.append(f"sweep: {len(svgs)} heatmaps, expected 18")
    for name in svgs:
        try:
            root = ET.parse(run_dir / name).getroot()
        except (ET.ParseError, OSError) as exc:
            errs.append(f"sweep: {name} is not readable SVG: {exc}")
            continue
        if root.tag != "{http://www.w3.org/2000/svg}svg":
            errs.append(f"sweep: {name} has root element {root.tag!r}")
    return errs


def check_unravel(run_dir: Path) -> list[str]:
    """Weighted ensemble mean against exp(L t) rho0 at every sample."""
    manifest = _manifest(run_dir)
    cfg = manifest["config"]
    if cfg["disentangle.family"] != "none" or cfg["sde.initial"] != "ground":
        return [f"{run_dir.name}: expected a linear ensemble from the ground state"]
    rec = _series(_ndjson(run_dir / "trajectory_mean.ndjson"))
    lv = hamiltonian_generator(hamiltonian(cfg)) + dissipator_generator(jump_operators(cfg))
    down = np.array([0.0, 1.0])                      # sigma_z = -1
    rho0 = np.outer(np.kron(down, down), np.kron(down, down)).astype(complex).reshape(-1)
    rhos = np.array([(expm(lv * t) @ rho0).reshape(4, 4) for t in rec["t"]])
    ref = measures(rhos)
    tol = UNRAVEL_MULTIPLE / math.sqrt(cfg["sde.n_traj"])
    errs = []
    for key in ("k_a", "k_b"):
        errs += _worst(key, rec[key], ref[key], tol, run_dir.name)
    return errs


def check_sde_pure(run_dir: Path) -> list[str]:
    """Pure-state identities on every emitted sample; mean_rho_final is a state."""
    manifest = _manifest(run_dir)
    errs = []
    files = sorted(n for n in manifest["outputs"]
                   if n.startswith("trajectory_") and n[11:14].isdigit())
    if len(files) != manifest["config"]["sde.emit_trajectories"]:
        errs.append(f"{run_dir.name}: {len(files)} trajectory files emitted")
    for name in files:
        rec = _series(_ndjson(run_dir / name))
        where = f"{run_dir.name}/{name}"
        d = rec["delta"]
        errs += _worst("L - 2K", rec["l_entropy"], 2.0 * rec["k_entropy"], PURE_TOL, where)
        errs += _worst("tau - 2 delta (1 + delta/2)/3", rec["tau_ab"],
                       2.0 * d * (1.0 + d / 2.0) / 3.0, PURE_TOL, where)
        errs += _worst("|k_a|^2 - (1 - delta)", (rec["k_a"] ** 2).sum(axis=1), 1.0 - d,
                       PURE_TOL, where)
        errs += _worst("|k_b|^2 - (1 - delta)", (rec["k_b"] ** 2).sum(axis=1), 1.0 - d,
                       PURE_TOL, where)
        errs += _worst("purity", rec["purity"], np.ones_like(d), PURE_TOL, where)
    m = np.array(manifest["results"]["mean_rho_final"])
    errs += _state_errors(m[..., 0] + 1j * m[..., 1], f"{run_dir.name}: mean_rho_final")
    return errs


CHECKS = {
    "master-fig2": check_master,
    "sweep-fig1": check_sweep,
    "sde-unravel": check_unravel,
    "sde-fig3": check_sde_pure,
}
