import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from disentsim import cli, dynamics, twospin, workers
from disentsim.cli import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, MIN_SWEEP_CELLS, execute,
                           main)
from disentsim.config import (
    SCHEMA,
    ConfigError,
    parse_config,
    parse_config_dict,
    render_config,
)
from disentsim.dynamics import StateHealthError
from disentsim.entangle import ThetaFamily
from disentsim.output import SWEEP_COLUMNS


def _read_json(path: Path) -> dict:
    """A JSON output file, parsed strictly: NaN and Infinity are not JSON."""
    def reject(name):
        raise ValueError(f"{path.name} holds {name}, which is not JSON")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def _ndjson(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_parse_minimal_preset_document():
    cfg = parse_config("preset = fig2-B2\n")
    assert cfg.command == "master"
    assert cfg.disentangle.gamma_d == 0.5
    assert cfg.model.g == 1.0


def test_parse_rejects_negative_rate():
    with pytest.raises(ConfigError, match="gamma_d must be >= 0"):
        parse_config("command = master\ndisentangle.family = corr-suppress\n"
                     "disentangle.gamma_d = -0.1\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", [k for k, spec in SCHEMA.items() if spec.parse is float])
def test_parse_rejects_non_finite_floats(key, value):
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be finite \(got .+\) \(line 2\)$"):
        parse_config(f"command = steady\n{key} = {value}\n")


@pytest.mark.parametrize("value", [2.5, float("inf"), float("nan")])
def test_typed_int_setting_must_be_an_integer(value):
    with pytest.raises(ConfigError, match="is not an integer"):
        parse_config_dict({"command": "sde", "sde.n_traj": value})


@pytest.mark.parametrize("key, value", [("output.plots", 2), ("model.g", None),
                                        ("sde.n_traj", True), ("model.g", False)])
def test_typed_setting_of_the_wrong_type_is_a_config_error(key, value):
    # a bool is not a number, and neither None nor 2 is a bool
    with pytest.raises(ConfigError, match=rf"^bad value for {re.escape(key)}: {value!r}$"):
        parse_config_dict({"command": "steady", key: value})


_BAD = {float: -1.0, int: -1, str: "1,0,0"}


@pytest.mark.parametrize("key", [k for k, spec in SCHEMA.items()
                                 if spec.parse in _BAD and spec.check(_BAD[spec.parse])])
def test_domain_errors_name_their_key_once(key):
    with pytest.raises(ConfigError) as err:
        parse_config_dict({"command": "steady", key: _BAD[SCHEMA[key].parse]})
    assert str(err.value).startswith(f"{key} ") and str(err.value).count(key) == 1


def test_parse_rejects_empty_document():
    with pytest.raises(ConfigError, match="missing required key"):
        parse_config("")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_config("command = steady\nmodel.gamma = 1\n")


def test_parse_rejects_bad_syntax_with_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("command = steady\nnot a key-value pair\n")


def test_parse_none_family_forces_zero_rate():
    with pytest.raises(ConfigError, match="forces"):
        parse_config("command = master\ndisentangle.gamma_d = 0.3\n")


def test_config_roundtrip_through_render():
    cfg = parse_config("preset = fig2-A2\nintegrator.t_end = 17.5\n")
    again = parse_config(render_config(cfg))
    assert again == cfg


# every key but command away from its default
_NON_DEFAULT = {
    "model.omega_a": 1.25, "model.delta": 0.5, "model.omega1": 0.75, "model.g": 0.25,
    "damping.a.gamma1": 0.125, "damping.a.gamma_phi": 0.0625, "damping.a.n0": 0.5,
    "damping.b.gamma1": 1.5, "damping.b.gamma_phi": 0.375, "damping.b.n0": 0.01,
    "disentangle.family": "bloch-derank-b", "disentangle.gamma_d": 0.7,
    "disentangle.gamma_h": 0.3, "disentangle.beta": 2.5,
    "integrator.dt": 0.01, "integrator.t_end": 3.0, "integrator.seed": 7,
    "integrator.log_floor": 1e-10, "integrator.sample_every": 3,
    "sweep.delta_min": -1.0, "sweep.delta_max": 1.5, "sweep.delta_n": 5,
    "sweep.omega1_min": 0.1, "sweep.omega1_max": 1.75, "sweep.omega1_n": 6,
    "sde.n_traj": 8, "sde.emit_trajectories": 1, "sde.initial": "ground",
    "master.initial": "maximally-mixed", "attractor.transient_fraction": 0.25,
    "attractor.amp_threshold": 0.05, "state.psi": "1, 0, 0, 1j",
    "output.dir": "elsewhere", "output.plots": False,
}


def test_section_keys_land_on_run_object_fields():
    assert set(_NON_DEFAULT) == set(SCHEMA) - {"command"}
    assert all(v != SCHEMA[k].default for k, v in _NON_DEFAULT.items())
    doc = "command = sde\n" + "".join(
        f"{k} = {str(v).lower() if isinstance(v, bool) else v}\n" for k, v in _NON_DEFAULT.items())
    cfg = parse_config(doc)
    sections = {"model.": cfg.model, "damping.a.": cfg.damping.a, "damping.b.": cfg.damping.b,
                "disentangle.": cfg.disentangle, "integrator.": cfg.integrator,
                "sweep.": cfg.sweep}
    landed = 0
    for key, value in _NON_DEFAULT.items():
        assert cfg[key] == value, key
        for prefix, obj in sections.items():
            if key.startswith(prefix):
                field = getattr(obj, key[len(prefix):])
                assert field == (ThetaFamily(value) if key == "disentangle.family" else value), key
                landed += 1
    assert landed == 25
    assert cfg["command"] == cfg.command == "sde"
    with pytest.raises(KeyError):
        cfg["model.gamma"]


def _base_master_doc(out_dir: Path, t_end: float = 4.0) -> str:
    return "\n".join([
        "command = master",
        "model.delta = 0.4",
        "model.omega1 = 0.8",
        "model.g = 1.0",
        "damping.a.gamma1 = 0.1",
        "damping.a.gamma_phi = 0.01",
        "damping.a.n0 = 0.0005",
        "damping.b.gamma1 = 1.0",
        "damping.b.gamma_phi = 0.1",
        "damping.b.n0 = 0.00001",
        "disentangle.family = corr-suppress",
        "disentangle.gamma_d = 0.5",
        "integrator.dt = 0.002",
        f"integrator.t_end = {t_end}",
        "integrator.sample_every = 20",
        f"output.dir = {out_dir}",
    ]) + "\n"


def test_master_run_writes_outputs_and_manifest(tmp_path):
    doc = _base_master_doc(tmp_path / "run")
    cfg = parse_config(doc)
    manifest = execute(cfg)
    out = tmp_path / "run"
    assert (out / "manifest.json").exists()
    assert (out / "trajectory.ndjson").exists()
    assert (out / "bloch_a.svg").exists()
    # manifest round-trips to the exact same config
    stored = _read_json(out / "manifest.json")
    assert parse_config_dict(stored["config"]) == cfg
    assert stored["outputs"] == sorted(stored["outputs"])


def test_trajectory_ndjson_schema(tmp_path):
    cfg = parse_config(_base_master_doc(tmp_path / "run"))
    execute(cfg)
    rows = _ndjson(tmp_path / "run" / "trajectory.ndjson")
    assert rows[0].keys() == {"t", "k_a", "k_b", "measures", "diagnostics"}
    assert list(rows[0]["measures"]) == ["k_entropy", "l_entropy", "delta",
                                         "tau_ab", "purity"]
    assert list(rows[0]["diagnostics"]) == ["trace_err", "herm_err", "min_eig"]
    assert rows[0]["t"] == 0.0
    assert len(rows[0]["k_a"]) == 3


def test_master_run_byte_identical(tmp_path):
    doc1 = _base_master_doc(tmp_path / "a")
    doc2 = _base_master_doc(tmp_path / "b")
    execute(parse_config(doc1))
    execute(parse_config(doc2))
    for name in ("trajectory.ndjson", "bloch_a.svg", "bloch_b.svg", "measures.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    m1 = _read_json(tmp_path / "a" / "manifest.json")
    m2 = _read_json(tmp_path / "b" / "manifest.json")
    m1["config"].pop("output.dir"); m2["config"].pop("output.dir")
    assert m1["results"] == m2["results"]


def _sweep_doc(out_dir: Path) -> str:
    return "\n".join([
        "command = sweep",
        "model.g = 0.001",
        "damping.a.gamma1 = 0.01",
        "damping.a.gamma_phi = 0.000001",
        "damping.a.n0 = 10",
        "damping.b.gamma1 = 0.1",
        "damping.b.gamma_phi = 0.00001",
        "damping.b.n0 = 0.0001",
        "sweep.delta_n = 5",
        "sweep.omega1_n = 4",
        "sweep.omega1_min = 0.4",
        f"output.dir = {out_dir}",
    ]) + "\n"


def test_sweep_run_csv_golden_columns(tmp_path):
    cfg = parse_config(_sweep_doc(tmp_path / "s"))
    execute(cfg)
    lines = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + 5 * 4
    first = lines[1].split(",")
    assert len(first) == len(SWEEP_COLUMNS)
    assert first[0] == f"{-2.0:.16e}"
    assert (tmp_path / "s" / "tau_ab.svg").exists()


def test_sweep_byte_identical(tmp_path):
    execute(parse_config(_sweep_doc(tmp_path / "s1")))
    execute(parse_config(_sweep_doc(tmp_path / "s2")))
    assert (tmp_path / "s1" / "sweep.csv").read_bytes() == \
        (tmp_path / "s2" / "sweep.csv").read_bytes()


def test_sweep_heatmaps_byte_identical(tmp_path):
    execute(parse_config(_sweep_doc(tmp_path / "s1")))
    execute(parse_config(_sweep_doc(tmp_path / "s2")))
    names = sorted(p.name for p in (tmp_path / "s1").glob("*.svg"))
    assert len(names) == 18
    for name in names:
        assert (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s2" / name).read_bytes()


def _sde_doc(out_dir: Path, seed: int = 5) -> str:
    return "\n".join([
        "command = sde",
        "model.delta = 0.7071",
        "model.omega1 = 0.7071",
        "model.g = 1.0",
        "damping.a.gamma1 = 0.001",
        "damping.a.gamma_phi = 0.0001",
        "damping.a.n0 = 0.0005",
        "damping.b.gamma1 = 0.01",
        "damping.b.gamma_phi = 0.001",
        "damping.b.n0 = 0.00001",
        "disentangle.family = corr-suppress",
        "disentangle.gamma_d = 0.5",
        "integrator.dt = 0.001",
        "integrator.t_end = 1.0",
        f"integrator.seed = {seed}",
        "integrator.sample_every = 100",
        "sde.n_traj = 12",
        "sde.emit_trajectories = 2",
        f"output.dir = {out_dir}",
    ]) + "\n"


def test_sde_run_outputs_and_determinism(tmp_path):
    execute(parse_config(_sde_doc(tmp_path / "x")))
    execute(parse_config(_sde_doc(tmp_path / "y")))
    for name in ("trajectory_mean.ndjson", "trajectory_000.ndjson",
                 "trajectory_001.ndjson"):
        assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()
    different = parse_config(_sde_doc(tmp_path / "z", seed=6))
    execute(different)
    assert (tmp_path / "x" / "trajectory_mean.ndjson").read_bytes() != \
        (tmp_path / "z" / "trajectory_mean.ndjson").read_bytes()


def test_sde_output_does_not_depend_on_threads(tmp_path, monkeypatch):
    # 512 trajectories split into two blocks of 256 at --threads 2; every
    # output byte, the manifest included, is that of --threads 1
    from disentsim import dynamics

    monkeypatch.setattr(dynamics, "usable_cores", lambda: 2)
    assert len(dynamics.block_bounds(512, 2)) == 2
    doc = tmp_path / "sde.cfg"
    doc.write_text(_sde_doc(tmp_path / "out").replace("sde.n_traj = 12", "sde.n_traj = 512")
                   .replace("integrator.t_end = 1.0", "integrator.t_end = 0.1"), encoding="utf-8")
    files = []
    for threads in ("1", "2"):
        assert main(["--config", str(doc), "--threads", threads]) == EXIT_OK
        files.append({p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())})
    assert "manifest.json" in files[0] and len(files[0]) > 4
    assert files[0] == files[1]


def _split_sweep_doc(out_dir: Path) -> str:
    """24 Delta rows of 25 cells: up to three blocks of MIN_SWEEP_CELLS cells."""
    return (_sweep_doc(out_dir).replace("sweep.delta_n = 5", "sweep.delta_n = 24")
            .replace("sweep.omega1_n = 4", "sweep.omega1_n = 25"))


@pytest.fixture
def split_calls(monkeypatch):
    """Let block_bounds use four cores, and record the block count of every
    split run (each phase of a sweep is one)."""
    monkeypatch.setattr(dynamics, "usable_cores", lambda: 4)
    calls, run_blocks = [], workers.run_blocks

    def recording(run, bounds, what):
        calls.append(len(bounds))
        return run_blocks(run, bounds, what)

    monkeypatch.setattr(workers, "run_blocks", recording)
    return calls


def test_sweep_output_does_not_depend_on_threads(tmp_path, split_calls):
    # rows and heat maps split into 1, 2 and 3 blocks; every output byte, the
    # manifest included, is that of one block
    assert -(-MIN_SWEEP_CELLS // 25) * 3 <= 24
    doc = tmp_path / "sweep.cfg"
    doc.write_text(_split_sweep_doc(tmp_path / "out"), encoding="utf-8")
    files = []
    for threads in (1, 2, 3):
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        split_calls.clear()
        assert main(["--config", str(doc), "--threads", str(threads)]) == EXIT_OK
        assert split_calls == ([] if threads == 1 else [threads, threads])
        files.append({p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())})
    assert len(files[0]) == 20 and "manifest.json" in files[0] and "sweep.csv" in files[0]
    assert files[0] == files[1] == files[2]


def test_sweep_below_the_minimum_block_does_not_fork(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a sweep below the minimum block size started a process")

    monkeypatch.setattr(dynamics, "usable_cores", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    # the suite's 5x4 sweep, a 3x3 one, and 2 * MIN_SWEEP_CELLS cells in 5
    # rows, which make no two blocks of whole rows
    for rows, cols in ((5, 4), (3, 3), (5, 2 * MIN_SWEEP_CELLS // 5)):
        out = tmp_path / f"{rows}x{cols}"
        doc = tmp_path / "sweep.cfg"
        doc.write_text(_sweep_doc(out).replace("sweep.delta_n = 5", f"sweep.delta_n = {rows}")
                       .replace("sweep.omega1_n = 4", f"sweep.omega1_n = {cols}"),
                       encoding="utf-8")
        assert main(["--config", str(doc), "--threads", "4"]) == EXIT_OK
        assert len(list(out.glob("*.svg"))) == 18


def test_split_sweep_abort_is_that_of_one_block(tmp_path, split_calls, monkeypatch, capsys):
    # rows 4 and 15, in blocks 0 and 1 of two, abort: both runs raise row 4's
    # error and write no sweep.csv and no SVG
    config = parse_config(_split_sweep_doc(tmp_path / "ref"))
    real, keys = twospin.steady_states, []

    def recording(lr, grid):
        keys.append(lr[0].tobytes())
        return real(lr, grid)

    monkeypatch.setattr(twospin, "steady_states", recording)
    twospin.run_sweep(config.model, config.damping, config.sweep)
    min_eig = {keys[4]: -0.25, keys[15]: -0.5}

    def aborting(lr, grid):
        if lr[0].tobytes() in min_eig:
            raise StateHealthError(0.0, min_eig[lr[0].tobytes()])
        return real(lr, grid)

    monkeypatch.setattr(twospin, "steady_states", aborting)
    doc = tmp_path / "sweep.cfg"
    doc.write_text(_split_sweep_doc(tmp_path / "out"), encoding="utf-8")
    errors = []
    for threads in ("1", "2"):
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        assert main(["--config", str(doc), "--threads", threads]) == EXIT_NUMERICAL
        errors.append(capsys.readouterr().err)
        assert list((tmp_path / "out").iterdir()) == []
    assert split_calls == [2]
    assert errors[0] == errors[1]
    assert "min eigenvalue -2.500e-01" in errors[0]


def test_split_sweep_worker_without_result_is_named(tmp_path, split_calls, monkeypatch,
                                                    hang_guard):
    parent = os.getpid()
    config = parse_config(_split_sweep_doc(tmp_path / "out"))
    for name, message in (
            ("_sweep_row_block", r"block 1 \(delta rows 12\.\.23\).*exit code 7"),
            ("_write_heatmaps",
             r"block 1 \(heat maps b_21, b_22, .*, tau_ab, t_eff\).*exit code 7")):
        block = getattr(cli, name)

        def dies_in_worker(*args, block=block):
            if os.getpid() != parent:
                os._exit(7)
            return block(*args)

        monkeypatch.setattr(cli, name, dies_in_worker)
        with pytest.raises(ChildProcessError, match=message):
            execute(config, 2)
        monkeypatch.setattr(cli, name, block)
    assert split_calls == [2, 2, 2]


def test_dead_worker_is_an_io_error(tmp_path, monkeypatch, capsys, hang_guard):
    # a worker that ends without a result ends a split sweep or ensemble with
    # exit 4 and one line on stderr, not with a traceback
    monkeypatch.setattr(dynamics, "usable_cores", lambda: 4)
    parent = os.getpid()
    sde = (_sde_doc(tmp_path / "sde").replace("sde.n_traj = 12", "sde.n_traj = 512")
           .replace("integrator.t_end = 1.0", "integrator.t_end = 0.1"))
    for module, name, text in ((cli, "_sweep_row_block", _split_sweep_doc(tmp_path / "sweep")),
                               (dynamics, "_sle_block", sde)):
        block = getattr(module, name)

        def dies_in_worker(*args, block=block):
            if os.getpid() != parent:
                os._exit(7)
            return block(*args)

        monkeypatch.setattr(module, name, dies_in_worker)
        doc = tmp_path / "run.cfg"
        doc.write_text(text, encoding="utf-8")
        assert main(["--config", str(doc), "--threads", "2"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: the worker of block 1 (") and "exit code 7" in err
        assert err.count("\n") == 1 and "Traceback" not in err, err


def test_threads_flag_defaults_to_usable_cores_and_rejects_zero(capsys):
    from disentsim.cli import build_parser
    from disentsim.dynamics import usable_cores

    assert build_parser().parse_args(["--preset", "fig3-A"]).threads == usable_cores()
    with pytest.raises(SystemExit) as exc:
        main(["--preset", "fig3-A", "--threads", "0"])
    assert exc.value.code == EXIT_CONFIG
    assert "at least one process" in capsys.readouterr().err


def test_unmeasured_diagnostics_are_null(tmp_path):
    # stochastic records hold pure states: Hermiticity and positivity are not
    # measured there, while the master equation measures both at every sample
    execute(parse_config(_sde_doc(tmp_path / "sde")))
    files = sorted((tmp_path / "sde").glob("*.ndjson"))
    assert [p.name for p in files] == ["trajectory_000.ndjson", "trajectory_001.ndjson",
                                       "trajectory_mean.ndjson"]
    for path in files:
        for row in _ndjson(path):
            diag = row["diagnostics"]
            assert diag["herm_err"] is None and diag["min_eig"] is None, path.name
            assert isinstance(diag["trace_err"], float), path.name
    execute(parse_config(_base_master_doc(tmp_path / "master", t_end=0.2)))
    for row in _ndjson(tmp_path / "master" / "trajectory.ndjson"):
        assert all(isinstance(v, float) for v in row["diagnostics"].values())


def test_steady_and_measures_commands(tmp_path):
    doc = "\n".join([
        "command = steady",
        "model.delta = -0.5",
        "model.omega1 = 0.7",
        "model.g = 0.001",
        "damping.a.gamma1 = 0.01",
        "damping.a.n0 = 10",
        "damping.b.gamma1 = 0.1",
        "damping.b.n0 = 0.0001",
        f"output.dir = {tmp_path / 'st'}",
    ]) + "\n"
    manifest = execute(parse_config(doc))
    payload = _read_json(tmp_path / "st" / "steady.json")
    assert payload["t_eff"] > 0
    assert 0.0 <= payload["measures"]["tau_ab"] <= 1.0

    mdoc = "\n".join([
        "command = measures",
        "state.psi = 0.8660254037844387, 0, 0, 0.5",
        f"output.dir = {tmp_path / 'ms'}",
    ]) + "\n"
    execute(parse_config(mdoc))
    payload = _read_json(tmp_path / "ms" / "measures.json")
    assert abs(payload["measures"]["tau_ab"] - 11.0 / 16.0) < 1e-9
    assert abs(payload["delta_pure"] - 0.75) < 1e-9


def test_preset_command_emits_config(tmp_path, capsys):
    doc = tmp_path / "show.cfg"
    doc.write_text(f"preset = fig3-A\ncommand = preset\noutput.dir = {tmp_path / 'p'}\n")
    rc = main(["--config", str(doc)])
    assert rc == EXIT_OK
    text = (tmp_path / "p" / "config.txt").read_text()
    assert "disentangle.gamma_d = 0.1" in text
    assert "model.g = 100.0" in text
    reparsed = parse_config(text)
    assert reparsed.flat() == parse_config(doc.read_text()).flat()
    assert "disentangle.gamma_d = 0.1" in capsys.readouterr().out


def test_main_exit_codes(tmp_path):
    assert main([]) == EXIT_CONFIG
    assert main(["--preset", "no-such-preset"]) == EXIT_CONFIG
    bad = tmp_path / "bad.cfg"
    bad.write_text("command = master\ndisentangle.gamma_d = -1\n")
    assert main(["--config", str(bad)]) == EXIT_CONFIG

    # an oversized step drives the density matrix out of the physical cone
    unstable = tmp_path / "unstable.cfg"
    unstable.write_text("\n".join([
        "command = master",
        "model.delta = 0.5",
        "model.omega1 = 0.7",
        "model.g = 1.0",
        "damping.a.gamma1 = 0.1",
        "damping.b.gamma1 = 1.0",
        "master.initial = ground",
        "integrator.dt = 0.9",
        "integrator.t_end = 400",
        "integrator.sample_every = 1",
        f"output.dir = {tmp_path / 'u'}",
    ]) + "\n")
    assert main(["--config", str(unstable), "--no-plots"]) == EXIT_NUMERICAL


def test_io_errors_exit_4(tmp_path, capsys):
    # an unreadable config document while loading, and an output directory
    # that cannot be created while running
    assert main(["--config", str(tmp_path / "missing.cfg")]) == EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error:")
    taken = tmp_path / "taken"
    taken.write_text("a regular file\n")
    assert main(["--preset", "fig2-A2", "--out", str(taken), "--no-plots"]) == EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error:")


def test_bad_state_psi_is_a_config_error(tmp_path, capsys):
    # a wrong amplitude count or a non-finite amplitude ends the measures run
    # with the config exit, not a traceback, before the output directory is made
    doc = tmp_path / "m.cfg"
    for amps in ("1,0,0", "1,0,0,0,0", "nan,0,0,0", "0,0,0,0", "1e400,0,0,0"):
        doc.write_text(f"command = measures\nstate.psi = {amps}\noutput.dir = {tmp_path / 'm'}\n")
        assert main(["--config", str(doc)]) == EXIT_CONFIG, amps
        assert capsys.readouterr().err.startswith("config error:"), amps
        assert not (tmp_path / "m").exists(), amps


def test_state_psi_scale_does_not_change_the_state(tmp_path):
    # amplitudes whose squared norm overflows or underflows run as the state
    # they scale, (1, 1, 0, 0)/sqrt(2)
    doc = tmp_path / "m.cfg"
    payloads = []
    for k, amps in enumerate(("1,1,0,0", "1e300,1e300,0,0", "1e-200,1e-200,0,0")):
        doc.write_text(f"command = measures\nstate.psi = {amps}\noutput.dir = {tmp_path / str(k)}\n")
        assert main(["--config", str(doc)]) == EXIT_OK, amps
        payloads.append(_read_json(tmp_path / str(k) / "measures.json"))
    assert payloads[1] == payloads[0] and payloads[2] == payloads[0]


def test_undefined_values_are_written_as_null(tmp_path):
    # k_az = -1 (n0 = 0, no drive, no coupling) has no effective temperature,
    # and an undamped sweep has no cell with a finite tau
    doc = tmp_path / "c.cfg"
    doc.write_text(f"command = steady\ndamping.a.gamma1 = 0.1\ndamping.b.gamma1 = 0.1\n"
                   f"output.dir = {tmp_path / 'st'}\n")
    assert main(["--config", str(doc)]) == EXIT_OK
    assert _read_json(tmp_path / "st" / "steady.json")["t_eff"] is None
    assert _read_json(tmp_path / "st" / "manifest.json")["results"]["t_eff"] is None
    doc.write_text(f"command = sweep\nsweep.delta_n = 3\nsweep.omega1_n = 3\n"
                   f"output.dir = {tmp_path / 'sw'}\n")
    assert main(["--config", str(doc), "--no-plots"]) == EXIT_OK
    results = _read_json(tmp_path / "sw" / "manifest.json")["results"]
    assert results["cells_failed"] == 9 and results["tau_argmax"] is None


def test_non_finite_setting_and_negative_seed_are_config_errors(tmp_path, capsys):
    # rejected before the output directory is made, with no traceback
    out = tmp_path / "o"
    doc = tmp_path / "c.cfg"
    doc.write_text(f"command = steady\nmodel.g = inf\noutput.dir = {out}\n")
    for args in (["--config", str(doc)], ["--preset", "fig2-B2", "--t-end", "inf"],
                 ["--preset", "fig3-B", "--seed", "-1"]):
        assert main([*args, "--out", str(out), "--no-plots"]) == EXIT_CONFIG, args
        assert capsys.readouterr().err.startswith("config error:"), args
        assert not out.exists(), args


def test_non_finite_state_is_a_health_abort(tmp_path, capsys):
    rc = main(["--preset", "fig2-B2", "--dt", "1e100", "--t-end", "1e100", "--no-plots",
               "--out", str(tmp_path / "nf")])
    assert rc == EXIT_NUMERICAL
    assert "numerical-health abort" in capsys.readouterr().err


def _run_python(args: list[str]) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh process that imports this checkout's
    disentsim, outside this suite's warning filters and imports."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def _run_module(args: list[str]) -> subprocess.CompletedProcess:
    """``python -m disentsim ARGS`` in a fresh process, so that stderr is
    what a user sees."""
    return _run_python(["-m", "disentsim", *args])


def test_runs_that_do_not_split_import_no_process_plumbing(tmp_path):
    # a small sweep and a 32-trajectory ensemble run in one process, and
    # neither imports disentsim.workers nor multiprocessing
    (tmp_path / "sweep.cfg").write_text(_sweep_doc(tmp_path / "s"), encoding="utf-8")
    (tmp_path / "sde.cfg").write_text(
        _sde_doc(tmp_path / "e").replace("sde.n_traj = 12", "sde.n_traj = 32")
        .replace("integrator.t_end = 1.0", "integrator.t_end = 0.1"), encoding="utf-8")
    code = ("import sys\n"
            "from disentsim.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, sorted(m for m in sys.modules\n"
            "                   if m == 'disentsim.workers' or m.startswith('multiprocessing')))\n")
    for doc in ("sweep.cfg", "sde.cfg"):
        proc = _run_python(["-c", code, "--config", str(tmp_path / doc), "--threads", "4"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []", doc


def test_overflow_abort_prints_only_the_health_line(tmp_path):
    # numpy's overflow warnings must not precede the abort message
    proc = _run_module(["--preset", "fig2-B2", "--dt", "1e100", "--t-end", "1e100",
                        "--no-plots", "--out", str(tmp_path / "nf")])
    assert proc.returncode == EXIT_NUMERICAL
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "numerical-health abort: density matrix is not finite at t = 0"]


_OVERFLOWING_RATE = "preset = fig2-B2\ndamping.a.gamma1 = 1e200\ndamping.b.gamma1 = 1\n"


def test_overflowing_rate_steady_state_prints_only_the_health_line(tmp_path):
    cfg = tmp_path / "steady.cfg"
    cfg.write_text(_OVERFLOWING_RATE + "command = steady\n", encoding="utf-8")
    proc = _run_module(["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert proc.returncode == EXIT_NUMERICAL
    assert proc.stderr.splitlines() == [
        "numerical-health abort: Liouvillian has no unique trace-one steady state "
        "(null space of dimension > 1, or a traceless null vector)"]


def test_overflowing_rate_sweep_marks_every_cell_degenerate(tmp_path):
    # RuntimeWarnings are errors in this suite, so a warning fails the run
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_OVERFLOWING_RATE + "command = sweep\nsweep.delta_n = 3\n"
                   "sweep.omega1_n = 4\noutput.plots = false\n", encoding="utf-8")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    rows = (tmp_path / "out" / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 12
    assert all(row.endswith(",degenerate") for row in rows)


def test_stochastic_step_size_is_a_health_abort(tmp_path, capsys):
    rc = main(["--preset", "fig3-B", "--dt", "1e100", "--t-end", "1e100", "--no-plots",
               "--out", str(tmp_path / "sde")])
    assert rc == EXIT_NUMERICAL
    assert "numerical-health abort" in capsys.readouterr().err


def test_short_stochastic_preset_run_exits_ok(tmp_path):
    rc = main(["--preset", "fig3-B", "--t-end", "0.01", "--no-plots",
               "--out", str(tmp_path / "sde")])
    assert rc == EXIT_OK
    assert (tmp_path / "sde" / "manifest.json").exists()


def test_bloch_derank_b_family_runs(tmp_path, capsys):
    doc = tmp_path / "b.cfg"
    doc.write_text("preset = fig2-B2\ndisentangle.family = bloch-derank-b\n")
    rc = main(["--config", str(doc), "--t-end", "0.02", "--no-plots",
               "--out", str(tmp_path / "b")])
    assert rc == EXIT_OK
    stored = _read_json(tmp_path / "b" / "manifest.json")
    assert stored["config"]["disentangle.family"] == "bloch-derank-b"
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "bloch-derank-b" in capsys.readouterr().out


def test_flag_overrides(tmp_path):
    out = tmp_path / "ovr"
    rc = main(["--preset", "fig2-B2", "--out", str(out), "--dt", "0.002",
               "--t-end", "2.0", "--no-plots", "--seed", "123"])
    assert rc == EXIT_OK
    stored = _read_json(out / "manifest.json")
    assert stored["config"]["integrator.dt"] == 0.002
    assert stored["config"]["integrator.t_end"] == 2.0
    assert stored["config"]["integrator.seed"] == 123
    assert stored["config"]["output.plots"] is False
    assert not (out / "bloch_a.svg").exists()


def test_help_documents_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = capsys.readouterr().out
    assert "integrator.dt" in text
    assert "disentangle.family" in text
