"""Workload definitions and the single-workload process of the benchmark.

A workload is a fixed list of CLI runs built from the disentsim presets plus
overrides; one pass over that list is a *round*.  ``run.py`` starts this file
as a fresh process, one at a time:

    python3 perfbench/workloads.py setup --workload W --out DIR
    python3 perfbench/workloads.py run --workload W --seed N --seconds S \
        --trace 0|1 --out DIR

``setup`` imports disentsim and resolves every config of the workload through
the ``preset`` command, with no run.  ``run`` repeats whole rounds in-process
through ``disentsim.cli.main`` until ``S`` seconds of rounds are measured and
writes ``DIR/result.json``.  With ``--trace 1`` it alternates untraced and
traced rounds, so the tracing overhead is measured in the same process.

Only the standard library is imported at module level: ``run.py`` imports
this file for the workload table without importing disentsim.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

FIG2_PRESETS = ("fig2-A1", "fig2-A2", "fig2-A3", "fig2-B1", "fig2-B2", "fig2-B3")


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple[tuple[str, str], ...]  # (run label, config document)
    work_unit: str                      # what one unit of ops_per_s counts


def _doc(preset: str, overrides: dict | None = None) -> str:
    lines = [f"preset = {preset}"]
    lines += [f"{key} = {value}" for key, value in (overrides or {}).items()]
    return "\n".join(lines) + "\n"


# t_end values are chosen so that one round takes under a second on one core,
# giving a run a dozen or more rounds to take the median of.  master-fig2 and
# sde-fig3 keep their preset's full-length sample stride, so the sampler's
# share of a step matches the real run; sde-unravel samples every 100 steps
# so that its short run still has six samples to check.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "master-fig2",
            tuple((p, _doc(p, {"integrator.t_end": 0.5,
                               "integrator.sample_every": 100,
                               "output.plots": "false"}))
                  for p in FIG2_PRESETS),
            "RK4 steps",
        ),
        Workload(
            "sweep-fig1",
            (("fig1-sweep", _doc("fig1-sweep")),),
            "sweep cells",
        ),
        Workload(
            "sde-unravel",
            (("fig3-unravel", _doc("fig3-A", {
                "disentangle.family": "none", "disentangle.gamma_d": 0.0,
                "sde.n_traj": 2000, "sde.initial": "ground", "integrator.t_end": 0.05,
                "integrator.sample_every": 100, "output.plots": "false"})),),
            "trajectory steps",
        ),
        Workload(
            "sde-fig3",
            (("fig3-B", _doc("fig3-B", {
                "integrator.t_end": 0.5, "integrator.sample_every": 1000,
                "output.plots": "false"})),),
            "trajectory steps",
        ),
    )
}


def config_path(out: Path, label: str) -> Path:
    return out / f"{label}.cfg"


def write_configs(workload: Workload, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for label, doc in workload.runs:
        config_path(out, label).write_text(doc, encoding="utf-8")
        config_path(out, f"{label}.setup").write_text(doc + "command = preset\n",
                                                      encoding="utf-8")


def work_units(config: dict) -> int:
    """Units of work one CLI run did, from its manifest's resolved config."""
    n_steps = max(1, int(round(config["integrator.t_end"] / config["integrator.dt"])))
    command = config["command"]
    if command == "master":
        return n_steps
    if command == "sweep":
        return config["sweep.delta_n"] * config["sweep.omega1_n"]
    if command == "sde":
        return config["sde.n_traj"] * n_steps
    raise ValueError(f"no work count for command {command!r}")


def _run_dir_digest(run_dir: Path) -> tuple[str, int]:
    """Hash and byte count of every file a run wrote."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(run_dir.iterdir()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ``ru_maxrss`` would also count the parent's peak before ``exec``, so the
    kernel's per-image ``VmHWM`` is read instead.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _call(main, argv: list[str]) -> int | str:
    """One CLI operation; an escaping exception counts as a failure."""
    try:
        return main(argv)
    except Exception:  # the round must go on; the traceback is the report
        return traceback.format_exc(limit=3).strip().splitlines()[-1]


def setup(workload: Workload, out: Path) -> int:
    from disentsim.cli import main

    codes = [_call(main, ["--config", str(config_path(out, f"{label}.setup")),
                          "--out", str(out / "setup" / label)])
             for label, _ in workload.runs]
    return 0 if all(c == 0 for c in codes) else 1


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            out: Path) -> dict:
    from calibration import timed
    from disentsim import cli

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    argvs = [["--config", str(config_path(out, label)), "--seed", str(seed),
              "--out", str(out / label)] for label, _ in workload.runs]
    rounds = []
    layers: dict[str, dict[str, float]] = {}
    measured = 0.0
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            first = len(tracer.spans)
            tracer.install()
        codes, elapsed, speed = timed(lambda: [_call(cli.main, argv) for argv in argvs],
                                      on_probe=tracer.exclude if traced else None)
        if traced:
            tracer.uninstall()
            for name, totals in tracer.layer_totals(first).items():
                acc = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                acc["calls"] += totals["calls"]
                acc["s"] += totals["s"] * speed
                acc["self_s"] += totals["self_s"] * speed
        digests, size, work = [], 0, 0
        for (label, _), code in zip(workload.runs, codes):
            if code != 0:
                continue
            run_dir = out / label
            digest, nbytes = _run_dir_digest(run_dir)
            digests.append(digest)
            size += nbytes
            manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
            work += work_units(manifest["config"])
        rounds.append({"seconds": elapsed, "speed": speed, "traced": traced, "codes": codes,
                       "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
                       "work": work, "bytes": size})
        measured += elapsed
        if measured >= seconds and (not trace or len(rounds) >= 2):
            break
    result = {
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = layers
        tracer.write_spans(out / "spans.json")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        return setup(workload, args.out)
    result = measure(workload, args.seed, args.seconds, bool(args.trace), args.out)
    (args.out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
