"""disentsim benchmark: preset workloads, each in its own single-threaded process.

Run from the root of a checkout (README.md in this directory has the details):

    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --workload master-fig2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload sweep-fig1 --trace 1

Untraced (``--trace 0``), a run measures ``setup_s`` (median of fresh
processes that import disentsim and resolve the workload's configs through
the ``preset`` command), then one process that repeats whole rounds of the
workload for ``--seconds`` seconds, giving ``ops_per_s`` and
``peak_rss_mb``.  Traced (``--trace 1``), that process alternates untraced
and traced rounds and the per-layer metrics come from the traced ones.
Either way the outputs are then checked with ``checks.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when a check fails, and 2 when the benchmark cannot run at all (then no
result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import timed
from workloads import WORKLOADS, write_configs

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
RUN_TIMEOUT_S = 150.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (not a correctness failure)."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    paths = [str(ROOT / "src"), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), *args]
    try:
        return subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"workload process exceeded {timeout:.0f} s: {cmd}") from None


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        pass
    return {"cores": os.cpu_count(), "blas_threads": 1, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def _layer_metrics(names: list[str], result: dict) -> dict[str, float]:
    """Per-layer values per traced round, from the span totals (scaled seconds)."""
    rounds = result["rounds"]
    traced = [r["seconds"] * r["speed"] for r in rounds if r["traced"]]
    untraced = [r["seconds"] * r["speed"] for r in rounds if not r["traced"]]
    n = len(traced)
    layers = result["layers"]

    def total(prefix: str, key: str) -> float:
        return sum(v[key] for k, v in layers.items() if k.startswith(prefix))

    out = {}
    for name in names:
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(untraced)
        elif name == "trace.spans":
            value = total("", "calls") / n
        elif name == "output.write_s":
            value = total("output.write_", "s") / n
        elif name == "output.bytes":
            value = statistics.median(r["bytes"] for r in rounds)
        elif name == "svgplot.render_s":
            value = total("svgplot.", "s") / n
        else:
            fn, _, kind = name.rpartition(".")
            entry = layers.get(fn, {"calls": 0, "s": 0.0, "self_s": 0.0})
            if kind == "us_per_call":
                value = 1e6 * entry["s"] / entry["calls"] if entry["calls"] else 0.0
            elif kind in ("calls", "s", "self_s"):
                value = entry[kind] / n
            else:
                raise BenchmarkError(f"per-layer metric {name!r} has no definition")
        out[name] = value
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """One workload: set-up processes, the measured process, then the checks."""
    from checks import CHECKS

    workload = WORKLOADS[name]
    out = OUT_ROOT / name
    shutil.rmtree(out, ignore_errors=True)
    write_configs(workload, out)
    started = time.perf_counter()
    attempted = failed = 0
    setup_times = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            proc, wall, speed = timed(
                lambda: _child(["setup", "--workload", name, "--out", str(out)], 60.0),
                probe_inside=False)
            setup_times.append((wall, speed))
            attempted += 1
            failed += proc.returncode != 0
    proc = _child(["run", "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(int(trace)), "--out", str(out)],
                  RUN_TIMEOUT_S - (time.perf_counter() - started))
    if proc.returncode != 0:
        raise BenchmarkError(f"{name}: workload process exited {proc.returncode}:\n"
                             + proc.stderr[-2000:])
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    rounds = result["rounds"]
    codes = [c for r in rounds for c in r["codes"]]
    attempted += len(codes)
    failed += sum(c != 0 for c in codes)

    errors = []
    last = rounds[-1]["codes"]
    for (label, _), code in zip(workload.runs, last):
        if code != 0:
            continue
        try:
            errors += CHECKS[name](out / label)
        except Exception as exc:  # unreadable or missing output fails the check
            errors.append(f"{label}: outputs could not be checked: {exc!r}")
    whole = {r["digest"] for r in rounds if all(c == 0 for c in r["codes"])}
    if len(whole) > 1:
        errors.append(f"{name}: outputs differ between rounds of the same seed")

    wall_clock = {}
    if trace:
        values = _layer_metrics([m["name"] for m in spec["per_layer"]], result)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(wall * sp for wall, sp in setup_times),
            "peak_rss_mb": result["peak_rss_mb"],
            "ops_per_s": statistics.median(r["work"] / (r["seconds"] * r["speed"])
                                           for r in rounds),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        wall_clock = {  # unscaled median and median probe speed
            "setup_s": (statistics.median(wall for wall, _ in setup_times),
                        statistics.median(sp for _, sp in setup_times)),
            "ops_per_s": (statistics.median(r["work"] / r["seconds"] for r in rounds),
                          statistics.median(r["speed"] for r in rounds)),
        }
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    summary = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "environment": environment(), "rounds": len(rounds),
               "correct": not errors, "errors": errors, "attempted": attempted,
               "failed": failed, "metrics": metrics, "wall_clock": wall_clock}
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return summary


def _report(summary: dict) -> None:
    env = summary["environment"]
    print(f"# {summary['workload']}: seed {summary['seed']}, "
          f"{'traced' if summary['trace'] else 'untraced'}, {summary['rounds']} rounds; "
          f"{env['cores']} cores, BLAS threads {env['blas_threads']}, {env['blas']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, Python {env['python']}")
    unit_of_work = WORKLOADS[summary["workload"]].work_unit
    wall = summary["wall_clock"]
    for key, m in summary["metrics"].items():
        note = f"  ({unit_of_work} per second)" if key == "ops_per_s" else ""
        if key in wall:
            note += f"  [unscaled {wall[key][0]:.6g} at speed {wall[key][1]:.3f}]"
        print(f"{summary['workload']:12s} {key:40s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"{summary['workload']:12s} operations attempted {summary['attempted']}, "
          f"failed {summary['failed']}; checks {'ok' if summary['correct'] else 'FAILED'}")
    for err in summary["errors"]:
        print(f"  check failed: {err}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "disentsim" / "__init__.py").is_file():
        print("benchmark: no src/disentsim here; run from the root of a disentsim checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = [run_workload(n, args.seed, seconds, bool(args.trace), spec) for n in names]
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    for s in summaries:
        _report(s)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": m for s in summaries for k, m in s["metrics"].items()}
    correct = all(s["correct"] for s in summaries)
    print(json.dumps({"correct": correct,
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": sum(s["failed"] for s in summaries),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
