"""Blocks of independent work, run in forked processes.

Two callers split their work into contiguous blocks through
``dynamics.run_in_blocks``: a stochastic ensemble its trajectories
(``dynamics._sle_block``), and the ``sweep`` command its Delta rows and then
its heat maps (``cli._sweep_row_block`` and ``cli._write_heatmaps``).  That
function imports this module only when the work splits, so a run that does
not split neither imports ``multiprocessing`` nor compiles this file.
Each block is one call run(i, start, stop).  What the blocks share, the
caller binds into ``run``: the ensemble binds its array of failure steps,
which only ``dynamics._sle_block`` reads.  Block 0 runs in the calling
process and every other block in a forked worker, which sends its result
back over a pipe.  Workers are forked, not spawned: a spawned worker would
import numpy and disentsim again, about 0.2 s on a 2-core x86-64 host,
where one process steps a 2000-trajectory, 500-step linear ensemble in
0.4 s and solves and writes the 81x81 fig1 sweep in about 0.3 s.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import multiprocessing
import sys


def _block_worker(conn, run, i: int, start: int, stop: int) -> None:
    """A forked worker: sends run(i, start, stop), or the exception it raised."""
    try:
        result = run(i, start, stop)
    except Exception as exc:
        result = exc
    conn.send(result)
    conn.close()


@functools.lru_cache(maxsize=1)
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS this process has
    loaded, or None where none is found (another BLAS, or no /proc)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)  # already loaded: the same handle
        for name in ("scipy_openblas{}64_", "openblas{}64_", "openblas{}", "scipy_openblas{}"):
            get = getattr(lib, name.format("_get_num_threads"), None)
            put = getattr(lib, name.format("_set_num_threads"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body, and the workers it forks, with OpenBLAS on one thread.
    Each block is one process; a BLAS thread pool in every process would
    put more spinning threads than cores on the machine."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def run_blocks(run, bounds: list[tuple[int, int]], what) -> list:
    """[run(i, start, stop) for every block i of ``bounds``]: block 0 in
    this process and the others in forked worker processes.  Shared state
    is the caller's to bind into ``run``.  Every worker is joined on every
    path; one that ends without a result is a ChildProcessError (an
    OSError, so the CLI's exit 4) that names its items with
    ``what(start, stop)``.  When blocks fail, the error with the smallest t
    is raised (an error without a t first; on a tie, the lowest block's).
    That is the error one block of all trajectories raises, and the error of
    the lowest failing sweep row."""
    ctx = multiprocessing.get_context("fork")
    sys.stdout.flush()  # a buffered line would be printed once more by each worker
    sys.stderr.flush()
    workers = []
    with _one_blas_thread():
        try:
            for i, (start, stop) in enumerate(bounds[1:], 1):
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_block_worker, args=(send, run, i, start, stop),
                                   daemon=True)
                proc.start()
                send.close()  # so that recv sees EOF when the worker ends
                workers.append((proc, recv))
            try:
                results = [run(0, *bounds[0])]
            except Exception as exc:
                results = [exc]
            for i, (proc, recv) in enumerate(workers, 1):
                try:
                    results.append(recv.recv())
                except EOFError:
                    proc.join()
                    start, stop = bounds[i]
                    results.append(ChildProcessError(
                        f"the worker of block {i} ({what(start, stop)}) "
                        f"ended without a result (exit code {proc.exitcode})"))
                    break
        finally:
            for proc, recv in workers:
                if proc.is_alive():
                    proc.terminate()
                proc.join()
                recv.close()
    errors = [(getattr(r, "t", -math.inf), i, r) for i, r in enumerate(results)
              if isinstance(r, Exception)]
    if errors:
        raise min(errors, key=lambda e: e[:2])[2]
    return results
