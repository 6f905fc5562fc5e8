"""One benchmark run inside a fresh interpreter.

`run.py` starts this script with the BLAS/OpenMP pools already pinned in its
environment and passes the CLOCK_MONOTONIC time it started it at, so set-up
time counts from before the interpreter starts.  Set-up is importing
`porohom.cli`, generating the workload's configs from the seed and parsing
them.  The script then calls `porohom.cli.main` for the workload, unit after
unit, and checks every call's outputs; untraced, a `SpeedProbe` thread times
a reference loop meanwhile.  It prints one JSON object as its last line of
output.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import numpy
import scipy
import workloads


def _openblas_threads() -> dict:
    """Thread count each bundled OpenBLAS reports, read through ctypes."""
    found = {}
    for mod in (numpy, scipy):
        libdir = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for lib_path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(lib_path))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    found[lib_path.name] = fn()
                    break
    return found


def _environment(cpus: set) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(cpus),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "openblas_threads": _openblas_threads(),
        "pinned": {k: os.environ.get(k) for k in
                   ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _manifest_status(out: Path) -> str:
    for line in (out / "manifest.txt").read_text().splitlines():
        if line.startswith("status "):
            return line[len("status "):]
    return "missing"


def run_unit(cli, runs, cfg_paths, out: Path, tracer) -> tuple:
    """Call porohom.cli.main once per CliRun; returns (wall seconds, call records).
    Only the cli.main calls are timed; clearing outputs and checks are not."""
    wall = 0.0
    calls = []
    for run in runs:
        dest = out / run.experiment
        shutil.rmtree(dest, ignore_errors=True)
        argv = [run.experiment, "--config", str(cfg_paths[run.experiment]), "--out", str(dest)]
        problems = []
        span = tracer.span(f"cli.{run.experiment}") if tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash of the program under test is a failed call
            rc = None
            problems.append(f"{type(exc).__name__}: {exc}")
        wall += time.perf_counter() - t0
        if rc != 0:
            problems.append(f"exit code {rc}")
        else:
            try:
                status = _manifest_status(dest)
                if status != "ok":
                    problems.append(f"manifest status {status!r}")
                problems += run.check(dest)
            except (OSError, ValueError, KeyError, StopIteration) as exc:
                problems.append(f"output check failed: {type(exc).__name__}: {exc}")
        calls.append({"experiment": run.experiment, "problems": problems,
                      "digest": workloads.output_digest(dest) if dest.is_dir() else None})
    return wall, calls


class SpeedProbe:
    """Times a fixed reference loop every INTERVAL_S on a second thread.

    The host's CPU speed swings by up to half, within seconds and over
    minutes (other tenants share its cores and caches), and the workloads'
    wall times follow it.  The loop mixes the kinds of work porohom does:
    interpreted Python, a random gather from an array larger than L2, and
    streaming sums over an array that fits in L2.  Its median time during a
    unit tracked the unit's wall time with correlations of 0.94-0.96 on
    `transient-2d`, `transient-3d` and `eps-sweep`, so wall time divided by
    it measures a unit's work in loop times, which those swings leave nearly
    unchanged.  Both threads run on one CPU (see `main`), so the loop sees
    the CPU the workload runs on; it takes about 2% of that CPU.
    """

    INTERVAL_S = 0.025
    PY_ITERS = 2500

    def __init__(self):
        rng = numpy.random.default_rng(0)
        self._far = rng.random(1 << 20)  # 8 MB
        self._idx = rng.integers(0, self._far.size, 10_000)
        self._near = rng.random(1 << 16)  # 512 KB
        self.samples = []  # (perf_counter at start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _loop(self):
        acc = 0
        for i in range(self.PY_ITERS):
            acc += i * i
        self._far[self._idx].sum()
        self._near.sum()
        self._near.sum()

    def _run(self):
        while not self._stop.wait(self.INTERVAL_S):
            t0 = time.perf_counter()
            self._loop()
            self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def loop_s(self, start: float, end: float) -> float:
        """Median loop time over the samples started in [start, end)."""
        inside = [d for t, d in self.samples if start <= t < end]
        if not inside:
            raise RuntimeError("no speed samples inside a unit")
        return statistics.median(inside)


def measure(budget, units):
    """Run rounds of `units` (each returns a wall time and call records) until
    the next round would end past `budget` seconds; at least one round.
    Also returns the process's peak RSS in MB after the first round, which
    does not depend on how many rounds fit."""
    walls = [[] for _ in units]
    calls = []
    first_round_rss_mb = None
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for unit_walls, unit in zip(walls, units):
            wall, unit_calls = unit()
            unit_walls.append(wall)
            calls += unit_calls
        if first_round_rss_mb is None:
            first_round_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.monotonic()
        if now - start + (now - round_start) > budget:
            return walls, calls, first_round_rss_mb


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    # One CPU for the whole process, so SpeedProbe times the CPU the
    # workload runs on; porohom and its BLAS pools are single-threaded.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})

    # -- set-up: import, generate and parse the configs ---------------------
    import porohom.cli as cli
    from porohom.config import parse_config

    src = (Path(args.root) / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"porohom was imported from {cli.__file__}, not from {src}")
    runs = workloads.WORKLOADS[args.workload](args.seed)
    out = Path(args.out)
    cfg_dir = out / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    cfg_paths = {}
    for run in runs:
        cfg_paths[run.experiment] = cfg_dir / f"{run.experiment}.ini"
        cfg_paths[run.experiment].write_text(run.config)
        parse_config(run.config)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s, "env": _environment(cpus)}

    def plain_unit():
        return run_unit(cli, runs, cfg_paths, out, None)

    if args.trace:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}:{args.seed}:{time.time_ns()}")

        def traced_unit():
            tracer.unit += 1
            tracer.install()
            try:
                return run_unit(cli, runs, cfg_paths, out, tracer)
            finally:
                tracer.uninstall()

        # Untraced and traced units alternate, so the overhead ratio compares
        # units run close together in time.
        (walls, traced_walls), calls, _ = measure(args.seconds, [plain_unit, traced_unit])
        experiments = [f"cli.{e}" for e in workloads.ALL_EXPERIMENTS]
        per_unit = [tracer.unit_stats(u, experiments) for u in range(1, tracer.unit + 1)]
        layers = {k: statistics.median(s[k] for s in per_unit) for k in per_unit[0]}
        layers["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        tracer.dump(out / "trace.json")
        result.update(layers=layers, absent=tracer.absent,
                      count_errors=sorted(tracer.count_errors),
                      untraced_walls=walls, unit_walls=traced_walls)
    else:
        loop_s = []

        def probed_unit():
            start = time.perf_counter()
            wall, unit_calls = plain_unit()
            loop_s.append(probe.loop_s(start, time.perf_counter()))
            return wall, unit_calls

        with SpeedProbe() as probe:
            (walls,), calls, peak_rss_mb = measure(args.seconds, [probed_unit])
        result.update(unit_walls=walls, unit_loop_s=loop_s, peak_rss_mb=peak_rss_mb)

    # Same seed, same bytes: every unit's CSVs must match the first unit's.
    first = {}
    for call in calls:
        ref = first.setdefault(call["experiment"], call["digest"])
        if call["digest"] != ref:
            call["problems"].append("CSV outputs differ from the first unit of this run")
    result["calls"] = calls
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
