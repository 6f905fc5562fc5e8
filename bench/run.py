"""porohom benchmark: four CLI workloads, timed end to end, or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (it imports porohom from `src/`).
Each run starts fresh interpreters with the BLAS/OpenMP pools pinned to one
thread.  With --trace 0 it times set-up over several cold starts and the
workload's `porohom.cli.main` calls over S seconds, each unit against a
reference loop timed on the same CPU meanwhile; with --trace 1 it
alternates untraced units with units that record spans around each layer.
Every call's outputs are checked.  Outputs, configs and the span dump go to
`.bench_out/<workload>-seed<N>/`.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0
# Pinned before the interpreter starts: porohom.cli imports numpy before it
# reads POROHOM_THREADS, so that variable cannot pin the pools.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it; none outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def _spawn(args, out: Path, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ, **PINNED)
    # Every cold start compiles porohom from source, whatever bytecode an
    # earlier run might have left, and nothing is written under src/.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _summary(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "porohom" / "cli.py").is_file():
        print(f"no porohom sources under {ROOT / 'src'}; run from a porohom checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)

    # Half the extra cold starts run before the measured run and half after,
    # so that set-up is sampled over the whole run, not only at its start.
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        setups = [_spawn(args, out, deadline, setup_only=True)["setup_s"]
                  for _ in range(extra // 2)]
        res = _spawn(args, out, deadline, setup_only=False)
        setups.append(res["setup_s"])
        setups += [_spawn(args, out, deadline, setup_only=True)["setup_s"]
                   for _ in range(extra - extra // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    calls = res["calls"]
    failed = [c for c in calls if c["problems"]]
    for c in failed:
        print(f"FAILED {c['experiment']}: {'; '.join(c['problems'])}", file=sys.stderr)
    digests = sorted({f"{c['experiment']}={c['digest']}" for c in calls})
    print(json.dumps({"workload": args.workload, "seed": args.seed, "git": _git_sha(),
                      "env": res["env"], "output_digests": digests}))

    if args.trace:
        # Absent layers are in `layers` too, reading 0.
        layers = res["layers"]
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
        if missing:
            print(f"the tracer produces no metric named {missing}", file=sys.stderr)
            return 1
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        ratio = f"{layers['microsim.run_to_steady.converged']:g}/" \
                f"{layers['microsim.run_to_steady.calls']:g}"
        print(json.dumps({"absent_layers": res["absent"], "count_errors": res["count_errors"],
                          "run_to_steady_converged": ratio,
                          "untraced_solve_s": _summary(res["untraced_walls"]),
                          "traced_solve_s": _summary(res["unit_walls"])}))
    else:
        refs = [w / loop for w, loop in zip(res["unit_walls"], res["unit_loop_s"])]
        values = {
            "setup_s": statistics.median(setups),
            "solve_ref": statistics.median(refs),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": (len(calls) - len(failed)) / len(calls),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        print(json.dumps({"setup_s": _summary(setups), "solve_ref": _summary(refs),
                          "solve_s": _summary(res["unit_walls"]),
                          "loop_s": _summary(res["unit_loop_s"]),
                          "unit_walls": res["unit_walls"], "unit_refs": refs,
                          "setup_walls": setups,
                          "error_rate": f"{len(failed)}/{len(calls)}"}))
    print(json.dumps({"correct": not failed, "attempted": len(calls), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
