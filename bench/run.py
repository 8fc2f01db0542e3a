"""Run one benchmark workload from a seed, in one process, and print its metrics.

    python3 bench/run.py --workload wide_train --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it records the environment.  Work directories, traces and
result files go under ``.bench_runs/`` at the root of the checkout.
See bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("wide_train", "serve_anytime")
BLAS_THREADS = "1"


def steady_process() -> int:
    """One BLAS thread on one pinned CPU; returns the CPU count before pinning.

    Must run before numpy loads.  On a 2-core machine migrations between the
    cores doubled the spread of a fixed matmul loop in probes.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return len(cpus)


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": nproc,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def stolen_ticks() -> int:
    """Clock ticks the hypervisor took from this process's CPU (the "steal" column)."""
    cpu = f"cpu{max(os.sched_getaffinity(0))} "
    with open("/proc/stat") as stat:
        line = next(l for l in stat if l.startswith(cpu))
    return int(line.split()[8])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "moe_forge" / "__init__.py").is_file():
        print(f"error: no moe_forge sources under {src}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = steady_process()
    sys.path.insert(0, str(src))
    import workload

    run = workload.Run(
        name=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        work=RUNS / "work" / f"{args.workload}-{args.seed}-{os.getpid()}",
        trace_dir=RUNS / "traces",
    )
    env = environment(nproc)
    steal0, wall0 = stolen_ticks(), time.monotonic()
    try:
        e2e, layers, self_times = workload.execute(run)
    except Exception:
        traceback.print_exc()
        print("error: the workload crashed; no result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    steal_share = (stolen_ticks() - steal0) / os.sysconf("SC_CLK_TCK") / (time.monotonic() - wall0)

    values = layers if run.traced else e2e
    wanted = declared["per_layer" if run.traced else "end_to_end"]
    if {m["name"] for m in wanted} != set(values):
        print(f"error: metrics {sorted(values)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": run.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.traced),
        "env": env,
        "steal_share": steal_share,
        "problems": run.problems,
        "sample_counts": {k: len(v) for k, v in run.samples.items()},
        "end_to_end": e2e,
        "self_time_s": self_times,
        "result": result,
    }
    out = RUNS / "results" / f"{run.name}-seed{run.seed}-trace{int(run.traced)}-{os.getpid()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
