"""Steadiness check: two sets of benchmark runs of one commit, compared against the bounds.

    python3 bench/steady.py --runs 10
    python3 bench/steady.py --runs 5 --workloads wide_train --seconds 30

Runs every workload ``--runs`` times in each of two sets, each run with
its own seed, alternating which set goes first.  Prints the median and
quartiles of every end-to-end metric per workload and set, and whether
the sets agree within the bounds in BENCHMARK.json: each spread (the
distance between the quartiles, as a share of the median) within the
metric's bound, the second set's median not worse than
the first's by more than the bound, the same share of failed operations
in both sets, and every run correct.  The full record is written under
``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"workload": workload, "seed": seed, "wall_s": wall, "ok": False, "stderr": proc.stderr[-2000:]}
    return {
        "workload": workload,
        "seed": seed,
        "wall_s": wall,
        "ok": True,
        "env": json.loads(lines[-2].removeprefix("env ")),
        "result": json.loads(lines[-1]),
    }


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else float("inf")}


def compare(bench: dict, sets: list[list[dict]]) -> tuple[list[str], dict]:
    """Disagreements between the two sets, and the per-workload summaries."""
    problems = []
    table: dict = {}
    for w in bench["workloads"]:
        name = w["name"]
        runs = [[r for r in s if r["workload"] == name] for s in sets]
        for i, rs in enumerate(runs):
            for r in rs:
                if not r["ok"]:
                    problems.append(f"{name}: run with seed {r['seed']} crashed: {r['stderr'][-300:]}")
                elif not r["result"]["correct"]:
                    problems.append(f"{name}: run with seed {r['seed']} reported incorrect outputs")
        good = [[r["result"] for r in rs if r["ok"]] for rs in runs]
        if any(len(g) < 2 for g in good):
            problems.append(f"{name}: fewer than two good runs in a set")
            continue
        shares = [{r["failed"] / r["attempted"] for r in g} for g in good]
        if len(shares[0] | shares[1]) != 1:
            problems.append(f"{name}: the share of failed operations differs between runs: {shares}")
        table[name] = {}
        for m in bench["end_to_end"]:
            key = m["name"]
            stats = [summarize([r["metrics"][key]["value"] for r in g]) for g in good]
            first, second = stats[0]["median"], stats[1]["median"]
            worse = (second - first) / first if m["better"] == "lower" else (first - second) / first
            table[name][key] = {"sets": stats, "second_worse_by": worse, "bound": m["bound"]}
            for i, s in enumerate(stats):
                if s["spread"] > m["bound"]:
                    problems.append(f"{name} {key}: set {i + 1} spread {s['spread']:.3f} exceeds bound {m['bound']}")
            if worse > m["bound"]:
                problems.append(f"{name} {key}: second median worse by {worse:.3f}, bound {m['bound']}")
    return problems, table


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload in each set")
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bench["workloads"] = [w for w in bench["workloads"] if w["name"] in names]

    sets: list[list[dict]] = [[], []]
    for i in range(args.runs):
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            for name in names:
                seed = args.first_seed + i + s * args.runs
                r = run_once(bench["command"], name, seed, args.seconds)
                sets[s].append(r)
                status = "ok" if r["ok"] and r["result"]["correct"] else "BAD"
                print(f"set {s + 1} run {i + 1} {name} seed {seed}: {status} ({r['wall_s']:.1f}s)", flush=True)

    problems, table = compare(bench, sets)
    for name, metrics in table.items():
        print(f"\n{name}")
        print(f"  {'metric':18} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7} {'bound':>6}")
        for key, row in metrics.items():
            for i, s in enumerate(row["sets"]):
                print(f"  {key:18} {i + 1:>3} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} "
                      f"{s['spread']:>7.3f} {row['bound']:>6}")
            print(f"  {'':18} second median worse by {row['second_worse_by']:+.3f}")
    envs = {json.dumps(r["env"], sort_keys=True) for s in sets for r in s if r["ok"]}
    for env in envs:
        print(f"\nenv {env}")
    verdict = "the two sets agree within the bounds" if not problems else "the two sets do NOT agree"
    print(f"\n{verdict}")
    for p in problems:
        print(f"  {p}")
    out = ROOT / ".bench_runs" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "envs": sorted(envs), "sets": sets,
                               "table": table, "problems": problems}, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
