"""Run workloads once per seed, each run in a fresh process, and print the
median and spread (interquartile range over median) of every metric.

    python3 perfbench/repeat.py                     # all workloads, seed 1
    python3 perfbench/repeat.py --workload sparse --seeds 1-10

Untraced runs list every end-to-end metric of the workload by name and
unit, including those BENCHMARK.json keeps with the per-layer metrics
because some workloads lack them. A spread is flagged when it is not
below a third of the metric's bound. Raw lines go to `--out` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import spread

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_workload(spec, workload, seed_list, seconds, trace, raw) -> dict[str, list]:
    values: dict[str, list] = {}
    for seed in seed_list:
        cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        raw.append({"workload": workload, "seed": seed, "result": result, "report": report})
        print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} passes={report['passes']} {report['determinism']}",
              flush=True)
        for f in report["failures"]:
            print(f"  failed: {f}", flush=True)
        metrics = result["metrics"] if trace else report["end_to_end"]
        for name, m in metrics.items():
            values.setdefault((name, m["unit"]), []).append(m["value"])
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", type=seeds, default=seeds("1"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    raw: list[dict] = []
    tables = {w: run_workload(spec, w, args.seeds, seconds, args.trace, raw) for w in names}
    if args.out:
        Path(args.out).write_text("\n".join(json.dumps(r) for r in raw) + "\n")
    for workload, values in tables.items():
        print(f"\n{workload}: {len(args.seeds)} run(s), {seconds:g} s each")
        print(f"{'metric':34} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>5}")
        for (name, unit), vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            sp = spread(vals) or 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or sp < bound / 3 else "  <-- not below bound/3"
            print(f"{name:34} {unit:8} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:7.4f} "
                  f"{bound if bound is not None else '':>5}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
