"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload's operation list on small inputs, untraced and
traced, and checks that each metric BENCHMARK.json names is emitted with
its unit and that no operation fails. Then it corrupts witnesses where
valid ones belong, once in a benchmark-generated input and once in a
colouring tonelab wrote, and checks that both are counted in error_rate.
"""

from __future__ import annotations

import json
import math
import sys

import reference as ref
import run

SEED = 7


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {message}")


def corrupt_file(graph: str, coloring: str) -> None:
    """Copy the colours of one end of the first edge onto the other."""
    u, v = min(ref.read_graph(graph).edges())
    t, sets = ref.read_coloring(coloring)
    sets[v] = sets[u]
    ref.write_coloring(t, sets, coloring)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for workload in sorted(run.wl.THREADS):
            result, report = run.execute(workload, SEED, 0, trace, tiny=True)
            where = f"{workload} trace={int(trace)}"
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{where}: metrics {sorted(set(got) ^ set(want))} differ")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in result["metrics"].values()), f"{where}: non-numeric value")
            expect(result["correct"] and result["failed"] == 0, f"{where}: {report['failures']}")
            expect(result["attempted"] >= 1, f"{where}: no operations")
            expect(not report["missing_names"], f"{where}: missing {report['missing_names']}")
            print(f"ok {where}: {result['attempted']} operations", flush=True)

    def bad_input(ctx, ops):
        corrupt_file(ctx.path("sparse.gr"), ctx.path("sparse_ok.col"))

    def bad_output(ctx, ops):
        op = next(op for op in ops if op.label == "construct-mols")
        check = op.check
        op.check = lambda res, c: corrupt_file(c.path("rook.gr"), c.path("rook.col")) or check(res, c)

    for workload, sabotage in (("sparse", bad_input), ("dense", bad_output)):
        result, report = run.execute(workload, SEED, 0, True, tiny=True, sabotage=sabotage)
        rate = result["metrics"]["error_rate"]["value"]
        expect(not result["correct"] and result["failed"] >= 1 and rate > 0,
               f"corrupted witness in {workload} was not counted: {result}")
        print(f"ok corrupted witness in {workload} caught: {report['failures'][0]}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
