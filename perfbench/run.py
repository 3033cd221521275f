"""Run one tonelab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; tonelab is imported from ./src,
never from an installed copy, and the run fails when ./src is absent.

One process, one client, closed loop: each operation is one call of
`tonelab.cli.main(argv)`, timed around the call, and the next starts only
after the previous one has returned and its output has been checked
against `reference`. A pass is the workload's operation list; passes
repeat until the next one would overrun `--seconds` (at least one).
Metrics are medians over passes. The gated pass time `pass_cal` is in
units of a calibration loop run between operations (see `calibrate`),
which keeps it steady while other tenants change the host's speed.
Set-up (a fresh import of tonelab, then writing the workload's input
files) runs several times; `setup_s` is the median of each set-up's wall
time divided by a calibration sample taken right after it, times
CAL_REFERENCE_S: seconds on a host where the loop takes that long. Raw
seconds are reported with the per-layer metrics and in the report line.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs one untraced
pass, then traced passes with a span around every public tonelab
function, and prints the per-layer metrics; the difference between the
two kinds of pass is reported as `trace_overhead_s`.

The line before the result is a report: run context (nproc, versions,
load average, seed, TONELAB_THREADS), per-operation times, the spread of
each timing over passes, every failed check and the determinism verdict.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_state"

SETUP_REPS = 7
CAL_PERIOD_S = 0.5  # one calibration sample per half second of operations
CAL_REFERENCE_S = 0.013  # the calibration loop on an idle 2-vCPU VM
COMMANDS = ["reproduce", "solve", "verify", "construct", "experiment", "bound", "mols"]

END_TO_END = {
    "setup_s": "s",
    "pass_cal": "cal",
    "peak_rss_mb": "MB",
    "solver_nodes": "count",
}
# End-to-end in meaning, but too unsteady on a shared host (raw seconds)
# or absent or zero on some workloads, so they are reported with the
# per-layer metrics and in every report line.
PER_WORKLOAD = {
    "pass_s": "s",
    **{f"{cmd}_s": "s" for cmd in COMMANDS},
    "bracket_width": "colors",
    "palette_sum": "colors",
    "error_rate": "ratio",
    "calibration_s": "s",
}
PER_LAYER = {
    "setup_wall_s": "s",
    **spans.LAYER_UNITS,
    **PER_WORKLOAD,
    "trace_overhead_s": "s",
    "trace.missing_names": "count",
}
DETERMINISTIC = ["solver_nodes", "bracket_width", "palette_sum", "error_rate"]

def import_cli():
    """Import tonelab afresh from ./src, so each set-up pays the package's
    own import cost (numpy, already loaded by the benchmark, is not)."""
    for name in [m for m in sys.modules if m == "tonelab" or m.startswith("tonelab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from tonelab import cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"tonelab imported from {cli.__file__}, not {SRC}")
    return cli


def call(cli, argv: list[str]) -> tuple[wl.Result, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an operation that raises is a failed operation
        rc = None
        err.write(traceback.format_exc(limit=-3))
    return wl.Result(rc, out.getvalue(), err.getvalue()), time.perf_counter() - t0


def facts(op: wl.Op, res: wl.Result) -> dict:
    """The deterministic numbers an operation contributes."""
    f = {"rc": res.rc}
    try:
        out = res.json
        if op.cmd == "solve":
            f["nodes"] = out["nodes"]
            if out["status"] == "timeout":
                f["bracket"] = out["best_upper"] - out["best_lower"]
        elif op.cmd == "construct":
            f["palette"] = out["colors_used"]
        elif op.cmd == "experiment":
            f["palette"] = out["upper"]
    except (ValueError, IndexError, KeyError, TypeError):
        pass  # malformed output; the operation's check reports it
    return f


def _calibration_table() -> dict[int, int]:
    table, x = {}, 1
    for _ in range(30_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x] = x & 255
    return table


CAL_TABLE = _calibration_table()


def calibrate() -> float:
    """Seconds for one run of a fixed pure-Python loop, about 20 ms:
    lookups in a prebuilt dict, then integer arithmetic; it allocates
    nothing, so it does not depend on what the last operation freed.

    On a shared 2-vCPU VM other tenants slowed tonelab operations and this
    loop alike, by up to a third for minutes at a time. Over 27-s windows
    the IQR/median of four operations' mean times (an exact solve, a
    budgeted solve, an experiment on G(3000, 2/n), MOLS of order 41) was
    0.21-0.30 in seconds and 0.04-0.07 in units of this loop."""
    t0 = time.perf_counter()
    acc = 0
    for _ in range(2):
        for key, value in CAL_TABLE.items():
            acc = (acc + value * 31 + key) & 0xFFFF
    for i in range(120_000):
        acc += i * i % 7
    if acc < 0:
        raise AssertionError("unreachable; keeps the loop's result live")
    return time.perf_counter() - t0


def run_pass(cli, ops: list[wl.Op], ctx: wl.Context) -> dict:
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall0 = time.perf_counter()
    records, cal, owed = [], [], 0.0
    for op in ops:
        os.environ["TONELAB_THREADS"] = str(op.threads)
        res, secs = call(cli, op.argv)
        if res.rc is None:
            error = "raised " + res.stderr.strip().splitlines()[-1]
        else:
            try:
                error = op.check(res, ctx)
            except Exception as exc:  # unreadable output fails the check
                error = f"output could not be checked: {exc!r}"
        records.append({"label": op.label, "cmd": op.cmd, "s": secs, "error": error,
                        "facts": facts(op, res)})
        owed += secs
        while owed > 0:
            cal.append(calibrate())
            owed -= CAL_PERIOD_S
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = {
        "wall": time.perf_counter() - wall0,
        "self": self1.ru_utime + self1.ru_stime - self0.ru_utime - self0.ru_stime,
        "children": max(0.0, kids1.ru_utime + kids1.ru_stime - kids0.ru_utime - kids0.ru_stime),
    }
    return {"ops": records, "cpu": cpu, "cal": cal}


def pass_metrics(p: dict) -> dict:
    ops = p["ops"]
    m = {"pass_s": sum(r["s"] for r in ops)}
    for cmd in COMMANDS:
        m[f"{cmd}_s"] = sum(r["s"] for r in ops if r["cmd"] == cmd)
    m["solver_nodes"] = sum(r["facts"].get("nodes", 0) for r in ops)
    m["bracket_width"] = sum(r["facts"].get("bracket", 0) for r in ops)
    m["palette_sum"] = sum(r["facts"].get("palette", 0) for r in ops)
    m["error_rate"] = sum(r["error"] is not None for r in ops) / len(ops)
    m["calibration_s"] = statistics.median(p["cal"])
    return m


def in_calibration_units(passes: list[dict], name: str) -> float:
    """Mean time per pass over mean calibration sample. Samples are taken
    in proportion to operation time, so both means weight the run's
    seconds alike."""
    per_pass = statistics.fmean(pass_metrics(p)[name] for p in passes)
    return per_pass / statistics.fmean(c for p in passes for c in p["cal"])


def timed_passes(seconds: float, fn) -> list[dict]:
    """At least one pass; another only if it should end within `seconds`."""
    start = time.perf_counter()
    out = []
    while True:
        out.append(fn())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(out) > seconds:
            return out


def spread(values: list[float]):
    """Interquartile range over median, or None below two samples."""
    if len(values) < 2 or statistics.median(values) == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.joinpath("tonelab").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def determinism(key: str | None, passes: list[dict]) -> str:
    """Compare the deterministic facts of every pass with each other and,
    given a key, with the last run of the same code, seed, workload and
    thread count."""
    seen = [[r["facts"] for r in p["ops"]] for p in passes]
    if any(s != seen[0] for s in seen):
        return "MISMATCH between passes of this run"
    if key is None:
        return "passes agree"
    record = {"ops": seen[0], **{k: pass_metrics(passes[0])[k] for k in DETERMINISTIC}}
    path = STATE / "determinism.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    verdict = "first run of this key"
    if key in known:
        verdict = "matches the earlier run" if known[key] == record else "MISMATCH with the earlier run"
    known[key] = record
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, path)
    return verdict


def median_of(passes: list[dict], name: str) -> float:
    return statistics.median(pass_metrics(p)[name] for p in passes)


def execute(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            sabotage=None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, report)."""
    load_start = os.getloadavg()
    STATE.mkdir(exist_ok=True)
    workdir = STATE / f"run-{os.getpid()}"
    try:
        setup_wall, setup_scaled = [], []
        for i in range(SETUP_REPS):
            ctx = wl.Context(str(workdir / f"setup{i}"), seed, tiny)
            t0 = time.perf_counter()
            cli = import_cli()
            wl.setup(workload, ctx)
            setup_wall.append(time.perf_counter() - t0)
            setup_scaled.append(setup_wall[-1] / calibrate() * CAL_REFERENCE_S)
        ops = wl.operations(workload, ctx)
        if sabotage is not None:
            sabotage(ctx, ops)
        threads_before = os.environ.get("TONELAB_THREADS")
        missing: list[str] = []
        try:
            if trace:
                plain = [run_pass(cli, ops, ctx)]
                tracer = spans.Tracer()
                tracer.install()
                missing = tracer.missing
                remaining = seconds - plain[0]["cpu"]["wall"]
                try:
                    traced = timed_passes(remaining, lambda: {**run_pass(cli, ops, ctx),
                                                              "spans": tracer.take()})
                finally:
                    tracer.uninstall()
            else:
                plain = timed_passes(seconds, lambda: run_pass(cli, ops, ctx))
                traced = []
        finally:
            if threads_before is None:
                os.environ.pop("TONELAB_THREADS", None)
            else:
                os.environ["TONELAB_THREADS"] = threads_before
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = plain + traced
    attempted = sum(len(p["ops"]) for p in everything)
    failures = [
        {"pass": i, "op": r["label"], "error": r["error"]}
        for i, p in enumerate(everything)
        for r in p["ops"]
        if r["error"] is not None
    ]
    key = f"{workload}|{seed}|{wl.THREADS[workload]}|{'tiny' if tiny else 'full'}|{code_hash()}"
    verdict = determinism(None if sabotage else key, everything)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    e2e = {
        "setup_s": statistics.median(setup_scaled),
        "pass_cal": in_calibration_units(plain, "pass_s"),
        "peak_rss_mb": peak_kb / 1024,
        "solver_nodes": median_of(plain, "solver_nodes"),
    }
    per_workload = {name: median_of(plain, name) for name in PER_WORKLOAD}
    per_workload["error_rate"] = len(failures) / attempted
    if trace:
        layers = [spans.layer_metrics(p["spans"], len(p["ops"]), p["cpu"]) for p in traced]
        metrics = {name: statistics.median(m[name] for m in layers) for name in spans.LAYER_UNITS}
        metrics.update(per_workload)
        metrics["trace_overhead_s"] = median_of(traced, "pass_s") - per_workload["pass_s"]
        metrics["trace.missing_names"] = len(missing)
        metrics["setup_wall_s"] = statistics.median(setup_wall)
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END
    result = {
        "correct": not failures and "MISMATCH" not in verdict,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    produced = {op.cmd for op in ops}
    report = {
        "workload": workload,
        "why": next(w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())
                    ["workloads"] if w["name"] == workload),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "TONELAB_THREADS": wl.THREADS[workload],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "code": code_hash(),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "pass_s_each": [pass_metrics(p)["pass_s"] for p in everything],
        "pass_cal_median": statistics.median(
            pass_metrics(p)["pass_s"] / pass_metrics(p)["calibration_s"] for p in plain),
        "peak_rss_children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "setup_wall_s": setup_wall,
        "end_to_end": {
            **{k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END.items()},
            **{
                k: {"value": v, "unit": PER_WORKLOAD[k]}
                for k, v in per_workload.items()
                if k[:-2] not in COMMANDS or k[:-2] in produced
            },
        },
        "spread_over_passes": {
            name: spread([pass_metrics(p)[name] for p in plain])
            for name in ["pass_s", "calibration_s",
                         *(f"{c}_s" for c in COMMANDS if c in produced)]
        },
        "op_s": {op.label: [p["ops"][i]["s"] for p in plain] for i, op in enumerate(ops)},
        "determinism": verdict,
        "missing_names": missing,
        "failures": failures[:20],
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tonelab" / "__init__.py").is_file():
        print(f"error: no tonelab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result, report = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
