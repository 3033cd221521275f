"""Command-line front end: verify, solve, bound, construct, reproduce,
experiment, and MOLS tooling.

Exit codes: 0 success/valid, 1 invalid coloring or failed reproduction,
2 parse/usage error or a path that cannot be read or written, 3 the
bracket did not close. In --json mode the output is byte-identical across
runs for identical inputs, seeds, and budgets, so wall-clock times are
reported in human mode only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bounds, constructions, mols, sat_export, solver
from .coloring import (
    ToneColoring,
    colors_used,
    load_coloring,
    save_coloring,
    verify,
)
from .graphs import (
    Graph,
    build_complete,
    build_complete_multipartite,
    build_gnp,
    build_path,
    build_star,
    build_truncated_regular_tree,
    cartesian_power,
    is_connected,
    load_graph,
    save_graph,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _parse_parts(text: str) -> list[int]:
    """Part sizes from an ``A,B,...`` list; empty entries are skipped."""
    return [int(x) for x in text.split(",") if x]


# name -> (argument count, builder taking the argument tokens)
FAMILIES = {
    "path": (1, lambda n: build_path(int(n))),
    "star": (1, lambda k: build_star(int(k))),
    "complete": (1, lambda n: build_complete(int(n))),
    "multipartite": (1, lambda parts: build_complete_multipartite(_parse_parts(parts))),
    "tree": (2, lambda delta, depth: build_truncated_regular_tree(int(delta), int(depth))),
    "knn": (1, lambda n: cartesian_power(build_complete(int(n)), 2)),
    "hypercube": (1, lambda b: cartesian_power(build_complete(2), int(b))),
    "gnp": (3, lambda n, p, seed: build_gnp(int(n), float(p), int(seed))),
}


def resolve_family(tokens: list[str]) -> tuple[Graph, str]:
    """Build a named graph family from CLI tokens: the name, then exactly
    its arguments.

    Supported: path N; star K; complete N; multipartite A,B,...;
    tree DELTA DEPTH; knn N (the squared clique); hypercube B; gnp N P SEED.
    """
    if not tokens:
        raise ValueError("--family needs a name")
    name, args = tokens[0], tokens[1:]
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    arity, build = FAMILIES[name]
    try:
        if len(args) != arity:
            raise ValueError(f"takes {arity} argument(s), got {len(args)}")
        return build(*args), " ".join(tokens)
    except ValueError as exc:
        raise ValueError(f"bad --family arguments for {name!r}: {exc}") from exc


def _read(load, kind: str, path):
    """``load(path)``, naming the file in the error when it cannot be read."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {kind} {path!r}: {exc}") from exc


def _input_graph(args) -> tuple[Graph, str]:
    if getattr(args, "family", None):
        return resolve_family(args.family)
    if getattr(args, "graph", None):
        graph = _read(load_graph, "graph", args.graph)
        if graph.n == 0:
            raise ValueError("empty graph")
        return graph, args.graph
    raise ValueError("supply a graph file or --family")


def _budget(args) -> solver.SearchBudget:
    nodes = getattr(args, "budget_nodes", None)
    millis = getattr(args, "budget_ms", None)
    if nodes is None and millis is None:
        return solver.SearchBudget()
    try:
        return solver.SearchBudget(max_nodes=nodes, max_millis=millis)
    except ValueError:
        raise ValueError("--budget-nodes and --budget-ms must be finite and >= 0") from None


def cmd_verify(args) -> int:
    graph = _read(load_graph, "graph", args.graph)
    coloring = _read(load_coloring, "coloring", args.coloring)
    report = verify(graph, coloring)
    if args.json:
        _emit(
            {
                "valid": report.valid,
                "colors_used": report.colors_used,
                "violations": [list(v) for v in report.violations],
            }
        )
    else:
        print(f"valid: {report.valid}")
        print(f"colors_used: {report.colors_used}")
        for u, v, d, shared in report.violations:
            print(f"{u} {v} {d} {shared}")
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_solve(args) -> int:
    graph, name = _input_graph(args)
    if args.t < 1:
        raise ValueError("--t must be >= 1")
    budget = _budget(args)
    outcome = solver.tau_exact(graph, args.t, budget)
    payload = {
        "instance": name,
        "t": args.t,
        "status": outcome.status,
        "value": outcome.value,
        "best_lower": outcome.best_lower,
        "best_upper": outcome.best_upper,
        "nodes": outcome.stats.nodes,
    }
    written = []  # files are written before anything is printed
    if args.emit_witness and outcome.witness is not None:
        save_coloring(outcome.witness, args.emit_witness)
        written.append(f"witness written to {args.emit_witness}")
    if args.emit_cnf:
        k = outcome.value - 1 if outcome.status == solver.EXACT else outcome.best_lower
        if k < args.t:
            print(f"cnf export skipped: k={k} < t", file=sys.stderr)
        else:
            with open(args.emit_cnf, "w") as fh:
                fh.write(sat_export.encode_decision_cnf(graph, args.t, k))
            written.append(f"cnf for k={k} written to {args.emit_cnf}")
    if args.json:
        _emit(payload)
    else:
        if outcome.status == solver.EXACT:
            print(f"exact {outcome.value}")
        else:
            print(f"bracket [{outcome.best_lower}, {outcome.best_upper}]")
        print(f"nodes: {outcome.stats.nodes}  elapsed_ms: {outcome.stats.elapsed_ms:.1f}")
        for line in written:
            print(line)
    return EXIT_OK if outcome.status == solver.EXACT else EXIT_BUDGET


def bound_rows(graph: Graph, t: int, parts: list[int] | None = None) -> list[dict]:
    """One row per formula: source, kind, value, applicability note.

    The degree row is exact on trees at t = 2. The pairsum row is
    bounds.component_pairsum's report as it stands, with a note when its
    value is below the trivial bound t; on a star S_k it is exact iff
    t >= k. The path row needs a path. The multipartite rows need t >= 2
    and at least two parts.
    """
    delta = graph.max_degree
    degree = bounds.degree_bound(delta, t)
    tree = graph.m == graph.n - 1 and is_connected(graph)
    kind, note = "lower", f"max degree {delta}"
    if degree is None:
        note = "needs t >= 2 and an edge"
    elif t == 2 and tree:
        kind, note = "exact", note + "; exact on trees at t = 2"
    rows = [("degree", kind, degree, note)]
    pairsum = bounds.component_pairsum(graph, t)
    note = pairsum.reason
    if pairsum.value < t:
        note += f"; below the trivial bound t = {t}"
    rows.append(("pairsum", pairsum.kind, pairsum.value, note))
    if tree and delta <= 2:
        n = graph.n
        rows.append(("path_formula", "exact", bounds.path_formula(n, t), f"path on {n} vertices"))
    if parts is not None and len(parts) >= 2 and t >= 2:
        low = bounds.multipartite_lower(parts, t)
        note = "sum of per-part square roots"
        rows.append(("multipartite_real", "lower", round(low.real_value, 6), note))
        note = "per-part pair counting, solved exactly"
        rows.append(("multipartite_integer", "lower", low.integer_value, note))
    return [dict(zip(("source", "kind", "value", "note"), row)) for row in rows]


def cmd_bound(args) -> int:
    graph, name = _input_graph(args)
    if args.t < 1:
        raise ValueError("--t must be >= 1")
    parts = None
    if args.family and args.family[0] == "multipartite":
        parts = _parse_parts(args.family[1])
    rows = bound_rows(graph, args.t, parts)
    if args.json:
        _emit({"instance": name, "t": args.t, "bounds": rows})
    else:
        print(f"bounds for {name} at t={args.t}")
        for row in rows:
            value = "n/a" if row["value"] is None else row["value"]
            print(f"  {row['source']:<22} {row['kind']:<6} {value!s:<10} {row['note']}")
    return EXIT_OK


def _construct(args) -> tuple[Graph, ToneColoring, dict]:
    method = args.method
    t = 2 if args.t is None else args.t
    info: dict = {"method": method}
    if method == "large-t":
        graph, name = _input_graph(args)
        coloring = constructions.greedy_large_t_coloring(graph, t)
        info["instance"] = name
    elif method == "decomp2":
        graph, name = _input_graph(args)
        if args.t not in (None, 2):
            raise ValueError("decomp2 is a 2-tone construction")
        coloring, cert = constructions.two_tone_via_decomposition(graph)
        info.update(
            instance=name,
            proper_classes=cert.proper_classes,
            pair_classes=list(cert.pair_classes),
        )
    elif method == "mols":
        if args.n is None:
            raise ValueError("--method mols needs --n")
        if args.family_file:
            family = mols.load_family(args.family_file)
            if family.n != args.n:
                raise ValueError("family order does not match --n")
        else:
            family = mols.family_for_order(args.n)
        graph, coloring = constructions.mols_coloring_knn(family, t)
        info.update(order=args.n, family_size=family.size)
    elif method == "star":
        if args.k is None:
            raise ValueError("--method star needs --k")
        graph, coloring = constructions.star_coloring(args.k, t)
        info["k"] = args.k
    elif method == "multipartite":
        if not args.parts:
            raise ValueError("--method multipartite needs --parts")
        parts = _parse_parts(args.parts)
        graph, coloring = constructions.multipartite_coloring(parts, t)
        info["parts"] = parts
    elif method == "scheme":
        if not args.scheme:
            raise ValueError("--method scheme needs --scheme")
        spec = constructions.resolve_scheme(args.scheme)
        if args.t not in (None, spec.t):
            raise ValueError(f"scheme {spec.name} is a {spec.t}-tone construction")
        depth = args.depth if args.depth is not None else 2
        graph, coloring = constructions.tree_scheme_coloring(args.scheme, depth)
        info.update(scheme=args.scheme, depth=depth)
    else:
        raise ValueError(f"unknown method {method!r}")
    return graph, coloring, info


def cmd_construct(args) -> int:
    graph, coloring, info = _construct(args)
    save_coloring(coloring, args.output)
    if args.emit_graph:
        save_graph(graph, args.emit_graph)
    info["colors_used"] = used = colors_used(coloring)
    if args.json:
        _emit(info)
    else:
        print(f"colors_used: {used}")
        print(f"coloring written to {args.output}")
    return EXIT_OK


def _tau(graph: Graph, t: int) -> int | str:
    """tau_t(graph), or ``timeout@LOWER`` when the search gives up."""
    out = solver.tau_exact(graph, t)
    return out.value if out.status == solver.EXACT else f"timeout@{out.best_lower}"


def _knn_colors(family: mols.MolsFamily) -> int:
    """Colors used by the family's 2-tone coloring of the squared clique."""
    _, coloring = constructions.mols_coloring_knn(family, 2)
    return colors_used(coloring)


# table name -> its (case, expected, computed) triples, in print order
_TABLE_ROWS = {
    "tone3-stars": lambda: [
        (f"tau_3(S_{delta})", expected, _tau(build_star(delta), 3))
        for delta, expected in [(2, 8), (3, 9), (4, 9), (5, 10)]
    ],
    "tone4-stars": lambda: [
        (f"tau_4(S_{k})", expected, _tau(build_star(k), 4))
        for k, expected in [(2, 11), (3, 13), (4, 14)]
    ],
    "prop73": lambda: [
        ("tau_5(S_3)", 17, _tau(build_star(3), 5)),
        (
            "S_3 + two vertices on a leaf, t=5, k=17",
            "infeasible",
            solver.feasible(Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]), 5, 17).status,
        ),
    ],
    # Clique lower bound: the squared clique contains K_n, which needs t*n
    # colors outright, so used == t*n certifies equality.
    "mols-square": lambda: [
        *((f"tau_2(K_{n}^2)", 2 * n, _knn_colors(mols.family_for_order(n))) for n in (3, 5, 7)),
        (
            "tau_2(K_15^2) upper witness",
            30,
            _knn_colors(mols.macneish_product(mols.prime_mols(3), mols.prime_mols(5))),
        ),
    ],
    "paths": lambda: [
        (f"tau_{t}(P_{n})", bounds.path_formula(n, t), _tau(build_path(n), t))
        for n in range(1, 7)
        for t in range(1, 5)
    ],
}
TABLES = list(_TABLE_ROWS)


def _reproduce_rows(table: str) -> list[dict]:
    if table not in _TABLE_ROWS:
        raise ValueError(f"unknown table {table!r}")
    return [dict(zip(("case", "expected", "computed"), row)) for row in _TABLE_ROWS[table]()]


def cmd_reproduce(args) -> int:
    """One table, or with --table all every table in order; worst exit code."""
    tables = TABLES if args.table == "all" else [args.table]
    worst = EXIT_OK
    for table in tables:
        if len(tables) > 1 and not args.json:
            print(f"== {table}")
        worst = max(worst, _reproduce_table(table, args.json))
    return worst


def _reproduce_table(table: str, as_json: bool) -> int:
    rows = _reproduce_rows(table)
    ok = all(r["expected"] == r["computed"] for r in rows)
    if as_json:
        _emit({"table": table, "rows": rows, "pass": ok})
    else:
        width = max(len(r["case"]) for r in rows)
        for r in rows:
            status = "ok" if r["expected"] == r["computed"] else "MISMATCH"
            print(
                f"{r['case']:<{width}}  expected {r['expected']!s:<10} "
                f"computed {r['computed']!s:<10} {status}"
            )
        print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_INVALID


def _experiment_row(n: int, c: float, seed: int, t: int) -> dict:
    graph = build_gnp(n, c / n, seed)
    delta = graph.max_degree
    degree = bounds.degree_bound(delta, t)
    heuristic_colors = colors_used(solver.greedy_heuristic_climb(graph, t))
    decomp_colors = None
    if t == 2:
        decomp, _ = constructions.two_tone_via_decomposition(graph)
        decomp_colors = colors_used(decomp)
    upper = min(x for x in (heuristic_colors, decomp_colors) if x is not None)
    ratio = round(upper / math.sqrt(t * (t - 1) * delta), 6) if degree else None
    return {
        "n": n,
        "c": c,
        "seed": seed,
        "t": t,
        "edges": graph.m,
        "max_degree": delta,
        "lower": degree or t,
        "greedy_upper": heuristic_colors,
        "decomp_upper": decomp_colors,
        "upper": upper,
        "ratio": ratio,
    }


def cmd_experiment(args) -> int:
    try:
        n, c, seed = int(args.gnp[0]), float(args.gnp[1]), int(args.gnp[2])
    except ValueError as exc:
        raise ValueError(f"bad --gnp arguments: {exc}") from exc
    if n < 1:
        raise ValueError("--gnp N must be >= 1")
    if not 0 <= c <= n:
        raise ValueError("--gnp C must lie in [0, N]")
    if seed < 0:
        raise ValueError("--gnp SEED must be >= 0")
    if args.t < 1:
        raise ValueError("--t must be >= 1")
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    for k in range(args.seeds):
        row = _experiment_row(n, c, seed + k, args.t)
        if args.json:
            _emit(row)
        else:
            if k:
                print()
            for key, value in row.items():
                print(f"{key}: {value}")
    return EXIT_OK


def cmd_mols(args) -> int:
    sources = (args.prime, args.order, args.check, args.product)
    if sum(source is not None for source in sources) != 1:
        raise ValueError("choose one of --prime, --order, --check, --product")
    if args.prime is not None:
        family = mols.prime_mols(args.prime)
    elif args.order is not None:
        family = mols.family_for_order(args.order)
    elif args.check is not None:
        family = mols.load_family(args.check)
    else:
        family = mols.macneish_product(
            mols.load_family(args.product[0]), mols.load_family(args.product[1])
        )
    if args.output:
        mols.save_family(family, args.output)
    payload = {
        "order": family.n,
        "size": family.size,
        "verified": True,  # a MolsFamily cannot be built unverified
        "beth_floor": mols.beth_lower_bound(family.n),
    }
    if args.json:
        _emit(payload)
    else:
        print(f"order {family.n}, {family.size} mutually orthogonal squares (verified)")
        print(f"theoretical family-size floor for this order: {payload['beth_floor']}")
        if args.output:
            print(f"family written to {args.output}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tonelab", description="t-tone graph coloring toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a coloring file against a graph file")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="compute the t-tone chromatic number")
    p.add_argument("graph", nargs="?")
    p.add_argument("--family", nargs="+")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--budget-nodes", type=int)
    p.add_argument("--budget-ms", type=float)
    p.add_argument("--emit-witness", metavar="PATH")
    p.add_argument("--emit-cnf", metavar="PATH")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bound", help="print all applicable closed-form bounds")
    p.add_argument("graph", nargs="?")
    p.add_argument("--family", nargs="+")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("construct", help="emit a coloring from a construction")
    p.add_argument(
        "--method",
        required=True,
        choices=["large-t", "decomp2", "mols", "star", "multipartite", "scheme"],
    )
    p.add_argument("graph", nargs="?")
    p.add_argument("--family", nargs="+")
    p.add_argument("--t", type=int, help="default 2; a scheme fixes its own t")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--parts")
    p.add_argument("--scheme")
    p.add_argument("--depth", type=int)
    p.add_argument("--family-file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--emit-graph", metavar="PATH")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("reproduce", help="recompute a known small-case table and diff it")
    p.add_argument("--table", required=True, choices=[*TABLES, "all"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("experiment", help="sparse random graph bound sandwich")
    p.add_argument("--gnp", nargs=3, required=True, metavar=("N", "C", "SEED"))
    p.add_argument("--t", type=int, default=2)
    p.add_argument(
        "--seeds", type=int, default=1, metavar="K", help="one row per seed SEED..SEED+K-1"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("mols", help="build, compose, or check Latin square families")
    p.add_argument("--prime", type=int)
    p.add_argument("--order", type=int)
    p.add_argument("--check", metavar="FILE")
    p.add_argument("--product", nargs=2, metavar=("F1", "F2"))
    p.add_argument("-o", "--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mols)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ValueError: malformed input; OSError: an unreadable or unwritable path
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
