"""The four workloads: their inputs, their CLI operations and the check
each operation's output must pass.

- search: the paper's small-case tables through `reproduce`, the exact
  solve of S_3 plus two vertices on a leaf (a 310k-node refutation of 17
  colours, then 18), four budgeted solves of G(300, 0.01) and one of a
  fixed G(60, 0.05). The search does nearly all the work, so ROADMAP
  item 3 (time per node) shows here and item 2 (sparse distances) should
  not.
- sparse: `experiment` on G(5000, 2/n) at t = 2 and 3, `verify` of a
  valid and a corrupted witness on another G(5000, 2/n), and a budgeted
  solve of G(2000, 0.001) whose budget keeps the search idle. The dense
  distance matrix, decomp2, pairsum and the solver's preparation
  dominate: ROADMAP item 2 should move this workload, item 3 should not.
- dense: MOLS and decomp2 constructions with `verify` of their output,
  bounds on the 8-cube and K_{20,30,40}, the small constructions, MOLS
  tooling and a CNF export. Distance-t balls cover these graphs, the case
  a dense matrix suits best, so it guards item 2 from costing them.
- parallel: the two solves of `search` that reach the pool, with
  TONELAB_THREADS=2, the only workload running the process pool; item 3
  decides by it whether the pool shows a speed-up or is deleted.

Every operation is one call of `tonelab.cli.main(argv)`. Checks use only
`reference`, never tonelab. Seeds of random inputs are derived from the
run's `--seed`. The G(60, 0.05) instance is fixed because that family is
bimodal across seeds (about half solve exactly in a few hundred nodes,
half exhaust the budget), which would make each pass's work, and so
every timing, depend on the seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import networkx as nx
import numpy as np

import reference as ref

THREADS = {"search": 1, "sparse": 1, "dense": 1, "parallel": 2}

# Sizes keep a pass to a few seconds, so that a run holds several passes:
# with one 20-s pass of G(10000, 2/n) the spread over seeds was 13-18%
# on a shared 2-vCPU VM.
# The sparse solve's budget keeps its search idle and under 500 levels
# deep (each level costs at least 4 nodes at t = 2); at 20000 nodes the
# recursive search went past Python's recursion limit on half the seeds.
FULL = dict(
    gnp_n=300, gnp_p="0.01", gnp_count=4, gnp_budget=25_000, g60_budget=100_000,
    sparse_n=4000, solve_n=1250, solve_p="0.0016", solve_count=2, solve_budget=2000,
    mols_n=19, cube=10, bound_cube=8, bound_parts="20,30,40", prime=47,
)
# Same operation lists on small inputs, for the self-test.
TINY = dict(
    gnp_n=40, gnp_p="0.075", gnp_count=2, gnp_budget=2000, g60_budget=5000,
    sparse_n=300, solve_n=200, solve_p="0.01", solve_count=2, solve_budget=500,
    mols_n=5, cube=4, bound_cube=3, bound_parts="2,3,4", prime=7,
)


def derive(seed: int, label: str) -> int:
    """A per-input seed; str seeds hash deterministically across runs."""
    return random.Random(f"{seed}/{label}").randrange(1, 2**31)


class Context:
    """Where one run's files live, its sizes, and cached reference objects."""

    def __init__(self, workdir: str, seed: int, tiny: bool):
        self.dir = workdir
        self.seed = seed
        self.size = TINY if tiny else FULL
        self._cache: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def cached(self, key, build: Callable):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]


@dataclass
class Result:
    rc: Optional[int]
    stdout: str
    stderr: str

    @property
    def json(self) -> dict:
        return json.loads(self.stdout.strip().splitlines()[-1])


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[Result, Context], Optional[str]]
    threads: int = 1
    cmd: str = field(init=False)

    def __post_init__(self):
        self.cmd = self.argv[0]


# ---------------------------------------------------------------------------
# Checks. Each returns None when the output is right, else a message.
# ---------------------------------------------------------------------------


def _first_error(*conditions: tuple[bool, str]) -> Optional[str]:
    return next((msg for ok, msg in conditions if not ok), None)


def check_reproduce(table: str):
    def check(res: Result, ctx: Context):
        out = res.json
        got = {row["case"]: row["computed"] for row in out["rows"]}
        return _first_error(
            (res.rc == 0, f"exit {res.rc}"),
            (out["pass"] is True, "table reported a mismatch"),
            (got == ref.paper_table(table), f"rows differ from the paper: {got}"),
        )

    return check


def check_exact_solve(graph: Callable, t: int, value: int, witness: str):
    def check(res: Result, ctx: Context):
        out = res.json
        err = _first_error(
            (res.rc == 0, f"exit {res.rc}"),
            (out["status"] == "exact", f"status {out['status']}"),
            (out["value"] == value, f"value {out['value']}, expected {value}"),
            (out["best_lower"] == out["best_upper"] == value, "bracket does not close"),
        )
        if err:
            return err
        bad, used = ref.check_witness(ctx.cached(graph, graph), ctx.path(witness), t)
        return bad or (None if used == value else f"witness uses {used} colours, not {value}")

    return check


def check_budgeted_solve(graph: Callable, t: int, witness: str):
    """Exit 3 with an ordered bracket and a valid upper witness; a solve
    that closes within the budget (exit 0) must carry an optimal-size
    witness no smaller than the degree bound."""

    def check(res: Result, ctx: Context):
        g = ctx.cached(graph, graph)
        out = res.json
        floor = ref.degree_lower(max(d for _, d in g.degree()), t)
        if res.rc == 3:
            err = _first_error(
                (out["status"] == "timeout", f"exit 3 with status {out['status']}"),
                (floor <= out["best_lower"] <= out["best_upper"], f"bracket {out}"),
            )
            limit = out["best_upper"]
        elif res.rc == 0:
            err = _first_error(
                (out["status"] == "exact", f"exit 0 with status {out['status']}"),
                (out["value"] >= floor, f"value {out['value']} below degree bound {floor}"),
            )
            limit = out["value"]
        else:
            return f"exit {res.rc}: {res.stderr.strip()[-200:]}"
        if err:
            return err
        bad, used = ref.check_witness(g, ctx.path(witness), t)
        return bad or (None if used <= limit else f"witness uses {used} > {limit} colours")

    return check


def check_cnf(graph: Callable, t: int, k: int, cnf: str):
    def check(res: Result, ctx: Context):
        with open(ctx.path(cnf)) as fh:
            lines = fh.read().splitlines()
        header = next(ln for ln in lines if ln.startswith("p cnf")).split()
        g = ctx.cached(graph, graph)
        want = ctx.cached(("cnf", cnf), lambda: ref.cnf_clause_count(g, t, k))
        clauses = sum(1 for ln in lines if ln and ln[0] not in "cp")
        return _first_error(
            (int(header[2]) == g.number_of_nodes() * k, f"cnf declares {header[2]} variables"),
            (int(header[3]) == want == clauses, f"cnf has {header[3]}/{clauses}, want {want}"),
        )

    return check


def both(*checks):
    def check(res: Result, ctx: Context):
        return next((e for e in (c(res, ctx) for c in checks) if e), None)

    return check


def check_verify(graph: str, coloring: str, expect_valid: bool):
    """Verdict, colour count and the exact violation list, recomputed; the
    input must be as valid or invalid as the workload meant it to be."""

    def check(res: Result, ctx: Context):
        g = ref.read_graph(ctx.path(graph))
        t, sets = ref.read_coloring(ctx.path(coloring))
        want = ref.violations(g, t, sets)
        out = res.json
        return _first_error(
            ((not want) == expect_valid, f"input meant {'valid' if expect_valid else 'invalid'}"),
            (res.rc == (1 if want else 0), f"exit {res.rc} with {len(want)} violations"),
            (out["valid"] == (not want), "wrong verdict"),
            (out["violations"] == want, f"violation lists differ ({len(out['violations'])} vs {len(want)})"),
            (out["colors_used"] == len(set().union(*sets)), "wrong colors_used"),
        )

    return check


def check_construct(graph: Callable, t: int, output: str, colours=None, floor=0, emitted=None):
    """Valid witness; colours equal to a closed form when one exists, else
    no fewer than a lower bound; an emitted graph equal to the reference."""

    def check(res: Result, ctx: Context):
        if res.rc != 0:
            return f"exit {res.rc}: {res.stderr.strip()[-200:]}"
        g = ctx.cached(graph, graph)
        bad, used = ref.check_witness(g, ctx.path(output), t)
        out = res.json
        return bad or _first_error(
            (out["colors_used"] == used, f"reports {out['colors_used']} colours, file uses {used}"),
            (colours is None or used == colours, f"{used} colours, closed form {colours}"),
            (used >= floor, f"{used} colours, below the lower bound {floor}"),
            (emitted is None or nx.utils.graphs_equal(ref.read_graph(ctx.path(emitted)), g),
             "emitted graph differs from the reference"),
        )

    return check


def check_bound(graph: Callable, t: int, parts=None):
    def check(res: Result, ctx: Context):
        g = ctx.cached(graph, graph)
        deficiency, _ = ctx.cached(("deficiency", graph), lambda: ref.deficiency_sum(g))
        rows = {row["source"]: row["value"] for row in res.json["bounds"]}
        want = {
            "degree": ref.degree_lower(max(d for _, d in g.degree()), t),
            "pairsum": t * g.number_of_nodes() - deficiency,
        }
        if parts:
            want["multipartite_real"] = round(sum(math.sqrt(t * (t - 1) * a) for a in parts), 6)
            want["multipartite_integer"] = sum(ref.min_palette_for_pairs(t, a) for a in parts)
        return _first_error(
            (res.rc == 0, f"exit {res.rc}"),
            (all(rows.get(k) == v for k, v in want.items()), f"bounds {rows}, expected {want}"),
        )

    return check


def check_mols(order: int, size: int, family_file: Optional[str] = None):
    def check(res: Result, ctx: Context):
        out = res.json
        err = _first_error(
            (res.rc == 0, f"exit {res.rc}"),
            ((out["order"], out["size"]) == (order, size), f"family {out}"),
            (out["verified"] is True, "family not verified"),
            (out["beth_floor"] == ref.beth_floor(order), "wrong beth_floor"),
        )
        if err or family_file is None:
            return err
        squares = ref.read_family(ctx.path(family_file))
        return _first_error(
            (len(squares) == size and len(squares[0]) == order, "family file has the wrong shape"),
            (ref.is_mols(squares), "family file is not a set of MOLS"),
        )

    return check


def check_experiment(n: int, c: str, seed: int, t: int):
    def check(res: Result, ctx: Context):
        g = ctx.cached(("gnp", n, c, seed), lambda: ref.gnp_pcg64(n, float(c) / n, seed))
        delta = max(d for _, d in g.degree())
        out = res.json
        uppers = [x for x in (out["greedy_upper"], out["decomp_upper"]) if x is not None]
        return _first_error(
            (res.rc == 0, f"exit {res.rc}"),
            ((out["edges"], out["max_degree"]) == (g.number_of_edges(), delta), "graph differs"),
            (out["lower"] == ref.degree_lower(delta, t), f"lower {out['lower']}"),
            ((out["decomp_upper"] is None) == (t != 2), "decomp_upper present iff t = 2"),
            (out["upper"] == min(uppers) >= out["lower"], f"upper {out['upper']}"),
            (out["ratio"] == round(out["upper"] / math.sqrt(t * (t - 1) * delta), 6), "ratio"),
        )

    return check


def _gnp(n, p: str, seed) -> Callable:
    return partial(ref.gnp_pcg64, n, float(p), seed)


# ---------------------------------------------------------------------------
# Set-up: the files a workload reads, written from the seed
# ---------------------------------------------------------------------------


def setup(workload: str, ctx: Context) -> None:
    os.makedirs(ctx.dir, exist_ok=True)
    if workload in ("search", "parallel"):
        ref.write_graph(ref.star3_plus2(), ctx.path("s3p2.gr"))
    elif workload == "dense":
        ref.write_family(ref.prime_squares(3), ctx.path("p3.txt"))
        ref.write_family(ref.prime_squares(5), ctx.path("p5.txt"))
    elif workload == "sparse":
        n = ctx.size["sparse_n"]
        g = nx.fast_gnp_random_graph(n, 2 / n, seed=derive(ctx.seed, "verify-graph"))
        ok = ref.distance2_coloring(g, 2)
        rng = np.random.default_rng(derive(ctx.seed, "corrupt"))
        ref.write_graph(g, ctx.path("sparse.gr"))
        ref.write_coloring(2, ok, ctx.path("sparse_ok.col"))
        ref.write_coloring(2, ref.corrupt(g, ok, 5, rng), ctx.path("sparse_bad.col"))
    else:
        raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Operation lists
# ---------------------------------------------------------------------------


def _solver_ops(ctx: Context, threads: int) -> list[Op]:
    """The exact refutation-then-find on S_3 plus two, and a fixed
    G(60, 0.05) instance stuck at lower bound 6 while 7 is feasible."""
    g60 = ctx.size["g60_budget"]
    return [
        Op("solve-s3p2",
           ["solve", ctx.path("s3p2.gr"), "--t", "5", "--emit-witness", ctx.path("s3p2.col"), "--json"],
           check_exact_solve(ref.star3_plus2, 5, ref.STAR3_PLUS2_TAU5, "s3p2.col"),
           threads),
        Op("solve-gnp60",
           ["solve", "--family", "gnp", "60", "0.05", "1", "--t", "2", "--budget-nodes", str(g60),
            "--emit-witness", ctx.path("gnp60.col"), "--json"],
           check_budgeted_solve(_gnp(60, "0.05", 1), 2, "gnp60.col"),
           threads),
    ]


def _search_ops(ctx: Context) -> list[Op]:
    s = ctx.size
    ops = [
        Op(f"reproduce-{table}", ["reproduce", "--table", table, "--json"], check_reproduce(table))
        for table in ["tone3-stars", "tone4-stars", "prop73", "paths", "mols-square"]
    ]
    for i in range(s["gnp_count"]):
        seed = derive(ctx.seed, f"gnp{i}")
        ops.append(Op(
            f"solve-gnp{s['gnp_n']}-{i}",
            ["solve", "--family", "gnp", str(s["gnp_n"]), s["gnp_p"], str(seed), "--t", "2",
             "--budget-nodes", str(s["gnp_budget"]), "--emit-witness", ctx.path(f"gnp{i}.col"),
             "--json"],
            check_budgeted_solve(_gnp(s["gnp_n"], s["gnp_p"], seed), 2, f"gnp{i}.col"),
        ))
    return ops + _solver_ops(ctx, 1)


def _sparse_ops(ctx: Context) -> list[Op]:
    s = ctx.size
    n = s["sparse_n"]
    ops = []
    for t in (2, 3):
        seed = derive(ctx.seed, f"experiment-t{t}")
        ops.append(Op(f"experiment-t{t}",
                      ["experiment", "--gnp", str(n), "2", str(seed), "--t", str(t), "--json"],
                      check_experiment(n, "2", seed, t)))
    for name, valid in (("ok", True), ("bad", False)):
        col = f"sparse_{name}.col"
        ops.append(Op(f"verify-{name}", ["verify", ctx.path("sparse.gr"), ctx.path(col), "--json"],
                      check_verify("sparse.gr", col, valid)))
    for i in range(s["solve_count"]):
        seed = derive(ctx.seed, f"solve{i}")
        ops.append(Op(
            f"solve-gnp-sparse-{i}",
            ["solve", "--family", "gnp", str(s["solve_n"]), s["solve_p"], str(seed), "--t", "2",
             "--budget-nodes", str(s["solve_budget"]),
             "--emit-witness", ctx.path(f"sparse_solve{i}.col"), "--json"],
            check_budgeted_solve(_gnp(s["solve_n"], s["solve_p"], seed), 2, f"sparse_solve{i}.col"),
        ))
    return ops


def _dense_ops(ctx: Context) -> list[Op]:
    s = ctx.size
    p = ctx.path
    mols_n, cube = s["mols_n"], s["cube"]
    rook = partial(ref.rook, mols_n)
    q = partial(ref.hypercube, cube)
    parts = [int(x) for x in s["bound_parts"].split(",")]
    ops = [
        Op("construct-mols", ["construct", "--method", "mols", "--n", str(mols_n), "--t", "3",
                              "--emit-graph", p("rook.gr"), "-o", p("rook.col"), "--json"],
           check_construct(rook, 3, "rook.col", colours=3 * mols_n, emitted="rook.gr")),
        Op("verify-mols", ["verify", p("rook.gr"), p("rook.col"), "--json"],
           check_verify("rook.gr", "rook.col", True)),
        Op("construct-decomp2", ["construct", "--method", "decomp2", "--family", "hypercube",
                                 str(cube), "--emit-graph", p("cube.gr"), "-o", p("cube.col"), "--json"],
           check_construct(q, 2, "cube.col", floor=ref.degree_lower(cube, 2), emitted="cube.gr")),
        Op("verify-decomp2", ["verify", p("cube.gr"), p("cube.col"), "--json"],
           check_verify("cube.gr", "cube.col", True)),
        Op("bound-hypercube", ["bound", "--family", "hypercube", str(s["bound_cube"]), "--t", "3",
                               "--json"],
           check_bound(partial(ref.hypercube, s["bound_cube"]), 3)),
        Op("bound-multipartite", ["bound", "--family", "multipartite", s["bound_parts"], "--t", "5",
                                  "--json"],
           check_bound(partial(ref.multipartite, tuple(parts)), 5, parts)),
        Op("construct-multipartite", ["construct", "--method", "multipartite", "--parts", "5,5,5,5",
                                      "--t", "3", "-o", p("mp.col"), "--json"],
           check_construct(partial(ref.multipartite, (5, 5, 5, 5)), 3, "mp.col",
                           floor=4 * ref.min_palette_for_pairs(3, 5))),
        Op("construct-star", ["construct", "--method", "star", "--k", "5", "--t", "3",
                              "-o", p("star.col"), "--json"],
           check_construct(partial(ref.star, 5), 3, "star.col",
                           colours=ref.paper_table("tone3-stars")["tau_3(S_5)"])),
        Op("construct-large-t", ["construct", "--method", "large-t", "--family", "star", "6",
                                 "--t", "6", "-o", p("large_t.col"), "--json"],
           check_construct(partial(ref.star, 6), 6, "large_t.col",
                           colours=ref.star_tau_large_t(6, 6))),
    ]
    for scheme in ref.SCHEME_PALETTES:
        tree = partial(ref.regular_tree, ref.SCHEME_ARITY[scheme], 4)
        ops.append(Op(f"construct-{scheme}",
                      ["construct", "--method", "scheme", "--scheme", scheme, "--depth", "4",
                       "-o", p(f"{scheme}.col"), "--json"],
                      check_construct(tree, ref.SCHEME_T[scheme], f"{scheme}.col",
                                      colours=ref.SCHEME_PALETTES[scheme])))
    prime = s["prime"]
    ops += [
        Op("mols-prime", ["mols", "--prime", str(prime), "--json"], check_mols(prime, prime - 1)),
        Op("mols-order", ["mols", "--order", "15", "-o", p("m15.txt"), "--json"],
           check_mols(15, 2, "m15.txt")),
        Op("mols-check", ["mols", "--check", p("m15.txt"), "--json"], check_mols(15, 2)),
        Op("mols-product", ["mols", "--product", p("p3.txt"), p("p5.txt"), "--json"],
           check_mols(15, 2)),
    ]
    star4 = partial(ref.star, 4)
    ops.append(Op(
        "solve-star-cnf",
        ["solve", "--family", "star", "4", "--t", "4", "--emit-cnf", p("star4.cnf"),
         "--emit-witness", p("star4.col"), "--json"],
        both(
            check_exact_solve(star4, 4, ref.paper_table("tone4-stars")["tau_4(S_4)"], "star4.col"),
            check_cnf(star4, 4, ref.paper_table("tone4-stars")["tau_4(S_4)"] - 1, "star4.cnf"),
        ),
    ))
    return ops


def operations(workload: str, ctx: Context) -> list[Op]:
    if workload == "search":
        return _search_ops(ctx)
    if workload == "parallel":
        return _solver_ops(ctx, THREADS["parallel"])
    if workload == "sparse":
        return _sparse_ops(ctx)
    if workload == "dense":
        return _dense_ops(ctx)
    raise ValueError(f"unknown workload {workload!r}")
