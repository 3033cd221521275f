"""Traced mode: spans around every public tonelab function, recorded from
the benchmark's side with no edits to the package.

Each public function is wrapped where it is defined and in every tonelab
module that imported it by name, so `verify` is traced whether `cli`,
`solver` or `constructions` calls it. A name the metrics below rely on
that no longer exists is reported as missing and its metrics read zero.

Self time is a span's duration minus the time covered by its child spans.
Spans inside process-pool workers stay in those processes; the pool's
work shows as `solver.pool_cpu_s` and in the parent's wait inside
`solver.feasible`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Groups of functions the per-layer metrics read, as "<module>.<function>".
BUILDERS = {
    "graphs.build_path", "graphs.build_star", "graphs.build_complete",
    "graphs.build_complete_multipartite", "graphs.build_truncated_regular_tree",
    "graphs.build_gnp", "graphs.cartesian_product", "graphs.cartesian_power",
}
GRAPH_IO = {"graphs.load_graph", "graphs.parse_graph", "graphs.save_graph", "graphs.format_graph"}
COLORING_IO = {
    "coloring.load_coloring", "coloring.parse_coloring",
    "coloring.save_coloring", "coloring.format_coloring",
}
MOLS_FAMILY = {"mols.prime_mols", "mols.macneish_product", "mols.family_for_order"}
MOLS_IO = {"mols.load_family", "mols.save_family", "mols.parse_family", "mols.format_family"}
CONSTRUCTIONS = {
    "decomp2": {"constructions.two_tone_via_decomposition"},
    "heuristic": {"constructions.greedy_heuristic_coloring"},
    "mols": {"constructions.mols_coloring_knn"},
    "scheme": {"constructions.tree_scheme_coloring", "constructions.scheme_tree"},
    "star": {"constructions.star_coloring"},
    "multipartite": {"constructions.multipartite_coloring"},
    "large_t": {"constructions.greedy_large_t_coloring"},
}
DISTANCES = "graphs.all_pairs_distances_capped"
FEASIBLE = "solver.feasible"
LOWER_BOUND = "solver.starting_lower_bound"
PAIRSUM = "bounds.pairsum_bound"
VERIFY = "coloring.verify"
HEURISTIC = "constructions.greedy_heuristic_coloring"
CNF = "sat_export.encode_decision_cnf"

# Names the metrics read; the dense distance matrix is listed so its
# removal shows up as missing rather than as a silent zero.
EXPECTED = sorted(
    BUILDERS | GRAPH_IO | COLORING_IO | MOLS_FAMILY | MOLS_IO
    | set().union(*CONSTRUCTIONS.values())
    | {
        DISTANCES, FEASIBLE, LOWER_BOUND, PAIRSUM, VERIFY, CNF,
        "graphs.connected_components", "graphs.is_connected", "graphs.DistMatrix",
        "bounds.distance_deficiency", "bounds.degree_lower_bound",
        "solver.search_order", "solver.greedy_clique_size",
    }
)

LAYER_UNITS = {
    "graphs.distances_s": "s",
    "graphs.distances_calls": "count",
    "graphs.distances_mb": "MB-computed",  # n x n int32 per call, not measured
    "graphs.build_s": "s",
    "graphs.components_s": "s",
    "graphs.io_s": "s",
    "bounds.pairsum_s": "s",
    "bounds.pairsum_calls": "count",
    "bounds.deficiency_self_s": "s",
    "bounds.pairsum_win_ratio": "ratio",
    "solver.lower_bound_s": "s",
    "solver.feasible_s": "s",
    "solver.feasible_calls": "count",
    "solver.search_self_s": "s",
    "solver.us_per_node": "us/node",
    "solver.nodes": "count",
    "solver.verdicts.feasible": "count",
    "solver.verdicts.infeasible": "count",
    "solver.verdicts.timeout": "count",
    "solver.pool_cpu_s": "s",
    "solver.parallelism": "ratio",
    "coloring.verify_s": "s",
    "coloring.verify_self_s": "s",
    "coloring.verify_calls": "count",
    "coloring.verify_per_op": "ratio",
    "coloring.io_s": "s",
    **{f"constructions.{name}_s": "s" for name in CONSTRUCTIONS},
    "constructions.heuristic_attempts": "count",
    "constructions.heuristic_success_ratio": "ratio",
    "mols.family_s": "s",
    "mols.io_s": "s",
    "sat_export.encode_s": "s",
    "sat_export.clauses": "count",
}


class Span:
    __slots__ = ("key", "parent", "dur", "child", "info")

    def __init__(self, key, parent):
        self.key = key
        self.parent = parent
        self.dur = 0.0
        self.child = 0.0
        self.info = None

    def ancestors(self):
        p = self.parent
        while p is not None:
            yield p
            p = p.parent


def _info(key, args, result):
    """The few return values the ratio and count metrics need."""
    if key == DISTANCES:
        return args[0].n * args[0].n * 4 / 1e6  # computed n x n int32 bytes
    if key == PAIRSUM:
        return result.value
    if key in ("bounds.degree_lower_bound", "solver.greedy_clique_size"):
        return result
    if key == LOWER_BOUND:
        return args[1]
    if key == FEASIBLE:
        return (result.status, result.stats.nodes)
    if key == HEURISTIC:
        return result is not None
    if key == CNF:
        header = next(ln for ln in result.splitlines() if ln.startswith("p cnf"))
        return int(header.split()[3])
    return None


class Tracer:
    """Installs wrappers, records spans in memory, restores on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(key, stack[-1] if stack else None)
            stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.dur = time.perf_counter() - t0
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.dur
                tracer.spans.append(span)
            try:
                span.info = _info(key, args, result)
            except (AttributeError, IndexError, StopIteration, TypeError, ValueError):
                span.info = None
            return result

        return traced

    def install(self) -> None:
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("tonelab.") and mod is not None
        }
        wrappers = {}
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
        for mod in [*modules.values(), sys.modules.get("tonelab")]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])
        self.missing = [
            key
            for key in EXPECTED
            if not hasattr(modules.get(key.split(".")[0]), key.split(".")[1])
        ]

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def take(self) -> list[Span]:
        """Spans finished since the last call."""
        out, self.spans = self.spans, []
        return out


def layer_metrics(spans: list[Span], ops: int, cpu: dict) -> dict:
    """Per-layer metrics of one pass from its spans and resource usage."""

    def pick(keys):
        return [s for s in spans if s.key in keys]

    def inclusive(keys):
        # outermost spans only, so nested calls in one family count once
        return sum(s.dur for s in pick(keys) if not any(a.key in keys for a in s.ancestors()))

    def self_time(keys):
        return sum(s.dur - s.child for s in pick(keys))

    feasible = pick({FEASIBLE})
    nodes = sum(s.info[1] for s in feasible if s.info)
    verdicts = [s.info[0] for s in feasible if s.info]
    search_self = self_time({FEASIBLE})
    heuristics = pick({HEURISTIC})
    lower_bounds = pick({LOWER_BOUND})
    verify_calls = len(pick({VERIFY}))

    def pairsum_won(span):
        kids = [s for s in spans if s.parent is span]
        pairsum = [s.info for s in kids if s.key == PAIRSUM and s.info is not None]
        t = span.info or 0
        others = [t]
        others += [s.info for s in kids if s.key == "bounds.degree_lower_bound" and s.info]
        others += [t * s.info for s in kids if s.key == "solver.greedy_clique_size" and s.info]
        return bool(pairsum) and max(pairsum) > max(others)

    out = {
        "graphs.distances_s": inclusive({DISTANCES}),
        "graphs.distances_calls": len(pick({DISTANCES})),
        "graphs.distances_mb": sum(s.info or 0 for s in pick({DISTANCES})),
        "graphs.build_s": inclusive(BUILDERS),
        "graphs.components_s": inclusive({"graphs.connected_components", "graphs.is_connected"}),
        "graphs.io_s": inclusive(GRAPH_IO),
        "bounds.pairsum_s": inclusive({PAIRSUM}),
        "bounds.pairsum_calls": len(pick({PAIRSUM})),
        "bounds.deficiency_self_s": self_time({"bounds.distance_deficiency"}),
        "bounds.pairsum_win_ratio": (
            sum(map(pairsum_won, lower_bounds)) / len(lower_bounds) if lower_bounds else 0.0
        ),
        "solver.lower_bound_s": inclusive({LOWER_BOUND}),
        "solver.feasible_s": inclusive({FEASIBLE}),
        "solver.feasible_calls": len(feasible),
        "solver.search_self_s": search_self,
        "solver.us_per_node": search_self / nodes * 1e6 if nodes else 0.0,
        "solver.nodes": nodes,
        "solver.verdicts.feasible": verdicts.count("feasible"),
        "solver.verdicts.infeasible": verdicts.count("infeasible"),
        "solver.verdicts.timeout": verdicts.count("timeout"),
        "solver.pool_cpu_s": cpu["children"],
        "solver.parallelism": (cpu["self"] + cpu["children"]) / cpu["wall"],
        "coloring.verify_s": inclusive({VERIFY}),
        "coloring.verify_self_s": self_time({VERIFY}),
        "coloring.verify_calls": verify_calls,
        "coloring.verify_per_op": verify_calls / ops,
        "coloring.io_s": inclusive(COLORING_IO),
        **{f"constructions.{name}_s": self_time(keys) for name, keys in CONSTRUCTIONS.items()},
        "constructions.heuristic_attempts": len(heuristics),
        "constructions.heuristic_success_ratio": (
            sum(1 for s in heuristics if s.info) / len(heuristics) if heuristics else 0.0
        ),
        "mols.family_s": inclusive(MOLS_FAMILY),
        "mols.io_s": inclusive(MOLS_IO),
        "sat_export.encode_s": inclusive({CNF}),
        "sat_export.clauses": sum(s.info or 0 for s in pick({CNF})),
    }
    assert out.keys() == LAYER_UNITS.keys()
    return out
