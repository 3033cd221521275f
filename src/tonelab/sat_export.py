"""DIMACS CNF export of the (graph, t, k) decision instance.

A CLI extra for cross-checking infeasibility verdicts with independent
propositional tools; the core search never depends on it. See
docs/encoding.md for the variable and clause layout.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph, distance_levels


def encode_decision_cnf(graph: Graph, t: int, k: int) -> str:
    """Clauses satisfiable iff the graph has a t-tone coloring on k colors.

    Variable v*k + c + 1 means "vertex v holds color c". Exactly-t per
    vertex uses the binomial at-least/at-most encodings; every pair at
    distance d <= t gets one clause per d-subset of colors forbidding the
    pair from sharing all of that subset.
    """
    if t < 1 or k < t:
        raise ValueError("need t >= 1 and k >= t")
    n = graph.n
    if n == 0:
        raise ValueError("empty graph")

    def var(v: int, c: int) -> int:
        return v * k + c + 1

    clauses: list[tuple[int, ...]] = []
    for v in range(n):
        # at least t colors: any k-t+1 variables contain a true one
        for subset in combinations(range(k), k - t + 1):
            clauses.append(tuple(var(v, c) for c in subset))
        # at most t colors: no t+1 variables all true
        for subset in combinations(range(k), t + 1):
            clauses.append(tuple(-var(v, c) for c in subset))
    for u, levels in distance_levels(graph, range(n), t):
        pairs = sorted((v, d) for d, level in enumerate(levels) for v in level if v > u)
        for v, d in pairs:
            for subset in combinations(range(k), d):
                clause = []
                for c in subset:
                    clause.append(-var(u, c))
                    clause.append(-var(v, c))
                clauses.append(tuple(clause))
    lines = [
        f"c t-tone decision instance: n={n} m={graph.m} t={t} k={k}",
        "c var(v,c) = v*k + c + 1 encodes vertex v holding color c",
        f"p cnf {n * k} {len(clauses)}",
    ]
    for clause in clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"
