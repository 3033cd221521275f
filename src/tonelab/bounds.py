"""Closed-form bounds and exact formulas for the t-tone chromatic number.

Each counting argument has one kernel. The pair count,
min_palette_for_pairs, backs the degree bound and the per-part
multipartite bound. The pair sum, pairsum_bound and its max over
components component_pairsum, is the one source of a BoundReport. The
bound command reports it; the solver does not compute it, since its
start, the prepared order's fresh-color count per component, is never
below it (see solver's module docstring).

Ceilings are found in integer arithmetic (math.isqrt): an off-by-one at
a perfect square would silently corrupt whole tables. The one
floating-point value is multipartite_lower's real_value, a sum of
math.sqrt terms that is only reported as a row; it decides nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .graphs import Graph, connected_components, distance_levels


@dataclass(frozen=True)
class BoundReport:
    """A pair-sum verdict: the value, exact or only a lower bound, and a
    note on the equality hypothesis."""

    value: int
    kind: str  # "lower" | "exact"
    reason: str = ""

    def __post_init__(self):
        if self.kind not in ("lower", "exact"):
            raise ValueError(f"bad bound kind {self.kind!r}")


def min_palette_for_pairs(t: int, a: int) -> int:
    """Smallest c >= t with C(c,2) >= C(t,2)*a, in integer arithmetic.

    The pair count: a vertices whose t-sets pairwise share at most one
    colour each hold C(t,2) colour pairs no other one holds. That is the
    neighbours of a degree-a vertex, and one part of a complete
    multipartite graph, whose vertices are pairwise at distance 2.
    """
    need = math.comb(t, 2) * a
    # c*(c-1) >= 2*need; the integer sqrt is at most two steps short.
    c = max(t, math.isqrt(2 * need))
    while math.comb(c, 2) < need:
        c += 1
    return c


def degree_lower_bound(delta: int, t: int) -> int:
    """Lower bound from a max-degree vertex: its t colors are banned on all
    delta neighbors, which by the pair count need min_palette_for_pairs
    further colors. On a tree at t = 2 it is exact."""
    if t < 2:
        raise ValueError("degree lower bound requires t >= 2")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    return t + min_palette_for_pairs(t, delta)


def degree_bound(delta: int, t: int) -> Optional[int]:
    """degree_lower_bound where it applies (t >= 2 and an edge), else None.

    The one place that decides when the degree bound applies; a caller
    that needs a number falls back to the trivial bound with `or t`.
    """
    if t >= 2 and delta >= 1:
        return degree_lower_bound(delta, t)
    return None


def path_formula(n: int, t: int) -> int:
    """Exact t-tone chromatic number of the n-vertex path."""
    if n < 1 or t < 1:
        raise ValueError("need n >= 1 and t >= 1")
    return sum(max(0, t - math.comb(i, 2)) for i in range(n))


def distance_deficiency(graph: Graph) -> tuple[int, int]:
    """(sum over unordered pairs of d(u,v)-1, diameter) for connected graphs."""
    if graph.n == 0:
        raise ValueError("empty graph")
    n = graph.n
    total = 0
    diameter = 0
    for _, levels in distance_levels(graph, range(n), n):
        if sum(map(len, levels)) < n:
            raise ValueError("graph is disconnected; diameter undefined")
        total += sum(d * len(level) for d, level in enumerate(levels)) - (n - 1)
        diameter = max(diameter, len(levels) - 1)
    return total // 2, diameter  # each pair was counted from both ends


def pairsum_bound(graph: Graph, t: int) -> BoundReport:
    """tn minus the pair deficiency of a connected graph; exact once
    t >= (n-1)(D-1). distance_deficiency raises on a disconnected graph."""
    if t < 1:
        raise ValueError("t must be >= 1")
    deficiency, diameter = distance_deficiency(graph)
    value = t * graph.n - deficiency
    threshold = (graph.n - 1) * (diameter - 1)
    if t >= threshold:
        return BoundReport(value, "exact")
    return BoundReport(value, "lower", f"equality needs t >= {threshold}")


def component_pairsum(graph: Graph, t: int) -> BoundReport:
    """The pairsum bound of a graph that may be disconnected, for the bound
    command's pairsum row; it raises on the empty graph, as pairsum_bound
    does. tau_exact's start is never below its value.

    tau_t of a disjoint union is the max over its components, so the value
    is the largest of the components' pairsum_bound values, and the report
    of the first component in component order that reaches it supplies
    the kind and the note. The note is the report's reason, set also when
    it is exact; with more than one component it ends with their count.

    A connected graph is measured in place, with no copy. A component of
    a disconnected one is built, as an induced subgraph, only when it can
    win. Every non-adjacent pair in a connected component has d - 1 >= 1,
    so its value is at most the estimate t*n_c - (C(n_c, 2) - m_c).
    Components are visited by descending estimate, ties in component
    order, and the visit stops at the first one whose estimate cannot
    beat the best so far under the first-max rule: neither can any after
    it.

    The report is exact only when every component's is: a larger
    tau_t on a component whose equality hypothesis t >= (n_c - 1)(D_c - 1)
    fails would lift the max. An unbuilt component is decided without a
    BFS where it can be. A complete one has D_c <= 1, so it is exact; any
    other has D_c >= 2, so it fails once t < n_c - 1. Only the rest, each
    on at most t + 1 vertices, are built, and only while the report is
    still exact.
    """
    if graph.n == 0:
        raise ValueError("empty graph")
    comps = connected_components(graph)
    component = graph.induced_subgraph if len(comps) > 1 else lambda _: graph
    degrees = graph.degrees
    sizes = [(len(c), sum(degrees[v] for v in c) // 2) for c in comps]
    estimate = [t * n_c - (n_c * (n_c - 1) // 2 - m_c) for n_c, m_c in sizes]
    reports: dict[int, BoundReport] = {}
    best = -1
    for i in sorted(range(len(comps)), key=lambda i: -estimate[i]):
        # (value, -index) orders reports so that the first max is largest
        if reports and (estimate[i], -i) < (reports[best].value, -best):
            break
        reports[i] = pairsum_bound(component(comps[i]), t)
        if best < 0 or (reports[i].value, -i) > (reports[best].value, -best):
            best = i
    win = reports[best]
    kind, note = win.kind, win.reason or "equality hypothesis holds"
    if kind == "exact":
        unbuilt = [
            i for i, (n_c, m_c) in enumerate(sizes)
            if i not in reports and m_c < n_c * (n_c - 1) // 2
        ]
        if (
            any(r.kind != "exact" for r in reports.values())
            or any(t < sizes[i][0] - 1 for i in unbuilt)
            or any(
                pairsum_bound(component(comps[i]), t).kind != "exact"
                for i in unbuilt
            )
        ):
            kind, note = "lower", "equality fails on another component"
    if len(comps) > 1:
        note += f"; max over {len(comps)} components"
    return BoundReport(win.value, kind, note)


class MultipartiteLower(NamedTuple):
    real_value: float
    integer_value: int


def multipartite_lower(parts: Sequence[int], t: int) -> MultipartiteLower:
    """Lower bound for complete multipartite graphs.

    Parts must use pairwise disjoint palettes, so the bound is the sum of
    per-part requirements: the real-valued sum(sqrt(t(t-1)a_i))
    and an exact integer refinement from the same pair counting. The
    pairs within a part are at distance 2 only through another part; a
    single part is an edgeless graph with tau_t = t, so it is rejected.
    """
    if t < 2:
        raise ValueError("multipartite lower bound requires t >= 2")
    if len(parts) < 2:
        raise ValueError("multipartite lower bound needs at least two parts")
    if any(a < 1 for a in parts):
        raise ValueError("part sizes must be positive")
    real_value = sum(math.sqrt(t * (t - 1) * a) for a in parts)
    integer_value = sum(min_palette_for_pairs(t, a) for a in parts)
    return MultipartiteLower(real_value, integer_value)
