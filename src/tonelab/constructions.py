"""Constructive t-tone colorings.

Includes the color-reuse construction that is exact for large t, the
2-tone decomposition through a proper coloring, Latin-square colorings of
squared cliques, star and multipartite compositions, and four recursive
schemes for truncated regular trees. The generic greedy heuristic lives
in solver, since it reads the exact search's order and constraint lists.

Every construction verifies its own output before returning it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

from . import bounds
from .coloring import ToneColoring, checked
from .graphs import (
    Graph,
    build_complete,
    build_complete_multipartite,
    build_star,
    build_truncated_regular_tree,
    cartesian_power,
    distance_levels,
)
from .mols import MolsFamily
from .solver import SearchBudget, tau_exact


def greedy_large_t_coloring(graph: Graph, t: int) -> ToneColoring:
    """Color vertices in index order, reusing exactly d(v,w)-1 colors that
    are currently unique to each earlier vertex w, then topping up fresh.

    Needs t >= (n-1)(D-1) so every earlier vertex still owns enough
    private colors; under that hypothesis the palette comes out at
    exactly t*n minus the summed pair deficiencies, which is optimal.
    bounds.pairsum_bound decides the hypothesis (and raises on t < 1 or a
    disconnected graph); a report that is not exact raises its reason.
    """
    report = bounds.pairsum_bound(graph, t)
    if report.kind != "exact":
        raise ValueError(f"hypothesis fails at t={t}: {report.reason}")
    unique_of: list[list[int]] = []
    rows: list[list[int]] = []
    next_fresh = 0
    for v, levels in distance_levels(graph, range(graph.n), graph.n):
        reused: list[int] = []
        for need, level in enumerate(levels[2:], 1):  # need = d - 1 > 0
            for w in level:
                if w < v:
                    if len(unique_of[w]) < need:
                        raise AssertionError("ran out of private colors")
                    reused.extend(unique_of[w][:need])
                    del unique_of[w][:need]
        fresh = list(range(next_fresh, next_fresh + t - len(reused)))
        next_fresh += len(fresh)
        unique_of.append(fresh)
        rows.append(sorted(reused + fresh))
    return checked(graph, ToneColoring(t, next_fresh, rows))


def greedy_proper_coloring(graph: Graph) -> list[int]:
    """Proper coloring, largest degree first, smallest free color."""
    color = [-1] * graph.n
    order = sorted(range(graph.n), key=lambda v: (-graph.degrees[v], v))
    for v in order:
        taken = {color[w] for w in graph.adjacency[v] if color[w] >= 0}
        c = 0
        while c in taken:
            c += 1
        color[v] = c
    return color


def _iceil_sqrt(x: int) -> int:
    s = math.isqrt(x)
    return s if s * s == x else s + 1


@dataclass(frozen=True)
class DecompositionCertificate:
    """Achieved class counts behind a decomposition-based 2-tone coloring.

    proper_classes is the greedy proper-coloring class count (an upper
    bound on the chromatic number, not necessarily tight); pair_classes
    holds the greedy class counts of the within-class distance-2 graphs.
    The coloring is valid regardless; only the headline palette size
    depends on these achieved values.
    """

    proper_classes: int
    pair_classes: tuple[int, ...]


def two_tone_via_decomposition(
    graph: Graph,
) -> tuple[ToneColoring, DecompositionCertificate]:
    """2-tone coloring from a proper coloring plus within-class pair codes.

    Each proper class gets a private palette; inside class i, vertices at
    distance 2 form a graph that is properly colored with m_i classes, and
    each class maps to a distinct pair from the private palette. Adjacent
    vertices never share a color (disjoint palettes) and same-class
    distance-2 vertices get distinct pairs, so the result always verifies.
    """
    if graph.n == 0:
        raise ValueError("empty graph")
    proper = greedy_proper_coloring(graph)
    khat = max(proper) + 1
    classes: list[list[int]] = [[] for _ in range(khat)]
    local = [0] * graph.n  # index of each vertex inside its class
    for v in range(graph.n):
        local[v] = len(classes[proper[v]])
        classes[proper[v]].append(v)
    # same-class vertices are never adjacent, so a same-class member of
    # a distance-2 ball other than v itself sits at distance exactly 2
    class_edges: list[list[tuple[int, int]]] = [[] for _ in range(khat)]
    for v, levels in distance_levels(graph, range(graph.n), 2):
        i = proper[v]
        for level in levels[1:]:
            for w in level:
                if w > v and proper[w] == i:
                    class_edges[i].append((local[v], local[w]))
    rows: list[Optional[list[int]]] = [None] * graph.n
    pair_classes = []
    base = 0
    for members, sub_edges in zip(classes, class_edges):
        sub = Graph(len(members), sub_edges)
        sub_color = greedy_proper_coloring(sub)
        m_i = max(sub_color) + 1
        # s = ceil(sqrt(2 m_i)) gives C(s+1, 2) >= s^2/2 >= m_i pairs
        size = 1 + _iceil_sqrt(2 * m_i)
        pairs = list(combinations(range(size), 2))
        for idx, v in enumerate(members):
            a, b = pairs[sub_color[idx]]
            rows[v] = [base + a, base + b]
        pair_classes.append(m_i)
        base += size
    coloring = checked(graph, ToneColoring(2, base, rows))
    cert = DecompositionCertificate(khat, tuple(pair_classes))
    return coloring, cert


def mols_coloring_knn(family: MolsFamily, t: int) -> ToneColoring:
    """t-tone coloring of the squared clique from t mutually orthogonal
    Latin squares on disjoint color ranges.

    Vertex (a, b) of K_n x K_n receives {i*n + L_i(a, b)}. Same row or
    column never repeats within one square, and orthogonality stops any
    distance-2 pair from sharing two colors, so tn colors always verify.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if family.size < t:
        raise ValueError(
            f"need at least {t} squares, family has {family.size}"
        )
    n = family.n
    # row a*n + b is vertex (a, b); each row ascends, since L_i < n
    rows = (family.cells[:t] + n * np.arange(t)[:, None, None]).reshape(t, n * n).T
    graph = cartesian_power(build_complete(n), 2)
    return checked(graph, ToneColoring(t, t * n, rows.tolist()))


def star_coloring(k: int, t: int) -> ToneColoring:
    """Best available coloring of the k-leaf star.

    For t >= k the reuse construction is optimal. Below that the exact
    solver decides stars of up to 8 leaves and gets a budget of 0 nodes
    on larger ones; wherever its budget runs out, its witness is the
    greedy heuristic's.
    """
    if k < 1 or t < 1:
        raise ValueError("need k >= 1 and t >= 1")
    star = build_star(k)
    if t >= k:
        return greedy_large_t_coloring(star, t)
    return tau_exact(star, t, SearchBudget(max_nodes=20_000_000 if k <= 8 else 0)).witness


def multipartite_coloring(parts: Sequence[int], t: int) -> ToneColoring:
    """Color each part of a complete multipartite graph with the leaf sets
    of a star coloring, on pairwise disjoint palettes.

    Leaves of a star are pairwise at distance 2, exactly the within-part
    constraint; separate parts are fully adjacent and must be disjoint.
    Heads are dropped, reclaiming their private colors per part.
    """
    graph = build_complete_multipartite(parts)
    rows: list[list[int]] = []
    base = 0
    for a in parts:
        star_col = star_coloring(a, t)
        leaf_rows = star_col.assignment[1:]
        used = sorted({c for row in leaf_rows for c in row})
        remap = {c: base + i for i, c in enumerate(used)}
        rows.extend(sorted(remap[c] for c in row) for row in leaf_rows)
        base += len(used)
    return checked(graph, ToneColoring(t, base, rows))


# ---------------------------------------------------------------------------
# Recursive schemes for truncated regular trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeSpec:
    name: str
    arity: int  # regularity of the underlying tree
    t: int
    palette: int
    root_set: tuple[int, ...]
    level1: tuple[tuple[int, ...], ...]
    # child sets of v from (sets, adjacency, v, palette)
    rule: Callable[[list, tuple, int, int], list[tuple]]


def shared_color(sets: list, u: int, w: int) -> int:
    """The unique color two distance-2 vertices share."""
    inter = sets[u] & sets[w]
    if len(inter) != 1:
        raise AssertionError(
            f"vertices {u} and {w} share {len(inter)} colors, expected 1"
        )
    return next(iter(inter))


def private_colors(sets: list, u: int, others: list[int]) -> list[int]:
    """Colors of u shared with none of the given neighborhood peers."""
    return sorted(sets[u] - {shared_color(sets, u, w) for w in others})


def _relabel(template: tuple[tuple[int, ...], ...]):
    """Frame: v and its parent p. List p's colors ascending, then the
    colors neither v nor p holds, ascending; child i of v takes the colors
    at the positions in template row i."""

    def rule(sets: list, adj: tuple, v: int, palette: int) -> list[tuple]:
        p = sets[adj[v][0]]
        points = sorted(p) + sorted(set(range(palette)) - sets[v] - p)
        return [tuple(points[i] for i in row) for row in template]

    return rule


def _rule_t3_4tone(sets: list, adj: tuple, v: int, palette: int) -> list[tuple]:
    """Frame: N(p) for v's parent p. Each frame member shares one color
    with each other member and keeps two colors private to the frame. The
    two children of v reuse p's two lowest colors, the privates of the
    other members j and l, and the color j and l share.
    """
    p = adj[v][0]
    frame = adj[p][1:] + adj[p][:1] if p else adj[p]
    a = sorted(sets[p])
    j, l = [u for u in frame if u != v]
    c_jl = shared_color(sets, j, l)
    cp_j = private_colors(sets, j, [u for u in frame if u != j])
    cp_l = private_colors(sets, l, [u for u in frame if u != l])
    if len(cp_j) != 2 or len(cp_l) != 2:
        raise AssertionError("frame member should keep exactly two private colors")
    return [
        (a[0], cp_j[0], cp_l[0], c_jl),
        (a[1], cp_j[1], cp_l[1], c_jl),
    ]


def _rule_t4_4tone(sets: list, adj: tuple, v: int, palette: int) -> list[tuple]:
    """Frame: N(p) for v's parent p, with v as member k. Follows the
    scheme's cyclic triple pattern over members k+1, k+2, k+3 (modulo 4).
    a_m is p's m-th smallest color, c(s, j) the unique color shared by
    members s and j, cp(s) the color s shares with no other member.
    """
    p = adj[v][0]
    frame = adj[p][1:] + adj[p][:1] if p else adj[p]
    k = frame.index(v)
    a = sorted(sets[p])

    def c(s: int, j: int) -> int:
        return shared_color(sets, frame[s], frame[j])

    def cp(s: int) -> int:
        priv = private_colors(sets, frame[s], [u for u in frame if u != frame[s]])
        if len(priv) != 1:
            raise AssertionError("frame member should keep exactly one private color")
        return priv[0]

    k1, k2, k3 = (k + 1) % 4, (k + 2) % 4, (k + 3) % 4
    return [
        (a[k1], c(k1, k2), c(k2, k3), cp(k3)),
        (a[k2], c(k3, k2), c(k1, k3), cp(k1)),
        (a[k3], c(k3, k1), c(k1, k2), cp(k2)),
    ]


# Fixed seed tables for the root and first level; each scheme's rule
# colors the children of every deeper vertex.
SCHEMES: dict[str, SchemeSpec] = {
    spec.name: spec
    for spec in (
        # 9 colors for the 4-regular tree at t=3.
        SchemeSpec(
            "T4_3tone",
            arity=4,
            t=3,
            palette=9,
            root_set=(0, 1, 2),
            level1=((3, 4, 5), (3, 6, 7), (4, 6, 8), (5, 7, 8)),
            # with v relabeled (123) and its parent (456), v's children
            # read (478), (957), (968)
            rule=_relabel(((0, 3, 4), (5, 1, 3), (5, 2, 4))),
        ),
        # 10 colors for the 7-regular tree at t=3, recursing through Fano lines.
        SchemeSpec(
            "T7_3tone_fano",
            arity=7,
            t=3,
            palette=10,
            root_set=(1, 2, 3),
            level1=(
                (4, 5, 6),
                (4, 7, 8),
                (5, 7, 9),
                (6, 8, 9),
                (0, 5, 8),
                (0, 6, 7),
                (0, 4, 9),
            ),
            # the Fano plane on the 7 colors missing from v: the parent's
            # set is the canonical line {1,2,4} and the children take the
            # other lines {1,2,4}+i mod 7 (points 1..7), with points 1, 2, 4
            # at positions 0-2 and the free points 3, 5, 6, 7 at 3-6
            rule=_relabel(
                ((1, 3, 4), (3, 2, 5), (2, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 3))
            ),
        ),
        # 13 colors for the 3-regular tree at t=4.
        SchemeSpec(
            "T3_4tone",
            arity=3,
            t=4,
            palette=13,
            root_set=(1, 2, 3, 4),
            level1=((5, 6, 7, 8), (0, 5, 9, 10), (6, 9, 11, 12)),
            rule=_rule_t3_4tone,
        ),
        # 14 colors for the 4-regular tree at t=4.
        SchemeSpec(
            "T4_4tone",
            arity=4,
            t=4,
            palette=14,
            root_set=(1, 2, 3, 4),
            level1=((5, 6, 7, 8), (0, 5, 9, 10), (6, 9, 11, 12), (0, 7, 11, 13)),
            rule=_rule_t4_4tone,
        ),
    )
}

#: Accepted aliases for scheme lookups (CLI convenience).
SCHEME_ALIASES = {"T7_3tone": "T7_3tone_fano"}


def resolve_scheme(name: str) -> SchemeSpec:
    key = SCHEME_ALIASES.get(name, name)
    if key not in SCHEMES:
        known = ", ".join(sorted(SCHEMES))
        raise ValueError(f"unknown scheme {name!r}; known schemes: {known}")
    return SCHEMES[key]


def scheme_tree(name: str, depth: int) -> Graph:
    """The truncated regular tree a scheme colors at the given depth."""
    return build_truncated_regular_tree(resolve_scheme(name).arity, depth)


def tree_scheme_coloring(name: str, depth: int) -> ToneColoring:
    """Reproduce a scheme's inductive coloring on the depth-truncated tree.

    The root and its children come from the fixed seed tables; the rule
    then colors the children of each deeper vertex v in index order. In
    the builder's BFS numbering v's sorted adjacency is its parent, then
    its children, and the vertices the rule reads (v, its parent,
    grandparent and siblings) are all colored by then. The output is
    verified before return, so a failure here means the recursion itself
    broke down rather than a silent bad coloring.
    """
    spec = resolve_scheme(name)
    graph = build_truncated_regular_tree(spec.arity, depth)
    adj = graph.adjacency
    sets: list = [None] * graph.n
    sets[0] = frozenset(spec.root_set)
    for child, colors in zip(adj[0], spec.level1):
        sets[child] = frozenset(colors)
    for v in range(1, graph.n):
        if len(adj[v]) > 1:  # leaves have no children to color
            for child, colors in zip(adj[v][1:], spec.rule(sets, adj, v, spec.palette)):
                sets[child] = frozenset(colors)
    return checked(graph, ToneColoring(spec.t, spec.palette, sets))
