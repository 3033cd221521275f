"""Constructive t-tone colorings.

Includes the color-reuse construction that is exact for large t, the
2-tone decomposition through a proper coloring, Latin-square colorings of
squared cliques, star and multipartite compositions, and four recursive
schemes for truncated regular trees, each a table of transfer
permutations that relabels the depth-1 star around every vertex. The
generic greedy heuristic lives in solver, since it reads the exact
search's order and constraint lists.

Every construction verifies its own output before returning it. The
parameterised ones (MOLS, star, multipartite, scheme) build their graph
from their parameters and return it with the coloring verified against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import itemgetter
from typing import Sequence

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
    # same-class vertices are never adjacent, so a same-class member of
    # a distance-2 ball other than v itself sits at distance exactly 2.
    # Classes share no such pair, so one greedy pass colors each class's
    # pairs as a pass over that class alone would: its order, by degree
    # and then index, keeps each class's members in their relative order
    code = greedy_proper_coloring(Graph(graph.n, (
        (v, w)
        for v, levels in distance_levels(graph, range(graph.n), 2)
        for level in levels[1:]
        for w in level
        if w > v and proper[w] == proper[v]
    )))
    pair_classes = [0] * khat
    for i, c in zip(proper, code):
        pair_classes[i] = max(pair_classes[i], c + 1)
    # s = ceil(sqrt(2 m_i)) gives C(s+1, 2) >= s^2/2 >= m_i pairs
    sizes = [1 + _iceil_sqrt(2 * m_i) for m_i in pair_classes]
    bases = list(accumulate(sizes, initial=0))
    pairs = [list(combinations(range(size), 2)) for size in sizes]
    rows = []
    for i, c in zip(proper, code):
        a, b = pairs[i][c]
        rows.append([bases[i] + a, bases[i] + b])
    coloring = checked(graph, ToneColoring(2, bases[-1], rows))
    cert = DecompositionCertificate(khat, tuple(pair_classes))
    return coloring, cert


def mols_coloring_knn(family: MolsFamily, t: int) -> tuple[Graph, ToneColoring]:
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
    return graph, checked(graph, ToneColoring(t, t * n, rows.tolist()))


def star_coloring(k: int, t: int) -> tuple[Graph, ToneColoring]:
    """The k-leaf star and the best available coloring of it.

    For t >= k the reuse construction is optimal. Below that the exact
    solver decides stars of up to 8 leaves and gets a budget of 0 nodes
    on larger ones; wherever its budget runs out, its witness is the
    greedy heuristic's.
    """
    if k < 1 or t < 1:
        raise ValueError("need k >= 1 and t >= 1")
    star = build_star(k)
    if t >= k:
        return star, greedy_large_t_coloring(star, t)
    budget = SearchBudget(max_nodes=20_000_000 if k <= 8 else 0)
    return star, tau_exact(star, t, budget).witness


def multipartite_coloring(parts: Sequence[int], t: int) -> tuple[Graph, ToneColoring]:
    """Color each part of a complete multipartite graph with the leaf sets
    of a star coloring, on pairwise disjoint palettes.

    Leaves of a star are pairwise at distance 2, exactly the within-part
    constraint; separate parts are fully adjacent and must be disjoint.
    Heads are dropped, reclaiming their private colors per part. Each
    distinct part size is colored once; star_coloring is deterministic.
    """
    graph = build_complete_multipartite(parts)
    leaves = {a: star_coloring(a, t)[1].assignment[1:] for a in set(parts)}
    rows: list[list[int]] = []
    base = 0
    for a in parts:
        leaf_rows = leaves[a]
        used = sorted({c for row in leaf_rows for c in row})
        remap = {c: base + i for i, c in enumerate(used)}
        rows.extend(sorted(remap[c] for c in row) for row in leaf_rows)
        base += len(used)
    return graph, checked(graph, ToneColoring(t, base, rows))


# ---------------------------------------------------------------------------
# Recursive schemes for truncated regular trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeSpec:
    """A recursive scheme for the truncated arity-regular tree, given by
    the root's set and one transfer permutation of range(palette) per slot.

    Slots number a vertex's neighbors in adjacency order: the root's
    children are slots 0..arity-1; a deeper vertex has its parent in slot
    0 and its children in slots 1..arity-1. Every vertex v carries a frame
    f_v, a permutation of the palette, and takes the set f_v(root_set).
    The root's frame is the identity, and the child in slot s of v gets
    the frame f_v ∘ transfer[s].

    Each table satisfies transfer[s](root_set) = L_s, the root's child in
    slot s, and transfer[s](L_0) = root_set. So v's neighbor in slot e
    holds f_v(L_e): for a child by definition, and for the parent p, whose
    child v sits in some slot s, f_v(L_0) = f_p(transfer[s](L_0)) =
    f_p(root_set). Every closed neighborhood is thus a relabeled copy of
    the depth-1 star.

    Why a scheme that verifies at depth t verifies at every depth. Let
    vertices u and w have lowest common ancestor a, which reaches them by
    the slot words x and y, and write x(S) for the set S under the
    transfers of x, last letter first. Their sets are f_a(x(root_set)) and
    f_a(y(root_set)); f_a is a bijection, so they share exactly
    |x(root_set) ∩ y(root_set)| colors, at distance |x| + |y|. The root's
    children use every slot and deeper children slots 1..arity-1, so the
    root's descendants along x and y exist in the depth max(|x|, |y|)
    truncation and form the same pair: same shared count, same distance.
    A t-tone coloring constrains only pairs within distance t, and the
    4-tone schemes' conditions read only pairs within distance 4 and
    triples of one vertex's neighbors, which lie in a relabeled star. So
    both hold at every depth once the depth-t truncation meets them. The
    tests verify every scheme at depth 4 >= t.
    """

    name: str
    root_set: tuple[int, ...]
    transfer: tuple[tuple[int, ...], ...]

    @property
    def arity(self) -> int:
        """Regularity of the underlying tree."""
        return len(self.transfer)

    @property
    def t(self) -> int:
        return len(self.root_set)

    @property
    def palette(self) -> int:
        return len(self.transfer[0])


# transfer[s][c] is the color that slot s's transfer maps c to. Of the
# tables that meet SchemeSpec's conditions, these keep the rows the earlier
# level-by-level rules gave at depths 0-3; for T7_3tone_fano no table
# keeps them past depth 1.
SCHEMES: dict[str, SchemeSpec] = {
    spec.name: spec
    for spec in (
        # 9 colors for the 4-regular tree at t=3.
        SchemeSpec(
            "T4_3tone",
            root_set=(0, 1, 2),
            transfer=(
                (3, 4, 5, 0, 1, 2, 6, 7, 8),
                (3, 6, 7, 0, 1, 2, 4, 5, 8),
                (4, 6, 8, 0, 1, 2, 3, 5, 7),
                (5, 7, 8, 0, 1, 2, 3, 4, 6),
            ),
        ),
        # 10 colors for the 7-regular tree at t=3: the level-1 sets are the
        # lines of a Fano plane on the 7 colors missing from the root's set.
        SchemeSpec(
            "T7_3tone_fano",
            root_set=(1, 2, 3),
            transfer=(
                (0, 4, 5, 6, 1, 2, 3, 7, 8, 9),
                (0, 4, 7, 8, 1, 2, 3, 5, 6, 9),
                (0, 5, 7, 9, 1, 2, 3, 4, 6, 8),
                (0, 6, 8, 9, 1, 2, 3, 4, 5, 7),
                (4, 0, 5, 8, 1, 2, 3, 6, 7, 9),
                (4, 0, 6, 7, 1, 2, 3, 5, 8, 9),
                (5, 0, 4, 9, 1, 2, 3, 6, 7, 8),
            ),
        ),
        # 13 colors for the 3-regular tree at t=4.
        SchemeSpec(
            "T3_4tone",
            root_set=(1, 2, 3, 4),
            transfer=(
                (0, 5, 6, 7, 8, 1, 2, 3, 4, 9, 11, 10, 12),
                (7, 0, 5, 9, 10, 1, 2, 3, 4, 6, 11, 8, 12),
                (0, 6, 9, 11, 12, 1, 2, 3, 4, 5, 7, 8, 10),
            ),
        ),
        # 14 colors for the 4-regular tree at t=4.
        SchemeSpec(
            "T4_4tone",
            root_set=(1, 2, 3, 4),
            transfer=(
                (9, 8, 5, 6, 7, 2, 3, 4, 1, 11, 13, 0, 10, 12),
                (11, 10, 0, 5, 9, 3, 4, 1, 2, 7, 8, 6, 12, 13),
                (7, 12, 6, 9, 11, 4, 1, 2, 3, 5, 10, 0, 13, 8),
                (5, 13, 0, 7, 11, 1, 2, 3, 4, 9, 12, 6, 8, 10),
            ),
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


def tree_scheme_coloring(name: str, depth: int) -> tuple[Graph, ToneColoring]:
    """Color the depth-truncated tree by the scheme's frames (see SchemeSpec).

    In the builder's BFS numbering a vertex's adjacency is its parent,
    then its children, so a neighbor's index in it is its slot, and every
    frame is set before the loop reaches its vertex. Returns the tree
    and its coloring, verified against it.
    """
    spec = resolve_scheme(name)
    graph = build_truncated_regular_tree(spec.arity, depth)
    compose = [itemgetter(*rho) for rho in spec.transfer]  # f -> f ∘ rho
    frames = [tuple(range(spec.palette))] * graph.n
    for v, nbrs in enumerate(graph.adjacency):
        for slot, w in enumerate(nbrs):
            if w > v:  # a child, not the parent in slot 0
                frames[w] = compose[slot](frames[v])
    rows = list(map(itemgetter(*spec.root_set), frames))
    return graph, checked(graph, ToneColoring(spec.t, spec.palette, rows))
