"""Finite simple graphs: named families, Cartesian products, distance balls.

Vertices are dense integers 0..n-1. Each family builder documents its
canonical numbering so that witnesses and certificates are reproducible:
paths in path order, star head at 0, multipartite parts contiguous,
products in row-major coordinate order, trees in BFS level order.

A graph is held once, as its sorted adjacency: builders stream their
edges into Graph as generators and build no edge list or set.

Every breadth-first search in the package is one distance_levels sweep:
one BFS per source, cut at a depth cap, all of them sharing one stamped
visited list. A t-tone constraint is vacuous past distance t, so every
distance consumer sweeps the distance-t balls of the vertices and nothing
ever holds all n^2 distances at once. Components and connectivity read
uncapped balls (cap n); distance_ball is a one-source dict view.

Graph is immutable after construction and safe to share.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    It keeps n and adjacency, one ascending tuple of distinct neighbours
    per vertex, and no edge list or set: m, degrees (cached on first
    read), sorted_edges() and the edges view are read off the adjacency.
    An edge (u, v) may come in either orientation and more than once; it
    is checked as it streams in, a self-loop before a range error. Each
    neighbour list is sorted in place, and only one that holds a repeat,
    which only a repeated edge brings, is rebuilt without it.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u].append(v)
            adj[v].append(u)
        for a in adj:
            if len(a) > 1:
                a.sort()
                if len(set(a)) < len(a):  # a repeated edge
                    a[:] = sorted(set(a))
        self.n = n
        self.adjacency = tuple(map(tuple, adj))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adjacency))

    @property
    def m(self) -> int:
        return sum(self.degrees) // 2

    @property
    def max_degree(self) -> int:
        return max(self.degrees) if self.n else 0

    def sorted_edges(self) -> list[tuple[int, int]]:
        """Edges (u, v), u < v, ascending; the adjacency is already in order."""
        return [(u, v) for u, a in enumerate(self.adjacency) for v in a if u < v]

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edge set (u, v), u < v, built afresh on each read."""
        return frozenset(self.sorted_edges())

    def induced_subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph; vertex i of the result is vertices[i].

        Reads only the adjacency of the chosen vertices, so a small
        component of a large graph costs its own size, not m. A vertex
        outside 0..n-1 raises ValueError.
        """
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("duplicate vertices in induced subgraph")
        for v in index:
            if not 0 <= v < self.n:  # a negative index would alias a vertex
                raise ValueError(f"vertex {v} out of range for n={self.n}")
        adjacency = self.adjacency
        return Graph(len(vertices), (
            (i, index[w])
            for v, i in index.items()
            for w in adjacency[v]
            if v < w and w in index
        ))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, m={self.m})"


def distance_levels(
    graph: Graph, sources: Iterable[int], cap: int
) -> Iterator[tuple[int, list[list[int]]]]:
    """Yield ``(src, levels)`` per source: levels[d] lists the vertices at
    distance d from src, for d up to ``cap``.

    One breadth-first search per source, cut at depth ``cap``. Each level
    is in discovery order (its parents in the previous level's order,
    each parent's neighbors ascending), levels[0] == [src], and no level
    is empty; vertices farther than ``cap``, or in another component,
    are absent. Sources are read lazily, one per ball, so a caller may
    pick the next source from the balls it has seen. All searches of one
    sweep share a single visited list of n ints, stamped with the index
    of the ball, so a ball builds no set or dict, and a source may repeat.
    A search stops, even mid-level, as soon as its ball holds every
    vertex, since nothing further could join it. A negative cap raises
    ValueError on the first ball, a source outside 0..n-1 on its own.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    adj = graph.adjacency
    n = graph.n
    stamp = [-1] * n
    for ball, src in enumerate(sources):
        if not 0 <= src < n:  # a negative index would alias a vertex
            raise ValueError(f"source {src} out of range for n={n}")
        stamp[src] = ball
        levels = [[src]]
        frontier = levels[0]
        missing = n - 1  # vertices not yet in the ball
        for _ in range(cap):
            if not missing:
                break
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if stamp[w] != ball:
                        stamp[w] = ball
                        nxt.append(w)
                if len(nxt) == missing:
                    break
            if not nxt:
                break
            levels.append(nxt)
            missing -= len(nxt)
            frontier = nxt
        yield src, levels


def distance_ball(graph: Graph, src: int, cap: int) -> dict[int, int]:
    """Distances from ``src`` to every vertex within ``cap`` of it, keyed
    in discovery order: one step of a distance_levels sweep as a dict."""
    _, levels = next(distance_levels(graph, (src,), cap))
    return {v: d for d, level in enumerate(levels) for v in level}


def connected_components(graph: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member."""
    seen = [False] * graph.n

    def unseen() -> Iterator[int]:  # read after each component is marked
        for s in range(graph.n):
            if not seen[s]:
                yield s

    comps = []
    for _, levels in distance_levels(graph, unseen(), graph.n):
        comp = sorted(v for level in levels for v in level)
        for v in comp:
            seen[v] = True
        comps.append(comp)
    return comps


def is_connected(graph: Graph) -> bool:
    return graph.n <= 1 or len(distance_ball(graph, 0, graph.n)) == graph.n


def build_path(n: int) -> Graph:
    """Path on n vertices, numbered in path order."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def build_star(k: int) -> Graph:
    """Star with k leaves; vertex 0 is the head, 1..k the leaves."""
    if k < 1:
        raise ValueError("star needs at least one leaf")
    return Graph(k + 1, ((0, i) for i in range(1, k + 1)))


def build_complete_multipartite(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph; parts occupy contiguous vertex ranges."""
    if not parts:
        raise ValueError("at least one part required")
    if any(a < 1 for a in parts):
        raise ValueError("part sizes must be positive")
    ends = list(accumulate(parts))
    n = ends[-1]
    # each vertex is adjacent to every vertex after the end of its part
    return Graph(n, (
        (u, v)
        for a, end in zip(parts, ends)
        for u in range(end - a, end)
        for v in range(end, n)
    ))


def build_complete(n: int) -> Graph:
    """Complete graph K_n."""
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return build_complete_multipartite([1] * n)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (u, v) is numbered u*h.n + v.

    (u1,u2) ~ (v1,v2) iff equal in one coordinate and adjacent in the
    other.
    """
    if g.n == 0 or h.n == 0:
        raise ValueError("product factors must be nonempty")
    hn, h_edges = h.n, h.sorted_edges()
    return Graph(g.n * hn, chain(
        ((u * hn + a, u * hn + b) for u in range(g.n) for a, b in h_edges),
        ((a * hn + v, b * hn + v) for a, b in g.sorted_edges() for v in range(hn)),
    ))


def cartesian_power(g: Graph, b: int) -> Graph:
    """b-fold Cartesian power of g; row-major coordinate numbering."""
    if b < 1:
        raise ValueError("power must be >= 1")
    out = g
    for _ in range(b - 1):
        out = cartesian_product(out, g)
    return out


def build_truncated_regular_tree(delta: int, depth: int) -> Graph:
    """Depth-``depth`` truncation of the infinite delta-regular tree.

    The root (vertex 0) has delta children; every deeper internal vertex
    has delta-1 children; leaves sit at distance ``depth`` from the root.
    Vertices are numbered in BFS level order, children in order of their
    parents. So every non-root vertex v has exactly one smaller neighbor,
    its parent adjacency[v][0], followed by its children; parents are
    non-decreasing in v. The tree schemes in constructions rely on this.
    """
    if delta < 2:
        raise ValueError("delta must be >= 2")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = 1 + delta * sum((delta - 1) ** i for i in range(depth))
    # vertices 1..n-1 in order: the root's delta children, then delta - 1
    # children of each vertex 1, 2, ... in turn
    parents = chain(
        repeat(0, delta), chain.from_iterable(repeat(p, delta - 1) for p in range(1, n))
    )
    return Graph(n, zip(parents, range(1, n)))


_GNP_CHUNK = 1 << 16  # uniforms per draw in build_gnp


def build_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi-Gilbert G(n, p) from a seeded PCG64 stream.

    Each unordered pair (u, v), u < v, is included independently with
    probability p. Pairs are drawn in row order (all pairs with the
    smaller endpoint u, ascending v), one uniform each, from
    numpy.random.Generator(PCG64(seed)), so a seed reproduces the same
    graph bit-exactly on any platform. The uniforms are drawn in fixed
    chunks, which continue one stream exactly as a single long draw would,
    and each hit's flat pair index is mapped back to its row and column.
    Graph reads the pairs chunk by chunk.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = np.arange(n - 1, dtype=np.int64)
    starts = rows * (2 * n - 1 - rows) // 2  # flat index of the pair (u, u+1)
    total = n * (n - 1) // 2

    def pairs() -> Iterator[tuple[int, int]]:
        for base in range(0, total, _GNP_CHUNK):
            hits = base + np.flatnonzero(rng.random(min(_GNP_CHUNK, total - base)) < p)
            u = np.searchsorted(starts, hits, side="right") - 1
            yield from zip(u.tolist(), (hits - starts[u] + u + 1).tolist())

    return Graph(n, pairs())


def format_graph(graph: Graph) -> str:
    """Graph text format: `n m` header then one `u v` line per edge."""
    lines = [f"{graph.n} {graph.m}"]
    for u, v in graph.sorted_edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    """Parse the graph text format; `#` starts a comment."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise ValueError("empty graph file")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError("header must be `n m`")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, edges)


def save_graph(graph: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_graph(graph))


def load_graph(path) -> Graph:
    with open(path) as fh:
        return parse_graph(fh.read())
