"""Independent oracles for cross-checking the package.

Everything here is deliberately written from scratch against the
definitions, sharing no machinery with the implementation under test:
orthogonality of two squares as a set of cell pairs, Floyd-Warshall
distances, a naive pair-scan verifier on sorted lists, an exact chromatic
number by plain backtracking, `brute_force_tau`, the t-tone chromatic
number by plain enumeration (its first vertex fixed to {0..t-1}), the
most-constrained search order by plain rescoring, queue-driven BFS for
the components, and an isomorphism-class enumerator for small connected
graphs. Nothing here imports `tonelab.solver`.

Some references keep earlier implementations of package code instead,
for tests that require the current code to agree with them exactly:
`gnp_by_rows`, the row-by-row G(n, p) sampler; `is_tree` and `is_path`,
the shape tests the CLI's bound table used before it read the shape from
its component list (here on the queue-driven components); and
`counted_candidate_sets`, the candidate generator that counts each
constraint's remaining allowance down on a pick and back up on
backtrack. The latter counts on a solver `_Meter` that its caller passes
in, so node counts and budget stops can be compared node for node.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import combinations, permutations
from typing import Optional

import numpy as np

from tonelab.graphs import Graph


def orthogonal(a_cells, b_cells) -> bool:
    """The n^2 ordered cell pairs of two n x n arrays are all distinct."""
    pairs = [
        (x, y) for row_a, row_b in zip(a_cells, b_cells) for x, y in zip(row_a, row_b)
    ]
    return len(set(pairs)) == len(pairs)


def floyd_warshall(graph: Graph) -> np.ndarray:
    """Uncapped all-pairs distances; unreachable pairs come out as +inf."""
    n = graph.n
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v in graph.edges:
        d[u, v] = d[v, u] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def most_constrained_order(graph: Graph, t: int) -> list[int]:
    """Most constrained first by plain scanning: each step takes the
    unplaced vertex with the highest score, then the highest degree, then
    the lowest index, and adds t - d + 1 to the score of every unplaced
    vertex at distance 1 <= d <= t from it. O(n^2) pair lookups."""
    dist = plain_distances(graph, cap=t)
    degs = [0] * graph.n
    for u, v in graph.edges:
        degs[u] += 1
        degs[v] += 1
    score = [0] * graph.n
    order: list[int] = []
    left = set(range(graph.n))
    while left:
        best = min(left, key=lambda u: (-score[u], -degs[u], u))
        order.append(best)
        left.remove(best)
        for u in left:
            d = dist.get((min(u, best), max(u, best)))
            if d is not None:
                score[u] += t - d + 1
    return order


def greedy_clique(graph: Graph) -> list[int]:
    """A clique grown greedily, in the order its vertices join: a vertex of
    highest degree, then lowest index, first; then, while the clique has
    common neighbors, the one of highest degree, then lowest index."""
    adj = [set() for _ in range(graph.n)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    common = set(range(graph.n))
    clique: list[int] = []
    while common:
        best = min(common, key=lambda u: (-len(adj[u]), u))
        clique.append(best)
        common &= adj[best]
    return clique


def bfs_components(graph: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member."""
    seen = [False] * graph.n
    comps = []
    for s in range(graph.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in graph.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def is_tree(graph: Graph) -> bool:
    return graph.n >= 1 and graph.m == graph.n - 1 and len(bfs_components(graph)) == 1


def is_path(graph: Graph) -> bool:
    if graph.n == 1:
        return True
    return is_tree(graph) and max(graph.degrees) <= 2


def sorted_intersection_size(a, b) -> int:
    """Two-pointer scan over ascending lists."""
    i = j = out = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            out += 1
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return out


def naive_verify(graph: Graph, assignment, t: int):
    """Reference O(n^2 t) verdict: (valid, sorted violation list)."""
    d = floyd_warshall(graph)
    violations = []
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            duv = d[u, v]
            if not np.isfinite(duv) or duv > t:
                continue
            shared = sorted_intersection_size(assignment[u], assignment[v])
            if shared >= duv:
                violations.append((u, v, int(duv), shared))
    return (not violations, violations)


def chromatic_number_reference(graph: Graph) -> int:
    """Exact chromatic number by straightforward backtracking."""
    n = graph.n
    if n == 0:
        return 0
    adj = [set() for _ in range(n)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def place(v: int, used: int) -> bool:
            if v == n:
                return True
            banned = {colors[w] for w in adj[v] if colors[w] >= 0}
            for c in range(min(used + 1, k)):
                if c in banned:
                    continue
                colors[v] = c
                if place(v + 1, max(used, c + 1)):
                    return True
            colors[v] = -1
            return False

        return place(0, 0)

    for k in range(1, n + 1):
        if colorable(k):
            return k
    raise AssertionError("unreachable")


def brute_force_tau(graph: Graph, t: int, k_max: int) -> Optional[int]:
    """Independent oracle: smallest feasible k <= k_max by plain enumeration.

    Vertices are taken by descending degree, ties by index, so an
    isolated vertex comes last instead of multiplying every refutation.
    The first vertex takes {0..t-1} only: validity depends on set
    intersections, never on color names, so some permutation of any
    valid coloring gives it that set, and each refutation is C(k, t)
    times shorter. Every later vertex tries each t-subset from
    itertools.combinations, and the only pruning is rejecting a partial
    assignment as soon as one pair violates its distance constraint. No
    other symmetry breaking, no shared solver machinery. Intended for
    tiny instances.
    """
    if t < 1 or graph.n == 0:
        raise ValueError("need t >= 1 and a nonempty graph")
    rank = sorted(range(graph.n), key=lambda v: (-graph.degrees[v], v))
    position = {v: i for i, v in enumerate(rank)}
    graph = Graph(graph.n, [(position[u], position[v]) for u, v in graph.edges])
    dist = plain_distances(graph, cap=t)
    for k in range(t, k_max + 1):
        if _bf_extend(graph, t, k, dist, {}, 0):
            return k
    return None


def plain_distances(graph: Graph, cap: int) -> dict[tuple[int, int], int]:
    """Dict of pair distances <= cap via BFS straight off the edge set."""
    adj: dict[int, set[int]] = {v: set() for v in range(graph.n)}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    out: dict[tuple[int, int], int] = {}
    for s in range(graph.n):
        depth = {s: 0}
        frontier = [s]
        for d in range(1, cap + 1):
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in depth:
                        depth[w] = d
                        nxt.append(w)
            frontier = nxt
        for v, d in depth.items():
            if s < v:
                out[(s, v)] = d
    return out


def _bf_extend(graph, t, k, dist, assigned: dict[int, frozenset], v: int) -> bool:
    if v == graph.n:
        return True
    for combo in combinations(range(k), t) if v else [range(t)]:
        s = frozenset(combo)
        ok = True
        for w, sw in assigned.items():
            d = dist.get((min(v, w), max(v, w)))
            if d is not None and len(s & sw) >= d:
                ok = False
                break
        if ok:
            assigned[v] = s
            if _bf_extend(graph, t, k, dist, assigned, v + 1):
                return True
            del assigned[v]
    return False


def _is_connected_mask(n: int, edge_list) -> bool:
    if n <= 1:
        return True
    adj = [set() for _ in range(n)]
    for u, v in edge_list:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_graphs_up_to_iso(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs on n
    vertices, by brute canonicalization over all vertex permutations."""
    pairs = list(combinations(range(n), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    perms = list(permutations(range(n)))
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        if not _is_connected_mask(n, edges):
            continue
        canon = mask
        for perm in perms:
            img = 0
            for u, v in edges:
                a, b = perm[u], perm[v]
                img |= 1 << pair_index[(a, b) if a < b else (b, a)]
            canon = min(canon, img)
        if canon not in seen:
            seen.add(canon)
            out.append(Graph(n, edges))
    return out


def _prufer_decode(seq, n: int):
    import bisect

    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for x in seq:
        leaf = leaves.pop(0)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[leaf] -= 1
        degree[x] -= 1
        if degree[x] == 1:
            bisect.insort(leaves, x)
    last = [x for x in range(n) if degree[x] == 1]
    edges.append((last[0], last[1]))
    return edges


@lru_cache(maxsize=None)
def trees_up_to_iso(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of trees on n vertices,
    enumerated through Prufer sequences and brute canonicalization; each
    n is enumerated once per process (n = 6 takes about 2 s)."""
    if n == 1:
        return (Graph(1, []),)
    if n == 2:
        return (Graph(2, [(0, 1)]),)
    from itertools import product

    pairs = list(combinations(range(n), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    perms = list(permutations(range(n)))
    seen = set()
    out = []
    for seq in product(range(n), repeat=n - 2):
        edges = _prufer_decode(list(seq), n)
        canon = None
        for perm in perms:
            img = 0
            for u, v in edges:
                a, b = perm[u], perm[v]
                img |= 1 << pair_index[(a, b) if a < b else (b, a)]
            canon = img if canon is None else min(canon, img)
        if canon not in seen:
            seen.add(canon)
            out.append(Graph(n, edges))
    return tuple(out)


def gnp_by_rows(n: int, p: float, seed: int) -> Graph:
    """G(n, p) drawn one row of uniforms at a time from PCG64(seed): row u
    holds the pairs (u, v), v > u, in ascending v."""
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = []
    for u in range(n - 1):
        row = rng.random(n - 1 - u)
        for off in np.flatnonzero(row < p):
            edges.append((u, u + 1 + int(off)))
    return Graph(n, edges)


def random_graph(rng, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_graph(rng, n: int, p: float) -> Graph:
    """Random graph plus a random spanning arborescence to force connectivity."""
    edges = {
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    }
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    return Graph(n, sorted(edges))


def plant_twins(rng, graph: Graph, extra: int) -> Graph:
    """``graph`` plus ``extra`` new vertices, each a false twin (same
    neighbors, no edge between them) of a random earlier vertex."""
    adj = [set(a) for a in graph.adjacency]
    for w in range(graph.n, graph.n + extra):
        v = rng.randrange(w)
        adj.append(set(adj[v]))
        for u in adj[v]:
            adj[u].add(w)
    return Graph(len(adj), [(u, w) for w in range(len(adj)) for u in adj[w] if u < w])


def random_tree(rng, n: int, max_degree: int | None = None) -> Graph:
    """Random recursive tree; optionally refuse parents at the degree cap."""
    degree = [0] * n
    edges = []
    for v in range(1, n):
        choices = [
            u
            for u in range(v)
            if max_degree is None or degree[u] < max_degree
        ]
        u = choices[rng.randrange(len(choices))]
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
    return Graph(n, edges)


def counted_candidate_sets(
    k: int,
    t: int,
    used: int,
    constraints: list[tuple[int, int]],
    meter,
):
    """Yield valid t-subsets of {0..k-1} as bitmasks, lexicographically.

    ``used`` colors have been introduced so far; by the introduce-in-order
    rule they are exactly 0..used-1, and any new colors in the candidate
    must be used, used+1, ... consecutively. Each yielded mask satisfies
    popcount(mask & cmask) <= limit for every (cmask, limit) constraint,
    where limits are non-negative and t >= 1. Constraint masks only contain
    already-introduced colors, so brand-new picks never need a check.

    Reachability pruning: every pick of a constrained color consumes at
    least one unit of the summed remaining constraint allowance, so the
    picks still obtainable from color c on are at most (unconstrained
    colors in [c, used)) + min(summed allowance, constrained colors in
    [c, used)) + (new colors left). That over-estimate never drops a valid
    candidate but refutes a vertex whose remaining palette cannot reach t
    in one step. Split at the min, the test becomes two upper ends on the
    next old color c: c <= k - slots (enough colors left at all), and at
    least slots - (new colors left) - allowance unconstrained colors in
    [c, used).

    The picks form a depth-first search, run on an explicit stack. One
    node is one entry into it: the empty pick, each old-color pick that
    passes its constraint check, and each pick in a run of brand-new
    colors that completes the set; a run too short to complete costs
    nothing. ``meter``, a solver `_Meter`, counts nodes and enforces the
    budget.
    """
    full = (1 << used) - 1
    # per old color: the open constraints (limit > 0) that one pick of it
    # draws on; colors in a spent constraint are blocked
    draws: list[tuple[int, ...]] = [()] * used
    remaining: list[int] = []
    cmasks: list[int] = []
    constrained = blocked = allowance = 0
    for cmask, limit in constraints:
        constrained |= cmask
        allowance += limit
        if limit <= 0:
            blocked |= cmask
            continue
        index = (len(remaining),)
        remaining.append(limit)
        cmasks.append(cmask)
        bits = cmask & full
        while bits:
            low = bits & -bits
            draws[low.bit_length() - 1] += index
            bits ^= low
    free = full & ~constrained
    fresh = k - used  # brand-new colors still available
    nodes = meter.nodes
    stop = meter.limit
    # one frame per pick depth: old colors left to try, mask so far,
    # blocked colors on entry, and the color currently picked (-1: none)
    cand_at = [0] * t
    mask_at = [0] * t
    blocked_at = [0] * t
    color_at = [-1] * t
    depth = lo = mask = 0
    while True:
        # enter a node: depth colors picked in mask, old colors >= lo left
        nodes += 1
        if nodes > stop:
            stop = meter.overrun(nodes)
        slots = t - depth
        end = k - slots + 1
        short = slots - fresh - allowance  # unconstrained colors still needed
        if short > 0:
            # old colors end after the short-th highest unconstrained one
            top_free = free
            while short > 1 and top_free:
                top_free ^= 1 << (top_free.bit_length() - 1)
                short -= 1
            if top_free.bit_length() < end:
                end = top_free.bit_length()
        if lo < end:
            top = end if end < used else used
            cand = ((1 << top) - 1) >> lo << lo & ~blocked
            if slots == 1:  # every old candidate completes the set
                while cand:
                    low = cand & -cand
                    cand ^= low
                    nodes += 1
                    if nodes > stop:
                        stop = meter.overrun(nodes)
                    meter.nodes = nodes
                    yield mask | low
                    nodes = meter.nodes
                    stop = meter.limit
            cand_at[depth] = cand
            mask_at[depth] = mask
            blocked_at[depth] = blocked
            color_at[depth] = -1
        else:
            depth -= 1
        # backtrack to the next untried pick, or finish frames on the way up
        while depth >= 0:
            c = color_at[depth]
            if c >= 0:
                for i in draws[c]:
                    remaining[i] += 1
                allowance += len(draws[c])
                blocked = blocked_at[depth]
            cand = cand_at[depth]
            if cand:
                low = cand & -cand
                cand_at[depth] = cand ^ low
                c = low.bit_length() - 1
                color_at[depth] = c
                for i in draws[c]:
                    remaining[i] -= 1
                    if not remaining[i]:
                        blocked |= cmasks[i]
                allowance -= len(draws[c])
                lo = c + 1
                mask = mask_at[depth] | low
                depth += 1
                break
            # old colors done: the forced run of new colors used, used+1,
            # ..., entered only when it completes the set
            slots = t - depth
            if fresh >= slots:
                nodes += slots
                if nodes > stop:
                    stop = meter.overrun(nodes)
                meter.nodes = nodes
                yield mask_at[depth] | ((1 << slots) - 1) << used
                nodes = meter.nodes
                stop = meter.limit
            depth -= 1
        else:
            meter.nodes = nodes
            return
