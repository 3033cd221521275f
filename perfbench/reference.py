"""Independent reference for checking tonelab's outputs.

Nothing here imports tonelab. Graphs are rebuilt from their documented
numbering with networkx, witnesses are re-checked by networkx BFS cut off
at t with pairwise shared-colour counts, the small-case tables are the
paper's values copied here, and constructions are compared with their
closed forms where one exists.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import networkx as nx
import numpy as np

# tau_t values from the paper's small-case tables, keyed by reproduce table.
PAPER_TABLES = {
    "tone3-stars": {f"tau_3(S_{d})": v for d, v in [(2, 8), (3, 9), (4, 9), (5, 10)]},
    "tone4-stars": {f"tau_4(S_{k})": v for k, v in [(2, 11), (3, 13), (4, 14)]},
    "prop73": {
        "tau_5(S_3)": 17,
        "S_3 + two vertices on a leaf, t=5, k=17": "infeasible",
    },
    "mols-square": {
        "tau_2(K_3^2)": 6,
        "tau_2(K_5^2)": 10,
        "tau_2(K_7^2)": 14,
        "tau_2(K_15^2) upper witness": 30,
    },
}

# Exact t-tone numbers of named small graphs, from the paper.
STAR3_PLUS2_TAU5 = 18  # S_3 with two vertices hung on one leaf
SCHEME_PALETTES = {"T4_3tone": 9, "T7_3tone_fano": 10, "T3_4tone": 13, "T4_4tone": 14}
SCHEME_ARITY = {"T4_3tone": 4, "T7_3tone_fano": 7, "T3_4tone": 3, "T4_4tone": 4}
SCHEME_T = {"T4_3tone": 3, "T7_3tone_fano": 3, "T3_4tone": 4, "T4_4tone": 4}


def path_tau(n: int, t: int) -> int:
    """tau_t(P_n) = sum over i < n of max(0, t - C(i, 2))."""
    return sum(max(0, t - math.comb(i, 2)) for i in range(n))


def paper_table(name: str) -> dict:
    if name == "paths":
        return {f"tau_{t}(P_{n})": path_tau(n, t) for n in range(1, 7) for t in range(1, 5)}
    return PAPER_TABLES[name]


def star_tau_large_t(k: int, t: int) -> int:
    """(k+1)t - C(k, 2), exact for the k-leaf star once t >= k."""
    return (k + 1) * t - math.comb(k, 2)


def degree_lower(delta: int, t: int) -> int:
    """Smallest k with C(k-t, 2) >= delta * C(t, 2), by direct search."""
    k = t
    while math.comb(k - t, 2) < delta * math.comb(t, 2):
        k += 1
    return k


def min_palette_for_pairs(t: int, a: int) -> int:
    c = t
    while math.comb(c, 2) < math.comb(t, 2) * a:
        c += 1
    return c


def beth_floor(n: int) -> int:
    k = 1
    while (k + 1) ** 74 <= n**5:
        k += 1
    return k


# ---------------------------------------------------------------------------
# Graphs, numbered as tonelab documents its families
# ---------------------------------------------------------------------------


def _relabel(g: nx.Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.number_of_nodes()))
    out.add_edges_from(g.edges())
    return out


def star(k: int) -> nx.Graph:
    return _relabel(nx.star_graph(k))  # head 0, leaves 1..k


def star3_plus2() -> nx.Graph:
    return nx.Graph([(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


def multipartite(parts) -> nx.Graph:
    """Parts on contiguous vertex ranges."""
    g = nx.Graph()
    g.add_nodes_from(range(sum(parts)))
    bounds = np.cumsum([0, *parts])
    for i, j in combinations(range(len(parts)), 2):
        g.add_edges_from(product(range(bounds[i], bounds[i + 1]), range(bounds[j], bounds[j + 1])))
    return g


def rook(n: int) -> nx.Graph:
    """K_n x K_n with vertex (a, b) numbered a*n + b."""
    g = nx.Graph()
    g.add_nodes_from(range(n * n))
    for a, b in product(range(n), repeat=2):
        for c in range(b + 1, n):
            g.add_edge(a * n + b, a * n + c)
        for c in range(a + 1, n):
            g.add_edge(a * n + b, c * n + b)
    return g


def hypercube(b: int) -> nx.Graph:
    """K_2^b in row-major order: vertices are b-bit words, edges flip one bit."""
    g = nx.Graph()
    g.add_nodes_from(range(1 << b))
    g.add_edges_from((v, v ^ (1 << i)) for v in range(1 << b) for i in range(b) if v < v ^ (1 << i))
    return g


def regular_tree(delta: int, depth: int) -> nx.Graph:
    """Truncated delta-regular tree, vertices in BFS level order."""
    g = nx.Graph()
    g.add_node(0)
    level, nxt = [0], 1
    for lev in range(depth):
        new = []
        for parent in level:
            for _ in range(delta if lev == 0 else delta - 1):
                g.add_edge(parent, nxt)
                new.append(nxt)
                nxt += 1
        level = new
    return g


def gnp_pcg64(n: int, p: float, seed: int) -> nx.Graph:
    """G(n, p) drawn as tonelab's `--family gnp` documents it: one PCG64
    uniform per pair, pairs in row order, edge iff the uniform is < p."""
    rng = np.random.Generator(np.random.PCG64(seed))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u in range(n - 1):
        hits = np.flatnonzero(rng.random(n - 1 - u) < p)
        g.add_edges_from((u, u + 1 + int(off)) for off in hits)
    return g


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def write_graph(g: nx.Graph, path) -> None:
    edges = sorted((min(u, v), max(u, v)) for u, v in g.edges())
    with open(path, "w") as fh:
        fh.write(f"{g.number_of_nodes()} {len(edges)}\n")
        fh.writelines(f"{u} {v}\n" for u, v in edges)


def read_graph(path) -> nx.Graph:
    with open(path) as fh:
        rows = [ln.split() for ln in fh if ln.split("#", 1)[0].strip()]
    g = nx.Graph()
    g.add_nodes_from(range(int(rows[0][0])))
    g.add_edges_from((int(u), int(v)) for u, v in rows[1:])
    return g


def write_coloring(t: int, sets, path) -> None:
    palette = 1 + max(max(s) for s in sets)
    with open(path, "w") as fh:
        fh.write(f"{t} {palette}\n")
        fh.writelines(f"{v}: " + " ".join(map(str, sorted(s))) + "\n" for v, s in enumerate(sets))


def read_coloring(path) -> tuple[int, list[frozenset]]:
    with open(path) as fh:
        rows = [ln.strip() for ln in fh if ln.strip()]
    t = int(rows[0].split()[0])
    return t, [frozenset(int(c) for c in row.split(":", 1)[1].split()) for row in rows[1:]]


def write_family(squares, path) -> None:
    n = len(squares[0])
    blocks = ["\n".join(" ".join(map(str, row)) for row in sq) for sq in squares]
    with open(path, "w") as fh:
        fh.write(f"{n} {len(squares)}\n" + "\n\n".join(blocks) + "\n")


def read_family(path) -> list[list[list[int]]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    n, m = map(int, lines[0].split())
    rows = [[int(x) for x in ln.split()] for ln in lines[1:] if ln.strip()]
    return [rows[b * n : (b + 1) * n] for b in range(m)]


def prime_squares(p: int) -> list[list[list[int]]]:
    """L_k(i, j) = (k*i + j) mod p for k = 1..p-1."""
    return [[[(k * i + j) % p for j in range(p)] for i in range(p)] for k in range(1, p)]


def is_mols(squares) -> bool:
    n = len(squares[0])
    symbols = set(range(n))
    for sq in squares:
        if any(set(row) != symbols for row in sq):
            return False
        if any({row[j] for row in sq} != symbols for j in range(n)):
            return False
    for a, b in combinations(squares, 2):
        if len({(a[i][j], b[i][j]) for i in range(n) for j in range(n)}) != n * n:
            return False
    return True


# ---------------------------------------------------------------------------
# The t-tone checker
# ---------------------------------------------------------------------------


def violations(g: nx.Graph, t: int, sets) -> list[list[int]]:
    """Every pair u < v at distance d <= t sharing >= d colours, sorted."""
    out = []
    for u in range(g.number_of_nodes()):
        for v, d in nx.single_source_shortest_path_length(g, u, cutoff=t).items():
            if v > u:
                shared = len(sets[u] & sets[v])
                if shared >= d:
                    out.append([u, v, d, shared])
    out.sort()
    return out


def check_witness(g: nx.Graph, path, t: int | None = None) -> tuple[str | None, int]:
    """(error or None, colours used) for a coloring file meant to be valid."""
    ft, sets = read_coloring(path)
    if t is not None and ft != t:
        return f"witness has t={ft}, expected {t}", 0
    if len(sets) != g.number_of_nodes():
        return f"witness covers {len(sets)} vertices, graph has {g.number_of_nodes()}", 0
    if any(len(s) != ft for s in sets):
        return "witness has a vertex without exactly t colours", 0
    bad = violations(g, ft, sets)
    used = len(set().union(*sets)) if sets else 0
    return (f"witness violates {len(bad)} pairs, first {bad[0]}" if bad else None), used


def deficiency_sum(g: nx.Graph) -> tuple[int, int]:
    """(sum over pairs of d-1, diameter) for a connected graph."""
    total = diameter = 0
    for u, dists in nx.all_pairs_shortest_path_length(g):
        for v, d in dists.items():
            if v > u:
                total += d - 1
                diameter = max(diameter, d)
    return total, diameter


def cnf_clause_count(g: nx.Graph, t: int, k: int) -> int:
    """Clauses of the binomial decision encoding documented in docs/encoding.md."""
    per_vertex = math.comb(k, k - t + 1) + math.comb(k, t + 1)
    pairs = sum(
        math.comb(k, d)
        for u, dists in nx.all_pairs_shortest_path_length(g, cutoff=t)
        for v, d in dists.items()
        if v > u
    )
    return g.number_of_nodes() * per_vertex + pairs


# ---------------------------------------------------------------------------
# Benchmark-generated sparse inputs
# ---------------------------------------------------------------------------


def distance2_coloring(g: nx.Graph, t: int) -> list[frozenset]:
    """A valid t-tone colouring: a greedy proper colouring of G^2, class c
    taking the private block {ct, ..., ct + t - 1}. Vertices within
    distance 2 get disjoint blocks; farther pairs are unconstrained for
    t <= 2, which is the only use here."""
    if t > 2:
        raise ValueError("distance-2 blocks only certify t <= 2")
    cls: dict[int, int] = {}
    for v in sorted(g, key=lambda x: (-g.degree(x), x)):
        near = {cls[w] for u in g[v] for w in (u, *g[u]) if w in cls}
        c = 0
        while c in near:
            c += 1
        cls[v] = c
    return [frozenset(range(cls[v] * t, cls[v] * t + t)) for v in range(g.number_of_nodes())]


def corrupt(g: nx.Graph, sets, count: int, rng) -> list[frozenset]:
    """Copy the colour set of u onto a neighbour v for `count` random edges."""
    out = list(sets)
    edges = sorted((min(u, v), max(u, v)) for u, v in g.edges())
    for i in rng.choice(len(edges), size=min(count, len(edges)), replace=False):
        u, v = edges[int(i)]
        out[v] = out[u]
    return out
