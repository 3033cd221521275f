import hashlib
import random
from itertools import combinations

import pytest

from oracles import (
    floyd_warshall,
    most_constrained_order,
    plain_distances,
    random_graph,
    random_tree,
)
from tonelab import constructions
from tonelab.bounds import degree_lower_bound, distance_deficiency
from tonelab.coloring import ToneColoring, colors_used, format_coloring, verify
from tonelab.constructions import (
    SCHEMES,
    greedy_large_t_coloring,
    greedy_proper_coloring,
    mols_coloring_knn,
    multipartite_coloring,
    resolve_scheme,
    star_coloring,
    tree_scheme_coloring,
    two_tone_via_decomposition,
)
from tonelab.graphs import (
    Graph,
    build_complete,
    build_complete_multipartite,
    build_path,
    build_star,
    build_truncated_regular_tree,
    cartesian_power,
)
from tonelab.mols import prime_mols
from tonelab.solver import _greedy, _prepare, greedy_heuristic_climb


def test_greedy_large_t_star():
    col = greedy_large_t_coloring(build_star(3), 5)
    assert colors_used(col) == 17
    assert verify(build_star(3), col).valid


def test_greedy_large_t_path_and_clique():
    assert colors_used(greedy_large_t_coloring(build_path(3), 2)) == 5
    col = greedy_large_t_coloring(build_complete(4), 1)
    assert colors_used(col) == 4  # all distances 1: disjoint singletons


def test_greedy_large_t_rejects_small_t():
    with pytest.raises(ValueError, match="t >= 12"):
        greedy_large_t_coloring(build_path(5), 3)  # needs (5-1)(4-1) = 12
    with pytest.raises(ValueError):
        greedy_large_t_coloring(Graph(3, [(0, 1)]), 5)  # disconnected


def test_greedy_large_t_color_count_formula():
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randrange(2, 6)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5}
        for v in range(1, n):
            edges.add((rng.randrange(v), v))
        g = Graph(n, sorted(edges))
        deficiency, diameter = distance_deficiency(g)
        t = max(1, (n - 1) * (diameter - 1))
        col = greedy_large_t_coloring(g, t)
        assert colors_used(col) == t * n - deficiency
        assert verify(g, col).valid


def test_decomposition_bipartite_palettes_disjoint():
    g = build_complete_multipartite([3, 4])
    col, cert = two_tone_via_decomposition(g)
    assert cert.proper_classes == 2
    for u, v in g.edges:
        assert not set(col.assignment[u]) & set(col.assignment[v])
    assert verify(g, col).valid


def test_decomposition_k2():
    g = build_complete(2)
    col, cert = two_tone_via_decomposition(g)
    assert cert.proper_classes == 2
    assert cert.pair_classes == (1, 1)
    assert col.palette_size == 6  # worst-case allotment
    assert verify(g, col).valid


def test_decomposition_q4():
    q4 = cartesian_power(build_complete(2), 4)
    col, cert = two_tone_via_decomposition(q4)
    rep = verify(q4, col)
    assert rep.valid
    assert rep.colors_used >= degree_lower_bound(4, 2) == 6


def test_decomposition_certificate_inequality():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randrange(2, 30)
        g = Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.15
            ],
        )
        col, cert = two_tone_via_decomposition(g)
        assert verify(g, col).valid
        budget = cert.proper_classes + sum(
            1 + _iceil(2 * m) for m in cert.pair_classes
        )
        assert colors_used(col) <= budget


def _iceil(x):
    import math

    s = math.isqrt(x)
    return s if s * s == x else s + 1


def test_greedy_proper_coloring_is_proper():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randrange(2, 25)
        g = Graph(
            n,
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3],
        )
        color = greedy_proper_coloring(g)
        assert all(color[u] != color[v] for u, v in g.edges)


def test_mols_coloring_values():
    assert colors_used(mols_coloring_knn(prime_mols(3), 2)[1]) == 6
    _, col = mols_coloring_knn(prime_mols(5), 4)
    assert colors_used(col) == 20
    assert verify(cartesian_power(build_complete(5), 2), col).valid


def test_mols_coloring_family_too_small():
    with pytest.raises(ValueError):
        mols_coloring_knn(prime_mols(3), 3)  # N(3) = 2


def test_star_coloring_values():
    assert colors_used(star_coloring(3, 4)[1]) == 13
    assert colors_used(star_coloring(5, 3)[1]) == 10  # via the exact solver
    assert colors_used(star_coloring(2, 3)[1]) == 8
    _, big = star_coloring(12, 2)  # heuristic path for large stars
    assert verify(build_star(12), big).valid
    assert colors_used(big) >= degree_lower_bound(12, 2)


def test_multipartite_coloring():
    assert colors_used(multipartite_coloring([1, 1], 2)[1]) == 4
    _, col = multipartite_coloring([3, 3], 5)
    assert colors_used(col) == 24  # two parts of the 17-color star leaves
    assert verify(build_complete_multipartite([3, 3]), col).valid


def test_multipartite_single_part():
    _, col = multipartite_coloring([4], 2)
    for a, b in combinations(range(4), 2):
        shared = set(col.assignment[a]) & set(col.assignment[b])
        assert len(shared) <= 1  # within-part promise even with no edges


def test_multipartite_colors_each_part_size_once(monkeypatch):
    calls = []

    def counting_star_coloring(k, t):
        calls.append(k)
        return star_coloring(k, t)

    monkeypatch.setattr(constructions, "star_coloring", counting_star_coloring)
    for parts in ([5, 5, 5, 5], [4, 4, 6], [2, 3, 2, 3, 2], [1, 1, 1]):
        calls.clear()
        _, col = multipartite_coloring(parts, 3)
        assert sorted(calls) == sorted(set(parts)), parts
        # part by part: each part's own coloring on the next palette range
        rows, base = [], 0
        for a in parts:
            _, part = multipartite_coloring([a], 3)
            rows += [[base + c for c in row] for row in part.assignment]
            base += part.palette_size
        assert col == ToneColoring(3, base, rows), parts


def test_constructions_return_the_graph_they_color():
    # each parameterised construction returns the graph its coloring was
    # verified against; it must be the graph its parameters name
    def same(graph, reference):
        return graph.n == reference.n and graph.edges == reference.edges

    for n in (3, 5, 7):
        graph, _ = mols_coloring_knn(prime_mols(n), 2)
        assert same(graph, cartesian_power(build_complete(n), 2)), n
    for k in range(1, 9):
        for t in range(1, 6):
            graph, _ = star_coloring(k, t)
            assert same(graph, build_star(k)), (k, t)
    for parts in ([1], [4], [2, 3], [1, 1, 1], [5, 5, 5, 5], [4, 4, 6], [3, 2, 3]):
        graph, _ = multipartite_coloring(parts, 3)
        assert same(graph, build_complete_multipartite(parts)), parts
    for name, spec in SCHEMES.items():
        for depth in range(5):
            graph, _ = tree_scheme_coloring(name, depth)
            assert same(graph, build_truncated_regular_tree(spec.arity, depth)), (name, depth)


def test_greedy_heuristic_paths_and_cliques():
    p4, k3, p3 = build_path(4), build_complete(3), build_path(3)
    col = _greedy(p4, _prepare(p4, 2), 2, 5)
    assert col is not None and colors_used(col) <= 5
    assert _greedy(k3, _prepare(k3, 2), 2, 5) is None
    assert _greedy(p3, _prepare(p3, 3), 3, 2) is None  # a cap below t fits no set


def test_greedy_heuristic_on_random_trees():
    rng = random.Random(24)
    for _ in range(100):
        n = rng.randrange(2, 201)
        tree = random_tree(rng, n, max_degree=8)
        cap = degree_lower_bound(tree.max_degree, 2) + 3
        col = _greedy(tree, _prepare(tree, 2), 2, cap)
        assert col is not None
        assert verify(tree, col).valid


def lex_first_greedy(graph, t, cap):
    """Reference greedy: in most-constrained order, each vertex takes the
    first t-subset of range(cap), in itertools order, sharing fewer than d
    colors with every earlier vertex at distance d <= t; None on a miss."""
    dist = floyd_warshall(graph)
    sets = {}
    for v in most_constrained_order(graph, t):
        sets[v] = next(
            (
                set(combo)
                for combo in combinations(range(cap), t)
                if all(len(set(combo) & sets[w]) < dist[v, w] for w in sets)
            ),
            None,
        )
        if sets[v] is None:
            return None
    return tuple(tuple(sorted(sets[v])) for v in range(graph.n))


def fixed_cap_climb(graph, t, cap):
    """The palette-cap climb as written before greedy_heuristic_climb."""
    while True:
        coloring = _greedy(graph, _prepare(graph, t), t, cap)
        if coloring is not None:
            return coloring
        cap += 1


def test_greedy_heuristic_matches_lex_first_reference():
    rng = random.Random(8)
    outcomes = set()
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 16), rng.choice([0.1, 0.2, 0.4]))
        t = rng.randrange(1, 4)
        for cap in range(t, t + 8):
            col = _greedy(g, _prepare(g, t), t, cap)
            want = lex_first_greedy(g, t, cap)
            assert (col and col.assignment) == want, (sorted(g.edges), t, cap)
            assert col is None or col.palette_size == cap
            outcomes.add(col is None)
    assert outcomes == {True, False}


def test_greedy_heuristic_climb_matches_fixed_cap_climb():
    # the experiment's climb started at max(t, degree bound); the star's
    # at the degree bound, or 2 for t = 1
    rng = random.Random(31)
    graphs = [build_star(k) for k in (1, 2, 9, 12)]
    graphs += [random_graph(rng, rng.randrange(1, 60), 3 / 30) for _ in range(30)]
    for g in graphs:
        for t in (1, 2, 3):
            delta = g.max_degree
            lower = degree_lower_bound(delta, t) if delta >= 1 and t >= 2 else t
            assert greedy_heuristic_climb(g, t) == fixed_cap_climb(g, t, max(t, lower))
    for k in (9, 10, 12):
        for t in (1, 2, 3):
            start = degree_lower_bound(k, t) if t >= 2 else 2
            assert star_coloring(k, t)[1] == fixed_cap_climb(build_star(k), t, start)


def test_scheme_registry():
    assert set(SCHEMES) == {"T4_3tone", "T7_3tone_fano", "T3_4tone", "T4_4tone"}
    assert resolve_scheme("T7_3tone").name == "T7_3tone_fano"
    with pytest.raises(ValueError):
        resolve_scheme("T9_5tone")


def test_scheme_seed_tables_pinned():
    # 3-tone, 4-regular seed rows
    _, col = tree_scheme_coloring("T4_3tone", 1)
    assert col.assignment[0] == (0, 1, 2)
    assert col.assignment[1:] == ((3, 4, 5), (3, 6, 7), (4, 6, 8), (5, 7, 8))
    # 3-tone, 7-regular: root (123) and its seven children
    _, col = tree_scheme_coloring("T7_3tone_fano", 1)
    assert col.assignment[0] == (1, 2, 3)
    assert col.assignment[1:] == (
        (4, 5, 6),
        (4, 7, 8),
        (5, 7, 9),
        (6, 8, 9),
        (0, 5, 8),
        (0, 6, 7),
        (0, 4, 9),
    )
    # 4-tone, 3-regular: root (1234), then the fixed child and grandchild rows
    _, col = tree_scheme_coloring("T3_4tone", 2)
    assert col.assignment[0] == (1, 2, 3, 4)
    assert col.assignment[1:4] == ((5, 6, 7, 8), (0, 5, 9, 10), (6, 9, 11, 12))
    expected_level2 = [
        {0, 1, 9, 11},  # (190b)
        {2, 9, 10, 12},  # (29ac)
        {1, 6, 7, 11},  # (167b)
        {2, 6, 8, 12},  # (268c)
        {0, 1, 5, 7},  # (1570)
        {2, 5, 8, 10},  # (258a)
    ]
    assert [set(row) for row in col.assignment[4:]] == expected_level2
    # 4-tone, 4-regular: the twelve fixed second-level rows
    _, col = tree_scheme_coloring("T4_4tone", 2)
    expected = [
        {2, 9, 11, 13},
        {3, 11, 0, 10},
        {4, 0, 9, 12},
        {3, 11, 7, 8},
        {4, 7, 6, 12},
        {1, 6, 11, 13},
        {4, 7, 5, 10},
        {1, 5, 0, 13},
        {2, 0, 7, 8},
        {1, 5, 9, 12},
        {2, 9, 6, 8},
        {3, 6, 5, 10},
    ]
    assert [set(row) for row in col.assignment[5:]] == expected


# SHA-256 of format_coloring(tree_scheme_coloring(name, d)[1]) for d = 3, 4, 5,
# recorded from the transfer-table frames. Depth 3 of T4_3tone, T3_4tone and
# T4_4tone keeps the bytes of the level-by-level rules the tables replaced.
SCHEME_DIGESTS = {
    "T4_3tone": (
        "0b1aba7aacd93f5bf408bd2c6365d766f40328c4dc716e2af9dc54b911774b97",
        "bf529ec85c639f02fd929f715c50dfc19cbf7a54f5c23ef79d55444d1a289ae2",
        "6d82564ac557fdf66ded1dca01f07a338c3eced2e3a8826e274a70f2cb443e1d",
    ),
    "T7_3tone_fano": (
        "09a091df3bc32522e28c5be052769e9c376b53761db3e17987ba74196306d5a5",
        "68d54d75ad25d15c11f732febd889fde78b916c536efb2f956fc3af389e3a6ba",
        "c7a7afa6b51c6ffd5fadc7fc0654da9a13c5cea1112b3e778433f4c7363642c1",
    ),
    "T3_4tone": (
        "3f3eeb5c22abf4592244fa939d5abd2bdd2249739684ee931cb23979272c5b57",
        "db55f9fad95469d52a74b6ac212a51e06160af2157cbcb4b57f40d0b21a350d9",
        "ed2b0eba7d1f3fc9299286b5c697514e0e0b4a1e39256b977ca8fdd8f1ffc876",
    ),
    "T4_4tone": (
        "f41cde9f5d9c40ce7f0d59fc83168fa3db569d9f6bcef72826ba2991b4db6417",
        "286886b39843eb3b56be04867128139d3f8b9118561792ce62f52e8c01ec1661",
        "a4f4fb116d7b92152e6bd60db7813af1ea129793b658670732d815bb8d0afcea",
    ),
}


def test_scheme_colorings_pinned_past_depth_two():
    assert set(SCHEME_DIGESTS) == set(SCHEMES)
    for name, digests in SCHEME_DIGESTS.items():
        for depth, digest in zip((3, 4, 5), digests):
            text = format_coloring(tree_scheme_coloring(name, depth)[1])
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, depth)


def test_schemes_verify_at_all_depths():
    for name, scheme_def in SCHEMES.items():
        for depth in range(4):
            _, col = tree_scheme_coloring(name, depth)
            graph = build_truncated_regular_tree(resolve_scheme(name).arity, depth)
            assert col.palette_size == scheme_def.palette
            assert verify(graph, col).valid
            if depth == 0:
                assert colors_used(col) == scheme_def.t


# the root's children in slot order, as test_scheme_seed_tables_pinned reads them
SCHEME_LEVEL1 = {
    "T4_3tone": ((3, 4, 5), (3, 6, 7), (4, 6, 8), (5, 7, 8)),
    "T7_3tone_fano": (
        (4, 5, 6), (4, 7, 8), (5, 7, 9), (6, 8, 9), (0, 5, 8), (0, 6, 7), (0, 4, 9),
    ),
    "T3_4tone": ((5, 6, 7, 8), (0, 5, 9, 10), (6, 9, 11, 12)),
    "T4_4tone": ((5, 6, 7, 8), (0, 5, 9, 10), (6, 9, 11, 12), (0, 7, 11, 13)),
}


def test_scheme_transfer_tables():
    # the two conditions SchemeSpec's depth-t argument rests on
    assert set(SCHEME_LEVEL1) == set(SCHEMES)
    for name, level1 in SCHEME_LEVEL1.items():
        spec = SCHEMES[name]
        root = set(spec.root_set)
        leaf0 = {spec.transfer[0][c] for c in root}
        for rho, row in zip(spec.transfer, level1, strict=True):
            assert sorted(rho) == list(range(spec.palette)), name
            assert sorted(rho[c] for c in root) == list(row), name
            assert {rho[c] for c in leaf0} == root, name


def test_schemes_generalize_to_depth_four():
    # beyond the acceptance gate: depth 4 >= t covers every depth (see
    # SchemeSpec), and depths 5-6 check that argument on the smaller trees
    for name, spec in SCHEMES.items():
        for depth in (4, 5, 6) if spec.arity <= 4 else (4,):
            graph = build_truncated_regular_tree(resolve_scheme(name).arity, depth)
            _, col = tree_scheme_coloring(name, depth)
            assert verify(graph, col).valid, (name, depth)
            if name in ("T3_4tone", "T4_4tone"):
                assert four_tone_conditions(graph, col) is None, (name, depth)


def four_tone_conditions(graph, col):
    """The structural promises of the 4-tone schemes, checked verbatim."""
    sets = [set(row) for row in col.assignment]
    # (a) adjacent vertices share no colors
    for u, v in graph.edges:
        if sets[u] & sets[v]:
            return f"(a) fails at ({u},{v})"
    # (b) neighborhood pairs share exactly one color, none on three
    for x in range(graph.n):
        nbrs = graph.adjacency[x]
        for u, v in combinations(nbrs, 2):
            if len(sets[u] & sets[v]) != 1:
                return f"(b) pair share fails around {x}"
        if len(nbrs) >= 3:
            for u, v, w in combinations(nbrs, 3):
                if sets[u] & sets[v] & sets[w]:
                    return f"(b) triple color around {x}"
    # (c) distance-3 pairs share the scheme-specified count
    # (d) distance-4 pairs have distinct sets
    for (u, v), d in sorted(plain_distances(graph, cap=4).items()):
        if d == 3:
            shared = len(sets[u] & sets[v])
            if col.palette_size == 13 and shared != 2:
                return f"(c) fails at ({u},{v}): shared {shared}"
            if col.palette_size == 14 and shared not in (1, 2):
                return f"(c) fails at ({u},{v}): shared {shared}"
        elif d == 4 and sets[u] == sets[v]:
            return f"(d) fails at ({u},{v})"
    return None


def test_four_tone_scheme_conditions():
    for name in ("T3_4tone", "T4_4tone"):
        for depth in range(4):
            graph = build_truncated_regular_tree(resolve_scheme(name).arity, depth)
            _, col = tree_scheme_coloring(name, depth)
            assert four_tone_conditions(graph, col) is None


def test_three_tone_schemes_distance2_share():
    # the inductive invariant: distance-2 pairs always share a color
    for name in ("T4_3tone", "T7_3tone_fano"):
        graph = build_truncated_regular_tree(resolve_scheme(name).arity, 3)
        _, col = tree_scheme_coloring(name, 3)
        sets = [set(row) for row in col.assignment]
        dist = floyd_warshall(graph)
        for u in range(graph.n):
            for v in range(u + 1, graph.n):
                if dist[u, v] == 2:
                    assert len(sets[u] & sets[v]) == 1
