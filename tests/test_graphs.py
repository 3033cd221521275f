import random
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    bfs_components,
    floyd_warshall,
    gnp_by_rows,
    most_constrained_order,
    random_graph,
)
from tonelab.coloring import verify
from tonelab.constructions import two_tone_via_decomposition
from tonelab.graphs import (
    Graph,
    build_complete,
    build_complete_multipartite,
    build_gnp,
    build_path,
    build_star,
    build_truncated_regular_tree,
    cartesian_power,
    cartesian_product,
    connected_components,
    distance_ball,
    distance_levels,
    format_graph,
    is_connected,
    parse_graph,
)
from tonelab.solver import TIMEOUT, SearchBudget, _prepare, feasible


def assert_balls_match_oracle(graph, cap):
    """Every vertex's distance_ball equals the one read off Floyd-Warshall."""
    ref = floyd_warshall(graph)
    for u in range(graph.n):
        ball = distance_ball(graph, u, cap)
        assert ball == {
            v: int(ref[u, v])
            for v in range(graph.n)
            if np.isfinite(ref[u, v]) and ref[u, v] <= cap
        }
        assert next(iter(ball)) == u  # discovery order starts at the source


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    g = Graph(3, [(1, 0), (0, 1), (1, 2)])  # duplicates and order collapse
    assert g.m == 2
    assert g.adjacency == ((1,), (0, 2), (1,))


def test_build_path():
    assert build_path(1).n == 1 and build_path(1).m == 0
    p3 = build_path(3)
    assert p3.edges == frozenset({(0, 1), (1, 2)})
    # S_2 is the 3-vertex path, up to the differing canonical numberings
    assert sorted(build_star(2).degrees) == sorted(p3.degrees)
    assert distance_ball(build_path(5), 0, 4)[4] == 4
    assert_balls_match_oracle(build_path(5), 4)
    with pytest.raises(ValueError):
        build_path(0)


def test_build_star():
    s1 = build_star(1)
    assert s1.n == 2 and s1.m == 1
    s3 = build_star(3)
    assert s3.degrees == (3, 1, 1, 1)
    s7 = build_star(7)
    assert s7.n == 8
    assert all(
        distance_ball(s7, u, 2)[v] == 2 for u in range(1, 8) for v in range(u + 1, 8)
    )
    assert_balls_match_oracle(s7, 2)
    with pytest.raises(ValueError):
        build_star(0)


def test_build_complete_multipartite():
    k3 = build_complete_multipartite([1, 1, 1])
    assert k3.edges == build_complete(3).edges
    empty3 = build_complete_multipartite([3])
    assert empty3.m == 0
    assert distance_ball(empty3, 0, 2) == {0: 0}
    assert_balls_match_oracle(empty3, 2)
    g = build_complete_multipartite([2, 3])
    assert g.n == 5 and g.m == 6
    assert distance_ball(g, 0, 2)[1] == 2 and distance_ball(g, 2, 2)[3] == 2
    assert_balls_match_oracle(g, 2)
    with pytest.raises(ValueError):
        build_complete_multipartite([])
    with pytest.raises(ValueError):
        build_complete_multipartite([2, 0])


def test_build_complete_needs_a_vertex():
    assert (build_complete(1).n, build_complete(1).m) == (1, 0)
    for n in (0, -1):
        with pytest.raises(ValueError, match="^complete graph needs at least one vertex$"):
            build_complete(n)


def test_cartesian_products():
    q3 = cartesian_power(build_complete(2), 3)
    assert q3.n == 8 and q3.m == 12
    k3sq = cartesian_power(build_complete(3), 2)
    assert k3sq.n == 9
    assert all(deg == 4 for deg in k3sq.degrees)
    assert k3sq.adjacency[5] == (2, 3, 4, 8)  # (1, 2) is vertex 1*3 + 2
    with pytest.raises(ValueError):
        cartesian_power(build_complete(2), 0)
    with pytest.raises(ValueError):
        cartesian_product(Graph(0), build_complete(2))


def test_clique_power_distance_is_hamming():
    n, b = 4, 2
    g = cartesian_power(build_complete(n), b)
    for u in range(g.n):
        cu = (u // n, u % n)
        ball = distance_ball(g, u, b)
        for v in range(u + 1, g.n):
            cv = (v // n, v % n)
            hamming = sum(a != b_ for a, b_ in zip(cu, cv))
            assert ball[v] == hamming
    assert_balls_match_oracle(g, b)


@given(st.integers(2, 4), st.integers(1, 3))
def test_power_vertex_count_and_degrees(n, b):
    g = cartesian_power(build_complete(n), b)
    assert g.n == n**b
    # cliques are vertex-transitive: every degree is b * (n-1)
    assert set(g.degrees) == {b * (n - 1)}


def test_product_degree_is_coordinate_sum():
    g, h = build_path(3), build_star(2)
    prod = cartesian_product(g, h)
    for u in range(g.n):
        for v in range(h.n):
            assert prod.degrees[u * h.n + v] == g.degrees[u] + h.degrees[v]


def test_truncated_regular_tree():
    s4 = build_truncated_regular_tree(4, 1)
    assert s4.edges == build_star(4).edges
    t32 = build_truncated_regular_tree(3, 2)
    assert t32.n == 10
    t72 = build_truncated_regular_tree(7, 2)
    assert t72.n == 50
    assert build_truncated_regular_tree(5, 0).n == 1
    with pytest.raises(ValueError):
        build_truncated_regular_tree(1, 2)
    with pytest.raises(ValueError):
        build_truncated_regular_tree(3, -1)


def test_truncated_tree_is_tree():
    for delta, depth in [(2, 4), (3, 3), (4, 2), (7, 2)]:
        g = build_truncated_regular_tree(delta, depth)
        assert g.m == g.n - 1
        assert is_connected(g)


def test_truncated_tree_numbering_contract():
    # the tree schemes read parent and children straight from adjacency
    for delta, depth in [(2, 4), (3, 3), (4, 4), (7, 3)]:
        adj = build_truncated_regular_tree(delta, depth).adjacency
        assert all(w > 0 for w in adj[0])
        parents = []
        for v in range(1, len(adj)):
            assert [w for w in adj[v] if w < v] == [adj[v][0]], (delta, depth, v)
            parents.append(adj[v][0])
        assert parents == sorted(parents), (delta, depth)


def test_truncated_tree_matches_a_level_by_level_build():
    for delta, depth in [(2, 5), (3, 4), (5, 3), (9, 2), (4, 0)]:
        edges, level, n = [], [0], 1
        for lev in range(depth):
            children, level = level, []
            for parent in children:
                for _ in range(delta if lev == 0 else delta - 1):
                    edges.append((parent, n))
                    level.append(n)
                    n += 1
        tree = build_truncated_regular_tree(delta, depth)
        assert (tree.n, tree.sorted_edges()) == (n, edges), (delta, depth)


def test_gnp_extremes_and_determinism():
    assert build_gnp(6, 0.0, 1).m == 0
    assert build_gnp(6, 1.0, 1).edges == build_complete(6).edges
    a = build_gnp(50, 0.1, 12345)
    b = build_gnp(50, 0.1, 12345)
    assert a.edges == b.edges
    c = build_gnp(50, 0.1, 54321)
    assert c.edges != a.edges
    with pytest.raises(ValueError):
        build_gnp(5, 1.5, 0)


def test_gnp_chunked_draw_matches_row_by_row_draw():
    from tonelab.graphs import _GNP_CHUNK

    # the last n whose pairs fit in one chunk, the first that needs two,
    # and one whose pairs span several chunk boundaries
    over = next(n for n in range(2, 10**6) if n * (n - 1) // 2 > _GNP_CHUNK)
    cases = [(n, p) for n in (1, 2, over - 1, over) for p in (0.0, 1.0, 0.01)]
    cases += [(4 * over, 0.003), (2 * over, 0.5)]
    for seed, (n, p) in enumerate(cases):
        got, expect = build_gnp(n, p, seed), gnp_by_rows(n, p, seed)
        assert got.n == expect.n and got.edges == expect.edges, (n, p)
        assert list(got.edges) == list(expect.edges), (n, p)  # same insertion order


def test_gnp_edge_count_within_four_sigma():
    n, p = 1000, 5 / 1000
    g = build_gnp(n, p, seed=2024)
    pairs = n * (n - 1) // 2
    mean = pairs * p
    sigma = (pairs * p * (1 - p)) ** 0.5
    assert abs(g.m - mean) <= 4 * sigma


def test_distances_capped_basics():
    p5 = build_path(5)
    assert distance_ball(p5, 0, 3) == {0: 0, 1: 1, 2: 2, 3: 3}
    assert distance_ball(p5, 2, 1) == {2: 0, 1: 1, 3: 1}
    assert distance_ball(p5, 2, 0) == {2: 0}
    two = Graph(4, [(0, 1), (2, 3)])
    assert distance_ball(two, 0, 3) == {0: 0, 1: 1}
    for cap in range(5):
        assert_balls_match_oracle(p5, cap)
        assert_balls_match_oracle(two, cap)
    with pytest.raises(ValueError):
        distance_ball(p5, 0, -1)


def test_distances_match_floyd_warshall_oracle():
    rng = random.Random(7)
    for trial in range(50):
        n = rng.randrange(2, 25)
        g = random_graph(rng, n, rng.uniform(0.05, 0.5))
        cap = rng.randrange(1, n + 1)
        assert_balls_match_oracle(g, cap)
    # a couple of larger instances up to n=64
    for n in (48, 64):
        g = random_graph(rng, n, 0.08)
        assert_balls_match_oracle(g, n)


def test_saturated_balls_match_oracle():
    # graphs whose diameter is below the cap: every ball holds all vertices
    cases = [build_complete(n) for n in range(1, 6)]
    cases += [cartesian_power(build_complete(n), 2) for n in (2, 3, 4)]
    cases += [cartesian_power(build_complete(2), b) for b in (1, 2, 3, 4)]
    for g in cases:
        for cap in range(g.n + 1):
            assert_balls_match_oracle(g, cap)


class CountingSequence(Sequence):
    """A read-only sequence that counts how many items are read."""

    def __init__(self, items):
        self.items = items
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return self.items[i]

    def __len__(self):
        return len(self.items)


def test_distance_ball_stops_once_it_holds_every_vertex():
    # K_19 squared has diameter 2. Vertex 0's list gives its 36 neighbors;
    # the lists of its 18 row neighbors, read first, each add one column
    # of 18, which makes all 361, so the search stops mid-level 1 and
    # never reads the 18 column neighbors' lists or any of level 2's
    graph = cartesian_power(build_complete(19), 2)
    ref = floyd_warshall(graph)
    counting = CountingSequence(graph.adjacency)
    graph.__dict__["adjacency"] = counting  # shadows the cached property
    ball = distance_ball(graph, 0, 3)
    assert counting.reads == 1 + 18
    assert ball == {v: int(ref[0, v]) for v in range(graph.n)}


def assert_levels_match_oracle(graph, ref, sources, cap):
    """Each ball of one sweep over ``sources`` equals Floyd-Warshall's."""
    sources = list(sources)
    swept = list(distance_levels(graph, iter(sources), cap))
    assert [src for src, _ in swept] == sources
    for src, levels in swept:
        assert levels[0] == [src]
        assert all(levels)  # no empty level
        assert [sorted(level) for level in levels] == [
            [v for v in range(graph.n) if ref[src, v] == d] for d in range(len(levels))
        ]
        farthest = [ref[src, v] for v in range(graph.n) if np.isfinite(ref[src, v])]
        assert len(levels) - 1 == min(cap, max(farthest))


def test_distance_levels_match_floyd_warshall_at_every_cap():
    rng = random.Random(2323)
    graphs = [Graph(1), Graph(4), build_path(6), Graph(5, [(0, 1), (2, 3)])]
    graphs += [random_graph(rng, rng.randrange(2, 16), rng.uniform(0.05, 0.5)) for _ in range(40)]
    assert sum(not is_connected(g) for g in graphs) >= 10
    for g in graphs:
        ref = floyd_warshall(g)
        for cap in range(g.n + 1):
            assert_levels_match_oracle(g, ref, range(g.n), cap)


def test_distance_levels_reads_sources_lazily_and_stamps_per_ball():
    rng = random.Random(2324)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(2, 16), rng.uniform(0.05, 0.5))
        ref = floyd_warshall(g)
        sources = [rng.randrange(g.n) for _ in range(2 * g.n)]  # repeats
        assert len(set(sources)) < len(sources)
        for cap in (0, 1, 2, g.n):
            assert_levels_match_oracle(g, ref, sources, cap)
    # a source is drawn only when the ball before it has been handed out
    drawn = []

    def sources():
        for v in (3, 0, 3):
            drawn.append(v)
            yield v

    sweep = distance_levels(build_path(5), sources(), 1)
    assert next(sweep) == (3, [[3], [2, 4]]) and drawn == [3]
    assert next(sweep) == (0, [[0], [1]]) and drawn == [3, 0]
    assert next(sweep) == (3, [[3], [2, 4]]) and drawn == [3, 0, 3]


def test_distance_levels_rejects_a_negative_cap_on_the_first_ball():
    sweep = distance_levels(build_path(3), range(3), -1)  # nothing runs yet
    with pytest.raises(ValueError):
        next(sweep)


def test_distance_levels_rejects_a_source_out_of_range():
    sweep = distance_levels(build_path(5), [0, -1], 2)
    assert next(sweep) == (0, [[0], [1], [2]])
    with pytest.raises(ValueError):
        next(sweep)  # -1 would otherwise alias vertex 4
    for src in (-1, 5):
        with pytest.raises(ValueError):
            distance_ball(build_path(5), src, 2)


def test_distance_ball_is_symmetric():
    # v is in ball(u) iff u is in ball(v), at the same distance
    rng = random.Random(11)
    for trial in range(50):
        n = rng.randrange(2, 30)
        g = random_graph(rng, n, rng.uniform(0.02, 0.4))
        cap = rng.randrange(0, n + 1)
        balls = [distance_ball(g, u, cap) for u in range(n)]
        for u in range(n):
            for v in range(n):
                assert balls[u].get(v) == balls[v].get(u)


def test_edge_deletion_never_shrinks_distances():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randrange(4, 16)
        g = random_graph(rng, n, 0.4)
        if g.m == 0:
            continue
        drop = sorted(g.edges)[rng.randrange(g.m)]
        h = Graph(n, g.edges - {drop})
        for u in range(n):
            bg = distance_ball(g, u, n)
            bh = distance_ball(h, u, n)
            # a vertex missing from a ball is farther than the cap
            assert bh.keys() <= bg.keys()
            assert all(bh[v] >= bg[v] for v in bh)


def test_distance_consumers_allocate_no_dense_matrix():
    # an n x n int32 distance matrix of this path alone would take 256 MB
    path = build_path(8000)
    path.degrees  # the graph's own storage is not under test
    tracemalloc.start()
    try:
        coloring, _ = two_tone_via_decomposition(path)
        assert verify(path, coloring).valid
        result = feasible(path, 2, 5, SearchBudget(max_nodes=1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == TIMEOUT
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_connected_components():
    g = Graph(5, [(0, 1), (3, 4)])
    assert connected_components(g) == [[0, 1], [2], [3, 4]]
    assert not is_connected(g)
    assert is_connected(build_path(4))


def test_components_and_search_order_match_queue_bfs():
    # components read uncapped distance balls, the search order distance-t
    # balls; the references are queue BFS and plain rescanning
    rng = random.Random(1117)
    disconnected = isolated = 0
    graphs = [Graph(0), Graph(1), Graph(6), build_star(5), build_path(7)]
    for _ in range(240):
        n = rng.randrange(1, 41)
        graphs.append(random_graph(rng, n, rng.choice([0.02, 0.05, 0.1, 0.2, 0.5])))
    for g in graphs:
        comps = connected_components(g)
        assert comps == bfs_components(g)
        assert is_connected(g) == (len(comps) <= 1)
        t = rng.randrange(1, 4)
        order = _prepare(g, t).order
        assert order == most_constrained_order(g, t), (sorted(g.edges), t)
        disconnected += len(comps) > 1
        isolated += 0 in g.degrees
    assert disconnected >= 100 and isolated >= 100


def test_graph_format_round_trip():
    g = build_complete_multipartite([2, 3])
    text = format_graph(g)
    again = parse_graph(text)
    assert again.n == g.n and again.edges == g.edges
    assert format_graph(again) == text  # bit-exact
    assert text.endswith("\n")


def test_graph_format_comments_and_errors():
    g = parse_graph("# header comment\n3 2\n0 1  # inline\n1 2\n")
    assert g.edges == frozenset({(0, 1), (1, 2)})
    with pytest.raises(ValueError):
        parse_graph("3 2\n0 1\n")  # missing edge line
    with pytest.raises(ValueError):
        parse_graph("")
    with pytest.raises(ValueError):
        parse_graph("2 1\n0 2\n")  # endpoint out of range


def test_induced_subgraph():
    g = build_path(5)
    h = g.induced_subgraph([0, 1, 3])
    assert h.n == 3 and h.edges == frozenset({(0, 1)})


def test_induced_subgraph_rejects_a_vertex_out_of_range():
    g = build_path(4)
    for vertices in ([-1, 2], [0, 9]):  # -1 would alias vertex 3
        with pytest.raises(ValueError, match="out of range"):
            g.induced_subgraph(vertices)


def test_graph_holds_one_copy_of_its_edges():
    # the sorted adjacency is the one copy: no edge set, and no edge list
    # built by the builder on the way in
    tracemalloc.start()
    try:
        g = build_complete_multipartite([200, 300, 400])
        g.adjacency
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 120 * g.m, f"{peak / g.m:.0f} bytes per edge"
