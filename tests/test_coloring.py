import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from oracles import naive_verify, random_graph
from tonelab.coloring import (
    ToneColoring,
    checked,
    colors_used,
    format_coloring,
    parse_coloring,
    verify,
)
from tonelab.graphs import Graph, build_complete, build_path, build_star
from tonelab.solver import _greedy, _prepare


def test_tone_coloring_invariants():
    c = ToneColoring(2, 4, [[1, 0], [2, 3]])
    assert c.assignment == ((0, 1), (2, 3))  # sorted on construction
    with pytest.raises(ValueError):
        ToneColoring(2, 4, [[0, 0]])  # repeated color
    with pytest.raises(ValueError):
        ToneColoring(2, 4, [[0, 4]])  # out of palette
    with pytest.raises(ValueError):
        ToneColoring(2, 4, [[0]])  # wrong size
    with pytest.raises(ValueError):
        ToneColoring(0, 4, [])


def test_from_masks_equals_the_row_constructor():
    """Built from bit masks, a coloring equals the one built from its rows,
    whether its colors are 0..u-1 (the masks are kept as the rank masks)
    or skip indices (the rank masks are computed as for rows)."""
    rng = random.Random(34)
    gaps = 0
    for trial in range(400):
        t = rng.randrange(1, 5)
        palette = rng.randrange(t, 3 * t + 4)
        # half the trials draw from 0..u-1 only, the rest from the palette
        top = rng.randrange(t, palette + 1) if trial % 2 else palette
        rows = [rng.sample(range(top), t) for _ in range(rng.randrange(0, 12))]
        masks = [sum(1 << c for c in row) for row in rows]
        built = ToneColoring.from_masks(t, palette, masks)
        plain = ToneColoring(t, palette, rows)
        assert built == plain
        assert built.assignment == plain.assignment
        assert built.colors == plain.colors
        assert built.masks == plain.masks
        gaps += plain.colors != tuple(range(len(plain.colors)))
    assert gaps >= 100


def test_from_masks_runs_the_row_checks():
    assert ToneColoring.from_masks(2, 2, [0b11]).assignment == ((0, 1),)
    with pytest.raises(ValueError):
        ToneColoring.from_masks(0, 4, [])
    with pytest.raises(ValueError):
        ToneColoring.from_masks(3, 2, [0b11])  # palette below t
    with pytest.raises(ValueError):
        ToneColoring.from_masks(2, 4, [0b0011, 0b0111])  # three colors
    with pytest.raises(ValueError):
        ToneColoring.from_masks(1, 4, [0])
    with pytest.raises(ValueError):
        ToneColoring.from_masks(2, 4, [0b10001])  # color 4 outside the palette


def test_verify_k2_disjoint_pairs():
    g = build_complete(2)
    rep = verify(g, ToneColoring(2, 4, [[0, 1], [2, 3]]))
    assert rep.valid and rep.colors_used == 4


def test_verify_star_nine_colors():
    # head {0,1,2}; leaves pairwise share exactly one color at distance 2
    g = build_star(3)
    col = ToneColoring(3, 9, [[0, 1, 2], [3, 4, 5], [3, 6, 7], [4, 6, 8]])
    rep = verify(g, col)
    assert rep.valid
    assert rep.colors_used == 9
    valid, _ = naive_verify(g, col.assignment, 3)
    assert valid


def test_verify_reports_distance2_violation():
    g = build_path(3)
    bad = ToneColoring(2, 4, [[0, 1], [2, 3], [0, 1]])
    rep = verify(g, bad)
    assert not rep.valid
    assert rep.violations == ((0, 2, 2, 2),)
    with pytest.raises(AssertionError, match=r"first violation \(0, 2, 2, 2\)"):
        checked(g, bad)
    good = ToneColoring(2, 5, [[0, 1], [2, 3], [0, 4]])
    assert checked(g, good) is good


def test_verify_disconnected_pairs_unconstrained():
    g = Graph(2, [])
    rep = verify(g, ToneColoring(2, 2, [[0, 1], [0, 1]]))
    assert rep.valid


def test_verify_rejects_wrong_cover():
    with pytest.raises(ValueError):
        verify(build_path(3), ToneColoring(2, 4, [[0, 1], [2, 3]]))


def test_verify_memory_follows_colors_in_use_not_their_values():
    # a mask bit per color in use: a color of 10**9 costs one bit, not 125 MB
    big = 10**9
    coloring = ToneColoring(1, big + 1, [[big]])
    tracemalloc.start()
    try:
        report = verify(Graph(1, []), coloring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid and report.colors_used == 1
    assert peak < 2**20
    # renaming colors by rank keeps every shared count
    path = ToneColoring(2, big + 2, [[0, big], [big, big + 1], [0, 1]])
    assert path.colors == (0, 1, big, big + 1)
    assert verify(build_path(3), path).violations == ((0, 1, 1, 1),)


def test_colors_used():
    same = ToneColoring(3, 3, [[0, 1, 2]] * 4)
    assert colors_used(same) == 3
    disjoint = ToneColoring(2, 8, [[0, 1], [2, 3], [4, 5], [6, 7]])
    assert colors_used(disjoint) == 8  # t * n for pairwise disjoint sets


def _random_valid_coloring(rng, n_max=12, t_max=3):
    """A random graph plus a greedy coloring of it (valid by construction)."""
    while True:
        n = rng.randrange(2, n_max)
        t = rng.randrange(1, t_max + 1)
        g = random_graph(rng, n, rng.uniform(0.1, 0.6))
        cap = t * n
        col = _greedy(g, _prepare(g, t), t, cap)
        if col is not None:
            return g, col


def test_permutation_invariance_sample():
    rng = random.Random(5)
    for _ in range(40):
        g, col = _random_valid_coloring(rng)
        perm = list(range(col.palette_size))
        rng.shuffle(perm)
        mapped = ToneColoring(
            col.t, col.palette_size, [[perm[c] for c in row] for row in col.assignment]
        )
        rep = verify(g, mapped)
        assert rep.valid
        assert colors_used(mapped) == colors_used(col)


def test_subset_monotonicity_sample():
    rng = random.Random(6)
    for _ in range(40):
        g, col = _random_valid_coloring(rng, t_max=4)
        if col.t == 1:
            continue
        t_sub = rng.randrange(1, col.t)
        rows = [sorted(rng.sample(row, t_sub)) for row in col.assignment]
        assert verify(g, ToneColoring(t_sub, col.palette_size, rows)).valid


def test_restriction_monotonicity_sample():
    rng = random.Random(7)
    for _ in range(40):
        g, col = _random_valid_coloring(rng)
        keep = sorted(rng.sample(range(g.n), rng.randrange(1, g.n + 1)))
        sub = g.induced_subgraph(keep)
        rows = [col.assignment[v] for v in keep]
        assert verify(sub, ToneColoring(col.t, col.palette_size, rows)).valid


def test_verify_agrees_with_naive_scan():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randrange(2, 12)
        t = rng.randrange(1, 4)
        g = random_graph(rng, n, rng.uniform(0.1, 0.7))
        k = rng.randrange(t, 3 * t + 2)
        rows = [sorted(rng.sample(range(k), t)) for _ in range(n)]
        col = ToneColoring(t, k, rows)
        rep = verify(g, col)
        valid, violations = naive_verify(g, rows, t)
        assert rep.valid == valid
        assert list(rep.violations) == violations


def test_coloring_format_round_trip():
    col = ToneColoring(3, 9, [[0, 1, 2], [3, 4, 5], [3, 6, 7], [4, 6, 8]])
    text = format_coloring(col)
    assert text.splitlines()[0] == "3 9"
    assert text.splitlines()[1] == "0: 0 1 2"
    again = parse_coloring(text)
    assert again == col
    assert format_coloring(again) == text  # bit-exact round trip


def test_coloring_format_errors():
    with pytest.raises(ValueError):
        parse_coloring("")
    with pytest.raises(ValueError):
        parse_coloring("2 4\n1: 0 1\n")  # vertices must ascend from 0
    with pytest.raises(ValueError):
        parse_coloring("2 4\n0: 1 0\n")  # colors must ascend
    with pytest.raises(ValueError):
        parse_coloring("2 4\n0 0 1\n")  # missing colon


@given(st.integers(1, 4), st.integers(0, 6), st.data())
def test_format_round_trip_property(t, n, data):
    k = data.draw(st.integers(t, t + 6))
    rows = [
        sorted(data.draw(st.sets(st.integers(0, k - 1), min_size=t, max_size=t)))
        for _ in range(n)
    ]
    col = ToneColoring(t, k, rows)
    assert parse_coloring(format_coloring(col)) == col
