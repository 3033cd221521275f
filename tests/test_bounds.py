import math
import random

import pytest
from hypothesis import given, strategies as st

from tonelab.bounds import (
    degree_bound,
    degree_lower_bound,
    distance_deficiency,
    min_palette_for_pairs,
    multipartite_lower,
    pairsum_bound,
    path_formula,
)
from tonelab.graphs import Graph, build_complete, build_path, build_star


def closed_form(a: int, radicand: int) -> int:
    """ceil((a + sqrt(radicand)) / 2) by integer sqrt. The degree bound at
    (delta, t) is closed_form(2t + 1, 1 + 4t(t-1)delta), and the 2-tone tree
    formula closed_form(5, 8delta + 1)."""
    s = math.isqrt(radicand)
    return (a + s + 1) // 2 if s * s == radicand else (a + s) // 2 + 1


def ceil_oracle(a: int, radicand: int) -> int:
    """Smallest integer q with 2q - a >= sqrt(radicand), by integer search."""
    q = 0
    while (2 * q - a) < 0 or (2 * q - a) ** 2 < radicand:
        q += 1
    return q


def test_degree_lower_bound_values():
    assert degree_lower_bound(3, 2) == 5  # (5 + sqrt(25)) / 2
    assert degree_lower_bound(5, 3) == 9  # (7 + sqrt(121)) / 2, a perfect square
    with pytest.raises(ValueError):
        degree_lower_bound(3, 1)
    with pytest.raises(ValueError):
        degree_lower_bound(0, 2)


def test_degree_bound_applies_exactly_where_the_old_guard_did():
    for delta in range(61):
        for t in range(1, 9):
            old = degree_lower_bound(delta, t) if t >= 2 and delta >= 1 else None
            assert degree_bound(delta, t) == old, (delta, t)


@given(st.integers(1, 10**6), st.integers(2, 50))
def test_degree_lower_bound_beats_sqrt(delta, t):
    out = degree_lower_bound(delta, t)
    assert out * out > t * (t - 1) * delta  # strictly above sqrt(t(t-1)delta)


def test_tree2tone_values():
    assert degree_lower_bound(3, 2) == 5
    assert degree_lower_bound(1, 2) == 4
    with pytest.raises(ValueError):
        degree_lower_bound(0, 2)


def test_tree2tone_equals_degree_bound_up_to_1e6():
    for delta in range(1, 10**6 + 1):
        if closed_form(5, 8 * delta + 1) != degree_lower_bound(delta, 2):
            raise AssertionError(delta)


def test_ceiling_never_uses_floating_point():
    rng = random.Random(123)
    for _ in range(10**6):
        delta = rng.randrange(1, 10**7)
        t = rng.randrange(2, 40)
        got = degree_lower_bound(delta, t)
        assert got == closed_form(2 * t + 1, 1 + 4 * t * (t - 1) * delta), (delta, t)
    # exhaustive agreement with the search oracle near perfect squares
    for t in range(2, 8):
        for delta in range(1, 400):
            a = 2 * t + 1
            radicand = 1 + 4 * t * (t - 1) * delta
            assert degree_lower_bound(delta, t) == ceil_oracle(a, radicand)


def test_path_formula_values():
    assert path_formula(3, 3) == 8
    assert path_formula(4, 4) == 12
    assert path_formula(3, 4) == 11
    assert path_formula(5, 3) == 8
    assert path_formula(6, 4) == 12
    assert path_formula(1, 5) == 5
    with pytest.raises(ValueError):
        path_formula(0, 2)


def test_pairsum_bound_stars():
    rep = pairsum_bound(build_star(3), 5)
    assert rep.value == 17 and rep.kind == "exact"
    rep = pairsum_bound(build_star(4), 4)
    assert rep.value == 14 and rep.kind == "exact"
    rep = pairsum_bound(build_star(5), 3)
    assert rep.value == 8 and rep.kind == "lower"
    assert "t >= 5" in rep.reason


def test_pairsum_rejects_disconnected():
    with pytest.raises(ValueError):
        pairsum_bound(Graph(3, [(0, 1)]), 2)


def test_distance_deficiency():
    total, diameter = distance_deficiency(build_path(4))
    # pairs at distance 1,1,1,2,2,3 contribute 0+0+0+1+1+2
    assert total == 4 and diameter == 3


def star_reference(k: int, t: int) -> tuple[int, str]:
    """(k+1)t - C(k,2), exact for stars once t >= k."""
    return (k + 1) * t - math.comb(k, 2), "exact" if t >= k else "lower"


def test_star_formula():
    for k, t, value in [(3, 5, 17), (3, 4, 13), (5, 3, 8)]:
        rep = pairsum_bound(build_star(k), t)
        assert (rep.value, rep.kind) == star_reference(k, t) and rep.value == value


@given(st.integers(1, 50), st.integers(1, 200))
def test_star_formula_matches_pairsum(k, t):
    rep = pairsum_bound(build_star(k), t)
    assert (rep.value, rep.kind) == star_reference(k, t)


def test_multipartite_lower():
    low = multipartite_lower([4, 4], 2)
    assert abs(low.real_value - 2 * math.sqrt(8)) < 1e-12
    assert low.integer_value == 8
    with pytest.raises(ValueError, match="two parts"):
        multipartite_lower([7], 2)  # edgeless: tau_2 = 2, below sqrt(14)
    ones = multipartite_lower([1] * 6, 3)
    assert ones.integer_value == 18  # consistent with tau_t(K_b) = t*b


@given(st.integers(2, 8), st.integers(1, 30))
def test_min_palette_for_pairs_is_minimal(t, a):
    c = min_palette_for_pairs(t, a)
    need = math.comb(t, 2) * a
    assert math.comb(c, 2) >= need
    assert c == t or math.comb(c - 1, 2) < need


def test_degree_bound_below_exact_small():
    # lower bound sanity against known exact star values
    from tonelab.solver import tau_exact

    for delta, t, exact in [(2, 3, 8), (3, 3, 9), (3, 4, 13)]:
        assert degree_lower_bound(delta, t) <= exact
        assert tau_exact(build_star(delta), t).value == exact


def test_pairsum_below_solver_on_cliques():
    from tonelab.solver import tau_exact

    for n in (2, 3, 4):
        for t in (1, 2):
            rep = pairsum_bound(build_complete(n), t)
            assert rep.value == t * n
            assert tau_exact(build_complete(n), t).value == t * n


def test_pairsum_equality_on_all_trees_up_to_six():
    """At the minimal qualifying t the bound is exact on every tree class."""
    from oracles import trees_up_to_iso
    from tonelab.solver import tau_exact

    for n in range(1, 7):
        for tree in trees_up_to_iso(n):
            deficiency, diameter = distance_deficiency(tree)
            t = max(1, (n - 1) * (diameter - 1))
            rep = pairsum_bound(tree, t)
            assert rep.kind == "exact"
            assert rep.value == t * n - deficiency
            out = tau_exact(tree, t)
            assert out.status == "exact" and out.value == rep.value, (
                sorted(tree.edges),
                t,
            )
