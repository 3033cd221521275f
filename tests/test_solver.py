import random

import pytest

from oracles import (
    brute_force_tau,
    chromatic_number_reference,
    greedy_clique,
    plant_twins,
    random_connected_graph,
    random_graph,
    random_tree,
)
from tonelab import bounds
from tonelab.coloring import colors_used, verify
from tonelab.graphs import (
    Graph,
    build_complete,
    build_gnp,
    build_path,
    build_star,
    cartesian_power,
    connected_components,
    is_connected,
)
from tonelab.solver import (
    EXACT,
    FEASIBLE,
    INFEASIBLE,
    TIMEOUT,
    SearchBudget,
    _prepare,
    feasible,
    greedy_heuristic_climb,
    tau_exact,
)


def test_budget_requires_a_cap():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=None, max_millis=None)
    SearchBudget(max_nodes=None, max_millis=100.0)
    # caps that cannot hold: a negative node cap would report negative
    # nodes, a NaN deadline never fires and an infinite one sets no cap
    for nodes, millis in ((-5, None), (-1, 10.0), (None, -5.0), (None, float("nan")),
                          (None, float("inf")), (100, float("nan"))):
        with pytest.raises(ValueError, match="must be"):
            SearchBudget(max_nodes=nodes, max_millis=millis)
    zero = SearchBudget(max_nodes=0, max_millis=0.0)
    assert feasible(build_star(3), 5, 17, zero).status == TIMEOUT


def test_search_order_prefers_high_degree():
    """A max-degree vertex of lowest index comes first, and each connected
    component fills a contiguous run of positions."""
    assert _prepare(build_star(4), 2).order[0] == 0  # the head
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    assert _prepare(g, 1).order[0] == 0  # two degree-3 vertices, 0 first
    rng = random.Random(1979)
    split = 0
    for _ in range(200):
        g = random_graph(rng, rng.randrange(2, 30), rng.choice([0.05, 0.1, 0.2]))
        order = _prepare(g, rng.randrange(1, 4)).order
        assert order[0] == min(range(g.n), key=lambda v: (-g.degrees[v], v))
        comps = connected_components(g)
        component_of = {v: c for c, comp in enumerate(comps) for v in comp}
        runs = [component_of[v] for i, v in enumerate(order)
                if i == 0 or component_of[order[i - 1]] != component_of[v]]
        assert sorted(runs) == list(range(len(comps))), sorted(g.edges)
        split += len(comps) > 1
    assert split >= 150


def clique_prefix(graph, order):
    """The longest prefix of ``order`` whose vertices are pairwise adjacent."""
    adjacent = [set(a) for a in graph.adjacency]
    size = 0
    while size < len(order) and adjacent[order[size]].issuperset(order[:size]):
        size += 1
    return order[:size]


def test_the_orders_clique_prefix_is_the_greedy_clique():
    """The order starts with the greedy clique, and suffix_fresh[0] charges
    t fresh colors to each of its vertices, so the fresh-color count
    subsumes the clique bound (see solver's module docstring)."""
    rng = random.Random(2025)
    split = 0
    graphs = [Graph(1), Graph(5), build_star(4), build_complete(5)]
    for _ in range(300):
        n = rng.randrange(1, 30)
        graphs.append(random_graph(rng, n, rng.choice([0.05, 0.1, 0.3, 0.6, 0.9])))
    for g in graphs:
        t = rng.randrange(1, 5)
        prep = _prepare(g, t)
        clique = greedy_clique(g)
        assert clique_prefix(g, prep.order) == clique, (sorted(g.edges), t)
        assert prep.suffix_fresh[0] >= t * len(clique)
        split += len(connected_components(g)) > 1
    assert split >= 100


def test_the_fresh_color_count_is_a_lower_bound():
    """The prepared start, which covers suffix_fresh[0], never exceeds
    tau_t, by the oracle on small graphs (some disconnected) and trees; it
    is tau_t on most of them, and above the degree bound and every
    component's pairsum on some."""
    rng = random.Random(2026)
    tight = lifted = disconnected = 0
    for t, n_max, count in ((1, 7, 40), (2, 6, 40), (3, 4, 30), (4, 4, 20)):
        for trial in range(count):
            n = rng.randrange(1, n_max + 1)
            if trial % 2:
                g = random_tree(rng, n)
            else:
                g = random_graph(rng, n, rng.uniform(0.1, 0.9))
            prep = _prepare(g, t)
            tau = brute_force_tau(g, t, t * n)
            assert prep.suffix_fresh[0] <= prep.lower <= tau, (sorted(g.edges), t)
            tight += prep.lower == tau
            lifted += prep.lower > unskipped_lower_bound(g, t)
            disconnected += len(connected_components(g)) > 1
    assert tight >= 100 and lifted >= 10 and disconnected >= 20


def test_feasible_star_small_cases():
    s3 = build_star(3)
    assert feasible(s3, 3, 8).status == INFEASIBLE
    res = feasible(s3, 3, 9)
    assert res.status == FEASIBLE
    assert verify(s3, res.witness).valid


def test_feasible_rejects_small_k():
    with pytest.raises(ValueError):
        feasible(build_path(2), 3, 2)


def test_feasible_cliques_need_disjoint_sets():
    for n in (2, 3, 4):
        for t in (1, 2, 3):
            kn = build_complete(n)
            assert feasible(kn, t, t * n).status == FEASIBLE
            if t * n - 1 >= t:
                assert feasible(kn, t, t * n - 1).status == INFEASIBLE


def test_tau_exact_examples():
    assert tau_exact(build_path(5), 3).value == 8
    assert tau_exact(build_star(4), 4).value == 14
    assert tau_exact(build_complete(2), 1).value == 2


def test_tau_exact_t1_is_chromatic_number():
    rng = random.Random(11)
    for _ in range(12):
        n = rng.randrange(2, 9)
        g = random_graph(rng, n, rng.uniform(0.2, 0.7))
        assert tau_exact(g, 1).value == chromatic_number_reference(g)


def test_cartesian_powers_preserve_chromatic_number():
    from tonelab.graphs import cartesian_power

    cycle5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    for base in (build_complete(2), build_complete(3), cycle5, build_path(4)):
        chi = chromatic_number_reference(base)
        assert tau_exact(cartesian_power(base, 2), 1).value == chi
    assert tau_exact(cartesian_power(build_complete(2), 3), 1).value == 2


def test_exact_outcomes_recheck_value_minus_one():
    rng = random.Random(12)
    for _ in range(10):
        n = rng.randrange(2, 6)
        g = random_connected_graph(rng, n, 0.4)
        t = rng.randrange(1, 3)
        out = tau_exact(g, t)
        assert out.status == EXACT
        assert verify(g, out.witness).valid
        assert colors_used(out.witness) <= out.value
        if out.value - 1 >= t:
            assert feasible(g, t, out.value - 1).status == INFEASIBLE


def test_monotone_in_t_sample():
    rng = random.Random(13)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(2, 6), 0.4)
        t = rng.randrange(1, 3)
        assert tau_exact(g, t).value <= tau_exact(g, t + 1).value


def test_subgraph_monotonicity_sample():
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randrange(3, 6)
        g = random_graph(rng, n, 0.5)
        keep = sorted(rng.sample(range(n), rng.randrange(1, n)))
        h = g.induced_subgraph(keep)
        t = rng.randrange(1, 3)
        assert tau_exact(h, t).value <= tau_exact(g, t).value


def test_determinism():
    g = build_star(4)
    a = tau_exact(g, 3)
    b = tau_exact(g, 3)
    assert a.value == b.value
    assert a.witness == b.witness
    assert a.stats.nodes == b.stats.nodes


def test_timeout_returns_bracket_never_exact():
    g = build_star(5)
    out = tau_exact(g, 3, SearchBudget(max_nodes=1))
    assert out.status == TIMEOUT
    assert out.value is None
    assert (out.best_lower, out.best_upper) == (9, 10)  # tau_3(S_5) = 10
    assert out.witness == greedy_heuristic_climb(g, 3)
    assert verify(g, out.witness).valid
    res = feasible(g, 3, 9, SearchBudget(max_nodes=1))
    assert res.status == TIMEOUT and res.witness is None


def test_starting_lower_bound_components():
    g = Graph(5, [(0, 1), (2, 3), (3, 4)])  # K_2 + P_3
    assert _prepare(g, 2).lower >= 4  # pairsum on K_2 component: 2*2


def unskipped_lower_bound(graph, t):
    """The max of the degree bound and every component's pairsum, each
    computed: the closed forms that tau_exact's start covers."""
    candidates = [t]
    if graph.max_degree >= 1 and t >= 2:
        candidates.append(bounds.degree_lower_bound(graph.max_degree, t))
    for comp in connected_components(graph):
        candidates.append(bounds.pairsum_bound(graph.induced_subgraph(comp), t).value)
    return max(candidates)


def test_pairsum_skip_is_sound():
    rng = random.Random(2024)
    kinds = {True: 0, False: 0}
    for trial in range(300):
        n = rng.randrange(1, 14)
        if trial % 3:
            g = random_graph(rng, n, rng.uniform(0.03, 0.9))
        else:
            g = random_connected_graph(rng, n, rng.uniform(0.0, 0.5))
        t = rng.randrange(1, 8)
        kinds[is_connected(g)] += 1
        assert _prepare(g, t).lower >= unskipped_lower_bound(g, t), (g.edges, t)
    assert min(kinds.values()) >= 50
    # where pairsum wins, the start still reaches it: stars at t >= k
    # (prop73's tau_5(S_3) = 17 starts there) and paths at large t
    for graph, t in [(build_star(3), 5), (build_star(4), 4), (build_star(5), 7),
                     (build_path(4), 4), (build_path(6), 9), (build_path(5), 6)]:
        pairsum = bounds.pairsum_bound(graph, t).value
        assert pairsum > bounds.degree_lower_bound(graph.max_degree, t)
        start = _prepare(graph, t).lower
        assert start >= pairsum == unskipped_lower_bound(graph, t)
        if graph.max_degree == 2:  # on a path the start is tau_t, above it on P_6
            assert start == bounds.path_formula(graph.n, t)
    assert _prepare(build_star(3), 5).lower == 17


def test_pairsum_skip_builds_nothing_when_it_cannot_win(monkeypatch):
    """tau_exact's start comes from the prepared order alone: it sweeps no
    components, builds no subgraph and computes no pairsum, even on S_3 at
    t = 5, where the pairsum is the best closed form."""
    from tonelab import graphs

    sparse = build_gnp(2000, 2 / 2000, seed=1)
    star = build_star(3)
    expect = unskipped_lower_bound(sparse, 2), unskipped_lower_bound(star, 5)

    def fail(*args):
        pytest.fail("the solve computed a closed form")

    for module in (bounds, graphs):
        monkeypatch.setattr(module, "connected_components", fail)
    monkeypatch.setattr(bounds, "pairsum_bound", fail)
    monkeypatch.setattr(Graph, "induced_subgraph", fail)
    assert tau_exact(sparse, 2, SearchBudget(max_nodes=2_000)).best_lower >= expect[0]
    out = tau_exact(star, 5)
    assert (out.status, out.value) == (EXACT, 17) and expect[1] == 17


def test_brute_force_examples():
    assert brute_force_tau(build_path(3), 2, 8) == 5
    assert brute_force_tau(build_complete(3), 2, 8) == 6
    assert brute_force_tau(build_path(4), 2, 8) == 5
    assert brute_force_tau(build_path(2), 2, 3) is None  # needs 4 > k_max


def test_star4_three_tone_verdicts():
    g = build_star(4)
    assert feasible(g, 3, 9).status == FEASIBLE
    assert feasible(g, 3, 8).status == INFEASIBLE
    assert tau_exact(g, 3).value == 9


def test_witness_palette_matches_value():
    out = tau_exact(build_star(3), 4)
    assert out.value == 13
    assert out.witness.palette_size == 13
    assert colors_used(out.witness) == 13


def test_differential_against_oracle_random():
    """Each set takes the lowest colors of every class of colors the placed
    vertices hold alike, and no coloring is lost: the brute-force oracle,
    which fixes only the first vertex's set, agrees on random graphs and
    small trees at t = 1 to 4. The classes must come from every placed
    vertex, not only from those within distance t of the next one: at
    t = 1 on about one graph in a hundred of these sizes, classes read
    from the neighbors alone cut every coloring with tau_1 colors."""
    from oracles import connected_graphs_up_to_iso, trees_up_to_iso

    # denser graphs at t = 3 on 5 vertices, or S_3 at t = 4, take the
    # oracle a second or more each
    rng = random.Random(19)
    instances = []
    sizes = ((1, 6, 10, 0.6, 60), (2, 4, 7, 0.6, 30), (3, 3, 5, 0.4, 20))
    for t, n_lo, n_hi, p_hi, count in sizes:
        for _ in range(count):
            n = rng.randrange(n_lo, n_hi + 1)
            instances.append((random_graph(rng, n, rng.uniform(0.2, p_hi)), t))
    instances += [(tree, 3) for n in range(1, 6) for tree in trees_up_to_iso(n)]
    instances += [(g, 4) for n in range(1, 4) for g in connected_graphs_up_to_iso(n)]
    instances.append((build_path(4), 4))
    assert len(instances) == 123
    for g, t in instances:
        out = tau_exact(g, t)
        assert out.status == EXACT
        assert out.value == brute_force_tau(g, t, t * g.n), (sorted(g.edges), t)


def test_brackets_agree_with_the_oracle_under_every_budget():
    """Small node budgets stop the search at every stage; the bracket must
    still hold tau_t, an exact outcome must be right, and a timeout's
    witness is the greedy heuristic's, whatever stopped the search. The
    oracle's cost sets the sizes: at n = 7 and t = 2, or n = 4 and t = 3,
    one brute-force run can take seconds. The starting bound closes every
    random draw below, so two fixed graphs whose start is below tau_t
    keep the timeout path covered: C_5 at t = 1, and a 6-vertex graph at
    t = 2 whose start is 5 and tau_2 is 6."""
    rng = random.Random(18)
    cases = [
        (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), 1),
        (Graph(6, [(0, 4), (0, 5), (1, 2), (1, 4), (2, 3), (3, 4)]), 2),
    ]
    for t, n_max, count in ((1, 7, 30), (2, 6, 40), (3, 3, 30)):
        for _ in range(count):
            n = rng.randrange(1, n_max + 1)
            cases.append((random_graph(rng, n, rng.uniform(0.1, 0.9)), t))
    closed = timeouts = 0
    for g, t in cases:
        n = g.n
        tau = brute_force_tau(g, t, t * n)
        greedy = greedy_heuristic_climb(g, t)
        for nodes in (0, 1, 10, 100):
            out = tau_exact(g, t, SearchBudget(max_nodes=nodes))
            case = (sorted(g.edges), n, t, nodes)
            assert out.best_lower <= tau <= out.best_upper, case
            if out.status == EXACT:
                assert out.value == tau, case
                closed += out.stats.nodes == 0  # the greedy alone closed it
            else:
                assert out.witness == greedy, case
                assert verify(g, out.witness).valid, case
                assert colors_used(out.witness) == out.best_upper, case
                timeouts += 1
    assert closed > 0 and timeouts > 0


def test_search_effort_tripwires():
    """Generous ceilings on the known-hard instances.

    The fresh-color floor keeps large-t tree instances near-greedy, and
    the symmetry rules keep the 17-color refutation far below its
    ceiling; a regression that reintroduces blind backtracking blows
    well past these limits long before it times out.
    """
    from oracles import trees_up_to_iso
    from tonelab.bounds import distance_deficiency

    for tree in trees_up_to_iso(6):
        _, diameter = distance_deficiency(tree)
        t = 5 * (diameter - 1)
        out = tau_exact(tree, t)
        assert out.status == EXACT
        assert out.stats.nodes < 100_000, sorted(tree.edges)
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    res = feasible(g, 5, 17)
    assert res.status == INFEASIBLE
    assert res.stats.nodes < 5_000_000


def test_disconnected_tau_is_component_max():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])  # K_3 + K_2
    out = tau_exact(g, 2)
    assert out.value == 6  # max(tau(K_3)=6, tau(K_2)=4); colors shared across parts
    assert brute_force_tau(g, 2, 10) == 6


def test_candidate_generator_completeness():
    """The search's candidate stream must equal a brute filter of all
    t-subsets under the introduce-in-order rule, in lexicographic order.

    This pins the symmetry breaking: the canonical assignments it admits
    are exactly {new colors consecutive from `used`} and nothing else,
    and with class starts, also each old color a class start or the
    successor of a picked color. `used` is expressed through `starts` as
    the search does: bit `used` starts the class of unused colors, and no
    higher bit is set.
    """
    from itertools import combinations

    from tonelab.solver import _candidate_sets, _Meter

    rng = random.Random(31)
    class_rng = random.Random(33)
    for _ in range(300):
        k = rng.randrange(1, 9)
        t = rng.randrange(1, min(4, k) + 1)
        used = rng.randrange(0, k + 1)
        ncon = rng.randrange(0, 3)
        constraints = []
        for _ in range(ncon):
            size = rng.randrange(1, max(2, used + 1)) if used else 0
            mask = 0
            for c in rng.sample(range(used), min(size, used)):
                mask |= 1 << c
            constraints.append((mask, rng.randrange(0, t + 1)))

        def canonical(subset):
            new = [c for c in subset if c >= used]
            return new == list(range(used, used + len(new)))

        def satisfies(subset):
            mask = 0
            for c in subset:
                mask |= 1 << c
            return all((mask & cm).bit_count() <= lim for cm, lim in constraints)

        def prefixes(subset, starts):
            return all(c >= used or starts >> c & 1 or c - 1 in subset for c in subset)

        for starts in ((2 << used) - 1, 1 | class_rng.getrandbits(used) | 1 << used):
            got = list(_candidate_sets(k, t, list(constraints), _Meter(), 0, starts))
            expect = [
                sum(1 << c for c in subset)
                for subset in combinations(range(k), t)
                if canonical(subset) and satisfies(subset) and prefixes(subset, starts)
            ]
            assert got == expect, (k, t, used, constraints, starts)


def precedes(a: int, b: int) -> bool:
    """a comes before b in the candidate order: the lowest bit of a ^ b is in a."""
    diff = a ^ b
    return bool(diff & -diff & a)


def test_candidate_generator_floor_cuts_only_earlier_masks():
    """A floored stream is the unfloored stream without the masks that
    come before the floor, in the same order, and never costs more nodes."""
    from tonelab.solver import _candidate_sets, _Meter

    def run(k, t, used, constraints, floor):
        meter = _Meter()
        starts = (2 << used) - 1  # each old color its own class, then the unused
        masks = list(_candidate_sets(k, t, list(constraints), meter, floor, starts))
        return masks, meter.nodes

    rng = random.Random(32)
    cut = 0
    for _ in range(600):
        k = rng.randrange(1, 11)
        t = rng.randrange(1, min(5, k) + 1)
        used = rng.randrange(t, k + 1)
        constraints = []
        for _ in range(rng.randrange(0, 5)):
            mask = 0
            for c in rng.sample(range(used), rng.randrange(0, used + 1)):
                mask |= 1 << c
            constraints.append((mask, rng.randrange(0, t + 1)))
        floor = sum(1 << c for c in rng.sample(range(used), t))
        plain, plain_nodes = run(k, t, used, constraints, 0)
        got, nodes = run(k, t, used, constraints, floor)
        assert got == [m for m in plain if not precedes(m, floor)], (k, t, used, constraints, floor)
        assert nodes <= plain_nodes
        cut += len(got) < len(plain)
    assert cut > 100


def test_twin_floor_admits_equal_sets():
    """S_2 has tau_1 = 2 only with both leaves on one color, so a floor
    that excluded the previous twin's own set would report 3."""
    from tonelab.solver import _candidate_sets, _Meter

    s2 = build_star(2)
    out = tau_exact(s2, 1)
    assert out.value == 2 == brute_force_tau(s2, 1, 3)
    assert out.witness.assignment[1] == out.witness.assignment[2]
    assert feasible(s2, 1, 2).status == FEASIBLE
    # the second leaf, beside the center {0} and the first leaf {1}; both
    # colors are in use, so the default starts (one class per color) hold
    assert list(_candidate_sets(2, 1, [(0b01, 0), (0b10, 1)], _Meter(), 0b10)) == [0b10]


def test_tau_exact_matches_brute_force_on_trees_and_twins():
    """The twin floor loses no coloring: the brute-force oracle, which
    breaks no symmetry, agrees on every small tree and on small graphs
    with planted false twins (isolated twins included)."""
    from oracles import trees_up_to_iso

    # every instance needs under 100 nodes; the cap stops a rule that cuts
    # every coloring, which would otherwise climb k without end
    budget = SearchBudget(max_nodes=10_000)
    for n in range(1, 7):
        for tree in trees_up_to_iso(n):
            for t in (1, 2, 3) if n <= 5 else (1, 2):
                assert tau_exact(tree, t, budget).value == brute_force_tau(tree, t, t * n), (
                    sorted(tree.edges), t)
    rng = random.Random(5)
    for trial in range(60):
        base = random_graph(rng, rng.randrange(1, 5), rng.uniform(0.2, 0.8))
        g = plant_twins(rng, base, rng.randrange(1, 3))
        t = 3 if trial % 4 == 3 and g.n <= 4 else rng.randrange(1, 3)
        assert tau_exact(g, t, budget).value == brute_force_tau(g, t, t * g.n), (
            sorted(g.edges), t)


def test_twin_floor_agrees_with_the_search_without_it():
    """The same prepared search with its twin list cleared finds the same
    value on every instance, never in fewer nodes."""
    from tonelab.solver import _decide, _Meter, _prepare

    def solve(graph, t, prep):
        """tau_t and the nodes spent; None if even t*n colors are refuted."""
        meter = _Meter()
        for k in range(prep.lower, t * graph.n + 1):
            if _decide(graph, prep, t, k, meter)[0] == FEASIBLE:
                return k, meter.nodes
        return None, meter.nodes

    rng = random.Random(7)
    fewer = 0
    for trial in range(300):
        if trial % 2:
            g = random_tree(rng, rng.randrange(5, 12))
        else:
            base = random_graph(rng, rng.randrange(2, 8), rng.uniform(0.1, 0.6))
            g = plant_twins(rng, base, rng.randrange(1, 4))
        t = rng.randrange(1, 4)
        prep = _prepare(g, t)
        value, nodes = solve(g, t, prep)
        plain = prep._replace(twin_prev=[-1] * g.n)
        plain_value, plain_nodes = solve(g, t, plain)
        assert value == plain_value and nodes <= plain_nodes, (sorted(g.edges), t)
        fewer += nodes < plain_nodes
    assert fewer >= 30


def _every_partner_a_culprit(prep, pos, k, assign, starts):
    """A dead-end rule with every partner and the previous twin a culprit
    of each position, whatever the sets placed."""
    twin = prep.twin_prev[pos]
    mask = 1 << twin if twin >= 0 else 0
    for j, _ in prep.partners[pos]:
        mask |= 1 << j
    return mask


def _every_earlier_position_a_culprit(prep, pos, k, assign, starts):
    """The dead-end rule of chronological backtracking."""
    return (1 << pos) - 1


def test_backjumping_agrees_with_chronological_backtracking():
    """The same prepared search with every earlier position a culprit backs
    up one position at a time. Under one node cap per solve, it decides
    nothing that backjumping does not decide alike, with the same witness,
    and it never spends fewer nodes. Neither does backjumping with every
    partner a culprit, the far ones that cut nothing too."""
    from tonelab import solver
    from tonelab.solver import _decide, _Meter, _prepare

    def solve(graph, t, prep, rule=solver._culprits):
        """The first verdict other than infeasible, its palette size, its
        witness and the nodes spent, with ``rule`` as the dead-end rule."""
        meter = _Meter(SearchBudget(max_nodes=10_000))
        k = prep.lower
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_culprits", rule)
            while True:
                status, witness = _decide(graph, prep, t, k, meter)
                if status != INFEASIBLE:
                    return status, k, witness, meter.nodes
                k += 1

    rng = random.Random(1993)
    fewer = fewer_than_every = 0
    for trial in range(240):
        if trial % 4 == 0:
            g = random_tree(rng, rng.randrange(5, 40))
            t = rng.randrange(1, 4)
        elif trial % 4 == 1:
            base = random_graph(rng, rng.randrange(2, 10), rng.uniform(0.1, 0.6))
            g = plant_twins(rng, base, rng.randrange(1, 4))
            t = rng.randrange(1, 4)
        else:  # sparse G(n, c/n)
            n = rng.randrange(25, 91)
            g = random_graph(rng, n, rng.uniform(1.0, 3.0) / n)
            t = rng.randrange(2, 4)
        prep = _prepare(g, t)
        *verdict, nodes = solve(g, t, prep)
        *plain, plain_nodes = solve(g, t, prep, _every_earlier_position_a_culprit)
        *coarse, coarse_nodes = solve(g, t, prep, _every_partner_a_culprit)
        assert nodes <= coarse_nodes <= plain_nodes, (sorted(g.edges), t)
        for other in (plain, coarse):
            if other[0] == TIMEOUT:  # backjumping gets at least as far
                assert verdict[1] >= other[1], (sorted(g.edges), t)
            else:
                assert verdict == other, (sorted(g.edges), t)
        fewer += nodes < plain_nodes
        fewer_than_every += nodes < coarse_nodes
    assert fewer >= 12
    assert fewer_than_every >= 20


def test_backjumping_decides_the_sparse_instance_chronological_search_cannot():
    """tau_2 of G(300, 0.01) seed 1 is 7; backtracking one position at a
    time runs past three million nodes at k = 7 without a verdict."""
    g = build_gnp(300, 0.01, 1)
    out = tau_exact(g, 2, SearchBudget(max_nodes=2_000))
    assert (out.status, out.value) == (EXACT, 7)
    assert out.stats.nodes <= 2_000
    assert verify(g, out.witness).valid and colors_used(out.witness) == 7


def test_far_partners_that_cut_nothing_are_not_culprits(monkeypatch):
    """tau_2 of G(300, 0.01) seed 53 is 7. With every partner a culprit,
    the search spends 25,000 nodes at k = 7 without a verdict; counting a
    distance-2 partner only when its set avoids every neighbor's colors
    decides it in under 2,000."""
    from tonelab import solver
    from tonelab.solver import _decide, _Meter, _prepare

    g = build_gnp(300, 0.01, 53)
    out = tau_exact(g, 2, SearchBudget(max_nodes=2_000))
    assert (out.status, out.value) == (EXACT, 7)
    assert verify(g, out.witness).valid and colors_used(out.witness) == 7
    monkeypatch.setattr(solver, "_culprits", _every_partner_a_culprit)
    status, _ = _decide(g, _prepare(g, 2), 2, 7, _Meter(SearchBudget(max_nodes=25_000)))
    assert status == TIMEOUT


def test_a_search_leaves_its_prepared_search_as_it_found_it():
    """The prepared search is read-only: after decision searches that
    refute, time out and succeed, it equals a fresh _prepare, so the
    searches of one tau_exact share it safely."""
    from tonelab.solver import _decide, _Meter, _prepare

    for g, t, ks in [
        (build_gnp(300, 0.01, 1), 2, (6, 7)),
        (build_gnp(300, 0.01, 13), 2, (7,)),
        (cartesian_power(build_complete(2), 4), 3, (11, 12)),
    ]:
        prep = _prepare(g, t)
        for k in ks:
            _decide(g, prep, t, k, _Meter(SearchBudget(max_nodes=3_000)))
        assert prep == _prepare(g, t)


def test_a_completed_greedy_pass_is_the_searchs_first_solution():
    """A greedy pass that completes at cap k picks, at each position, the
    least set valid against the earlier ones, and each pick extends to a
    full coloring, so the pass is the lex-least valid k-coloring: the
    search's first solution at k. So tau_exact returns it at the starting
    bound without searching."""
    from tonelab.solver import _climb, _decide, _greedy, _Meter, _prepare

    rng = random.Random(1979)
    agreed = at_start = 0
    for trial in range(400):
        n = rng.randrange(2, 15)
        t = rng.randrange(1, 5)
        if trial % 2:
            g = random_tree(rng, n)
        else:
            g = random_graph(rng, n, rng.uniform(0.1, 0.7))
        prep = _prepare(g, t)
        start = prep.lower  # tau_exact's
        for k in range(start, _climb(g, prep, t, start).palette_size + 3):
            greedy = _greedy(g, prep, t, k)
            if greedy is None:
                continue
            status, witness = _decide(g, prep, t, k, _Meter(SearchBudget(max_nodes=100_000)))
            assert (status, witness) == (FEASIBLE, greedy), (sorted(g.edges), t, k)
            agreed += 1
            if k == start:
                out = tau_exact(g, t)
                assert (out.status, out.value, out.witness) == (EXACT, k, greedy)
                assert out.stats.nodes == 0
                at_start += 1
    assert agreed >= 1000 and at_start >= 200


def test_prepare_links_each_false_twin_to_the_previous_one():
    from tonelab.solver import _prepare

    # S_3+2: leaves 2, 3 of the center and leaves 4, 5 of vertex 1
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    prep = _prepare(g, 5)
    twins = {prep.order[i]: prep.order[j] for i, j in enumerate(prep.twin_prev) if j >= 0}
    assert twins == {3: 2, 5: 4}
    # two isolated vertices are twins too; the ends of P_4 are not
    prep = _prepare(Graph(6, [(0, 1), (1, 2), (2, 3)]), 2)
    twins = {prep.order[i]: prep.order[j] for i, j in enumerate(prep.twin_prev) if j >= 0}
    assert twins == {5: 4}


def test_candidate_generator_matches_counted_reference():
    """Node for node, the generator agrees with the counter-and-undo
    reference: the same sets in the same order, the same meter count after
    every yield, and the same budget stop, one node past the cap."""
    from oracles import counted_candidate_sets
    from tonelab.solver import _BudgetExhausted, _candidate_sets, _Meter

    def run(generate, cap):
        meter = _Meter(SearchBudget(max_nodes=cap))
        trail = []
        try:
            for mask in generate(meter):
                trail.append((mask, meter.nodes))
        except _BudgetExhausted:
            assert meter.nodes == cap + 1
            trail.append(("exhausted", meter.nodes))
        else:
            trail.append(("done", meter.nodes))
        return trail

    rng = random.Random(8)
    stops = 0
    for _ in range(600):
        k = rng.randrange(1, 12)
        t = rng.randrange(1, min(6, k) + 1)
        used = rng.randrange(0, k + 1)
        constraints = []
        for _ in range(rng.randrange(0, 6)):
            mask = 0
            for c in rng.sample(range(used), rng.randrange(0, used + 1)):
                mask |= 1 << c
            constraints.append((mask, rng.randrange(0, t + 1)))

        def reference(meter):
            return counted_candidate_sets(k, t, used, list(constraints), meter)

        def generator(meter):
            # bit `used` starts the class of unused colors
            return _candidate_sets(k, t, list(constraints), meter, 0, (2 << used) - 1)

        total = run(reference, 10**9)[-1][1]
        cap = rng.randrange(0, 2 * total + 2)
        expect = run(reference, cap)
        got = run(generator, cap)
        assert got == expect, (k, t, used, constraints, cap)
        stops += expect[-1][0] == "exhausted"
    assert 100 < stops < 500


def test_wall_clock_budget_times_out():
    # the cube of S_3 with 7 colors at t = 2 is open at two million nodes,
    # so the deadline check (every 1024 nodes) fires before the search can
    # finish
    g = cartesian_power(build_star(3), 3)
    res = feasible(g, 2, 7, SearchBudget(max_nodes=None, max_millis=0.001))
    assert res.status == TIMEOUT


def test_deep_search_has_no_recursion_limit():
    # 1500 search positions: far deeper than Python's default recursion limit
    g = build_path(1500)
    res = feasible(g, 2, 5, SearchBudget(max_nodes=20_000))
    assert res.status == FEASIBLE
    assert verify(g, res.witness).valid


def test_exact_node_counts_are_pinned():
    """Node counts fix the search tree: any change to the candidate order,
    the pruning or the node definition moves at least one of them."""
    s3_plus_2 = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    res = feasible(s3_plus_2, 5, 17)
    assert res.status == INFEASIBLE
    assert res.stats.nodes == 64
    out = tau_exact(build_star(9), 3)  # nine twin leaves
    assert (out.status, out.value) == (EXACT, 12)
    assert out.stats.nodes == 2_299
    g = build_gnp(60, 0.05, 1)
    res = feasible(g, 2, 7)
    assert res.status == FEASIBLE
    assert res.stats.nodes == 252
    assert verify(g, res.witness).valid
    out = tau_exact(g, 2, SearchBudget(max_nodes=100_000))
    assert (out.status, out.value) == (EXACT, 7)  # k = 6 refuted, 7 found
    assert out.stats.nodes == 11_170
    # the greedy pass at the starting bound 7 colors it, so no search runs;
    # one descent of the search would take about 4 nodes per vertex
    g = build_gnp(1250, 0.0016, 1)
    out = tau_exact(g, 2, SearchBudget(max_nodes=2_000))
    assert (out.status, out.value, out.stats.nodes) == (EXACT, 7, 0)
    assert verify(g, out.witness).valid and colors_used(out.witness) == 7


def test_wall_clock_budget_bounds_elapsed_time():
    # the cube of S_3 (64 vertices) with 7 colors at t = 2: open at two
    # million nodes, far more than the budget allows
    s3_cubed = cartesian_power(build_star(3), 3)
    budget_ms = 300.0
    res = feasible(s3_cubed, 2, 7, SearchBudget(max_nodes=None, max_millis=budget_ms))
    assert res.status == TIMEOUT
    assert res.stats.elapsed_ms < budget_ms + 2_000  # fixed slack for a loaded machine


def test_tau_exact_counts_every_palette_size_on_one_budget():
    s3_plus_2 = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    out = tau_exact(s3_plus_2, 5)
    assert out.status == EXACT and out.value == 18
    assert out.stats.nodes == 64 + 42  # k = 17 refuted; 18 found
    star5 = build_star(5)
    out = tau_exact(star5, 3)
    assert out.status == EXACT and out.value == 10
    assert out.stats.nodes == 64
    # k = 9 is refuted in exactly 33 nodes: the spent cap stops the run
    # before k = 10, so the count does not read one past the cap, and the
    # greedy heuristic closes the bracket at 10 without adding a node
    out = tau_exact(star5, 3, SearchBudget(max_nodes=33))
    assert (out.status, out.value, out.stats.nodes) == (EXACT, 10, 33)
    # P_6 at t = 4 starts at its fresh-color count, 12 = tau_4, where the
    # greedy pass closes it; so does P_3 + P_6, where P_6 is the second
    # component of the order and its count is taken on its own
    p3_p6 = Graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)])
    for g in (build_path(6), p3_p6):
        out = tau_exact(g, 4, SearchBudget(max_nodes=2))
        assert (out.status, out.value, out.stats.nodes) == (EXACT, 12, 0)


def test_tau_exact_prepares_once(monkeypatch):
    from tonelab import solver

    calls = []
    prepare = solver._prepare

    def spy(graph, t):
        calls.append(t)
        return prepare(graph, t)

    monkeypatch.setattr(solver, "_prepare", spy)
    out = tau_exact(build_star(5), 3)
    assert (out.value, out.best_lower) == (10, 10)
    assert _prepare(build_star(5), 3).lower == 9  # two palette sizes
    assert calls == [3]


def test_tau_exact_runs_each_greedy_cap_once(monkeypatch):
    """The greedy pass at the starting bound is not repeated by the climb
    after a timeout, whether the budget stops the search at that bound
    (S_5 at t = 3 on one node) or after refuting it (P_4 cubed at t = 3,
    where k = 10 takes 176 nodes)."""
    from tonelab import solver

    caps = []
    greedy = solver._greedy

    def spy(graph, prep, t, cap):
        caps.append(cap)
        return greedy(graph, prep, t, cap)

    monkeypatch.setattr(solver, "_greedy", spy)
    cases = [
        (build_star(5), 3, 1, (9, 10), [9, 10]),
        (cartesian_power(build_path(4), 3), 3, 200, (11, 14), [10, 11, 12, 13, 14]),
    ]
    for g, t, nodes, bracket, expect in cases:
        caps.clear()
        out = tau_exact(g, t, SearchBudget(max_nodes=nodes))
        assert out.status == TIMEOUT and (out.best_lower, out.best_upper) == bracket
        assert caps[0] == _prepare(g, t).lower
        assert caps == expect  # ascending, so no cap twice


def test_prepare_computes_each_distance_ball_once(monkeypatch):
    from tonelab import solver

    calls = []
    sweep = solver.distance_levels

    def spy(graph, sources, cap):
        calls.append("sweep")

        def seen():
            for src in sources:
                calls.append((src, cap))
                yield src

        return sweep(graph, seen(), cap)

    monkeypatch.setattr(solver, "distance_levels", spy)
    g = build_gnp(60, 0.05, 1)
    for t in (1, 2, 3):
        calls.clear()
        solver._prepare(g, t)
        assert calls[0] == "sweep"  # one sweep for the whole order
        assert sorted(calls[1:]) == [(v, t) for v in range(g.n)]


def test_tau_exact_matches_brute_force_on_disconnected_graphs():
    """Each component fills its own run of search positions, where the
    most-constrained order departs most from a plain degree sort; the
    brute-force oracle, which takes vertices by degree alone, agrees."""
    rng = random.Random(1718)
    budget = SearchBudget(max_nodes=100_000)
    checked = 0
    while checked < 60:
        g = random_graph(rng, rng.randrange(2, 9), rng.uniform(0.1, 0.6))
        if len(connected_components(g)) < 2:
            continue
        t = 2 if checked % 2 else 1
        assert tau_exact(g, t, budget).value == brute_force_tau(g, t, t * g.n), (
            sorted(g.edges), t)
        checked += 1


def test_feasible_on_the_empty_graph():
    res = feasible(Graph(0), 2, 3)
    assert res.status == FEASIBLE
    assert res.witness.assignment == () and res.stats.nodes == 0
    assert verify(Graph(0), res.witness).valid


def test_fresh_color_floor_can_leave_a_negative_palette():
    """K_3 at t = 2 with 2 colors: the two later vertices need 4 fresh
    colors, so position 0 gets k - suffix_fresh[1] = -2 colors and the
    search refutes it on entering its first candidate stream."""
    from tonelab.solver import _prepare

    k3 = build_complete(3)
    assert 2 - _prepare(k3, 2).suffix_fresh[1] == -2
    res = feasible(k3, 2, 2)
    assert (res.status, res.witness, res.stats.nodes) == (INFEASIBLE, None, 1)


def test_tau_exact_wall_clock_budget_spans_palette_sizes():
    # the cube of P_4 at t = 3: k = 10 is refuted in 176 nodes; k = 11
    # takes 323,180 more, far more than 20 ms allows, so the shared
    # deadline falls inside it
    p4_cubed = cartesian_power(build_path(4), 3)
    budget_ms = 20.0
    out = tau_exact(p4_cubed, 3, SearchBudget(max_nodes=None, max_millis=budget_ms))
    assert out.status == TIMEOUT and out.best_lower == 11
    assert out.witness == greedy_heuristic_climb(p4_cubed, 3)
    assert out.stats.nodes >= 176
    assert out.stats.elapsed_ms < budget_ms + 2_000  # fixed slack for a loaded machine
