"""Exact t-tone solver: feasibility search and optimum computation.

The decision search assigns t-subsets of {0..k-1} to vertices in a fixed
order, most constrained first (see _prepare), and prunes any partial
assignment in which some colored pair at distance d <= t already shares
d colors.

Completeness of the symmetry breaking. Masks are ordered as the candidate
generator yields them, lexicographically on sorted color tuples: A < B
exactly when the lowest bit of A ^ B lies in A. Colorings are compared
position by position along the search order under that mask order. Two
kinds of symmetry map valid colorings to valid ones: permuting color
names (validity depends on set intersections, never on which indices
occur), and swapping the sets of false twins u, v (N(u) = N(v); they are
not adjacent and every other vertex is equally far from both, so the swap
is a graph automorphism). Given any valid coloring, take the least
coloring x of its orbit under both (the lex-leader of Crawford, Ginsberg,
Luks and Roy, KR 1996). x is valid, and:

* x introduces colors in order: scanning positions in search order and
  each set's colors ascending, the j-th distinct color to appear is
  index j-1. Otherwise let p be the first position that the relabeling to
  that form changes. Before p, x agrees with its relabeling, which
  introduces colors in order, so the relabeling fixes every color used
  before p; it moves the new colors of x[p] onto the lowest unused
  indices u, u+1, ..., where u colors appear before p. The lowest bit of
  the difference at p is then one of those, so the relabeling comes
  before x: a contradiction. Forcing the first vertex to {0..t-1} is the
  u = 0 case.
* x takes the lowest colors of every class of interchangeable colors.
  Before position p, colors a and b are interchangeable when every
  earlier position holds both or neither. If x[p] held b but not a for
  interchangeable a < b, swapping the names a and b would fix every
  earlier position and replace b by a at p, the lowest bit of the
  difference, so it would come before x: a contradiction. This covers
  the colors no earlier position holds, so the previous property is its
  case for the class of unused colors (Van Hentenryck, Agren, Flener and
  Pearson, "Tractable symmetry breaking for CSPs with interchangeable
  values", IJCAI 2003). Since every set takes a prefix of each class,
  the classes stay runs of consecutive colors, refined by each
  placement, and one bitmask of class starts describes them: the search
  admits color c only when c starts its class or c - 1 is in the set.
  The code enforces this class rule only: the colors no earlier position
  holds form the last class, and its rule is the first property.
* The masks of false twins are non-decreasing along the search order.
  Otherwise swapping twins at positions i < j with x[i] > x[j] changes
  nothing before i and puts the smaller x[j] at i: a contradiction. The
  search compares each twin with the previous one of its class only;
  the order is total, so the chain sorts the whole class.

The search enumerates exactly the assignments with these properties that
pass its prunes, and every prune keeps x: the distance check and the
reachability bound of _candidate_sets drop only sets that no valid
coloring extends, and the fresh-color floor (suffix_fresh) bounds the
colors every coloring of the first form introduces. Each is a property of
x alone, not a comparison with other colorings, so it cannot drop x in
favor of a relative that was itself cut. Hence Infeasible means no
coloring exists at all. All three rules read the same order, positions
first, then colors ascending; breaking color and vertex symmetry by
orders that disagree can cut every solution. Nothing above depends on
which order the positions follow, only that it is fixed before the
search starts, so the argument holds for any static search order.

The least valid coloring with the palette is the x of its own orbit, so
no rule cuts it, and the search, which tries sets in this order, meets
it first: the first solution found is the lex-least valid coloring,
whichever of these rules are in force.

Backjumping (Prosser, "Hybrid algorithms for the constraint satisfaction
problem", Comput. Intell. 9, 1993; the graph-based form is Dechter's,
Artif. Intell. 41, 1990). Call a coloring admissible when it is the x of
its orbit. Each open candidate stream keeps a conflict set, earlier
positions such that no admissible coloring agrees with the current sets
there and takes one of the stream's sets tried so far. When the stream
runs dry, the search adds its culprits, positions such that no
admissible coloring agrees with the current sets there and takes a set
the stream never yields; then no admissible coloring agrees with the
current sets on the result cs at all. An empty cs therefore proves
Infeasible; otherwise the search jumps to the latest position q of cs
and adds cs without q to q's set. Every subtree the jump skips agrees
with the current sets up to q, so it holds no admissible coloring, and
the addition makes the set now at q one of q's sets tried. The culprits
are the position's neighbors (its partners at distance 1), its previous
twin, and each partner at distance d >= 2 whose set keeps more than
d - 1 colors that no neighbor holds. An admissible coloring that agrees
with them there obeys the twin floor and the fresh-color floor and is
valid against them. It is valid against the other partners too: such a
partner keeps at most d - 1 colors that no neighbor holds, and a set
valid against the neighbors shares no other color with it. So it is one
of the stream's sets, as long as the class rule cuts nothing. The class
rule reads every earlier set, so while it can cut (some class holds two
colors below the stream's palette), the culprits are every earlier
position, and the stream backs up one position, as a plain chronological
search does. One function, _culprits, holds this rule and reads it off
the sets placed when the stream runs dry. So the search keeps no culprit
mask per position: per position it reaches it holds a stream, the class
starts and a conflict set, which stays empty until a dead end jumps
there, and its memory is linear in the positions it reaches. Any further
symmetry rule, such as breaking graph automorphisms, must name in
_culprits the positions its cut reads as culprits, or fall back to every
earlier position in the same way. The search still visits the
candidates of each stream in order, and it skips only subtrees without
an admissible coloring, so it meets the same first solution, in at most
as many nodes; the node definition below is unchanged.

The twin floor is not strict: twins at distance 2 may share one color, so
at t = 1 they may carry the same set (tau_1 of S_2 is 2 only because
its two leaves share a color), and twins without neighbors may share any
set.

The search runs on explicit stacks: one lazy candidate stream per search
position, and inside each stream one frame per picked color. Its depth is
therefore bounded by n and t, not by Python's recursion limit.

Search effort is counted in nodes, which are deterministic and drive the
node budget: each entry into a position's candidate search (see
_candidate_sets) is one node, and each placement of a candidate set is one
more.

The starting bound. tau_exact starts at the lower bound that _prepare
returns: the max of the degree bound (t where it does not apply) and the
fresh-color count of each connected component, the summed forced fresh
colors of the component's run of positions (see _prepare). Three facts
make the count sound and at least both the pair sum and t times a greedy
clique:

* A component's count is at most the palette of every valid coloring.
  Take a position that every earlier vertex of its component C
  constrains. Its vertex shares at most d - 1 colors with each such
  vertex at distance d, so at most sum(d - 1) of its colors are held
  earlier in C, and at least t - sum(d - 1) are new to C there. A color
  new at one position is held there, so it is new at no later one: the
  new colors of different positions are distinct. The count is therefore
  at most tau_t(C), and tau_t(G) >= tau_t(C): a coloring of G restricted
  to C colors C, whose distances are those of G. The argument reads the
  coloring alone and uses no symmetry rule.
* A component's count is at least its pair sum, t*n_C minus the summed
  d - 1 over its pairs. Split that sum by the later vertex of each pair:
  position i adds t - sum(d - 1) over the earlier vertices of its
  component. When all of them lie within distance t, the sum is the
  allowance the count reads, so the term is at most the count's term,
  max(0, t - sum(d - 1)). Otherwise an earlier vertex at distance d > t
  subtracts d - 1 >= t alone, so the term is at most 0. So bounds'
  component_pairsum, the max over components, never beats the start.
* The greedy clique is the order's prefix. Grow a clique from a
  max-degree vertex of lowest index, each time adding the common
  neighbor of highest degree, then lowest index; the order starts at the
  same vertex. After j placed vertices that form a clique, an unplaced
  vertex adjacent to all of them scores j*t, and every other one at most
  (j - 1)*t + t - 1 = j*t - 1, so the next vertex is a common neighbor,
  picked by degree, then index, as the clique picks it. Every position
  of the prefix has all earlier vertices at distance 1 and needs t fresh
  colors, so the first component's count, suffix_fresh[0], is at least
  t * |clique|.

tau_exact first runs the greedy heuristic (_greedy) once at the starting
lower bound k, on the same prepared search: at each position it picks
the least set, in the same mask order, that is valid against the earlier
sets, with no symmetry rule. A pass that completes is the lex-least valid
k-coloring: each of its picks extends to a full coloring, its own, and a
valid coloring y that first differs from it at position i holds there a
set valid against the same earlier sets, so no less than the pass's
pick, hence greater, and y comes after the pass. The lex-least valid
coloring is the search's first solution (see above), so tau_exact returns
the pass as exact k without a search node, and its witness is the one
the search would find. Otherwise it runs the decision search for each
palette size from k up on one prepared search, under one node cap and
one deadline. When the budget stops it first, the greedy climbs from the
first palette size not refuted and gives the bracket's upper end.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import accumulate
from typing import Iterator, NamedTuple, Optional

from . import bounds
from .coloring import ToneColoring, checked
from .graphs import Graph, distance_levels

DEFAULT_BUDGET_NODES = 50_000_000

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
TIMEOUT = "timeout"

EXACT = "exact"


@dataclass(frozen=True)
class SearchBudget:
    """Node and/or wall-clock caps; at least one must be set, and each set
    cap must be finite and >= 0 (None means no cap of that kind)."""

    max_nodes: Optional[int] = DEFAULT_BUDGET_NODES
    max_millis: Optional[float] = None

    def __post_init__(self):
        if self.max_nodes is None and self.max_millis is None:
            raise ValueError("at least one budget cap must be set")
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError(f"max_nodes={self.max_nodes} must be >= 0")
        # the negated test also rejects NaN, which compares false to all
        if self.max_millis is not None and not 0 <= self.max_millis < math.inf:
            raise ValueError(f"max_millis={self.max_millis} must be finite and >= 0")


@dataclass
class SearchStats:
    nodes: int = 0
    elapsed_ms: float = 0.0


@dataclass(frozen=True)
class FeasibilityResult:
    status: str  # feasible | infeasible | timeout
    witness: Optional[ToneColoring]
    stats: SearchStats


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # exact | timeout
    value: Optional[int]
    best_lower: int
    best_upper: Optional[int]
    witness: Optional[ToneColoring]
    stats: SearchStats


class _BudgetExhausted(Exception):
    pass


class _Prepared(NamedTuple):
    """What every decision search on one (graph, t) shares; see _prepare."""

    order: list[int]
    partners: list[list[tuple[int, int]]]
    suffix_fresh: list[int]
    lower: int
    twin_prev: list[int]


def _prepare(graph: Graph, t: int) -> _Prepared:
    """Search order, per-position constraint lists, fresh-color floor,
    starting lower bound and previous false twins, in one pass.

    The order is most constrained first: the next vertex is the unplaced
    one with the largest summed t - d + 1 over placed vertices at
    distance 1 <= d <= t, ties broken by higher degree, then lower index:
    the static form of Brelaz's saturation rule (DSATUR, CACM 1979). The
    first vertex is therefore a max-degree vertex of lowest index, and
    each connected component fills a contiguous run of positions, since
    its unplaced vertices next to placed ones score above every vertex of
    an untouched component. Candidates sit in a lazy max-heap of one int
    key each; scores only grow, so a vertex's newest key pops first and
    its stale keys after it is placed.

    The distance-t balls are one distance_levels sweep whose sources are
    the heap's pops, read lazily: each ball is read once, when its vertex
    is placed, and the next pop sees the scores it raised. An earlier
    vertex of the ball of the vertex at position i goes into partners[i],
    the (earlier position, allowed shared count) of every earlier vertex
    within distance t, sorted by position; an unplaced one has its key
    raised.

    A position with no partners starts a new component: every later
    position of a component scores above zero, by the rule above, so some
    placed vertex lies within distance t of it.
    When every earlier vertex of its component constrains position j,
    its old picks are capped by the summed allowances, so it needs at
    least t - sum(d-1) colors new to the component; a component's
    fresh-color count sums these over its positions. lower is the max of
    the degree bound (t where it does not apply) and every component's
    count, a lower bound on tau_t that covers the pair sum (see the
    module docstring). suffix_fresh[i] is a lower bound on the number of
    brand-new colors positions i.. must introduce. It counts the first
    component only, since later ones may reuse its colors, so
    suffix_fresh[0] is that component's count. Placing more colors than
    k - suffix_fresh[i+1] admits is therefore a dead end.
    twin_prev[i] is the latest earlier position whose vertex has the same
    neighborhood (a false twin), or -1.
    """
    n = graph.n
    adjacency = graph.adjacency
    # key[v] = -(score * (max degree + 1) + degree) * n + v: the least key
    # wins, and key % n is the vertex; a vertex at distance d lowers it by
    # gain[d]
    key = [-deg * n + v for v, deg in enumerate(graph.degrees)]
    gain = [(t + 1 - d) * (graph.max_degree + 1) * n for d in range(t + 1)]
    heap = key[:]
    heapify(heap)
    position = [n] * n  # n until placed
    order: list[int] = []

    def pops() -> Iterator[int]:
        for i in range(n):
            v = heappop(heap) % n
            while position[v] < n:
                v = heappop(heap) % n
            position[v] = i
            yield v

    partners: list[list[tuple[int, int]]] = []
    fresh_min = [0] * n
    lower = bounds.degree_bound(graph.max_degree, t) or t
    first = count = 0  # the component's first position and its fresh count
    twin_prev: list[int] = []
    last_with: dict[tuple[int, ...], int] = {}
    for i, (v, levels) in enumerate(distance_levels(graph, pops(), t)):
        order.append(v)
        plist = []
        shared = 0  # summed allowance of the earlier vertices in the ball
        for d in range(1, len(levels)):
            g = gain[d]
            lim = d - 1
            for w in levels[d]:
                j = position[w]
                if j < i:
                    plist.append((j, lim))
                    shared += lim
                else:
                    k = key[w] - g
                    key[w] = k
                    heappush(heap, k)
        plist.sort()
        partners.append(plist)
        if not plist:  # a new component
            first, count = i, 0
        # fresh colors are forced only when every earlier vertex of v's
        # component constrains v; the search's floor counts them in the
        # first component only, since later ones may reuse its colors
        if shared < t and len(plist) == i - first:
            count += t - shared
            lower = max(lower, count)
            if not first:
                fresh_min[i] = t - shared
        twin_prev.append(last_with.get(adjacency[v], -1))
        last_with[adjacency[v]] = i
    suffix_fresh = list(accumulate(reversed(fresh_min), initial=0))[::-1]
    return _Prepared(order, partners, suffix_fresh, lower, twin_prev)


class _Meter:
    """Node counter and budget of one solve, shared by all its searches and
    their candidate streams; the cap and deadline are set when it is made.

    Hot loops keep the count in a local variable, store it back in
    ``nodes`` before handing control elsewhere, and call ``overrun`` only
    once the count passes ``limit``: the node cap, or the next wall-clock
    check, due at the first node and every 1024 nodes after it.
    """

    __slots__ = ("nodes", "limit", "cap", "deadline", "start")

    def __init__(self, budget: SearchBudget = SearchBudget(max_nodes=sys.maxsize)):
        self.nodes = 0
        self.start = time.monotonic()
        self.cap = sys.maxsize if budget.max_nodes is None else budget.max_nodes
        ms = budget.max_millis
        self.deadline = None if ms is None else self.start + ms / 1000.0
        self.limit = self.cap if self.deadline is None else 0

    def spent(self) -> bool:
        """True once every node of the cap is used or the deadline has passed."""
        if self.nodes >= self.cap:
            return True
        return self.deadline is not None and time.monotonic() >= self.deadline

    def stats(self) -> SearchStats:
        return SearchStats(self.nodes, (time.monotonic() - self.start) * 1000.0)

    def overrun(self, nodes: int) -> int:
        """Record ``nodes``; raise if a cap is spent, else return the next limit."""
        self.nodes = nodes
        if nodes > self.cap:
            self.nodes = self.cap + 1  # where a node-by-node check stops
            raise _BudgetExhausted
        if time.monotonic() > self.deadline:
            raise _BudgetExhausted
        self.limit = min(self.cap, nodes + 1024)
        return self.limit


def _candidate_sets(
    k: int,
    t: int,
    constraints: list[tuple[int, int]],
    meter: _Meter,
    floor: int = 0,
    starts: int = -1,
):
    """Yield valid t-subsets of {0..k-1} as bitmasks, lexicographically.

    Each yielded mask satisfies popcount(mask & cmask) <= limit for every
    (cmask, limit) constraint, where limits are non-negative, constraint
    masks lie in {0..k-1} and t >= 1. A k below t yields nothing.

    Reachability pruning: every pick of a constrained color consumes at
    least one unit of the summed remaining constraint allowance, so the
    picks still obtainable from color c on are at most (unconstrained
    colors in [c, k)) + min(summed allowance, constrained colors in
    [c, k)). That over-estimate never drops a valid candidate but refutes
    a vertex whose remaining palette cannot reach t in one step. Split at
    the min, the test becomes two upper ends on the next color c:
    c <= k - slots (enough colors left at all), and at least
    slots - allowance unconstrained colors in [c, k).

    A constraint is spent once the mask holds ``limit`` of its colors, and
    the colors of a spent constraint are blocked. Each pick depth keeps a
    frame with the mask, the blocked colors and the summed allowance on
    entry. Picking color c derives the child's from its frame: it blocks
    each open constraint containing c that the new mask has spent, and
    takes one unit of allowance per open constraint containing c.
    Backtracking therefore undoes nothing.

    ``starts`` marks the first color of each class of interchangeable
    colors (see the module docstring); classes are runs of consecutive
    colors, and a color c is picked only when bit c of ``starts`` is set
    or c - 1 is already in the mask, so the mask takes a prefix of each
    class. The search's highest start is the first color no placed vertex
    holds, so this one rule also introduces new colors in order. The
    default, every bit set, puts each color in a class of its own and
    admits every color.

    A nonzero ``floor``, a t-subset of {0..k-1}, drops every mask that
    comes before it in this order. While the picks so far are the floor's
    lowest colors (the frame is tight), the next color starts at the
    floor's next color; a pick above it leaves every completion after the
    floor.

    The picks form a depth-first search, run on an explicit stack. One
    node is one entry into it: the empty pick and each pick of a color.
    ``meter`` counts nodes and enforces the budget.
    """
    # per color: the open constraints (limit > 0) that one pick of it
    # draws on; colors in a spent constraint are blocked
    draws: list[tuple[tuple[int, int], ...]] = [()] * k
    constrained = blocked = allowance = 0
    for cmask, limit in constraints:
        constrained |= cmask
        allowance += limit
        if limit <= 0:
            blocked |= cmask
            continue
        entry = ((cmask, limit),)
        bits = cmask
        while bits:
            low = bits & -bits
            draws[low.bit_length() - 1] += entry
            bits ^= low
    free = ((1 << max(k, 0)) - 1) & ~constrained  # _search may pass k < 0
    nodes = meter.nodes
    stop = meter.limit
    # one frame per pick depth: colors left to try, the mask, blocked
    # colors and summed allowance on entry, and the floor's next color if
    # the frame is tight (else 0); a pick derives its child's from these,
    # so backtracking restores nothing
    cand_at = [0] * t
    mask_at = [0] * t
    blocked_at = [0] * t
    allow_at = [0] * t
    edge_at = [0] * t
    depth = lo = mask = edge = 0
    tight = floor != 0
    while True:
        # enter a node: depth colors picked in mask, colors >= lo left
        nodes += 1
        if nodes > stop:
            stop = meter.overrun(nodes)
        if tight:  # mask is the floor's lowest colors: start at its next
            edge = floor & ~mask
            edge &= -edge
            lo = edge.bit_length() - 1
        slots = t - depth
        end = k - slots + 1
        short = slots - allowance  # unconstrained colors still needed
        if short > 0:
            # colors end after the short-th highest unconstrained one
            top_free = free
            while short > 1 and top_free:
                top_free ^= 1 << (top_free.bit_length() - 1)
                short -= 1
            if top_free.bit_length() < end:
                end = top_free.bit_length()
        if lo < end:
            cand = ((1 << end) - 1) >> lo << lo & ~blocked & (starts | mask << 1)
            if slots == 1:  # every candidate completes the set
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
            allow_at[depth] = allowance
            edge_at[depth] = edge
        else:
            depth -= 1
        # backtrack to the next untried pick, or finish frames on the way up
        while depth >= 0:
            cand = cand_at[depth]
            if cand:
                low = cand & -cand
                cand_at[depth] = cand ^ low
                c = low.bit_length() - 1
                mask = mask_at[depth] | low
                blocked = blocked_at[depth]
                for cmask, limit in draws[c]:
                    if (mask & cmask).bit_count() >= limit:  # now spent
                        blocked |= cmask
                allowance = allow_at[depth] - len(draws[c])
                tight = low == edge_at[depth]
                edge = 0  # a tight child sets its own on entry
                lo = c + 1
                depth += 1
                break
            depth -= 1
        else:
            meter.nodes = nodes
            return


def _culprits(prep: _Prepared, pos: int, k: int, assign: list[int], starts: int) -> int:
    """The culprits of a dead end at ``pos`` under class starts ``starts``,
    a bitmask of earlier positions read off the placed sets (see the
    module docstring)."""
    k_eff = k - prep.suffix_fresh[pos + 1]
    if k_eff > 0 and ~starts & ((1 << k_eff) - 1):
        # the class rule reads every earlier set, unless each color is a
        # class of its own and it cuts nothing
        return (1 << pos) - 1
    twin = prep.twin_prev[pos]
    cs = 1 << twin if twin >= 0 else 0
    adjacent = 0
    plist = prep.partners[pos]
    for j, limit in plist:
        if not limit:
            cs |= 1 << j
            adjacent |= assign[j]
    # a partner within distance 2..t is a culprit only if the colors no
    # neighbor holds leave it more than its limit to share
    for j, limit in plist:
        if limit and (assign[j] & ~adjacent).bit_count() > limit:
            cs |= 1 << j
    return cs


def _search(
    prep: _Prepared,
    t: int,
    k: int,
    assign: list[int],
    meter: _Meter,
) -> str:
    """Search for a full assignment, position by position from position 0.

    Depth-first over search positions with an explicit stack of lazy
    candidate streams, one per position, so the search depth is bounded
    by n and not by Python's recursion limit. Each placement is one node,
    counted on ``meter`` on top of what it already holds. Returns the
    status; on FEASIBLE, ``assign`` holds the assignment.

    A stream that runs dry jumps back to the latest position of its
    conflict set (Prosser's conflict-directed backjumping): the positions
    that the dead ends below it jumped back to it for, and its culprits
    (see _culprits and the module docstring).
    """
    _, partners, suffix_fresh, _, twin_prev = prep
    n = len(partners)
    streams = [None] * n
    conflicts = [0] * n  # earlier positions that dead ends traced here
    # class starts of the colors after each position: bit c is set when
    # some placed set holds exactly one of c - 1 and c (bit 0 always)
    starts_at = [1] * (n + 1)
    pos = 0
    stream = None
    try:
        while pos < n:
            if stream is None:
                constraints = [(assign[j], limit) for j, limit in partners[pos]]
                # colors introduced through this position must leave room for
                # the fresh colors the remaining positions are guaranteed to
                # need; k_eff never falls along the order, so every earlier
                # set lies below it
                k_eff = k - suffix_fresh[pos + 1]
                # a false twin's mask comes no earlier than the previous one's
                twin = twin_prev[pos]
                floor = assign[twin] if twin >= 0 else 0
                stream = _candidate_sets(k_eff, t, constraints, meter, floor, starts_at[pos])
                streams[pos] = stream
                conflicts[pos] = 0
            mask = next(stream, 0)
            if not mask:
                cs = conflicts[pos] | _culprits(prep, pos, k, assign, starts_at[pos])
                if not cs:
                    return INFEASIBLE
                pos = cs.bit_length() - 1
                conflicts[pos] |= cs ^ (1 << pos)
                stream = streams[pos]
                continue
            nodes = meter.nodes + 1
            meter.nodes = nodes
            if nodes > meter.limit:
                meter.overrun(nodes)
            assign[pos] = mask
            starts_at[pos + 1] = starts_at[pos] | (mask ^ (mask << 1))
            pos += 1
            stream = None
    except _BudgetExhausted:
        return TIMEOUT
    return FEASIBLE


def _witness_from(order, assign, t: int, k: int) -> ToneColoring:
    rows: list[list[int]] = [[] for _ in order]
    for i, v in enumerate(order):
        mask = assign[i]
        rows[v] = [c for c in range(k) if (mask >> c) & 1]
    return ToneColoring(t, k, rows)


def _decide(
    graph: Graph, prep: _Prepared, t: int, k: int, meter: _Meter
) -> tuple[str, Optional[ToneColoring]]:
    """One decision search on ``meter``; FEASIBLE comes with a verified witness."""
    assign = [0] * graph.n
    status = _search(prep, t, k, assign, meter)
    if status != FEASIBLE:
        return status, None
    return status, checked(graph, _witness_from(prep.order, assign, t, k))


def feasible(
    graph: Graph,
    t: int,
    k: int,
    budget: Optional[SearchBudget] = None,
) -> FeasibilityResult:
    """Decide whether graph admits a t-tone coloring with k colors.

    Feasible results carry a verified witness (the empty coloring on the
    empty graph); Infeasible is exhaustive under the completeness-preserving
    symmetry breaking described in the module docstring. Timeout never
    fabricates either verdict. One search runs in this process, so its node
    count is deterministic, and it stops at most one node past the node cap.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if k < t:
        raise ValueError(f"k={k} < t={t}: each vertex needs t distinct colors")
    meter = _Meter(budget or SearchBudget())
    status, witness = _decide(graph, _prepare(graph, t), t, k, meter)
    return FeasibilityResult(status, witness, meter.stats())


def greedy_heuristic_climb(graph: Graph, t: int) -> ToneColoring:
    """The greedy heuristic at the smallest palette cap it succeeds with.

    Caps are tried upward from the prepared lower bound, tau_exact's
    start; no smaller cap can succeed, since its coloring would beat a
    lower bound. The search order and the constraint lists are prepared
    once and shared by every cap tried.
    """
    prep = _prepare(graph, t)
    return _climb(graph, prep, t, prep.lower)


def _climb(graph: Graph, prep: _Prepared, t: int, cap: int) -> ToneColoring:
    """_greedy at cap, cap + 1, ... until it succeeds, by t*n at the latest.

    Caps below tau_t fail, so every start up to tau_t gives one coloring.
    It uses all cap colors: a lex-first set never skips a color no earlier
    vertex holds, so it uses 0..u-1 for some u, and cap u picks the same."""
    while True:
        coloring = _greedy(graph, prep, t, cap)
        if coloring is not None:
            return coloring
        cap += 1


def _greedy(graph: Graph, prep: _Prepared, t: int, cap: int) -> Optional[ToneColoring]:
    """The lex-first valid set at each search position, or None at the
    first position that has none; verified when it succeeds."""
    assign = [0] * graph.n
    meter = _Meter()  # no budget: the greedy pass only counts its nodes
    for i, plist in enumerate(prep.partners):
        constraints = [(assign[j], limit) for j, limit in plist]
        # the default starts (one class per color) disable the color
        # symmetry rule: plain lex search.
        mask = next(_candidate_sets(cap, t, constraints, meter), None)
        if mask is None:
            return None
        assign[i] = mask
    return checked(graph, _witness_from(prep.order, assign, t, cap))


def tau_exact(
    graph: Graph,
    t: int,
    budget: Optional[SearchBudget] = None,
) -> SolveOutcome:
    """Compute the t-tone chromatic number by incrementing k from the best
    lower bound until the decision search finds a coloring.

    The search is prepared once, and its pass also gives the lower bound:
    the max of the degree bound and each component's fresh-color count,
    which covers the pair sum and t times the greedy clique (see the
    module docstring), with no components sweep and no pair sum computed.
    A greedy pass at the lower bound comes first: when it colors the
    graph, its coloring is the search's first solution there (see the
    module docstring), so the outcome is exact with no search node.
    Otherwise one budget covers every palette size; a palette size starts
    only while some of it is left. Exact outcomes carry the witness; the
    infeasibility of value-1 is either search-proved (when the loop
    visited it) or implied by the starting lower bound. When the budget
    stops the loop first, the greedy climbs from the first k not refuted
    on the same prepared search (see _climb), its nodes uncounted: exact
    if it uses k colors, else [k, its colors]. The climb skips the
    starting bound, where the first pass has failed.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if graph.n == 0:
        raise ValueError("empty graph")
    meter = _Meter(budget or SearchBudget())
    prep = _prepare(graph, t)
    k = start = prep.lower
    witness = _greedy(graph, prep, t, k)
    if witness is not None:  # the search's first solution at k, found unsearched
        return SolveOutcome(EXACT, k, k, k, witness, meter.stats())
    while not meter.spent():
        status, witness = _decide(graph, prep, t, k, meter)
        if status == FEASIBLE:
            return SolveOutcome(EXACT, k, k, k, witness, meter.stats())
        if status == TIMEOUT:
            break
        k += 1
    witness = _climb(graph, prep, t, max(k, start + 1))
    upper = witness.palette_size
    if upper == k:
        return SolveOutcome(EXACT, k, k, k, witness, meter.stats())
    return SolveOutcome(TIMEOUT, None, k, upper, witness, meter.stats())
