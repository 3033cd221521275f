"""Tone coloring data model and the validity verifier.

A t-tone coloring assigns every vertex a set of t distinct colors; a pair
of vertices at distance d may share at most d-1 colors. The constraint is
vacuous beyond distance t (sets have size t), so the verifier only walks
the distance-t ball of each vertex; its memory grows with one ball, not
with n^2. Disconnected pairs are unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .graphs import Graph, distance_levels


@dataclass(eq=False)
class ToneColoring:
    """Per-vertex sorted color sets; colors are indices 0..palette_size-1."""

    t: int
    palette_size: int
    assignment: tuple[tuple[int, ...], ...]

    def __init__(self, t: int, palette_size: int, assignment: Sequence[Sequence[int]]):
        if t < 1:
            raise ValueError("tone parameter t must be >= 1")
        if palette_size < t:
            raise ValueError("palette smaller than t")
        rows = []
        for v, colors in enumerate(assignment):
            row = tuple(sorted(colors))
            if len(row) != t or len(set(row)) != t:
                raise ValueError(f"vertex {v} needs exactly {t} distinct colors")
            if row[0] < 0 or row[-1] >= palette_size:
                raise ValueError(f"vertex {v} has a color outside the palette")
            rows.append(row)
        self.t = t
        self.palette_size = palette_size
        self.assignment = tuple(rows)

    @property
    def n(self) -> int:
        return len(self.assignment)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Color sets as bitmasks; intersections via popcount.

        Python ints are arbitrary width, so the bitmask route works for
        any palette size, not just <= 128.
        """
        out = []
        for row in self.assignment:
            m = 0
            for c in row:
                m |= 1 << c
            out.append(m)
        return tuple(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ToneColoring)
            and self.t == other.t
            and self.palette_size == other.palette_size
            and self.assignment == other.assignment
        )


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    violations: tuple[tuple[int, int, int, int], ...]  # (u, v, distance, shared)
    colors_used: int


def colors_used(coloring: ToneColoring) -> int:
    """Number of distinct color indices appearing in the assignment."""
    seen: set[int] = set()
    for row in coloring.assignment:
        seen.update(row)
    return len(seen)


def verify(graph: Graph, coloring: ToneColoring) -> VerificationReport:
    """Check every pair within distance t; report all violations sorted by (u, v).

    One distance_levels sweep with cap t visits each vertex's distance-t
    ball level by level, so the distance of a pair is its level index.
    """
    if coloring.n != graph.n:
        raise ValueError(
            f"coloring covers {coloring.n} vertices, graph has {graph.n}"
        )
    masks = coloring.masks
    violations = []
    for u, levels in distance_levels(graph, range(graph.n), coloring.t):
        mu = masks[u]
        row = []
        for d in range(1, len(levels)):
            for v in levels[d]:
                if v > u:
                    shared = (mu & masks[v]).bit_count()
                    if shared >= d:
                        row.append((u, v, d, shared))
        violations.extend(sorted(row))  # levels are in discovery order
    return VerificationReport(
        valid=not violations,
        violations=tuple(violations),
        colors_used=colors_used(coloring),
    )


def checked(graph: Graph, coloring: ToneColoring) -> ToneColoring:
    """The coloring, once verify passes it; AssertionError on its first violation."""
    report = verify(graph, coloring)
    if not report.valid:
        first = report.violations[0]
        raise AssertionError(f"invalid coloring produced; first violation {first}")
    return coloring


def format_coloring(coloring: ToneColoring) -> str:
    """Coloring text format: `t palette_size` then `v: c1 c2 ... ct` rows."""
    lines = [f"{coloring.t} {coloring.palette_size}"]
    for v, row in enumerate(coloring.assignment):
        lines.append(f"{v}: " + " ".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def parse_coloring(text: str) -> ToneColoring:
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty coloring file")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError("header must be `t palette_size`")
    t, palette = int(head[0]), int(head[1])
    assignment = []
    for expect, line in enumerate(rows[1:]):
        if ":" not in line:
            raise ValueError(f"missing `v:` prefix in line {line!r}")
        left, right = line.split(":", 1)
        if int(left.strip()) != expect:
            raise ValueError(f"vertex lines must be ascending, got {line!r}")
        colors = [int(tok) for tok in right.split()]
        if colors != sorted(colors):
            raise ValueError(f"colors must be ascending in line {line!r}")
        assignment.append(colors)
    return ToneColoring(t, palette, assignment)


def save_coloring(coloring: ToneColoring, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_coloring(coloring))


def load_coloring(path) -> ToneColoring:
    with open(path) as fh:
        return parse_coloring(fh.read())
