"""Latin squares: validation, orthogonality, prime families, Kronecker products.

A family is never trusted from its construction algebra: every constructor
runs the full pairwise orthogonality scan before returning. The scan codes
each ordered cell pair of two squares as one integer and counts the codes
with one numpy bincount per pair of squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class LatinSquare:
    """n x n array over {0..n-1}; every row and column is a permutation."""

    n: int
    cells: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "LatinSquare":
        n = len(rows)
        cells = tuple(tuple(int(x) for x in row) for row in rows)
        if any(len(row) != n for row in cells):
            raise ValueError("square must be n x n")
        if any(not (0 <= x < n) for row in cells for x in row):
            raise ValueError("entries must lie in 0..n-1")
        return LatinSquare(n, cells)

    def get(self, i: int, j: int) -> int:
        return self.cells[i][j]


def is_latin(square: LatinSquare) -> bool:
    symbols = set(range(square.n))
    for row in square.cells:
        if set(row) != symbols:
            return False
    for j in range(square.n):
        if {row[j] for row in square.cells} != symbols:
            return False
    return True


def _has_repeat(codes: np.ndarray, space: int) -> bool:
    """Whether the integer ``codes``, each in 0..space-1, repeat a value."""
    if space > codes.size:
        # sparse codes: rank them so the count below stays codes.size long
        codes = np.unique(codes, return_inverse=True)[1]
    return bool(np.bincount(codes).max(initial=0) > 1)


def _ranks(square: LatinSquare) -> tuple[np.ndarray, int]:
    """The entries, flattened row-major, as dense ranks 0..k-1; and k.

    Ranking sorts the Python ints themselves, so it is exact for any
    integer entries, also in squares built without the range check.
    """
    values, ranks = np.unique(
        np.array(square.cells, dtype=object).ravel(), return_inverse=True
    )
    return ranks, len(values)


def are_orthogonal(a: LatinSquare, b: LatinSquare) -> bool:
    """True iff the n^2 ordered entry pairs (a_ij, b_ij) are all distinct."""
    if a.n != b.n:
        raise ValueError("orders differ")
    (ra, ka), (rb, kb) = _ranks(a), _ranks(b)
    return not _has_repeat(ra * kb + rb, ka * kb)


@dataclass(frozen=True)
class MolsFamily:
    """Mutually orthogonal Latin squares of a common order."""

    n: int
    squares: tuple[LatinSquare, ...]
    verified: bool = False

    @staticmethod
    def checked(n: int, squares: Sequence[LatinSquare]) -> "MolsFamily":
        """Build a family, running the full O(m^2 n^2) validation scan."""
        squares = tuple(squares)
        if not squares:
            raise ValueError("family must contain at least one square")
        if any(s.n != n for s in squares):
            raise ValueError("all squares must have the family order")
        if len(squares) > n - 1:
            raise ValueError(f"at most {n - 1} MOLS of order {n} can exist")
        for s in squares:
            if not is_latin(s):
                raise ValueError("family contains a non-Latin square")
        # Latin entries lie in 0..n-1, so a*n + b codes the cell pair (a, b)
        cells = np.array([s.cells for s in squares], dtype=np.intp)
        cells = cells.reshape(len(squares), n * n)
        for i in range(len(squares)):
            scaled = cells[i] * n
            for j in range(i + 1, len(squares)):
                if _has_repeat(scaled + cells[j], n * n):
                    raise ValueError(f"squares {i} and {j} are not orthogonal")
        return MolsFamily(n, squares, verified=True)

    @property
    def size(self) -> int:
        return len(self.squares)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def prime_mols(p: int) -> MolsFamily:
    """The classical complete family of p-1 MOLS of prime order p.

    L_k(i, j) = (k*i + j) mod p for k = 1..p-1. Validated before return.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    squares = [
        LatinSquare(p, tuple(tuple((k * i + j) % p for j in range(p)) for i in range(p)))
        for k in range(1, p)
    ]
    return MolsFamily.checked(p, squares)


def macneish_product(f1: MolsFamily, f2: MolsFamily) -> MolsFamily:
    """Kronecker composition: a family of order n1*n2 and size min(|f1|, |f2|).

    The k-th product square maps the cell ((i1,i2), (j1,j2)), flattened as
    i1*n2+i2 and j1*n2+j2, to A_k(i1,j1)*n2 + B_k(i2,j2). Re-validated.
    """
    if not f1.verified or not f2.verified:
        raise ValueError("both families must be verified")
    m = min(f1.size, f2.size)
    if m == 0:
        raise ValueError("empty family")
    n1, n2 = f1.n, f2.n
    n = n1 * n2
    squares = []
    for k in range(m):
        a, b = f1.squares[k], f2.squares[k]
        cells = []
        for i1 in range(n1):
            for i2 in range(n2):
                row = []
                for j1 in range(n1):
                    for j2 in range(n2):
                        row.append(a.cells[i1][j1] * n2 + b.cells[i2][j2])
                cells.append(tuple(row))
        squares.append(LatinSquare(n, tuple(cells)))
    return MolsFamily.checked(n, squares)


def family_for_order(n: int) -> MolsFamily:
    """MOLS family for a squarefree order, composed from prime families.

    Yields min(p_i - 1) squares over the prime factorization. Orders with
    a repeated prime factor need finite-field tables, which this toolkit
    does not build; load such families from a file instead.
    """
    if n < 2:
        raise ValueError("order must be >= 2")
    factors = []
    rest = n
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            factors.append(d)
            rest //= d
            if rest % d == 0:
                raise ValueError(
                    f"order {n} has a repeated prime factor; "
                    "supply an externally built family file"
                )
        else:
            d += 1
    if rest > 1:
        factors.append(rest)
    family = prime_mols(factors[0])
    for p in factors[1:]:
        family = macneish_product(family, prime_mols(p))
    return family


def beth_lower_bound(n: int) -> int:
    """Known theoretical floor(n^(5/74)) lower bound on the largest family
    size; reported for context only, never used as a constructor."""
    k = 1
    while (k + 1) ** 74 <= n**5:
        k += 1
    return k


def format_family(family: MolsFamily) -> str:
    """Square file format: `n m` header, then m blank-line-separated blocks
    of n rows of n space-separated integers."""
    blocks = []
    for sq in family.squares:
        blocks.append("\n".join(" ".join(str(x) for x in row) for row in sq.cells))
    return f"{family.n} {family.size}\n" + "\n\n".join(blocks) + "\n"


def parse_family(text: str) -> MolsFamily:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty family file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be `n m`")
    n, m = int(head[0]), int(head[1])
    if n < 1:
        # with n = 0 any m matches zero rows, and m empty squares would be built
        raise ValueError("order must be >= 1")
    rows = [ln.strip() for ln in lines[1:] if ln.strip()]
    if len(rows) != n * m:
        raise ValueError(f"expected {n * m} rows, found {len(rows)}")
    squares = []
    for b in range(m):
        block = rows[b * n : (b + 1) * n]
        squares.append(LatinSquare.from_rows([[int(x) for x in r.split()] for r in block]))
    return MolsFamily.checked(n, squares)


def save_family(family: MolsFamily, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_family(family))


def load_family(path) -> MolsFamily:
    with open(path) as fh:
        return parse_family(fh.read())
