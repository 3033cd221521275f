"""Latin squares: validation, orthogonality, prime families, Kronecker products.

Every square and every family is validated when it is constructed, however
it was built or loaded. A LatinSquare is n x n with int entries in 0..n-1;
a MolsFamily holds at most n-1 Latin squares of one order n, every pair of
them orthogonal. With entries in 0..n-1, a*n + b codes the cell pair (a, b)
as one integer in 0..n^2-1, and one numpy bincount per pair of squares
finds a repeated pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class LatinSquare:
    """n x n array over {0..n-1}; is_latin says whether every row and
    column is a permutation."""

    n: int
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.n
        if len(self.cells) != n or any(len(row) != n for row in self.cells):
            raise ValueError("square must be n x n")
        entries = tuple(chain.from_iterable(self.cells))
        if entries and not (
            set(map(type, entries)) == {int} and min(entries) >= 0 and max(entries) < n
        ):
            raise ValueError("entries must lie in 0..n-1")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "LatinSquare":
        return LatinSquare(len(rows), tuple(tuple(int(x) for x in row) for row in rows))

    def get(self, i: int, j: int) -> int:
        return self.cells[i][j]


def _cells(squares: Sequence[LatinSquare]) -> np.ndarray:
    """The entries of squares of one order n as one (len(squares), n, n) array."""
    n = squares[0].n
    return np.array([s.cells for s in squares], dtype=np.intp).reshape(len(squares), n, n)


def _squares(cells: np.ndarray) -> tuple[LatinSquare, ...]:
    """The (m, n, n) array of entries as m squares of order n."""
    n = cells.shape[-1]
    return tuple(LatinSquare(n, tuple(map(tuple, rows))) for rows in cells.tolist())


def _all_latin(cells: np.ndarray) -> bool:
    """Whether every row and column of the (m, n, n) entries, each in
    0..n-1, sorts to 0..n-1."""
    symbols = np.arange(cells.shape[-1])
    return bool(
        (np.sort(cells, axis=2) == symbols).all()
        and (np.sort(cells, axis=1) == symbols[:, None]).all()
    )


def is_latin(square: LatinSquare) -> bool:
    return _all_latin(_cells([square]))


def _has_repeat(codes: np.ndarray) -> bool:
    """Whether the non-negative integer ``codes`` repeat a value."""
    return bool(np.bincount(codes).max(initial=0) > 1)


def are_orthogonal(a: LatinSquare, b: LatinSquare) -> bool:
    """True iff the n^2 ordered entry pairs (a_ij, b_ij) are all distinct."""
    if a.n != b.n:
        raise ValueError("orders differ")
    codes = _cells([a, b]).reshape(2, -1)
    return not _has_repeat(codes[0] * a.n + codes[1])


@dataclass(frozen=True)
class MolsFamily:
    """Mutually orthogonal Latin squares of a common order.

    Construction runs the full O(m^2 n^2) validation scan and raises for
    the first pair i < j of squares that is not orthogonal.
    """

    n: int
    squares: tuple[LatinSquare, ...]

    def __post_init__(self):
        n, squares = self.n, tuple(self.squares)
        object.__setattr__(self, "squares", squares)
        if not squares:
            raise ValueError("family must contain at least one square")
        if any(s.n != n for s in squares):
            raise ValueError("all squares must have the family order")
        if len(squares) > n - 1:
            raise ValueError(f"at most {n - 1} MOLS of order {n} can exist")
        cells = _cells(squares)
        if not _all_latin(cells):
            raise ValueError("family contains a non-Latin square")
        codes = cells.reshape(len(squares), n * n)
        for i in range(len(squares)):
            scaled = codes[i] * n
            for j in range(i + 1, len(squares)):
                if _has_repeat(scaled + codes[j]):
                    raise ValueError(f"squares {i} and {j} are not orthogonal")

    @property
    def size(self) -> int:
        return len(self.squares)


def _prime_factors(n: int) -> Iterator[int]:
    """The prime factors of n in ascending order, with multiplicity; none
    for n < 2. Each is yielded as soon as trial division finds it."""
    d = 2
    while d * d <= n:
        if n % d:
            d += 1
        else:
            yield d
            n //= d
    if n > 1:
        yield n


def prime_mols(p: int) -> MolsFamily:
    """The classical complete family of p-1 MOLS of prime order p.

    L_k(i, j) = (k*i + j) mod p for k = 1..p-1.
    """
    if next(_prime_factors(p), None) != p:
        raise ValueError(f"{p} is not prime")
    k = np.arange(1, p)[:, None, None]
    i = np.arange(p)[:, None]
    return MolsFamily(p, _squares((k * i + np.arange(p)) % p))


def macneish_product(f1: MolsFamily, f2: MolsFamily) -> MolsFamily:
    """Kronecker composition: a family of order n1*n2 and size min(|f1|, |f2|).

    The k-th product square maps the cell ((i1,i2), (j1,j2)), flattened as
    i1*n2+i2 and j1*n2+j2, to A_k(i1,j1)*n2 + B_k(i2,j2).
    """
    m = min(f1.size, f2.size)
    n1, n2 = f1.n, f2.n
    a = _cells(f1.squares[:m])[:, :, None, :, None]  # axes k, i1, j1
    b = _cells(f2.squares[:m])[:, None, :, None, :]  # axes k, i2, j2
    return MolsFamily(n1 * n2, _squares((a * n2 + b).reshape(m, n1 * n2, n1 * n2)))


def family_for_order(n: int) -> MolsFamily:
    """MOLS family for a squarefree order, composed from prime families.

    Yields min(p_i - 1) squares over the prime factorization. Orders with
    a repeated prime factor need finite-field tables, which this toolkit
    does not build; load such families from a file instead.
    """
    if n < 2:
        raise ValueError("order must be >= 2")
    factors: list[int] = []
    for p in _prime_factors(n):
        if factors and factors[-1] == p:
            raise ValueError(
                f"order {n} has a repeated prime factor; "
                "supply an externally built family file"
            )
        factors.append(p)
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
    return MolsFamily(n, squares)


def save_family(family: MolsFamily, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_family(family))


def load_family(path) -> MolsFamily:
    with open(path) as fh:
        return parse_family(fh.read())
