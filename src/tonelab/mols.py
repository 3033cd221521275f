"""Mutually orthogonal Latin squares: prime families, Kronecker products, files.

A family is one read-only (size, n, n) integer array, validated when it is
constructed, however it was built or loaded: every entry lies in 0..n-1,
there are at most n-1 squares, each is Latin, and every pair of them is
orthogonal. There is no per-square object. With entries in 0..n-1, a*n + b
codes the cell pair (a, b) as one integer in 0..n^2-1, and one numpy
bincount per pair of squares finds a repeated pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


def _all_latin(cells: np.ndarray) -> bool:
    """Whether every row and column of the (m, n, n) entries, each in
    0..n-1, sorts to 0..n-1."""
    symbols = np.arange(cells.shape[-1])
    return bool(
        (np.sort(cells, axis=2) == symbols).all()
        and (np.sort(cells, axis=1) == symbols[:, None]).all()
    )


@dataclass(frozen=True, eq=False)
class MolsFamily:
    """Mutually orthogonal Latin squares of a common order n.

    ``cells`` is a (size, n, n) array; ``cells[k, i, j]`` is the entry of
    square k in row i and column j. Construction copies it, makes the copy
    read-only, and runs the full O(m^2 n^2) validation scan, which raises
    for the first pair i < j of squares that is not orthogonal.
    """

    n: int
    cells: np.ndarray

    def __post_init__(self):
        n = self.n
        if not len(self.cells):
            raise ValueError("family must contain at least one square")
        cells = np.array(self.cells)
        if cells.shape[1:] != (n, n):
            raise ValueError("square must be n x n")
        if cells.dtype.kind not in "iu" or ((cells < 0) | (cells >= n)).any():
            raise ValueError("entries must lie in 0..n-1")
        if len(cells) > n - 1:
            raise ValueError(f"at most {n - 1} MOLS of order {n} can exist")
        cells = cells.astype(np.intp, copy=False)  # a*n + b overflows narrow dtypes
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)
        if not _all_latin(cells):
            raise ValueError("family contains a non-Latin square")
        codes = cells.reshape(len(cells), n * n)
        for i in range(len(codes)):
            scaled = codes[i] * n
            for j in range(i + 1, len(codes)):
                if np.bincount(scaled + codes[j]).max() > 1:
                    raise ValueError(f"squares {i} and {j} are not orthogonal")

    @property
    def size(self) -> int:
        return len(self.cells)


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
    return MolsFamily(p, (k * i + np.arange(p)) % p)


def macneish_product(f1: MolsFamily, f2: MolsFamily) -> MolsFamily:
    """Kronecker composition: a family of order n1*n2 and size min(|f1|, |f2|).

    The k-th product square maps the cell ((i1,i2), (j1,j2)), flattened as
    i1*n2+i2 and j1*n2+j2, to A_k(i1,j1)*n2 + B_k(i2,j2).
    """
    m = min(f1.size, f2.size)
    n1, n2 = f1.n, f2.n
    a = f1.cells[:m, :, None, :, None]  # axes k, i1, j1
    b = f2.cells[:m, None, :, None, :]  # axes k, i2, j2
    return MolsFamily(n1 * n2, (a * n2 + b).reshape(m, n1 * n2, n1 * n2))


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
    blocks = (
        "\n".join(" ".join(map(str, row)) for row in square)
        for square in family.cells.tolist()
    )
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
    rows = [ln.split() for ln in lines[1:] if ln.strip()]
    if len(rows) != n * m:
        raise ValueError(f"expected {n * m} rows, found {len(rows)}")
    if any(len(row) != n for row in rows):
        raise ValueError("square must be n x n")
    cells = np.array([[int(x) for x in row] for row in rows]).reshape(m, n, n)
    return MolsFamily(n, cells)


def save_family(family: MolsFamily, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_family(family))


def load_family(path) -> MolsFamily:
    with open(path) as fh:
        return parse_family(fh.read())
