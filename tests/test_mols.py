import random
from itertools import combinations

import pytest

from oracles import orthogonal
from tonelab.coloring import colors_used, verify
from tonelab.constructions import mols_coloring_knn
from tonelab.graphs import build_complete, cartesian_power
from tonelab.mols import (
    LatinSquare,
    MolsFamily,
    are_orthogonal,
    beth_lower_bound,
    family_for_order,
    format_family,
    is_latin,
    macneish_product,
    parse_family,
    prime_mols,
)


def test_is_latin():
    assert is_latin(LatinSquare.from_rows([[0, 1], [1, 0]]))
    assert not is_latin(LatinSquare.from_rows([[0, 1], [0, 1]]))
    with pytest.raises(ValueError):
        LatinSquare.from_rows([[0, 1], [0]])
    with pytest.raises(ValueError):
        LatinSquare.from_rows([[0, 2], [2, 0]])


def test_order_two_squares_not_orthogonal():
    a = LatinSquare.from_rows([[0, 1], [1, 0]])
    b = LatinSquare.from_rows([[1, 0], [0, 1]])
    assert not are_orthogonal(a, b)  # N(2) = 1
    assert not are_orthogonal(a, a)


def test_self_is_never_orthogonal():
    for p in (3, 5):
        sq = prime_mols(p).squares[0]
        assert not are_orthogonal(sq, sq)


def test_orthogonality_order_mismatch():
    a = LatinSquare.from_rows([[0, 1], [1, 0]])
    b = prime_mols(3).squares[0]
    with pytest.raises(ValueError):
        are_orthogonal(a, b)


def test_prime_mols_3():
    fam = prime_mols(3)
    assert fam.size == 2 and fam.verified
    assert fam.squares[0].cells == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert are_orthogonal(fam.squares[0], fam.squares[1])


def test_prime_mols_sizes():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        fam = prime_mols(p)
        assert fam.size == p - 1
        assert all(is_latin(sq) for sq in fam.squares)


def test_prime_mols_rejects_composites():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            prime_mols(bad)


def test_family_cap_checked():
    fam = prime_mols(3)
    with pytest.raises(ValueError):
        MolsFamily.checked(3, list(fam.squares) * 2)  # 4 > n-1


def test_macneish_product():
    fam15 = macneish_product(prime_mols(3), prime_mols(5))
    assert fam15.n == 15
    assert fam15.size == 2  # min(2, 4)
    assert fam15.verified
    one = MolsFamily.checked(3, [prime_mols(3).squares[0]])
    prod = macneish_product(one, prime_mols(5))
    assert prod.size == 1 and prod.verified


def test_macneish_requires_verified():
    bare = MolsFamily(3, prime_mols(3).squares, verified=False)
    with pytest.raises(ValueError):
        macneish_product(bare, prime_mols(5))


def test_family_for_order():
    assert family_for_order(15).size == 2
    assert family_for_order(7).size == 6
    with pytest.raises(ValueError):
        family_for_order(4)  # repeated prime factor needs field tables
    with pytest.raises(ValueError):
        family_for_order(12)


def test_k15_squared_coloring():
    fam15 = macneish_product(prime_mols(3), prime_mols(5))
    col = mols_coloring_knn(fam15, 2)
    assert colors_used(col) == 30
    graph = cartesian_power(build_complete(15), 2)
    assert verify(graph, col).valid


def test_family_file_round_trip():
    fam = prime_mols(5)
    text = format_family(fam)
    again = parse_family(text)
    assert again.n == fam.n and again.size == fam.size
    assert again.squares == fam.squares
    assert format_family(again) == text  # bit-identical


def test_parse_family_errors():
    with pytest.raises(ValueError):
        parse_family("")
    with pytest.raises(ValueError):
        parse_family("3 1\n0 1 2\n1 2 0\n")  # missing a row
    with pytest.raises(ValueError, match="order"):
        parse_family("0 999999999999\n")  # rejected before building any square
    # non-orthogonal pair must be rejected by validation
    sq = "0 1\n1 0"
    with pytest.raises(ValueError):
        parse_family(f"2 2\n{sq}\n\n{sq}\n")


def test_beth_lower_bound():
    assert beth_lower_bound(3) == 1
    assert beth_lower_bound(2**15) == 2  # first order where n^(5/74) passes 2


def test_checked_names_the_first_pair_a_pairwise_scan_finds():
    # squares j and p-2 become square i with two rows swapped: still Latin,
    # and the other rows (fixed points of the swap) repeat the pairs (x, x)
    for p in (5, 7, 11):
        base = prime_mols(p).squares
        for i, j in combinations(range(p - 1), 2):
            rows = list(base[i].cells)
            rows[0], rows[1] = rows[1], rows[0]
            squares = list(base)
            squares[j] = squares[p - 2] = LatinSquare(p, tuple(rows))
            assert is_latin(squares[j]) and not orthogonal(base[i].cells, rows)
            first = next(
                (a, b)
                for a, b in combinations(range(p - 1), 2)
                if not are_orthogonal(squares[a], squares[b])
            )
            assert first == next(
                (a, b)
                for a, b in combinations(range(p - 1), 2)
                if not orthogonal(squares[a].cells, squares[b].cells)
            )
            with pytest.raises(ValueError) as err:
                MolsFamily.checked(p, squares)
            assert str(err.value) == f"squares {first[0]} and {first[1]} are not orthogonal"


def test_are_orthogonal_exact_on_raw_entries():
    # the raw constructor skips the range check; entries near 2**63 collapse
    # in float64 and past it overflow int64, so the test includes both
    rng = random.Random(5)
    pool = [-7, -1, 0, 3, 9, 2**63 - 1, 2**63, 2**63 + 1, -(2**63) - 1, 2**70]
    seen = set()
    for _ in range(400):
        n = rng.randrange(1, 5)
        width = rng.randrange(1, len(pool) + 1)
        entries = rng.sample(pool, width)

        def square():
            return LatinSquare(
                n, tuple(tuple(rng.choice(entries) for _ in range(n)) for _ in range(n))
            )

        a, b = square(), square()
        expected = orthogonal(a.cells, b.cells)
        assert are_orthogonal(a, b) == expected
        seen.add(expected)
    assert seen == {True, False}
    # 2**63 and 2**63 + 1 are one value in float64
    big = 2**63
    two_a = LatinSquare(2, ((big, big), (big + 1, big + 1)))
    two_b = LatinSquare(2, ((big, big + 1), (big, big + 1)))
    assert are_orthogonal(two_a, two_b)
    assert not are_orthogonal(two_a, two_a)


def test_prime_101_family_verifies():
    fam = prime_mols(101)
    assert fam.verified and fam.size == 100
