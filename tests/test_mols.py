import hashlib
import random
from itertools import combinations

import numpy as np
import pytest

from oracles import orthogonal
from tonelab.coloring import colors_used, format_coloring, verify
from tonelab.constructions import mols_coloring_knn
from tonelab.graphs import build_complete, cartesian_power
from tonelab.mols import (
    MolsFamily,
    beth_lower_bound,
    family_for_order,
    format_family,
    macneish_product,
    parse_family,
    prime_mols,
)


def test_is_latin():
    assert MolsFamily(2, [[[0, 1], [1, 0]]]).size == 1
    with pytest.raises(ValueError, match="non-Latin"):
        MolsFamily(2, [[[0, 1], [0, 1]]])  # Latin rows, repeated columns
    with pytest.raises(ValueError):
        MolsFamily(2, [[[0, 1], [0]]])
    with pytest.raises(ValueError, match="entries must lie in 0..n-1"):
        MolsFamily(2, [[[0, 2], [2, 0]]])


def test_order_two_squares_not_orthogonal():
    a = [[0, 1], [1, 0]]
    b = [[1, 0], [0, 1]]
    assert not orthogonal(a, b) and not orthogonal(a, a)
    # N(2) = 1, so the cap rejects any pair of order 2 before the scan
    for pair in ([a, b], [a, a]):
        with pytest.raises(ValueError, match="at most 1 MOLS of order 2"):
            MolsFamily(2, pair)


def test_self_is_never_orthogonal():
    for p in (3, 5):
        sq = prime_mols(p).cells[0]
        with pytest.raises(ValueError, match="squares 0 and 1 are not orthogonal"):
            MolsFamily(p, [sq, sq])


def test_orthogonality_order_mismatch():
    a = [[0, 1], [1, 0]]
    b = prime_mols(3).cells[0]
    with pytest.raises(ValueError, match="square must be n x n"):
        MolsFamily(3, [a])
    with pytest.raises(ValueError):
        MolsFamily(3, [a, b.tolist()])


def test_prime_mols_3():
    fam = prime_mols(3)
    assert fam.size == 2
    assert fam.cells[0].tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert orthogonal(*fam.cells.tolist())


def test_prime_mols_sizes():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        fam = prime_mols(p)
        assert fam.size == p - 1
        symbols = list(range(p))
        for square in fam.cells.tolist():
            assert all(sorted(row) == symbols for row in square)
            assert all(sorted(col) == symbols for col in zip(*square))


def test_prime_mols_rejects_composites():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            prime_mols(bad)


def test_family_cap_checked():
    fam = prime_mols(3)
    with pytest.raises(ValueError):
        MolsFamily(3, np.concatenate([fam.cells, fam.cells]))  # 4 > n-1


def test_macneish_product():
    fam15 = macneish_product(prime_mols(3), prime_mols(5))
    assert fam15.n == 15
    assert fam15.size == 2  # min(2, 4)
    one = MolsFamily(3, prime_mols(3).cells[:1])
    prod = macneish_product(one, prime_mols(5))
    assert prod.size == 1


def test_macneish_requires_verified():
    # a family is verified on construction, so an unverified one cannot
    # reach macneish_product: the raw constructor rejects it
    cells = prime_mols(3).cells
    with pytest.raises(ValueError, match="squares 0 and 1 are not orthogonal"):
        MolsFamily(3, cells[[0, 0]])
    with pytest.raises(ValueError, match="at most 2 MOLS of order 3"):
        MolsFamily(3, cells[[0, 1, 0]])


def test_family_owns_a_read_only_copy():
    cells = prime_mols(5).cells.copy()
    fam = MolsFamily(5, cells)
    cells[[0, 1]] = cells[[1, 0]]
    assert np.array_equal(fam.cells, prime_mols(5).cells)
    with pytest.raises(ValueError):
        fam.cells[0, 0, 0] = 1


def test_family_for_order():
    assert family_for_order(15).size == 2
    assert family_for_order(7).size == 6
    with pytest.raises(ValueError):
        family_for_order(4)  # repeated prime factor needs field tables
    with pytest.raises(ValueError):
        family_for_order(12)


def test_k15_squared_coloring():
    fam15 = macneish_product(prime_mols(3), prime_mols(5))
    _, col = mols_coloring_knn(fam15, 2)
    assert colors_used(col) == 30
    graph = cartesian_power(build_complete(15), 2)
    assert verify(graph, col).valid


def test_family_file_round_trip():
    fam = prime_mols(5)
    text = format_family(fam)
    again = parse_family(text)
    assert again.n == fam.n and again.size == fam.size
    assert np.array_equal(again.cells, fam.cells)
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
        base = prime_mols(p).cells
        for i, j in combinations(range(p - 1), 2):
            swapped = base[i][[1, 0, *range(2, p)]]
            assert MolsFamily(p, [swapped]).size == 1  # Latin
            assert not orthogonal(base[i].tolist(), swapped.tolist())
            squares = base.copy()
            squares[j] = squares[p - 2] = swapped
            first = next(
                (a, b)
                for a, b in combinations(range(p - 1), 2)
                if not orthogonal(squares[a].tolist(), squares[b].tolist())
            )
            with pytest.raises(ValueError) as err:
                MolsFamily(p, squares)
            assert str(err.value) == f"squares {first[0]} and {first[1]} are not orthogonal"


def test_are_orthogonal_exact_on_raw_entries():
    # a pair of Latin squares is a family exactly when the oracle calls the
    # pair orthogonal; symbol relabelings keep each square's orthogonal
    # mates, an independent row permutation of one square mostly loses them
    rng = random.Random(5)
    seen = set()
    for _ in range(400):
        n = rng.choice((3, 4, 5, 6, 7))
        if n in (4, 6):
            base = [np.add.outer(np.arange(n), np.arange(n)) % n]  # no orthogonal mate
        else:
            base = list(prime_mols(n).cells)

        def square():
            return np.array(rng.sample(range(n), n))[rng.choice(base)]

        a, b = square(), square()
        if rng.random() < 0.5:
            b = b[rng.sample(range(n), n)]
        expected = orthogonal(a.tolist(), b.tolist())
        try:
            MolsFamily(n, [a, b])
            accepted = True
        except ValueError as exc:
            assert str(exc) == "squares 0 and 1 are not orthogonal"
            accepted = False
        assert accepted == expected
        seen.add(expected)
    assert seen == {True, False}
    # entries outside 0..n-1 never reach the kernel: the constructor rejects them
    for bad in (-7, -1, 2**63 - 1, 2**63, 2**70, 1.0):
        with pytest.raises(ValueError, match="entries must lie in 0..n-1"):
            MolsFamily(2, [[[0, 1], [1, bad]]])


def test_prime_101_family_verifies():
    fam = prime_mols(101)
    assert fam.size == 100


FAMILY_SHA256 = {
    "prime 2": "2b1ecf8e2498c9b431cc20df520fb8b5d565b36fa85f3777560f4dcf2e376c27",
    "prime 3": "e8909f5affc2e35ef88bd6a3792dbd479cdc4a370ba405f897104da295b87004",
    "prime 5": "c3d82f4ad108431d8ac5307d672c6a8cf121244007eb210ef2f38f8ba2ccbf7a",
    "prime 7": "06e2225c37a737662e7cc9129095a7bc1d1c3856951bb076f63234cc2b0ed62e",
    "prime 11": "d79e26ccbb56e40d31fe0233e987931b2e4396739677891d7c58554725b6f16e",
    "prime 47": "fbfa63e6b63b485da4083a9f8972f13d8d84cf95693e2683caf41e6d542d45ef",
    "prime 101": "017c2fc058ead121229bf0f977716d694a6beac703ec56b76829edda0cff3e29",
    "order 15": "6582b11e911157bcd569e616419c80bea716d833f95aa13a522ac7aae8f6ffdf",
    "order 21": "55982ad9ea3a7887a6637cdb70e666d14e466c2544b8ef7502adaf4d3a519363",
    "order 35": "0dd8e26f02137ae7bd26dc563438a66bfb79e06b8d283e326a20e3ea6908502e",
    "product 3 7": "55982ad9ea3a7887a6637cdb70e666d14e466c2544b8ef7502adaf4d3a519363",
}

KNN_SHA256 = {
    5: [
        "9d5d0f8fbf07195e5a8669286ed73b302ddb17bf62bb9cb68b5acbcadc0a6c7e",
        "f5e71d873e70a8cb5aabe3aed3e63b5c70c74da4db64afe5a3dbf7860b4a1d42",
        "678f0c0162b792ba10b35b86d3dd30be7770aaa4f98d5b17804942c0118d79de",
        "5f77fbfeed3f39bd52e56e196131988d58a2228c67d11964ffa05f513e1fdfb6",
    ],
    7: [
        "4a46dc0798731af8b29a88597ee2372183bb6b6a85d0308fb21f687c16a9f1c2",
        "b22191e76c664a04276ece3245c67fc3ba81522b9ad727fe35f719a2a39412bc",
        "e796fb7167cf8b42bcfa493777862b5ec67b84117f58402794e08756093c15cc",
        "20c249dde964a34da4954dfa213af8a1039904fd4379e62761569509be0744c0",
        "86797e5e8fb4f9b648e51ece6097ff34fc7e03b86d91ce039102cb5b34e4f3fb",
        "0ea481a9b1a6c03342eb43ea08aeaddee5736bfc36e8361c39cf53860371577d",
    ],
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_family_bytes_are_pinned():
    # recorded from the tuple-by-tuple constructions; a construction that
    # reorders squares, rows or cells changes these files
    built = {f"prime {p}": lambda p=p: prime_mols(p) for p in (2, 3, 5, 7, 11, 47, 101)}
    built.update({f"order {n}": lambda n=n: family_for_order(n) for n in (15, 21, 35)})
    built["product 3 7"] = lambda: macneish_product(prime_mols(3), prime_mols(7))
    assert built.keys() == FAMILY_SHA256.keys()
    for name, build in built.items():
        assert _sha256(format_family(build())) == FAMILY_SHA256[name], name


def test_knn_colorings_are_pinned():
    for n, expected in KNN_SHA256.items():
        family = prime_mols(n)
        assert len(expected) == family.size
        got = [
            _sha256(format_coloring(mols_coloring_knn(family, t)[1]))
            for t in range(1, family.size + 1)
        ]
        assert got == expected, n
