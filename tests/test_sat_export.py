import random
from itertools import product

import pytest

from oracles import brute_force_tau, random_graph
from tonelab.graphs import build_path
from tonelab.sat_export import encode_decision_cnf
from tonelab.solver import FEASIBLE, feasible


def read_dimacs(text):
    nvars = None
    clauses = []
    for line in text.splitlines():
        if line.startswith("c") or not line.strip():
            continue
        if line.startswith("p cnf"):
            _, _, nv, nc = line.split()
            nvars, expect = int(nv), int(nc)
            continue
        lits = [int(x) for x in line.split()]
        assert lits[-1] == 0
        clauses.append(lits[:-1])
    assert expect == len(clauses)
    return nvars, clauses


def satisfiable(nvars, clauses):
    for bits in product([False, True], repeat=nvars):
        if all(
            any(bits[l - 1] if l > 0 else not bits[-l - 1] for l in clause)
            for clause in clauses
        ):
            return True
    return False


def test_encoding_rejects_bad_parameters():
    with pytest.raises(ValueError):
        encode_decision_cnf(build_path(2), 2, 1)
    with pytest.raises(ValueError):
        encode_decision_cnf(build_path(2), 0, 1)


def test_encoding_agrees_with_search_on_random_instances():
    # truth-table equivalence: SAT iff the search says feasible, and iff
    # the independent brute-force oracle finds a coloring
    rng = random.Random(41)
    trials = 0
    while trials < 8:
        n = rng.randrange(2, 5)
        t = rng.randrange(1, 3)
        k = rng.randrange(t, t + 3)
        if n * k > 14:  # keep the truth table enumerable
            continue
        g = random_graph(rng, n, rng.uniform(0.2, 0.9))
        nvars, clauses = read_dimacs(encode_decision_cnf(g, t, k))
        assert nvars == n * k
        sat = satisfiable(nvars, clauses)
        search = feasible(g, t, k).status == FEASIBLE
        assert sat == search, (sorted(g.edges), t, k)
        assert sat == (brute_force_tau(g, t, k) is not None), (sorted(g.edges), t, k)
        trials += 1
