import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import product

import pytest
from oracles import bfs_components, is_path, is_tree, random_graph, random_tree

from tonelab import bounds, cli, coloring, constructions, solver
from tonelab.coloring import load_coloring, save_coloring, ToneColoring, verify
from tonelab.graphs import (
    Graph,
    build_complete,
    build_complete_multipartite,
    build_gnp,
    build_path,
    build_star,
    build_truncated_regular_tree,
    cartesian_power,
    load_graph,
    save_graph,
)
from tonelab.solver import tau_exact


def run_main(*argv):
    return cli.main(list(argv))


def child_env(**extra):
    """Environment in which a child process imports this same tonelab."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_proc(*argv):
    return subprocess.run(
        [sys.executable, "-m", "tonelab.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
    )


@pytest.fixture
def star_files(tmp_path):
    graph = build_star(3)
    gpath = tmp_path / "s3.gr"
    save_graph(graph, gpath)
    out = tau_exact(graph, 3)
    cpath = tmp_path / "s3.col"
    save_coloring(out.witness, cpath)
    return gpath, cpath


def test_verify_valid_exit0(star_files, capsys):
    gpath, cpath = star_files
    assert run_main("verify", str(gpath), str(cpath)) == 0
    assert "valid: True" in capsys.readouterr().out


def test_verify_tampered_exit1(star_files, tmp_path, capsys):
    gpath, cpath = star_files
    col = load_coloring(cpath)
    rows = [list(col.assignment[0])] + [list(r) for r in col.assignment[1:]]
    rows[1] = rows[2]  # two leaves now share a full set at distance 2
    bad = tmp_path / "bad.col"
    save_coloring(ToneColoring(col.t, col.palette_size, rows), bad)
    assert run_main("verify", str(gpath), str(bad)) == 1
    out = capsys.readouterr().out
    assert "valid: False" in out
    assert any(line.count(" ") == 3 for line in out.splitlines()[2:])  # u v d shared


def test_verify_malformed_exit2(tmp_path):
    gpath = tmp_path / "g.gr"
    gpath.write_text("not a graph\n")
    cpath = tmp_path / "c.col"
    cpath.write_text("nope\n")
    assert run_main("verify", str(gpath), str(cpath)) == 2


def test_verify_names_the_file_it_cannot_read(tmp_path, capsys):
    good_graph = tmp_path / "g.gr"
    good_graph.write_text("2 1\n0 1\n")
    good_coloring = tmp_path / "c.col"
    good_coloring.write_text("1 2\n0: 0\n1: 1\n")
    bad_graph = tmp_path / "bad.gr"
    bad_graph.write_text("2 1\n0 x\n")
    bad_coloring = tmp_path / "bad.col"
    bad_coloring.write_text("1 2\n0: x\n1: 1\n")
    missing = tmp_path / "missing.col"
    for argv, kind, path in (
        ([bad_graph, good_coloring], "graph", bad_graph),
        ([good_graph, bad_coloring], "coloring", bad_coloring),
        ([good_graph, missing], "coloring", missing),
    ):
        assert run_main("verify", *map(str, argv)) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: cannot read {kind} {str(path)!r}: "), err
        assert out == ""
    # the empty graph is read, not rejected, and its empty coloring is valid
    empty = tmp_path / "empty.gr"
    empty.write_text("0 0\n")
    none = tmp_path / "none.col"
    none.write_text("2 2\n")
    assert run_main("verify", str(empty), str(none)) == 0
    assert capsys.readouterr().out == "valid: True\ncolors_used: 0\n"


def test_complete_family_needs_a_vertex(capsys):
    assert run_main("solve", "--family", "complete", "0", "--t", "2") == 2
    assert capsys.readouterr().err == (
        "error: bad --family arguments for 'complete': "
        "complete graph needs at least one vertex\n"
    )


def test_solve_star_t4(capsys):
    assert run_main("solve", "--family", "star", "3", "--t", "4") == 0
    assert "exact 13" in capsys.readouterr().out


def test_solve_path_t4(capsys):
    assert run_main("solve", "--family", "path", "4", "--t", "4") == 0
    assert "exact 12" in capsys.readouterr().out


def test_solve_budget_exhaustion_exit3(capsys):
    code = run_main(
        "solve", "--family", "star", "5", "--t", "3", "--budget-nodes", "1"
    )
    assert code == 3
    assert "bracket [9, 10]" in capsys.readouterr().out  # the greedy's 10 = tau_3(S_5)
    # the upper end is the greedy heuristic's palette, not t*n
    for family, t, nodes, code, lower, upper in (
        ("hypercube 4", 3, 0, 3, 10, 12),  # 10: the order's fresh-color count
        ("gnp 300 0.01 13", 2, 25_000, 3, 7, 8),  # seed 1 is exact 7 in 1,623
        ("tree 3 4", 2, 0, 0, 5, 5),  # the greedy meets the degree bound
    ):
        argv = ["--family", *family.split(), "--t", str(t), "--budget-nodes", str(nodes)]
        assert run_main("solve", *argv, "--json") == code, family
        out = json.loads(capsys.readouterr().out)
        assert (out["best_lower"], out["best_upper"]) == (lower, upper), family


def test_solve_witness_reverifies_in_separate_process(tmp_path):
    gpath = tmp_path / "s3.gr"
    save_graph(build_star(3), gpath)
    wpath = tmp_path / "w.col"
    assert run_main(
        "solve", str(gpath), "--t", "3", "--emit-witness", str(wpath)
    ) == 0
    proc = run_proc("verify", str(gpath), str(wpath))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _read_dimacs(text):
    clauses = []
    nvars = nclauses = None
    for line in text.splitlines():
        if line.startswith("c") or not line.strip():
            continue
        if line.startswith("p cnf"):
            _, _, nv, nc = line.split()
            nvars, nclauses = int(nv), int(nc)
            continue
        lits = [int(x) for x in line.split()]
        assert lits[-1] == 0
        clauses.append(lits[:-1])
    assert nclauses == len(clauses)
    return nvars, clauses


def _cnf_satisfiable(nvars, clauses):
    for bits in product([False, True], repeat=nvars):
        if all(
            any(bits[lit - 1] if lit > 0 else not bits[-lit - 1] for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def test_cnf_export_matches_decision(tmp_path):
    # tau_2(P_3) = 5, so the exported k=4 instance must be unsatisfiable
    gpath = tmp_path / "p3.gr"
    save_graph(build_path(3), gpath)
    cnf_path = tmp_path / "p3.cnf"
    assert run_main("solve", str(gpath), "--t", "2", "--emit-cnf", str(cnf_path)) == 0
    nvars, clauses = _read_dimacs(cnf_path.read_text())
    assert nvars == 3 * 4
    assert not _cnf_satisfiable(nvars, clauses)
    # and the k=5 instance, built directly, must be satisfiable
    from tonelab.sat_export import encode_decision_cnf

    nvars5, clauses5 = _read_dimacs(encode_decision_cnf(build_path(3), 2, 5))
    assert _cnf_satisfiable(nvars5, clauses5)


def test_bound_family_star(capsys):
    assert run_main("bound", "--family", "star", "5", "--t", "3") == 0
    out = capsys.readouterr().out
    assert "degree" in out and "9" in out
    assert "pairsum" in out and "8" in out
    assert "star_formula" not in out  # the pairsum row says the same


def test_bound_family_path(capsys):
    assert run_main("bound", "--family", "path", "6", "--t", "4") == 0
    out = capsys.readouterr().out
    assert "path_formula" in out and "12" in out


def test_bound_graph_file(tmp_path, capsys):
    gpath = tmp_path / "s3.gr"
    save_graph(build_star(3), gpath)
    assert run_main("bound", str(gpath), "--t", "2") == 0
    out = capsys.readouterr().out
    assert "exact on trees at t = 2" in out
    assert "tree_2tone" not in out and "star_formula" not in out  # the degree row says it


# bound --json lines: every row keeps the bytes it had when stars also got
# a star_formula row, which repeated the pairsum row, and trees at t = 2 a
# tree_2tone row, which repeated the degree row; the degree row now says it
# is exact there, and a pairsum row below t says so
BOUND_JSON = {
    ('path 6', 4): (
        '{"bounds": [{"kind": "lower", "note": "max degree 2", "source": "degree", '
        '"value": 10}, {"kind": "lower", "note": "equality needs t >= 20", '
        '"source": "pairsum", "value": 4}, {"kind": "exact", "note": "path on 6 vertices", '
        '"source": "path_formula", "value": 12}], "instance": "path 6", "t": 4}\n'
    ),
    ('star 1', 2): (
        '{"bounds": [{"kind": "exact", "note": "max degree 1; exact on trees at t = 2", '
        '"source": "degree", "value": 4}, {"kind": "exact", "note": "equality hypothesis holds", '
        '"source": "pairsum", "value": 4}, {"kind": "exact", "note": "path on 2 vertices", '
        '"source": "path_formula", "value": 4}], "instance": "star 1", "t": 2}\n'
    ),
    ('star 3', 5): (
        '{"bounds": [{"kind": "lower", "note": "max degree 3", "source": "degree", '
        '"value": 14}, {"kind": "exact", "note": "equality hypothesis holds", '
        '"source": "pairsum", "value": 17}], "instance": "star 3", "t": 5}\n'
    ),
    ('star 5', 3): (
        '{"bounds": [{"kind": "lower", "note": "max degree 5", "source": "degree", '
        '"value": 9}, {"kind": "lower", "note": "equality needs t >= 5", '
        '"source": "pairsum", "value": 8}], "instance": "star 5", "t": 3}\n'
    ),
    ('tree 3 2', 2): (
        '{"bounds": [{"kind": "exact", "note": "max degree 3; exact on trees at t = 2", '
        '"source": "degree", "value": 5}, {"kind": "lower", '
        '"note": "equality needs t >= 27; below the trivial bound t = 2", '
        '"source": "pairsum", "value": -52}], "instance": "tree 3 2", "t": 2}\n'
    ),
    ('multipartite 2,3,4', 3): (
        '{"bounds": [{"kind": "lower", "note": "max degree 7", "source": "degree", '
        '"value": 10}, {"kind": "lower", "note": "equality needs t >= 8", '
        '"source": "pairsum", "value": 17}, {"kind": "lower", '
        '"note": "sum of per-part square roots", "source": "multipartite_real", '
        '"value": 12.605722}, {"kind": "lower", "note": "per-part pair counting, '
        'solved exactly", "source": "multipartite_integer", "value": 15}], '
        '"instance": "multipartite 2,3,4", "t": 3}\n'
    ),
    ('gnp 40 0.05 3', 2): (
        '{"bounds": [{"kind": "lower", "note": "max degree 6", "source": "degree", '
        '"value": 6}, {"kind": "lower", '
        '"note": "equality fails on another component; max over 8 components", '
        '"source": "pairsum", "value": 4}], "instance": "gnp 40 0.05 3", "t": 2}\n'
    ),
    ('hypercube 3', 3): (
        '{"bounds": [{"kind": "lower", "note": "max degree 3", "source": "degree", '
        '"value": 8}, {"kind": "lower", "note": "equality needs t >= 14", '
        '"source": "pairsum", "value": 4}], "instance": "hypercube 3", "t": 3}\n'
    ),
    ('path 3', 1): (
        '{"bounds": [{"kind": "lower", "note": "needs t >= 2 and an edge", '
        '"source": "degree", "value": null}, {"kind": "lower", '
        '"note": "equality needs t >= 2", "source": "pairsum", "value": 2}, '
        '{"kind": "exact", "note": "path on 3 vertices", "source": "path_formula", '
        '"value": 2}], "instance": "path 3", "t": 1}\n'
    ),
}


def test_bound_json_bytes_are_pinned(capsys):
    for (family, t), expected in BOUND_JSON.items():
        assert run_main("bound", "--family", *family.split(), "--t", str(t), "--json") == 0
        assert capsys.readouterr().out == expected, (family, t)


# bound in human mode: a row per formula, "n/a" for a bound that does not apply
BOUND_TEXT = {
    ('multipartite 2,3', 3): (
        "bounds for multipartite 2,3 at t=3\n"
        "  degree                 lower  8          max degree 3\n"
        "  pairsum                lower  11         equality needs t >= 4\n"
        "  multipartite_real      lower  7.706742   sum of per-part square roots\n"
        "  multipartite_integer   lower  9          per-part pair counting, solved exactly\n"
    ),
    ('multipartite 3', 2): (
        "bounds for multipartite 3 at t=2\n"
        "  degree                 lower  n/a        needs t >= 2 and an edge\n"
        "  pairsum                exact  2          "
        "equality hypothesis holds; max over 3 components\n"
    ),
}


def test_bound_text_bytes_are_pinned(capsys):
    for (family, t), expected in BOUND_TEXT.items():
        assert run_main("bound", "--family", *family.split(), "--t", str(t)) == 0
        assert capsys.readouterr().out == expected, (family, t)


def test_bound_pairsum_exact_only_when_every_component_is(tmp_path, capsys):
    # K_3 + S_5 at t = 3: K_3's pairsum 9 is exact, S_5's 8 is only a lower
    # bound, and tau_3(S_5) = 10 lifts the union above 9
    gpath = tmp_path / "k3_s5.gr"
    gpath.write_text("9 8\n0 1\n0 2\n1 2\n3 4\n3 5\n3 6\n3 7\n3 8\n")
    assert run_main("bound", str(gpath), "--t", "3", "--json") == 0
    rows = {r["source"]: r for r in json.loads(capsys.readouterr().out)["bounds"]}
    assert rows["pairsum"] == {
        "source": "pairsum",
        "kind": "lower",
        "value": 9,
        "note": "equality fails on another component; max over 2 components",
    }
    assert tau_exact(build_star(5), 3).value == 10
    gpath.write_text("6 6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n")
    assert run_main("bound", str(gpath), "--t", "3", "--json") == 0
    rows = {r["source"]: r for r in json.loads(capsys.readouterr().out)["bounds"]}
    assert rows["pairsum"]["kind"] == "exact"
    assert rows["pairsum"]["note"] == "equality hypothesis holds; max over 2 components"


BOUND_FAMILIES = [
    ["path", "1"], ["path", "2"], ["path", "6"], ["star", "1"], ["star", "3"],
    ["star", "5"], ["tree", "2", "0"], ["tree", "3", "2"], ["complete", "4"],
    ["multipartite", "3"], ["multipartite", "4,4"], ["hypercube", "3"],
]

K5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
K5_P3 = Graph(8, K5 + [(5, 6), (6, 7)])  # exact at t = 2 only after P_3's BFS
K5_P4 = Graph(9, K5 + [(5, 6), (6, 7), (7, 8)])  # lower at t = 2 without a BFS
# at t = 3, P_3 ties the larger estimate of P_4 and comes first: its exact
# report wins, and P_4's lower one makes the row lower
P3_P4 = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
# K_5 is skipped behind K_6 and is exact although t < 4
K5_K6 = Graph(11, K5 + [(a, b) for a in range(5, 11) for b in range(a + 1, 11)])


def _bound_graphs() -> list[tuple[Graph, tuple[int, ...]]]:
    """(graph, values of t) pairs: families, small random graphs, the four
    unions above, and G(n, 2/n) with hundreds of components, where a tie
    between an exact and a lower component decides the pairsum note at
    t = 2."""
    graphs = [cli.resolve_family(tokens)[0] for tokens in BOUND_FAMILIES]
    rng = random.Random(10)
    for i in range(160):
        n = 1 + i % 11
        if i % 4 == 3:
            tree = random_tree(rng, n)
            graphs.append(Graph(n + 2, sorted(tree.edges) + [(n, n + 1)]))  # tree + K_2
        elif i % 4 == 2:
            graphs.append(random_tree(rng, n))
        else:
            graphs.append(random_graph(rng, n, rng.choice([0.15, 0.3, 0.6])))
    cases = [(g, (1, 2, 3, 6)) for g in graphs + [K5_P3, K5_P4, P3_P4, K5_K6]]
    cases += [(build_gnp(n, 2 / n, seed), (2,)) for n, seed in [(2000, 1), (4000, 1)]]
    return cases


def _reference_pairsum_row(graph: Graph, t: int) -> dict:
    """The pairsum row built from every component's report: the first max
    wins, and the row is exact only when every report is."""
    comps = bfs_components(graph)
    reports = [bounds.pairsum_bound(graph.induced_subgraph(c), t) for c in comps]
    best = max(reports, key=lambda r: r.value)
    kind, note = best.kind, best.reason or "equality hypothesis holds"
    if kind == "exact" and any(r.kind != "exact" for r in reports):
        kind, note = "lower", "equality fails on another component"
    if len(comps) > 1:
        note += f"; max over {len(comps)} components"
    if best.value < t:
        note += f"; below the trivial bound t = {t}"
    return {"source": "pairsum", "kind": kind, "value": best.value, "note": note}


def test_bound_rows_match_the_reference_shape_tests():
    disconnected = 0
    notes = set()
    for graph, ts in _bound_graphs():
        disconnected += len(bfs_components(graph)) > 1
        delta = max(graph.degrees)
        for t in ts:
            rows = {r["source"]: r for r in cli.bound_rows(graph, t)}
            # the inline guard the CLI and the solver used before degree_bound
            old = bounds.degree_lower_bound(delta, t) if t >= 2 and delta >= 1 else None
            assert rows["degree"]["value"] == old
            exact_tree = t == 2 and is_tree(graph) and delta >= 1
            assert rows["degree"]["kind"] == ("exact" if exact_tree else "lower")
            assert rows["pairsum"] == _reference_pairsum_row(graph, t), (graph, t)
            notes.update(part.strip() for part in rows["pairsum"]["note"].split(";"))
            expected = {"degree", "pairsum"}
            if is_path(graph):
                expected.add("path_formula")
                assert rows["path_formula"]["value"] == bounds.path_formula(graph.n, t)
            assert set(rows) == expected, (graph.n, graph.edges, t)
    assert disconnected >= 40
    assert {
        "equality fails on another component", "equality needs t >= 3",
        "below the trivial bound t = 2",
    } <= notes


def test_bound_rows_build_only_components_that_can_win(monkeypatch):
    sparse = build_gnp(2000, 2 / 2000, seed=1)
    assert max(map(len, bfs_components(sparse))) == 1625
    bound = bounds.pairsum_bound
    calls = []

    def counting(graph, t):
        calls.append(graph.n)
        return bound(graph, t)

    monkeypatch.setattr(bounds, "pairsum_bound", counting)
    for t in (2, 3):
        calls.clear()
        cli.bound_rows(sparse, t)
        assert len(calls) <= 8 and max(calls) < 1625, (t, calls)
    for graph, kind, built in [(K5_P3, "exact", [5, 3]), (K5_P4, "lower", [5])]:
        calls.clear()
        rows = {r["source"]: r for r in cli.bound_rows(graph, 2)}
        assert (rows["pairsum"]["kind"], calls) == (kind, built)


def test_bound_rows_measure_a_connected_graph_in_place(monkeypatch):
    graphs = [
        cartesian_power(build_complete(2), 4),
        build_complete_multipartite([2, 3, 4]),
        build_path(6),
        build_truncated_regular_tree(3, 3),
    ]
    expect = [[cli.bound_rows(g, t) for t in (1, 2, 3, 5)] for g in graphs]

    def fail(*args):
        pytest.fail("a connected graph was copied")

    monkeypatch.setattr(Graph, "induced_subgraph", fail)
    assert [[cli.bound_rows(g, t) for t in (1, 2, 3, 5)] for g in graphs] == expect


SOUNDNESS_FAMILIES = BOUND_FAMILIES + [
    ["multipartite", "1"], ["multipartite", "2"], ["multipartite", "3,1"],
]


def test_every_bound_row_is_sound(capsys):
    """A lower row never exceeds tau_t and an exact row equals it."""
    cases = []
    for tokens in SOUNDNESS_FAMILIES:
        for t in (1, 2, 3):
            assert run_main("bound", "--family", *tokens, "--t", str(t), "--json") == 0
            rows = json.loads(capsys.readouterr().out)["bounds"]
            cases.append((cli.resolve_family(tokens)[0], t, rows))
    rng = random.Random(12)
    for i in range(90):
        graph = random_graph(rng, 1 + i % 7, rng.choice([0.2, 0.4, 0.7]))
        t = 1 + i % 3
        cases.append((graph, t, cli.bound_rows(graph, t)))
    for graph, t, rows in cases:
        outcome = tau_exact(graph, t, solver.SearchBudget(max_nodes=200_000))
        assert outcome.status == solver.EXACT
        for row in rows:
            if row["value"] is None:
                continue
            if row["kind"] == "lower":
                assert row["value"] <= outcome.value, (graph.edges, t, row)
            elif row["kind"] == "exact":
                assert row["value"] == outcome.value, (graph.edges, t, row)


def test_verify_json_mode(star_files, capsys):
    gpath, cpath = star_files
    assert run_main("verify", str(gpath), str(cpath), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True and payload["violations"] == []


def test_bound_family_multipartite_json(capsys):
    assert (
        run_main("bound", "--family", "multipartite", "4,4", "--t", "2", "--json") == 0
    )
    payload = json.loads(capsys.readouterr().out)
    rows = {r["source"]: r for r in payload["bounds"]}
    assert rows["multipartite_integer"]["value"] == 8
    assert abs(rows["multipartite_real"]["value"] - 5.656854) < 1e-6


def test_construct_mols(tmp_path, capsys):
    cpath = tmp_path / "k7.col"
    gpath = tmp_path / "k7.gr"
    code = run_main(
        "construct",
        "--method",
        "mols",
        "--n",
        "7",
        "--t",
        "4",
        "-o",
        str(cpath),
        "--emit-graph",
        str(gpath),
    )
    assert code == 0
    assert "colors_used: 28" in capsys.readouterr().out
    proc = run_proc("verify", str(gpath), str(cpath))
    assert proc.returncode == 0


def test_construct_scheme(tmp_path, capsys):
    cpath = tmp_path / "t7.col"
    code = run_main(
        "construct",
        "--method",
        "scheme",
        "--scheme",
        "T7_3tone",
        "--depth",
        "2",
        "-o",
        str(cpath),
    )
    assert code == 0
    assert "colors_used: 10" in capsys.readouterr().out


def test_construct_scheme_t_must_match_the_scheme(tmp_path, capsys):
    cpath = tmp_path / "t.col"
    common = ["construct", "--method", "scheme", "--depth", "2", "-o", str(cpath)]
    assert run_main(*common, "--scheme", "T4_3tone", "--t", "4") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "3-tone" in captured.err
    assert not cpath.exists()
    assert run_main(*common, "--scheme", "T7_3tone", "--t", "3") == 0
    assert load_coloring(cpath) == constructions.tree_scheme_coloring("T7_3tone", 2)[1]


def test_construct_scheme_rejects_negative_depth(tmp_path, capsys):
    cpath = tmp_path / "t.col"
    argv = ["--method", "scheme", "--scheme", "T4_3tone", "--depth", "-1"]
    assert run_main("construct", *argv, "-o", str(cpath)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: depth must be >= 0\n"
    assert not cpath.exists()


def test_construct_large_t_star(tmp_path, capsys):
    cpath = tmp_path / "s3.col"
    code = run_main(
        "construct",
        "--method",
        "large-t",
        "--family",
        "star",
        "3",
        "--t",
        "5",
        "-o",
        str(cpath),
    )
    assert code == 0
    assert "colors_used: 17" in capsys.readouterr().out


def test_construct_large_t_hypothesis_violation(tmp_path, capsys):
    code = run_main(
        "construct",
        "--method",
        "large-t",
        "--family",
        "path",
        "5",
        "--t",
        "3",
        "-o",
        str(tmp_path / "x.col"),
    )
    assert code == 2
    assert "t >= 12" in capsys.readouterr().err


def test_construct_every_method_round_trips(tmp_path, monkeypatch):
    calls = []

    def counting_verify(graph, coloring):
        calls.append(coloring)
        return verify(graph, coloring)

    # cli verifies files; every construction and solve goes through
    # coloring.checked
    for module in (cli, coloring):
        monkeypatch.setattr(module, "verify", counting_verify)
    # each case with the graph its parameters name, built here
    cases = [
        (["--method", "large-t", "--family", "star", "3", "--t", "5"], build_star(3)),
        (["--method", "decomp2", "--family", "hypercube", "4"],
         cartesian_power(build_complete(2), 4)),
        (["--method", "mols", "--n", "5", "--t", "3"], cartesian_power(build_complete(5), 2)),
        (["--method", "star", "--k", "4", "--t", "2"], build_star(4)),
        (["--method", "multipartite", "--parts", "2,3", "--t", "3"],
         build_complete_multipartite([2, 3])),
        (["--method", "scheme", "--scheme", "T3_4tone", "--depth", "2"],
         build_truncated_regular_tree(3, 2)),
    ]
    for i, (extra, reference) in enumerate(cases):
        cpath = tmp_path / f"c{i}.col"
        gpath = tmp_path / f"g{i}.gr"
        calls.clear()
        code = run_main(
            "construct", *extra, "-o", str(cpath), "--emit-graph", str(gpath)
        )
        assert code == 0, extra
        # the emitted colouring is verified once, by the construction itself;
        # multipartite also verifies the star colouring of each part size
        assert calls.count(load_coloring(cpath)) == 1, extra
        emitted = load_graph(gpath)
        assert (emitted.n, emitted.edges) == (reference.n, reference.edges), extra
        proc = run_proc("verify", str(gpath), str(cpath))
        assert proc.returncode == 0, (extra, proc.stdout, proc.stderr)


# L_a(x, y) = a*x + y over GF(4) = {0, 1, a, a + 1} as 0..3, for a = 1, 2,
# 3: addition is XOR, and 2*2 = 3
GF4_FAMILY = """4 3
0 1 2 3
1 0 3 2
2 3 0 1
3 2 1 0

0 1 2 3
2 3 0 1
3 2 1 0
1 0 3 2

0 1 2 3
3 2 1 0
1 0 3 2
2 3 0 1
"""


def test_construct_mols_from_a_family_file(tmp_path, capsys):
    fpath, cpath, gpath = tmp_path / "gf4.ls", tmp_path / "k4.col", tmp_path / "k4.gr"
    fpath.write_text(GF4_FAMILY)
    code = run_main(
        "construct", "--method", "mols", "--n", "4", "--t", "3", "--family-file", str(fpath),
        "-o", str(cpath), "--emit-graph", str(gpath), "--json",
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "colors_used": 12, "family_size": 3, "method": "mols", "order": 4,
    }
    coloring = load_coloring(cpath)
    assert coloring.palette_size == 12
    assert verify(load_graph(gpath), coloring).valid
    code = run_main(
        "construct", "--method", "mols", "--n", "5", "--t", "3", "--family-file", str(fpath),
        "-o", str(tmp_path / "k5.col"),
    )
    assert code == 2
    assert capsys.readouterr().err == "error: family order does not match --n\n"


def test_reproduce_tables_pass(capsys):
    # --table all --json prints one line per table, in order, each the
    # same bytes as that table's own run
    assert run_main("reproduce", "--table", "all", "--json") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["table"] for line in lines] == cli.TABLES
    for table, line in zip(cli.TABLES, lines):
        assert run_main("reproduce", "--table", table, "--json") == 0
        assert capsys.readouterr().out == line + "\n"


# sha256 of reproduce --table all's stdout, in --json and in human mode
REPRODUCE_SHA256 = {
    ("--json",): "03195550f4a977c7f629959fc2d2c1890426859802a99deea70492482bbe7b61",
    (): "3f869aaa48c1cb8f53a1be56f8b9027a00f7d5ef5bd88177c847a099dc401d19",
}


def test_reproduce_bytes_are_pinned(capsys):
    for flags, digest in REPRODUCE_SHA256.items():
        assert run_main("reproduce", "--table", "all", *flags) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest, flags


def test_reproduce_all_runs_every_table_and_exits_worst(capsys, monkeypatch):
    def fake_rows(table):
        computed = 0 if table == "prop73" else 1
        return [{"case": table, "expected": 1, "computed": computed}]

    monkeypatch.setattr(cli, "_reproduce_rows", fake_rows)
    assert run_main("reproduce", "--table", "all") == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("==")] == [
        f"== {table}" for table in cli.TABLES
    ]
    assert out.count("FAIL") == 1 and out.count("PASS") == 4


def test_experiment_ratio_at_least_one_across_seeds(capsys):
    for seed in range(20):
        assert (
            run_main(
                "experiment", "--gnp", "200", "2", str(seed), "--t", "2", "--json"
            )
            == 0
        )
        row = json.loads(capsys.readouterr().out)
        assert row["ratio"] is not None and row["ratio"] >= 1.0


def test_solve_deep_search_exits_cleanly():
    # a path this long searches 1500 positions deep
    proc = run_proc(
        "solve", "--family", "path", "1500", "--t", "2", "--budget-nodes", "20000", "--json"
    )
    assert proc.returncode in (0, 3), proc.stderr[-500:]
    payload = json.loads(proc.stdout)
    assert payload["best_lower"] <= 5
    assert payload["best_upper"] >= 5  # tau_2 of a long path is 5


def test_thread_env_var_changes_nothing():
    unset = child_env()
    unset.pop("TONELAB_THREADS", None)
    outputs = []
    for argv in (
        ["solve", "--family", "star", "3", "--t", "3", "--json"],
        ["solve", "--family", "gnp", "300", "0.01", "1", "--t", "2",
         "--budget-nodes", "25000", "--json"],
    ):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "tonelab.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
            )
            for env in (child_env(TONELAB_THREADS="2"), unset)
        ]
        assert runs[0].returncode == runs[1].returncode, argv
        assert runs[0].stdout == runs[1].stdout, argv
        outputs.append(json.loads(runs[0].stdout))
    star, gnp = outputs
    assert star["value"] == 9
    assert star["status"] == "exact"
    assert gnp["nodes"] <= 25_001  # the cap, plus the node that broke it


def test_experiment_deterministic_and_sane():
    a = run_proc("experiment", "--gnp", "400", "2", "7", "--t", "2", "--json")
    b = run_proc("experiment", "--gnp", "400", "2", "7", "--t", "2", "--json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout  # byte-identical in json mode
    row = json.loads(a.stdout)
    assert row["lower"] <= row["upper"]
    assert row["ratio"] >= 1.0


def test_experiment_malformed_input_exits_2():
    for argv in (
        ["--gnp", "0", "2", "1"],
        ["--gnp", "5", "x", "1"],
        ["--gnp", "10", "2", "1", "--t", "0"],
        ["--gnp", "-3", "2", "1"],
    ):
        proc = run_proc("experiment", *argv)
        assert proc.returncode == 2, (argv, proc.stderr[-500:])
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert proc.stdout == ""


def test_experiment_seeds_match_single_seed_runs(capsys):
    def out(seed, *extra):
        argv = ["experiment", "--gnp", "300", "2", str(seed), "--t", "2", *extra]
        assert run_main(*argv) == 0
        return capsys.readouterr().out

    for mode, sep in ((["--json"], ""), ([], "\n")):
        singles = [out(seed, *mode) for seed in (11, 12, 13)]
        assert out(11, *mode, "--seeds", "3") == sep.join(singles)


def test_solve_json_stable():
    a = run_proc("solve", "--family", "star", "3", "--t", "3", "--json")
    b = run_proc("solve", "--family", "star", "3", "--t", "3", "--json")
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert payload["value"] == 9 and payload["status"] == "exact"


# (family, t) -> SHA-256 of the `solve --json` line without its node count,
# and of the witness file; recorded before the interchangeable-color rule
SOLVE_SHA256 = {
    ("star 5", 3): (
        "034f80c92fa2373e55c4065293bcade23adb13048d3a178176abe0fa88227f0f",
        "f8334c1e2710af981500f0fcd3e354f6485a1fd326d9622f64e39c40e5e6131a",
    ),
    ("gnp 60 0.05 1", 2): (
        "2bccdc7a20b606c422467458f56f601d04e050e8a9c483c0138f05466111dc16",
        "ccd84ce86794e3ffc1f8412d59309a6790520aca539d475180a6489833ea1ef3",
    ),
    ("hypercube 4", 2): (
        "344ea899395b03016b4b26670dc9b7d1e632fb56fd08bbeed509f9eac067ed54",
        "f29489a69af83844b3cb27b07cb436fd80cd6c313b75a1bbc247f7382235bbc8",
    ),
    ("knn 3", 2): (
        "c18eba34801ea0d40b2ebe9fef720bcb1a02fa28294cec2e6d02c54420806c1a",
        "2eb5d929cd8af9c3580c49d3bf0e620235578965f42c6eee8f2e4ec33cbedfd0",
    ),
    ("path 6", 4): (
        "dd11a5d82a79ca0c453553dbee92e221d2a9202e6d6d4d2091e8eb5b2db44a9a",
        "75c944bffbbb4e903298f5dbd98dc4dbebdad7dbdfe95d8377ac96409730bf33",
    ),
}


def test_solve_bytes_are_pinned(tmp_path, capsys):
    """Symmetry breaking that keeps the lex-least coloring changes only
    the node count: the verdict and the witness keep their bytes."""
    witness = tmp_path / "w.col"
    for (family, t), digests in SOLVE_SHA256.items():
        argv = ["solve", "--family", *family.split(), "--t", str(t), "--json"]
        assert run_main(*argv, "--emit-witness", str(witness)) == 0
        payload = json.loads(capsys.readouterr().out)
        del payload["nodes"]
        line = json.dumps(payload, sort_keys=True).encode()
        got = (hashlib.sha256(line).hexdigest(), hashlib.sha256(witness.read_bytes()).hexdigest())
        assert got == digests, family


def test_mols_subcommand(tmp_path, capsys):
    fpath = tmp_path / "f15.ls"
    assert run_main("mols", "--order", "15", "-o", str(fpath)) == 0
    capsys.readouterr()
    assert run_main("mols", "--check", str(fpath), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "beth_floor": 1,
        "order": 15,
        "size": 2,
        "verified": True,
    }


def test_mols_check_error_lines_are_pinned(tmp_path, capsys):
    # recorded at the commit where validity was still checked outside the
    # constructors: each malformed family exits 2 with exactly one error line
    p5 = tmp_path / "p5.ls"
    assert run_main("mols", "--prime", "5", "-o", str(p5)) == 0
    capsys.readouterr()
    blocks = p5.read_text().split("\n\n")  # the first block holds the header
    square = "0 1 2\n1 2 0\n2 0 1\n"
    cases = {
        "non-Latin": ("3 1\n0 1 2\n0 1 2\n0 1 2\n", "family contains a non-Latin square"),
        # square 3 replaced by a copy of square 1: the first bad pair is (1, 3)
        "non-orthogonal": (
            "\n\n".join(blocks[:3] + [blocks[1]]) + "\n",
            "squares 1 and 3 are not orthogonal",
        ),
        "out of range": ("3 1\n0 1 3\n1 2 0\n2 0 1\n", "entries must lie in 0..n-1"),
        "ragged row": ("3 1\n0 1 2\n1 2\n2 0 1\n", "square must be n x n"),
        "too many squares": (
            f"3 3\n{square}\n0 2 1\n1 0 2\n2 1 0\n\n{square}",
            "at most 2 MOLS of order 3 can exist",
        ),
        "order 0": ("0 1\n", "order must be >= 1"),
    }
    for name, (text, message) in cases.items():
        path = tmp_path / "bad.ls"
        path.write_text(text)
        assert run_main("mols", "--check", str(path), "--json") == 2, name
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n"), name


def test_mols_rejects_more_than_one_source(tmp_path, capsys):
    # --prime 5 --order 7 used to build the order-5 family and ignore --order
    p5 = tmp_path / "p5.ls"
    assert run_main("mols", "--prime", "5", "-o", str(p5)) == 0
    capsys.readouterr()
    message = "error: choose one of --prime, --order, --check, --product\n"
    for argv in (
        ["--prime", "5", "--order", "7"],
        ["--order", "15", "--check", str(p5)],
        ["--check", str(p5), "--product", str(p5), str(p5)],
        ["--prime", "5", "--order", "7", "--check", str(p5), "--product", str(p5), str(p5)],
        [],
    ):
        assert run_main("mols", *argv, "--json") == 2, argv
        assert capsys.readouterr() == ("", message), argv


def test_family_usage_errors():
    assert run_main("solve", "--family", "blob", "3", "--t", "2") == 2
    assert run_main("solve", "--t", "2") == 2
    assert run_main("construct", "--method", "mols", "--t", "2", "-o", "/tmp/x") == 2


def test_experiment_row_is_pinned(capsys):
    # the greedy colors in search order, so this row pins that order too
    assert run_main("experiment", "--gnp", "4000", "2", "42", "--t", "3", "--json") == 0
    assert capsys.readouterr().out == (
        '{"c": 2.0, "decomp_upper": null, "edges": 3955, "greedy_upper": 12, '
        '"lower": 11, "max_degree": 8, "n": 4000, "ratio": 1.732051, "seed": 42, '
        '"t": 3, "upper": 12}\n'
    )


def test_malformed_input_exits_2(tmp_path):
    empty = tmp_path / "empty.gr"
    empty.write_text("0 0\n")
    for argv in (
        ["bound", "--family", "path", "3", "--t", "0"],
        ["bound", "--family", "path", "3", "--t", "-1"],
        ["bound", str(empty), "--t", "2"],
        ["solve", str(empty), "--t", "2"],
        ["solve", "--family", "path", "3", "--t", "2", "--budget-nodes", "-1"],
        ["solve", "--family", "path", "3", "--t", "2", "--budget-ms", "-5"],
        ["solve", "--family", "path", "3", "--t", "2", "--budget-ms", "nan"],
        ["solve", "--family", "path", "3", "--t", "2", "--budget-ms", "inf"],
        ["solve", "--family", "path", "6", "7", "--t", "2"],
        ["bound", "--family", "star", "3", "junk", "--t", "2"],
        ["bound", "--family", "tree", "3", "--t", "2"],
        ["bound", "--family", "gnp", "10", "0.5", "--t", "2"],
        ["bound", "--family", "path", "--t", "2"],
    ):
        proc = run_proc(*argv)
        assert proc.returncode == 2, (argv, proc.stdout, proc.stderr[-500:])
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert proc.stdout == ""
    with pytest.raises(ValueError, match="^bad --family arguments for 'path': takes 1 "):
        cli.resolve_family(["path", "6", "7"])


def test_unwritable_output_paths_exit_2(tmp_path, capsys):
    bad = str(tmp_path / "missing" / "x")
    ok = str(tmp_path / "ok.col")
    for argv in (
        ["solve", "--family", "star", "3", "--t", "3", "--emit-witness", bad],
        ["solve", "--family", "star", "3", "--t", "3", "--emit-cnf", bad],
        ["construct", "--method", "star", "--k", "3", "--t", "2", "-o", bad],
        ["construct", "--method", "star", "--k", "3", "--t", "2", "-o", ok, "--emit-graph", bad],
        ["mols", "--prime", "5", "-o", bad],
    ):
        assert run_main(*argv) == 2, argv
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and bad in err, (argv, err)
        assert out == "", (argv, out)  # nothing printed before the failed write
