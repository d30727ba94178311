import random

import numpy as np
import pytest

import pmdm.reductions
from pmdm import (
    CapacityError,
    Dictionary,
    Graph,
    MaskSet,
    MuInstance,
    PmdmInstance,
    clique_to_pmdm,
    decide_k_pmdm,
    extract_mu_solution,
    mu_to_pmdm,
    pmdm_to_mu,
    solve_pmdm,
)
from pmdm.cli import main

from support import (
    has_clique,
    oracle_mpmdm,
    oracle_optimum_size,
    random_graph,
    random_instance,
    reference_mu,
    t1,
)

WORKED_MU_SETS = [{1}, {1, 2, 3}, {1, 3, 5}, {3}, {3, 4, 5}, {4}, {4, 5}, {5}]


def test_clique_triangle():
    inst = clique_to_pmdm(Graph(3, [(1, 2), (1, 3), (2, 3)]), 3)
    assert inst.dictionary.entries == ("bba", "bab", "abb")
    assert inst.query == "aaa" and inst.threshold == 3
    assert decide_k_pmdm(inst, 3)


def test_clique_path_graph_negative():
    inst = clique_to_pmdm(Graph(3, [(1, 2), (2, 3)]), 3)
    assert inst.threshold == 3 and inst.dictionary.size == 2
    assert not decide_k_pmdm(inst, 3)


def test_clique_triangle_with_tail():
    # a 3-clique on {1,2,3} and no 4-clique: positive at k=3, and at k=4 the
    # required 6 matches exceed the 5 strings available
    graph = Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    inst3 = clique_to_pmdm(graph, 3)
    assert decide_k_pmdm(inst3, 3)
    assert solve_pmdm(inst3) == MaskSet([1, 2, 3])
    inst4 = clique_to_pmdm(graph, 4)
    assert inst4.threshold == 6
    assert not decide_k_pmdm(inst4, 4)


def test_clique_guards():
    with pytest.raises(ValueError):
        clique_to_pmdm(Graph(3, []), 3)
    with pytest.raises(ValueError):
        clique_to_pmdm(Graph(3, [(1, 2)]), 1)
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 3)])


def test_clique_graph_wider_than_the_length_limit_is_refused_before_any_entry(monkeypatch, capsys, tmp_path):
    def no_dictionary(*args):
        raise AssertionError("entries built for a graph wider than the length limit")

    monkeypatch.setattr(pmdm.reductions, "Dictionary", no_dictionary)
    with pytest.raises(CapacityError, match="65 nodes"):
        clique_to_pmdm(Graph(65, [(1, 2), (64, 65)]), 2)
    graph = tmp_path / "wide.txt"
    graph.write_text("20000000\n1 2\n3 4\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["reduce", "clique", "--graph", str(graph), "--k", "2", "--out-dict", str(out)]) == 3
    assert capsys.readouterr().out == "" and not out.exists()


def test_clique_equivalence_randomized():
    rng = random.Random(90)
    for _ in range(40):
        graph = random_graph(rng, max_nodes=9)
        for k in range(2, 6):
            inst = clique_to_pmdm(graph, k)
            assert decide_k_pmdm(inst, k) == has_clique(graph, k)


def bit_string(bits: int, length: int) -> str:
    """'a' per position, 'b' where ``bits`` has the position's bit."""
    return "".join("ab"[bits >> p & 1] for p in range(length))


def test_reduction_entries_equal_strings_built_from_bitmasks():
    rng = random.Random(2506)
    for _ in range(60):
        graph = random_graph(rng, max_nodes=12, p=rng.random())
        inst = clique_to_pmdm(graph, rng.randint(2, 4))
        n = graph.node_count
        assert inst.query == "a" * n
        # one entry per edge, in ascending edge order
        assert list(inst.dictionary.entries) == [
            bit_string(1 << (u - 1) | 1 << (v - 1), n) for u, v in sorted(graph.edges)
        ]
    for _ in range(120):
        universe = rng.randint(0, 64)
        density = rng.random()
        masks = [
            sum(1 << (e - 1) for e in range(1, universe + 1) if rng.random() < density)
            if rng.random() < 0.8 else 0
            for _ in range(rng.randint(1, 8))
        ]
        sets = [MaskSet.from_bits(bits).positions for bits in masks]
        inst = mu_to_pmdm(MuInstance(universe, sets, rng.randint(1, len(sets))))
        length = max(max(masks).bit_length(), 1)
        assert inst.query == "a" * length
        assert list(inst.dictionary.entries) == [bit_string(bits, length) for bits in masks]


def test_pmdm_to_mu_example():
    mu = pmdm_to_mu(PmdmInstance(t1(), "abab", 2))
    assert mu.universe_size == 4 and mu.threshold == 2
    assert [sorted(s) for s in mu.sets] == [[], [3], [2, 4], [1], [4]]


def test_pmdm_to_mu_all_exact():
    d = Dictionary(["ab", "ab", "ab"])
    mu = pmdm_to_mu(PmdmInstance(d, "ab", 3))
    assert all(not s for s in mu.sets)
    assert reference_mu(mu).union == frozenset()


def test_mu_worked_instance():
    mu = MuInstance(5, WORKED_MU_SETS, 4)
    solution = reference_mu(mu)
    assert len(solution.union) == 3
    inst = mu_to_pmdm(mu)
    assert inst.query == "aaaaa"
    assert len(solve_pmdm(inst)) == 3
    # the documented optimal pick is recoverable from its union
    assert extract_mu_solution(mu, MaskSet([3, 4, 5])) == [3, 4, 5, 6]


@pytest.mark.parametrize(
    "universe, sets, threshold",
    [
        (3, [[True], [1]], 1),
        (3, [[1.5], [1]], 1),
        (3, [[2.0], [1]], 1),
        (3, [["1"], [1]], 1),
        (True, [[1]], 1),
        (3.0, [[1]], 1),
        (3, [[1]], True),
        (3, [[1]], 1.0),
    ],
    ids=["element-bool", "element-fraction", "element-float", "element-str", "universe-bool",
         "universe-float", "threshold-bool", "threshold-float"],
)
def test_mu_instance_refuses_values_that_are_not_integers(universe, sets, threshold):
    with pytest.raises(ValueError):
        MuInstance(universe, sets, threshold)


def test_mu_instance_accepts_numpy_integers():
    mu = MuInstance(np.int64(3), [[np.int32(1), 3], [2]], np.int64(1))
    assert mu_to_pmdm(mu).dictionary.entries == ("bab", "aba")


def test_mu_to_pmdm_single_empty_set():
    inst = mu_to_pmdm(MuInstance(0, [()], 1))
    assert solve_pmdm(inst) == MaskSet()


def test_mu_to_pmdm_positions_are_elements():
    mu = MuInstance(10, [{2, 9}, {9}], 1)
    inst = mu_to_pmdm(mu)
    assert inst.dictionary.entries == ("abaaaaaab", "aaaaaaaab")
    mu = MuInstance(3, [{3}, {3}], 2)
    mask = solve_pmdm(mu_to_pmdm(mu))
    assert mask == MaskSet([3]) and extract_mu_solution(mu, mask) == [0, 1]


def test_mu_element_above_the_length_limit_is_refused_before_any_entry(monkeypatch, capsys, tmp_path):
    def no_dictionary(*args):
        raise AssertionError("entries built for an element above the length limit")

    monkeypatch.setattr(pmdm.reductions, "Dictionary", no_dictionary)
    with pytest.raises(CapacityError, match="element 65"):
        mu_to_pmdm(MuInstance(100, [{1, 65}, {2}], 1))
    mu_path = tmp_path / "mu.json"
    mu_path.write_text('{"universe": 20000000, "sets": [[20000000], [1]], "z": 1}', encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["reduce", "from-mu", "--mu", str(mu_path), "--out-dict", str(out)]) == 3
    assert capsys.readouterr().out == "" and not out.exists()


def test_round_trip_pmdm_mu_pmdm():
    rng = random.Random(91)
    for _ in range(50):
        inst = random_instance(rng, max_length=8, max_size=12, max_sigma=3)
        mu = pmdm_to_mu(inst)
        assert len(reference_mu(mu).union) == oracle_optimum_size(
            inst.dictionary, inst.query, inst.threshold
        )


def test_round_trip_mu_pmdm_mu():
    rng = random.Random(92)
    for _ in range(50):
        universe = rng.randint(1, 12)
        # a few elements of a wider universe, so positions often stand for
        # elements no set uses
        elements = rng.sample(range(1, universe + 1), rng.randint(1, min(universe, 6)))
        d = rng.randint(1, 12)
        sets = [{e for e in elements if rng.random() < 0.4} for _ in range(d)]
        mu = MuInstance(universe, sets, rng.randint(1, d))
        optimum = reference_mu(mu)
        inst = mu_to_pmdm(mu)
        mask = solve_pmdm(inst)
        assert len(mask) == len(optimum.union)
        assert mask == oracle_mpmdm(inst.dictionary, [inst.query], inst.threshold)
        chosen = extract_mu_solution(mu, mask)
        assert frozenset().union(*(mu.sets[i] for i in chosen)) == set(mask.positions)


def test_extract_solution_examples():
    mu = pmdm_to_mu(PmdmInstance(t1(), "abab", 2))
    assert extract_mu_solution(mu, MaskSet([1])) == [0, 3]
    assert extract_mu_solution(mu, MaskSet([1, 2, 3, 4])) == [0, 1]
    with pytest.raises(ValueError):
        extract_mu_solution(mu, MaskSet([2]))


def test_extract_matches_optimal_union():
    rng = random.Random(93)
    for _ in range(40):
        inst = random_instance(rng, max_length=7, max_size=10, max_sigma=3)
        mu = pmdm_to_mu(inst)
        best = oracle_mpmdm(inst.dictionary, [inst.query], inst.threshold)
        chosen = extract_mu_solution(mu, best)
        assert len(chosen) == inst.threshold
        union = frozenset().union(*(mu.sets[i] for i in chosen))
        assert union <= set(best.positions)


def test_reference_mu_ties():
    # the first smallest union in index order wins
    solution = reference_mu(MuInstance(3, [{1}, {1}, {2, 3}, {1}], 2))
    assert solution.indices == [0, 1] and solution.union == frozenset({1})


def test_graph_file_parsing(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("4\n1 2\n3 4\n", encoding="utf-8")
    graph = Graph.from_file(path)
    assert graph.node_count == 4 and graph.edges == {(1, 2), (3, 4)}
