import random

import pytest

from pmdm import (
    Dictionary,
    MaskSet,
    WeightedHypergraph,
    build_hypergraph,
    count_matches,
    dump_hypergraph,
    heaviest_2_section,
    heaviest_3_section,
    heaviest_k_section,
    heaviest_k_section_branching,
    heaviest_k_section_bruteforce,
    mask_apply,
    section_weight,
)

from support import as_bits, random_hypergraph, random_instance, t1


def edge_map(h):
    return {MaskSet.from_bits(b).positions: w for b, w in h.edges.items()}


def test_build_from_t1():
    h = build_hypergraph(t1(), "abab")
    assert h.base_weight == 1
    assert edge_map(h) == {(3,): 1, (2, 4): 1, (1,): 1, (4,): 1}


def test_build_duplicates_only_feed_base():
    d = Dictionary(["abab", "abab"])
    h = build_hypergraph(d, "abab")
    assert h.base_weight == 2 and not h.edges


def test_section_weight_examples():
    h = build_hypergraph(t1(), "abab")
    assert section_weight(h, MaskSet()) == 1
    assert section_weight(h, MaskSet([2, 4])) == 3
    assert section_weight(h, MaskSet([1, 2, 3, 4])) == 5


def test_bruteforce_examples():
    h = build_hypergraph(t1(), "abab")
    assert heaviest_k_section_bruteforce(h, 1) == (MaskSet([1]), 2)
    assert heaviest_k_section_bruteforce(h, 3) == (MaskSet([1, 2, 4]), 4)
    assert heaviest_k_section_bruteforce(h, 0) == (MaskSet(), 1)


def test_two_section_examples():
    # best pair of the singleton weights 5, 3, 4 is {1, 3} at 5 + 4 = 9,
    # as the brute-force oracle confirms
    h = WeightedHypergraph(3, {as_bits([1]): 5, as_bits([2]): 3, as_bits([3]): 4})
    assert heaviest_k_section_bruteforce(h, 2) == (MaskSet([1, 3]), 9)
    assert heaviest_2_section(h) == (MaskSet([1, 3]), 9)
    h = WeightedHypergraph(3, {as_bits([1, 2]): 10, as_bits([3]): 4})
    assert heaviest_2_section(h) == (MaskSet([1, 2]), 10)
    h = WeightedHypergraph(4, {}, base_weight=7)
    assert heaviest_2_section(h) == (MaskSet([1, 2]), 7)


def test_three_section_examples():
    h = WeightedHypergraph(
        4, {as_bits([1, 2, 3]): 7, as_bits([1]): 1, as_bits([2]): 1, as_bits([3]): 1}
    )
    assert heaviest_3_section(h) == (MaskSet([1, 2, 3]), 10)
    h = WeightedHypergraph(
        4, {as_bits([1]): 5, as_bits([2]): 4, as_bits([3]): 3, as_bits([4]): 2}
    )
    assert heaviest_3_section(h).nodes == MaskSet([1, 2, 3])
    h = WeightedHypergraph(4, {as_bits([1, 2]): 6, as_bits([4]): 5})
    assert heaviest_3_section(h) == (MaskSet([1, 2, 4]), 11)


def test_branching_examples():
    h = WeightedHypergraph(4, {as_bits([1, 2]): 5, as_bits([3, 4]): 5})
    assert heaviest_k_section_branching(h, 4) == (MaskSet([1, 2, 3, 4]), 10)
    h = WeightedHypergraph(
        6, {as_bits([v]): w for v, w in ((1, 9), (2, 7), (3, 5), (4, 3), (5, 1), (6, 1))}
    )
    assert heaviest_k_section_branching(h, 4) == (MaskSet([1, 2, 3, 4]), 24)
    h = WeightedHypergraph(
        8,
        {
            as_bits([1, 2, 3, 4]): 9,
            as_bits([5]): 3,
            as_bits([6]): 3,
            as_bits([7]): 3,
            as_bits([8]): 3,
        },
    )
    assert heaviest_k_section_branching(h, 4) == (MaskSet([5, 6, 7, 8]), 12)


def test_dispatch_examples():
    h = build_hypergraph(t1(), "abab")
    assert heaviest_k_section(h, 0) == (MaskSet(), 1)
    assert heaviest_k_section(h, 2).weight == 3
    assert heaviest_k_section(h, 4).weight == 5
    with pytest.raises(ValueError):
        heaviest_k_section(h, 5)


def test_solver_oracle_equivalence_randomized():
    rng = random.Random(20240817)
    for _ in range(60):
        h = random_hypergraph(rng, max_nodes=10, max_edges=40, max_edge_size=5)
        for k in range(2, min(5, len(h.nodes)) + 1):
            expect = heaviest_k_section_bruteforce(h, k)
            if k == 2:
                got = heaviest_2_section(h)
            elif k == 3:
                got = heaviest_3_section(h)
            else:
                got = heaviest_k_section_branching(h, k)
            assert got.weight == expect.weight, (h.edges, k)
            if k <= 3:
                # the small-k algorithms also reproduce the lexicographic tie
                assert got.nodes == expect.nodes, (h.edges, k)
            assert section_weight(h, got.nodes) == got.weight


def test_dictionary_consistency_all_masks():
    rng = random.Random(7)
    for _ in range(20):
        inst = random_instance(rng, max_length=7, max_size=25, max_sigma=3)
        h = build_hypergraph(inst.dictionary, inst.query)
        for bits in range(1 << inst.dictionary.length):
            mask = MaskSet.from_bits(bits)
            assert section_weight(h, mask) == count_matches(
                inst.dictionary, mask_apply(inst.query, mask)
            )


def test_section_monotonicity():
    rng = random.Random(99)
    for _ in range(40):
        h = random_hypergraph(rng, max_nodes=8, max_edges=25, max_edge_size=4)
        full = (1 << h.node_count) - 1
        k = rng.getrandbits(h.node_count)
        k2 = k | rng.getrandbits(h.node_count)
        assert section_weight(h, MaskSet.from_bits(k & full)) <= section_weight(
            h, MaskSet.from_bits(k2 & full)
        )


def test_total_weight_accounts_for_every_entry():
    rng = random.Random(5)
    for _ in range(20):
        inst = random_instance(rng, max_length=8, max_size=30, max_sigma=4)
        h = build_hypergraph(inst.dictionary, inst.query)
        assert h.total_weight() == inst.dictionary.size


def test_rank_and_restriction():
    h = build_hypergraph(t1(), "abab")
    assert h.rank() == 2
    assert h.restricted(1).rank() == 1
    assert h.restricted(1).base_weight == h.base_weight


def test_dump_format_sorted_by_canonical_edge():
    h = build_hypergraph(t1(), "abab")
    dump = dump_hypergraph(h)
    assert dump["l"] == 4 and dump["base"] == 1
    assert [e["nodes"] for e in dump["edges"]] == [[1], [2, 4], [3], [4]]
    assert all(e["w"] == 1 for e in dump["edges"])


def test_zero_weight_edges_are_dropped():
    h = WeightedHypergraph(3, {0b001: 0, 0b010: 2})
    assert edge_map(h) == {(2,): 2}
    with pytest.raises(ValueError):
        WeightedHypergraph(3, {0b1000: 1})
    with pytest.raises(ValueError):
        WeightedHypergraph(3, {0: 1})
