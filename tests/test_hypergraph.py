import random

import numpy as np
import pytest

import pmdm.heuristic
import pmdm.hypergraph
from pmdm import (
    CapacityError,
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

from support import (
    as_bits,
    edge_dict,
    hypergraph_of,
    random_hypergraph,
    random_instance,
    reference_section,
    t1,
)


def edge_map(h):
    return {MaskSet.from_bits(b).positions: w for b, w in edge_dict(h).items()}


def test_build_from_t1():
    h = build_hypergraph(t1(), "abab")
    assert h.base_weight == 1
    assert edge_map(h) == {(3,): 1, (2, 4): 1, (1,): 1, (4,): 1}


def test_build_duplicates_only_feed_base():
    d = Dictionary(["abab", "abab"])
    h = build_hypergraph(d, "abab")
    assert h.base_weight == 2 and not edge_dict(h)


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
    # C(20, 4) = 4 845 sets of 4 take two chunks of 2^16 probes (the
    # 12-position edge, in no 4-set, keeps positions 5..16 in the walk): a
    # tie across them keeps the first, a heavier set in the second one wins
    first, middle, last = as_bits([1, 2, 3, 4]), as_bits(range(5, 17)), as_bits([17, 18, 19, 20])
    h = hypergraph_of(20, {first: 1, middle: 1, last: 1})
    assert heaviest_k_section_bruteforce(h, 4) == (MaskSet([1, 2, 3, 4]), 1)
    h = hypergraph_of(20, {first: 1, middle: 1, last: 2})
    assert heaviest_k_section_bruteforce(h, 4) == (MaskSet([17, 18, 19, 20]), 2)
    # the 2^17 subsets of a 17-set take two blocks of 2^16 probes, and
    # each block holds one of the edges
    h = hypergraph_of(17, {as_bits(range(1, 18)): 2, as_bits([1]): 1}, base_weight=1)
    assert heaviest_k_section_bruteforce(h, 17) == (MaskSet(range(1, 18)), 4)


def test_two_section_examples():
    # best pair of the singleton weights 5, 3, 4 is {1, 3} at 5 + 4 = 9,
    # as the brute-force oracle confirms
    h = hypergraph_of(3, {as_bits([1]): 5, as_bits([2]): 3, as_bits([3]): 4})
    assert heaviest_k_section_bruteforce(h, 2) == (MaskSet([1, 3]), 9)
    assert heaviest_2_section(h) == (MaskSet([1, 3]), 9)
    h = hypergraph_of(3, {as_bits([1, 2]): 10, as_bits([3]): 4})
    assert heaviest_2_section(h) == (MaskSet([1, 2]), 10)
    h = hypergraph_of(4, {}, base_weight=7)
    assert heaviest_2_section(h) == (MaskSet([1, 2]), 7)


def test_three_section_examples():
    h = hypergraph_of(
        4, {as_bits([1, 2, 3]): 7, as_bits([1]): 1, as_bits([2]): 1, as_bits([3]): 1}
    )
    assert heaviest_3_section(h) == (MaskSet([1, 2, 3]), 10)
    h = hypergraph_of(
        4, {as_bits([1]): 5, as_bits([2]): 4, as_bits([3]): 3, as_bits([4]): 2}
    )
    assert heaviest_3_section(h).nodes == MaskSet([1, 2, 3])
    h = hypergraph_of(4, {as_bits([1, 2]): 6, as_bits([4]): 5})
    assert heaviest_3_section(h) == (MaskSet([1, 2, 4]), 11)


def test_branching_examples():
    h = hypergraph_of(4, {as_bits([1, 2]): 5, as_bits([3, 4]): 5})
    assert heaviest_k_section_branching(h, 4) == (MaskSet([1, 2, 3, 4]), 10)
    h = hypergraph_of(
        6, {as_bits([v]): w for v, w in ((1, 9), (2, 7), (3, 5), (4, 3), (5, 1), (6, 1))}
    )
    assert heaviest_k_section_branching(h, 4) == (MaskSet([1, 2, 3, 4]), 24)
    h = hypergraph_of(
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
    # closing the empty set picks {5, 6}; the edge {1, 2} ties with it later
    # and wins on the position list
    h = hypergraph_of(6, {as_bits([1, 2]): 2, as_bits([5]): 1, as_bits([6]): 1})
    assert heaviest_k_section_branching(h, 2) == (MaskSet([1, 2]), 2)


def test_dispatch_examples():
    h = build_hypergraph(t1(), "abab")
    assert heaviest_k_section(h, 0) == (MaskSet(), 1)
    assert heaviest_k_section(h, 2).weight == 3
    assert heaviest_k_section(h, 4).weight == 5
    with pytest.raises(ValueError):
        heaviest_k_section(h, 5)


def without_nodes(h, dropped):
    """``h`` after deleting ``dropped`` as the greedy does: their bits leave
    every edge, emptied edges feed the base weight, colliding edges merge,
    and the node set leaves them out."""
    gone = as_bits(dropped)
    edges, base = {}, h.base_weight
    for e, w in edge_dict(h).items():
        if e & ~gone:
            edges[e & ~gone] = edges.get(e & ~gone, 0) + w
        else:
            base += w
    nodes = tuple(v for v in h.nodes if v not in dropped)
    return hypergraph_of(h.node_count, edges, base, nodes)


def test_solver_oracle_equivalence_randomized():
    rng = random.Random(20240817)
    drop_rng = random.Random(3)
    solvers = {
        1: lambda h: heaviest_k_section(h, 1),
        2: heaviest_2_section,
        3: heaviest_3_section,
    }
    for _ in range(60):
        full = random_hypergraph(rng, max_nodes=10, max_edges=40, max_edge_size=5)
        dropped = drop_rng.sample(full.nodes, drop_rng.randint(1, len(full.nodes) - 1))
        for h in (full, without_nodes(full, dropped)):
            for k in range(1, min(5, len(h.nodes)) + 1):
                expect = reference_section(edge_dict(h), h.base_weight, h.nodes, k)
                assert heaviest_k_section_bruteforce(h, k) == expect, (h.edges, h.nodes, k)
                got = solvers[k](h) if k <= 3 else heaviest_k_section_branching(h, k)
                assert got.weight == expect.weight, (h.edges, h.nodes, k)
                if k <= 3:
                    # the small-k algorithms also reproduce the lexicographic tie
                    assert got.nodes == expect.nodes, (h.edges, h.nodes, k)
                assert got.nodes.issubset(MaskSet(h.nodes)), (h.edges, h.nodes, k)
                assert section_weight(h, got.nodes) == got.weight


def test_section_search_for_k_at_least_4_is_bounded(monkeypatch):
    # 40 nodes and k = 4: C(40, 4) * 2^4 = 1 462 240 is above
    # DEFAULT_BRUTE_BUDGET, so a sparse hypergraph goes to the branching
    # search and a dense one (more than 40^2 edges) to enumeration
    sparse = hypergraph_of(40, {as_bits([i, i + 1]): i for i in range(1, 40, 2)})
    # it visits the empty set, the 20 edges and their 190 pairs
    monkeypatch.setattr(pmdm.hypergraph, "BRANCHING_VISIT_BUDGET", 211)
    assert heaviest_k_section(sparse, 4) == (MaskSet([37, 38, 39, 40]), 37 + 39)
    monkeypatch.setattr(pmdm.hypergraph, "BRANCHING_VISIT_BUDGET", 210)
    with pytest.raises(CapacityError, match="BRANCHING_VISIT_BUDGET"):
        heaviest_k_section(sparse, 4)

    rng = random.Random(11)
    edges = {}
    while len(edges) <= 40 * 40:
        edges[as_bits(rng.sample(range(1, 41), rng.randint(1, 4)))] = 1
    dense = hypergraph_of(40, edges)
    enumerated = []
    monkeypatch.setattr(
        pmdm.hypergraph, "heaviest_k_section_bruteforce",
        lambda h, k: enumerated.append(k) or (MaskSet([1, 2, 3, 4]), 0),
    )
    monkeypatch.setattr(pmdm.hypergraph, "DENSE_BRUTE_CAP", 1_462_240)
    heaviest_k_section(dense, 4)
    assert enumerated == [4]
    monkeypatch.setattr(pmdm.hypergraph, "DENSE_BRUTE_CAP", 1_462_239)
    with pytest.raises(CapacityError, match="DENSE_BRUTE_CAP"):
        heaviest_k_section(dense, 4)
    assert enumerated == [4]


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
        assert h.base_weight + sum(edge_dict(h).values()) == inst.dictionary.size


def test_rank():
    h = build_hypergraph(t1(), "abab")
    assert max(bits.bit_count() for bits in edge_dict(h)) == 2


def test_dump_format_sorted_by_canonical_edge():
    h = build_hypergraph(t1(), "abab")
    dump = dump_hypergraph(h)
    assert dump["l"] == 4 and dump["base"] == 1
    assert [e["nodes"] for e in dump["edges"]] == [[1], [2, 4], [3], [4]]
    assert all(e["w"] == 1 for e in dump["edges"])


def test_zero_weight_edges_are_dropped():
    h = hypergraph_of(3, {0b001: 0, 0b010: 2})
    assert edge_map(h) == {(2,): 2}
    with pytest.raises(ValueError):
        hypergraph_of(3, {0b1000: 1})
    with pytest.raises(ValueError):
        hypergraph_of(3, {0: 1})
    with pytest.raises(ValueError):
        hypergraph_of(3, {0b100: 1}, nodes=(1, 2))
    # the arrays themselves: one refused input per rule
    for node_count, edges, weights, nodes, message in (
        (65, [], [], None, "node_count"),
        (64, [1 << 63, 1], [1, 1], None, "ascending"),
        (3, [0b010, 0b010], [1, 1], None, "ascending"),
        (3, [0, 0b010], [1, 1], None, "non-empty"),
        (3, [0b1000], [1], None, "outside"),
        (3, [0b100], [1], (1, 2), "outside"),
        (3, [0b001, 0b010], [1, -1], None, "non-negative"),
        (3, [0b001, 0b010], [2**52, 2**52], None, "2\\^53"),
        (3, [0b001], [1, 1], None, "one length"),
        (3, [], [], (2, 1), "nodes"),
        (3, [], [], (1, 4), "nodes"),
    ):
        with pytest.raises(ValueError, match=message):
            WeightedHypergraph(node_count, edges, weights, nodes=nodes)
    h = WeightedHypergraph(64, [1, 1 << 63], [0, 2], base_weight=5)
    assert h.edges.dtype == np.uint64 and h.weights.dtype == np.int64
    assert edge_dict(h) == {1 << 63: 2} and h.base_weight == 5
    assert heaviest_k_section(h, 1) == (MaskSet([64]), 7)


def test_edge_weights_total_below_2_to_the_53():
    """Deleting node 2 merges the two edges below into {1}, summing their
    weights in float64: a total of 2^53 would round, so it is refused,
    and the largest accepted total merges exactly."""
    with pytest.raises(ValueError, match="2\\^53"):
        WeightedHypergraph(2, [0b001, 0b011], [1, 2**53])
    h = WeightedHypergraph(2, [0b001, 0b011], [1, 2**53 - 2])
    values, weights, base = pmdm.heuristic._delete_node(h.edges, h.weights, h.base_weight, 2)
    assert values.tolist() == [0b001] and weights.tolist() == [2**53 - 1] and base == 0


def test_edge_arrays_matches_a_dict_grouping():
    rng = np.random.default_rng(25)
    cases = [np.zeros(0, dtype=np.uint64), np.zeros(3, dtype=np.uint64)]
    for _ in range(60):
        # few distinct masks, so repeats are common; zeros and bit 63 included
        pool = rng.integers(0, 1 << 63, size=int(rng.integers(1, 8)), dtype=np.uint64)
        pool[0] = 0
        pool[-1] |= np.uint64(1 << 63)
        cases.append(pool[rng.integers(0, pool.size, size=int(rng.integers(1, 50)))])
    for masks in cases:
        for weights in (None, rng.integers(0, 1000, size=masks.size)):
            expected: dict[int, int] = {}
            for i, mask in enumerate(masks.tolist()):
                expected[mask] = expected.get(mask, 0) + (1 if weights is None else int(weights[i]))
            values, totals, base = pmdm.hypergraph.edge_arrays(masks, weights)
            assert values.dtype == np.uint64 and totals.dtype == np.int64
            assert (values[1:] > values[:-1]).all() and 0 not in values.tolist()
            assert dict(zip(values.tolist(), totals.tolist())) == {
                m: w for m, w in expected.items() if m
            }
            assert type(base) is int and base == expected.get(0, 0)
