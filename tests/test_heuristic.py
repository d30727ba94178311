import math
import random
from fractions import Fraction

import pytest

import pmdm.heuristic
from pmdm import (
    Dictionary,
    GreedyConfig,
    InfeasibleThresholdError,
    MaskSet,
    PmdmInstance,
    baseline_pmdm,
    greedy_pmdm,
    preprocess,
)
from pmdm.heuristic import _scores

from support import (
    as_bits,
    edge_dict,
    hypergraph_of,
    oracle_count,
    oracle_optimum_size,
    random_hypergraph,
    random_instance,
    reference_baseline,
    reference_greedy,
    reference_node_scores,
    reference_preprocess,
    t1,
)


def edge_map(h):
    return {MaskSet.from_bits(b).positions: w for b, w in edge_dict(h).items()}


def node_scores(h):
    """``heuristic._scores`` of a hypergraph as (position, Fraction) pairs."""
    return [(u, Fraction(num, den)) for u, num, den in _scores(h.edges, h.weights, h.node_count)]


def test_preprocess_noop_when_small_edge_exists():
    h = hypergraph_of(3, {as_bits([1]): 2, as_bits([1, 2, 3]): 1})
    h2, removed = preprocess(h, 1)
    assert removed == MaskSet() and h2 is h


def test_preprocess_noop_without_edges():
    h = hypergraph_of(3, {})
    h2, removed = preprocess(h, 1)
    assert removed == MaskSet() and h2 is h


def test_preprocess_score_driven_removal():
    # s(1) = 2 * (4/4) = 2, s(2) = 1 * (1/2), s(3) = 1 * (3/2): node 1 goes
    h = hypergraph_of(3, {as_bits([1, 2]): 1, as_bits([1, 3]): 3})
    h2, removed = preprocess(h, 1)
    assert removed == MaskSet([1])
    assert edge_map(h2) == {(2,): 1, (3,): 3}
    assert h2.base_weight == h.base_weight


def test_preprocess_tie_breaks_on_position_until_small_edge():
    h = hypergraph_of(3, {as_bits([1, 2, 3]): 1})
    h2, removed = preprocess(h, 1)
    assert removed == MaskSet([1, 2])
    assert edge_map(h2) == {(3,): 1}


def test_preprocess_merges_colliding_edges():
    h = hypergraph_of(3, {as_bits([1, 2]): 2, as_bits([2]): 3, as_bits([1, 2, 3]): 1})
    h2, removed = preprocess(h, 1)
    assert removed == MaskSet() and h2 is h  # singleton {2} already present

    # s(1) = 2*(18/6) = 6 dominates; dropping node 1 collapses {1,2,3} onto
    # {2,3} (weights sum), then node 2 goes (s = 5) leaving a singleton
    h = hypergraph_of(
        5, {as_bits([1, 2, 3]): 9, as_bits([2, 3]): 1, as_bits([1, 4, 5]): 9}
    )
    h2, removed = preprocess(h, 1)
    assert removed == MaskSet([1, 2])
    assert edge_map(h2) == {(3,): 10, (4, 5): 9}

    h = hypergraph_of(2, {as_bits([1, 2]): 5})
    h2, removed = preprocess(h, 1)
    assert removed == MaskSet([1])
    assert edge_map(h2) == {(2,): 5}


def test_node_scores_values():
    h = hypergraph_of(3, {as_bits([1, 2]): 1, as_bits([1, 3]): 3})
    scores = dict(node_scores(h))
    assert scores == {1: Fraction(2), 2: Fraction(1, 2), 3: Fraction(3, 2)}


def test_greedy_optimal_within_budget_on_t1():
    result = greedy_pmdm(PmdmInstance(t1(), "abab", 4), GreedyConfig(tau=3))
    assert len(result.mask) == 3
    assert result.iterations == 1


def test_greedy_full_mask_when_everything_needed():
    d = Dictionary(["aaaa", "bbbb"])
    result = greedy_pmdm(PmdmInstance(d, "abab", 2), GreedyConfig(tau=2))
    assert result.mask == MaskSet([1, 2, 3, 4])


def test_greedy_zero_iterations_when_query_frequent():
    d = Dictionary(["abab", "abab", "bbbb"])
    result = greedy_pmdm(PmdmInstance(d, "abab", 2), GreedyConfig(tau=1))
    assert result.mask == MaskSet() and result.iterations == 0


def test_greedy_infeasible():
    with pytest.raises(InfeasibleThresholdError):
        greedy_pmdm(PmdmInstance(t1(), "abab", 6), GreedyConfig(tau=3))
    with pytest.raises(ValueError):
        GreedyConfig(tau=0)


def test_greedy_exact_when_optimum_within_budget():
    rng = random.Random(60)
    for _ in range(150):
        inst = random_instance(rng, max_length=8, max_size=25, max_sigma=3, max_z=8)
        optimum = oracle_optimum_size(inst.dictionary, inst.query, inst.threshold)
        tau = rng.randint(1, 4)
        result = greedy_pmdm(inst, GreedyConfig(tau=tau))
        assert oracle_count(inst.dictionary, inst.query, result.mask.bits) >= inst.threshold
        assert len(result.mask) >= optimum
        if optimum <= tau:
            assert len(result.mask) == optimum
        assert result.iterations <= math.ceil(inst.dictionary.length / tau)


def test_baseline_zero_size_checked_first():
    d = Dictionary(["abab", "abab"])
    result = baseline_pmdm(PmdmInstance(d, "abab", 2))
    assert result.mask == MaskSet() and result.iterations == 0


def test_baseline_on_t1():
    # scores: s(1) = s(3) = 1, s(2) = 1/2, s(4) = 2 * (2/3); node 4 wins and
    # masking it already matches abab and abaa
    result = baseline_pmdm(PmdmInstance(t1(), "abab", 2))
    assert result.mask == MaskSet([4])
    assert result.iterations == 1


def test_baseline_never_beats_bruteforce():
    rng = random.Random(61)
    for _ in range(120):
        inst = random_instance(rng, max_length=8, max_size=25, max_sigma=3)
        result = baseline_pmdm(inst)
        assert oracle_count(inst.dictionary, inst.query, result.mask.bits) >= inst.threshold
        assert len(result.mask) >= oracle_optimum_size(inst.dictionary, inst.query, inst.threshold)
        assert result.iterations == len(result.mask)


def test_heuristics_scan_the_codes_once(monkeypatch):
    calls = []
    original = pmdm.heuristic.mismatch_masks

    def counted(*args):
        calls.append(args)
        return original(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("rescans the dictionary")

    monkeypatch.setattr(pmdm.heuristic, "mismatch_masks", counted)
    monkeypatch.setattr(pmdm.heuristic, "count_matches", forbidden)
    monkeypatch.setattr(pmdm.heuristic, "build_hypergraph", forbidden)
    inst = PmdmInstance(t1(), "abab", 5)
    assert greedy_pmdm(inst, GreedyConfig(tau=1)).iterations > 1
    assert len(calls) == 1
    assert len(baseline_pmdm(inst).mask) > 1
    assert len(calls) == 2


ALPHABETS = ("ab", "abc", "abcd", "αβγ", "日本語字", "😀😃x")
LENGTHS = tuple(range(1, 13)) + (63, 64)


def _clustered_instance(rng, length):
    """Entries are noisy copies of a few centers, with duplicates."""
    letters = rng.choice(ALPHABETS)
    centers = [
        "".join(rng.choice(letters) for _ in range(length))
        for _ in range(rng.randint(1, 4))
    ]
    noise = rng.choice((0.1, 0.3, 0.6))

    def mutate(s):
        return "".join(rng.choice(letters) if rng.random() < noise else c for c in s)

    entries = [mutate(rng.choice(centers)) for _ in range(rng.randint(1, 25))]
    entries += rng.sample(entries, rng.randint(0, len(entries)))
    rng.shuffle(entries)
    query = rng.choice(entries) if rng.random() < 0.5 else mutate(rng.choice(centers))
    z = len(entries) if rng.random() < 0.2 else rng.randint(1, len(entries))
    return PmdmInstance(Dictionary(entries), query, z)


def test_heuristics_match_the_reference_randomized():
    rng = random.Random(63)
    for i in range(336):
        inst = _clustered_instance(rng, LENGTHS[i % len(LENGTHS)])
        cfg = GreedyConfig(tau=rng.randint(1, 4))
        got = greedy_pmdm(inst, cfg)
        assert got == reference_greedy(inst, cfg), (i, inst, cfg)
        assert got.iterations <= math.ceil(inst.dictionary.length / cfg.tau), i
        baseline = baseline_pmdm(inst)
        assert baseline == reference_baseline(inst), i
        for mask in (got.mask, baseline.mask):
            assert oracle_count(inst.dictionary, inst.query, mask.bits) >= inst.threshold, i


def test_preprocess_and_scores_match_the_reference_randomized():
    rng = random.Random(64)
    for _ in range(200):
        h = random_hypergraph(rng, max_nodes=64, max_edges=60, max_edge_size=8)
        assert node_scores(h) == reference_node_scores(edge_dict(h))
        k = rng.randint(1, 4)
        got, removed = preprocess(h, k)
        want, want_removed = reference_preprocess(h, k)
        assert removed == want_removed
        assert (edge_dict(got), got.base_weight, got.nodes) == (
            edge_dict(want), want.base_weight, want.nodes
        )


def test_reducing_to_k_then_to_k_minus_1_equals_reducing_to_k_minus_1():
    # greedy_pmdm reduces once per iteration, continuing from size k's edges
    # to k - 1's; every edge starts above k so that both steps delete nodes
    rng = random.Random(65)
    both_delete = 0
    for i in range(200):
        k = rng.randint(2, 4)
        h = random_hypergraph(
            rng, max_nodes=16, max_edges=30, max_edge_size=k + 4, min_edge_size=k + 1
        )
        first, removed_first = preprocess(h, k)
        second, removed_second = preprocess(first, k - 1)
        want, want_removed = reference_preprocess(h, k - 1)
        assert removed_first | removed_second == want_removed, i
        assert (edge_dict(second), second.base_weight, second.nodes) == (
            edge_dict(want), want.base_weight, want.nodes
        ), i
        both_delete += bool(removed_first) and bool(removed_second)
    assert both_delete >= 150
