"""Acceptance suite: one test per criterion, at the stated sizes and bounds.

Each test prints a [acceptance] PASS line once its assertions hold, so a
verbose run doubles as the acceptance report.
"""

import math
import random
import time

import numpy as np

from pmdm import (
    GenConfig,
    GreedyConfig,
    KhvInstance,
    MpmdmInstance,
    MuInstance,
    PmdmInstance,
    baseline_pmdm,
    clique_to_pmdm,
    decide_k_pmdm,
    generate,
    greedy_pmdm,
    heaviest_2_section,
    heaviest_3_section,
    heaviest_k_section_branching,
    mu_to_pmdm,
    pmdm_to_mu,
    small_ell_build,
    small_ell_query,
    solve_khv,
    solve_mpmdm,
    solve_pmdm,
    split_build,
    split_counts,
    split_query,
    simple_build,
    simple_counts,
)

from support import (
    combination_bits,
    edge_dict,
    has_clique,
    khv_feasible,
    oracle_count,
    oracle_counts_all_masks,
    oracle_mpmdm,
    oracle_mpmdm_size,
    oracle_optimum_size,
    random_graph,
    random_hypergraph,
    random_instance,
    reference_mu,
    reference_section,
)


def _pass(criterion: int, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS — {detail}")


def test_criterion_1_exact_solver_oracle_suite():
    rng = random.Random(101)
    for _ in range(500):
        inst = random_instance(rng, max_length=10, max_size=40, max_sigma=4)
        fast = solve_pmdm(inst)
        assert fast == oracle_mpmdm(inst.dictionary, [inst.query], inst.threshold)
        assert oracle_count(inst.dictionary, inst.query, fast.bits) >= inst.threshold
        if len(fast) >= 1:
            assert not decide_k_pmdm(inst, len(fast) - 1)
    _pass(1, "500 instances: solve = enumeration oracle, feasible, minimal")


def test_criterion_2_section_solver_equivalence():
    rng = random.Random(202)
    checked = 0
    for _ in range(300):
        h = random_hypergraph(rng, max_nodes=15, max_edges=200, max_edge_size=5)
        n = len(h.nodes)

        def reference(k):
            return reference_section(edge_dict(h), h.base_weight, h.nodes, k)

        assert heaviest_2_section(h).weight == reference(2).weight
        if n >= 3:
            assert heaviest_3_section(h).weight == reference(3).weight
        for k in (4, 5):
            if n >= k:
                assert heaviest_k_section_branching(h, k).weight == reference(k).weight
                checked += 1
    assert checked >= 300
    _pass(2, "300 hypergraphs: k=2,3 enumeration and k=4,5 branching match the reference")


def test_criterion_3_index_agreement():
    rng = random.Random(303)
    for i in range(100):
        length = rng.randint(2, 12)
        size = max(1, int(10 ** rng.uniform(0, 3)))
        sigma = rng.randint(2, 4)
        letters = "abcd"[:sigma]
        from pmdm import Dictionary

        d = Dictionary(
            "".join(rng.choice(letters) for _ in range(length))
            for _ in range(size)
        )
        q = d[rng.randrange(d.size)] if rng.random() < 0.7 else "".join(
            rng.choice(letters) for _ in range(length)
        )
        expected = oracle_counts_all_masks(d, q)

        table = small_ell_build(d, q)
        assert (table == expected).all()

        for k in range(1, d.length + 1):
            idx = simple_build(d, k, 1)
            assert (simple_counts(idx, q) == expected[combination_bits(d.length, k)]).all()

        taus = sorted({1, max(1, math.isqrt(d.size)), d.size})
        zs = sorted({1, rng.randint(1, d.size), d.size})
        for tau in taus:
            split = split_build(d, tau)
            assert (split_counts(split, q) == expected).all()
            for z in zs:
                mask = split_query(split, q, z)
                assert mask == small_ell_query(table, z)
    _pass(3, "100 instances: full-table, fixed-size and half-split agree with the scan")


def test_criterion_4_clique_reduction():
    rng = random.Random(404)
    for _ in range(200):
        graph = random_graph(rng, max_nodes=12, p=0.5)
        for k in range(2, 6):
            inst = clique_to_pmdm(graph, k)
            assert inst.threshold == k * (k - 1) // 2
            assert decide_k_pmdm(inst, k) == has_clique(graph, k)
    _pass(4, "200 graphs x k in [2,5]: decision matches brute-force clique search")


def test_criterion_5_minimum_union_round_trips():
    worked = MuInstance(
        5, [{1}, {1, 2, 3}, {1, 3, 5}, {3}, {3, 4, 5}, {4}, {4, 5}, {5}], 4
    )
    assert len(reference_mu(worked).union) == 3
    assert len(solve_pmdm(mu_to_pmdm(worked))) == 3

    rng = random.Random(505)
    for _ in range(100):
        inst = random_instance(rng, max_length=8, max_size=12, max_sigma=3)
        assert len(reference_mu(pmdm_to_mu(inst)).union) == oracle_optimum_size(
            inst.dictionary, inst.query, inst.threshold
        )
    for _ in range(100):
        universe = rng.randint(1, 8)
        d = rng.randint(1, 12)
        sets = [
            {e for e in range(1, universe + 1) if rng.random() < 0.3}
            for _ in range(d)
        ]
        mu = MuInstance(universe, sets, rng.randint(1, d))
        assert len(solve_pmdm(mu_to_pmdm(mu))) == len(reference_mu(mu).union)
    _pass(5, "worked instance union = 3; 200 round trips preserve optimum sizes")


def test_criterion_6_vector_dp_and_multi_query():
    rng = random.Random(606)
    for _ in range(200):
        m = rng.randint(1, 3)
        t = rng.randint(0, 15)
        z = rng.randint(1, 6)
        vectors = [tuple(rng.randint(0, z) for _ in range(m)) for _ in range(t)]
        target = tuple(rng.randint(0, z) for _ in range(m))
        count = rng.randint(0, t)
        assert (
            solve_khv(KhvInstance(vectors, target, count)) is not None
        ) == khv_feasible(vectors, target, count)

    for _ in range(100):
        base = random_instance(rng, max_length=8, max_size=20, max_sigma=3)
        d = base.dictionary
        letters = sorted(d.alphabet())
        queries = [
            d[rng.randrange(d.size)]
            if rng.random() < 0.6
            else "".join(rng.choice(letters) for _ in range(d.length))
            for _ in range(rng.randint(1, 3))
        ]
        inst = MpmdmInstance(d, queries, base.threshold)
        mask = solve_mpmdm(inst)
        assert len(mask) == oracle_mpmdm_size(d, queries, inst.threshold)
        for q in queries:
            assert oracle_count(d, q, mask.bits) >= inst.threshold

    for _ in range(100):
        single = random_instance(rng, max_length=8, max_size=20, max_sigma=3)
        multi = MpmdmInstance(single.dictionary, [single.query], single.threshold)
        assert solve_mpmdm(multi) == solve_pmdm(single)
    _pass(6, "vector DP matches enumeration; multi-query optimal; m=1 equals single")


def test_criterion_7_greedy_quality_on_clustered_data():
    dictionary = generate(
        GenConfig(
            size=10_000, length=15, alphabet_size=26, seed=42,
            mode="clustered", centers=60, mutation_rate=0.15,
        )
    )
    picks = np.random.default_rng(3).integers(0, dictionary.size, size=100)
    for z in (10, 50):
        optimal, greedy, baseline = [], [], []
        for pick in picks:
            inst = PmdmInstance(dictionary, dictionary[int(pick)], z)
            optimal.append(len(solve_pmdm(inst)))
            for result, sizes in (
                (greedy_pmdm(inst, GreedyConfig(tau=3)), greedy),
                (baseline_pmdm(inst), baseline),
            ):
                assert oracle_count(dictionary, inst.query, result.mask.bits) >= z
                sizes.append(len(result.mask))
        # relative error (size - optimum) / optimum, over positive optima
        errors = [(g - k) / k for g, k in zip(greedy, optimal) if k >= 1]
        assert len(errors) >= 30, "too few reference optima to compare"
        assert sum(errors) / len(errors) <= 0.25
        assert sum(greedy) <= sum(baseline)
    _pass(7, "d=10^4, z in {10,50}: AvgRE(GR3) <= 0.25 and AvgSS(GR3) <= AvgSS(BA)")


def test_criterion_8_greedy_exactness_regime():
    rng = random.Random(808)
    checks = 0
    while checks < 1000:
        inst = random_instance(rng, max_length=8, max_size=25, max_sigma=3, max_z=8)
        optimum = oracle_optimum_size(inst.dictionary, inst.query, inst.threshold)
        tau = rng.randint(1, 4)
        if optimum > tau:
            continue
        result = greedy_pmdm(inst, GreedyConfig(tau=tau))
        assert len(result.mask) == optimum
        checks += 1
    _pass(8, "1000 checks: greedy returns the optimum whenever it fits the budget")


def test_criterion_9_scaling_smoke():
    sizes = (1_000, 10_000, 100_000)
    times = []
    for d in sizes:
        dictionary = generate(
            GenConfig(
                size=d, length=15, alphabet_size=26, seed=7,
                mode="clustered", centers=max(1, d // 100), mutation_rate=0.1,
            )
        )
        rng = np.random.default_rng(17)
        picks = rng.integers(0, dictionary.size, size=6)
        per_query = []
        for pick in picks:
            inst = PmdmInstance(dictionary, dictionary[int(pick)], 10)
            start = time.perf_counter()
            result = greedy_pmdm(inst, GreedyConfig(tau=3))
            per_query.append(time.perf_counter() - start)
            assert oracle_count(dictionary, inst.query, result.mask.bits) >= 10
        times.append(sorted(per_query)[len(per_query) // 2])
    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    assert slope < 2.0, f"greedy time grew super-quadratically: slope {slope:.2f}"
    _pass(9, f"greedy scales sub-quadratically in d (log-log slope {slope:.2f})")
