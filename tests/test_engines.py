"""Differential tests between the two exact engines.

Strings of at most ``TABLE_MAX_LENGTH`` positions are answered from the
subset-count table; patching that constant to 0 sends the same instances
down the kept-set search, the long-string engine of every entry point, so
both engines can be compared on one instance and each against the
independent oracles in ``support``.
"""

import random

import pytest

from pmdm import (
    Dictionary,
    MpmdmInstance,
    PmdmInstance,
    baseline_pmdm,
    decide_k_pmdm,
    greedy_pmdm,
    mismatch_masks,
    solve_mpmdm,
    solve_pmdm,
)
from pmdm import exact

from support import (
    oracle_count,
    oracle_mpmdm,
    oracle_mpmdm_size,
    oracle_optimum_size,
    random_instance,
)


def both_engines(monkeypatch, solve, *args, **kwargs):
    """``solve`` answered by the table engine, then by the long-string one."""
    table = solve(*args, **kwargs)
    with monkeypatch.context() as mp:
        mp.setattr(exact, "TABLE_MAX_LENGTH", 0)
        search = solve(*args, **kwargs)
    return table, search


def non_ascii_instance(rng) -> PmdmInstance:
    letters = "αβ日😀"[: rng.randint(2, 4)]
    length = rng.randint(1, 8)
    pool = ["".join(rng.choice(letters) for _ in range(length)) for _ in range(rng.randint(1, 6))]
    # sampling a small pool with replacement gives duplicate entries
    d = Dictionary(rng.choice(pool) for _ in range(rng.randint(1, 25)))
    query = "".join(rng.choice(letters) for _ in range(length))
    z = d.size if rng.random() < 0.3 else rng.randint(1, d.size)
    return PmdmInstance(d, query, z)


def instances(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        if i % 3 == 0:
            yield rng, non_ascii_instance(rng)
            continue
        inst = random_instance(rng, max_length=9, max_size=30, max_sigma=4)
        if i % 5 == 1:
            inst = PmdmInstance(inst.dictionary, inst.query, inst.dictionary.size)
        yield rng, inst


def other_queries(rng, d: Dictionary, query: str, m: int) -> list[str]:
    letters = sorted(d.alphabet() | set(query))
    queries = [query]
    while len(queries) < m:
        if rng.random() < 0.6:
            queries.append(d[rng.randrange(d.size)])
        else:
            queries.append("".join(rng.choice(letters) for _ in range(d.length)))
    return queries


def test_single_query_engines_agree_with_bruteforce(monkeypatch):
    for _, inst in instances(seed=2024, count=150):
        table, search = both_engines(monkeypatch, solve_pmdm, inst)
        assert table == search == oracle_mpmdm(inst.dictionary, [inst.query], inst.threshold)
        assert len(table) == oracle_optimum_size(inst.dictionary, inst.query, inst.threshold)
        assert oracle_count(inst.dictionary, inst.query, table.bits) >= inst.threshold
        for k in {0, len(table) - 1, len(table)} - {-1}:
            table_says, search_says = both_engines(monkeypatch, decide_k_pmdm, inst, k)
            assert table_says == search_says == (k == len(table))


def test_multi_query_engines_agree_with_oracle(monkeypatch):
    for rng, inst in instances(seed=77, count=90):
        d = inst.dictionary
        queries = other_queries(rng, d, inst.query, rng.randint(1, 3))
        multi = MpmdmInstance(d, queries, inst.threshold)
        size = oracle_mpmdm_size(d, queries, inst.threshold)
        table, search = both_engines(monkeypatch, solve_mpmdm, multi)
        # the table and the kept-set search rank ties alike, so even masks agree
        assert table == search == oracle_mpmdm(d, queries, inst.threshold)
        assert len(table) == size
        for q in queries:
            assert oracle_count(d, q, table.bits) >= inst.threshold


def test_single_query_multi_equals_pmdm_on_both_engines(monkeypatch):
    for _, inst in instances(seed=11, count=90):
        multi = MpmdmInstance(inst.dictionary, [inst.query], inst.threshold)
        table_multi, search_multi = both_engines(monkeypatch, solve_mpmdm, multi)
        table_single, search_single = both_engines(monkeypatch, solve_pmdm, inst)
        assert table_multi == table_single
        assert search_multi == search_single


def near_instance(seed: int, length: int, size: int = 40):
    """Entries within three flips of the query, and a threshold some entry's
    own mismatch set reaches, so the optimum has at most three positions."""
    rng = random.Random(seed)
    query = "".join(rng.choice("ab") for _ in range(length))
    entries = []
    for _ in range(size):
        chars = list(query)
        for p in rng.sample(range(length), rng.randint(0, 3)):
            chars[p] = "c" if chars[p] != "c" else "a"
        entries.append("".join(chars))
    d = Dictionary(entries)
    witness = int(mismatch_masks(d, query)[rng.randrange(size)])
    return d, query, oracle_count(d, query, witness)


@pytest.mark.parametrize("length", [20, 21])
def test_engines_at_the_length_boundary(monkeypatch, length):
    assert (length <= exact.TABLE_MAX_LENGTH) == (length == 20)
    d, query, z = near_instance(seed=length, length=length)
    inst = PmdmInstance(d, query, z)
    table, search = both_engines(monkeypatch, solve_pmdm, inst)
    assert table == search == oracle_mpmdm(d, [query], z)
    assert len(table) == oracle_optimum_size(d, query, z)
    queries = [query, d[0]]
    multi = MpmdmInstance(d, queries, 2)
    assert len(solve_mpmdm(multi)) == oracle_mpmdm_size(d, queries, 2)


def flipped(query: str, positions) -> str:
    chars = list(query)
    for p in positions:
        chars[p - 1] = "c"
    return "".join(chars)


def test_length_64_all_solvers():
    # bit 63 used to come back negative and every solver raised on it
    rng = random.Random(64)
    query = "".join(rng.choice("ab") for _ in range(64))
    mismatch_sets = [{64}, {64}, {63, 64}, {1, 64}, {1}, {2, 3}, {10, 20, 64}, {30}]
    d = Dictionary(flipped(query, s) for s in mismatch_sets)
    masks = mismatch_masks(d, query)
    assert masks.dtype == "uint64" and int(masks[0]) == 1 << 63
    for z in range(1, 6):
        inst = PmdmInstance(d, query, z)
        size = oracle_optimum_size(d, query, z)
        mask = solve_pmdm(inst)
        assert len(mask) == size
        assert oracle_count(d, query, mask.bits) >= z
        assert decide_k_pmdm(inst, size)
        assert not decide_k_pmdm(inst, size - 1)
        assert solve_mpmdm(MpmdmInstance(d, [query], z)) == mask
        greedy = greedy_pmdm(inst).mask
        assert oracle_count(d, query, greedy.bits) >= z
        assert len(greedy) == size  # greedy is exact while the optimum is within tau=3
        baseline = baseline_pmdm(inst).mask
        assert oracle_count(d, query, baseline.bits) >= z
    # ties at size 3 go to the lexicographically smallest position list
    assert solve_pmdm(PmdmInstance(d, query, 5)).positions == (1, 30, 64)
    queries = [query, d[0]]
    shared = solve_mpmdm(MpmdmInstance(d, queries, 3))
    assert len(shared) == oracle_mpmdm_size(d, queries, 3)
    for q in queries:
        assert oracle_count(d, q, shared.bits) >= 3
