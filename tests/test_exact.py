import random

import pytest

from pmdm import (
    Dictionary,
    InfeasibleThresholdError,
    KhvInstance,
    MaskSet,
    MpmdmInstance,
    PmdmInstance,
    bruteforce_pmdm,
    count_matches,
    decide_k_pmdm,
    mask_apply,
    solve_khv,
    solve_mpmdm,
    solve_pmdm,
)
from pmdm import exact
from pmdm.core import CapacityError

from support import (
    khv_feasible,
    oracle_count,
    oracle_mpmdm_size,
    oracle_optimum_size,
    random_instance,
    t1,
)


def test_solve_examples():
    assert solve_pmdm(PmdmInstance(t1(), "abab", 1)) == MaskSet()
    assert solve_pmdm(PmdmInstance(t1(), "abab", 4)) == MaskSet([1, 2, 4])
    assert solve_pmdm(PmdmInstance(t1(), "abab", 5)) == MaskSet([1, 2, 3, 4])


def test_solve_infeasible_threshold():
    with pytest.raises(InfeasibleThresholdError):
        solve_pmdm(PmdmInstance(t1(), "abab", 9))
    with pytest.raises(InfeasibleThresholdError):
        bruteforce_pmdm(PmdmInstance(t1(), "abab", 6))


def test_instance_validation():
    with pytest.raises(ValueError):
        PmdmInstance(t1(), "aba", 1)
    with pytest.raises(ValueError):
        PmdmInstance(t1(), "abab", 0)


def test_decide_examples():
    assert decide_k_pmdm(PmdmInstance(t1(), "abab", 2), 1)
    assert not decide_k_pmdm(PmdmInstance(t1(), "abab", 4), 2)
    # no mask at all can satisfy z > d or k beyond the string length
    assert not decide_k_pmdm(PmdmInstance(t1(), "abab", 9), 2)
    assert not decide_k_pmdm(PmdmInstance(t1(), "abab", 2), 7)


def test_bruteforce_trivial_cases():
    d = Dictionary(["bbbb"])
    assert bruteforce_pmdm(PmdmInstance(d, "aaaa", 1)) == MaskSet([1, 2, 3, 4])
    d = Dictionary(["abab", "abab", "baba"])
    assert bruteforce_pmdm(PmdmInstance(d, "abab", 2)) == MaskSet()


def test_bruteforce_budget_guard():
    inst = PmdmInstance(Dictionary(["bbbbbbbbbb"]), "aaaaaaaaaa", 1)
    with pytest.raises(CapacityError):
        bruteforce_pmdm(inst, budget=100)


def test_solver_agreement_randomized():
    rng = random.Random(52)
    for _ in range(120):
        inst = random_instance(rng, max_length=8, max_size=30, max_sigma=4)
        fast = solve_pmdm(inst)
        slow = bruteforce_pmdm(inst)
        assert len(fast) == len(slow)
        assert fast == slow  # both sides break ties identically
        # feasibility certified by the per-entry scan, not solver arithmetic
        assert oracle_count(inst.dictionary, inst.query, fast.bits) >= inst.threshold
        assert len(fast) == oracle_optimum_size(
            inst.dictionary, inst.query, inst.threshold
        )
        if len(fast) >= 1:
            assert not decide_k_pmdm(inst, len(fast) - 1)


def test_khv_examples():
    assert solve_khv(KhvInstance([(1, 0), (0, 1), (1, 1)], (1, 1), 1)) == [2]
    assert solve_khv(KhvInstance([(1, 0), (0, 1)], (0, 0), 0)) == []
    assert solve_khv(KhvInstance([(1, 0), (1, 0)], (0, 1), 2)) is None


def test_khv_validation():
    with pytest.raises(ValueError):
        KhvInstance([(1, 0)], (1,), 1)
    with pytest.raises(ValueError):
        KhvInstance([(1,)], (1,), 2)


def test_khv_against_enumeration():
    rng = random.Random(31)
    for _ in range(150):
        m = rng.randint(1, 3)
        t = rng.randint(0, 10)
        z = rng.randint(1, 6)
        vectors = [
            tuple(rng.randint(0, z) for _ in range(m)) for _ in range(t)
        ]
        target = tuple(rng.randint(0, z) for _ in range(m))
        count = rng.randint(0, t)
        inst = KhvInstance(vectors, target, count)
        found = solve_khv(inst)
        assert (found is not None) == khv_feasible(vectors, target, count)
        if found is not None:
            assert len(found) == count
            assert len(set(found)) == count
            sums = [sum(vectors[i][j] for i in found) for j in range(m)]
            assert all(s >= x for s, x in zip(sums, target))


def test_mpmdm_examples():
    d = Dictionary(["aa", "ab", "ba"])
    assert solve_mpmdm(MpmdmInstance(d, ["aa", "bb"], 2)) == MaskSet([1, 2])
    d = Dictionary(["ab", "ab", "cb"])
    assert solve_mpmdm(MpmdmInstance(d, ["ab", "cb"], 2)) == MaskSet([1])


def test_mpmdm_single_query_degenerates_to_pmdm():
    rng = random.Random(11)
    for _ in range(60):
        inst = random_instance(rng, max_length=7, max_size=20, max_sigma=3)
        multi = MpmdmInstance(inst.dictionary, [inst.query], inst.threshold)
        assert solve_mpmdm(multi) == solve_pmdm(inst)


def test_mpmdm_against_enumeration():
    rng = random.Random(77)
    for _ in range(60):
        base = random_instance(rng, max_length=7, max_size=18, max_sigma=3)
        d = base.dictionary
        m = rng.randint(1, 3)
        letters = sorted(d.alphabet())
        queries = []
        for _ in range(m):
            if rng.random() < 0.6:
                queries.append(d[rng.randrange(d.size)])
            else:
                queries.append(
                    "".join(rng.choice(letters) for _ in range(d.length))
                )
        inst = MpmdmInstance(d, queries, base.threshold)
        mask = solve_mpmdm(inst)
        assert len(mask) == oracle_mpmdm_size(d, queries, inst.threshold)
        for q in queries:
            assert (
                count_matches(d, mask_apply(q, mask)) >= inst.threshold
            )
        # one shared mask can never beat the best single-query masks
        for q in queries:
            single = solve_pmdm(PmdmInstance(d, q, inst.threshold))
            assert len(mask) >= len(single)


def test_mpmdm_branching_path_agrees_with_enumeration(monkeypatch):
    # at these lengths the subset-count table would answer before
    # enum_budget is read, so force the hypergraph path
    monkeypatch.setattr(exact, "TABLE_MAX_LENGTH", 0)
    rng = random.Random(41)
    for _ in range(25):
        base = random_instance(rng, max_length=7, max_size=15, max_sigma=3)
        d = base.dictionary
        queries = [d[rng.randrange(d.size)] for _ in range(2)]
        inst = MpmdmInstance(d, queries, base.threshold)
        via_enum = solve_mpmdm(inst)
        via_branch = solve_mpmdm(inst, enum_budget=0)
        assert len(via_enum) == len(via_branch)
        for q in queries:
            assert count_matches(d, mask_apply(q, via_branch)) >= inst.threshold


def test_mpmdm_validation():
    d = Dictionary(["aa", "ab"])
    with pytest.raises(ValueError):
        MpmdmInstance(d, [], 1)
    with pytest.raises(ValueError):
        MpmdmInstance(d, ["aaa"], 1)
    with pytest.raises(InfeasibleThresholdError):
        solve_mpmdm(MpmdmInstance(d, ["aa"], 3))
