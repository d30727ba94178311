import random

import numpy as np
import pytest

import pmdm.exact

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
from pmdm.cli import main
from pmdm.core import CapacityError
from pmdm.exact import subset_counts

from support import (
    khv_feasible,
    oracle_count,
    oracle_mpmdm,
    oracle_mpmdm_size,
    oracle_optimum_size,
    random_instance,
    reference_subset_counts,
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


def long_multi_instance(rng, length: int, near: bool) -> MpmdmInstance:
    """m = 1..3 queries of ``length`` > 20 positions whose optimal shared
    mask has at most three positions (``near``) or at least length - 3.

    Both draw a base string and up to three spots.  Near: the queries and
    ``reach`` entries differ from the base only on the spots, so masking
    the spots matches every such entry, and strays differ from it at one
    of three shared positions, so low thresholds make masks of one size
    tie.  Far: every entry agrees with the queries on the spots and
    elsewhere mostly holds a symbol no query has there.  Entries repeat,
    so duplicates are common.
    """
    letters = rng.choice(["abcd", "αβ日😀", "xyzwv"])
    m = rng.randint(1, 3)
    base = [rng.choice(letters) for _ in range(length)]
    spots = rng.sample(range(length), rng.randint(0, 3))
    if length == 64 and spots and 63 not in spots and rng.random() < 0.5:
        spots[0] = 63
    if near:
        def varied(share):
            chars = list(base)
            for p in spots:
                if rng.random() < share:
                    chars[p] = rng.choice(letters)
            return "".join(chars)

        # strays differ from the base at one of a few shared positions, so
        # masks of one size often tie on their counts
        shared = rng.sample(range(length), 3)

        def stray():
            chars = list(base)
            p = rng.choice(shared)
            chars[p] = rng.choice([c for c in letters if c != base[p]])
            return "".join(chars)

        queries = [varied(0.3) for _ in range(m)]
        pool = [varied(0.8) for _ in range(rng.randint(1, 5))]
        entries = [rng.choice(pool) for _ in range(rng.randint(2, 25))]
        reach = len(entries)
        strays = [stray() for _ in range(rng.randint(0, 8))]
        entries += strays + [rng.choice(strays) for _ in strays]
        z = reach if rng.random() < 0.4 else rng.randint(1, reach)
        if rng.random() < 0.5:
            z = min(z, len(strays) + 1)
    else:
        queries = []
        for _ in range(m):
            chars = [rng.choice(letters) for _ in range(length)]
            for p in spots:
                chars[p] = base[p]
            queries.append("".join(chars))

        def entry():
            chars = []
            for p in range(length):
                used = {q[p] for q in queries}
                if p in spots:
                    chars.append(base[p])
                elif rng.random() < 0.1:
                    chars.append(rng.choice(sorted(used)))
                else:
                    chars.append(rng.choice(sorted(set(letters) - used)))
            return "".join(chars)

        pool = [entry() for _ in range(rng.randint(4, 8))]
        entries = pool + [rng.choice(pool) for _ in range(rng.randint(0, 20))]
        z = len(entries) - rng.randint(0, 1)
    rng.shuffle(entries)
    return MpmdmInstance(Dictionary(entries), queries, z)


def test_mpmdm_long_strings_match_the_oracle():
    """Above l = 20: ``solve_mpmdm``, then ``solve_pmdm`` and
    ``decide_k_pmdm`` on the first query alone, against the oracle."""
    rng = random.Random(2)
    seen = {"z = d": 0, "non-ASCII": 0, "duplicates": 0, "64 masked": 0, "64 kept": 0,
            "absent query": 0, "bound 0": 0, "bound l": 0}
    sizes = set()
    for i in range(96):
        length = 64 if i % 4 == 0 else rng.randint(21, 63)
        near = i % 2 == 0
        inst = long_multi_instance(rng, length, near)
        d = inst.dictionary
        mask = solve_mpmdm(inst)
        assert mask == oracle_mpmdm(d, inst.queries, inst.threshold), i
        assert len(mask) <= 3 if near else len(mask) >= length - 3
        sizes.add(len(inst.queries))
        seen["z = d"] += inst.threshold == d.size
        seen["non-ASCII"] += not "".join(d).isascii()
        seen["duplicates"] += len(set(d)) < d.size
        if length == 64:
            seen["64 masked" if 64 in mask else "64 kept"] += 1
        q, z = inst.queries[0], inst.threshold
        if i % 6 == 2:
            # z exact copies of the query: the upper bound on the optimum,
            # the union of the z nearest entries' mismatches, is empty
            d = Dictionary(list(d) + [q] * z)
        single = solve_pmdm(PmdmInstance(d, q, z))
        assert single == oracle_mpmdm(d, [q], z), i
        for k in {0, len(single) - 1, len(single), length} - {-1}:
            assert decide_k_pmdm(PmdmInstance(d, q, z), k) == (k >= len(single)), (i, k)
        seen["absent query"] += q not in d
        seen["bound 0"] += list(d).count(q) >= z
        # all entries are the z nearest, and their mismatches cover every position
        seen["bound l"] += z == d.size and all(any(e[p] != q[p] for e in d) for p in range(length))
    assert sizes == {1, 2, 3}
    assert min(seen.values()) >= 3, seen


def test_mpmdm_long_string_ties():
    rng = random.Random(5)
    base = "".join(rng.choice("ab") for _ in range(64))

    def flipped(*positions):
        chars = list(base)
        for p in positions:
            chars[p - 1] = "c"
        return "".join(chars)

    entries = [flipped(64)] * 2 + [flipped(10)] * 2 + [flipped(40)] + [flipped(1, 2)] * 3
    queries = [base, flipped(5)]  # every entry differs from the second at 5
    d = Dictionary(entries)
    # {5, 10} and {5, 64} tie on size and on the sum of counts
    assert solve_mpmdm(MpmdmInstance(d, queries, 2)) == MaskSet([5, 10])
    # {5, 10, 64} matches 4 entries per query, {1, 2, 5} only 3
    assert solve_mpmdm(MpmdmInstance(d, queries, 3)) == MaskSet([5, 10, 64])
    for z in range(1, 6):  # optimum sizes 2..4
        assert solve_mpmdm(MpmdmInstance(d, queries, z)) == oracle_mpmdm(d, queries, z)


def test_mpmdm_validation():
    d = Dictionary(["aa", "ab"])
    with pytest.raises(ValueError):
        MpmdmInstance(d, [], 1)
    with pytest.raises(ValueError):
        MpmdmInstance(d, ["aaa"], 1)
    with pytest.raises(InfeasibleThresholdError):
        solve_mpmdm(MpmdmInstance(d, ["aa"], 3))


def kernel_masks(rng, length: int, rows: int, size: int) -> np.ndarray:
    """About 1.5 * ``size`` + 3 masks per row below 2^length, row r's
    tagged ``r << length``: random ones, repeats of them, the zero mask
    and the full mask twice."""
    full = (1 << length) - 1
    out = []
    for r in range(rows):
        drawn = [rng.getrandbits(length) for _ in range(size)]
        drawn += [0, full, full] + rng.choices(drawn, k=size // 2)
        out += [r << length | m for m in drawn]
    return np.array(out, dtype=np.uint64)


@pytest.mark.parametrize("length", range(1, 15))
def test_subset_counts_match_a_brute_force_count(length):
    rng = random.Random(length)
    for rows in (1, 2, 3):
        masks = kernel_masks(rng, length, rows, 3 * length)
        counts = subset_counts(masks, length, rows)
        assert counts.dtype == np.int32 and counts.shape == (rows << length,)
        cells = np.arange(1 << length, dtype=np.uint64)
        for r, row in enumerate(counts.reshape(rows, -1)):
            mine = masks[masks >> np.uint64(length) == r] & np.uint64((1 << length) - 1)
            # cell K counts the row's masks whose bits all lie in K
            assert np.array_equal(row, ((mine[None, :] & ~cells[:, None]) == 0).sum(axis=1))


@pytest.mark.parametrize("length", range(15, 21))
def test_subset_counts_match_the_per_bit_fold(length):
    """Above 2^16 cells a chunk no longer holds a whole table, and with
    three rows at l = 15 a chunk holds two rows and the last one half."""
    rng = random.Random(length)
    for rows in (1, 3):
        masks = kernel_masks(rng, length, rows, 3000)
        counts = subset_counts(masks, length, rows)
        assert counts.dtype == np.int32
        assert np.array_equal(counts, reference_subset_counts(masks, length, rows))


def test_kept_set_search_stops_at_its_visit_budget(monkeypatch, tmp_path, capsys):
    rng = random.Random(3)
    d = Dictionary("".join(rng.choice("ab") for _ in range(24)) for _ in range(60))
    query, z = d[0], 10
    assert len(solve_pmdm(PmdmInstance(d, query, z))) > 0  # within the default budget
    # the searches below visit about 460 and 330 nodes: above this budget
    # and below ten times it
    monkeypatch.setattr(pmdm.exact, "KEPT_SET_VISIT_BUDGET", 100)
    for call in (
        lambda: solve_pmdm(PmdmInstance(d, query, z)),
        lambda: solve_mpmdm(MpmdmInstance(d, [query, d[1]], z)),
    ):
        with pytest.raises(CapacityError, match="budget of 100 .*KEPT_SET_VISIT_BUDGET"):
            call()
    path = tmp_path / "d.txt"
    d.save(path)
    capsys.readouterr()
    assert main(["solve", "--dict", str(path), "--query", query, "--z", str(z)]) == 3
    assert "KEPT_SET_VISIT_BUDGET" in capsys.readouterr().err
