import random
import sys
import threading

import numpy as np
import pytest

import pmdm.exact

from pmdm import (
    Dictionary,
    GenConfig,
    InfeasibleThresholdError,
    KhvInstance,
    MaskSet,
    MpmdmInstance,
    PmdmInstance,
    baseline_pmdm,
    count_matches,
    decide_k_pmdm,
    generate,
    greedy_pmdm,
    mask_apply,
    small_ell_build,
    small_ell_query,
    solve_khv,
    solve_mpmdm,
    solve_pmdm,
)
from pmdm.cli import main
from pmdm.core import CapacityError
from pmdm.exact import _best_in_table, subset_counts

from support import (
    khv_feasible,
    oracle_count,
    oracle_mismatch_bits,
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
    # the full mask, and the empty one, against the enumeration oracle too
    for entries, query, z, want in (
        (["bbbb"], "aaaa", 1, MaskSet([1, 2, 3, 4])),
        (["abab", "abab", "baba"], "abab", 2, MaskSet()),
    ):
        d = Dictionary(entries)
        assert solve_pmdm(PmdmInstance(d, query, z)) == want
        assert oracle_mpmdm(d, [query], z) == want


def test_solver_agreement_randomized():
    rng = random.Random(52)
    for _ in range(120):
        inst = random_instance(rng, max_length=8, max_size=30, max_sigma=4)
        fast = solve_pmdm(inst)
        slow = oracle_mpmdm(inst.dictionary, [inst.query], inst.threshold)
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


@pytest.mark.parametrize(
    "vectors, target, count, picks",
    [
        ([(1, 0), (0, 1), (1, 1), (1, 1)], (1, 1), 1, [3]),
        ([(1, 0), (0, 1), (1, 1), (1, 1)], (1, 1), 2, [1, 3]),
        ([(2, 1), (1, 2), (2, 2), (0, 3), (3, 0)], (3, 3), 2, [1, 2]),
        ([(1, 1), (1, 1), (1, 1), (1, 1)], (2, 2), 2, [2, 3]),
        ([(0, 0), (1, 1)], (0, 0), 0, []),
        ([(5,), (3,), (4,), (5,)], (5,), 1, [3]),
        ([(1,), (2,), (3,), (1,), (2,)], (4,), 2, [2, 4]),
        ([(2,), (2,), (2,)], (0,), 3, [0, 1, 2]),
        ([(1, 2, 0), (0, 1, 2), (2, 0, 1), (1, 1, 1), (2, 2, 2)], (2, 2, 2), 2, [1, 4]),
        ([(1, 0, 3), (0, 1, 3), (1, 1, 0), (1, 1, 5)], (1, 1, 3), 1, [3]),
        ([(3, 1), (1, 3), (2, 2), (2, 2), (3, 3)], (4, 4), 2, [1, 4]),
        ([(0, 5), (5, 0), (1, 4), (4, 1)], (5, 5), 3, [0, 2, 3]),
        ([(1, 1), (2, 2)], (5, 5), 2, None),
        ([(2, 2), (1, 1)], (0, 0), 1, [0]),
        ([(1,), (1,), (1,), (1,)], (2,), 2, [2, 3]),
        ([(0, 3, 1), (3, 0, 1), (1, 1, 1), (2, 2, 2), (3, 3, 0)], (3, 3, 1), 2, [2, 3]),
    ],
)
def test_khv_picks_are_pinned(vectors, target, count, picks):
    # most of these have several valid picks; the DP's sorted walk and strict
    # updates choose the listed one
    assert solve_khv(KhvInstance(vectors, target, count)) == picks


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


def test_multi_query_tables_past_the_table_limit_take_the_kept_set_search(monkeypatch):
    """Queries whose tables together would hold more than
    2^``DEFAULT_TABLE_LIMIT`` counters are answered without filling any."""
    rng = random.Random(9)
    d = Dictionary("".join(rng.choice("abc") for _ in range(10)) for _ in range(40))
    queries = [d[0], d[1], "".join(rng.choice("abc") for _ in range(10))]
    original = pmdm.exact.subset_counts
    calls = []

    def spy(masks, length):
        calls.append(length)
        return original(masks, length)

    monkeypatch.setattr(pmdm.exact, "subset_counts", spy)
    # two tables of 2^10 counters fit in 2^11, three do not
    monkeypatch.setattr(pmdm.exact, "DEFAULT_TABLE_LIMIT", 11)
    for z in (1, 3, 12, 40):
        calls.clear()
        assert solve_mpmdm(MpmdmInstance(d, queries[:2], z)) == oracle_mpmdm(d, queries[:2], z)
        assert calls == [10, 10]
        calls.clear()
        assert solve_mpmdm(MpmdmInstance(d, queries, z)) == oracle_mpmdm(d, queries, z)
        assert calls == []


def test_kept_set_search_matches_the_full_table_in_the_middle_band(monkeypatch):
    """30 seeded clustered instances at l in {21, 22}, d <= 1 000, sigma in
    {2, 4, 10} and z drawn log-uniformly from 2 to d/2: the kept-set
    search, which answers every l above ``TABLE_MAX_LENGTH`` = 20, gives
    the very mask of the full table of 2^l subset counts, which answers
    once the limit is patched to 22.  The two share only the mismatch
    scan and ``lex_smaller``; most optima lie in the band between 4 and
    l - 4, where the search branches."""
    rng = random.Random(12)
    instances, middle = [], 0
    for i in range(30):
        size = rng.choice((200, 500, 1000))
        cfg = GenConfig(size=size, length=(21, 22)[i % 2], alphabet_size=(2, 4, 10)[i % 3],
                        seed=i, mode="clustered", centers=rng.choice((3, 10, 30)),
                        mutation_rate=rng.choice((0.2, 0.35, 0.5)))
        d = generate(cfg)
        instances.append(PmdmInstance(d, d[rng.randrange(size)], round(2 * (size / 4) ** rng.random())))
    searched = [solve_pmdm(inst) for inst in instances]
    monkeypatch.setattr(pmdm.exact, "TABLE_MAX_LENGTH", 22)
    for inst, mask in zip(instances, searched):
        assert solve_pmdm(inst) == mask, inst.threshold
        middle += 4 <= len(mask) <= inst.dictionary.length - 4
    assert middle >= 15


def relabel_columns(strings: list[str], rng: random.Random) -> list[str]:
    """``strings`` with each column's symbols mapped one to one onto
    symbols drawn at random from ASCII, Greek and astral code points, so
    the code-point order of a column changes too."""
    pool = [chr(c) for c in (*range(0x61, 0x7B), *range(0x3B1, 0x3CA), *range(0x1F600, 0x1F620))]
    columns = []
    for column in zip(*strings):
        symbols = sorted(set(column))
        image = dict(zip(symbols, rng.sample(pool, len(symbols))))
        columns.append([image[c] for c in column])
    return ["".join(row) for row in zip(*columns)]


def test_metamorphic_relations_hold_above_the_table_band(monkeypatch):
    """ROADMAP 12(b), which needs no oracle: 10 seeded clustered instances
    at each l in {28, 40, 64}, d <= 300 and z in {2, 5, d/10}, all
    answered by the kept-set search.  Permuting the columns keeps the
    optimal size and its count; relabelling each column's symbols keeps
    the identical mask, and so does doubling the dictionary and z;
    ``decide_k_pmdm`` holds at the optimal size and fails one below; the
    greedy and baseline masks are never smaller than the optimum.  With
    ``KEPT_SET_VISIT_BUDGET`` patched down, an instance whose search
    passes it in any of its six calls is refused.
    Every instance is drawn before any is solved, and none is re-seeded
    away: the visits do not depend on the host, so the answered counts
    are fixed, and they may only grow (10, 9 and 5 of 10 when written)."""
    monkeypatch.setattr(pmdm.exact, "KEPT_SET_VISIT_BUDGET", 20_000)
    rng = random.Random(27)
    instances = []
    for length in (28, 40, 64):
        for i in range(10):
            size = rng.choice((100, 200, 300))
            cfg = GenConfig(size=size, length=length, alphabet_size=rng.choice((2, 4, 10)),
                            seed=1000 * length + i, mode="clustered", centers=rng.choice((3, 10, 30)),
                            mutation_rate=rng.choice((0.1, 0.2, 0.35)))
            d = generate(cfg)
            z = (2, 5, size // 10)[i % 3]
            query = d[rng.randrange(size)]
            perm = rng.sample(range(length), length)
            permuted = ["".join(s[p] for p in perm) for s in (*d, query)]
            relabelled = relabel_columns([*d, query], rng)
            instances.append((
                PmdmInstance(d, query, z),
                PmdmInstance(Dictionary(permuted[:-1]), permuted[-1], z),
                PmdmInstance(Dictionary(relabelled[:-1]), relabelled[-1], z),
                PmdmInstance(Dictionary(d.entries * 2), query, 2 * z),
            ))
    answered = {28: 0, 40: 0, 64: 0}
    middle = 0
    for inst, permuted, relabelled, doubled in instances:
        try:
            mask = solve_pmdm(inst)
            k = len(mask)
            count = count_matches(inst.dictionary, mask_apply(inst.query, mask))
            moved = solve_pmdm(permuted)
            assert len(moved) == k
            assert count_matches(permuted.dictionary, mask_apply(permuted.query, moved)) == count
            assert solve_pmdm(relabelled) == mask
            assert solve_pmdm(doubled) == mask
            assert decide_k_pmdm(inst, k) and not (k and decide_k_pmdm(inst, k - 1))
        except CapacityError:
            continue
        assert len(greedy_pmdm(inst).mask) >= k and len(baseline_pmdm(inst).mask) >= k
        answered[inst.dictionary.length] += 1
        middle += 4 <= k <= inst.dictionary.length - 4
    assert answered[28] >= 10 and answered[40] >= 9 and answered[64] >= 5, answered
    assert middle >= 15, middle


def kernel_masks(rng, length: int, size: int) -> np.ndarray:
    """About 1.5 * ``size`` + 3 masks below 2^length: random ones, repeats
    of them, the zero mask and the full mask twice."""
    full = (1 << length) - 1
    drawn = [rng.getrandbits(length) for _ in range(size)]
    drawn += [0, full, full] + rng.choices(drawn, k=size // 2)
    return np.array(drawn, dtype=np.uint64)


@pytest.mark.parametrize("length", range(1, 15))
def test_subset_counts_match_a_brute_force_count(length):
    rng = random.Random(length)
    masks = kernel_masks(rng, length, 3 * length)
    counts = subset_counts(masks, length)
    assert counts.dtype == np.int32 and counts.shape == (1 << length,)
    cells = np.arange(1 << length, dtype=np.uint64)
    # cell K counts the masks whose bits all lie in K
    assert np.array_equal(counts, ((masks[None, :] & ~cells[:, None]) == 0).sum(axis=1))


@pytest.mark.parametrize("length", range(15, 21))
def test_subset_counts_match_the_per_bit_fold(length):
    """Lengths 15..20 take four or five block products, the last block
    narrower unless 4 divides l."""
    rng = random.Random(length)
    masks = kernel_masks(rng, length, 3000)
    counts = subset_counts(masks, length)
    assert counts.dtype == np.int32
    assert np.array_equal(counts, reference_subset_counts(masks, length))


@pytest.mark.parametrize("length", [5, 15])
def test_subset_counts_past_the_float32_bound_sum_in_float64(length, monkeypatch):
    """A call with more than ``FLOAT32_EXACT_COUNT`` masks runs its products
    in float64; the bound is lowered to reach that path with small inputs."""
    original = pmdm.exact._subset_matrix
    seen = []

    def spy(width, dtype):
        seen.append(dtype)
        return original(width, dtype)

    monkeypatch.setattr(pmdm.exact, "_subset_matrix", spy)
    rng = random.Random(length)
    masks = kernel_masks(rng, length, 3000)
    for bound, dtype in ((len(masks), np.float32), (len(masks) - 1, np.float64)):
        monkeypatch.setattr(pmdm.exact, "FLOAT32_EXACT_COUNT", bound)
        seen.clear()
        counts = subset_counts(masks, length)
        assert seen and set(seen) == {dtype}
        assert counts.dtype == np.int32
        assert np.array_equal(counts, reference_subset_counts(masks, length))


def test_best_in_table_matches_a_brute_force_over_tied_cells():
    # random tables over a few values, so several cells of the smallest
    # qualifying size tie on weight; the full mask always qualifies
    rng = np.random.default_rng(17)
    seen = {"weight decides": 0, "positions decide": 0}
    for _ in range(500):
        length = int(rng.integers(1, 13))
        top = int(rng.integers(1, 4))
        tables = [rng.integers(0, top + 2, size=1 << length).astype(np.int32) for _ in range(rng.integers(1, 4))]
        for table in tables:
            table[-1] = top
        threshold = int(rng.integers(1, top + 1))
        cells = [bits for bits in range(1 << length) if all(t[bits] >= threshold for t in tables)]
        size = min(bin(bits).count("1") for bits in cells)
        smallest = [bits for bits in cells if bin(bits).count("1") == size]
        weight = {bits: sum(int(t[bits]) for t in tables) for bits in smallest}
        heaviest = [bits for bits in smallest if weight[bits] == max(weight.values())]
        expected = min(heaviest, key=lambda bits: MaskSet.from_bits(bits).positions)
        assert _best_in_table(tables, threshold, length) == MaskSet.from_bits(expected)
        seen["weight decides"] += len(smallest) > len(heaviest)
        seen["positions decide"] += len(heaviest) > 1
    assert min(seen.values()) >= 50, seen


def test_cached_tables_are_read_only():
    """The cached subset matrices and popcounts are shared by every call,
    so none may be written; zeta[J, K] is 1 exactly when J is a subset of K."""
    assert not pmdm.exact._popcounts(5).flags.writeable
    for width in range(1, pmdm.exact.BLOCK_BITS + 1):
        cells = range(1 << width)
        for dtype in (np.float32, np.float64):
            zeta = pmdm.exact._subset_matrix(width, dtype)
            assert zeta is pmdm.exact._subset_matrix(width, dtype)
            assert zeta.dtype == dtype and not zeta.flags.writeable
            with pytest.raises(ValueError):
                zeta[0, 0] = 0
            assert zeta.tolist() == [[float(j & ~k == 0) for k in cells] for j in cells]


def table_instance(length: int) -> tuple[Dictionary, str]:
    """30 entries over a non-ASCII alphabet, each within four symbols of
    the query, six of them repeated, plus two entries differing from the
    query at the first and at the last position only, which tie for a
    one-position mask when length > 1."""
    rng = random.Random(1000 + length)
    letters = "aβ日"
    query = "".join(rng.choice(letters) for _ in range(length))
    entries = []
    for _ in range(22):
        chars = list(query)
        for p in rng.sample(range(length), rng.randint(0, min(length, 4))):
            chars[p] = rng.choice(letters.replace(chars[p], ""))
        entries.append("".join(chars))
    entries += entries[:6]
    flip = {"a": "β", "β": "日", "日": "a"}
    entries += [flip[query[0]] + query[1:], query[:-1] + flip[query[-1]]]
    rng.shuffle(entries)
    return Dictionary(entries), query


def oracle_table(d: Dictionary, query: str) -> np.ndarray:
    """counts[K] = entries ``query`` matches masked at K, from a per-entry
    count of every mask."""
    every = np.arange(1 << d.length, dtype=np.uint64)
    counts = np.zeros(len(every), dtype=np.int64)
    for bits in oracle_mismatch_bits(d, query):
        counts += (every & np.uint64(bits)) == np.uint64(bits)
    return counts


def table_oracle(d: Dictionary, query: str, z: int) -> MaskSet:
    """The documented answer from ``oracle_table``: the fewest positions,
    then the most matches, then the lexicographically smallest position
    list."""
    counts = oracle_table(d, query)
    every = np.arange(len(counts), dtype=np.uint64)
    qualifying = every[counts >= z]
    sizes = np.bitwise_count(qualifying)
    tied = [MaskSet.from_bits(int(m)) for m in qualifying[sizes == sizes.min()]]
    return min(tied, key=lambda mask: (-counts[mask.bits], mask.positions))


@pytest.mark.parametrize("length", range(1, 21))
def test_single_query_table_agrees_with_the_multi_query_rows(length):
    """A single query reads its one table directly; two copies of the
    query fill two tables that rank masks as the one table does."""
    d, query = table_instance(length)
    exact_copies = d.entries.count(query)
    for z in sorted({1, 2, exact_copies + 1, d.size // 2, d.size - 1, d.size}):
        inst = PmdmInstance(d, query, z)
        best = solve_pmdm(inst)
        assert best == table_oracle(d, query, z)
        assert best == solve_mpmdm(MpmdmInstance(d, [query], z))
        assert best == solve_mpmdm(MpmdmInstance(d, [query, query], z))
        assert decide_k_pmdm(inst, len(best))
        assert len(best) == 0 or not decide_k_pmdm(inst, len(best) - 1)


MEMO_LENGTHS = (1, 4, 12, 20)


def memo_case(length: int) -> tuple[Dictionary, str, str, list[int]]:
    """``table_instance``'s dictionary and query A, a second query B (the
    first entry that differs from A) and thresholds from 1 to z = d."""
    d, a = table_instance(length)
    b = next(e for e in d.entries if e != a)
    return d, a, b, sorted({1, 2, d.size // 2, d.size - 1, d.size})


def count_table_builds(monkeypatch) -> dict[str, int]:
    """Patch the scan and the sum-over-subsets pass that ``exact`` calls to
    count their calls."""
    calls = {"mismatch_masks": 0, "subset_counts": 0}
    for name in calls:
        original = getattr(pmdm.exact, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(pmdm.exact, name, counted)
    return calls


@pytest.mark.parametrize("length", MEMO_LENGTHS)
def test_a_z_sweep_builds_each_query_table_once(length, monkeypatch):
    """Sweeps up and down the thresholds over A, then B, then A again,
    answering each threshold by ``solve_pmdm`` and by
    ``small_ell_build``/``small_ell_query`` in turn: each sweep builds its
    query's table once, so the second A misses, and both paths read the
    one read-only memoized table; every answer equals a fresh
    dictionary's and the oracle's."""
    d, a, b, zs = memo_case(length)
    expected = {(q, z): table_oracle(d, q, z) for q in (a, b) for z in zs}
    for q, z in expected:
        assert solve_pmdm(PmdmInstance(Dictionary(d.entries), q, z)) == expected[q, z]
    calls = count_table_builds(monkeypatch)
    for built, q in enumerate((a, b, a), 1):
        for z in zs + zs[::-1]:
            assert solve_pmdm(PmdmInstance(d, q, z)) == expected[q, z]
            assert small_ell_query(small_ell_build(d, q), z) == expected[q, z]
        assert calls == {"mismatch_masks": built, "subset_counts": built}
        query, table = d._table_memo
        assert small_ell_build(d, q) is table
        assert query == q and table.dtype == np.int32 and table.shape == (1 << length,)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0


@pytest.mark.parametrize("length", MEMO_LENGTHS)
def test_decide_k_after_solve_reads_the_memoized_table(length, monkeypatch):
    d, a, _, zs = memo_case(length)
    expected = {z: len(table_oracle(d, a, z)) for z in zs}

    def decisions(inst, k):  # at k - 1, when k > 0, and at k
        return [decide_k_pmdm(inst, size) for size in range(max(k - 1, 0), k + 1)]
    fresh = {z: decisions(PmdmInstance(Dictionary(d.entries), a, z), expected[z]) for z in zs}
    calls = count_table_builds(monkeypatch)
    for z in zs:
        inst = PmdmInstance(d, a, z)
        k = len(solve_pmdm(inst))
        assert k == expected[z]
        assert decisions(inst, k) == fresh[z] == [False] * (k > 0) + [True]
    assert calls == {"mismatch_masks": 1, "subset_counts": 1}


@pytest.mark.parametrize("length", MEMO_LENGTHS)
def test_multi_query_answers_share_the_memoized_table(length, monkeypatch):
    """After A is answered alone, [A, B] builds only B's table, [B, B]
    none and [A, A] one; every mask equals a fresh dictionary's and the
    oracle's."""
    d, a, b, zs = memo_case(length)
    groups = ([a, b], [b, b], [a, a])
    expected = {(z, i): oracle_mpmdm(d, group, z) for z in zs for i, group in enumerate(groups)}
    for z, i in expected:
        assert solve_mpmdm(MpmdmInstance(Dictionary(d.entries), groups[i], z)) == expected[z, i]
    calls = count_table_builds(monkeypatch)
    for z in zs:
        shared = Dictionary(d.entries)
        calls.update(mismatch_masks=0, subset_counts=0)
        # A alone takes the mask of [A, A]
        assert solve_pmdm(PmdmInstance(shared, a, z)) == expected[z, 2]
        for i, (group, built) in enumerate(zip(groups, (2, 2, 3))):
            assert solve_mpmdm(MpmdmInstance(shared, group, z)) == expected[z, i]
            assert calls == {"mismatch_masks": built, "subset_counts": built}
            assert shared._table_memo[0] == group[-1]


def test_no_table_is_kept_on_the_kept_set_path(monkeypatch):
    """Above ``TABLE_MAX_LENGTH``, and for queries whose tables together
    pass 2^``DEFAULT_TABLE_LIMIT`` counters, nothing is memoized; nor is
    the table ``small_ell_build`` returns above ``TABLE_MAX_LENGTH``."""
    d, a = table_instance(pmdm.exact.TABLE_MAX_LENGTH + 1)
    b = next(e for e in d.entries if e != a)
    inst = PmdmInstance(d, a, 5)
    k = len(solve_pmdm(inst))
    assert decide_k_pmdm(inst, k) and not (k and decide_k_pmdm(inst, k - 1))
    solve_mpmdm(MpmdmInstance(d, [a, b], 5))
    assert d._table_memo is None
    table = small_ell_build(d, a)
    assert np.array_equal(table, oracle_table(d, a)) and not table.flags.writeable
    assert small_ell_query(table, 5) == solve_pmdm(inst)
    assert d._table_memo is None
    d, a = table_instance(12)
    monkeypatch.setattr(pmdm.exact, "DEFAULT_TABLE_LIMIT", 12)
    assert solve_mpmdm(MpmdmInstance(d, [a, a], 5)) == table_oracle(d, a, 5)
    assert d._table_memo is None
    assert solve_pmdm(PmdmInstance(d, a, 5)) == table_oracle(d, a, 5)
    assert d._table_memo[0] == a


def test_threads_sharing_a_dictionary_get_their_own_query_tables():
    """Eight threads, four times the cores of a small host, answer A and B
    in turn over one dictionary with a short switch interval, so the memo
    is swapped under them; a query paired with the other's table would
    change some answer."""
    d, a, b, zs = memo_case(12)
    expected = {(q, z): table_oracle(d, q, z) for q in (a, b) for z in zs}
    wrong = []

    def answer(offset):
        for i in range(40):
            q, z = (a, b)[(i + offset) % 2], zs[i % len(zs)]
            if solve_pmdm(PmdmInstance(d, q, z)) != expected[q, z]:
                wrong.append((q, z))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=answer, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


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
