import hashlib
import math
import random

import numpy as np
import pytest

import pmdm.exact
import pmdm.index

from pmdm import (
    CapacityError,
    Dictionary,
    InfeasibleThresholdError,
    MaskSet,
    PmdmInstance,
    load_index,
    save_index,
    simple_build,
    simple_counts,
    simple_query,
    small_ell_build,
    small_ell_query,
    solve_pmdm,
    split_build,
    split_counts,
    split_query,
)
from pmdm.core import _codes
from pmdm.index import _key_rows, _lookup

from support import (
    combination_bits,
    oracle_count,
    oracle_counts_all_masks,
    random_dictionary,
    reference_simple_items,
    reference_simple_query,
    t1,
    unfold_simple_keys,
)


def half_group(side, m: int, half: str) -> int:
    """The id of ``side``'s group of half mask m whose half reads ``half``,
    masked symbols written as NUL, or -1."""
    return int(_lookup(side.keys, _key_rows([m], _codes(half)[None, :]))[0])


def test_small_ell_table_values():
    table = small_ell_build(t1(), "abab")
    assert int(table[0]) == 1
    assert int(table[0b0100]) == 2  # positions {3}
    assert int(table[0b1111]) == 5
    expected = oracle_counts_all_masks(t1(), "abab")
    assert (table == expected).all()


def test_small_ell_table_monotone_under_mask_growth():
    table = small_ell_build(t1(), "abab")
    for bits in range(16):
        for b in range(4):
            if not bits >> b & 1:
                assert table[bits] <= table[bits | 1 << b]


def test_small_ell_query_examples():
    table = small_ell_build(t1(), "abab")
    assert small_ell_query(table, 1) == MaskSet()
    assert small_ell_query(table, 4) == MaskSet([1, 2, 4])
    assert small_ell_query(table, 5) == MaskSet([1, 2, 3, 4])
    with pytest.raises(InfeasibleThresholdError):
        small_ell_query(table, 6)
    # the size comes from the all-masked cell, which counts every duplicate
    d = Dictionary(["abab", "bbab", "abab", "abab", "bbab"])
    table = small_ell_build(d, "abab")
    assert small_ell_query(table, 3) == MaskSet()
    assert small_ell_query(table, d.size) == MaskSet([1])
    with pytest.raises(InfeasibleThresholdError):
        small_ell_query(table, d.size + 1)


def test_small_ell_capacity_guard(monkeypatch):
    monkeypatch.setattr(pmdm.exact, "DEFAULT_TABLE_LIMIT", 3)
    with pytest.raises(CapacityError, match="table limit 3"):
        small_ell_build(t1(), "abab")
    monkeypatch.setattr(pmdm.exact, "DEFAULT_TABLE_LIMIT", 4)
    assert small_ell_query(small_ell_build(t1(), "abab"), 4) == MaskSet([1, 2, 4])


def test_simple_build_t1_contents():
    idx = simple_build(t1(), 1, 2)
    # keys are the unmasked symbols; the mask identifies the hidden column:
    # ?bab, ab?b and aba? each match two entries, a?ab only abab (pruned)
    assert simple_counts(idx, "abab").tolist() == [2, 0, 2, 2]
    # masking position 2 also leaves a pair: aaaa and abaa both become a?aa
    assert simple_counts(idx, "aaaa").tolist() == [0, 2, 0, 0]
    assert len(idx.counts) == 4
    for q in ("abab", "aaaa", "bbbb"):
        expected = oracle_counts_all_masks(t1(), q)[combination_bits(4, 1)]
        assert (simple_counts(idx, q) == np.where(expected >= 2, expected, 0)).all()


def test_simple_build_full_mask_single_entry():
    idx = simple_build(t1(), 4, 1)
    assert idx.counts.tolist() == [5]
    assert simple_counts(idx, "bbbb").tolist() == [5]


def test_simple_build_prunes_below_minimum():
    idx = simple_build(t1(), 2, 4)
    assert len(idx.keys) == len(idx.counts) == 0
    assert simple_counts(idx, "abab").tolist() == [0] * 6
    assert simple_query(idx, "abab", 4) is None


def test_simple_query_examples():
    idx = simple_build(t1(), 1, 2)
    assert simple_query(idx, "abab", 2) == (MaskSet([1]), 2)
    assert simple_query(idx, "abab", 3) is None
    with pytest.raises(ValueError):
        simple_query(idx, "abab", 1)
    with pytest.raises(ValueError):
        simple_query(idx, "aba", 2)


def test_simple_build_matches_the_reference_items_randomized():
    # lengths up to 64, alphabets of 2 to 300 symbols with code points past
    # 255 and astral ones (whose uint32 byte order differs from their
    # code-point order, which the keys follow), duplicate entries, z0 > 1
    # and k = l; keys wider than 64 bits fold into several words
    rng = random.Random(41)
    symbols = (
        [chr(c) for c in range(0x21, 0x7F)]
        + [chr(c) for c in range(0x100, 0x180)]
        + [chr(c) for c in range(0x4E00, 0x4E40)]
        + [chr(c) for c in range(0x1F600, 0x1F640)]
    )
    seen = {"wide": 0, "k=l": 0, "z0>1": 0, "sigma>=100": 0}
    for _ in range(100):
        length = rng.randint(1, 64)
        letters = rng.sample(symbols, rng.choice([2, 3, 4, rng.randint(2, 300), 300]))
        pool = ["".join(rng.choice(letters) for _ in range(length)) for _ in range(rng.randint(1, 30))]
        d = Dictionary(rng.choice(pool) for _ in range(rng.randint(1, 30)))
        sizes = (1, 2, 3, length - 2, length - 1, length)
        k = rng.choice([k for k in sizes if 1 <= k <= length and math.comb(length, k) <= 700])
        z0 = rng.randint(1, min(3, d.size))
        idx = simple_build(d, k, z0)
        assert idx.alphabet.tolist() == sorted(map(ord, d.alphabet()))
        built = list(zip(unfold_simple_keys(idx), idx.counts.tolist()))
        expected = reference_simple_items(d, k, z0)
        assert built == list(expected.items()), (d.entries, k, z0)
        sigma = len(set("".join(d.entries)))
        seen["wide"] += idx.keys.dtype.kind == "V"
        seen["k=l"] += k == length
        seen["z0>1"] += z0 > 1
        seen["sigma>=100"] += sigma >= 100
    assert min(seen.values()) >= 10, seen


def test_simple_counts_match_oracle_per_query():
    rng = random.Random(5)
    d = random_dictionary(rng, max_length=6, max_size=60, max_sigma=3)
    for k in range(1, d.length + 1):
        idx = simple_build(d, k, 1)
        for q in set(d.entries):
            expected = oracle_counts_all_masks(d, q)[combination_bits(d.length, k)]
            assert (simple_counts(idx, q) == expected).all()


def test_simple_query_matches_the_reference_randomized(tmp_path):
    # non-ASCII alphabets, duplicate entries, k = l (empty keys), z0 > 1,
    # tied counts, query symbols no entry has, wrong lengths, z below z0 or
    # above d; the last rounds at lengths 40 to 64 over astral symbols, so
    # keys of several words; built and loaded indexes answer and refuse alike
    rng = random.Random(31)
    path = tmp_path / "simple.bin"
    seen = {"none": 0, "tie": 0, "k=l": 0, "z0>1": 0, "raises": 0, "wide": 0}
    for turn in range(120):
        if turn < 80:
            letters = rng.choice(["ab", "abc", "αβγ", "a日😀"])
            length = rng.randint(1, 6)
        else:
            letters = rng.choice(["a日😀", "😀😁😂🙃", "ab😀é"])
            length = rng.randint(40, 64)
        pool = ["".join(rng.choice(letters) for _ in range(length)) for _ in range(rng.randint(1, 6))]
        d = Dictionary(rng.choice(pool) for _ in range(rng.randint(1, 30)))
        if turn < 80:
            k = rng.choice([rng.randint(1, length), length])
        else:
            k = rng.choice([1, 1, length - 1, length])
        z0 = rng.randint(1, min(3, d.size))
        built = simple_build(d, k, z0)
        save_index(path, built)
        loaded = load_index(path)
        seen["k=l"] += k == length
        seen["z0>1"] += z0 > 1
        seen["wide"] += built.keys.dtype.kind == "V"
        queries = [rng.choice(pool), "".join(rng.choice(letters + "x") for _ in range(length))]
        for q in queries + [queries[0] + "a", queries[0][1:]]:
            for z in sorted({1, z0, rng.randint(1, d.size), d.size, d.size + 1}):
                try:
                    expected = reference_simple_query(d, k, z0, q, z)
                except ValueError as refused:
                    seen["raises"] += 1
                    for idx in (built, loaded):
                        with pytest.raises(type(refused)):
                            simple_query(idx, q, z)
                    continue
                for idx in (built, loaded):
                    assert simple_query(idx, q, z) == expected, (d.entries, k, z0, q, z)
                counts = [oracle_count(d, q, bits) for bits in combination_bits(length, k).tolist()]
                seen["none"] += expected is None
                seen["tie"] += expected is not None and counts.count(expected[1]) > 1
    assert min(seen.values()) >= 10, seen


def test_split_tau_one_pairs_answer_everything():
    d = t1()
    idx = split_build(d, 1)
    table = small_ell_build(d, "abab")
    counts = split_counts(idx, "abab")
    for bits in range(16):
        assert counts[bits] == int(table[bits])


def test_split_tau_d_and_intermediate_agree_with_oracle():
    d = t1()
    expected = oracle_counts_all_masks(d, "abab")
    for tau in (2, 5):
        idx = split_build(d, tau)
        counts = split_counts(idx, "abab")
        for bits in range(16):
            assert counts[bits] == expected[bits]


def test_split_example_mask_1_3():
    idx = split_build(t1(), 2)
    # left halves masked at {1}: ?b occurs 4 times (frequent at tau = 2)
    gid = half_group(idx.left, 0b01, "\0b")
    assert int(idx.left.counts[gid]) == 4
    count = split_counts(idx, "abab")[MaskSet([1, 3]).bits]
    assert count == oracle_count(t1(), "abab", 0b0101) == 3


def test_split_query_matches_small_ell():
    d = t1()
    table = small_ell_build(d, "abab")
    idx = split_build(d, 2)
    for z in range(1, 6):
        assert split_query(idx, "abab", z) == small_ell_query(table, z)
    with pytest.raises(InfeasibleThresholdError):
        split_query(idx, "abab", 6)


def test_split_index_holds_the_codes_of_its_dictionary():
    d = t1()
    idx = split_build(d, 2)
    assert idx.dictionary is d and np.shares_memory(idx.dictionary.codes, d.codes)
    assert (idx.length, idx.size) == (d.length, d.size)


def test_split_single_entry_dictionary():
    d = Dictionary(["ab"])
    idx = split_build(d, 1)
    assert split_query(idx, "ab", 1) == MaskSet()
    assert split_counts(idx, "cd")[0] == 0


def test_split_odd_length_and_length_one():
    rng = random.Random(8)
    for entries in (["abc", "abd", "xyc"], ["a", "b", "a"]):
        d = Dictionary(entries)
        q = entries[0]
        expected = oracle_counts_all_masks(d, q)
        for tau in (1, 2, len(entries)):
            idx = split_build(d, tau)
            counts = split_counts(idx, q)
            for bits in range(1 << d.length):
                assert counts[bits] == expected[bits]
    del rng


def test_split_pair_table_entries_are_exact():
    # every pair entry has a contributing dictionary entry, so querying each
    # entry under each mask visits every stored pair at least once
    rng = random.Random(14)
    d = random_dictionary(rng, max_length=6, max_size=50, max_sigma=3)
    idx = split_build(d, max(1, math.isqrt(d.size)))
    for q in set(d.entries):
        expected = oracle_counts_all_masks(d, q)
        counts = split_counts(idx, q)
        for bits in range(1 << d.length):
            assert counts[bits] == expected[bits]


def test_split_min_threshold_pruning_is_sound():
    rng = random.Random(9)
    d = random_dictionary(rng, max_length=6, max_size=40, max_sigma=3)
    q = d[0]
    tau = max(1, math.isqrt(d.size))
    base = split_build(d, tau, z0=1)
    pruned = split_build(d, tau, z0=3)
    table = small_ell_build(d, q)
    for z in range(3, d.size + 1):
        assert (
            split_query(base, q, z)
            == split_query(pruned, q, z)
            == small_ell_query(table, z)
        )
    with pytest.raises(ValueError):
        split_query(pruned, q, 2)


def test_cross_structure_agreement_randomized():
    rng = random.Random(44)
    for _ in range(8):
        d = random_dictionary(rng, max_length=7, max_size=120, max_sigma=4)
        q = d[rng.randrange(d.size)]
        expected = oracle_counts_all_masks(d, q)
        table = small_ell_build(d, q)
        assert (table == expected).all()
        for tau in (1, max(1, math.isqrt(d.size)), d.size):
            idx = split_build(d, tau)
            counts = split_counts(idx, q)
            for bits in range(1 << d.length):
                assert counts[bits] == expected[bits]
            for z in (1, rng.randint(1, d.size), d.size):
                assert split_query(idx, q, z) == small_ell_query(table, z)


def _split_dictionary(rng) -> Dictionary:
    """Lengths 1, odd and 8, non-ASCII symbols and duplicate entries."""
    letters = rng.choice(["ab", "abc", "αβγ", "a日😀"])
    length = rng.choice([1, 2, 3, 5, 7, 8])
    entries = ["".join(rng.choice(letters) for _ in range(length)) for _ in range(rng.randint(1, 30))]
    return Dictionary(entries + rng.sample(entries, rng.randint(0, len(entries))))


def test_split_counts_match_the_oracle_randomized(tmp_path):
    rng = random.Random(61)
    path = tmp_path / "split.bin"
    for _ in range(30):
        d = _split_dictionary(rng)
        symbols = "".join(sorted(d.alphabet())) + "z"  # "z" occurs in no entry
        queries = [
            d[rng.randrange(d.size)],
            "".join(rng.choice(symbols) for _ in range(d.length)),
            "z" * d.length,
        ]
        for tau in (1, math.isqrt(d.size), d.size):
            # z0 >= tau, so halves seen between tau and z0 times are scanned
            idx = split_build(d, tau, rng.randint(tau, d.size))
            save_index(path, idx)
            loaded = load_index(path)
            for q in queries:
                expected = oracle_counts_all_masks(d, q)
                table = small_ell_build(d, q)
                # every structure breaks ties as the exact solver does
                exact = {
                    z: small_ell_query(table, z)
                    for z in range(idx.min_threshold, d.size + 1)
                }
                for z, mask in exact.items():
                    assert mask == solve_pmdm(PmdmInstance(d, q, z))
                for built in (idx, loaded):
                    assert (split_counts(built, q) == expected).all()
                    for z in exact:
                        mask = split_query(built, q, z)
                        assert mask == exact[z]


def test_split_counts_scan_halves_below_z0():
    # tau = 1 keeps a counter for every pair, yet with z0 = 4 a half seen
    # fewer than 4 times is answered by scanning its members
    d = t1()
    idx = split_build(d, 1, z0=4)
    gid = half_group(idx.left, 0, "ab")
    assert 1 <= idx.left.counts[gid] < 4
    for q in ("abab", "bbbb", "abzz", "zzzz"):
        expected = oracle_counts_all_masks(d, q)
        assert (split_counts(idx, q) == expected).all()


def test_split_counts_count_an_entry_in_rare_halves_of_both_sides_once():
    # with tau = 3 the query's left half "ab" and right half "ab" are both
    # rare unmasked, and its own entry is a member of both groups and of
    # the query's group under every other half mask
    d = Dictionary(["abab", "abba", "bbab", "aaaa", "bbbb", "aaaa"])
    idx = split_build(d, 3)
    assert 1 <= idx.left.counts[half_group(idx.left, 0, "ab")] < 3
    assert 1 <= idx.right.counts[half_group(idx.right, 0, "ab")] < 3
    counts = split_counts(idx, "abab")
    assert counts[0] == 1
    assert (counts == oracle_counts_all_masks(d, "abab")).all()


def test_split_counts_at_length_22_with_tau_d_match_the_full_table():
    # with tau = d a half is frequent only where all d entries share it,
    # so nearly every mask is counted from the rare halves' members
    rng = random.Random(22)
    centre = "".join(rng.choice("ab日") for _ in range(22))
    entries = []
    for _ in range(40):
        chars = list(centre)
        for p in rng.sample(range(22), rng.randint(0, 8)):
            chars[p] = rng.choice("ab日")
        entries.append("".join(chars))
    d = Dictionary(entries + entries[:5])
    idx = split_build(d, d.size)
    for q in (d[0], centre, "".join(rng.choice("ab日") for _ in range(22))):
        assert (split_counts(idx, q) == small_ell_build(d, q)).all()


def test_split_pair_key_past_its_segment_is_not_found():
    # with pair keys numbered per full mask, some query pair key here is
    # larger than every key stored for its mask and equal to the first key
    # stored for the next mask; a lookup must not take one for the other
    d = Dictionary(["aaaba", "baabb", "bbbba", "baabb", "bbbaa", "bbaab", "bbbba"])
    idx = split_build(d, 2)
    assert (split_counts(idx, "bbbab") == oracle_counts_all_masks(d, "bbbab")).all()


def test_split_wrong_length_query_fails_before_any_work(monkeypatch):
    idx = split_build(t1(), 2)
    pruned = split_build(t1(), 2, z0=3)

    def no_work(*args):
        raise AssertionError("looked up a query of the wrong length")

    monkeypatch.setattr(pmdm.index, "_half_lookup", no_work)
    for q in ("", "aba", "ababa"):
        with pytest.raises(ValueError, match="query length"):
            split_counts(idx, q)
        with pytest.raises(ValueError, match="query length"):
            split_query(idx, q, 2)
    # so does a threshold the index cannot answer
    for z in (0, 2):
        with pytest.raises(ValueError, match="minimum supported threshold 3"):
            split_query(pruned, "abab", z)
    with pytest.raises(InfeasibleThresholdError):
        split_query(idx, "abab", 6)


def test_serialization_round_trips(tmp_path):
    d = t1()

    path = tmp_path / "small.bin"
    save_index(path, d)
    loaded = load_index(path)
    assert isinstance(loaded, Dictionary) and loaded == d

    path = tmp_path / "simple.bin"
    idx = simple_build(d, 1, 2)
    save_index(path, idx)
    loaded = load_index(path)
    assert np.array_equal(loaded.keys, idx.keys) and np.array_equal(loaded.counts, idx.counts)
    assert (loaded.length, loaded.mask_size, loaded.min_threshold, loaded.size) == (4, 1, 2, 5)

    path = tmp_path / "split.bin"
    sidx = split_build(d, 2)
    save_index(path, sidx)
    loaded = load_index(path)
    assert loaded.tau == 2 and loaded.dictionary == d
    for q in ("abab", "bbbb"):
        assert (split_counts(loaded, q) == split_counts(sidx, q)).all()
    for z in range(1, 6):
        assert split_query(loaded, "abab", z) == split_query(sidx, "abab", z)


def test_serialization_round_trips_randomized(tmp_path):
    # non-ASCII symbols, odd lengths and length 1 exercise the alphabets
    # and the split index's key blobs
    rng = random.Random(23)
    path = tmp_path / "index.bin"
    for _ in range(12):
        letters = rng.choice(["ab", "αβγ", "a日😀"])
        length = rng.randint(1, 7)
        d = Dictionary(
            "".join(rng.choice(letters) for _ in range(length))
            for _ in range(rng.randint(1, 40))
        )
        k = rng.randint(1, length)
        z0 = rng.randint(1, d.size)
        idx = simple_build(d, k, z0)
        save_index(path, idx)
        loaded = load_index(path)
        assert np.array_equal(loaded.keys, idx.keys) and np.array_equal(loaded.counts, idx.counts)
        for q in (d[0], d[d.size - 1][::-1]):
            assert (simple_counts(loaded, q) == simple_counts(idx, q)).all()
        assert (loaded.length, loaded.mask_size, loaded.min_threshold, loaded.size) == (
            length, k, z0, d.size
        )

        sidx = split_build(d, rng.randint(1, d.size), rng.randint(1, d.size))
        save_index(path, sidx)
        loaded = load_index(path)
        assert (loaded.half_split, loaded.tau, loaded.min_threshold) == (
            sidx.half_split, sidx.tau, sidx.min_threshold
        )
        for side, stored in ((sidx.left, loaded.left), (sidx.right, loaded.right)):
            for name in ("keys", "counts", "members", "starts"):
                assert np.array_equal(getattr(stored, name), getattr(side, name)), name
        for name in ("pair_keys", "pair_counts"):
            assert np.array_equal(getattr(loaded, name), getattr(sidx, name)), name
        assert loaded.dictionary == d and np.array_equal(loaded.dictionary.codes, d.codes)
        q = d[rng.randrange(d.size)]
        assert (split_counts(loaded, q) == split_counts(sidx, q)).all()
        for z in (sidx.min_threshold, d.size):
            assert split_query(loaded, q, z) == split_query(sidx, q, z)


def test_serialization_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTPM1whatever")
    with pytest.raises(ValueError):
        load_index(path)


def test_split_capacity_and_parameter_guards(monkeypatch):
    with pytest.raises(ValueError):
        split_build(t1(), 0)
    with pytest.raises(ValueError):
        split_build(t1(), 6)
    monkeypatch.setattr(pmdm.exact, "DEFAULT_TABLE_LIMIT", 3)
    with pytest.raises(CapacityError, match="table limit 3"):
        split_build(t1(), 1)
    # C(4, 2) masks of 5 entries: a workspace of 30
    monkeypatch.setattr(pmdm.index, "DEFAULT_WORKSPACE_LIMIT", 29)
    with pytest.raises(CapacityError, match="exceeds limit 29"):
        simple_build(t1(), 2, 1)
    monkeypatch.setattr(pmdm.index, "DEFAULT_WORKSPACE_LIMIT", 30)
    assert simple_build(t1(), 2, 1).mask_size == 2
    # fewer entries than positions: the C(6, 2) x 6 mask tables, 90 cells,
    # outweigh the 15 x 2 ids
    short = Dictionary(["abcdef", "abcdeg"])
    monkeypatch.setattr(pmdm.index, "DEFAULT_WORKSPACE_LIMIT", 89)
    with pytest.raises(CapacityError, match=r"C\(6,2\)\*6 exceeds limit 89"):
        simple_build(short, 2, 1)
    monkeypatch.setattr(pmdm.index, "DEFAULT_WORKSPACE_LIMIT", 90)
    assert simple_build(short, 2, 1).mask_size == 2


def test_split_workspace_guard_counts_pairs_and_members(monkeypatch):
    # l=4, tau=1: every half is frequent, so 4 x 4 half-mask pairs of 5
    # entries give 80 pair entries, beside (4 + 4) * 5 = 40 members
    monkeypatch.setattr(pmdm.index, "DEFAULT_WORKSPACE_LIMIT", 119)
    with pytest.raises(CapacityError, match="80 pair entries and 40 members"):
        split_build(t1(), 1)
    monkeypatch.setattr(pmdm.index, "DEFAULT_WORKSPACE_LIMIT", 120)
    assert split_build(t1(), 1).pair_counts.sum() == 80
    # the members alone are refused before any half table is built
    monkeypatch.setattr(pmdm.index, "DEFAULT_WORKSPACE_LIMIT", 39)
    monkeypatch.setattr(pmdm.index, "_build_half", None)
    with pytest.raises(CapacityError, match="0 pair entries and 40 members"):
        split_build(t1(), 1)


def _byte_order_dictionary() -> Dictionary:
    """60 seeded entries of length 5 over "aĀb😀".  As little-endian uint32
    bytes, Ā (00 01 00 00) and 😀 (00 F6 01 00) sort before a and b, so
    code-point order, which the keys sort in, differs from the byte order
    of the code points."""
    rng = random.Random(2026)
    return Dictionary("".join(rng.choice("aĀb😀") for _ in range(5)) for _ in range(60))


def _golden_dictionary() -> Dictionary:
    """40 seeded entries of length 9 over a four-symbol alphabet with one
    non-ASCII symbol, so every split key blob holds multi-byte UTF-8."""
    rng = random.Random(2024)
    return Dictionary("".join(rng.choice("acgé") for _ in range(9)) for _ in range(40))


# sha256 of each file as the row-major code matrix wrote it; the layout of
# Dictionary.codes must not change a byte of any index file.  The simple
# files were re-recorded when kind 6 (folded keys) replaced kind 5 (mask
# bits and a key blob), each after checking that it decodes to exactly
# the (mask, masked string, count) items of the kind-5 file
GOLDEN_SHA256 = {
    "small": "b9909ec3eb2c0a70fe7628840dcac9b6cb7dd62caf93f7ff1b1991ad1fbbde7b",
    "simple": "3fc89b7485fcea9445c870665df6752ab6e6a7e21c72bef37b80afbd4b9155a9",
    "split": "783828aa8f0ff07cf013b3ab7b58cc674bba5ddc8f9cf84c4a51bad1bababd9d",
    "simple-byte-order-k1": "241f1a494ef5d62f3e74afa2a02385dcb49508d5711dda4be4f0ba852108c001",
    "simple-byte-order-k2": "d74b94fe38dbaa56a90352a4a3789ac51d94df6ec3233d6ab0df7a8f14757e1a",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_SHA256))
def test_index_files_are_byte_identical_to_the_recorded_layout(tmp_path, kind):
    d = _golden_dictionary()
    mixed = _byte_order_dictionary()
    build = {
        "small": lambda: d,
        "simple": lambda: simple_build(d, 2),
        "split": lambda: split_build(d, 3, 2),
        "simple-byte-order-k1": lambda: simple_build(mixed, 1, 2),
        "simple-byte-order-k2": lambda: simple_build(mixed, 2, 2),
    }
    obj = build[kind]()
    path = tmp_path / f"{kind}.bin"
    save_index(path, obj)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[kind]
