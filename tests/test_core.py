import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pmdm import (
    CapacityError,
    Dictionary,
    MaskSet,
    MaskedString,
    count_matches,
    load_index,
    mask_apply,
    matches,
    mismatch_masks,
    mismatch_set,
    save_index,
)

from pmdm.core import (
    MAX_LENGTH,
    SymbolPlanes,
    lex_smaller,
    pack_bits,
    rank_query,
    rank_symbols,
    unpack_bits,
)

from support import oracle_mismatch_bits, t1


def test_mask_apply_examples():
    assert mask_apply("abab", MaskSet()).render() == "abab"
    assert mask_apply("abab", MaskSet([2])).render() == "a?ab"
    assert mask_apply("abab", MaskSet([1, 2, 3, 4])).render() == "????"


def test_mask_apply_out_of_range():
    with pytest.raises(ValueError):
        mask_apply("abab", MaskSet([5]))


def test_matches_examples():
    assert matches(MaskedString.parse("a?ab"), "abab")
    assert not matches(MaskedString.parse("a?ab"), "bbab")
    assert matches(MaskedString.parse("????"), "bbab")


def test_matches_length_mismatch():
    with pytest.raises(ValueError):
        matches(MaskedString.parse("a?a"), "abab")


def test_mismatch_set_examples():
    assert mismatch_set("abab", "abab") == MaskSet()
    assert mismatch_set("abab", "aaaa") == MaskSet([2, 4])
    assert mismatch_set("abab", "bbab") == MaskSet([1])
    with pytest.raises(ValueError):
        mismatch_set("ab", "abc")


def test_count_matches_examples():
    d = t1()
    assert count_matches(d, MaskedString.parse("abab")) == 1
    assert count_matches(d, MaskedString.parse("a?a?")) == 3
    assert count_matches(d, MaskedString.parse("????")) == 5


def test_count_matches_agrees_with_per_entry_matching():
    d = t1()
    for text in ("abab", "a?a?", "?ba?", "????", "cccc"):
        x = MaskedString.parse(text)
        assert count_matches(d, x) == sum(matches(x, s) for s in d)


def test_count_matches_counts_duplicate_entries_separately():
    d = Dictionary(["aa", "aa", "ab"])
    assert count_matches(d, MaskedString.parse("a?")) == 3
    assert count_matches(d, MaskedString.parse("aa")) == 2


def test_count_matches_length_guard():
    with pytest.raises(ValueError):
        count_matches(t1(), MaskedString.parse("aba"))


def test_dictionary_validation():
    with pytest.raises(ValueError):
        Dictionary([])
    with pytest.raises(ValueError):
        Dictionary(["ab", "abc"])
    with pytest.raises(ValueError):
        Dictionary([""])
    with pytest.raises(CapacityError):
        Dictionary(["a" * 65])
    d = Dictionary(["ab", "ab", "ba"])
    assert d.size == 3 and d.length == 2


def test_dictionary_file_round_trip(tmp_path):
    path = tmp_path / "dict.txt"
    t1().save(path)
    again = Dictionary.from_file(path)
    assert again == t1()


def test_dictionary_file_rejects_wildcard(tmp_path):
    path = tmp_path / "dict.txt"
    for text, line in [("ab\na?\n", 2), ("?b\nab\n", 1), ("ab\nba\nb?", 3), ("ab\na?\n?b\n", 2)]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"line {line} contains the wildcard glyph '\\?'"):
            Dictionary.from_file(path)
    path.write_text("ab\na#\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2 contains the wildcard glyph '#'"):
        Dictionary.from_file(path, wildcard="#")
    assert Dictionary.from_file(path).entries == ("ab", "a#")
    # no line holds a line feed, so a line-feed wildcard refuses none
    assert Dictionary.from_file(path, wildcard="\n").entries == ("ab", "a#")


def test_dictionary_refuses_line_feeds(tmp_path):
    """An entry holding a line feed would be saved as two lines and never
    read back, so construction refuses it, naming it; entries holding other
    line-breaking characters round-trip through both file formats."""
    with pytest.raises(ValueError, match=r"entry 0 \('a\\nb'\) contains a line feed"):
        Dictionary(["a\nb", "cde"])
    with pytest.raises(ValueError, match="entry 2 .* contains a line feed"):
        Dictionary(["abc", "cde", "xy\n"])
    d = Dictionary(["a\u2028b", "c\x85d", "e\tf", "g\x0bh", "i\x1cj"])
    d.save(tmp_path / "dict.txt")
    assert Dictionary.from_file(tmp_path / "dict.txt") == d
    save_index(tmp_path / "dict.idx", d)
    assert load_index(tmp_path / "dict.idx") == d


@pytest.mark.parametrize("data,line", [(b"ab\r\nba\r\n", 1), (b"ab\nb\ra\n", 2), (b"ab\nba\r", 2)])
def test_dictionary_file_rejects_carriage_returns(tmp_path, data, line):
    path = tmp_path / "dict.txt"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"line {line} contains a carriage return"):
        Dictionary.from_file(path)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64])
def test_pack_bits_and_unpack_bits_are_inverse(width):
    rng = np.random.default_rng(width)
    for rows in (0, 1, 3, 257):
        flags = rng.integers(0, 2, size=(rows, width))
        flags[:1, -1] = 1  # the top bit, bit 63 at width 64
        for given in (flags.astype(bool), flags, flags.astype(np.uint8)):
            packed = pack_bits(given)
            assert packed.dtype == np.uint64 and packed.shape == (rows,)
            assert packed.tolist() == [
                sum(1 << j for j in range(width) if row[j]) for row in flags.tolist()
            ]
            assert np.array_equal(unpack_bits(packed, width), flags)
    # bits at width and above are ignored
    high = np.array([2**64 - 1, 1 << (width - 1), 0], dtype=np.uint64)
    expected = np.zeros((3, width), dtype=np.uint8)
    expected[0] = expected[1, width - 1] = 1
    unpacked = unpack_bits(high, width)
    assert unpacked.dtype == np.uint8 and np.array_equal(unpacked, expected)
    if width < 64:
        assert not unpack_bits(high << np.uint64(width), width).any()


def test_mask_set_basics():
    m = MaskSet([4, 1, 1])
    assert m.positions == (1, 4)
    assert len(m) == 2
    assert 1 in m and 2 not in m
    assert (m | MaskSet([2])).positions == (1, 2, 4)
    assert (m & MaskSet([4, 2])).positions == (4,)
    assert (m - MaskSet([1])).positions == (4,)
    assert MaskSet([1]).issubset(m)
    with pytest.raises(ValueError):
        MaskSet([0])


def test_mask_set_refuses_positions_past_the_length_cap():
    """A position is checked before its bit is shifted into place, so a
    huge one is refused at once instead of allocating its bits."""
    assert MaskSet([MAX_LENGTH]).bits == 1 << (MAX_LENGTH - 1)
    for position in (MAX_LENGTH + 1, 10**6, -1):
        with pytest.raises(ValueError, match=f"at most {MAX_LENGTH}"):
            MaskSet([1, position])


def test_masked_string_parse_render_custom_glyph():
    x = MaskedString.parse("a*b", wildcard="*")
    assert x.mask == MaskSet([2])
    assert x.render("#") == "a#b"


_pair = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.text(alphabet="abc", min_size=n, max_size=n),
        st.text(alphabet="abc", min_size=n, max_size=n),
        st.sets(st.integers(1, n)),
        st.sets(st.integers(1, n)),
    )
)


@given(_pair)
def test_mismatch_mask_round_trip(data):
    q, s, extra, _ = data
    k = mismatch_set(q, s)
    assert matches(mask_apply(q, k), s)
    # minimality: any mask that makes q match s contains the mismatch set
    bigger = k | MaskSet(extra)
    assert matches(mask_apply(q, bigger), s)
    if matches(mask_apply(q, MaskSet(extra)), s):
        assert k.issubset(MaskSet(extra))


@given(_pair)
def test_union_masking_composes(data):
    q, _, first, second = data
    a, b = MaskSet(first), MaskSet(second)
    step = mask_apply(q, a).render()
    assert MaskedString(step, b).render() == mask_apply(q, a | b).render()


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.text(alphabet="ab", min_size=n, max_size=n), min_size=1, max_size=12
            ),
            st.text(alphabet="ab", min_size=n, max_size=n),
            st.sets(st.integers(1, n)),
            st.sets(st.integers(1, n)),
        )
    )
)
def test_count_monotone_under_mask_growth(data):
    entries, q, small, other = data
    d = Dictionary(entries)
    a = MaskSet(small)
    b = a | MaskSet(other)
    assert count_matches(d, mask_apply(q, a)) <= count_matches(d, mask_apply(q, b))


@pytest.mark.parametrize("length", [1, 15, 64])
def test_dictionary_codes_are_a_read_only_row_major_matrix(length):
    """``codes`` is the entries' UTF-32 buffer itself: one C-contiguous row
    per entry, which no one may write."""
    rng = random.Random(length)
    entries = ["".join(rng.choice("aβ日😀") for _ in range(length)) for _ in range(300)]
    d = Dictionary(entries)
    assert d.codes.flags.c_contiguous and not d.codes.flags.writeable
    assert np.array_equal(d.codes, np.array([[ord(c) for c in e] for e in entries], dtype=np.uint32))
    with pytest.raises(ValueError):
        d.codes[0, 0] = 0
    bits = mismatch_masks(d, entries[0])
    assert bits.dtype == np.uint64 and [int(b) for b in bits] == oracle_mismatch_bits(d, entries[0])


def test_mismatch_masks_matches_per_entry_sets():
    d = t1()
    bits = mismatch_masks(d, "abab")
    for entry, b in zip(d, bits):
        assert int(b) == mismatch_set("abab", entry).bits


def test_mismatch_masks_excludes_masked_positions():
    d = t1()
    bits = mismatch_masks(d, mask_apply("abab", MaskSet([4])))
    assert [int(b) for b in bits] == [0, 0b0100, 0b0010, 0b0001, 0]


def _check_scans(d, queries):
    """Every query's masks equal the per-character oracle's."""
    for x in queries:
        bits = mismatch_masks(d, x)
        assert bits.dtype == np.uint64 and bits.shape == (d.size,)
        assert [int(b) for b in bits] == oracle_mismatch_bits(d, x), x


@pytest.mark.parametrize("length", [1, 8, 23, 24, 25, 47, 48, 49, 63, 64])
def test_mismatch_masks_match_a_per_character_scan(length):
    """At every length at and around the 24-position product boundaries,
    over a non-ASCII alphabet, with duplicates, an entry equal
    to the query, an entry differing everywhere (bit length - 1 set, bit
    63 at l = 64), masked queries, and query symbols that no entry has:
    below, between and above the alphabet's code points, at position 1
    and at position l (bit 63 at l = 64), masked and not."""
    rng = random.Random(length)
    letters = "aβ日😀"
    query = "".join(rng.choice(letters) for _ in range(length))
    entries = ["".join(rng.choice(letters) for _ in range(length)) for _ in range(40)]
    entries += [query, "".join(letters[(letters.index(c) + 1) % 4] for c in query)]
    entries += [query[:-1] + ("a" if query[-1] != "a" else "β")]  # the last position only
    entries += entries[:5]
    rng.shuffle(entries)
    d = Dictionary(entries)
    some = MaskSet(rng.sample(range(1, length + 1), rng.randint(1, length)))
    masked = [MaskSet(), MaskSet([1]), MaskSet([length]), some]
    first = "!" + query[1:]  # below every symbol of the dictionary
    last = query[:-1] + "🚀"  # above every symbol
    both = "c" + query[1:-1] + "🚀" if length > 1 else "c"  # "c" lies between "a" and "β"
    queries = [MaskedString(x, mask) if mask else x for x in (query, first, last, both) for mask in masked]
    _check_scans(d, queries)
    assert int(mismatch_masks(d, query).max()) == (1 << length) - 1
    assert int(mismatch_masks(d, last).min()) >> (length - 1) == 1


def _symbols(rng, sigma):
    """``sigma`` distinct symbols from ASCII, Latin-to-Cyrillic, CJK and
    astral code points, the wildcard glyph left out."""
    pool = [c for c in range(0x21, 0x7F) if chr(c) != "?"]
    pool += list(range(0xA1, 0x500)) + list(range(0x4E00, 0x4F00)) + list(range(0x1F300, 0x1F400))
    return [chr(c) for c in rng.sample(pool, sigma)]


@pytest.mark.parametrize("length", [1, 2, 5, 8, 12, 16])
@pytest.mark.parametrize("side", ["one symbol", "power of two", "one past"])
def test_mismatch_masks_from_one_symbol_to_wide_alphabets(length, side):
    """sigma = 1 (no plane), 2^(l // 2) (every rank fills its planes) and
    one more (a plane holding a single rank's bit), so the alphabets reach
    257 symbols, wider than 2 * ceil(log2 sigma) <= l allows from l = 2
    on; the masks equal the oracle's."""
    sigma = {"one symbol": 1, "power of two": 1 << length // 2, "one past": (1 << length // 2) + 1}[side]
    rng = random.Random(length * 3 + sigma)
    symbols = _symbols(rng, sigma)
    size = max(30, -(-sigma // length) + 5)
    text = symbols + [rng.choice(symbols) for _ in range(size * length - sigma)]
    rng.shuffle(text)
    entries = ["".join(text[i * length:(i + 1) * length]) for i in range(size)]
    query = entries[0]
    absent = "".join(rng.choice(symbols) for _ in range(length - 1)) + "\U0001F600"
    queries = [query, absent, MaskedString(absent, MaskSet([length])),
               MaskedString(query, MaskSet(rng.sample(range(1, length + 1), (length + 1) // 2)))]
    d = Dictionary(entries)
    assert len(d.alphabet()) == sigma
    _check_scans(d, queries)
    assert d.planes.bits.shape == ((sigma - 1).bit_length(), size)


def test_rank_symbols_and_rank_query_follow_the_code_point_order():
    codes = np.array([[0x1F600, 98], [98, 0xE9]], dtype=np.uint32)
    alphabet, ranks = rank_symbols(codes)
    assert alphabet.dtype == np.uint32 and alphabet.tolist() == [98, 0xE9, 0x1F600]
    assert ranks.dtype == np.uint32 and ranks.tolist() == [[2, 0], [0, 1]]
    q = np.array([97, 98, 99, 0xE9, 0x1F600, 0x1F601], dtype=np.uint32)
    ranks, missing = rank_query(alphabet, q)
    assert missing.tolist() == [True, False, True, False, False, True]
    assert ranks[~missing].tolist() == [0, 1, 2] and ranks.max() < len(alphabet)
    ranks, missing = rank_query(alphabet[:1], q)
    assert ranks.tolist() == [0] * 6 and missing.tolist() == [True, False, True, True, True, True]


def test_the_first_scan_builds_the_planes_once(monkeypatch, tmp_path):
    """A constructed or loaded dictionary holds no planes; its first scan
    builds them and later scans reuse them, and the planes are
    read-only."""
    builds = []
    build = SymbolPlanes.of

    def counted(codes):
        builds.append(codes.shape)
        return build(codes)
    monkeypatch.setattr(SymbolPlanes, "of", staticmethod(counted))
    narrow = Dictionary(["abcab", "bbcaa", "cacab", "abcab"])
    path = tmp_path / "narrow.txt"
    narrow.save(path)
    wide = Dictionary(["abc", "def", "ghi"])  # 4 planes for 3 positions
    dictionaries = (narrow, Dictionary.from_file(path), wide)
    assert builds == []
    for d in dictionaries:
        _check_scans(d, ["abcab", MaskedString.parse("a?c?b"), "xyzab"] if d.length == 5 else ["abc", "axc"])
        assert count_matches(d, MaskedString("?" * d.length, MaskSet(range(1, d.length + 1)))) == d.size
    assert builds == [(4, 5), (4, 5), (3, 3)]
    assert wide.planes.bits.shape == (4, 3)
    planes = narrow.planes
    assert planes.bits.shape == (2, 4) and planes.alphabet.tolist() == [ord("a"), ord("b"), ord("c")]
    # bit p of plane b is bit b of the rank of the symbol at position p + 1
    assert [int(w) for w in planes.bits[0]] == [0b10010, 0b00011, 0b10000, 0b10010]
    assert [int(w) for w in planes.bits[1]] == [0b00100, 0b00100, 0b00101, 0b00100]
    for array in (planes.bits, planes.alphabet):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    mismatch_masks(narrow, "bbbbb")
    assert narrow.planes is planes and len(builds) == 3


def test_lex_smaller_follows_the_position_list_order():
    masks = [MaskSet.from_bits(bits) for bits in range(1 << 7)]
    for a in masks:
        for b in masks:
            if len(a) == len(b):
                assert lex_smaller(a.bits, b.bits) == (a.positions < b.positions), (a, b)
