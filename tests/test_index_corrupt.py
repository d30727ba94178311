"""Crafted corrupt index files fail with ValueError, and the CLI exits 2.

A count field that claims more items than the file holds must be refused
before anything of that size is allocated, and a field that the queries
would index with must be refused when it is out of range.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

import pmdm.index
from pmdm import CapacityError, Dictionary
from pmdm.cli import main
from pmdm.index import (
    count_for_mask,
    load_index,
    save_index,
    simple_build,
    simple_counts,
    split_build,
)
from support import combination_bits, oracle_counts_all_masks

HUGE = (1 << 32) - 1


def _str(text: str, declared: int | None = None) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<Q", len(raw) if declared is None else declared) + raw


def _u4(*values: int) -> bytes:
    return np.array(values, dtype="<u4").tobytes()


def _u8(*values: int) -> bytes:
    return np.array(values, dtype="<u8").tobytes()


def _be8(*values: int) -> bytes:
    return np.array(values, dtype=">u8").tobytes()


def split_file(
    tau: int = 1,
    half_split: int = 1,
    n_groups: int = 1,
    group_size: int = 1,
    member: int = 0,
    key: str = "a",
    n_pairs: int = 2,
    pair_keys: tuple[int, int] = (0, 1),
    length: int = 1,
    kind: int = 4,
) -> bytes:
    """The split index of the one-entry dictionary ["a"] with tau=1, written
    array by array, with the kind byte, the header's length, tau and half
    split, the left side's first group count, first group size, first
    member id and key blob, the pair count and the pair keys replaceable."""
    out = b"PMDM2" + struct.pack("<BIBII", kind, length, half_split, tau, 1)
    out += struct.pack("<I", 1) + _str("a")
    # left half, width 1: mask 0 keeps "a" (group 0), mask 1 keeps "" (group 1)
    out += _u4(n_groups, 1) + _u8(group_size, 1) + _u4(member, 0) + _str(key)
    # right half, width 0: one mask, one empty key (group 0)
    out += _u4(1) + _u8(1) + _u4(0) + _str("")
    # pair counters: key left group * 1 right group + right group, count 1
    out += _u8(n_pairs, *pair_keys) + _u8(1, 1)
    return out


def simple_file(
    n: int | None = None,
    mask_size: int = 1,
    length: int = 2,
    alphabet: str | tuple[int, ...] = "ab",
    keys: tuple[int, ...] = (1, 2),
    z0: int = 1,
    size: int = 1,
    counts: tuple[int, ...] | None = None,
    kind: int = 6,
) -> bytes:
    """The k=1 simple index of ["ab"], items in build order: mask {1} (rank
    0) keeps "b" (alphabet rank 1), key 0 * 2 + 1, and mask {2} (rank 1)
    keeps "a", key 1 * 2 + 0.  The kind byte, the header's item count, mask
    size, length, z0 and dictionary size, the alphabet (a string or code
    points), the one-word keys and their counts (1 each by default) are
    replaceable."""
    codes = [ord(c) for c in alphabet] if isinstance(alphabet, str) else list(alphabet)
    header = struct.pack(
        "<BIIIIIQ", kind, length, mask_size, z0, size, len(codes), len(keys) if n is None else n
    )
    counts = (1,) * len(keys) if counts is None else counts
    return b"PMDM2" + header + _u4(*codes) + _be8(*keys) + _u4(*counts)


#: 20 distinct symbols at length 20 and k=1: 20 * 20^19 key values pass
#: 2^64, so each key takes two words, the rank and 13 symbols (20^14
#: values), then 6 symbols (20^6 values)
WIDE_ENTRIES = ["abcdefghijklmnopqrst", "abcdefghijklmnopqrss"]


def wide_simple_file(
    word: tuple[int, int] | None = None, value: int = 0, swap: bool = False, repeat: bool = False
) -> bytes:
    """The file ``save_index`` writes for the k=1 simple index of
    ``WIDE_ENTRIES``, with word ``word`` (key, word) set to ``value``, its
    first two keys swapped, or its first key written over its second."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wide.bin"
        idx = simple_build(Dictionary(WIDE_ENTRIES), 1, 1)
        assert idx.keys.dtype.itemsize == 16
        save_index(path, idx)
        raw = bytearray(path.read_bytes())
    n = len(idx.keys)
    start = len(raw) - 20 * n  # then n keys of two words, then n u4 counts
    if word is not None:
        at = start + 16 * word[0] + 8 * word[1]
        raw[at:at + 8] = _be8(value)
    if swap:
        raw[start:start + 32] = raw[start + 16:start + 32] + raw[start:start + 16]
    if repeat:
        raw[start + 16:start + 32] = raw[start:start + 16]
    return bytes(raw)


def dictionary_file(declared: int | None = None, magic: bytes = b"PMDM2") -> bytes:
    return magic + struct.pack("<BII", 1, 1, 2) + _str("a\nb", declared)


def zero_length_split_file() -> bytes:
    """A split file of one empty entry: header length and half split 0, an
    empty entries blob, two sides of width 0 with one group of size 1
    each, and no pair counters.  Every count agrees, so only the refusal
    of an empty dictionary string stops it."""
    out = b"PMDM2" + struct.pack("<BIBII", 4, 0, 0, 1, 1) + struct.pack("<I", 1) + _str("")
    for _ in range(2):
        out += _u4(1) + _u8(1) + _u4(0) + _str("")
    return out + _u8(0)


def built_split_file(entries: list[str]) -> bytes:
    """The file ``save_index`` writes for the tau=1 split index of ``entries``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "split.bin"
        save_index(path, split_build(Dictionary(entries), 1))
        return path.read_bytes()


def split_file_pairs_swapped() -> bytes:
    """A 7-entry split file whose first two pair counters, key and count
    alike, are swapped: the same counters, out of key order."""
    entries = ["abc", "abd", "acc", "bbc", "abc", "cbd", "aca"]
    n = len(split_build(Dictionary(entries), 1).pair_keys)
    raw = bytearray(built_split_file(entries))
    # the file ends with all pair keys, then all pair counts, 8 bytes each
    for at in (len(raw) - 16 * n, len(raw) - 8 * n):
        raw[at:at + 16] = raw[at + 8:at + 16] + raw[at:at + 8]
    return bytes(raw)


def split_file_half_key_repeated() -> bytes:
    """The split file of ["ab", "bb", "bb"] with the left half's key blob
    "ab" (mask 0 keeps "a" and "b"; mask 1 keeps "") overwritten with "bb"."""
    raw = built_split_file(["ab", "bb", "bb"])
    assert raw.count(_str("ab")) == 1
    return raw.replace(_str("ab"), _str("bb"))


def test_crafted_split_file_matches_the_real_one(tmp_path):
    path = tmp_path / "real.bin"
    save_index(path, split_build(Dictionary(["a"]), 1))
    assert path.read_bytes() == split_file()
    loaded = load_index(path)
    assert [count_for_mask(loaded, "a", bits) for bits in (0, 1)] == [1, 1]


def test_crafted_simple_file_matches_the_real_one(tmp_path):
    path = tmp_path / "real.bin"
    idx = simple_build(Dictionary(["ab"]), 1, 1)
    save_index(path, idx)
    assert path.read_bytes() == simple_file()
    loaded = load_index(path)
    assert np.array_equal(loaded.keys, idx.keys) and np.array_equal(loaded.counts, idx.counts)
    for q in ("ab", "bb", "aa"):
        expected = oracle_counts_all_masks(Dictionary(["ab"]), q)[combination_bits(2, 1)]
        assert (simple_counts(loaded, q) == expected).all()


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(split_file(group_size=(1 << 64) - 1), id="member-count"),
        pytest.param(split_file(n_groups=HUGE), id="group-count"),
        pytest.param(split_file(n_pairs=1 << 60), id="pair-count"),
        pytest.param(dictionary_file(declared=1 << 62), id="string-length"),
        pytest.param(dictionary_file()[:-1], id="truncated-string"),
        pytest.param(split_file()[:-9], id="truncated-pairs"),
        pytest.param(split_file()[:3], id="truncated-magic"),
        pytest.param(split_file(member=7), id="member-out-of-range"),
        pytest.param(split_file(group_size=0), id="group-sizes-sum"),
        pytest.param(split_file(key="ab"), id="key-blob-too-long"),
        pytest.param(split_file(key=""), id="key-blob-too-short"),
        pytest.param(split_file(tau=2), id="tau-out-of-range"),
        pytest.param(split_file(half_split=0), id="half-split"),
        pytest.param(split_file() + b"\0", id="trailing-bytes"),
        pytest.param(split_file(pair_keys=(0, 2)), id="pair-key-out-of-range"),
        pytest.param(split_file(pair_keys=(1, 1)), id="pair-keys-repeated"),
        pytest.param(split_file_pairs_swapped(), id="pair-keys-out-of-order"),
        pytest.param(split_file_half_key_repeated(), id="half-key-repeated"),
        pytest.param(zero_length_split_file(), id="zero-length"),
        pytest.param(simple_file(n=3), id="simple-count"),
        pytest.param(simple_file(n=1 << 61), id="simple-count-huge"),
        pytest.param(simple_file(mask_size=0), id="simple-mask-size"),
        pytest.param(simple_file(length=65, mask_size=65, keys=()), id="simple-length"),
        # the first key at its span, 2 * 2: mask rank 2 of C(2, 1) = 2
        pytest.param(simple_file(keys=(1, 4)), id="simple-mask-out-of-range"),
        # at k=2 there is one mask and no symbol, so a key's span is 1
        pytest.param(simple_file(mask_size=2), id="simple-mask-wrong-size"),
        pytest.param(simple_file(keys=(2, 1)), id="simple-masks-out-of-order"),
        pytest.param(simple_file(keys=(1, 1)), id="simple-items-repeated"),
        pytest.param(simple_file(keys=(1, 0)), id="simple-keys-out-of-order"),
        pytest.param(simple_file(z0=2), id="simple-z0-above-size"),
        pytest.param(simple_file(z0=0, size=0), id="simple-size-zero"),
        pytest.param(simple_file(counts=(1, 2)), id="simple-count-above-size"),
        pytest.param(simple_file(counts=(1, 0)), id="simple-count-zero"),
        pytest.param(simple_file(z0=2, size=2, counts=(2, 1)), id="simple-count-below-z0"),
        pytest.param(simple_file(alphabet="ba"), id="simple-alphabet-out-of-order"),
        pytest.param(simple_file(alphabet="aa"), id="simple-alphabet-repeated"),
        pytest.param(simple_file(alphabet=(0x61, 0x110000)), id="simple-alphabet-past-unicode"),
        pytest.param(simple_file(alphabet="", keys=()), id="simple-alphabet-empty"),
        pytest.param(simple_file()[:-12], id="simple-keys-truncated"),
        pytest.param(simple_file() + b"\0", id="simple-trailing-bytes"),
        pytest.param(wide_simple_file((0, 1), 20**6), id="simple-wide-word-past-span"),
        pytest.param(wide_simple_file((0, 0), 20**14), id="simple-wide-rank-past-span"),
        pytest.param(wide_simple_file(swap=True), id="simple-wide-keys-out-of-order"),
        pytest.param(wide_simple_file(repeat=True), id="simple-wide-keys-repeated"),
        pytest.param(dictionary_file(magic=b"PMDM1"), id="old-format"),
    ],
)
def test_corrupt_counts_are_refused(tmp_path, capsys, payload):
    path = tmp_path / "corrupt.bin"
    path.write_bytes(payload)
    with pytest.raises(ValueError):
        load_index(path)
    code = main(["index", "query", "--index", str(path), "--query", "a", "--z", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_split_file_longer_than_the_table_limit_is_refused(tmp_path, capsys):
    # the header alone decides: 2^25 masks would need a 2^25-entry map
    path = tmp_path / "long.bin"
    path.write_bytes(split_file(length=25, half_split=13))
    with pytest.raises(CapacityError):
        load_index(path)
    code = main(["index", "query", "--index", str(path), "--query", "a", "--z", "1"])
    assert code == 3
    assert capsys.readouterr().out == ""


def test_simple_file_with_too_many_masks_is_refused(tmp_path, capsys, monkeypatch):
    # C(64, 32) masks would each be searched by every query, and the
    # C(64, 5) = 7 624 512 masks of the 38-byte header at k=5 need 64-column
    # mask tables (3.6 GiB) however small the dictionary; the header alone
    # decides, before any mask is enumerated
    def no_masks(*args):
        raise AssertionError("masks enumerated before the capacity check")

    monkeypatch.setattr(pmdm.index, "_combinations", no_masks)
    for mask_size in (32, 5):
        path = tmp_path / f"wide-{mask_size}.bin"
        path.write_bytes(simple_file(length=64, mask_size=mask_size, keys=()))
        with pytest.raises(CapacityError):
            load_index(path)
        code = main(["index", "query", "--index", str(path), "--query", "a" * 64, "--z", "1"])
        assert code == 3
        assert capsys.readouterr().out == ""


def test_old_format_asks_for_a_rebuild(tmp_path):
    path = tmp_path / "old.bin"
    path.write_bytes(dictionary_file(magic=b"PMDM1"))
    with pytest.raises(ValueError, match="rebuild"):
        load_index(path)


def test_split_file_of_the_per_mask_pair_layout_asks_for_a_rebuild(tmp_path, capsys):
    # kind 3 held the pair counters per full mask; the kind byte alone decides
    path = tmp_path / "old-split.bin"
    path.write_bytes(split_file(kind=3))
    with pytest.raises(ValueError, match="rebuild it with `pmdm index build`"):
        load_index(path)
    code = main(["index", "query", "--index", str(path), "--query", "a", "--z", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "rebuild" in captured.err


def test_simple_file_without_the_dictionary_size_asks_for_a_rebuild(tmp_path, capsys):
    # kind 2 stored no dictionary size; the kind byte alone decides
    path = tmp_path / "old-simple.bin"
    path.write_bytes(simple_file(kind=2))
    with pytest.raises(ValueError, match="rebuild it with `pmdm index build`"):
        load_index(path)
    code = main(["index", "query", "--index", str(path), "--query", "ab", "--z", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "rebuild" in captured.err


def test_simple_file_of_mask_bits_and_key_blobs_asks_for_a_rebuild(tmp_path, capsys):
    # kind 5 stored each item's mask bits and a UTF-8 blob of the kept
    # symbols; the kind byte alone decides
    path = tmp_path / "old-simple.bin"
    path.write_bytes(simple_file(kind=5))
    with pytest.raises(ValueError, match="rebuild it with `pmdm index build`"):
        load_index(path)
    code = main(["index", "query", "--index", str(path), "--query", "ab", "--z", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "rebuild" in captured.err


def test_intact_crafted_wide_simple_file_loads():
    # the crafted cases above change one thing of this file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wide.bin"
        path.write_bytes(wide_simple_file())
        loaded = load_index(path)
    d = Dictionary(WIDE_ENTRIES)
    for q in (WIDE_ENTRIES[0], "a" * 20):
        expected = oracle_counts_all_masks(d, q)[combination_bits(20, 1)]
        assert (simple_counts(loaded, q) == expected).all()


def test_intact_crafted_dictionary_file_loads(tmp_path):
    path = tmp_path / "dict.bin"
    path.write_bytes(dictionary_file())
    assert load_index(path) == Dictionary(["a", "b"])
