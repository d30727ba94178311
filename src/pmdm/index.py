"""Query structures for repeated minimum-mask lookups over one dictionary.

Three structures, trading construction cost and space for query speed:

* full-table scan: one counter per position subset, filled from mismatch
  bitmasks and completed by a sum-over-subsets pass, so entry K holds the
  exact number of entries the query matches when masked by K;
* fixed-size tables: for one mask size k, counts of identical masked
  strings under each of the C(length, k) masks, pruned below a minimum
  supported threshold, held as one sorted array of keys beside one array
  of counts: a key is the mask rank, then the alphabet ranks of the
  symbols the mask keeps, folded in radix into uint64 words.  The build
  costs one uint64 product and one sort of d keys per mask.  A query
  folds its C(length, k) keys with one product, searches them in one
  pass and picks the highest count, ties going to the lexicographically
  smallest position list;
* half-split tables: per side, one sorted array of (half mask, masked
  half) keys with their counts and member lists, plus one sorted array of
  exact pair counters, keyed by the two halves' group ids, for the half
  patterns frequent on both sides; masks with a rare half are counted
  from those halves' short member lists.  A query computes the count of
  all 2^l masks at once: one search of each side's 2^(l/2) query keys,
  one subset-count table over the at most 2^(l/2 + 1) * max(tau, z0)
  members of its rare halves, and one search of the pair counters with
  at most 2^l ascending keys; no step reads the whole dictionary.

All three agree with a plain linear scan on every mask they cover, and
all sorted key arrays are read through the one helper ``_lookup``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from . import exact
from .core import (
    MAX_LENGTH,
    CapacityError,
    Dictionary,
    MaskSet,
    _codes,
    mismatch_masks,
    pack_bits,
    rank_query,
    rank_symbols,
)
from .exact import _best_in_table, _check_queries, _check_threshold, subset_counts

#: Cap on the workspace of a build or a load, checked before it allocates:
#: C(length, k) * max(d, length) for the fixed-size tables (d keys per mask,
#: and ``_combinations``'s mask tables of length cells per mask); pair
#: entries plus members for the half-split tables.
DEFAULT_WORKSPACE_LIMIT = 1 << 26

_MAGIC = b"PMDM2"
_KIND_DICTIONARY = 1
_KIND_SIMPLE_RETIRED = 2
_KIND_SPLIT_RETIRED = 3
_KIND_SPLIT = 4
_KIND_SIMPLE_BLOB_RETIRED = 5
_KIND_SIMPLE = 6


@dataclass(frozen=True)
class SmallEllTable:
    """counts[bits] = entries matched by the query masked at ``bits``."""

    counts: np.ndarray
    length: int
    size: int


def _check_table_length(length: int) -> None:
    """Refuse a structure over all 2^length masks past the table limit."""
    limit = exact.DEFAULT_TABLE_LIMIT
    if length > limit:
        raise CapacityError(f"length {length} exceeds the table limit {limit} (2^{length} masks)")


def _check_parameter(name: str, value: int, upper: int) -> None:
    if not 1 <= value <= upper:
        raise ValueError(f"{name} must be in [1, {upper}]")


def small_ell_build(dictionary: Dictionary, q: str) -> SmallEllTable:
    """Histogram the mismatch bitmasks, then run the subset-sum pass."""
    _check_table_length(dictionary.length)
    counts = subset_counts(mismatch_masks(dictionary, q), dictionary.length)
    return SmallEllTable(counts, dictionary.length, dictionary.size)


def small_ell_query(table: SmallEllTable, z: int) -> MaskSet:
    """Fewest-position mask reaching ``z`` matches; ties go to the most
    matches, then to the lexicographically smallest position list, as in
    ``solve_pmdm``."""
    _check_threshold(z, table.size)
    return _best_in_table([table.counts], z, table.length)


@dataclass(frozen=True, eq=False)
class SimpleIndex:
    """Counts of identical masked strings for every mask of one size k.

    Masks are numbered by their rank in ``itertools.combinations`` order,
    and ``alphabet`` holds the dictionary's distinct code points, ascending
    (uint32).  A masked string's key is its mask rank, then the alphabet
    ranks of the symbols the mask keeps (none when k = length), folded in
    radix C(length, k), then sigma = len(alphabet), into uint64 words; a
    new word starts wherever the next symbol would carry a word past 2^64
    (``_key_layout``).  One-word keys are a uint64 array, wider ones void
    rows of their big-endian words, so either way the keys sort by mask
    first, then by the kept symbols in code-point order.  ``counts[i]``
    (uint32) entries share the masked string of ``keys[i]``; the keys are
    sorted and hold no repeats.  Items with counts below ``min_threshold``
    are dropped, and so are queries below it; queries above ``size``, the
    number of dictionary entries, are refused.
    """

    length: int
    mask_size: int
    min_threshold: int
    size: int
    alphabet: np.ndarray
    keys: np.ndarray
    counts: np.ndarray


@lru_cache(maxsize=8)
def _combinations(length: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every mask of ``k`` of ``length`` positions, in ``combinations``
    order: its bits (uint64) and its kept positions, ascending, as a
    (C(length, k), length - k) array."""
    masked = np.zeros((comb(length, k), length), dtype=bool)
    masked[np.arange(len(masked))[:, None], list(combinations(range(length), k))] = True
    bits = masked @ (np.uint64(1) << np.arange(length, dtype=np.uint64))
    kept = np.nonzero(~masked)[1].reshape(len(masked), length - k)
    bits.flags.writeable = kept.flags.writeable = False
    return bits, kept


def _check_simple_workspace(length: int, k: int, d: int) -> None:
    """Refuse fixed-size tables of d entries whose C(length, k) masks times
    max(d, length) pass the workspace limit, before any mask is enumerated."""
    if comb(length, k) * max(d, length) > DEFAULT_WORKSPACE_LIMIT:
        raise CapacityError(
            f"workspace C({length},{k})*{max(d, length)} exceeds limit {DEFAULT_WORKSPACE_LIMIT}"
        )


@lru_cache(maxsize=8)
def _key_layout(length: int, k: int, sigma: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """How ``SimpleIndex`` keys fold.  A key's digits are the mask rank
    (radix C(length, k)), then the length - k kept symbols' alphabet ranks
    (radix sigma); each word takes the next digits while the product of
    their radices, ``spans[j]`` for word j, stays within 2^64.  A row of
    digits times ``place``, a (1 + length - k, words) uint64 matrix of each
    digit's place value in its own word, is the key's row of words."""
    radices = [comb(length, k)] + [sigma] * (length - k)
    word, spans = [], [1]
    for radix in radices:
        if spans[-1] * radix > 1 << 64:
            spans.append(1)
        spans[-1] *= radix
        word.append(len(spans) - 1)
    place = np.zeros((len(radices), len(spans)), dtype=np.uint64)
    value = 1
    for i in reversed(range(len(radices))):
        if i + 1 == len(radices) or word[i + 1] != word[i]:
            value = 1  # the last digit of its word
        place[i, word[i]] = value
        value *= radices[i]
    place.flags.writeable = False
    return place, tuple(spans)


def _as_keys(words: np.ndarray) -> np.ndarray:
    """``SimpleIndex`` keys from an (n, words) array of uint64 words: the
    native words when there is one, else void rows of the big-endian
    words, whose byte order is the words' order."""
    if words.shape[1] == 1:
        return words[:, 0].astype(np.uint64, copy=False)
    return np.ascontiguousarray(words, dtype=">u8").view(np.dtype((np.void, 8 * words.shape[1]))).ravel()


def _key_rows(ranks, codes: np.ndarray) -> np.ndarray:
    """Half keys: each mask rank as a big-endian uint32, then a row of code
    points, so byte order sorts by mask first."""
    rows = np.empty((codes.shape[0], 1 + codes.shape[1]), dtype=np.uint32)
    rows[:, 0] = np.asarray(ranks, dtype=">u4").view(np.uint32)
    rows[:, 1:] = codes
    return rows.view(np.dtype((np.void, 4 * rows.shape[1]))).ravel()


def _key_table(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's mask rank and its row of code points."""
    rows = keys.view(np.uint32).reshape(len(keys), keys.dtype.itemsize // 4)
    # a key's first uint32 holds its mask rank, big-endian
    return rows[:, 0].astype(np.uint32).view(">u4").astype(np.int64), rows[:, 1:]


def _lookup(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Each wanted key's position in the sorted, repeat-free ``keys``, or -1
    where it is absent: one search, fastest when ``wanted`` ascends."""
    at = np.searchsorted(keys, wanted)
    hit = at < len(keys)
    hit[hit] = keys[at[hit]] == wanted[hit]
    return np.where(hit, at, -1)


def _strictly_ascending(keys: np.ndarray) -> bool:
    """Whether the void ``keys`` ascend in byte order without repeats."""
    rows = keys.view(np.uint8).reshape(len(keys), keys.dtype.itemsize)
    later, earlier = rows[1:], rows[:-1]
    first = (later != earlier).argmax(axis=1)  # first differing byte
    at = np.arange(len(first))
    return bool((later[at, first] > earlier[at, first]).all())


def simple_build(dictionary: Dictionary, k: int, z0: int = 1) -> SimpleIndex:
    """Group masked strings per mask of size ``k``; keep counts >= ``z0``.

    ``core.rank_symbols`` ranks the code points once, in code-point order.
    Each entry's row of digits (a 1 for the mask rank, then its ranks) times
    a weight matrix, the key layout's place values scattered to the mask's
    kept columns and the rank's place value times the rank, is the row of
    the entry's key words under that mask.  One sort of the d keys (a lexsort
    of the word columns when a key takes several words) yields the mask's
    groups in key order, and each kept group's key is one of its sorted
    keys.  So the cost is one uint64 product and one sort of d keys per
    mask, and the masks' keys, rank first, come out in order.
    """
    length = dictionary.length
    d = dictionary.size
    _check_parameter("k", k, length)
    _check_parameter("z0", z0, d)
    _check_simple_workspace(length, k, d)
    _, kept = _combinations(length, k)
    alphabet, ranks = rank_symbols(dictionary.codes)
    place, spans = _key_layout(length, k, len(alphabet))
    digits = np.ones((d, 1 + length), dtype=np.uint64)
    digits[:, 1:] = ranks
    weights = np.zeros((1 + length, len(spans)), dtype=np.uint64)
    keys, counts = [], []
    edge = np.ones(d + 1, dtype=bool)  # edge[i]: a group starts at sorted row i
    for rank, cols in enumerate(kept):
        weights[0] = rank * place[0]
        weights[1:] = 0
        weights[1 + cols] = place[1:]
        words = digits @ weights
        if len(spans) == 1:
            words = np.sort(words[:, 0])
            np.not_equal(words[1:], words[:-1], out=edge[1:d])
        else:
            words = words[np.lexsort(words.T[::-1])]
            np.any(words[1:] != words[:-1], axis=1, out=edge[1:d])
        bounds = np.flatnonzero(edge)  # group starts, then d
        sizes = bounds[1:] - bounds[:-1]
        kept_groups = sizes >= z0
        keys.append(words[bounds[:-1][kept_groups]])
        counts.append(sizes[kept_groups])
    keys = _as_keys(np.concatenate(keys).reshape(-1, len(spans)))
    return SimpleIndex(
        length, k, z0, d, alphabet, keys, np.concatenate(counts).astype(np.uint32)
    )


def simple_counts(idx: SimpleIndex, q: str) -> np.ndarray:
    """counts[r] = stored count of ``q`` masked by the mask of rank r (in
    ``combinations`` order), or 0 where that masked string is not stored:
    one product folds the C(length, k) query keys, and one search finds
    them in the sorted ``keys``.  A mask that keeps a symbol missing from
    the alphabet reads 0."""
    _check_queries([q], idx.length)
    _, kept = _combinations(idx.length, idx.mask_size)
    ranks, missing = rank_query(idx.alphabet, _codes(q))
    place, _ = _key_layout(idx.length, idx.mask_size, len(idx.alphabet))
    digits = np.empty((len(kept), place.shape[0]), dtype=np.uint64)
    digits[:, 0] = np.arange(len(kept))
    digits[:, 1:] = ranks[kept]
    at = _lookup(idx.keys, _as_keys(digits @ place))
    if missing.any():
        at[missing[kept].any(axis=1)] = -1
    out = np.zeros(len(kept), dtype=np.int64)
    out[at >= 0] = idx.counts[at[at >= 0]]
    return out


def simple_query(idx: SimpleIndex, q: str, z: int) -> tuple[MaskSet, int] | None:
    """The mask of the index's size with the highest stored count, if that
    count reaches ``z``, with the count; else None.  Ties go to the
    lexicographically smallest position list (the first in
    ``combinations`` order).  Costs one search of C(length, k) keys."""
    _check_threshold(z, idx.size, idx.min_threshold)
    counts = simple_counts(idx, q)
    best = int(np.argmax(counts))
    if counts[best] < z:
        return None
    bits, _ = _combinations(idx.length, idx.mask_size)
    return MaskSet.from_bits(int(bits[best])), int(counts[best])


@lru_cache(maxsize=8)
def _half_masks(width: int) -> np.ndarray:
    """masked[m, j]: half mask m masks the half's position j."""
    masked = (np.arange(1 << width)[:, None] >> np.arange(width) & 1).astype(bool)
    masked.flags.writeable = False
    return masked


class _HalfMaps:
    """One side's grouping of the entries by their masked half.

    Under each half mask m (bit j masks position ``offset + j``), entries
    with equal symbols on the positions m keeps form a group.  ``keys``
    holds one key per group, sorted: m as a big-endian uint32, then the
    half's code points with the masked ones set to 0, which is unambiguous
    because m says which ones are masked.  A key's position in ``keys`` is
    its group's id, so each mask's groups have consecutive ids, ascending
    with the mask.  ``counts[g]`` is group g's size.  ``members`` is a
    (2^width, size) uint32 array whose row m lists every entry once, mask
    m's groups back to back, so group g's members are
    ``members.ravel()[starts[g] : starts[g] + counts[g]]``.
    """

    __slots__ = ("offset", "width", "keys", "counts", "members", "starts")

    def __init__(self, offset, width, keys, counts, members):
        self.offset = offset
        self.width = width
        self.keys: np.ndarray = keys
        self.counts: np.ndarray = counts
        self.members: np.ndarray = members
        # every mask's groups partition the entries, so the running total of
        # the sizes reaches row m of ``members`` exactly at m * size
        self.starts = np.cumsum(counts) - counts


def _build_half(codes: np.ndarray, offset: int, width: int) -> tuple[_HalfMaps, np.ndarray]:
    """One side's maps, and each entry's group id under every half mask as a
    (2^width, size) array."""
    d = codes.shape[0]
    half = codes[:, offset : offset + width]
    keys, counts, members, inverses = [], [], [], []
    for m, masked in enumerate(_half_masks(width)):
        uniq, inv, sizes = np.unique(
            _key_rows(np.full(d, m), np.where(masked, 0, half)), return_inverse=True, return_counts=True
        )
        keys.append(uniq)
        counts.append(sizes)
        members.append(np.argsort(inv, kind="stable"))
        inverses.append(inv)
    gids = np.array(inverses, dtype=np.int64)
    gids[1:] += np.cumsum([len(uniq) for uniq in keys[:-1]], dtype=np.int64)[:, None]
    side = _HalfMaps(
        offset, width, np.concatenate(keys), np.concatenate(counts).astype(np.int64),
        np.array(members, dtype=np.uint32),
    )
    return side, gids


@dataclass(frozen=True, eq=False)
class SplitIndex:
    """Half-split structure: per-half tables plus frequent-pair counters.

    The string is cut after ``half_split`` positions; a full mask ``bits``
    is the left half mask ``bits & (2^half_split - 1)`` and the right half
    mask ``bits >> half_split``.  ``pair_keys`` holds, sorted, the key
    ``left group id * len(right.keys) + right group id`` of every pair of
    halves, both frequent, that some entry has under some full mask, and
    ``pair_counts`` the number of such entries; a group id names its half
    mask, so a key names its full mask too.  ``dictionary`` is the
    dictionary the index was built from, whose code-point rows the query
    gathers for the members of its rare halves.

    A query (``split_counts``) costs one search of each side's 2^(l/2)
    query keys, one subset-count table over at most 2^(l/2 + 1) *
    max(tau, z0) members of rare halves, and one search of at most 2^l
    ascending pair keys.
    """

    half_split: int
    tau: int
    min_threshold: int
    dictionary: Dictionary
    left: _HalfMaps
    right: _HalfMaps
    pair_keys: np.ndarray
    pair_counts: np.ndarray

    @property
    def length(self) -> int:
        return self.dictionary.length

    @property
    def size(self) -> int:
        return self.dictionary.size


def _check_split_workspace(length: int, d: int, pairs: int = 0) -> None:
    """Refuse half-split tables of d entries whose members (d per half mask
    on each side) plus ``pairs`` pair entries pass the workspace limit."""
    lam = (length + 1) // 2
    members = ((1 << lam) + (1 << (length - lam))) * d
    if pairs + members > DEFAULT_WORKSPACE_LIMIT:
        raise CapacityError(
            f"{pairs} pair entries and {members} members exceed the limit "
            f"{DEFAULT_WORKSPACE_LIMIT}"
        )


def split_build(dictionary: Dictionary, tau: int, z0: int = 1) -> SplitIndex:
    """Build half tables and the frequent-pair counters over all masks.

    For every full mask and every entry, the pair counter of the entry's
    two masked halves is incremented exactly when both halves occur at
    least ``tau`` times on their own sides.  Raises CapacityError when
    the halves' members (checked before the halves are built) plus those
    increments (checked before the pair loop) exceed
    ``DEFAULT_WORKSPACE_LIMIT``.
    """
    length = dictionary.length
    d = dictionary.size
    _check_table_length(length)
    _check_parameter("tau", tau, d)
    _check_parameter("z0", z0, d)
    _check_split_workspace(length, d)
    lam = (length + 1) // 2
    left, gid_left = _build_half(dictionary.codes, 0, lam)
    right, gid_right = _build_half(dictionary.codes, lam, length - lam)
    # frequent_*[m, e]: entry e's half under half mask m occurs >= tau times
    frequent_left = left.counts[gid_left] >= tau
    frequent_right = right.counts[gid_right] >= tau
    # the pair entries are the sum of frequent_left @ frequent_right.T,
    # which is the product of the two column sums
    _check_split_workspace(length, d, int(frequent_left.sum(axis=0) @ frequent_right.sum(axis=0)))
    # a side of width w has at most 2^w * d groups, so the members guard
    # keeps len(left.keys) + len(right.keys) <= 2^26 and every key < 2^50
    n_right = len(right.keys)
    keys, counts = [], []
    for m_l in range(1 << lam):
        # all right half masks at once; m_l's group ids lie above those of
        # every earlier left mask, so the keys come out sorted
        frequent = frequent_left[m_l] & frequent_right
        pairs = np.broadcast_to(gid_left[m_l] * n_right, frequent.shape)[frequent] + gid_right[frequent]
        pair_keys, pair_counts = np.unique(pairs, return_counts=True)
        keys.append(pair_keys)
        counts.append(pair_counts)
    return SplitIndex(
        lam, tau, z0, dictionary, left, right, np.concatenate(keys), np.concatenate(counts)
    )


def _half_lookup(side: _HalfMaps, q_codes: np.ndarray, rare_below: int) -> tuple[np.ndarray, ...]:
    """Per half mask: the group id of the query's masked half (-1 when no
    entry has it), and whether that group is rare (fewer than
    ``rare_below`` members) or frequent."""
    masked = _half_masks(side.width)
    half = q_codes[side.offset : side.offset + side.width]
    gid = _lookup(side.keys, _key_rows(np.arange(len(masked)), np.where(masked, 0, half)))
    present = gid >= 0
    rare = present & (side.counts[gid] < rare_below)
    return gid, rare, present & ~rare


def _members(side: _HalfMaps, groups: np.ndarray) -> np.ndarray:
    """The members of ``side``'s groups ``groups``, back to back."""
    sizes = side.counts[groups]
    ends = np.cumsum(sizes)
    # member i of group j sits at starts[groups[j]] + i in members.ravel()
    at = np.arange(sizes.sum()) + np.repeat(side.starts[groups] - (ends - sizes), sizes)
    return side.members.ravel()[at]


def split_counts(idx: SplitIndex, q: str) -> np.ndarray:
    """counts[bits] = entries matched by ``q`` masked at ``bits``, for every
    mask below 2^length, exactly.

    On each side the query's half content is looked up under every half
    mask.  An entry that ``q`` matches under a mask whose half content is
    rare (seen fewer than max(tau, z0) times) on either side is a member
    of that half's group, so one subset-count table over the members of
    all the query's rare halves counts every mask with a rare half
    exactly, and every mask with a half no entry has as 0.  The masks
    frequent on both sides read their pair counter instead.
    """
    _check_queries([q], idx.length)
    left, right = idx.left, idx.right
    rare_below = max(idx.tau, idx.min_threshold)
    q_codes = _codes(q)
    gid_l, rare_l, frequent_l = _half_lookup(left, q_codes, rare_below)
    gid_r, rare_r, frequent_r = _half_lookup(right, q_codes, rare_below)
    # an entry in rare groups of both sides, or of several half masks, once
    rare = np.unique(np.concatenate([_members(left, gid_l[rare_l]), _members(right, gid_r[rare_r])]))
    out = subset_counts(pack_bits(idx.dictionary.codes[rare] != q_codes), idx.length)
    grid = out.reshape(1 << right.width, 1 << left.width)  # grid[m_r, m_l] is out[bits]
    rows_f = np.flatnonzero(frequent_r)
    cols_f = np.flatnonzero(frequent_l)
    if rows_f.size and cols_f.size:
        # left mask outer, right mask inner: group ids ascend with their
        # half masks, so the keys ascend and the search reads pair_keys in order
        at = _lookup(idx.pair_keys, (gid_l[cols_f, None] * len(right.keys) + gid_r[rows_f]).ravel())
        pairs = np.zeros(len(at), dtype=out.dtype)  # 0 where no entry has the pair
        pairs[at >= 0] = idx.pair_counts[at[at >= 0]]
        grid[np.ix_(rows_f, cols_f)] = pairs.reshape(len(cols_f), len(rows_f)).T
    return out


def count_for_mask(idx: SplitIndex, q: str, mask: MaskSet | int) -> int:
    """Exact number of entries matched by ``q`` masked at ``mask``."""
    bits = mask.bits if isinstance(mask, MaskSet) else mask
    if bits >> idx.length:
        raise ValueError("mask position out of range")
    return int(split_counts(idx, q)[bits])


def split_query(idx: SplitIndex, q: str, z: int) -> MaskSet:
    """Fewest-position mask with exact count >= ``z``; ties go to the most
    matches, then to the lexicographically smallest position list, as in
    ``solve_pmdm``."""
    _check_threshold(z, idx.size, idx.min_threshold)
    counts = split_counts(idx, q)
    return _best_in_table([counts], z, idx.length)


# ---------------------------------------------------------------------------
# Binary serialization.  A file is the magic "PMDM2", a kind byte, then
# little-endian fields unless a field says otherwise; every table is
# written as a few whole arrays, and text (entries, half keys) as one
# UTF-8 blob (u8 byte count, then the strings back to back):
#
# * dictionary (kind 1): length u4, size u4, then the entries joined by
#   "\n" as a blob;
# * simple (kind 6): length u4, mask_size u4, z0 u4, size u4, sigma u4,
#   n u8, then alphabet u4[sigma], the keys' words as big-endian u8[n * W]
#   (W words a key, as ``_key_layout`` fixes from the header) and counts
#   u4[n]: the in-memory arrays themselves, in key order, which the loader
#   reads and checks without rebuilding a key;
# * split (kind 4): length u4, half_split u1, tau u4, z0 u4, size u4 and
#   the entries as for a dictionary; then per side of width w: groups per
#   mask u4[2^w], group sizes u8[total groups], members u4[size * 2^w]
#   (each mask's groups back to back) and the keys in group id order, where
#   a group of mask m contributes the w - popcount(m) characters m keeps;
#   then the pair counters: n u8, keys u8[n], counts u8[n], as in memory.
#
# Files of the older one-field-per-item layout (magic "PMDM1"), split
# files of kind 3, which stored the pair counters per full mask, simple
# files of kind 2, which stored no dictionary size, and simple files of
# kind 5, which stored each item's mask bits and a UTF-8 blob of its kept
# symbols, are refused and must be rebuilt.


def _w(fh, fmt: str, *values) -> None:
    fh.write(struct.pack("<" + fmt, *values))


def _w_array(fh, values, dtype: str) -> None:
    fh.write(np.asarray(values, dtype=dtype).tobytes())


def _w_str(fh, s: str) -> None:
    raw = s.encode("utf-8")
    _w(fh, "Q", len(raw))
    fh.write(raw)


class _Reader:
    """Cursor over an index file's bytes.  Every read is checked against the
    bytes left, so a corrupt count fails with ValueError instead of
    allocating without bound."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, n: int, itemsize: int = 1) -> bytes:
        start = self.pos
        end = start + n * itemsize
        if end > len(self.data):
            raise ValueError(
                f"corrupt index file: {n} items of {itemsize} bytes requested, "
                f"{len(self.data) - start} bytes left"
            )
        self.pos = end
        return self.data[start:end]

    def fields(self, fmt: str) -> tuple:
        st = _STRUCTS[fmt]
        return st.unpack(self.read(st.size))

    def array(self, dtype: str, n: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        return np.frombuffer(self.read(n, dtype.itemsize), dtype=dtype)

    def string(self) -> str:
        (n,) = self.fields("Q")
        return self.read(n).decode("utf-8")


_STRUCTS = {fmt: struct.Struct("<" + fmt) for fmt in ("B", "I", "II", "Q", "IIIIIQ", "IBII")}


def save_index(path, obj: Dictionary | SimpleIndex | SplitIndex) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        if isinstance(obj, Dictionary):
            _w(fh, "B", _KIND_DICTIONARY)
            _w(fh, "II", obj.length, obj.size)
            _w_str(fh, "\n".join(obj.entries))
        elif isinstance(obj, SimpleIndex):
            _w(fh, "B", _KIND_SIMPLE)
            _w(
                fh, "IIIIIQ", obj.length, obj.mask_size, obj.min_threshold, obj.size,
                len(obj.alphabet), len(obj.keys),
            )
            _w_array(fh, obj.alphabet, "<u4")
            # wide keys already hold their big-endian words
            _w_array(fh, obj.keys.view(">u8") if obj.keys.dtype.kind == "V" else obj.keys, ">u8")
            _w_array(fh, obj.counts, "<u4")
        elif isinstance(obj, SplitIndex):
            _w(fh, "B", _KIND_SPLIT)
            _w(fh, "IBII", obj.length, obj.half_split, obj.tau, obj.min_threshold)
            _w(fh, "I", obj.size)
            _w_str(fh, "\n".join(obj.dictionary.entries))
            for side in (obj.left, obj.right):
                ranks, codes = _key_table(side.keys)
                _w_array(fh, np.bincount(ranks, minlength=1 << side.width), "<u4")
                _w_array(fh, side.counts, "<u8")
                _w_array(fh, side.members, "<u4")
                kept = ~_half_masks(side.width)[ranks]
                _w_str(fh, codes[kept].astype("<u4").tobytes().decode("utf-32-le"))
            _w(fh, "Q", len(obj.pair_keys))
            _w_array(fh, obj.pair_keys, "<u8")
            _w_array(fh, obj.pair_counts, "<u8")
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")


def _read_dictionary(rd: _Reader, length: int, size: int) -> Dictionary:
    """The entries blob, checked against the header's ``length`` and
    ``size``; ``Dictionary`` refuses empty or unequal strings."""
    dictionary = Dictionary(rd.string().split("\n"))
    if dictionary.length != length or dictionary.size != size:
        raise ValueError("index header disagrees with payload")
    return dictionary


def _load_dictionary(rd: _Reader) -> Dictionary:
    return _read_dictionary(rd, *rd.fields("II"))


def _load_simple(rd: _Reader) -> SimpleIndex:
    length, mask_size, z0, size, sigma, n = rd.fields("IIIIIQ")
    if not 1 <= mask_size <= length <= MAX_LENGTH or not 1 <= z0 <= size or not sigma:
        raise ValueError("corrupt index file: header field out of range")
    _check_simple_workspace(length, mask_size, size)
    alphabet = rd.array("<u4", sigma)
    if (alphabet[1:] <= alphabet[:-1]).any() or alphabet[-1] > 0x10FFFF:
        raise ValueError("corrupt index file: alphabet out of order, repeated or past U+10FFFF")
    _, spans = _key_layout(length, mask_size, sigma)
    words = rd.array(">u8", n * len(spans)).reshape(n, len(spans))
    counts = rd.array("<u4", n)
    # a word's leading digit, the mask rank or a symbol, stays below its
    # radix exactly when the word stays below its span
    if any((words[:, j] >= span).any() for j, span in enumerate(spans) if span < 1 << 64):
        raise ValueError(
            f"corrupt index file: a key is not a mask of {mask_size} of the {length} positions "
            f"over {sigma} symbols"
        )
    keys = _as_keys(words)
    ascending = (keys[1:] > keys[:-1]).all() if len(spans) == 1 else _strictly_ascending(keys)
    if not ascending:
        raise ValueError("corrupt index file: simple index items out of order or repeated")
    if (counts < z0).any() or (counts > size).any():
        raise ValueError("corrupt index file: an item's count is below z0 or above the dictionary size")
    return SimpleIndex(length, mask_size, z0, size, alphabet, keys, counts)


def _load_half(rd: _Reader, offset: int, width: int, size: int) -> _HalfMaps:
    masked = _half_masks(width)
    n_groups = rd.array("<u4", len(masked))
    sizes = rd.array("<u8", int(n_groups.sum()))
    members = rd.array("<u4", size * len(masked))
    ends = np.cumsum(n_groups, dtype=np.int64)
    if (
        not n_groups.all()
        or not sizes.all()
        or (sizes > size).any()
        or (np.add.reduceat(sizes, ends - n_groups) != size).any()
    ):
        raise ValueError("corrupt index file: group sizes do not add up to the dictionary size")
    if (members >= size).any():
        raise ValueError("corrupt index file: member id out of range")
    ranks = np.repeat(np.arange(len(masked)), n_groups)
    kept = ~masked[ranks]
    text = rd.string()
    if len(text) != np.count_nonzero(kept):
        raise ValueError("corrupt index file: key blob length disagrees with its key counts")
    codes = np.zeros(kept.shape, dtype=np.uint32)
    codes[kept] = _codes(text)
    keys = _key_rows(ranks, codes)
    if not _strictly_ascending(keys):
        raise ValueError("corrupt index file: half keys of one mask out of order or repeated")
    return _HalfMaps(offset, width, keys, sizes.astype(np.int64), members.reshape(len(masked), size))


def _load_split(rd: _Reader) -> SplitIndex:
    length, lam, tau, z0 = rd.fields("IBII")
    (size,) = rd.fields("I")
    if lam != (length + 1) // 2 or not 1 <= tau <= size or not 1 <= z0 <= size:
        raise ValueError("corrupt index file: header field out of range")
    _check_table_length(length)
    # the build's guard, which also keeps every pair key below 2^50
    _check_split_workspace(length, size)
    dictionary = _read_dictionary(rd, length, size)
    left = _load_half(rd, 0, lam, size)
    right = _load_half(rd, lam, length - lam, size)
    (n,) = rd.fields("Q")
    keys = rd.array("<u8", n)
    counts = rd.array("<u8", n)
    if (keys >= len(left.keys) * len(right.keys)).any():
        raise ValueError("corrupt index file: pair key out of range")
    if (keys[1:] <= keys[:-1]).any():
        raise ValueError("corrupt index file: pair keys out of order or repeated")
    return SplitIndex(lam, tau, z0, dictionary, left, right, keys.view(np.int64), counts.view(np.int64))


_RETIRED_KINDS = {
    _KIND_SIMPLE_RETIRED: "simple index file has the retired layout without the dictionary size",
    _KIND_SIMPLE_BLOB_RETIRED: "simple index file has the retired layout of mask bits and key blobs",
    _KIND_SPLIT_RETIRED: "split index file has the retired per-mask pair layout",
}

_LOADERS = {
    _KIND_DICTIONARY: _load_dictionary,
    _KIND_SIMPLE: _load_simple,
    _KIND_SPLIT: _load_split,
}


def load_index(path) -> Dictionary | SimpleIndex | SplitIndex:
    with open(path, "rb") as fh:
        rd = _Reader(fh.read())
    magic = rd.read(len(_MAGIC))
    if magic == b"PMDM1":
        raise ValueError(
            "index file has the retired PMDM1 layout; rebuild it with `pmdm index build`"
        )
    if magic != _MAGIC:
        raise ValueError("not an index file (bad magic)")
    (kind,) = rd.fields("B")
    if kind in _RETIRED_KINDS:
        raise ValueError(f"{_RETIRED_KINDS[kind]}; rebuild it with `pmdm index build`")
    if kind not in _LOADERS:
        raise ValueError(f"unknown index kind {kind}")
    obj = _LOADERS[kind](rd)
    if rd.pos != len(rd.data):
        raise ValueError("corrupt index file: trailing bytes after the tables")
    return obj
