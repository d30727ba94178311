"""Query structures for repeated minimum-mask lookups over one dictionary.

Three structures, trading construction cost and space for query speed:

* full-table scan: one counter per position subset, filled from mismatch
  bitmasks and completed by a sum-over-subsets pass, so entry K holds the
  exact number of entries the query matches when masked by K;
* fixed-size tables: for one mask size k, counts of identical masked
  strings under each of the C(length, k) masks, pruned below a minimum
  supported threshold, held as one sorted array of (mask rank, kept code
  points) keys beside one array of counts.  A query searches its C(length,
  k) keys in one pass and picks the highest count, ties going to the
  lexicographically smallest position list;
* half-split tables: counts and member lists per masked half, plus exact
  pair counters for the half patterns frequent on both sides; rare halves
  fall back to scanning their short member lists.  A query computes the
  count of all 2^l masks at once: 2 * 2^(l/2) dictionary lookups of the
  query's half contents, one scan over the at most 2^(l/2) * max(tau, z0)
  members of its rare halves, and one vectorized search of the pair
  counters for the remaining masks; no step reads the whole dictionary.

All three agree with a plain linear scan on every mask they cover.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .core import (
    MAX_LENGTH,
    CapacityError,
    Dictionary,
    InfeasibleThresholdError,
    MaskSet,
    _codes,
    mismatch_masks,
    pack_bits,
)
from .exact import _best_in_table, subset_counts

#: Largest string length for which 2^length tables may be built.
DEFAULT_TABLE_LIMIT = 24

#: Cap on the workspace of a build: C(length, k) * d for the fixed-size
#: tables, pair entries plus members for the half-split tables.
DEFAULT_WORKSPACE_LIMIT = 1 << 26

_MAGIC = b"PMDM2"
_KIND_DICTIONARY = 1
_KIND_SIMPLE = 2
_KIND_SPLIT = 3


@dataclass(frozen=True)
class SmallEllTable:
    """counts[bits] = entries matched by the query masked at ``bits``."""

    counts: np.ndarray
    length: int
    size: int


def small_ell_build(dictionary: Dictionary, q: str) -> SmallEllTable:
    """Histogram the mismatch bitmasks, then run the subset-sum pass."""
    length = dictionary.length
    if length > DEFAULT_TABLE_LIMIT:
        raise CapacityError(
            f"length {length} exceeds the table limit {DEFAULT_TABLE_LIMIT} "
            f"(2^{length} counters)"
        )
    counts = subset_counts(mismatch_masks(dictionary, q), length)
    return SmallEllTable(counts, length, dictionary.size)


def small_ell_query(table: SmallEllTable, z: int) -> MaskSet:
    """Fewest-position mask reaching ``z`` matches; ties go to the most
    matches, then to the lexicographically smallest position list, as in
    ``solve_pmdm``."""
    _check_threshold(z, table.size)
    return _best_in_table(table.counts >= z, table.counts, table.length)


def _check_threshold(z: int, size: int, min_threshold: int = 1) -> None:
    if z < min_threshold:
        raise ValueError(f"z={z} below the minimum supported threshold {min_threshold}")
    if z > size:
        raise InfeasibleThresholdError(f"threshold {z} exceeds dictionary size {size}")


@dataclass(frozen=True, eq=False)
class SimpleIndex:
    """Counts of identical masked strings for every mask of one size k.

    Masks are numbered by their rank in ``itertools.combinations`` order.
    ``counts[i]`` entries share the masked string of ``keys[i]``, a void
    row of the mask's rank as a big-endian uint32, then the native uint32
    code points the mask keeps (none when k = length); so the keys, in
    byte order, are sorted by mask first and hold no repeats.  Items with
    counts below ``min_threshold`` are dropped, and so are queries below it.
    """

    length: int
    mask_size: int
    min_threshold: int
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


def _key_rows(ranks, codes: np.ndarray) -> np.ndarray:
    """``SimpleIndex`` keys: each mask rank as a big-endian uint32, then a
    row of kept code points."""
    rows = np.empty((codes.shape[0], 1 + codes.shape[1]), dtype=np.uint32)
    rows[:, 0] = np.asarray(ranks, dtype=">u4").view(np.uint32)
    rows[:, 1:] = codes
    return _void_view(rows)


def _void_view(block: np.ndarray) -> np.ndarray:
    block = np.ascontiguousarray(block)
    return block.view(np.dtype((np.void, block.dtype.itemsize * block.shape[1]))).ravel()


def _decode_rows(void_rows: np.ndarray, width: int) -> list[str]:
    if width == 0:
        return [""] * len(void_rows)
    text = void_rows.tobytes().decode("utf-32-le")
    return [text[i * width : (i + 1) * width] for i in range(len(void_rows))]


def simple_build(dictionary: Dictionary, k: int, z0: int = 1) -> SimpleIndex:
    """Group masked strings per mask of size ``k``; keep counts >= ``z0``."""
    length = dictionary.length
    d = dictionary.size
    if not 1 <= k <= length:
        raise ValueError(f"k must be in [1, {length}]")
    if not 1 <= z0 <= d:
        raise ValueError(f"z0 must be in [1, {d}]")
    if comb(length, k) * d > DEFAULT_WORKSPACE_LIMIT:
        raise CapacityError(
            f"workspace C({length},{k})*{d} exceeds limit {DEFAULT_WORKSPACE_LIMIT}"
        )
    _, kept = _combinations(length, k)
    keys, counts = [], []
    for rank, cols in enumerate(kept):
        uniq, n = np.unique(_key_rows(np.full(d, rank), dictionary.codes[:, cols]), return_counts=True)
        keys.append(uniq[n >= z0])
        counts.append(n[n >= z0])
    return SimpleIndex(length, k, z0, np.concatenate(keys), np.concatenate(counts).astype(np.int64))


def simple_counts(idx: SimpleIndex, q: str) -> np.ndarray:
    """counts[r] = stored count of ``q`` masked by the mask of rank r (in
    ``combinations`` order), or 0 where that masked string is not stored:
    one search of the C(length, k) query keys in the sorted ``keys``."""
    if len(q) != idx.length:
        raise ValueError(f"query length {len(q)} differs from index length {idx.length}")
    _, kept = _combinations(idx.length, idx.mask_size)
    wanted = _key_rows(np.arange(len(kept)), _codes(q)[kept])
    at = np.searchsorted(idx.keys, wanted)
    hit = at < len(idx.keys)
    hit[hit] = idx.keys[at[hit]] == wanted[hit]
    out = np.zeros(len(kept), dtype=np.int64)
    out[hit] = idx.counts[at[hit]]
    return out


def simple_query(idx: SimpleIndex, q: str, z: int) -> tuple[MaskSet, int] | None:
    """The mask of the index's size with the highest stored count, if that
    count reaches ``z``, with the count; else None.  Ties go to the
    lexicographically smallest position list (the first in
    ``combinations`` order).  Costs one search of C(length, k) keys."""
    if z < idx.min_threshold:
        raise ValueError(
            f"z={z} below the index's minimum supported threshold "
            f"{idx.min_threshold}; counts below it were discarded"
        )
    counts = simple_counts(idx, q)
    best = int(np.argmax(counts))
    if counts[best] < z:
        return None
    bits, _ = _combinations(idx.length, idx.mask_size)
    return MaskSet.from_bits(int(bits[best])), int(counts[best])


def _unmasked_columns(offset: int, width: int) -> list[list[int]]:
    """For each half mask m, the string positions of the half that m keeps."""
    return [[offset + j for j in range(width) if not m >> j & 1] for m in range(1 << width)]


class _HalfMaps:
    """One side's grouping of the entries by their masked half.

    Under each half mask m (bit j masks position ``offset + j``), entries
    with equal symbols on the kept ``columns[m]`` form a group.  Groups are
    numbered mask by mask: mask m owns the ids ``group_base[m]`` up to
    ``group_base[m + 1]``, and ``key_to_gid[m]`` maps a kept content to its
    id within the mask.  ``counts[g]`` is group g's size.  ``members`` is a
    (2^width, size) uint32 array whose row m lists every entry once, mask
    m's groups back to back, so group g's members are
    ``members.ravel()[starts[g] : starts[g] + counts[g]]``.  Apart from the
    derived ``group_base``, ``starts`` and ``columns``, this is one side of
    the PMDM2 file.
    """

    __slots__ = ("offset", "width", "key_to_gid", "counts", "members", "group_base", "starts", "columns")

    def __init__(self, offset, width, key_to_gid, n_groups, counts, members):
        self.offset = offset
        self.width = width
        self.key_to_gid: list[dict[str, int]] = key_to_gid
        self.counts: np.ndarray = counts
        self.members: np.ndarray = members
        self.group_base = np.concatenate(([0], np.cumsum(n_groups, dtype=np.int64)))
        # every mask's groups partition the entries, so the running total of
        # the sizes reaches row m of ``members`` exactly at m * size
        self.starts = np.cumsum(counts) - counts
        self.columns = _unmasked_columns(offset, width)


def _build_half(codes: np.ndarray, offset: int, width: int) -> tuple[_HalfMaps, np.ndarray]:
    """One side's maps, and each entry's group id within every half mask as a
    (2^width, size) array."""
    d = codes.shape[0]
    key_to_gid, counts, members, inverses = [], [], [], []
    for cols in _unmasked_columns(offset, width):
        if cols:
            void = _void_view(codes[:, cols])
            uniq, inv, group_sizes = np.unique(void, return_inverse=True, return_counts=True)
            keys = _decode_rows(uniq, len(cols))
        else:
            inv = np.zeros(d, dtype=np.int64)
            group_sizes = np.array([d])
            keys = [""]
        key_to_gid.append(dict(zip(keys, range(len(keys)))))
        counts.append(group_sizes)
        members.append(np.argsort(inv, kind="stable"))
        inverses.append(inv)
    half = _HalfMaps(
        offset,
        width,
        key_to_gid,
        [len(group_sizes) for group_sizes in counts],
        np.concatenate(counts).astype(np.int64),
        np.array(members, dtype=np.uint32),
    )
    return half, np.array(inverses, dtype=np.int64)


class SplitIndex:
    """Half-split structure: per-half tables plus frequent-pair counters.

    The string is cut after ``half_split`` positions; a full mask ``bits``
    is the left half mask ``bits & (2^half_split - 1)`` and the right half
    mask ``bits >> half_split``.  The pair counters of all full masks are
    flat arrays: full mask ``pair_bits[i]`` owns the segment
    ``pair_starts[i]`` to ``pair_starts[i + 1]`` of ``pair_keys`` (sorted
    keys ``left gid * right groups of the mask + right gid``) and
    ``pair_counts``, and ``pair_segment[bits]`` is that i, or -1 for a mask
    without counters.  ``codes`` is the entries' (size, length) uint32
    code-point matrix, which the rare-half scans read.

    A query (``split_counts``) costs 2 * 2^(l/2) dictionary lookups, one
    scan over at most 2^(l/2) * max(tau, z0) members of rare halves, and
    one vectorized search of the pair counters of at most 2^l masks.
    """

    __slots__ = (
        "length",
        "half_split",
        "tau",
        "min_threshold",
        "entries",
        "codes",
        "left",
        "right",
        "pair_bits",
        "pair_starts",
        "pair_keys",
        "pair_counts",
        "pair_segment",
    )

    def __init__(
        self, length, half_split, tau, min_threshold, entries, codes, left, right,
        pair_bits, pair_sizes, pair_keys, pair_counts,
    ):
        self.length = length
        self.half_split = half_split
        self.tau = tau
        self.min_threshold = min_threshold
        self.entries = entries
        self.codes: np.ndarray = codes
        self.left: _HalfMaps = left
        self.right: _HalfMaps = right
        self.pair_bits: np.ndarray = pair_bits
        self.pair_starts = np.concatenate(([0], np.cumsum(pair_sizes, dtype=np.int64)))
        self.pair_keys: np.ndarray = pair_keys
        self.pair_counts: np.ndarray = pair_counts
        self.pair_segment = np.full(1 << length, -1, dtype=np.int32)
        self.pair_segment[pair_bits] = np.arange(len(pair_bits))

    @property
    def size(self) -> int:
        return len(self.entries)


def _check_split_workspace(pairs: int, members: int) -> None:
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
    if length > DEFAULT_TABLE_LIMIT:
        raise CapacityError(
            f"length {length} exceeds the table limit {DEFAULT_TABLE_LIMIT}"
        )
    if not 1 <= tau <= d:
        raise ValueError(f"tau must be in [1, {d}]")
    if not 1 <= z0 <= d:
        raise ValueError(f"z0 must be in [1, {d}]")
    lam = (length + 1) // 2
    members = ((1 << lam) + (1 << (length - lam))) * d
    _check_split_workspace(0, members)
    left, inv_left = _build_half(dictionary.codes, 0, lam)
    right, inv_right = _build_half(dictionary.codes, lam, length - lam)
    # frequent_*[m, e]: entry e's half under half mask m occurs >= tau times
    frequent_left = left.counts[left.group_base[:-1, None] + inv_left] >= tau
    frequent_right = right.counts[right.group_base[:-1, None] + inv_right] >= tau
    # the pair entries are the sum of frequent_left @ frequent_right.T,
    # which is the product of the two column sums
    _check_split_workspace(int(frequent_left.sum(axis=0) @ frequent_right.sum(axis=0)), members)
    n_right = np.diff(right.group_base)
    low = (1 << lam) - 1
    bits, sizes, keys, counts = [], [], [], []
    for full in range(1 << length):
        m_l = full & low
        m_r = full >> lam
        frequent = frequent_left[m_l] & frequent_right[m_r]
        if not frequent.any():
            continue
        combined = inv_left[m_l][frequent] * n_right[m_r] + inv_right[m_r][frequent]
        pair_keys, pair_counts = np.unique(combined, return_counts=True)
        bits.append(full)
        sizes.append(len(pair_keys))
        keys.append(pair_keys)
        counts.append(pair_counts)
    return SplitIndex(
        length, lam, tau, z0, dictionary.entries, dictionary.codes, left, right,
        np.array(bits, dtype=np.int64), np.array(sizes, dtype=np.int64),
        _cat(keys), _cat(counts),
    )


def _half_lookup(side: _HalfMaps, q: str, rare_below: int) -> tuple[np.ndarray, ...]:
    """Per half mask: the query's group id within the mask (-1 when no entry
    has that content), its global group id, and whether it is rare (present
    with fewer than ``rare_below`` members) or frequent."""
    gid = np.array(
        [table.get("".join([q[c] for c in cols]), -1) for table, cols in zip(side.key_to_gid, side.columns)],
        dtype=np.int64,
    )
    present = gid >= 0
    group = side.group_base[:-1] + np.maximum(gid, 0)
    rare = present & (side.counts[group] < rare_below)
    return gid, group, rare, present & ~rare


def _scan_groups(
    side: _HalfMaps, groups: np.ndarray, other: _HalfMaps, codes: np.ndarray, q_codes: np.ndarray
) -> np.ndarray:
    """counts[i, m] = members of ``side``'s group ``groups[i]`` whose other
    half matches the query under the other side's half mask m: each
    member's mismatch bitmask on the other half, histogrammed per group and
    completed by a subset-sum pass."""
    sizes = side.counts[groups]
    ends = np.cumsum(sizes)
    row = np.repeat(np.arange(len(groups), dtype=np.uint64), sizes)
    # the groups' members concatenated: member i of group j sits at
    # starts[groups[j]] + i in members.ravel()
    at = np.arange(ends[-1]) + np.repeat(side.starts[groups] - (ends - sizes), sizes)
    cols = slice(other.offset, other.offset + other.width)
    mismatch = pack_bits(codes[side.members.ravel()[at], cols] != q_codes[cols])
    table = subset_counts(row << np.uint64(other.width) | mismatch, other.width, len(groups))
    return table.reshape(len(groups), 1 << other.width)


def _stored_pair_counts(idx: SplitIndex, bits: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The pair counter of each (full mask, pair key), 0 where none is
    stored: a lower-bound bisection run inside every mask's key segment at
    once, so no composite key can overflow."""
    out = np.zeros(len(bits), dtype=np.int64)
    seg = idx.pair_segment[bits]
    hit = np.flatnonzero(seg >= 0)
    seg, keys = seg[hit], keys[hit]
    lo = idx.pair_starts[seg]
    end = idx.pair_starts[seg + 1]
    n = end - lo
    last = len(idx.pair_keys) - 1
    while n.any():
        half = n >> 1
        mid = lo + half
        below = (n > 0) & (idx.pair_keys[np.minimum(mid, last)] < keys)
        lo = np.where(below, mid + 1, lo)
        n = np.where(below, n - half - 1, half)
    at = np.minimum(lo, last)
    found = (lo < end) & (idx.pair_keys[at] == keys)
    out[hit[found]] = idx.pair_counts[at[found]]
    return out


def split_counts(idx: SplitIndex, q: str) -> np.ndarray:
    """counts[bits] = entries matched by ``q`` masked at ``bits``, for every
    mask below 2^length, exactly.

    On each side the query's half content is looked up under every half
    mask.  A mask whose half content occurs in no entry counts 0.  A mask
    whose left half is rare (seen fewer than max(tau, z0) times) counts
    the members of that left group matching the query on the right half;
    otherwise a rare right half does the same the other way round.  All
    rare groups are scanned in one pass.  The remaining masks, frequent on
    both sides, read their pair counter.
    """
    if len(q) != idx.length:
        raise ValueError(f"query length {len(q)} differs from index length {idx.length}")
    left, right = idx.left, idx.right
    rare_below = max(idx.tau, idx.min_threshold)
    gid_l, group_l, rare_l, frequent_l = _half_lookup(left, q, rare_below)
    gid_r, group_r, rare_r, frequent_r = _half_lookup(right, q, rare_below)
    q_codes = _codes(q)
    out = np.zeros(1 << idx.length, dtype=np.int64)
    grid = out.reshape(1 << right.width, 1 << left.width)  # grid[m_r, m_l] is out[bits]
    cols_l = np.flatnonzero(rare_l)
    if cols_l.size:
        grid[:, cols_l] = _scan_groups(left, group_l[cols_l], right, idx.codes, q_codes).T
    rows_r = np.flatnonzero(rare_r)
    cols_f = np.flatnonzero(frequent_l)
    if rows_r.size and cols_f.size:
        scanned = _scan_groups(right, group_r[rows_r], left, idx.codes, q_codes)
        grid[np.ix_(rows_r, cols_f)] = scanned[:, cols_f]
    rows_f = np.flatnonzero(frequent_r)
    if rows_f.size and cols_f.size:
        n_right = np.diff(right.group_base)[rows_f, None]
        bits = (rows_f[:, None] << left.width | cols_f).ravel()
        keys = (gid_l[cols_f] * n_right + gid_r[rows_f, None]).ravel()
        out[bits] = _stored_pair_counts(idx, bits, keys)
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
    counts = split_counts(idx, q)
    _check_threshold(z, idx.size, idx.min_threshold)
    return _best_in_table(counts >= z, counts, idx.length)


# ---------------------------------------------------------------------------
# Binary serialization.  A file is the magic "PMDM2", a kind byte, then
# little-endian fields; every table is written as a few whole arrays, and
# keys as one UTF-8 blob (u8 byte count, then the keys back to back, each
# exactly as long as its mask leaves unmasked):
#
# * dictionary: length u4, size u4, then the entries joined by "\n" as a blob;
# * simple: length u4, mask_size u4, z0 u4, n u8, then bits u8[n],
#   counts u8[n] and the keys, length - mask_size characters each; items in
#   the byte order of the in-memory keys (mask rank, then code points);
# * split: length u4, half_split u1, tau u4, z0 u4, size u4 and the entries
#   as for a dictionary; then per side of width w: groups per mask u4[2^w],
#   group sizes u8[total groups], members u4[size * 2^w] (each mask's groups
#   back to back) and the keys, where mask m contributes
#   groups[m] * (w - popcount m) characters; then the pair tables: n u4,
#   bits u8[n], pairs per table u8[n], all pair keys u8[], all counts u8[].
#
# Files of the older one-field-per-item layout (magic "PMDM1") are refused
# and must be rebuilt.


def _w(fh, fmt: str, *values) -> None:
    fh.write(struct.pack("<" + fmt, *values))


def _w_array(fh, values, dtype: str) -> None:
    fh.write(np.asarray(values, dtype=dtype).tobytes())


def _w_str(fh, s: str) -> None:
    raw = s.encode("utf-8")
    _w(fh, "Q", len(raw))
    fh.write(raw)


def _cat(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)


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

    def keys(self, n_keys: np.ndarray, widths: np.ndarray) -> list[list[str]]:
        """A key blob cut into ``n_keys[i]`` keys of ``widths[i]`` characters."""
        text = self.string()
        if len(text) != int(np.dot(n_keys.astype(np.int64), widths)):
            raise ValueError("corrupt index file: key blob length disagrees with its key counts")
        out: list[list[str]] = []
        pos = 0
        for n, width in zip(n_keys.tolist(), widths.tolist()):
            end = pos + n * width
            if width:
                out.append([text[i : i + width] for i in range(pos, end, width)])
            else:
                out.append([""] * n)
            pos = end
        return out


_STRUCTS = {fmt: struct.Struct("<" + fmt) for fmt in ("B", "I", "II", "Q", "IIIQ", "IBII")}


def save_index(path, obj: Dictionary | SimpleIndex | SplitIndex) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        if isinstance(obj, Dictionary):
            _w(fh, "B", _KIND_DICTIONARY)
            _w(fh, "II", obj.length, obj.size)
            _w_str(fh, "\n".join(obj.entries))
        elif isinstance(obj, SimpleIndex):
            bits, _ = _combinations(obj.length, obj.mask_size)
            rows = obj.keys.view(np.uint32).reshape(len(obj.keys), 1 + obj.length - obj.mask_size)
            _w(fh, "B", _KIND_SIMPLE)
            _w(fh, "IIIQ", obj.length, obj.mask_size, obj.min_threshold, len(rows))
            # a key's first uint32 holds its mask rank, big-endian
            _w_array(fh, bits[rows[:, 0].astype(np.uint32).view(">u4")], "<u8")
            _w_array(fh, obj.counts, "<u8")
            _w_str(fh, rows[:, 1:].astype("<u4").tobytes().decode("utf-32-le"))
        elif isinstance(obj, SplitIndex):
            _w(fh, "B", _KIND_SPLIT)
            _w(fh, "IBII", obj.length, obj.half_split, obj.tau, obj.min_threshold)
            _w(fh, "I", len(obj.entries))
            _w_str(fh, "\n".join(obj.entries))
            for side in (obj.left, obj.right):
                _w_array(fh, np.diff(side.group_base), "<u4")
                _w_array(fh, side.counts, "<u8")
                _w_array(fh, side.members, "<u4")
                _w_str(fh, "".join(key for keys in side.key_to_gid for key in keys))
            _w(fh, "I", len(obj.pair_bits))
            _w_array(fh, obj.pair_bits, "<u8")
            _w_array(fh, np.diff(obj.pair_starts), "<u8")
            _w_array(fh, obj.pair_keys, "<u8")
            _w_array(fh, obj.pair_counts, "<u8")
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")


def _load_dictionary(rd: _Reader) -> Dictionary:
    length, size = rd.fields("II")
    dictionary = Dictionary(rd.string().split("\n"))
    if dictionary.length != length or dictionary.size != size:
        raise ValueError("index header disagrees with payload")
    return dictionary


def _load_simple(rd: _Reader) -> SimpleIndex:
    length, mask_size, z0, n = rd.fields("IIIQ")
    if not 1 <= mask_size <= length <= MAX_LENGTH or z0 < 1:
        raise ValueError("corrupt index file: header field out of range")
    if comb(length, mask_size) > DEFAULT_WORKSPACE_LIMIT:
        raise CapacityError(f"C({length},{mask_size}) masks exceed the limit {DEFAULT_WORKSPACE_LIMIT}")
    bits = rd.array("<u8", n)
    counts = rd.array("<u8", n)
    text = rd.string()
    width = length - mask_size
    if len(text) != n * width:
        raise ValueError("corrupt index file: key blob length disagrees with its key counts")
    # items come mask by mask in combinations order: find each item's rank
    all_bits, _ = _combinations(length, mask_size)
    order = np.argsort(all_bits)
    rank = order[np.searchsorted(all_bits, bits, sorter=order).clip(max=len(order) - 1)]
    if (all_bits[rank] != bits).any():
        raise ValueError(
            f"corrupt index file: an item's mask is not {mask_size} of the {length} positions"
        )
    keys = _key_rows(rank, _codes(text).reshape(n, width))
    rows = keys.view(np.uint8).reshape(n, keys.dtype.itemsize)
    later, earlier = rows[1:], rows[:-1]
    first = (later != earlier).argmax(axis=1)  # first differing byte
    at = np.arange(len(first))
    if not (later[at, first] > earlier[at, first]).all():
        raise ValueError("corrupt index file: simple index items out of order or repeated")
    return SimpleIndex(length, mask_size, z0, keys, counts.astype(np.int64))


def _load_half(rd: _Reader, offset: int, width: int, size: int) -> _HalfMaps:
    n_masks = 1 << width
    n_groups = rd.array("<u4", n_masks)
    sizes = rd.array("<u8", int(n_groups.sum()))
    members = rd.array("<u4", size * n_masks)
    ends = np.cumsum(n_groups, dtype=np.int64)
    if (
        not n_groups.all()
        or (sizes > size).any()
        or (np.add.reduceat(sizes, ends - n_groups) != size).any()
    ):
        raise ValueError("corrupt index file: group sizes do not add up to the dictionary size")
    if (members >= size).any():
        raise ValueError("corrupt index file: member id out of range")
    keys = rd.keys(n_groups, width - np.bitwise_count(np.arange(n_masks)))
    key_to_gid = [dict(zip(mask_keys, range(len(mask_keys)))) for mask_keys in keys]
    if any(len(table) != len(mask_keys) for table, mask_keys in zip(key_to_gid, keys)):
        raise ValueError("corrupt index file: a half key repeated within one mask")
    return _HalfMaps(
        offset, width, key_to_gid, n_groups, sizes.astype(np.int64), members.reshape(n_masks, size)
    )


def _load_split(rd: _Reader) -> SplitIndex:
    length, lam, tau, z0 = rd.fields("IBII")
    (size,) = rd.fields("I")
    if lam != (length + 1) // 2 or not 1 <= tau <= size or not 1 <= z0 <= size:
        raise ValueError("corrupt index file: header field out of range")
    if length > DEFAULT_TABLE_LIMIT:
        raise CapacityError(f"length {length} exceeds the table limit {DEFAULT_TABLE_LIMIT}")
    entries = tuple(rd.string().split("\n"))
    if len(entries) != size or any(len(entry) != length for entry in entries):
        raise ValueError("index header disagrees with payload")
    left = _load_half(rd, 0, lam, size)
    right = _load_half(rd, lam, length - lam, size)
    (n_tables,) = rd.fields("I")
    bits = rd.array("<u8", n_tables)
    n_pairs = rd.array("<u8", n_tables)
    if (bits >= 1 << length).any() or (bits[1:] <= bits[:-1]).any():
        raise ValueError("corrupt index file: pair table masks out of range or out of order")
    if (n_pairs > size).any() or not n_pairs.all():
        raise ValueError("corrupt index file: pair table empty or with more pairs than entries")
    n_total = int(n_pairs.sum())
    keys = rd.array("<u8", n_total).view(np.int64)
    counts = rd.array("<u8", n_total).view(np.int64)
    # the queries bisect each table's keys, so they must ascend strictly
    # within a table; a table's first key may be below its predecessor's last
    ascending = keys[1:] > keys[:-1]
    ascending[np.cumsum(n_pairs)[:-1] - 1] = True
    if not ascending.all():
        raise ValueError("corrupt index file: pair keys out of order or repeated within a table")
    codes = _codes("".join(entries)).reshape(size, length)
    return SplitIndex(
        length, lam, tau, z0, entries, codes, left, right,
        bits.astype(np.int64), n_pairs.astype(np.int64), keys, counts,
    )


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
    if kind not in _LOADERS:
        raise ValueError(f"unknown index kind {kind}")
    obj = _LOADERS[kind](rd)
    if rd.pos != len(rd.data):
        raise ValueError("corrupt index file: trailing bytes after the tables")
    return obj
