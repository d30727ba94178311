"""Query structures for repeated minimum-mask lookups over one dictionary.

Three structures, trading construction cost and space for query speed:

* full-table scan: one counter per position subset, filled from mismatch
  bitmasks and completed by a sum-over-subsets pass, so entry K holds the
  exact number of entries the query matches when masked by K;
* fixed-size tables: for one mask size k, counts of identical masked
  strings under each of the C(length, k) masks, pruned below a minimum
  supported threshold;
* half-split tables: counts and member lists per masked half, plus exact
  pair counters for the half patterns frequent on both sides; rare halves
  fall back to scanning their short member lists.

All three agree with a plain linear scan on every mask they cover.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .core import (
    CapacityError,
    Dictionary,
    InfeasibleThresholdError,
    MaskSet,
    mismatch_masks,
)
from .exact import subset_counts

#: Largest string length for which 2^length tables may be built.
DEFAULT_TABLE_LIMIT = 24

#: Cap on C(length, k) * d workspace for the fixed-size tables.
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


def small_ell_build(
    dictionary: Dictionary, q: str, table_limit: int = DEFAULT_TABLE_LIMIT
) -> SmallEllTable:
    """Histogram the mismatch bitmasks, then run the subset-sum pass."""
    length = dictionary.length
    if length > table_limit:
        raise CapacityError(
            f"length {length} exceeds the table limit {table_limit} "
            f"(2^{length} counters)"
        )
    counts = subset_counts(mismatch_masks(dictionary, q), length)
    return SmallEllTable(counts, length, dictionary.size)


def small_ell_query(table: SmallEllTable, z: int) -> MaskSet:
    """Fewest-position mask reaching ``z`` matches; ties by bitmask value."""
    if z < 1:
        raise ValueError("z must be positive")
    if z > table.size:
        raise InfeasibleThresholdError(
            f"threshold {z} exceeds dictionary size {table.size}"
        )
    qualifying = np.flatnonzero(table.counts >= z)
    ranks = (np.bitwise_count(qualifying).astype(np.int64) << 32) | qualifying
    return MaskSet.from_bits(int(qualifying[np.argmin(ranks)]))


@dataclass(frozen=True)
class SimpleIndex:
    """Counts of identical masked strings for every mask of one size.

    Only items whose count reaches ``min_threshold`` are kept, so queries
    below that threshold are rejected as unsupported.  Keys are the exact
    unmasked symbols by default; with ``fingerprints`` set they are 64-bit
    rolling hashes instead, each guarded by a representative entry that
    queries are verified against (collisions between stored groups are
    eliminated at build time by re-drawing the hash base).
    """

    length: int
    mask_size: int
    min_threshold: int
    table: dict[tuple[int, str | int], int]
    fingerprints: "_Fingerprinter | None" = None
    representatives: dict[tuple[int, int], str] | None = None


class _Fingerprinter:
    """Polynomial rolling hash of code points modulo a Mersenne prime."""

    MODULUS = (1 << 61) - 1

    def __init__(self, seed: int = 0, modulus: int = MODULUS):
        self.seed = seed
        self.modulus = modulus
        span = max(1, modulus - 512)
        self.base = 256 + random.Random(0x509D9 + seed).randrange(span)

    def of(self, symbols: str) -> int:
        value = 0
        for c in symbols:
            value = (value * self.base + ord(c) + 1) % self.modulus
        return value


def _void_view(block: np.ndarray) -> np.ndarray:
    block = np.ascontiguousarray(block)
    return block.view(np.dtype((np.void, block.dtype.itemsize * block.shape[1]))).ravel()


def _decode_rows(void_rows: np.ndarray, width: int) -> list[str]:
    if width == 0:
        return [""] * len(void_rows)
    text = void_rows.tobytes().decode("utf-32-le")
    return [text[i * width : (i + 1) * width] for i in range(len(void_rows))]


def simple_build(
    dictionary: Dictionary,
    k: int,
    z0: int = 1,
    workspace_limit: int = DEFAULT_WORKSPACE_LIMIT,
    use_fingerprints: bool = False,
    _modulus: int = _Fingerprinter.MODULUS,
) -> SimpleIndex:
    """Group masked strings per mask of size ``k``; keep counts >= ``z0``."""
    length = dictionary.length
    d = dictionary.size
    if not 1 <= k <= length:
        raise ValueError(f"k must be in [1, {length}]")
    if not 1 <= z0 <= d:
        raise ValueError(f"z0 must be in [1, {d}]")
    if comb(length, k) * d > workspace_limit:
        raise CapacityError(
            f"workspace C({length},{k})*{d} exceeds limit {workspace_limit}"
        )
    groups: list[tuple[int, list[str], np.ndarray]] = []
    for masked in combinations(range(length), k):
        bits = 0
        for p in masked:
            bits |= 1 << p
        cols = [p for p in range(length) if not bits >> p & 1]
        if cols:
            void = _void_view(dictionary.codes[:, cols])
            uniq, counts = np.unique(void, return_counts=True)
            keys = _decode_rows(uniq, len(cols))
        else:
            keys, counts = [""], np.array([d])
        groups.append((bits, keys, counts))
    if not use_fingerprints:
        table: dict[tuple[int, str | int], int] = {}
        for bits, keys, counts in groups:
            for key, count in zip(keys, counts):
                if count >= z0:
                    table[(bits, key)] = int(count)
        return SimpleIndex(length, k, z0, table)
    # fingerprint keys: re-draw the hash base until no two distinct stored
    # contents collide, then remember one representative per key so queries
    # can verify what they hit
    for seed in range(64):
        fp = _Fingerprinter(seed, _modulus)
        table = {}
        reps: dict[tuple[int, int], str] = {}
        collided = False
        for bits, keys, counts in groups:
            for key, count in zip(keys, counts):
                if count < z0:
                    continue
                slot = (bits, fp.of(key))
                if slot in reps and reps[slot] != key:
                    collided = True
                    break
                reps[slot] = key
                table[slot] = int(count)
            if collided:
                break
        if not collided:
            return SimpleIndex(length, k, z0, table, fp, reps)
    raise CapacityError("could not find a collision-free fingerprint base")


def simple_query(
    idx: SimpleIndex, q: str, z: int
) -> tuple[MaskSet, int] | None:
    """Best stored mask of the index's size with count >= ``z``, or None."""
    if z < idx.min_threshold:
        raise ValueError(
            f"z={z} below the index's minimum supported threshold "
            f"{idx.min_threshold}; counts below it were discarded"
        )
    if len(q) != idx.length:
        raise ValueError(f"query length {len(q)} differs from index length {idx.length}")
    best: tuple[MaskSet, int] | None = None
    for masked in combinations(range(idx.length), idx.mask_size):
        bits = 0
        for p in masked:
            bits |= 1 << p
        content = "".join(q[p] for p in range(idx.length) if not bits >> p & 1)
        if idx.fingerprints is None:
            count = idx.table.get((bits, content))
        else:
            slot = (bits, idx.fingerprints.of(content))
            count = idx.table.get(slot)
            if count is not None and idx.representatives[slot] != content:
                count = None  # hash collision with a different stored group
        if count is None or count < z:
            continue
        if best is None or count > best[1]:
            best = (MaskSet.from_bits(bits), count)
    return best


class _HalfMaps:
    """Per-side grouping: for each half mask, masked-half contents with
    counts and member entry lists."""

    __slots__ = ("offset", "width", "key_to_gid", "counts", "members", "keys")

    def __init__(self, offset: int, width: int):
        self.offset = offset
        self.width = width
        self.key_to_gid: list[dict[str, int]] = []
        self.counts: list[np.ndarray] = []
        self.members: list[list[np.ndarray]] = []
        self.keys: list[list[str]] = []


def _build_half(codes: np.ndarray, offset: int, width: int) -> tuple[_HalfMaps, list[np.ndarray]]:
    half = _HalfMaps(offset, width)
    d = codes.shape[0]
    inverses: list[np.ndarray] = []
    for m in range(1 << width):
        cols = [offset + j for j in range(width) if not m >> j & 1]
        if cols:
            void = _void_view(codes[:, cols])
            uniq, inv, counts = np.unique(void, return_inverse=True, return_counts=True)
            keys = _decode_rows(uniq, len(cols))
        else:
            inv = np.zeros(d, dtype=np.int64)
            counts = np.array([d], dtype=np.int64)
            keys = [""]
        order = np.argsort(inv, kind="stable")
        members = np.split(order, np.cumsum(counts)[:-1])
        half.key_to_gid.append({key: g for g, key in enumerate(keys)})
        half.counts.append(counts.astype(np.int64))
        half.members.append([np.asarray(mm, dtype=np.int64) for mm in members])
        half.keys.append(keys)
        inverses.append(np.asarray(inv, dtype=np.int64))
    return half, inverses


class SplitIndex:
    """Half-split structure: per-half tables plus frequent-pair counters."""

    __slots__ = (
        "length",
        "half_split",
        "tau",
        "min_threshold",
        "entries",
        "left",
        "right",
        "pair_tables",
    )

    def __init__(self, length, half_split, tau, min_threshold, entries, left, right, pair_tables):
        self.length = length
        self.half_split = half_split
        self.tau = tau
        self.min_threshold = min_threshold
        self.entries = entries
        self.left = left
        self.right = right
        self.pair_tables: dict[int, tuple[np.ndarray, np.ndarray]] = pair_tables

    @property
    def size(self) -> int:
        return len(self.entries)


def split_build(
    dictionary: Dictionary,
    tau: int,
    z0: int = 1,
    table_limit: int = DEFAULT_TABLE_LIMIT,
) -> SplitIndex:
    """Build half tables and the frequent-pair counters over all masks.

    For every full mask and every entry, the pair counter of the entry's
    two masked halves is incremented exactly when both halves occur at
    least ``tau`` times on their own sides.
    """
    length = dictionary.length
    d = dictionary.size
    if length > table_limit:
        raise CapacityError(
            f"length {length} exceeds the table limit {table_limit}"
        )
    if not 1 <= tau <= d:
        raise ValueError(f"tau must be in [1, {d}]")
    if not 1 <= z0 <= d:
        raise ValueError(f"z0 must be in [1, {d}]")
    lam = (length + 1) // 2
    left, inv_left = _build_half(dictionary.codes, 0, lam)
    right, inv_right = _build_half(dictionary.codes, lam, length - lam)
    low = (1 << lam) - 1
    pair_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for full in range(1 << length):
        m_l = full & low
        m_r = full >> lam
        gl = inv_left[m_l]
        gr = inv_right[m_r]
        frequent = (left.counts[m_l][gl] >= tau) & (right.counts[m_r][gr] >= tau)
        if not frequent.any():
            continue
        n_right = len(right.counts[m_r])
        combined = gl[frequent] * n_right + gr[frequent]
        keys, counts = np.unique(combined, return_counts=True)
        pair_tables[full] = (keys.astype(np.int64), counts.astype(np.int64))
    return SplitIndex(
        length, lam, tau, z0, dictionary.entries, left, right, pair_tables
    )


def _half_content(idx: SplitIndex, q: str, side: _HalfMaps, mask_bits: int) -> str:
    return "".join(
        q[side.offset + j] for j in range(side.width) if not mask_bits >> j & 1
    )


def count_for_mask(idx: SplitIndex, q: str, mask: MaskSet | int) -> int:
    """Exact number of entries matched by ``q`` masked at ``mask``."""
    bits = mask.bits if isinstance(mask, MaskSet) else mask
    if len(q) != idx.length:
        raise ValueError(f"query length {len(q)} differs from index length {idx.length}")
    if bits >> idx.length:
        raise ValueError("mask position out of range")
    lam = idx.half_split
    m_l = bits & ((1 << lam) - 1)
    m_r = bits >> lam
    gid_l = idx.left.key_to_gid[m_l].get(_half_content(idx, q, idx.left, m_l))
    if gid_l is None:
        return 0
    gid_r = idx.right.key_to_gid[m_r].get(_half_content(idx, q, idx.right, m_r))
    if gid_r is None:
        return 0
    count_l = int(idx.left.counts[m_l][gid_l])
    count_r = int(idx.right.counts[m_r][gid_r])
    seen_l = count_l if count_l >= idx.min_threshold else 0
    seen_r = count_r if count_r >= idx.min_threshold else 0
    if seen_l < idx.tau:
        cols = [lam + j for j in range(idx.right.width) if not m_r >> j & 1]
        total = 0
        for e in idx.left.members[m_l][gid_l]:
            entry = idx.entries[e]
            if all(entry[c] == q[c] for c in cols):
                total += 1
        return total
    if seen_r < idx.tau:
        cols = [j for j in range(idx.left.width) if not m_l >> j & 1]
        total = 0
        for e in idx.right.members[m_r][gid_r]:
            entry = idx.entries[e]
            if all(entry[c] == q[c] for c in cols):
                total += 1
        return total
    stored = idx.pair_tables.get(bits)
    if stored is None:
        return 0
    keys, counts = stored
    combined = gid_l * len(idx.right.counts[m_r]) + gid_r
    pos = int(np.searchsorted(keys, combined))
    if pos < len(keys) and keys[pos] == combined:
        return int(counts[pos])
    return 0


def split_query(idx: SplitIndex, q: str, z: int) -> MaskSet:
    """Fewest-position mask with exact count >= ``z``; ties by bitmask value."""
    if z < idx.min_threshold:
        raise ValueError(
            f"z={z} below the index's minimum supported threshold {idx.min_threshold}"
        )
    if z > idx.size:
        raise InfeasibleThresholdError(
            f"threshold {z} exceeds dictionary size {idx.size}"
        )
    masks = sorted(range(1 << idx.length), key=lambda i: (i.bit_count(), i))
    for bits in masks:
        if count_for_mask(idx, q, bits) >= z:
            return MaskSet.from_bits(bits)
    raise AssertionError("full mask matches every entry; unreachable")


# ---------------------------------------------------------------------------
# Binary serialization.  A file is the magic "PMDM2", a kind byte, then
# little-endian fields; every table is written as a few whole arrays, and
# keys as one UTF-8 blob (u8 byte count, then the keys back to back, each
# exactly as long as its mask leaves unmasked):
#
# * dictionary: length u4, size u4, then the entries joined by "\n" as a blob;
# * simple: length u4, mask_size u4, z0 u4, n u8, then bits u8[n],
#   counts u8[n] and the keys, length - mask_size characters each;
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
            if obj.fingerprints is not None:
                raise TypeError("fingerprint-keyed indexes are in-memory only")
            table = obj.table
            _w(fh, "B", _KIND_SIMPLE)
            _w(fh, "IIIQ", obj.length, obj.mask_size, obj.min_threshold, len(table))
            _w_array(fh, np.fromiter((bits for bits, _ in table), np.uint64, len(table)), "<u8")
            _w_array(fh, np.fromiter(table.values(), np.uint64, len(table)), "<u8")
            _w_str(fh, "".join(key for _, key in table))
        elif isinstance(obj, SplitIndex):
            _w(fh, "B", _KIND_SPLIT)
            _w(fh, "IBII", obj.length, obj.half_split, obj.tau, obj.min_threshold)
            _w(fh, "I", len(obj.entries))
            _w_str(fh, "\n".join(obj.entries))
            for side in (obj.left, obj.right):
                _w_array(fh, [len(keys) for keys in side.keys], "<u4")
                _w_array(fh, _cat(side.counts), "<u8")
                _w_array(fh, _cat([mm for groups in side.members for mm in groups]), "<u4")
                _w_str(fh, "".join(key for keys in side.keys for key in keys))
            order = sorted(obj.pair_tables)
            tables = [obj.pair_tables[bits] for bits in order]
            _w(fh, "I", len(order))
            _w_array(fh, order, "<u8")
            _w_array(fh, [len(keys) for keys, _ in tables], "<u8")
            _w_array(fh, _cat([keys for keys, _ in tables]), "<u8")
            _w_array(fh, _cat([counts for _, counts in tables]), "<u8")
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
    if not 1 <= mask_size <= length or z0 < 1:
        raise ValueError("corrupt index file: header field out of range")
    bits = rd.array("<u8", n)
    counts = rd.array("<u8", n)
    (keys,) = rd.keys(np.array([n]), np.array([length - mask_size]))
    return SimpleIndex(length, mask_size, z0, dict(zip(zip(bits.tolist(), keys), counts.tolist())))


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
    counts = sizes.astype(np.int64)
    members = members.astype(np.int64).reshape(n_masks, size)
    half = _HalfMaps(offset, width)
    start = 0
    for m, end in enumerate(ends.tolist()):
        group_sizes = counts[start:end]
        half.counts.append(group_sizes)
        half.members.append(np.split(members[m], np.cumsum(group_sizes[:-1])))
        half.keys.append(keys[m])
        half.key_to_gid.append(dict(zip(keys[m], range(len(keys[m])))))
        start = end
    return half


def _load_split(rd: _Reader) -> SplitIndex:
    length, lam, tau, z0 = rd.fields("IBII")
    (size,) = rd.fields("I")
    if lam != (length + 1) // 2 or not 1 <= tau <= size or not 1 <= z0 <= size:
        raise ValueError("corrupt index file: header field out of range")
    entries = tuple(rd.string().split("\n"))
    if len(entries) != size or any(len(entry) != length for entry in entries):
        raise ValueError("index header disagrees with payload")
    left = _load_half(rd, 0, lam, size)
    right = _load_half(rd, lam, length - lam, size)
    (n_tables,) = rd.fields("I")
    bits = rd.array("<u8", n_tables)
    n_pairs = rd.array("<u8", n_tables)
    if (n_pairs > size).any():
        raise ValueError("corrupt index file: more pairs than entries")
    cuts = np.cumsum(n_pairs, dtype=np.int64)[:-1]
    n_total = int(n_pairs.sum())
    keys = np.split(rd.array("<u8", n_total).astype(np.int64), cuts)
    counts = np.split(rd.array("<u8", n_total).astype(np.int64), cuts)
    pair_tables = dict(zip(bits.tolist(), zip(keys, counts)))
    return SplitIndex(length, lam, tau, z0, entries, left, right, pair_tables)


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
