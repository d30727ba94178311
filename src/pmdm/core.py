"""Fixed-length strings, position masks, and wildcard matching.

A dictionary holds d strings of one common length.  A mask is a set of
1-based positions; applying it to a query replaces those positions with a
wildcard that matches every symbol.  Everything downstream (solvers,
indexes, reductions) is built on the three primitives here: applying a
mask, testing a masked string against a plain string, and extracting the
mismatch positions between two plain strings.

Masks are stored as integer bitmasks (bit i-1 <-> position i).  Positions
are 1-based in every public surface; bit indexes are an internal detail.

The per-entry mismatch bitmasks (``mismatch_masks``) are the substrate of
every solver.  A dictionary scans for them by XOR-ing ceil(log2 sigma)
bit-sliced planes of its symbol ranks (``SymbolPlanes``, sigma the number
of distinct symbols) with the query's; its first scan builds the planes.
README's "Notes on scale" gives the measured costs.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

#: Hard cap on string length; bitmask tables and 2^l scans are hopeless far
#: below this anyway.
MAX_LENGTH = 64

#: Wildcard glyph used by text rendering/parsing unless overridden.
WILDCARD = "?"


class InfeasibleThresholdError(ValueError):
    """Raised when a match threshold exceeds the dictionary size."""


class CapacityError(RuntimeError):
    """Raised when an operation would exceed a configured size budget."""


class MaskSet:
    """An immutable set of 1-based string positions, stored as a bitmask."""

    __slots__ = ("bits",)

    def __init__(self, positions: Iterable[int] = ()):
        bits = 0
        for p in positions:
            p = int(p)
            # checked before the shift, which would allocate p bits
            if not 1 <= p <= MAX_LENGTH:
                raise ValueError(f"mask positions are 1-based and at most {MAX_LENGTH}, got {p}")
            bits |= 1 << (p - 1)
        self.bits: int = bits

    @classmethod
    def from_bits(cls, bits: int) -> "MaskSet":
        if bits < 0:
            raise ValueError("bitmask must be non-negative")
        mask = cls.__new__(cls)
        mask.bits = bits
        return mask

    @property
    def positions(self) -> tuple[int, ...]:
        bits = self.bits
        return tuple(i + 1 for i in range(bits.bit_length()) if bits >> i & 1)

    def max_position(self) -> int:
        return self.bits.bit_length()

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.positions)

    def __contains__(self, position: int) -> bool:
        return position >= 1 and self.bits >> (position - 1) & 1 == 1

    def __or__(self, other: "MaskSet") -> "MaskSet":
        return MaskSet.from_bits(self.bits | other.bits)

    def __and__(self, other: "MaskSet") -> "MaskSet":
        return MaskSet.from_bits(self.bits & other.bits)

    def __sub__(self, other: "MaskSet") -> "MaskSet":
        return MaskSet.from_bits(self.bits & ~other.bits)

    def issubset(self, other: "MaskSet") -> bool:
        return self.bits & ~other.bits == 0

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MaskSet) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(("MaskSet", self.bits))

    def __repr__(self) -> str:
        return f"MaskSet({list(self.positions)})"


def lex_smaller(a: int, b: int) -> bool:
    """True when the position set with bits ``a`` comes before the one with
    bits ``b`` of the same size: its sorted position list is
    lexicographically smaller, so it holds the lowest position where the
    two differ.  This is the tie-break of every exact answer."""
    diff = a ^ b
    return a & diff & -diff != 0


class MaskedString:
    """A fixed-length string with some positions replaced by wildcards.

    The original symbols under the mask are kept but never take part in
    matching or equality; rendering substitutes the wildcard glyph.
    """

    __slots__ = ("base", "mask")

    def __init__(self, base: str, mask: MaskSet = MaskSet()):
        if mask.max_position() > len(base):
            raise ValueError(
                f"mask position {mask.max_position()} out of range for "
                f"string of length {len(base)}"
            )
        self.base = base
        self.mask = mask

    def __len__(self) -> int:
        return len(self.base)

    def render(self, wildcard: str = WILDCARD) -> str:
        bits = self.mask.bits
        return "".join(
            wildcard if bits >> i & 1 else c for i, c in enumerate(self.base)
        )

    @classmethod
    def parse(cls, text: str, wildcard: str = WILDCARD) -> "MaskedString":
        mask = MaskSet(i + 1 for i, c in enumerate(text) if c == wildcard)
        return cls(text, mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaskedString):
            return NotImplemented
        return len(self) == len(other) and self.render() == other.render()

    def __hash__(self) -> int:
        return hash(("MaskedString", self.render()))

    def __repr__(self) -> str:
        return f"MaskedString({self.render()!r})"


def _codes(s: str) -> np.ndarray:
    """Code-point row for a string (one uint32 per symbol)."""
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)


class Dictionary:
    """An ordered collection of equal-length strings (duplicates kept).

    ``codes`` is a read-only (d, length) uint32 code-point matrix used by
    the vectorized scans: the UTF-32 encoding of the joined entries,
    reshaped to one row per entry without a copy.

    Construction builds no scan plane: ``planes`` builds them at its
    first use and keeps them, so loading a dictionary costs the same
    whether or not it is ever scanned.  Two threads that scan a fresh
    dictionary at once may each build the planes; both builds are equal,
    so either may be kept.

    ``_table_memo`` keeps the subset-count table of the last query an
    exact answer built one for, as one ``(query, table)`` tuple, so a z
    sweep over one query, or a query asked again, builds its table once
    (``exact._query_table``).  It starts as None and is replaced, whole,
    by the next query that misses it.  Only tables at l <=
    ``exact.TABLE_MAX_LENGTH`` are kept: at most 2^20 read-only int32
    counts, 4 MB.  Two threads may each build a table and either may be
    kept, but a query is never paired with another's table: the tuple is
    swapped in one assignment and read once.
    """

    __slots__ = ("entries", "length", "codes", "_planes", "_table_memo")

    def __init__(self, entries: Iterable[str]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("a dictionary must contain at least one string")
        length = len(entries[0])
        if length < 1:
            raise ValueError("dictionary strings must be non-empty")
        if length > MAX_LENGTH:
            raise CapacityError(
                f"string length {length} exceeds the supported maximum {MAX_LENGTH}"
            )
        for i, entry in enumerate(entries):
            if len(entry) != length:
                raise ValueError(
                    f"entry {i} has length {len(entry)}, expected {length}"
                )
        self.entries = entries
        self.length = length
        self.codes = _codes("".join(entries)).reshape(len(entries), length)
        self._planes: SymbolPlanes | None = None
        self._table_memo: tuple[str, np.ndarray] | None = None

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def planes(self) -> "SymbolPlanes":
        """The bit-sliced symbol ranks that ``mismatch_masks`` scans,
        built at the first use."""
        if self._planes is None:
            self._planes = SymbolPlanes.of(self.codes)
        return self._planes

    def alphabet(self) -> set[str]:
        return set("".join(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> str:
        return self.entries[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Dictionary) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Dictionary({self.size} strings of length {self.length})"

    @classmethod
    def from_file(cls, path, wildcard: str = WILDCARD) -> "Dictionary":
        """Load one string per line; a trailing empty line is ignored.

        Lines are split on line feeds only, and a line holding a carriage
        return (as every line of a CRLF file does) is refused rather than
        read with the return as a symbol or as a line break.
        """
        lines = _read_lines(path)
        if lines and lines[-1] == "":
            lines.pop()
        for i, line in enumerate(lines):
            if wildcard in line:
                raise ValueError(
                    f"line {i + 1} contains the wildcard glyph {wildcard!r}"
                )
        return cls(lines)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.entries))
            fh.write("\n")


def _read_lines(path) -> list[str]:
    """The text of ``path`` split at line feeds only; a carriage return
    anywhere is refused, naming its line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    if "\r" in text:
        line = text.count("\n", 0, text.index("\r")) + 1
        raise ValueError(f"line {line} contains a carriage return")
    return text.split("\n")


def mask_apply(q: str, mask: MaskSet) -> MaskedString:
    """Replace the masked positions of ``q`` with wildcards."""
    return MaskedString(q, mask)


def matches(x: MaskedString, y: str) -> bool:
    """True iff at every position ``x`` holds a wildcard or ``y``'s symbol."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    bits = x.mask.bits
    base = x.base
    return all(bits >> i & 1 or base[i] == y[i] for i in range(len(y)))


def mismatch_set(q: str, s: str) -> MaskSet:
    """Positions where ``q`` and ``s`` differ; the minimal mask making them match."""
    if len(q) != len(s):
        raise ValueError(f"length mismatch: {len(q)} vs {len(s)}")
    bits = 0
    for i, (a, b) in enumerate(zip(q, s)):
        if a != b:
            bits |= 1 << i
    return MaskSet.from_bits(bits)


def count_matches(dictionary: Dictionary, x: MaskedString) -> int:
    """Number of dictionary entries matched by ``x`` (duplicates counted):
    those whose mismatch bitmask is empty."""
    return int(np.count_nonzero(mismatch_masks(dictionary, x) == 0))


#: Bits packed per float32 product.  A sum of distinct powers of two below
#: 2^24 fits float32's 24-bit significand, so every partial sum is exact
#: whatever order the BLAS kernel adds in.
PACK_WIDTH = 24

_POWERS = (1 << np.arange(PACK_WIDTH)).astype(np.float32)


def pack_bits(flags: np.ndarray) -> np.ndarray:
    """Row i of an (n, w) boolean array, w <= 64, as a uint64 whose bit j
    is flags[i, j].

    Each run of at most ``PACK_WIDTH`` columns is one float32
    matrix-vector product with the run's powers of two, an exact BLAS
    call; the product is shifted into place and OR-ed into the result,
    which is the first run's product itself (a zeroed result, a shift and
    an OR took 10-15 of 90 us at n = 1e4, w = 15).  One to three
    products cover w = 1..64.  Cost: one float32 copy of
    ``flags`` and n * w multiply-adds in BLAS.  numpy has no BLAS kernel
    for integer products, and an int64 product with the powers took about
    twice as long at w = 15.
    """
    def product(start):
        block = flags[:, start:start + PACK_WIDTH]
        return (block.astype(np.float32) @ _POWERS[:block.shape[1]]).astype(np.uint64)

    out = product(0)  # all zeros when w = 0
    for start in range(PACK_WIDTH, flags.shape[1], PACK_WIDTH):
        part = product(start)
        part <<= np.uint64(start)
        out |= part
    return out


def rank_symbols(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The alphabet of the code-point matrix ``codes``, its distinct code
    points in increasing order as uint32, and each code point's rank in
    it, a uint32 array of the shape of ``codes``.

    A lookup table over the code points up to the largest one present (at
    most 0x110000 of them) ranks without a sort.  Both lookups read one
    intp copy of ``codes``: lookups by the uint32 codes themselves, which
    numpy converts on the fly, took 1.3 to 2 times as long at d = 1e4,
    l = 15 and d = 2e4, l = 64.
    """
    index = codes.astype(np.intp)
    present = np.zeros(int(codes.max()) + 1, dtype=bool)
    present[index] = True
    alphabet = np.flatnonzero(present).astype(np.uint32)
    rank = np.zeros(len(present), dtype=np.uint32)
    rank[alphabet] = np.arange(len(alphabet), dtype=np.uint32)
    return alphabet, rank.take(index)


def rank_query(alphabet: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranks of the code points ``q`` in the sorted ``alphabet`` and a
    flag for each code point that ``alphabet`` lacks (its rank is then
    meaningless but below sigma)."""
    # searching all but the last code point keeps every rank below sigma;
    # a code point past the last one lands on it and is found missing
    ranks = np.searchsorted(alphabet[:-1], q)
    return ranks, alphabet[ranks] != q


#: Weight of each bit position as an int64 (bit 63 wraps to -2^63), so an
#: integer dot product of 0/1 flags with it is the flags' bitmask.
_BIT_WEIGHTS = (np.uint64(1) << np.arange(64, dtype=np.uint64)).view(np.int64)


class SymbolPlanes:
    """Bit-sliced symbol ranks of a dictionary (BitWeaving/V: Li and
    Patel, SIGMOD 2013).

    ``alphabet`` holds the dictionary's sigma distinct code points in
    increasing order, so a symbol's rank is its index there.  ``bits`` is
    a read-only (ceil(log2 sigma), d) uint64 array: bit p of ``bits[b,
    e]`` is bit b of the rank of entry e's symbol at position p + 1.  An
    entry differs from the query at p exactly when some plane's bit p
    differs from the same bit of the query symbol's rank, so a scan is
    OR_b(bits[b] XOR query_plane_b): 2 * ceil(log2 sigma) word operations
    per entry, whatever the length.  The planes take ceil(log2 sigma) * d
    * 8 bytes.
    """

    __slots__ = ("alphabet", "bits", "_shifts")

    def __init__(self, alphabet: np.ndarray, bits: np.ndarray):
        self.alphabet = alphabet
        self.bits = bits
        self._shifts = np.arange(len(bits))[:, None]

    @classmethod
    def of(cls, codes: np.ndarray) -> "SymbolPlanes":
        """The planes of the (d, l) code matrix ``codes``: ``rank_symbols``
        ranks it, and each plane is one ``pack_bits`` of a bit of the
        ranks, so no Python runs per entry."""
        alphabet, ranks = rank_symbols(codes)
        bits = np.empty(((len(alphabet) - 1).bit_length(), len(codes)), dtype=np.uint64)
        for b in range(len(bits)):
            bits[b] = pack_bits(ranks & (1 << b) != 0)
        alphabet.flags.writeable = False
        bits.flags.writeable = False
        return cls(alphabet, bits)

    def mismatches(self, q: np.ndarray) -> np.ndarray:
        """Per-entry mismatch bitmasks against the code-point row ``q``.

        One pass over the query ranks it (``rank_query``) and transposes
        the ranks' bits into query planes; positions whose symbol no entry
        has are mismatches for every entry.  The planes are XOR-ed one at
        a time, d words each: one (planes, d) XOR and OR-reduce took up to
        half as long again at d = 2e4 and 11 planes.
        """
        bits, weights = self.bits, _BIT_WEIGHTS[:len(q)]
        ranks, missing = rank_query(self.alphabet, q)
        absent = np.dot(missing, weights).view(np.uint64)
        if not len(bits):  # a single symbol
            return np.full(bits.shape[1], absent)
        query_planes = np.dot((ranks >> self._shifts) & 1, weights).view(np.uint64)
        out = np.bitwise_xor(bits[0], query_planes[0])
        scratch = np.empty_like(out)
        for plane, word in zip(bits[1:], query_planes[1:]):
            out |= np.bitwise_xor(plane, word, out=scratch)
        if absent:
            out |= absent
        return out


def mismatch_masks(dictionary: Dictionary, x: str | MaskedString) -> np.ndarray:
    """Per-entry mismatch bitmasks against ``x``, as a uint64 vector.

    Positions already masked in ``x`` never count as mismatches.  Entry i
    matches ``x`` under an extra mask K exactly when result[i] is a subset
    of K's bits, which is what every counting structure exploits.

    The scan is ``SymbolPlanes.mismatches`` on ``Dictionary.planes``,
    which the first call on a dictionary builds; masked positions are
    cleared last.  README's "Notes on scale" gives the measured costs.
    """
    if isinstance(x, MaskedString):
        base, mask = x.base, x.mask
    else:
        base, mask = x, MaskSet()
    if len(base) != dictionary.length:
        raise ValueError(
            f"length mismatch: query {len(base)} vs dictionary {dictionary.length}"
        )
    out = dictionary.planes.mismatches(_codes(base))
    if mask:
        out &= ~np.uint64(mask.bits)
    return out
