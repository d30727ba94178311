"""Exact minimum-mask solvers, single query and multi query.

The three entry points (``solve_pmdm``, ``solve_mpmdm``,
``decide_k_pmdm``) share one private solver over a list of queries, which
picks its engine by a single cost rule on the string length l and the
number of queries m:

* l <= ``TABLE_MAX_LENGTH`` (20) and m * 2^l at most
  2^``DEFAULT_TABLE_LIMIT`` counters: a table of 2^l subset counts per
  query.  The per-entry mismatch bitmasks are histogrammed and completed
  by a sum-over-subsets pass (Yates's zeta transform) of ceil(l / 4)
  float32 BLAS products, each applying a 16 x 16 subset matrix to one
  block of 4 bits; the floats are exact while every partial sum counts
  at most 2^24 masks, and a call with more masks sums in float64.
  counts[K] is the number of entries the query matches when masked at K.
  The optimum size k is the smallest popcount among masks whose count
  reaches the threshold in every query's table.  The same kernel fills
  the split index's one table over the members of rare halves.

  No table depends on the threshold, so the dictionary keeps the last
  one built (``_query_table``): a one-slot memo of one ``(query,
  table)`` tuple, replaced by the next query that misses it.  A z sweep
  over one query, ``decide_k_pmdm`` after ``solve_pmdm``, and a
  multi-query answer whose first query was just asked build that table
  once; a hit runs neither the scan nor the pass.  ``index.small_ell_build``
  returns the same table, so its queries share the memo too.  The memo
  holds at most one read-only table of 2^20 int32 counts (4 MB):
  ``_query_table`` keeps no table above ``TABLE_MAX_LENGTH``, which
  ``index`` builds up to l = ``DEFAULT_TABLE_LIMIT``, and the kept-set
  path builds none.  Threads sharing a dictionary may each build a
  table, but the tuple is swapped in one assignment and read once, so a
  query never gets another query's table.
* otherwise: the unmasked positions form a maximum frequent itemset.
  Per query and position, the entries agreeing with the query there form
  a set; a depth-first search over frequent extensions (Eclat) grows the
  kept set, cutting a branch only when it cannot reach the best size
  found.  Entries with more mismatches than an upper bound on the optimum
  are dropped first: no optimal mask matches them.

Both engines break ties the same way, and so do the index queries, so
neither the engine nor the structure changes the answer: among
qualifying masks of the optimal size, the highest count (for several
queries, the highest sum of counts), then the lexicographically smallest
position list (``core.lex_smaller``).  Thresholds are checked by
``_check_threshold``, which the solvers, the heuristics, the index
queries and the CLI share.

``solve_pmdm`` is the only exact answer path of the package: ``pmdm
solve`` and ``pmdm index query`` on a small (dictionary) index call it,
and the acceptance suite measures the heuristics against it.  The
exhaustive enumeration it is checked against lives with the tests,
outside the package, and ``solve_khv`` solves the paper's
vector-domination subproblem on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .core import (
    CapacityError,
    Dictionary,
    InfeasibleThresholdError,
    MaskSet,
    lex_smaller,
    mismatch_masks,
    unpack_bits,
)

# Unused here, but the benchmark's tracer wraps these names on this module.
from .hypergraph import build_hypergraph, heaviest_k_section  # noqa: F401

#: Longest string answered from the full table of 2^l subset counts; longer
#: strings go to the kept-set search.  At 20 the table is 4 MB of int32;
#: at d = 1e4 it takes about 5-6 ms to fill and a whole answer about 6.5-8
#: ms on a 2-core x86_64 host, whatever the optimal k, while the search's
#: cost grows with the number of near-optimal kept sets and is exponential
#: in the middle band.
TABLE_MAX_LENGTH = 20

#: Most counters, as a power of two, that the tables of one call may hold:
#: ``index`` builds 2^l-counter tables only up to l = 24, and a multi-query
#: answer fills its per-query tables only while all of them together stay
#: within 2^24 counters (64 MB of int32), else it takes the kept-set search.
DEFAULT_TABLE_LIMIT = 24

#: Most nodes the kept-set search may visit before it gives up with
#: CapacityError.  At l=40, d=2e4, rho=0.1, 20 centres and m=3 the search
#: visited about 25 000 nodes a second on one core of a 2-core x86_64
#: host: the z=50 answer (k=9) needs about 0.4 million visits (16 s), and
#: at z=500 the budget ends the search after 39 s.
KEPT_SET_VISIT_BUDGET = 1_000_000

#: Bits of the table index transformed by one matrix product.
BLOCK_BITS = 4

#: Most masks one ``subset_counts`` call sums in float32: every partial sum
#: is a count of at most that many masks, and an integer up to 2^24 fits
#: float32's 24-bit significand, so every sum is exact whatever order the
#: BLAS kernel adds in.  More masks are summed in float64.
FLOAT32_EXACT_COUNT = 1 << 24


@lru_cache(maxsize=None)
def _subset_matrix(width: int, dtype: type) -> np.ndarray:
    """zeta[J, K] = 1 when J is a subset of K, for J, K < 2^width: a row
    vector of counts times it sums each K's subsets."""
    cells = np.arange(1 << width)
    zeta = (cells[:, None] & ~cells[None, :] == 0).astype(dtype)
    zeta.flags.writeable = False
    return zeta


def subset_counts(masks: np.ndarray, length: int) -> np.ndarray:
    """counts[K] = how many ``masks`` are subsets of K, for every K < 2^length.

    A histogram of the masks completed by a sum-over-subsets pass (Yates's
    zeta transform): the transform is the Kronecker product of ``length``
    copies of [[1, 0], [1, 1]], so a block of ``BLOCK_BITS`` bits is one
    product with a 16 x 16 subset matrix (the last block may be narrower).

    Layout: the histogram is cast to floats.  Each product takes the top
    block of the index bits as its inner dimension (a transposed operand,
    which BLAS reads without a copy) and writes the block's bits lowest,
    so the index rotates by the block's width; after ceil(length /
    ``BLOCK_BITS``) products every bit is back in order, and the result
    is cast back to int32.  The sums are float32, exact while the call
    has at most ``FLOAT32_EXACT_COUNT`` masks, and float64 beyond.  Cost:
    ceil(length / ``BLOCK_BITS``) products of 2^length * 16 multiply-adds;
    memory peaks while the int64 histogram is cast, at the histogram plus
    one table.
    """
    dtype = np.float32 if len(masks) <= FLOAT32_EXACT_COUNT else np.float64
    # every mask is below 2^63
    table = np.bincount(masks.view(np.int64), minlength=1 << length).astype(dtype)
    for done in range(0, length, BLOCK_BITS):
        width = min(BLOCK_BITS, length - done)
        table = table.reshape(1 << width, -1).T @ _subset_matrix(width, dtype)
    return table.astype(np.int32).ravel()


@lru_cache(maxsize=None)
def _popcounts(length: int) -> np.ndarray:
    pop = np.bitwise_count(np.arange(1 << length, dtype=np.uint32))
    pop.flags.writeable = False
    return pop


def _best_in_table(tables: Sequence[np.ndarray], threshold: int, length: int) -> MaskSet:
    """Smallest mask at which every one of ``tables`` (2^length counts
    each, one per query) reaches ``threshold``; ties by the highest sum of
    the tables' counts, then by the lexicographically smallest position
    list."""
    qualifying = tables[0] >= threshold
    for table in tables[1:]:
        qualifying &= table >= threshold
    pop = _popcounts(length)
    k = pop[qualifying].min()
    tied = np.flatnonzero(qualifying & (pop == k))
    weight = np.sum([table[tied] for table in tables], axis=0, dtype=np.int64)
    heaviest = tied[weight == weight.max()].tolist()  # usually one cell
    best = heaviest[0]
    for bits in heaviest[1:]:
        if lex_smaller(bits, best):
            best = bits
    return MaskSet.from_bits(best)


def _check_queries(queries: Sequence[str], length: int, threshold: int = 1) -> None:
    """Refuse a query whose length is not ``length``, the string length of
    the dictionary (or of the dictionary an index holds), and a threshold
    below 1."""
    for q in queries:
        if len(q) != length:
            raise ValueError(f"query length {len(q)} differs from dictionary length {length}")
    if threshold < 1:
        raise ValueError("threshold must be positive")


@dataclass(frozen=True)
class PmdmInstance:
    """A dictionary, a query of the same length, and a match threshold.

    Thresholds above the dictionary size are representable (the decision
    variant answers False for them); the optimizing solvers reject them.
    """

    dictionary: Dictionary
    query: str
    threshold: int

    def __post_init__(self):
        _check_queries([self.query], self.dictionary.length, self.threshold)


@dataclass(frozen=True)
class MpmdmInstance:
    """One mask must make every query match at least ``threshold`` entries."""

    dictionary: Dictionary
    queries: tuple[str, ...]
    threshold: int

    def __init__(self, dictionary: Dictionary, queries: Sequence[str], threshold: int):
        object.__setattr__(self, "dictionary", dictionary)
        object.__setattr__(self, "queries", tuple(queries))
        object.__setattr__(self, "threshold", threshold)
        if not self.queries:
            raise ValueError("at least one query is required")
        _check_queries(self.queries, dictionary.length, threshold)


@dataclass(frozen=True)
class KhvInstance:
    """Pick ``count`` vectors whose component-wise sum dominates ``target``."""

    vectors: tuple[tuple[int, ...], ...]
    target: tuple[int, ...]
    count: int

    def __init__(self, vectors, target, count: int):
        vectors = tuple(tuple(int(c) for c in v) for v in vectors)
        target = tuple(int(c) for c in target)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "count", count)
        if not target:
            raise ValueError("target must have at least one coordinate")
        m = len(target)
        for v in vectors:
            if len(v) != m:
                raise ValueError("all vectors must share the target's dimension")
            if any(c < 0 for c in v):
                raise ValueError("vector entries must be non-negative")
        if any(c < 0 for c in target):
            raise ValueError("target entries must be non-negative")
        if not 0 <= count <= len(vectors):
            raise ValueError(f"count must be in [0, {len(vectors)}]")


def _check_threshold(z: int, size: int, min_threshold: int = 1) -> None:
    """Refuse a threshold below ``min_threshold`` (ValueError) or above the
    dictionary ``size`` (InfeasibleThresholdError)."""
    if z < min_threshold:
        raise ValueError(f"z={z} below the minimum supported threshold {min_threshold}")
    if z > size:
        raise InfeasibleThresholdError(f"threshold {z} exceeds dictionary size {size}")


def solve_pmdm(inst: PmdmInstance) -> MaskSet:
    """Smallest mask whose application matches at least ``threshold`` entries.

    Ties go to the mask matching the most entries, then to the
    lexicographically smallest position list.
    """
    return _smallest_mask(inst.dictionary, [inst.query], inst.threshold)


def decide_k_pmdm(inst: PmdmInstance, k: int) -> bool:
    """Can masking exactly ``k`` positions reach the threshold?

    Masking more positions never loses a match, so this asks whether the
    optimum has at most k positions.  Thresholds beyond the dictionary
    size and sizes beyond the string length are decided False rather than
    rejected: no mask can satisfy them, which is the answer the decision
    problem gives.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if inst.threshold > inst.dictionary.size or k > inst.dictionary.length:
        return False
    return _smallest_mask(inst.dictionary, [inst.query], inst.threshold, k) is not None


def solve_khv(inst: KhvInstance) -> Optional[list[int]]:
    """Indices of ``count`` vectors dominating the target, or None.

    Dynamic program over (picked so far, prefix coordinate sums capped at
    the target); each state keeps the largest last-coordinate sum and the
    indices picked to reach it, the first such list in the sorted walk
    over the states.  Since prefixes are capped, the answer is the one
    state that picked ``count`` vectors and whose prefix is the target's.
    """
    caps = inst.target[:-1]
    # state: (picked, prefix) -> (best last-coordinate sum, picked indices)
    layer = {(0, (0,) * len(caps)): (0, [])}
    for i, vec in enumerate(inst.vectors):
        nxt: dict[tuple[int, tuple[int, ...]], tuple[int, list[int]]] = {}
        for state, (last, chosen) in sorted(layer.items()):
            if state not in nxt or last > nxt[state][0]:
                nxt[state] = (last, chosen)
            picked, prefix = state
            if picked < inst.count:
                taken = (picked + 1, tuple(min(c, p + v) for c, p, v in zip(caps, prefix, vec)))
                if taken not in nxt or last + vec[-1] > nxt[taken][0]:
                    nxt[taken] = (last + vec[-1], chosen + [i])
        layer = nxt
    last, chosen = layer.get((inst.count, caps), (-1, None))
    return chosen if last >= inst.target[-1] else None


def _query_table(dictionary: Dictionary, q: str) -> np.ndarray:
    """The read-only subset-count table of ``q`` against ``dictionary``,
    from the dictionary's one-slot memo when ``q`` was the last query it
    built a table for, else built and, at l <= ``TABLE_MAX_LENGTH``, put
    in the memo's place.  A z sweep over one query scans and sums once."""
    memo = dictionary._table_memo  # read once: another thread may swap it
    if memo is not None and memo[0] == q:
        return memo[1]
    table = subset_counts(mismatch_masks(dictionary, q), dictionary.length)
    table.flags.writeable = False
    if dictionary.length <= TABLE_MAX_LENGTH:  # the memo holds at most 4 MB
        dictionary._table_memo = (q, table)
    return table


def _smallest_mask(
    dictionary: Dictionary, queries: Sequence[str], threshold: int, limit: int | None = None
) -> Optional[MaskSet]:
    """The smallest mask under which every query matches at least
    ``threshold`` entries, ties broken as the module docstring says.  With
    ``limit``, any such mask of at most ``limit`` positions instead, or
    None when there is none."""
    _check_threshold(threshold, dictionary.size)
    length = dictionary.length
    if length <= TABLE_MAX_LENGTH and len(queries) << length <= 1 << DEFAULT_TABLE_LIMIT:
        best = _best_in_table([_query_table(dictionary, q) for q in queries], threshold, length)
        return best if limit is None or len(best) <= limit else None
    masks = [mismatch_masks(dictionary, q) for q in queries]
    # every query matches its ``threshold`` fewest-mismatch entries once
    # all their mismatches are masked, so this union qualifies
    union = 0
    for m in masks:
        fewest = np.argpartition(np.bitwise_count(m), threshold - 1)[:threshold]
        union |= int(np.bitwise_or.reduce(m[fewest]))
    first = limit is not None
    if not first:
        limit = union.bit_count()
    elif union.bit_count() <= limit:
        return MaskSet.from_bits(union)
    # an entry with more than ``limit`` mismatches matches under no mask
    # of at most ``limit`` positions, so dropping it changes no count there
    masks = [m[np.bitwise_count(m) <= limit] for m in masks]
    # agree[p][j] as an int: bit e is set when the e-th kept entry of
    # query j has no mismatch at position p + 1.  The flags are transposed
    # into a contiguous copy first: np.packbits along the rows of the
    # strided transpose took three to five times as long at d = 2e4.
    agree = list(zip(*(
        [int.from_bytes(row.tobytes(), "little") for row in np.packbits(
            np.ascontiguousarray(unpack_bits(~m, length).T), axis=1, bitorder="little")]
        for m in masks
    )))
    everyone = [(1 << len(m)) - 1 for m in masks]
    kept = _largest_kept_set(agree, everyone, threshold, length - limit, first)
    return None if kept is None else MaskSet.from_bits((1 << length) - 1 & ~kept)


def _largest_kept_set(
    agree: list[tuple[int, ...]], everyone: list[int], threshold: int, floor: int, first: bool
) -> Optional[int]:
    """Bits of the best kept set C of at least ``floor`` positions: the
    largest whose entries, those agreeing with q_j on all of C, number at
    least ``threshold`` for every query j.  Ties go to the highest sum of
    those counts, then to the lexicographically smallest mask ~C.  None
    when no such set reaches ``floor`` positions.

    Depth-first over frequent extensions only, as Eclat mines itemsets:
    a node holds C's per-query entry sets (``everyone`` at the root) and
    the tail of later positions that keep C frequent, and each child
    intersects the sets with one tail position.  Positions go least
    supported first, which keeps the early subtrees small.  A branch is
    cut when C plus its whole tail is smaller than the best C so far, or
    than ``floor``; the cut is strict, so every tied maximum is still
    visited and ranked.  With ``first``, the search stops at the first
    set reaching ``floor``.  Raises CapacityError once the search visits
    more than ``KEPT_SET_VISIT_BUDGET`` nodes.
    """
    best = [floor, -1, None]  # |C|, sum of counts, C
    visits = 0

    def support(entries, p):
        return min((e & a).bit_count() for e, a in zip(entries, agree[p]))

    def visit(kept, depth, entries, tail):
        nonlocal visits
        visits += 1
        if visits > KEPT_SET_VISIT_BUDGET:
            raise CapacityError(
                f"kept-set search exceeded its budget of {KEPT_SET_VISIT_BUDGET} "
                "visited nodes (exact.KEPT_SET_VISIT_BUDGET)"
            )
        if depth >= best[0]:
            total = sum(e.bit_count() for e in entries)
            if (depth, total) > (best[0], best[1]):
                # with ``first``, no set is large enough after this one
                best[:] = (len(agree) + 1 if first else depth), total, kept
            elif total == best[1] and lex_smaller(~kept, ~best[2]):
                # the masks are the complements, ranked as position lists
                best[2] = kept
        for i, p in enumerate(tail):
            if depth + len(tail) - i < best[0]:
                return
            child = [e & a for e, a in zip(entries, agree[p])]
            rest = [r for r in tail[i + 1:] if support(child, r) >= threshold]
            visit(kept | 1 << p, depth + 1, child, rest)

    order = sorted((support(everyone, p), p) for p in range(len(agree)))
    visit(0, 0, everyone, [p for s, p in order if s >= threshold])
    return best[2]


def solve_mpmdm(inst: MpmdmInstance) -> MaskSet:
    """Smallest mask under which every query matches at least ``threshold``.

    Ties go to the highest sum of per-query counts, then to the
    lexicographically smallest position list.
    """
    return _smallest_mask(inst.dictionary, inst.queries, inst.threshold)
