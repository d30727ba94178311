"""Exact minimum-mask solvers, single query and multi query.

The three entry points (``solve_pmdm``, ``solve_mpmdm``,
``decide_k_pmdm``) share one private solver over a list of queries, which
picks its engine by a single cost rule on the string length l:

* l <= ``TABLE_MAX_LENGTH`` (20): a table of 2^l subset counts.  The
  per-entry mismatch bitmasks are histogrammed and completed by an
  in-place sum-over-subsets pass (Yates's zeta transform), so counts[K]
  is the number of entries the query matches when masked at K.  The
  optimum size k is the smallest popcount among masks whose count reaches
  the threshold; for several queries the count is the element-wise
  minimum of the per-query tables.  The same kernel fills
  ``index.small_ell_build``.
* l > ``TABLE_MAX_LENGTH``: the unmasked positions form a maximum
  frequent itemset.  Per query and position, the entries agreeing with
  the query there form a set; a depth-first search over frequent
  extensions (Eclat) grows the kept set, cutting a branch only when it
  cannot reach the best size found.  Entries with more mismatches than an
  upper bound on the optimum are dropped first: no optimal mask matches
  them.

Both engines break ties the same way, and so do the index queries, so
neither the engine nor the structure changes the answer: among
qualifying masks of the optimal size, the highest count (for several
queries, the highest sum of counts), then the lexicographically smallest
position list.

``solve_pmdm`` is the only exact answer path of the package: ``pmdm
solve``, ``pmdm index query`` on a small (dictionary) index and the
harness's ``bf`` in ``bench.run_experiment`` all call it.
``bruteforce_pmdm`` stays as the reference the tests and demos compare
against, and ``solve_khv`` solves the paper's vector-domination
subproblem on its own.
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
    mismatch_masks,
)
from .hypergraph import build_hypergraph, heaviest_k_section_bruteforce

# Unused here, but the benchmark's tracer wraps this name on this module.
from .hypergraph import heaviest_k_section  # noqa: F401

#: Longest string answered from the full table of 2^l subset counts; longer
#: strings go to the kept-set search.  At 20 the table is 4 MB of int32
#: and takes 9-11 ms to fill at d = 1e4 on one core of a 2-core x86_64
#: host, whatever the optimal k, while the search's cost grows with the
#: number of near-optimal kept sets and is exponential in the middle band.
TABLE_MAX_LENGTH = 20

#: Most nodes the kept-set search (l > ``TABLE_MAX_LENGTH``) may visit
#: before it gives up with CapacityError.  At l=40, d=2e4, rho=0.1, 20
#: centres and m=3 the search visited about 25 000 nodes a second on one
#: core of a 2-core x86_64 host: the z=50 answer (k=9) needs about 0.4
#: million visits (16 s), and at z=500 the budget ends the search after
#: 39 s.
KEPT_SET_VISIT_BUDGET = 1_000_000

#: Cells per chunk of the in-place subset-sum pass: 2^16 int32 counters
#: (256 KB) stay in a core's L2 cache while all their low bits are folded.
CHUNK_BITS = 16


def _fold(view: np.ndarray) -> None:
    """One sum-over-subsets step on a (-1, 2, run) view: the half with the
    bit set adds the half without it."""
    view[:, 1] += view[:, 0]


def subset_counts(masks: np.ndarray, length: int, rows: int = 1) -> np.ndarray:
    """counts[K] = how many ``masks`` are subsets of K, for every K < 2^length.

    A histogram of the masks completed by an in-place sum-over-subsets pass
    (Yates's zeta transform): after folding bit b, counts[K] covers every
    mask that equals K above bit b and is a subset of K on bits 0..b.
    Bits at and above ``length`` are never folded, so ``rows`` independent
    tables can share one call: a mask ``r << length | m`` counts in row r
    only, and the result holds ``rows << length`` int32 counters, row after
    row.

    Layout: folding bit b adds runs of 2^b counters, and numpy runs short
    inner loops slowly (bits 1..3 alone took half of a 2^15 pass).  So the
    table is cut into chunks of 2^``CHUNK_BITS`` counters (the last may be
    shorter; for shorter strings a chunk holds whole rows).  With c =
    min(length, ``CHUNK_BITS``) and h = c // 2, a chunk is copied out
    transposed, as a (2^h, chunk / 2^h) array, so folding its low h bits
    adds runs of at least chunk / 2^h counters; it is copied back and bits
    h..c-1 are folded in place, in runs of at least 2^h.  Bits c and up
    are folded over the whole table, in runs of at least 2^16.  The work
    stays O(2^length * length) additions plus two copies of each chunk,
    and the memory beyond the histogram and the result is one chunk.
    """
    counts = np.bincount(masks.astype(np.int64), minlength=rows << length)
    counts = counts.astype(np.int32)
    inner = min(length, CHUNK_BITS)
    low = inner // 2
    for start in range(0, len(counts), 1 << CHUNK_BITS):
        cells = counts[start:start + (1 << CHUNK_BITS)]
        moved = cells.reshape(-1, 1 << low).T.copy()
        for b in range(low):
            _fold(moved.reshape(-1, 2, moved.shape[1] << b))
        cells.reshape(-1, 1 << low)[...] = moved.T
        for b in range(low, inner):
            _fold(cells.reshape(-1, 2, 1 << b))
    for b in range(inner, length):
        _fold(counts.reshape(-1, 2, 1 << b))
    return counts


@lru_cache(maxsize=None)
def _popcounts(length: int) -> np.ndarray:
    pop = np.bitwise_count(np.arange(1 << length, dtype=np.uint32))
    pop.flags.writeable = False
    return pop


@lru_cache(maxsize=None)
def _lex_ranks(length: int) -> np.ndarray:
    """Every mask's bits in reverse order, so position 1 is the most
    significant: among masks of one size, the lexicographically smaller
    position list holds the smallest position where they differ, so it
    has the larger rank."""
    rank = np.zeros(1, dtype=np.uint32)
    for _ in range(length):
        rank = np.concatenate([rank << 1, rank << 1 | 1])
    rank.flags.writeable = False
    return rank


def _best_in_table(
    qualifying: np.ndarray, weight: np.ndarray, length: int
) -> MaskSet:
    """Smallest qualifying mask; ties by highest ``weight``, then by the
    lexicographically smallest position list."""
    pop = _popcounts(length)
    k = pop[qualifying].min()
    tied = np.flatnonzero(qualifying & (pop == k))
    # every rank is below 2^length, so the weight decides first
    key = weight[tied].astype(np.int64) << length | _lex_ranks(length)[tied]
    return MaskSet.from_bits(int(tied[np.argmax(key)]))


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
        if len(self.query) != self.dictionary.length:
            raise ValueError(
                f"query length {len(self.query)} differs from dictionary "
                f"length {self.dictionary.length}"
            )
        if self.threshold < 1:
            raise ValueError("threshold must be positive")


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
        for q in self.queries:
            if len(q) != dictionary.length:
                raise ValueError(
                    f"query length {len(q)} differs from dictionary "
                    f"length {dictionary.length}"
                )
        if threshold < 1:
            raise ValueError("threshold must be positive")


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


def _require_feasible(threshold: int, size: int) -> None:
    if threshold > size:
        raise InfeasibleThresholdError(
            f"threshold {threshold} exceeds dictionary size {size}"
        )


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


def bruteforce_pmdm(inst: PmdmInstance) -> MaskSet:
    """Reference solver: exhaustive k-subset enumeration by growing size.

    Its cost grows as sum over sizes of C(length, k) * 2^k, so it is a
    test and demo oracle for short strings only; ``solve_pmdm`` answers
    everywhere else.
    """
    _require_feasible(inst.threshold, inst.dictionary.size)
    h = build_hypergraph(inst.dictionary, inst.query)
    if h.base_weight >= inst.threshold:
        return MaskSet()
    for k in range(1, inst.dictionary.length + 1):
        result = heaviest_k_section_bruteforce(h.restricted(k), k)
        if result.weight >= inst.threshold:
            return result.nodes
    raise AssertionError("full mask matches every entry; unreachable")


def solve_khv(inst: KhvInstance) -> Optional[list[int]]:
    """Indices of ``count`` vectors dominating the target, or None.

    Dynamic program over (picked so far, prefix coordinate sums capped at
    the target); the last coordinate is maximized and parents are kept for
    reconstruction.
    """
    m = len(inst.target)
    caps = inst.target[:-1]
    goal_last = inst.target[-1]
    zero_prefix = (0,) * (m - 1)

    # state: (picked, prefix) -> best last-coordinate sum
    layer: dict[tuple[int, tuple[int, ...]], int] = {(0, zero_prefix): 0}
    parents: list[dict[tuple[int, tuple[int, ...]], tuple[tuple[int, tuple[int, ...]], bool]]] = []

    for vec in inst.vectors:
        nxt: dict[tuple[int, tuple[int, ...]], int] = {}
        par: dict[tuple[int, tuple[int, ...]], tuple[tuple[int, tuple[int, ...]], bool]] = {}
        for state in sorted(layer):
            picked, prefix = state
            a = layer[state]
            if state not in nxt or a > nxt[state]:
                nxt[state] = a
                par[state] = (state, False)
            if picked < inst.count:
                taken = (
                    picked + 1,
                    tuple(min(c, p + v) for c, p, v in zip(caps, prefix, vec)),
                )
                a2 = a + vec[-1]
                if taken not in nxt or a2 > nxt[taken]:
                    nxt[taken] = a2
                    par[taken] = (state, True)
        parents.append(par)
        layer = nxt

    final = None
    for state in sorted(layer):
        picked, prefix = state
        if picked != inst.count:
            continue
        if any(p < c for p, c in zip(prefix, caps)):
            continue
        if layer[state] < goal_last:
            continue
        if final is None or layer[state] > layer[final]:
            final = state
    if final is None:
        return None

    chosen: list[int] = []
    state = final
    for i in range(len(inst.vectors) - 1, -1, -1):
        state, took = parents[i][state]
        if took:
            chosen.append(i)
    chosen.reverse()
    return chosen


def _smallest_mask(
    dictionary: Dictionary, queries: Sequence[str], threshold: int, limit: int | None = None
) -> Optional[MaskSet]:
    """The smallest mask under which every query matches at least
    ``threshold`` entries, ties broken as the module docstring says.  With
    ``limit``, any such mask of at most ``limit`` positions instead, or
    None when there is none."""
    _require_feasible(threshold, dictionary.size)
    length = dictionary.length
    masks = [mismatch_masks(dictionary, q) for q in queries]
    if length <= TABLE_MAX_LENGTH:
        # one table row per query, all filled by one pass
        tagged = np.concatenate([m | np.uint64(j << length) for j, m in enumerate(masks)])
        tables = subset_counts(tagged, length, len(masks)).reshape(len(masks), -1)
        best = _best_in_table(tables.min(axis=0) >= threshold, tables.sum(axis=0), length)
        return best if limit is None or len(best) <= limit else None
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
    # query j has no mismatch at position p + 1
    agree = list(zip(*(
        [int.from_bytes(np.packbits((m >> p & 1) == 0, bitorder="little").tobytes(), "little")
         for p in range(length)]
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
            elif total == best[1]:
                # the masks' lexicographic order: the smaller mask holds
                # the smallest position where they differ, so the best C
                # lacks it
                diff = kept ^ best[2]
                if best[2] & diff & -diff:
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
