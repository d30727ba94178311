"""Exact minimum-mask solvers, single query and multi query.

One entry point per problem (``solve_pmdm``, ``solve_mpmdm``,
``decide_k_pmdm``) picks its engine by a single cost rule on the string
length l:

* l <= ``TABLE_MAX_LENGTH`` (20): a table of 2^l subset counts.  The
  per-entry mismatch bitmasks are histogrammed and completed by an
  in-place sum-over-subsets pass (Yates's zeta transform), so counts[K]
  is the number of entries the query matches when masked at K.  The
  optimum size k is the smallest popcount among masks whose count reaches
  the threshold; for several queries the count is the element-wise
  minimum of the per-query tables.  The same kernel fills
  ``index.small_ell_build``.
* l > ``TABLE_MAX_LENGTH``, single query: the mismatch hypergraph.  k
  grows from zero, asking for the heaviest k-section each time; the first
  k whose best section reaches the threshold is optimal.
* l > ``TABLE_MAX_LENGTH``, ``solve_mpmdm``: the unmasked positions form
  a maximum frequent itemset.  Per query and position, the entries
  agreeing with the query there form a set; a depth-first search over
  frequent extensions (Eclat) grows the kept set, cutting a branch only
  when it cannot reach the best size found.

Every engine breaks ties the same way, so the engine never changes the
answer: among qualifying masks of the optimal size, the highest count
(for several queries, the highest sum of counts), then the
lexicographically smallest position list.  ``bruteforce_pmdm`` stays as a
reference oracle for the tests, and ``solve_khv`` solves the paper's
vector-domination subproblem on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Optional, Sequence

import numpy as np

from .core import (
    CapacityError,
    Dictionary,
    InfeasibleThresholdError,
    MaskSet,
    mismatch_masks,
)
from .hypergraph import (
    build_hypergraph,
    heaviest_k_section,
    heaviest_k_section_bruteforce,
)

#: Longest string answered from the full table of 2^l subset counts; longer
#: strings go to the per-k hypergraph search (single query) or the
#: kept-set search (``solve_mpmdm``).  At 20 the table is 4 MB of
#: int32 and took about 25 ms to fill at d = 1e4 on one core of a Xeon
#: host, whatever the optimal k, while a single pure-Python k >= 8 step of
#: the hypergraph search can take seconds already at l = 15.
TABLE_MAX_LENGTH = 20


def subset_counts(masks: np.ndarray, length: int, rows: int = 1) -> np.ndarray:
    """counts[K] = how many ``masks`` are subsets of K, for every K < 2^length.

    A histogram of the masks completed by an in-place sum-over-subsets pass:
    after folding bit b, counts[K] covers every mask that equals K above bit
    b and is a subset of K on bits 0..b.  Bits at and above ``length`` are
    never folded, so ``rows`` independent tables can share one call: a mask
    ``r << length | m`` counts in row r only, and the result holds
    ``rows << length`` counters, row after row.
    """
    counts = np.bincount(masks.astype(np.int64), minlength=rows << length)
    counts = counts.astype(np.int32)
    for b in range(length):
        view = counts.reshape(-1, 2, 1 << b)
        view[:, 1] += view[:, 0]
    return counts


@lru_cache(maxsize=None)
def _popcounts(length: int) -> np.ndarray:
    pop = np.bitwise_count(np.arange(1 << length, dtype=np.uint32))
    pop.flags.writeable = False
    return pop


def _reversed_bits(masks: np.ndarray, length: int) -> np.ndarray:
    """Bit order reversed, so position 1 becomes the most significant bit."""
    out = np.zeros(len(masks), dtype=np.int64)
    for b in range(length):
        out |= ((masks >> b) & 1) << (length - 1 - b)
    return out


def _best_in_table(
    qualifying: np.ndarray, weight: np.ndarray, length: int
) -> MaskSet:
    """Smallest qualifying mask; ties by highest ``weight``, then by the
    lexicographically smallest position list.

    Among sets of one size, the lexicographically smaller position list is
    the one holding the smallest position of the symmetric difference, that
    is the larger value once bit order is reversed.
    """
    pop = _popcounts(length)
    k = pop[qualifying].min()
    tied = np.flatnonzero(qualifying & (pop == k))
    w = weight[tied]
    tied = tied[w == w.max()]
    return MaskSet.from_bits(int(tied[np.argmax(_reversed_bits(tied, length))]))


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

    Strings of at most ``TABLE_MAX_LENGTH`` positions are answered from the
    subset-count table, longer ones by the per-k hypergraph search.  Either
    way, ties go to the mask matching the most entries, then to the
    lexicographically smallest position list.
    """
    _require_feasible(inst.threshold, inst.dictionary.size)
    length = inst.dictionary.length
    if length <= TABLE_MAX_LENGTH:
        counts = subset_counts(mismatch_masks(inst.dictionary, inst.query), length)
        return _best_in_table(counts >= inst.threshold, counts, length)
    h = build_hypergraph(inst.dictionary, inst.query)
    if h.base_weight >= inst.threshold:
        return MaskSet()
    for k in range(1, length + 1):
        result = heaviest_k_section(h.restricted(k), k)
        if result.weight >= inst.threshold:
            return result.nodes
    raise AssertionError("full mask matches every entry; unreachable")


def decide_k_pmdm(inst: PmdmInstance, k: int) -> bool:
    """Can masking exactly ``k`` positions reach the threshold?

    Thresholds beyond the dictionary size and sizes beyond the string
    length are decided False rather than rejected: no mask can satisfy
    them, which is the answer the decision problem gives.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if inst.threshold > inst.dictionary.size or k > inst.dictionary.length:
        return False
    length = inst.dictionary.length
    if length <= TABLE_MAX_LENGTH:
        counts = subset_counts(mismatch_masks(inst.dictionary, inst.query), length)
        return bool(counts[_popcounts(length) == k].max() >= inst.threshold)
    h = build_hypergraph(inst.dictionary, inst.query, k_cutoff=k if k >= 1 else None)
    if k == 0:
        return h.base_weight >= inst.threshold
    return heaviest_k_section(h, k).weight >= inst.threshold


def bruteforce_pmdm(inst: PmdmInstance, budget: int | None = None) -> MaskSet:
    """Reference solver: exhaustive k-subset enumeration by growing size.

    With ``budget`` set, raises CapacityError once the running estimate of
    sum over sizes of C(length, k) * 2^k table probes would exceed it.
    """
    _require_feasible(inst.threshold, inst.dictionary.size)
    h = build_hypergraph(inst.dictionary, inst.query)
    if h.base_weight >= inst.threshold:
        return MaskSet()
    spent = 0
    for k in range(1, inst.dictionary.length + 1):
        spent += comb(inst.dictionary.length, k) << k
        if budget is not None and spent > budget:
            raise CapacityError(
                f"bruteforce probe estimate {spent} exceeds budget {budget}"
            )
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


def _agree_sets(dictionary: Dictionary, queries: Sequence[str]) -> list[tuple[int, ...]]:
    """agree[p][j] as an int: bit e is set when entry e agrees with
    ``queries[j]`` at position p + 1."""
    per_query = []
    for q in queries:
        masks = mismatch_masks(dictionary, q)
        per_query.append([
            int.from_bytes(np.packbits((masks >> p & 1) == 0, bitorder="little").tobytes(), "little")
            for p in range(dictionary.length)
        ])
    return list(zip(*per_query))


def _largest_kept_set(agree: list[tuple[int, ...]], size: int, threshold: int) -> int:
    """Bits of the best kept set C: the largest whose entries, those
    agreeing with q_j on all of C, number at least ``threshold`` for every
    query j.  Ties go to the highest sum of those counts, then to the
    lexicographically smallest mask ~C.

    Depth-first over frequent extensions only, as Eclat mines itemsets:
    a node holds C's per-query entry sets and the tail of later positions
    that keep C frequent, and each child intersects the sets with one
    tail position.  A branch is cut when C plus its whole tail is smaller
    than the best C so far; the cut is strict, so every tied maximum is
    still visited and ranked.
    """
    best = [-1, -1, 0]  # |C|, sum of counts, C

    def frequent(entries, p):
        return all((e & a).bit_count() >= threshold for e, a in zip(entries, agree[p]))

    def visit(kept, depth, entries, tail):
        if depth >= best[0]:
            total = sum(e.bit_count() for e in entries)
            diff = kept ^ best[2]
            # the masks' lexicographic order: the smaller mask holds the
            # smallest position where they differ, so the best C lacks it
            if (depth, total) > (best[0], best[1]) or (
                total == best[1] and best[2] & diff & -diff
            ):
                best[:] = depth, total, kept
        for i, p in enumerate(tail):
            if depth + len(tail) - i < best[0]:
                return
            child = [e & a for e, a in zip(entries, agree[p])]
            rest = [r for r in tail[i + 1:] if frequent(child, r)]
            visit(kept | 1 << p, depth + 1, child, rest)

    entries = [(1 << size) - 1] * len(agree[0])
    visit(0, 0, entries, [p for p in range(len(agree)) if frequent(entries, p)])
    return best[2]


def solve_mpmdm(inst: MpmdmInstance) -> MaskSet:
    """Smallest mask under which every query matches at least ``threshold``.

    Ties go to the highest sum of per-query counts, then to the
    lexicographically smallest position list.  Strings of at most
    ``TABLE_MAX_LENGTH`` positions are answered from the element-wise
    minimum of the per-query subset-count tables, longer ones by the
    search for the largest kept set.
    """
    _require_feasible(inst.threshold, inst.dictionary.size)
    length = inst.dictionary.length
    if length <= TABLE_MAX_LENGTH:
        worst = total = None
        for q in inst.queries:
            counts = subset_counts(mismatch_masks(inst.dictionary, q), length)
            if worst is None:
                worst, total = counts, counts.astype(np.int64)
            else:
                np.minimum(worst, counts, out=worst)
                total += counts
        return _best_in_table(worst >= inst.threshold, total, length)
    agree = _agree_sets(inst.dictionary, inst.queries)
    kept = _largest_kept_set(agree, inst.dictionary.size, inst.threshold)
    return MaskSet.from_bits((1 << length) - 1 & ~kept)
