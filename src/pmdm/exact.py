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
* l > ``TABLE_MAX_LENGTH``: the mismatch hypergraph.  The driver grows k
  from zero and asks for the heaviest k-section; the first k whose best
  section reaches the threshold is optimal.  The multi-query variant
  carries one weight coordinate per query and closes branching with a
  small dynamic program that picks vectors whose component-wise sum
  dominates a target.

Both engines break ties the same way, so the engine never changes the
answer: among qualifying masks of the optimal size, the highest count,
then the lexicographically smallest position list.  For several queries
the table ranks by the highest sum of counts, as the enumeration does;
branching returns the first qualifying mask it finds.  ``bruteforce_pmdm``
and the enumeration helpers stay as reference oracles for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
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
    WeightedHypergraph,
    build_hypergraph,
    heaviest_k_section,
    heaviest_k_section_bruteforce,
    _add,
    _bits_of,
    _section_bits,
)

#: Enumeration is used for a multi-query feasibility level while
#: C(n, k) * 2^k * m stays below this.
DEFAULT_ENUM_BUDGET = 1 << 21

#: Longest string answered from the full table of 2^l subset counts; longer
#: strings go to the per-k hypergraph search.  At 20 the table is 4 MB of
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


def _tuple_hypergraph(dictionary: Dictionary, queries: Sequence[str]) -> WeightedHypergraph:
    """Edge weights become per-query mismatch-multiplicity tuples."""
    m = len(queries)
    length = dictionary.length
    edges: dict[int, list[int]] = {}
    base = [0] * m
    for j, q in enumerate(queries):
        masks = mismatch_masks(dictionary, q)
        base[j] = int((masks == 0).sum())
        values, counts = np.unique(masks[masks != 0], return_counts=True)
        for v, c in zip(values, counts):
            edges.setdefault(int(v), [0] * m)[j] += int(c)
    return WeightedHypergraph(
        length, {b: tuple(w) for b, w in edges.items()}, tuple(base)
    )


def _dominates(weight: tuple, threshold: int) -> bool:
    return all(c >= threshold for c in weight)


def _feasible_by_enumeration(
    h: WeightedHypergraph, k: int, threshold: int
) -> Optional[MaskSet]:
    """Scan all k-subsets; rank by capped bottleneck, then raw total, then
    lexicographic positions, so a single-query instance picks exactly the
    set the scalar solver would."""
    best_bits = best_key = None
    for combo in combinations(h.nodes, k):
        bits = _bits_of(combo)
        w = _section_bits(h, bits)
        rank = (min(min(c, threshold) for c in w), sum(w))
        if best_bits is None or rank > best_key:
            best_bits, best_key = bits, rank
    if best_bits is None or best_key[0] < threshold:
        return None
    return MaskSet.from_bits(best_bits)


def _feasible_by_branching(
    h: WeightedHypergraph, k: int, threshold: int
) -> Optional[MaskSet]:
    """Branch like the scalar search, but close each branch by asking the
    vector-domination program whether k - |X| remaining nodes can top up
    every coordinate."""
    edge_keys = sorted(h.edges)
    zero = h.zero_weight
    seen: set[int] = set()

    def visit(x_bits: int) -> Optional[int]:
        if x_bits in seen:
            return None
        seen.add(x_bits)
        inside = _section_bits(h, x_bits)
        target = tuple(max(0, threshold - c) for c in inside)
        free = [v for v in h.nodes if not x_bits >> (v - 1) & 1]
        vectors = []
        for v in free:
            vb = 1 << (v - 1)
            w = zero
            sub = x_bits
            while True:
                edge_w = h.edges.get(sub | vb)
                if edge_w is not None:
                    w = _add(w, edge_w)
                if sub == 0:
                    break
                sub = (sub - 1) & x_bits
            vectors.append(w)
        chosen = solve_khv(KhvInstance(vectors, target, k - x_bits.bit_count()))
        if chosen is not None:
            bits = x_bits
            for idx in chosen:
                bits |= 1 << (free[idx] - 1)
            return bits
        if x_bits.bit_count() <= k - 2:
            for e in edge_keys:
                if (e & ~x_bits).bit_count() >= 2 and (e | x_bits).bit_count() <= k:
                    found = visit(e | x_bits)
                    if found is not None:
                        return found
        return None

    bits = visit(0)
    return None if bits is None else MaskSet.from_bits(bits)


def solve_mpmdm(
    inst: MpmdmInstance, enum_budget: int = DEFAULT_ENUM_BUDGET
) -> MaskSet:
    """Smallest mask under which every query matches at least ``threshold``.

    Strings of at most ``TABLE_MAX_LENGTH`` positions are answered from the
    element-wise minimum of the per-query subset-count tables; ties go to
    the highest sum of per-query counts, then to the lexicographically
    smallest position list, the ranking ``_feasible_by_enumeration`` uses.
    Longer strings take the per-k hypergraph search, which enumerates while
    C(l, k) * 2^k * m stays within ``enum_budget`` and branches beyond it.
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
    m = len(inst.queries)
    h = _tuple_hypergraph(inst.dictionary, inst.queries)
    if _dominates(h.base_weight, inst.threshold):
        return MaskSet()
    for k in range(1, length + 1):
        hk = h.restricted(k)
        if (comb(length, k) << k) * m <= enum_budget:
            found = _feasible_by_enumeration(hk, k, inst.threshold)
        else:
            found = _feasible_by_branching(hk, k, inst.threshold)
        if found is not None:
            return found
    raise AssertionError("full mask matches every entry; unreachable")
