"""Mismatch hypergraphs and exact heaviest k-section solvers.

Each dictionary entry contributes one edge: the set of positions where it
differs from the query, weighted by multiplicity.  Entries identical to
the query accumulate in ``base_weight`` since they match under every
mask.  The weight of the sub-hypergraph induced on a position set K
(all edges inside K, plus the base) then equals the number of entries the
masked query matches, so "mask k positions to match the most entries"
becomes "find the heaviest k-node section".

Solvers: exhaustive enumeration for any k, one candidate scan for
k <= 3 (``_small_section``), and a branching search for k >= 4, with a
dispatcher choosing by predicted cost; for k >= 4 it raises
CapacityError past ``DENSE_BRUTE_CAP`` or ``BRANCHING_VISIT_BUDGET``.
Weights are non-negative ints.

Ties everywhere: maximum weight first, then the lexicographically
smallest sorted position list (``core.lex_smaller``).
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np

from .core import CapacityError, Dictionary, MaskSet, MaskedString, lex_smaller, mismatch_masks

#: Dispatcher prefers exhaustive enumeration while C(n, k) * 2^k stays below this.
DEFAULT_BRUTE_BUDGET = 1 << 20

#: Largest C(n, k) * 2^k the dispatcher enumerates for a dense hypergraph
#: (more than n^2 edges) before CapacityError: about 4 s per section at
#: the 9 million subset probes a second of one core of a 2-core x86_64 host.
DENSE_BRUTE_CAP = 1 << 25

#: Most partial sets ``heaviest_k_section_branching`` may visit before it
#: raises CapacityError.  At l=30 and about 100-200 edges a visit took 30
#: to 80 us on the same host, so the budget is a few seconds per section.
BRANCHING_VISIT_BUDGET = 100_000


class WeightedHypergraph:
    """Positions as nodes, mismatch sets as weighted edges (bitmask keyed)."""

    __slots__ = ("node_count", "nodes", "edges", "base_weight")

    def __init__(
        self,
        node_count: int,
        edges: dict[int, int],
        base_weight: int = 0,
        nodes: tuple[int, ...] | None = None,
    ):
        if node_count < 1:
            raise ValueError("node_count must be positive")
        self.node_count = node_count
        self.nodes = tuple(nodes) if nodes is not None else tuple(range(1, node_count + 1))
        node_bits = _bits_of(self.nodes) & ((1 << node_count) - 1)
        clean: dict[int, int] = {}
        for bits, w in edges.items():
            if bits <= 0:
                raise ValueError("edges must be non-empty position sets")
            if bits & ~node_bits:
                raise ValueError("edge contains a position outside the nodes")
            if w < 0:
                raise ValueError("edge weights must be non-negative")
            if w:
                clean[bits] = w
        self.edges = clean
        self.base_weight = base_weight

    def restricted(self, max_edge_size: int) -> "WeightedHypergraph":
        """Copy keeping only edges of at most ``max_edge_size`` nodes."""
        kept = {b: w for b, w in self.edges.items() if b.bit_count() <= max_edge_size}
        return WeightedHypergraph(self.node_count, kept, self.base_weight, self.nodes)

    def __repr__(self) -> str:
        return (
            f"WeightedHypergraph({len(self.nodes)} nodes, {len(self.edges)} edges, "
            f"base={self.base_weight!r})"
        )


class SectionResult(NamedTuple):
    nodes: MaskSet
    weight: int


def edge_arrays(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Group a mismatch bitmask vector into a hypergraph's edges.

    Returns the distinct non-zero masks in ascending order (uint64), the
    number of entries carrying each (int64), and the number of all-zero
    masks, which is the base weight.
    """
    values, weights = np.unique(masks, return_counts=True)
    if values.size and values[0] == 0:
        return values[1:], weights[1:], int(weights[0])
    return values, weights, 0


def build_hypergraph(dictionary: Dictionary, q: str | MaskedString) -> WeightedHypergraph:
    """Mismatch hypergraph of ``q`` against every dictionary entry.

    Entries matching ``q`` exactly add to the base weight.  Positions
    already masked in ``q`` are excluded from the node set.
    """
    length = dictionary.length
    values, weights, base = edge_arrays(mismatch_masks(dictionary, q))
    edges = dict(zip(values.tolist(), weights.tolist()))
    if isinstance(q, MaskedString) and q.mask:
        nodes = tuple(p for p in range(1, length + 1) if p not in q.mask)
    else:
        nodes = tuple(range(1, length + 1))
    return WeightedHypergraph(length, edges, base, nodes)


def _section_bits(h: WeightedHypergraph, bits: int) -> int:
    """Sum of weights of edges inside ``bits``, plus the base weight."""
    total = h.base_weight
    edges = h.edges
    k = bits.bit_count()
    if edges and (1 << k) - 1 > 2 * len(edges):
        for e, w in edges.items():
            if e & ~bits == 0:
                total += w
        return total
    sub = bits
    while sub:
        total += edges.get(sub, 0)
        sub = (sub - 1) & bits
    return total


def section_weight(h: WeightedHypergraph, nodes: MaskSet) -> int:
    """Weight of the sub-hypergraph induced on ``nodes`` (base included)."""
    if nodes.max_position() > h.node_count:
        raise ValueError("section node out of range")
    return _section_bits(h, nodes.bits)


class _Best:
    """Maximum tracker with (weight, lexicographic positions) ties."""

    __slots__ = ("bits", "weight")

    def __init__(self):
        self.bits: int | None = None
        self.weight = -1

    def offer(self, bits: int, weight: int) -> None:
        if weight > self.weight or (weight == self.weight and lex_smaller(bits, self.bits)):
            self.bits, self.weight = bits, weight

    def result(self) -> SectionResult:
        assert self.bits is not None
        return SectionResult(MaskSet.from_bits(self.bits), self.weight)


def _bits_of(positions) -> int:
    bits = 0
    for p in positions:
        bits |= 1 << (p - 1)
    return bits


def heaviest_k_section_bruteforce(h: WeightedHypergraph, k: int) -> SectionResult:
    """Try every k-subset of the nodes, summing edge weights by table probes."""
    _check_k(h, k)
    if k == 0:
        return SectionResult(MaskSet(), h.base_weight)
    edges = h.edges
    base = h.base_weight
    best_bits = best_weight = None
    # combinations() yields position lists in lexicographic order, so keeping
    # only strict improvements realizes the tie-break for free.
    for combo in combinations(h.nodes, k):
        bits = _bits_of(combo)
        total = base
        sub = bits
        while sub:
            total += edges.get(sub, 0)
            sub = (sub - 1) & bits
        if best_bits is None or total > best_weight:
            best_bits, best_weight = bits, total
    return SectionResult(MaskSet.from_bits(best_bits), best_weight)


def _small_section(h: WeightedHypergraph, k: int) -> SectionResult:
    """Heaviest k-section for k <= 3 over three kinds of candidate: the k
    heaviest nodes, every k-edge, and for k = 3 every 2-edge plus one node.
    A section holding no edge of two or more nodes weighs at most the k
    heaviest nodes; any other one holds a k-edge or a 2-edge."""
    if len(h.nodes) < k:
        raise ValueError(f"a {k}-section needs at least {k} nodes")

    def candidates():
        yield _bits_of(sorted(h.nodes, key=lambda v: (-h.edges.get(1 << (v - 1), 0), v))[:k])
        for e in h.edges:
            size = e.bit_count()
            if size == k:
                yield e
            elif size == 2 and k == 3:
                for v in h.nodes:
                    if not e >> (v - 1) & 1:
                        yield e | 1 << (v - 1)

    best = _Best()
    for bits in candidates():
        best.offer(bits, _section_bits(h, bits))
    return best.result()


def heaviest_2_section(h: WeightedHypergraph) -> SectionResult:
    """Heaviest 2-section in linear time (see ``_small_section``)."""
    return _small_section(h, 2)


def heaviest_3_section(h: WeightedHypergraph) -> SectionResult:
    """Heaviest 3-section in O(|V| * |E|) (see ``_small_section``)."""
    return _small_section(h, 3)


def heaviest_k_section_branching(h: WeightedHypergraph, k: int) -> SectionResult:
    """Branch on edges adding two or more new nodes; close branches greedily.

    Every processed partial set X is closed by scoring each remaining node
    with the total weight of edges it forms together with subsets of X
    (the edges with exactly that one node outside X) and taking the
    k - |X| best.  Branching then extends X by every edge contributing at
    least two new nodes while staying within k.  Visited X sets are
    deduplicated.  Each visit costs O(|V| log |V| + |E|), and the search
    raises CapacityError once it has visited more than
    ``BRANCHING_VISIT_BUDGET`` sets.
    """
    _check_k(h, k)
    if k == 0:
        return SectionResult(MaskSet(), h.base_weight)
    best = _Best()
    edge_keys = sorted(h.edges)
    seen: set[int] = set()

    def close(x_bits: int) -> None:
        need = k - x_bits.bit_count()
        # edge weights summed by their part outside X; node v scores gain[its bit]
        gain: dict[int, int] = {}
        for e, w in h.edges.items():
            rest = e & ~x_bits
            gain[rest] = gain.get(rest, 0) + w
        scored = sorted(
            (-gain.get(1 << (v - 1), 0), v) for v in h.nodes if not x_bits >> (v - 1) & 1
        )
        bits = x_bits
        for _, v in scored[:need]:
            bits |= 1 << (v - 1)
        best.offer(bits, _section_bits(h, bits))

    def visit(x_bits: int) -> None:
        if x_bits in seen:
            return
        seen.add(x_bits)
        if len(seen) > BRANCHING_VISIT_BUDGET:
            raise CapacityError(
                f"branching section search exceeded its budget of {BRANCHING_VISIT_BUDGET} "
                "visited sets (hypergraph.BRANCHING_VISIT_BUDGET)"
            )
        close(x_bits)
        if x_bits.bit_count() > k - 2:
            return
        for e in edge_keys:
            if (e & ~x_bits).bit_count() >= 2 and (e | x_bits).bit_count() <= k:
                visit(e | x_bits)

    visit(0)
    return best.result()


def _check_k(h: WeightedHypergraph, k: int) -> None:
    if not 0 <= k <= len(h.nodes):
        raise ValueError(f"k must be in [0, {len(h.nodes)}], got {k}")


def heaviest_k_section(h: WeightedHypergraph, k: int) -> SectionResult:
    """Dispatch to the cheapest exact solver for the requested section size."""
    _check_k(h, k)
    if k == 0:
        return SectionResult(MaskSet(), h.base_weight)
    if k == 1:
        return _small_section(h, 1)
    if k == 2:
        return heaviest_2_section(h)
    if k == 3:
        return heaviest_3_section(h)
    n, m = len(h.nodes), len(h.edges)
    cost = comb(n, k) << k
    if cost <= DEFAULT_BRUTE_BUDGET:
        return heaviest_k_section_bruteforce(h, k)
    if m <= n * n:
        return heaviest_k_section_branching(h, k)
    if cost > DENSE_BRUTE_CAP:
        raise CapacityError(
            f"a dense {k}-section ({n} nodes, {m} edges) needs {cost} subset probes, "
            f"above hypergraph.DENSE_BRUTE_CAP = {DENSE_BRUTE_CAP}"
        )
    return heaviest_k_section_bruteforce(h, k)


def dump_hypergraph(h: WeightedHypergraph) -> dict:
    """JSON-friendly dump: edges sorted by their canonical position lists."""
    entries = sorted(
        ({"nodes": list(MaskSet.from_bits(b).positions), "w": w} for b, w in h.edges.items()),
        key=lambda e: e["nodes"],
    )
    return {"l": h.node_count, "base": h.base_weight, "edges": entries}
