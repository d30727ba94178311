"""Mismatch hypergraphs and exact heaviest k-section solvers.

Each dictionary entry contributes one edge: the set of positions where it
differs from the query, weighted by multiplicity.  Entries identical to
the query accumulate in ``base_weight`` since they match under every
mask.  The weight of the sub-hypergraph induced on a position set K
(all edges inside K, plus the base) then equals the number of entries the
masked query matches, so "mask k positions to match the most entries"
becomes "find the heaviest k-node section".

Solvers: exhaustive enumeration for any k, linear-time k=2, an
edge-times-node scan for k=3, and a branching search for k >= 4, with a
dispatcher choosing by predicted cost.  Weights are non-negative ints.

Ties everywhere: maximum weight first, then the lexicographically
smallest sorted position list.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np

from .core import Dictionary, MaskSet, MaskedString, mismatch_masks

#: Dispatcher prefers exhaustive enumeration while C(n, k) * 2^k stays below this.
DEFAULT_BRUTE_BUDGET = 1 << 20


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
        clean: dict[int, int] = {}
        for bits, w in edges.items():
            if bits <= 0:
                raise ValueError("edges must be non-empty position sets")
            if bits >> node_count:
                raise ValueError("edge contains a position beyond node_count")
            if w < 0:
                raise ValueError("edge weights must be non-negative")
            if w:
                clean[bits] = w
        self.edges = clean
        self.base_weight = base_weight

    def rank(self) -> int:
        return max((bits.bit_count() for bits in self.edges), default=0)

    def total_weight(self) -> int:
        return self.base_weight + sum(self.edges.values())

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
        if weight > self.weight or (
            weight == self.weight and _positions(bits) < _positions(self.bits)
        ):
            self.bits, self.weight = bits, weight

    def result(self) -> SectionResult:
        assert self.bits is not None
        return SectionResult(MaskSet.from_bits(self.bits), self.weight)


def _positions(bits: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(bits.bit_length()) if bits >> i & 1)


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


def _top_nodes(h: WeightedHypergraph, count: int) -> list[int]:
    ordered = sorted(h.nodes, key=lambda v: (-h.edges.get(1 << (v - 1), 0), v))
    return ordered[:count]


def heaviest_2_section(h: WeightedHypergraph) -> SectionResult:
    """Linear-time k=2: best 2-edge completion vs the two heaviest nodes."""
    if len(h.nodes) < 2:
        raise ValueError("heaviest_2_section needs at least two nodes")
    best = _Best()
    pair = _top_nodes(h, 2)
    bits = _bits_of(pair)
    best.offer(bits, _section_bits(h, bits))
    for e in h.edges:
        if e.bit_count() == 2:
            best.offer(e, _section_bits(h, e))
    return best.result()


def heaviest_3_section(h: WeightedHypergraph) -> SectionResult:
    """k=3 in O(|V| * |E|): 3-edges, heaviest node triple, 2-edge + node pairs."""
    if len(h.nodes) < 3:
        raise ValueError("heaviest_3_section needs at least three nodes")
    best = _Best()
    triple = _top_nodes(h, 3)
    bits = _bits_of(triple)
    best.offer(bits, _section_bits(h, bits))
    for e in h.edges:
        size = e.bit_count()
        if size == 3:
            best.offer(e, _section_bits(h, e))
        elif size == 2:
            for v in h.nodes:
                vb = 1 << (v - 1)
                if vb & e:
                    continue
                kb = e | vb
                best.offer(kb, _section_bits(h, kb))
    return best.result()


def heaviest_k_section_branching(h: WeightedHypergraph, k: int) -> SectionResult:
    """Branch on edges adding two or more new nodes; close branches greedily.

    Every processed partial set X is closed by scoring each remaining node
    with the total weight of edges it forms together with subsets of X
    (table probes) and taking the k - |X| best.  Branching then extends X
    by every edge contributing at least two new nodes while staying within
    k.  Visited X sets are deduplicated.
    """
    _check_k(h, k)
    if k == 0:
        return SectionResult(MaskSet(), h.base_weight)
    best = _Best()
    edge_keys = sorted(h.edges)
    seen: set[int] = set()

    def close(x_bits: int) -> None:
        need = k - x_bits.bit_count()
        scored = []
        for v in h.nodes:
            vb = 1 << (v - 1)
            if vb & x_bits:
                continue
            w = 0
            sub = x_bits
            while True:
                w += h.edges.get(sub | vb, 0)
                if sub == 0:
                    break
                sub = (sub - 1) & x_bits
            scored.append((-w, v))
        scored.sort()
        bits = x_bits
        for _, v in scored[:need]:
            bits |= 1 << (v - 1)
        best.offer(bits, _section_bits(h, bits))

    def visit(x_bits: int) -> None:
        if x_bits in seen:
            return
        seen.add(x_bits)
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
        best = _Best()
        for v in h.nodes:
            bits = 1 << (v - 1)
            best.offer(bits, h.base_weight + h.edges.get(bits, 0))
        return best.result()
    if k == 2:
        return heaviest_2_section(h)
    if k == 3:
        return heaviest_3_section(h)
    n, m = len(h.nodes), len(h.edges)
    if comb(n, k) << k <= DEFAULT_BRUTE_BUDGET or m > n * n:
        return heaviest_k_section_bruteforce(h, k)
    return heaviest_k_section_branching(h, k)


def dump_hypergraph(h: WeightedHypergraph) -> dict:
    """JSON-friendly dump: edges sorted by their canonical position lists."""
    entries = sorted(
        ({"nodes": list(_positions(bits)), "w": w} for bits, w in h.edges.items()),
        key=lambda e: e["nodes"],
    )
    return {"l": h.node_count, "base": h.base_weight, "edges": entries}
