"""Mismatch hypergraphs and exact heaviest k-section solvers.

Each dictionary entry contributes one edge: the set of positions where it
differs from the query, weighted by multiplicity.  Entries identical to
the query accumulate in ``base_weight`` since they match under every
mask.  The weight of the sub-hypergraph induced on a position set K
(all edges inside K, plus the base) then equals the number of entries the
masked query matches, so "mask k positions to match the most entries"
becomes "find the heaviest k-node section".

A hypergraph holds the arrays that ``edge_arrays`` groups the per-entry
mismatch bitmasks into: the distinct edges in ascending order (uint64)
and their weights (int64).

Solvers: one enumeration of the k-subsets of the nodes, which weighs
each by looking up its subsets in the sorted edges and answers every k
(the sizes 1 to 3 and the exhaustive solver), and a branching search for
k >= 4, with a dispatcher choosing by predicted cost; for k >= 4 it
raises CapacityError past ``DENSE_BRUTE_CAP`` or
``BRANCHING_VISIT_BUDGET``.  Weights are non-negative ints.

Ties everywhere: maximum weight first, then the lexicographically
smallest sorted position list (``core.lex_smaller``).
"""

from __future__ import annotations

from itertools import chain, combinations, islice
from math import comb
from typing import NamedTuple

import numpy as np

from .core import MAX_LENGTH, CapacityError, Dictionary, MaskSet, MaskedString
from .core import lex_smaller, mismatch_masks

#: Dispatcher prefers exhaustive enumeration while C(n, k) * 2^k stays below this.
DEFAULT_BRUTE_BUDGET = 1 << 20

#: Largest C(n, k) * 2^k the dispatcher enumerates for a dense hypergraph
#: (more than n^2 edges) before CapacityError.  A 5-section of 43 nodes
#: (31 M subset probes, 1 850 edges) took 2.3 s on one core of a 2-core
#: x86_64 host with 2 MB of traced memory, a 25-section of 25 nodes (626
#: edges of up to 25 nodes) 6.7 s with 27 MB.
DENSE_BRUTE_CAP = 1 << 25

#: Most partial sets ``heaviest_k_section_branching`` may visit before it
#: raises CapacityError.  At l=30 and up to about 100 edges a visit took 25
#: to 45 us on the same host, so the budget is a few seconds per section.
BRANCHING_VISIT_BUDGET = 100_000


class WeightedHypergraph:
    """Positions as nodes, mismatch bitmasks as weighted edges.

    ``edges`` are ascending, distinct, non-empty uint64 position sets
    inside ``nodes`` (ascending positions, all of 1..node_count by
    default) and ``weights`` their non-negative int64 weights; edges of
    weight 0 are dropped.
    """

    __slots__ = ("node_count", "nodes", "edges", "weights", "base_weight")

    def __init__(
        self,
        node_count: int,
        edges,
        weights,
        base_weight: int = 0,
        nodes: tuple[int, ...] | None = None,
    ):
        if not 1 <= node_count <= MAX_LENGTH:
            raise ValueError(f"node_count must be in [1, {MAX_LENGTH}], got {node_count}")
        self.node_count = node_count
        self.nodes = tuple(nodes) if nodes is not None else tuple(range(1, node_count + 1))
        if any(not 0 <= a < b <= node_count for a, b in zip((0,) + self.nodes, self.nodes)):
            raise ValueError(f"nodes must be ascending positions in [1, {node_count}]")
        edges = np.asarray(edges, dtype=np.uint64)
        weights = np.asarray(weights, dtype=np.int64)
        if edges.ndim != 1 or edges.shape != weights.shape:
            raise ValueError("edges and weights must be 1-D arrays of one length")
        if edges.size:
            if edges[0] == 0:
                raise ValueError("edges must be non-empty position sets")
            if (edges[1:] <= edges[:-1]).any():
                raise ValueError("edges must be ascending and distinct")
            if int(np.bitwise_or.reduce(edges)) & ~sum(1 << (v - 1) for v in self.nodes):
                raise ValueError("edge contains a position outside the nodes")
        if weights.size and weights.min() <= 0:
            if weights.min() < 0:
                raise ValueError("edge weights must be non-negative")
            edges, weights = edges[weights != 0], weights[weights != 0]
        self.edges, self.weights, self.base_weight = edges, weights, base_weight

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
    if isinstance(q, MaskedString) and q.mask:
        nodes = tuple(p for p in range(1, length + 1) if p not in q.mask)
    else:
        nodes = tuple(range(1, length + 1))
    return WeightedHypergraph(length, values, weights, base, nodes)


def _weight(h: WeightedHypergraph, bits: int) -> int:
    """Sum of weights of edges inside ``bits``, plus the base weight."""
    return h.base_weight + int(h.weights[(h.edges & ~np.uint64(bits)) == 0].sum())


def section_weight(h: WeightedHypergraph, nodes: MaskSet) -> int:
    """Weight of the sub-hypergraph induced on ``nodes`` (base included)."""
    if nodes.max_position() > h.node_count:
        raise ValueError("section node out of range")
    return _weight(h, nodes.bits)


def _enumerate(h: WeightedHypergraph, k: int) -> SectionResult:
    """Heaviest k-section over every k-subset of the nodes.

    The subsets come in ``combinations`` order, that is by ascending
    position list.  Each is weighed by looking up all of its non-empty
    subsets in the sorted edges with ``np.searchsorted``, at most
    C(n, k) * 2^k probes in all, 2^16 at a time: a block of subsets, or
    one subset's subsets in several blocks when k > 16.  Keeping the
    first maximum realizes the tie-break.

    A node in no edge adds nothing to a section, and swapping it for a
    smaller such node outside the section keeps the weight and makes the
    position list smaller.  So the walk skips every such node but the k
    smallest.
    """
    _check_k(h, k)
    if k == 0:
        return SectionResult(MaskSet(), h.base_weight)
    if not h.edges.size:  # every section weighs the base: the k smallest nodes
        return SectionResult(MaskSet(h.nodes[:k]), h.base_weight)
    used = int(np.bitwise_or.reduce(h.edges))
    bits = [1 << (v - 1) for v in h.nodes]
    idle = [b for b in bits if not b & used]
    if len(idle) > k:
        bits = [b for b in bits if b & used or b < idle[k]]
    subsets = combinations(bits, k)
    width = 1 << min(k, 16)
    chunk = (1 << 16) // width
    powers = np.arange(k, dtype=np.uint64)[:, None]
    best_bits, best_weight = 0, -1
    for _ in range(0, comb(len(bits), k), chunk):
        columns = np.fromiter(chain.from_iterable(islice(subsets, chunk)), dtype=np.uint64)
        columns = columns.reshape(-1, k)
        totals = 0
        for low in range(0, 1 << k, width):
            # probes[:, s] is the union of the columns picked by the bits of low + s
            picks = (np.arange(low, low + width, dtype=np.uint64) >> powers) & np.uint64(1)
            probes = columns @ picks
            # a probe above every edge finds the last one, which it does not equal
            found = h.edges.searchsorted(probes)
            hits = h.edges.take(found, mode="clip") == probes
            totals = totals + np.where(hits, h.weights.take(found, mode="clip"), 0).sum(axis=1)
        i = int(totals.argmax())
        if totals[i] > best_weight:
            best_bits, best_weight = int(columns[i].sum()), int(totals[i])
    return SectionResult(MaskSet.from_bits(best_bits), h.base_weight + best_weight)


def heaviest_k_section_bruteforce(h: WeightedHypergraph, k: int) -> SectionResult:
    """Try every k-subset of the nodes (see ``_enumerate``)."""
    return _enumerate(h, k)


def heaviest_2_section(h: WeightedHypergraph) -> SectionResult:
    """Heaviest 2-section by ``_enumerate``: at most C(n, 2) * 4 probes, each a
    binary search over the edges, so O(n^2 log |E|)."""
    return _enumerate(h, 2)


def heaviest_3_section(h: WeightedHypergraph) -> SectionResult:
    """Heaviest 3-section by ``_enumerate``: at most C(n, 3) * 8 probes, each a
    binary search over the edges, so O(n^3 log |E|)."""
    return _enumerate(h, 3)


def heaviest_k_section_branching(h: WeightedHypergraph, k: int) -> SectionResult:
    """Branch on edges adding two or more new nodes; close branches greedily.

    Every processed partial set X is closed by scoring each remaining node
    with the total weight of edges it forms together with subsets of X
    (the edges with exactly that one node outside X) and taking the
    k - |X| best.  Branching then extends X by every edge contributing at
    least two new nodes while staying within k, in ascending edge order.
    Visited X sets are deduplicated.  Each visit costs a few passes over
    the edges and the nodes, and the search raises CapacityError once it
    has visited more than ``BRANCHING_VISIT_BUDGET`` sets.
    """
    _check_k(h, k)
    if k == 0:
        return SectionResult(MaskSet(), h.base_weight)
    best_bits, best_weight = 0, -1
    edges, weights = h.edges, h.weights
    nodes = np.array(h.nodes, dtype=np.uint64)
    node_bits = np.uint64(1) << (nodes - np.uint64(1))
    seen: set[int] = set()

    def close(x_bits: int) -> None:
        nonlocal best_bits, best_weight
        need = k - x_bits.bit_count()
        rest = edges & ~np.uint64(x_bits)
        # node v scores the weight of the edges whose rest is its bit alone
        # (summed in float64, exact below 2^53)
        single = np.bitwise_count(rest) == 1
        gain = np.bincount(
            np.bitwise_count(rest[single] - np.uint64(1)), weights[single], minlength=h.node_count
        ).astype(np.int64)
        free = (node_bits & np.uint64(x_bits)) == 0
        scores = gain[nodes[free].astype(np.intp) - 1]
        picked = node_bits[free][np.argsort(-scores, kind="stable")[:need]]
        bits = x_bits | int(np.bitwise_or.reduce(picked, initial=np.uint64(0)))
        weight = _weight(h, bits)
        if weight > best_weight or (weight == best_weight and lex_smaller(bits, best_bits)):
            best_bits, best_weight = bits, weight

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
        x = np.uint64(x_bits)
        grows = (np.bitwise_count(edges & ~x) >= 2) & (np.bitwise_count(edges | x) <= k)
        for child in (edges[grows] | x).tolist():
            visit(child)

    visit(0)
    return SectionResult(MaskSet.from_bits(best_bits), best_weight)


def _check_k(h: WeightedHypergraph, k: int) -> None:
    if not 0 <= k <= len(h.nodes):
        raise ValueError(f"k must be in [0, {len(h.nodes)}], got {k}")


def heaviest_k_section(h: WeightedHypergraph, k: int) -> SectionResult:
    """Dispatch to the cheapest exact solver for the requested section size."""
    _check_k(h, k)
    if k <= 1:
        return _enumerate(h, k)
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
        (
            {"nodes": list(MaskSet.from_bits(b).positions), "w": w}
            for b, w in zip(h.edges.tolist(), h.weights.tolist())
        ),
        key=lambda e: e["nodes"],
    )
    return {"l": h.node_count, "base": h.base_weight, "edges": entries}
