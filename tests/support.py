"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the solver code paths they check: match
counting is done per entry (or via mismatch-bit subset tests, whose
equivalence to per-entry matching is itself pinned by the core tests),
optima come from plain subset enumeration, and cliques from enumerating
node subsets.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from pmdm import Dictionary, MaskSet, PmdmInstance, mismatch_masks
from pmdm.hypergraph import WeightedHypergraph
from pmdm.reductions import Graph

T1_ENTRIES = ("abab", "abbb", "aaaa", "bbab", "abaa")


def t1() -> Dictionary:
    return Dictionary(T1_ENTRIES)


def oracle_count(dictionary: Dictionary, q: str, mask_bits: int) -> int:
    """Per-entry, per-position scan; no solver arithmetic involved."""
    total = 0
    for entry in dictionary:
        if all(
            mask_bits >> i & 1 or q[i] == entry[i]
            for i in range(dictionary.length)
        ):
            total += 1
    return total


def oracle_counts_all_masks(dictionary: Dictionary, q: str) -> np.ndarray:
    """Linear-scan counts for every mask, via mismatch-bit subset tests."""
    bits = mismatch_masks(dictionary, q)
    all_masks = np.arange(1 << dictionary.length, dtype=np.uint64)
    hits = (bits[None, :] & ~all_masks[:, None]) == 0
    return hits.sum(axis=1)


def oracle_optimum_size(dictionary: Dictionary, q: str, z: int) -> int:
    """Smallest mask size reaching z matches, by exhaustive enumeration."""
    bits = [int(b) for b in mismatch_masks(dictionary, q)]
    length = dictionary.length
    for k in range(length + 1):
        for combo in combinations(range(length), k):
            mask = 0
            for p in combo:
                mask |= 1 << p
            if sum(1 for b in bits if b & ~mask == 0) >= z:
                return k
    raise AssertionError("full mask always qualifies for z <= d")


def oracle_mpmdm_size(dictionary: Dictionary, queries, z: int) -> int:
    per_query = [
        [int(b) for b in mismatch_masks(dictionary, q)] for q in queries
    ]
    length = dictionary.length
    for k in range(length + 1):
        for combo in combinations(range(length), k):
            mask = 0
            for p in combo:
                mask |= 1 << p
            if all(
                sum(1 for b in bits if b & ~mask == 0) >= z
                for bits in per_query
            ):
                return k
    raise AssertionError("full mask always qualifies for z <= d")


def khv_feasible(vectors, target, count) -> bool:
    """Exhaustive check that some ``count``-subset dominates the target."""
    for combo in combinations(range(len(vectors)), count):
        sums = [0] * len(target)
        for i in combo:
            for j, c in enumerate(vectors[i]):
                sums[j] += c
        if all(s >= t for s, t in zip(sums, target)):
            return True
    return False


def has_clique(graph: Graph, k: int) -> bool:
    if k > graph.node_count:
        return False
    edges = graph.edges
    for nodes in combinations(range(1, graph.node_count + 1), k):
        if all((u, v) in edges for u, v in combinations(nodes, 2)):
            return True
    return False


def random_dictionary(rng, max_length=10, max_size=40, max_sigma=4) -> Dictionary:
    length = rng.randint(1, max_length)
    size = rng.randint(1, max_size)
    sigma = rng.randint(2, max_sigma)
    letters = "abcd"[:sigma]
    return Dictionary(
        "".join(rng.choice(letters) for _ in range(length)) for _ in range(size)
    )


def random_instance(rng, max_length=10, max_size=40, max_sigma=4, max_z=None) -> PmdmInstance:
    dictionary = random_dictionary(rng, max_length, max_size, max_sigma)
    sigma = len(dictionary.alphabet())
    letters = sorted(dictionary.alphabet())
    if rng.random() < 0.5:
        query = dictionary[rng.randrange(dictionary.size)]
    else:
        query = "".join(rng.choice(letters) for _ in range(dictionary.length))
    high = dictionary.size if max_z is None else min(max_z, dictionary.size)
    del sigma
    return PmdmInstance(dictionary, query, rng.randint(1, high))


def random_hypergraph(rng, max_nodes=15, max_edges=200, max_edge_size=5, weight_dim=None) -> WeightedHypergraph:
    n = rng.randint(max(2, max_edge_size), max_nodes)
    n_edges = rng.randint(0, max_edges)
    edges = {}
    for _ in range(n_edges):
        size = rng.randint(1, min(max_edge_size, n))
        nodes = rng.sample(range(n), size)
        bits = 0
        for p in nodes:
            bits |= 1 << p
        if weight_dim is None:
            w = rng.randint(1, 9)
            edges[bits] = edges.get(bits, 0) + w
        else:
            w = tuple(rng.randint(0, 9) for _ in range(weight_dim))
            if not any(w):
                continue
            prev = edges.get(bits, (0,) * weight_dim)
            edges[bits] = tuple(a + b for a, b in zip(prev, w))
    if weight_dim is None:
        base = rng.randint(0, 3)
    else:
        base = tuple(rng.randint(0, 3) for _ in range(weight_dim))
    return WeightedHypergraph(n, edges, base)


def random_graph(rng, max_nodes=12, p=0.5) -> Graph:
    while True:
        n = rng.randint(2, max_nodes)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < p
        ]
        if edges:
            return Graph(n, edges)


def as_bits(positions) -> int:
    bits = 0
    for p in positions:
        bits |= 1 << (p - 1)
    return bits


def mask_of(*positions) -> MaskSet:
    return MaskSet(positions)
