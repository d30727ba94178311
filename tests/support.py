"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the solver code paths they check: match
counting is done per entry (or via mismatch-bit subset tests, whose
equivalence to per-entry matching is itself pinned by the core tests),
optima, heaviest sections and minimum unions come from plain subset
enumeration, and cliques from enumerating node subsets.  The greedy and
baseline references are the heuristics' original dict-based drivers:
per-edge Python loops for scoring and node deletion, a hypergraph
rebuilt from the codes every iteration, and match checks by rescanning
the dictionary.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np

from pmdm import (
    Dictionary,
    GreedyConfig,
    HeuristicResult,
    InfeasibleThresholdError,
    MaskSet,
    MaskedString,
    PmdmInstance,
    count_matches,
    mask_apply,
    mismatch_masks,
)
from pmdm.hypergraph import (
    SectionResult,
    WeightedHypergraph,
    build_hypergraph,
    heaviest_k_section,
)
from pmdm.reductions import Graph, MuInstance

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


def oracle_mismatch_bits(dictionary: Dictionary, x: str | MaskedString) -> list[int]:
    """Per-entry mismatch bitmasks by a per-character scan: bit i is set
    where the entry and ``x`` differ at position i + 1 and ``x`` does not
    mask it."""
    base, masked = (x.base, x.mask.bits) if isinstance(x, MaskedString) else (x, 0)
    return [
        sum(1 << i for i, (a, b) in enumerate(zip(base, entry)) if a != b and not masked >> i & 1)
        for entry in dictionary
    ]


def reference_subset_counts(masks: np.ndarray, length: int) -> np.ndarray:
    """``exact.subset_counts`` as a plain per-bit sum-over-subsets fold of
    the whole table: after folding bit b, counts[K] covers every mask that
    equals K above bit b and is a subset of K on bits 0..b."""
    counts = np.bincount(masks.astype(np.int64), minlength=1 << length).astype(np.int32)
    for b in range(length):
        view = counts.reshape(-1, 2, 1 << b)
        view[:, 1] += view[:, 0]
    return counts


def combination_bits(length: int, k: int) -> np.ndarray:
    """Bitmask of every set of ``k`` positions, in ``combinations`` order."""
    return np.array([sum(1 << p for p in c) for c in combinations(range(length), k)], dtype=np.uint64)


def reference_simple_query(dictionary: Dictionary, k: int, z0: int, q: str, z: int):
    """The fixed-size index's answer by enumeration: among the masks of
    ``k`` positions whose per-entry count reaches ``z0`` (the index keeps
    no smaller group) and ``z``, the first with the highest count in
    ``combinations`` order, with that count; None when there is none."""
    if z < z0:
        raise ValueError(f"z={z} below the minimum supported threshold {z0}")
    if z > dictionary.size:
        raise InfeasibleThresholdError(f"threshold {z} exceeds dictionary size {dictionary.size}")
    if len(q) != dictionary.length:
        raise ValueError(f"query length {len(q)} differs from {dictionary.length}")
    best = None
    for bits in combination_bits(dictionary.length, k).tolist():
        count = oracle_count(dictionary, q, bits)
        if count >= z and (best is None or count > best[1]):
            best = (MaskSet.from_bits(bits), count)
    return best


def reference_simple_items(dictionary: Dictionary, k: int, z0: int) -> dict[tuple[int, str], int]:
    """The fixed-size index's items by counting strings: (mask rank in
    ``combinations`` order, the symbols the mask keeps) -> number of
    entries, for counts >= ``z0``, in the order of their keys: by rank,
    then by the kept symbols in code-point order."""
    items = {}
    for rank, masked in enumerate(combinations(range(dictionary.length), k)):
        keep = [p for p in range(dictionary.length) if p not in masked]
        for kept, n in Counter("".join(e[p] for p in keep) for e in dictionary.entries).items():
            if n >= z0:
                items[rank, kept] = n
    return {item: items[item] for item in sorted(items)}


def unfold_simple_keys(idx) -> list[tuple[int, str]]:
    """Each key of a fixed-size index, in stored order, as (mask rank, kept
    symbols), unfolded in Python integers.  A key's digits are the rank
    (radix C(l, k)), then the kept symbols' ranks in ``idx.alphabet``
    (radix sigma); each word holds the next digits while their radices
    multiply to at most 2^64, and every word must unfold completely."""
    length, k, alphabet = idx.length, idx.mask_size, idx.alphabet.tolist()
    groups, span = [[]], 1
    for radix in [comb(length, k)] + [len(alphabet)] * (length - k):
        if span * radix > 1 << 64:
            groups.append([])
            span = 1
        span *= radix
        groups[-1].append(radix)
    if idx.keys.dtype.kind == "V":
        rows = idx.keys.view(">u8").reshape(len(idx.keys), len(groups)).tolist()
    else:
        assert len(groups) == 1
        rows = [[word] for word in idx.keys.tolist()]
    items = []
    for row in rows:
        digits = []
        for word, radices in zip(row, groups):
            part = []
            for radix in reversed(radices):
                word, digit = divmod(word, radix)
                part.append(digit)
            assert word == 0, "a key word past its span"
            digits += reversed(part)
        rank, *symbols = digits
        items.append((rank, "".join(chr(alphabet[s]) for s in symbols)))
    return items


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


def oracle_mpmdm(dictionary: Dictionary, queries, z: int) -> MaskSet:
    """The documented shared mask, by enumeration: the fewest positions
    under which every query matches at least ``z`` entries, then the
    highest sum of the queries' counts, then the lexicographically smallest
    position list.

    Whether some mask of size k qualifies is monotone in k, so the optimum
    is closed in from both ends, each step enumerating the cheaper end's
    C(l, k) masks.  Raises AssertionError once that exceeds 2^20: an
    optimum within four positions of 0 or l is found at every length.
    """
    length = dictionary.length
    per_query = [mismatch_masks(dictionary, q) for q in queries]

    def best_of_size(k):
        inverted = k > length - k  # enumerate the kept positions instead
        combos = np.array(list(combinations(range(length), length - k if inverted else k)), dtype=np.uint64)
        bits = np.bitwise_or.reduce(np.uint64(1) << combos, axis=1)
        if inverted:
            bits ^= np.uint64((1 << length) - 1)
        counts = np.zeros((len(per_query), len(bits)), dtype=np.int64)
        for row, entries in zip(counts, per_query):
            for e in entries:
                row += (e & ~bits) == 0
        ok = counts.min(axis=0) >= z
        if not ok.any():
            return None
        total = counts.sum(axis=0)
        tied = np.flatnonzero(ok & (total == total[ok].max()))
        return min((MaskSet.from_bits(int(bits[i])) for i in tied), key=lambda m: m.positions)

    # the optimum lies in [lo, hi]; size hi qualifies with ``best``
    lo, hi, best = 0, length, best_of_size(length)
    while lo < hi:
        k = lo if comb(length, lo) <= comb(length, hi - 1) else hi - 1
        if comb(length, k) > 1 << 20:
            raise AssertionError(f"optimum between sizes {lo} and {hi}: too many masks")
        found = best_of_size(k)
        if k == lo:
            if found is not None:
                return found
            lo += 1
        elif found is None:
            return best
        else:
            hi, best = k, found
    return best


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


class MuSolution(NamedTuple):
    indices: list[int]
    union: frozenset[int]


def reference_mu(inst: MuInstance) -> MuSolution:
    """Minimum union by enumerating every index subset of the threshold's
    size: the smallest union wins, ties by the lexicographically smallest
    index list.  It shares no code with the reduction to masks, so it
    checks that reduction; it costs C(d, z) unions, small instances only."""
    best = None
    for indices in combinations(range(len(inst.sets)), inst.threshold):
        union = frozenset().union(*(inst.sets[i] for i in indices))
        if best is None or len(union) < len(best.union):
            best = MuSolution(list(indices), union)
    return best


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


def random_hypergraph(
    rng, max_nodes=15, max_edges=200, max_edge_size=5, min_edge_size=1
) -> WeightedHypergraph:
    n = rng.randint(max(2, max_edge_size), max_nodes)
    n_edges = rng.randint(0, max_edges)
    edges = {}
    for _ in range(n_edges):
        size = rng.randint(min_edge_size, min(max_edge_size, n))
        nodes = rng.sample(range(n), size)
        bits = 0
        for p in nodes:
            bits |= 1 << p
        edges[bits] = edges.get(bits, 0) + rng.randint(1, 9)
    return hypergraph_of(n, edges, rng.randint(0, 3))


def hypergraph_of(
    node_count: int, edges: dict[int, int], base_weight: int = 0, nodes=None
) -> WeightedHypergraph:
    """A hypergraph from a {bitmask: weight} dict literal."""
    keys = sorted(edges)
    return WeightedHypergraph(node_count, keys, [edges[e] for e in keys], base_weight, nodes)


def edge_dict(h: WeightedHypergraph) -> dict[int, int]:
    """A hypergraph's edges as a {bitmask: weight} dict."""
    return dict(zip(h.edges.tolist(), h.weights.tolist()))


def reference_section(edges: dict[int, int], base: int, nodes, k: int) -> SectionResult:
    """Heaviest k-section by a walk over dict lookups: every k-subset of
    ``nodes`` in ``combinations`` order weighs ``base`` plus the weights
    of its subsets found in ``edges``.  Keeping the first maximum gives
    the documented tie-break: the heaviest, then the lexicographically
    smallest position list."""
    best = None
    for combo in combinations(sorted(nodes), k):
        bits = as_bits(combo)
        total = base
        sub = bits
        while sub:
            total += edges.get(sub, 0)
            sub = (sub - 1) & bits
        if best is None or total > best[1]:
            best = SectionResult(MaskSet.from_bits(bits), total)
    return best


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


def reference_node_scores(edges: dict[int, int]):
    """Sorted (position, Fraction score) pairs of every node in some edge."""
    stats: dict[int, list] = {}
    for bits, w in edges.items():
        size = bits.bit_count()
        b = bits
        while b:
            u = b.bit_length()
            st = stats.setdefault(u, [0, 0, 0])
            st[0] += 1
            st[1] += w
            st[2] += size
            b &= ~(1 << (u - 1))
    return sorted((u, Fraction(cnt * sw, sl)) for u, (cnt, sw, sl) in stats.items())


def _reference_best_node(edges) -> int:
    scored = reference_node_scores(edges)
    return max(scored, key=lambda us: (us[1], -us[0]))[0]


def _reference_delete_node(edges, base, node):
    keep = ~(1 << (node - 1))
    out: dict[int, int] = {}
    for bits, w in edges.items():
        reduced = bits & keep
        if reduced == 0:
            base += w
        else:
            out[reduced] = out.get(reduced, 0) + w
    return out, base


def reference_preprocess(h: WeightedHypergraph, k: int):
    """Remove best-scored nodes until an edge of size at most ``k`` exists."""
    edges = edge_dict(h)
    base = h.base_weight
    removed = 0
    while edges and min(bits.bit_count() for bits in edges) > k:
        u = _reference_best_node(edges)
        edges, base = _reference_delete_node(edges, base, u)
        removed |= 1 << (u - 1)
    if removed == 0:
        return h, MaskSet()
    nodes = tuple(v for v in h.nodes if not removed >> (v - 1) & 1)
    return (
        hypergraph_of(h.node_count, edges, base, nodes),
        MaskSet.from_bits(removed),
    )


def reference_greedy(inst: PmdmInstance, cfg: GreedyConfig = GreedyConfig()) -> HeuristicResult:
    """Each section size k = 1..tau reduces the iteration's hypergraph
    from scratch, so it checks the one-pass reduction independently."""
    dictionary, query, z = inst.dictionary, inst.query, inst.threshold
    solved = MaskSet()
    iteration = 0
    while count_matches(dictionary, mask_apply(query, solved)) < z:
        iteration += 1
        h = build_hypergraph(dictionary, mask_apply(query, solved))
        candidates = []
        fallback = None
        for k in range(1, min(cfg.tau, len(h.nodes)) + 1):
            hk, removed = reference_preprocess(h, k)
            size = min(k, len(hk.nodes))
            if size == 0:
                continue
            # only edges of at most ``size`` nodes fit in a section
            fits = np.bitwise_count(hk.edges) <= size
            fitting = WeightedHypergraph(
                hk.node_count, hk.edges[fits], hk.weights[fits], hk.base_weight, hk.nodes
            )
            section = heaviest_k_section(fitting, size)
            attempt = removed | section.nodes
            if section.weight >= z:
                candidates.append(attempt)
            fallback = attempt
        if candidates:
            best = min(candidates, key=lambda m: (len(m), m.positions))
            return HeuristicResult(solved | best, iteration)
        assert fallback
        solved = solved | fallback
    return HeuristicResult(solved, iteration)


def reference_baseline(inst: PmdmInstance) -> HeuristicResult:
    dictionary, query, z = inst.dictionary, inst.query, inst.threshold
    if count_matches(dictionary, mask_apply(query, MaskSet())) >= z:
        return HeuristicResult(MaskSet(), 0)
    h = build_hypergraph(dictionary, query)
    edges = edge_dict(h)
    base = h.base_weight
    picked = 0
    iterations = 0
    while edges:
        u = _reference_best_node(edges)
        picked |= 1 << (u - 1)
        iterations += 1
        edges, base = _reference_delete_node(edges, base, u)
        if count_matches(dictionary, mask_apply(query, MaskSet.from_bits(picked))) >= z:
            return HeuristicResult(MaskSet.from_bits(picked), iterations)
    raise AssertionError("edges exhausted before reaching threshold")
