"""Greedy mask construction with hypergraph preprocessing, plus a baseline.

When every remaining edge is larger than the section size being tried,
the score

    s(u) = |E_u| * (sum of w(e) for e in E_u) / (sum of |e| for e in E_u)

favours nodes sitting in many short, heavy edges; removing the best node
shrinks edges until one fits.  Each greedy iteration runs one such
reduction pass for section sizes tau down to 1 and solves an exact small
section at each size, fixing a few positions.  The baseline simply
adds one best-scored node at a time.

Both run on edge arrays derived from the per-entry mismatch bitmask
vector M, which is computed once per answer: the distinct non-zero masks
(uint64), their multiplicities (int64) and the base weight of entries
already matched.  A greedy iteration's partial hypergraph is the grouping
of ``M & ~solved``; deleting a node clears its bit in every edge and
merges the edges that collide; a match count is the base weight.  The
per-node aggregates a score needs (edge count, weight sum, size sum) come
from numpy, through one integer product with an (edges x positions) bit
matrix.  The winning node is then picked over at most 64 nodes by
cross-multiplying exact Python ints, so no floating point and no int64
overflow is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import MaskSet, mismatch_masks
from .exact import PmdmInstance, _check_threshold
from .hypergraph import WeightedHypergraph, edge_arrays, heaviest_k_section

# Unused here, but the benchmark's tracer wraps these names on this module.
from .core import count_matches  # noqa: F401
from .hypergraph import build_hypergraph  # noqa: F401

@dataclass(frozen=True)
class GreedyConfig:
    """Section budget of ``greedy_pmdm``: iterations try section sizes up
    to ``tau``, and an answer takes at most ceil(l / tau) of them.  The
    section search grows steeply with ``tau`` (README, "Notes on scale")."""

    tau: int = 3

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError("tau must be at least 1")


class HeuristicResult(NamedTuple):
    mask: MaskSet
    iterations: int


def _scores(values: np.ndarray, weights: np.ndarray, length: int) -> list[tuple[int, int, int]]:
    """(position, numerator, denominator) of the score of every node in some edge."""
    bits = (values[:, None] >> np.arange(length, dtype=np.uint64)) & np.uint64(1)
    bits = bits.astype(np.int64)
    sizes = np.bitwise_count(values).astype(np.int64)
    count = bits.sum(axis=0).tolist()
    weight_sum, size_sum = (np.stack([weights, sizes]) @ bits).tolist()
    return [
        (u + 1, count[u] * weight_sum[u], size_sum[u]) for u in range(length) if count[u]
    ]


def _best_node(values: np.ndarray, weights: np.ndarray, length: int) -> int:
    """Best-scored node, smallest position on ties."""
    best = None
    for scored in _scores(values, weights, length):
        # num/den > best_num/best_den, with both denominators positive
        if best is None or scored[1] * best[2] > best[1] * scored[2]:
            best = scored
    return best[0]


def _delete_node(
    values: np.ndarray, weights: np.ndarray, base: int, node: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Drop a node from every edge; emptied edges feed the base weight,
    colliding edges merge by summing."""
    reduced = values & ~np.uint64(1 << (node - 1))
    empty = reduced == 0
    base += int(weights[empty].sum())
    values, inverse = np.unique(reduced[~empty], return_inverse=True)
    merged = np.zeros(values.size, dtype=np.int64)
    np.add.at(merged, inverse, weights[~empty])
    return values, merged, base


def _reduce(
    values: np.ndarray, weights: np.ndarray, base: int, k: int, length: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Delete best-scored nodes until an edge of at most ``k`` nodes exists
    (or no edge is left); also returns the deleted nodes' bits.

    Each pick depends only on the current edges, and the loop for ``k - 1``
    runs while the one for ``k`` does, so the deletions for ``k`` are a
    prefix of those for ``k - 1``: reducing the result again to ``k - 1``
    equals reducing the input to ``k - 1``.
    """
    removed = 0
    while values.size and np.bitwise_count(values).min() > k:
        u = _best_node(values, weights, length)
        values, weights, base = _delete_node(values, weights, base, u)
        removed |= 1 << (u - 1)
    return values, weights, base, removed


def preprocess(h: WeightedHypergraph, k: int) -> tuple[WeightedHypergraph, MaskSet]:
    """Remove best-scored nodes until an edge of size at most ``k`` exists.

    Returns the reduced hypergraph and the removed positions.  A
    hypergraph that already has a small enough edge (or none at all) is
    returned unchanged.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    values, weights, base, removed = _reduce(h.edges, h.weights, h.base_weight, k, h.node_count)
    if removed == 0:
        return h, MaskSet()
    nodes = tuple(v for v in h.nodes if not removed >> (v - 1) & 1)
    reduced = WeightedHypergraph(h.node_count, values, weights, base, nodes)
    return reduced, MaskSet.from_bits(removed)


def greedy_pmdm(inst: PmdmInstance, cfg: GreedyConfig = GreedyConfig()) -> HeuristicResult:
    """Fix up to ``tau`` positions per iteration via exact small sections.

    Each iteration groups the mismatch bitmasks of the partially masked
    query into a hypergraph and tries section sizes k = min(tau, unmasked
    positions) down to 1.  One reduction pass serves them all: for each k
    it deletes best-scored nodes until an edge of at most k nodes exists,
    continuing from the previous k's edges (see ``_reduce``), and then
    solves the heaviest k-section over the edges that fit.  The iteration
    returns the smallest feasible combined mask (fewest positions, then
    the lexicographically smallest list) if some k reaches the threshold;
    otherwise it commits the largest k's attempt and continues.  When the
    optimum is at most tau the first iteration returns it exactly.

    Every iteration that continues masks at least min(tau, unmasked
    positions) more positions, so the loop ends after at most
    ceil(l / tau) iterations.
    """
    _check_threshold(inst.threshold, inst.dictionary.size)
    z, length = inst.threshold, inst.dictionary.length
    masks = mismatch_masks(inst.dictionary, inst.query)
    values, weights, base = edge_arrays(masks)
    solved = 0
    iteration = 0
    while base < z:
        iteration += 1
        nodes = tuple(p for p in range(1, length + 1) if not solved >> (p - 1) & 1)
        candidates: list[MaskSet] = []
        fallback = None
        removed = 0
        for k in range(min(cfg.tau, len(nodes)), 0, -1):
            values, weights, base, dropped = _reduce(values, weights, base, k, length)
            removed |= dropped
            nodes_k = tuple(v for v in nodes if not removed >> (v - 1) & 1)
            size = min(k, len(nodes_k))
            fits = np.bitwise_count(values) <= size
            hk = WeightedHypergraph(length, values[fits], weights[fits], base, nodes_k)
            section = heaviest_k_section(hk, size)
            attempt = MaskSet.from_bits(removed) | section.nodes
            if section.weight >= z:
                candidates.append(attempt)
            if fallback is None:
                fallback = attempt.bits
        if candidates:
            best = min(candidates, key=lambda m: (len(m), m.positions))
            return HeuristicResult(MaskSet.from_bits(solved) | best, iteration)
        solved |= fallback
        values, weights, base = edge_arrays(masks & ~np.uint64(solved))
    return HeuristicResult(MaskSet.from_bits(solved), iteration)


def baseline_pmdm(inst: PmdmInstance) -> HeuristicResult:
    """Add one best-scored node at a time until the threshold is met.

    Every node deletion moves the edges it empties into the base weight,
    which is the match count of the picked mask; with no edge left it is
    the dictionary size, so the loop ends for every feasible threshold.
    """
    _check_threshold(inst.threshold, inst.dictionary.size)
    z, length = inst.threshold, inst.dictionary.length
    values, weights, base = edge_arrays(mismatch_masks(inst.dictionary, inst.query))
    picked = 0
    while base < z:
        u = _best_node(values, weights, length)
        values, weights, base = _delete_node(values, weights, base, u)
        picked |= 1 << (u - 1)
    return HeuristicResult(MaskSet.from_bits(picked), picked.bit_count())
