"""Instance generators translating between problem formulations.

* cliques: a graph becomes a binary-alphabet instance with one string per
  edge, so a k-clique exists exactly when k masked positions can reach
  k*(k-1)/2 matches;
* minimum union: choosing z sets with the smallest union corresponds
  one-to-one with masking the fewest positions to match z entries, in
  both directions.  So a minimum union is solved by ``solve_pmdm`` on
  ``mu_to_pmdm``'s instance, and ``extract_mu_solution`` reads the
  chosen sets off the mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Sequence

from .core import MAX_LENGTH, CapacityError, Dictionary, MaskSet, mismatch_masks
from .exact import PmdmInstance


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 1..node_count."""

    node_count: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, node_count: int, edges: Iterable[tuple[int, int]]):
        if node_count < 1:
            raise ValueError("node_count must be positive")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (1 <= u <= node_count and 1 <= v <= node_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "edges", frozenset(normalized))

    @classmethod
    def from_file(cls, path) -> "Graph":
        """First line: node count; then one ``u v`` pair per line."""
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
        if not lines:
            raise ValueError("empty graph file")
        n = int(lines[0])
        edges = []
        for line in lines[1:]:
            u, v = line.split()
            edges.append((int(u), int(v)))
        return cls(n, edges)


def _is_integer(value) -> bool:
    """An integer of any integral type except ``bool``, which is one in
    Python but stands for no set element, size or count."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class MuInstance:
    """Choose ``threshold`` of the sets so their union is smallest."""

    universe_size: int
    sets: tuple[frozenset[int], ...]
    threshold: int

    def __init__(self, universe_size: int, sets: Sequence[Iterable[int]], threshold: int):
        # checked before hashing, so a list inside a set is a ValueError too
        sets = [tuple(s) for s in sets]
        if not _is_integer(universe_size) or universe_size < 0:
            raise ValueError(f"universe size must be a non-negative integer, got {universe_size!r}")
        for i, s in enumerate(sets):
            for e in s:
                if not _is_integer(e):
                    raise ValueError(f"set {i} contains {e!r}, which is not an integer")
                if not 1 <= e <= universe_size:
                    raise ValueError(f"set {i} contains {e}, outside the universe")
        if not _is_integer(threshold):
            raise ValueError(f"threshold must be an integer, got {threshold!r}")
        if not 1 <= threshold <= len(sets):
            raise ValueError(f"threshold must be in [1, {len(sets)}]")
        object.__setattr__(self, "universe_size", universe_size)
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in sets))
        object.__setattr__(self, "threshold", threshold)


def _marked(length: int, sets: Iterable[Iterable[int]]) -> list[str]:
    """Per position set, in order, ``length`` 'a's with 'b' at its positions."""
    return ["".join("b" if p in s else "a" for p in range(1, length + 1)) for s in sets]


def clique_to_pmdm(graph: Graph, k: int) -> PmdmInstance:
    """One all-'a' query; per edge a string with 'b' at both endpoints.

    Masking k positions can reach k*(k-1)/2 matches exactly when those
    positions induce a clique, since a string matches once both its 'b'
    positions are masked.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if not graph.edges:
        raise ValueError("graph has no edges; the derived dictionary would be empty")
    n = graph.node_count
    if n > MAX_LENGTH:
        # refused before any of the per-edge strings of n characters exists
        raise CapacityError(f"{n} nodes exceed the supported string length {MAX_LENGTH}")
    entries = _marked(n, sorted(graph.edges))
    return PmdmInstance(Dictionary(entries), "a" * n, k * (k - 1) // 2)


def pmdm_to_mu(inst: PmdmInstance) -> MuInstance:
    """Per entry, the set of positions where it differs from the query."""
    masks = mismatch_masks(inst.dictionary, inst.query).tolist()
    sets = [MaskSet.from_bits(bits).positions for bits in masks]
    return MuInstance(inst.dictionary.length, sets, inst.threshold)


def mu_to_pmdm(inst: MuInstance) -> PmdmInstance:
    """One all-'a' query; per set a string with 'b' at its elements.

    Position p stands for element p, so a mask of the result names the
    elements of a union and ``extract_mu_solution`` reads it directly.
    The strings end at the largest used element (length one when no
    element is used, so a dictionary exists).  Positions of unused
    elements are 'a' everywhere, and a minimum mask is exactly the union
    of the sets it matches, so it never holds one: the optimal mask size
    equals the optimal union size.
    """
    length = max((max(s) for s in inst.sets if s), default=1)
    if length > MAX_LENGTH:
        # refused before any of the per-set strings of that length exists
        raise CapacityError(
            f"element {length} exceeds the supported string length {MAX_LENGTH}"
        )
    entries = _marked(length, inst.sets)
    return PmdmInstance(Dictionary(entries), "a" * length, inst.threshold)


def extract_mu_solution(inst: MuInstance, mask: MaskSet) -> list[int]:
    """First ``threshold`` set indices whose sets sit inside the mask."""
    allowed = set(mask.positions)
    chosen = [i for i, s in enumerate(inst.sets) if s <= allowed]
    if len(chosen) < inst.threshold:
        raise ValueError(
            f"mask covers only {len(chosen)} sets, need {inst.threshold}; "
            "not a valid witness"
        )
    return chosen[: inst.threshold]
