"""Independent answer checks, computed from the raw strings with numpy only.

Nothing here imports pmdm.  Mismatch bitmasks are built as uint64 sums of
per-position powers of two; full subset-count tables come from an
in-place sum-over-subsets pass over a histogram of those bitmasks.  Every
check returns None when the answer is right and a one-line reason when it
is not.
"""

from __future__ import annotations

import numpy as np


def _codes(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


def positions_to_bits(positions) -> int:
    bits = 0
    for p in positions:
        bits |= 1 << (int(p) - 1)
    return bits


class Oracle:
    """Mismatch bitmasks and exact subset counts for one dictionary."""

    def __init__(self, entries):
        entries = list(entries)
        self.size = len(entries)
        self.length = len(entries[0])
        self.codes = _codes("".join(entries)).reshape(self.size, self.length)
        self.weights = np.left_shift(
            np.uint64(1), np.arange(self.length, dtype=np.uint64)
        )
        self.full = (1 << self.length) - 1
        self._popcounts = None

    def masks(self, query: str) -> np.ndarray:
        """Bit i-1 of entry e is set iff entry e differs from query at position i."""
        diff = self.codes != _codes(query)
        return (diff * self.weights).sum(axis=1, dtype=np.uint64)

    def count(self, masks: np.ndarray, bits: int) -> int:
        """Entries matched by the query masked at ``bits``."""
        keep = np.uint64(self.full & ~bits)
        return int(((masks & keep) == 0).sum())

    def nearest(self, masks: np.ndarray, record: int, how_many: int) -> list[int]:
        """Entries with the fewest mismatches, the record itself excluded; ties by index."""
        distance = np.bitwise_count(masks).astype(np.int64)
        distance[record] = self.length + 1
        return [int(i) for i in np.argsort(distance, kind="stable")[:how_many]]

    @property
    def popcounts(self) -> np.ndarray:
        if self._popcounts is None:
            self._popcounts = np.bitwise_count(np.arange(1 << self.length, dtype=np.uint64))
        return self._popcounts

    def table(self, masks: np.ndarray) -> np.ndarray:
        """counts[K] = entries matched under mask K, for every K (needs small length)."""
        counts = np.bincount(masks.astype(np.int64), minlength=1 << self.length)
        counts = counts.astype(np.int32)
        for b in range(self.length):
            view = counts.reshape(-1, 2, 1 << b)
            view[:, 1, :] += view[:, 0, :]
        return counts

    def optimum(self, tables, z: int) -> int:
        """Fewest positions that let every table's query reach ``z``."""
        worst = np.minimum.reduce(list(tables))
        return int(self.popcounts[worst >= z].min())

    def best_of_size(self, table: np.ndarray, k: int) -> int:
        return int(table[self.popcounts == k].max())

    # -- checks -----------------------------------------------------------

    def _mask_ok(self, positions) -> str | None:
        if any(not 1 <= int(p) <= self.length for p in positions):
            return f"position out of range in {list(positions)}"
        if len(set(positions)) != len(positions):
            return f"repeated position in {list(positions)}"
        return None

    def check_reaches(self, masks: np.ndarray, positions, z: int) -> str | None:
        problem = self._mask_ok(positions)
        if problem:
            return problem
        got = self.count(masks, positions_to_bits(positions))
        if got < z:
            return f"mask {list(positions)} matches {got} < z={z}"
        return None

    def check_optimal(self, tables, masks_list, positions, z: int) -> str | None:
        for masks in masks_list:
            problem = self.check_reaches(masks, positions, z)
            if problem:
                return problem
        best = self.optimum(tables, z)
        if len(positions) != best:
            return f"k={len(positions)} but the optimum is {best} at z={z}"
        return None

    def check_fixed_size(self, table, masks, k: int, z: int, found) -> str | None:
        """A fixed-size index answer: the heaviest size-k mask if it reaches z, else None."""
        best = self.best_of_size(table, k)
        if found is None:
            if best >= z:
                return f"no answer, but a size-{k} mask matches {best} >= z={z}"
            return None
        positions, count = found
        if len(positions) != k:
            return f"answer has {len(positions)} positions, index size is {k}"
        problem = self.check_reaches(masks, positions, z)
        if problem:
            return problem
        actual = self.count(masks, positions_to_bits(positions))
        if count != actual:
            return f"reported count {count} but the mask matches {actual}"
        if count != best:
            return f"count {count} is not the heaviest size-{k} count {best}"
        return None
