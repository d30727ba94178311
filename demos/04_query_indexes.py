"""The three query structures answering repeated (query, z) lookups.

Run: python demos/04_query_indexes.py
"""

import math

from pmdm import (
    GenConfig,
    generate,
    simple_build,
    simple_query,
    small_ell_build,
    small_ell_query,
    split_build,
    split_counts,
    split_query,
)

dictionary = generate(
    GenConfig(size=200, length=10, alphabet_size=3, seed=12,
              mode="clustered", centers=6, mutation_rate=0.1)
)
query = dictionary[0]
print(f"{dictionary.size} strings of length {dictionary.length}; query {query}")
print()

# Full table: one counter per position subset, filled by a subset-sum pass;
# it is the table solve_pmdm answers from, kept on the dictionary.
table = small_ell_build(dictionary, query)
for z in (2, 20, 120):
    mask = small_ell_query(table, z)
    print(f"full table  z={z:4}: mask {list(mask.positions)} "
          f"(count {int(table[mask.bits])})")
print()

# Fixed-size tables: all masks of one size, counts of identical masked
# strings, pruned below a minimum supported threshold.
idx = simple_build(dictionary, k=2, z0=2)
found = simple_query(idx, query, 20)
print("fixed-size k=2, z=20:", found and (list(found[0].positions), found[1]))
print("stored items:", len(idx.counts))
print()

# Half-split structure: frequent half patterns answered by pair counters,
# rare halves by scanning short member lists; results are identical to the
# full table.
split = split_build(dictionary, tau=max(1, math.isqrt(dictionary.size)))
for z in (2, 20, 120):
    assert split_query(split, query, z) == small_ell_query(table, z)
mask = split_query(split, query, 20)
print(f"half-split agrees with the full table; z=20 -> {list(mask.positions)}"
      f" (count {int(split_counts(split, query)[mask.bits])})")
print("pair counters kept:", len(split.pair_keys), "for",
      2 ** dictionary.length, "masks")
