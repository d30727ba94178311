"""Minimum masks via heaviest sections of the mismatch hypergraph.

Run: python demos/02_exact_solver.py
"""

from pmdm import (
    Dictionary,
    MaskSet,
    PmdmInstance,
    build_hypergraph,
    count_matches,
    decide_k_pmdm,
    dump_hypergraph,
    heaviest_k_section,
    mask_apply,
    section_weight,
    solve_pmdm,
)

dictionary = Dictionary(["abab", "abbb", "aaaa", "bbab", "abaa"])
query = "abab"

# Every entry contributes its mismatch positions as one weighted edge;
# exact matches feed the base weight (they match under any mask).
h = build_hypergraph(dictionary, query)
print("mismatch hypergraph:", dump_hypergraph(h))
print()

# The weight of the section induced on a mask equals the match count.
for positions in ([2, 4], [1, 3]):
    mask = MaskSet(positions)
    w = section_weight(h, mask)
    c = count_matches(dictionary, mask_apply(query, mask))
    print(f"section weight of {positions} = {w}, scan count = {c}")
print()

# The minimum mask size is the smallest k whose heaviest k-section reaches
# the threshold.  solve_pmdm finds it, and the per-size decision variant
# proves it optimal: no mask of one position fewer reaches z.
for z in range(1, dictionary.size + 1):
    inst = PmdmInstance(dictionary, query, z)
    best = solve_pmdm(inst)
    k = len(best)
    masked = mask_apply(query, best)
    fewer = "" if k == 0 else f", size {k - 1} works: {decide_k_pmdm(inst, k - 1)}"
    print(f"z={z}: mask {list(best.positions)!s:14} -> {masked.render()}"
          f"  ({count_matches(dictionary, masked)} matches{fewer})")
print()

print("best 2-section anyway:", heaviest_k_section(h, 2))
