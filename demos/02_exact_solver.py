"""Minimum masks via heaviest sections of the mismatch hypergraph.

Run: python demos/02_exact_solver.py
"""

from pmdm import (
    Dictionary,
    MaskSet,
    PmdmInstance,
    build_hypergraph,
    bruteforce_pmdm,
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
# the threshold.  The exhaustive solver grows k exactly so; solve_pmdm
# agrees with it.
for z in range(1, dictionary.size + 1):
    inst = PmdmInstance(dictionary, query, z)
    best = solve_pmdm(inst)
    reference = bruteforce_pmdm(inst)
    masked = mask_apply(query, best)
    print(f"z={z}: mask {list(best.positions)!s:14} -> {masked.render()}"
          f"  ({count_matches(dictionary, masked)} matches,"
          f" exhaustive size {len(reference)})")
print()

# The per-size decision variant pins optimality: one size below fails.
inst = PmdmInstance(dictionary, query, 4)
k = len(solve_pmdm(inst))
print(f"z=4: size {k} works: {decide_k_pmdm(inst, k)};"
      f" size {k - 1} works: {decide_k_pmdm(inst, k - 1)}")
print("best 2-section anyway:", heaviest_k_section(h, 2))
