"""One mask serving several queries at once, and the paper's
vector-domination subproblem.

Run: python demos/03_multi_query.py
"""

from pmdm import (
    Dictionary,
    KhvInstance,
    MpmdmInstance,
    PmdmInstance,
    count_matches,
    mask_apply,
    solve_khv,
    solve_mpmdm,
    solve_pmdm,
)

# Masking two records so each still resembles enough entries: the shared
# mask must work for both queries simultaneously.
dictionary = Dictionary(["aa", "ab", "ba"])
queries = ["aa", "bb"]
mask = solve_mpmdm(MpmdmInstance(dictionary, queries, 2))
print("dictionary:", list(dictionary))
for q in queries:
    masked = mask_apply(q, mask)
    print(f"query {q} -> {masked.render()} matches"
          f" {count_matches(dictionary, masked)} entries")
print()

# A shared mask can be strictly larger than what each query needs alone.
for q in queries:
    alone = solve_pmdm(PmdmInstance(dictionary, q, 2))
    print(f"{q} alone needs {len(alone)} positions; together: {len(mask)}")
print()

# The paper's vector subproblem, solved on its own: pick vectors whose
# component-wise sum dominates a target.
vectors = [(1, 0), (0, 1), (1, 1), (2, 0)]
target = (2, 1)
chosen = solve_khv(KhvInstance(vectors, target, 2))
print(f"pick 2 of {vectors} dominating {target}: indices {chosen} ->",
      [vectors[i] for i in chosen])
print("impossible pick:", solve_khv(KhvInstance([(1, 0), (1, 0)], (0, 1), 2)))
