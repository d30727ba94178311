"""Clique and minimum-union translations, round-tripped.

Run: python demos/05_reductions.py
"""

from pmdm import (
    Graph,
    MuInstance,
    clique_to_pmdm,
    decide_k_pmdm,
    extract_mu_solution,
    mu_to_pmdm,
    pmdm_to_mu,
    solve_pmdm,
)

# A triangle with a tail: the 3-clique exists, a 4-clique does not.
graph = Graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
print("graph edges:", sorted(graph.edges))
for k in (3, 4):
    inst = clique_to_pmdm(graph, k)
    print(f"k={k}: dictionary {list(inst.dictionary)} z={inst.threshold}"
          f" -> decision {decide_k_pmdm(inst, k)}")
print()

# Choosing z sets with the smallest union is the same problem in disguise:
# solve it as a masking instance and read the chosen sets off the mask.
mu = MuInstance(5, [{1}, {1, 2, 3}, {1, 3, 5}, {3}, {3, 4, 5}, {4}, {4, 5}, {5}], 4)
inst = mu_to_pmdm(mu)
mask = solve_pmdm(inst)
chosen = extract_mu_solution(mu, mask)
union = set().union(*(mu.sets[i] for i in chosen))
print(f"as strings: query {inst.query}, optimal mask size {len(mask)}")
print(f"pick {mu.threshold} of {len(mu.sets)} sets: indices {chosen},"
      f" union {sorted(union)} (size {len(union)})")
print("sets recovered from the mask:", [sorted(mu.sets[i]) for i in chosen])
print()

# And back: a string instance becomes a set-selection instance whose
# optimum, solved the same way, keeps the mask size.
mu2 = pmdm_to_mu(inst)
mask2 = solve_pmdm(mu_to_pmdm(mu2))
print("round trip keeps the optimum:", len(mask2) == len(mask))
