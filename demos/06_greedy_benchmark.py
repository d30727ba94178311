"""Greedy masking vs the baseline and the exact optimum on clustered
synthetic data: mean mask sizes over sampled records, and how often
each heuristic returns a mask of the optimal size.

Run: python demos/06_greedy_benchmark.py   (takes about a second)
"""

import numpy as np

from pmdm import (
    GenConfig,
    GreedyConfig,
    PmdmInstance,
    baseline_pmdm,
    generate,
    greedy_pmdm,
    solve_pmdm,
)

dictionary = generate(
    GenConfig(size=5_000, length=15, alphabet_size=26, seed=42,
              mode="clustered", centers=40, mutation_rate=0.15)
)
records = np.random.default_rng(3).integers(0, dictionary.size, size=40)
print(f"clustered dictionary: {dictionary.size} strings of length"
      f" {dictionary.length}; {len(records)} of them as queries")
print()

solvers = {
    "optimum": solve_pmdm,
    "greedy tau=3": lambda inst: greedy_pmdm(inst, GreedyConfig(tau=3)).mask,
    "greedy tau=4": lambda inst: greedy_pmdm(inst, GreedyConfig(tau=4)).mask,
    "baseline": lambda inst: baseline_pmdm(inst).mask,
}
for z in (10, 40):
    sizes = {name: [] for name in solvers}
    for record in records:
        inst = PmdmInstance(dictionary, dictionary[int(record)], z)
        for name, solve in solvers.items():
            sizes[name].append(len(solve(inst)))
    print(f"threshold z={z}:")
    for name, found in sizes.items():
        optimal = sum(k == best for k, best in zip(found, sizes["optimum"]))
        print(f"  {name:13} mean mask size {np.mean(found):5.2f}"
              f"  optimal on {optimal} of {len(found)}")
    print()

print("The exact optimum at l=15 is one table of 2^15 subset counts per")
print("query.  The greedy solver stays at or near it, while the")
print("one-node-at-a-time baseline drifts as the threshold grows.")
