"""Minimum-mask dictionary matching.

Given a dictionary of equal-length strings, a query of the same length,
and a threshold z, find the smallest set of query positions to replace
with wildcards so the masked query matches at least z dictionary entries.

Modules:
    core        strings, masks, matching semantics, mismatch extraction
    hypergraph  mismatch hypergraph and exact heaviest k-section solvers
    exact       minimum-mask solvers: subset-count table up to l = 20,
                kept-set search above; vector DP
    heuristic   greedy masking with preprocessing, plus a baseline
    index       query structures: full table, fixed-size, half-split
    reductions  clique and minimum-union instance translations
    bench       seeded synthetic dictionaries
    cli         the `pmdm` command-line front end

The exhaustive searches the solvers are checked against (every mask by
growing size, every choice of sets for a minimum union, per-node scores
as fractions) are test oracles and live in the test suite, not here.
How close the heuristic comes to the optimum is checked by the
acceptance suite (criterion 7), and the benchmark under ``perfbench/``
times the solvers; neither ships in the package.
"""

from .core import (
    CapacityError,
    Dictionary,
    InfeasibleThresholdError,
    MaskSet,
    MaskedString,
    count_matches,
    mask_apply,
    matches,
    mismatch_masks,
    mismatch_set,
)
from .exact import (
    KhvInstance,
    MpmdmInstance,
    PmdmInstance,
    decide_k_pmdm,
    solve_khv,
    solve_mpmdm,
    solve_pmdm,
)
from .heuristic import (
    GreedyConfig,
    HeuristicResult,
    baseline_pmdm,
    greedy_pmdm,
    preprocess,
)
from .hypergraph import (
    SectionResult,
    WeightedHypergraph,
    build_hypergraph,
    dump_hypergraph,
    heaviest_2_section,
    heaviest_3_section,
    heaviest_k_section,
    heaviest_k_section_branching,
    heaviest_k_section_bruteforce,
    section_weight,
)
from .index import (
    SimpleIndex,
    SplitIndex,
    load_index,
    save_index,
    simple_build,
    simple_counts,
    simple_query,
    small_ell_build,
    small_ell_query,
    split_build,
    split_counts,
    split_query,
)
from .reductions import (
    Graph,
    MuInstance,
    clique_to_pmdm,
    extract_mu_solution,
    mu_to_pmdm,
    pmdm_to_mu,
)
from .bench import GenConfig, generate

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "Dictionary",
    "GenConfig",
    "Graph",
    "GreedyConfig",
    "HeuristicResult",
    "InfeasibleThresholdError",
    "KhvInstance",
    "MaskSet",
    "MaskedString",
    "MpmdmInstance",
    "MuInstance",
    "PmdmInstance",
    "SectionResult",
    "SimpleIndex",
    "SplitIndex",
    "WeightedHypergraph",
    "baseline_pmdm",
    "build_hypergraph",
    "clique_to_pmdm",
    "count_matches",
    "decide_k_pmdm",
    "dump_hypergraph",
    "extract_mu_solution",
    "generate",
    "greedy_pmdm",
    "heaviest_2_section",
    "heaviest_3_section",
    "heaviest_k_section",
    "heaviest_k_section_branching",
    "heaviest_k_section_bruteforce",
    "load_index",
    "mask_apply",
    "matches",
    "mismatch_masks",
    "mismatch_set",
    "mu_to_pmdm",
    "pmdm_to_mu",
    "preprocess",
    "save_index",
    "section_weight",
    "simple_build",
    "simple_counts",
    "simple_query",
    "small_ell_build",
    "small_ell_query",
    "solve_khv",
    "solve_mpmdm",
    "solve_pmdm",
    "split_build",
    "split_counts",
    "split_query",
]
