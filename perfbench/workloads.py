"""The benchmark workloads.

Each workload draws a clustered dictionary with ``pmdm.bench.generate``
from the run's seed, then answers "rounds": one seeded dictionary record
turned into every query the workload asks about it.  An operation is a
callable that returns pmdm's answer plus a checker that judges that
answer against the independent oracle after the timed batch.

Why these two (see README.md for the numbers behind each):

* exact-clustered: pure-Python section search (branching, brute force,
  k=2/3, the multi-query vector DP); core scans are a small share.
* index-small-alphabet: the only workload where index.py does the work,
  with the write path (build + save) beside the read path (load + query);
  the greedy and baseline heuristics answer the same records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from oracle import Oracle, positions_to_bits


@dataclass
class Op:
    name: str
    call: object  # () -> pmdm result
    check: object  # result -> (problem or None, mask size or None)


@dataclass
class Context:
    pmdm: object
    dictionary: object
    oracle: Oracle
    dict_path: str
    work: str
    indexes: dict = field(default_factory=dict)
    index_paths: dict = field(default_factory=dict)


def _positions(mask) -> list[int]:
    return list(mask.positions)


class Workload:
    name = ""
    params: dict = {}
    smoke_params: dict = {}
    #: Untimed rounds before the timed batch.
    warmup_rounds = 2
    #: Fixed tail percentile; the run reports how many samples lie beyond it.
    tail_percentile = 90.0
    #: Passes per run, a multiple of 4; each takes one index sample.
    passes = 4

    def __init__(self, smoke: bool = False):
        self.params = dict(self.params)
        if smoke:
            self.params.update(self.smoke_params)

    def gen_config(self, pmdm, seed: int):
        p = self.params
        return pmdm.bench.GenConfig(
            size=p["d"], length=p["l"], alphabet_size=p["sigma"], seed=seed,
            mode="clustered", centers=p["centers"], mutation_rate=p["rho"],
        )

    def index_builders(self, pmdm, dictionary) -> dict:
        """Index kinds built, saved and loaded in every pass.

        Every workload writes and reads ``small`` (the dictionary itself) and
        ``simple1`` (k=1 tables), so the index format is measured everywhere.
        ``small`` alone takes under a millisecond, too little to time
        steadily; ``simple1`` adds about a second of work per pass.
        """
        return {
            "small": lambda: dictionary,
            "simple1": lambda: pmdm.index.simple_build(dictionary, 1, 1),
        }

    def round(self, ctx: Context, record: int) -> list[Op]:
        raise NotImplementedError

    def cli_argv(self, ctx: Context, record: int) -> tuple[list[str], object]:
        raise NotImplementedError


class ExactClustered(Workload):
    # Thresholds target a search depth: z_k is the most matches any k-position
    # mask reaches for the record, so the optimum is k (lower on a plateau).
    # Fixed z (5, 20, 50) made the optimum range over 2..11 with per-answer
    # costs from 1 ms to 3.8 s, so the seed, not the code, set the rate.
    # Clusters of 25 (400 centres) keep a k=8 answer near 0.15 s; with
    # clusters of 100 it took 0.3-2 s.
    # Sixteen passes: one sample of the index round trip (about 1 s) varies
    # by +-20% with the machine's speed from second to second, so a figure
    # from four samples moved index_build_s and index_load_s by a quarter
    # between runs; the mean of sixteen spread over the run follows the
    # machine's average speed over the run, as the answer rate does.
    name = "exact-clustered"
    passes = 16
    params = {"d": 10_000, "l": 15, "sigma": 10, "centers": 400, "rho": 0.2,
              "target_k": [2, 4, 6, 8], "multi_k": 7, "group": 3}
    smoke_params = {"d": 400, "l": 10, "centers": 16, "target_k": [2, 4], "multi_k": 3}

    def round(self, ctx, record):
        pmdm, d, oracle = ctx.pmdm, ctx.dictionary, ctx.oracle
        query = d[record]
        masks = oracle.masks(query)
        table = oracle.table(masks)
        ops = []
        for k in self.params["target_k"]:
            z = oracle.best_of_size(table, k)

            def check(mask, z=z):
                return oracle.check_optimal([table], [masks], _positions(mask), z), len(mask)
            inst = pmdm.exact.PmdmInstance(d, query, z)
            ops.append(Op(f"solve.k{k}", lambda inst=inst: pmdm.exact.solve_pmdm(inst), check))
        group = [record] + oracle.nearest(masks, record, self.params["group"] - 1)
        group_masks = [oracle.masks(d[i]) for i in group]
        tables = [oracle.table(m) for m in group_masks]
        z = oracle.best_of_size(np.minimum.reduce(tables), self.params["multi_k"])

        def check_multi(mask):
            return oracle.check_optimal(tables, group_masks, _positions(mask), z), len(mask)
        multi = pmdm.exact.MpmdmInstance(d, [d[i] for i in group], z)
        ops.append(Op("multi", lambda: pmdm.exact.solve_mpmdm(multi), check_multi))
        return ops

    def cli_argv(self, ctx, record):
        query = ctx.dictionary[record]
        masks = ctx.oracle.masks(query)
        table = ctx.oracle.table(masks)
        z = ctx.oracle.best_of_size(table, self.params["target_k"][0])

        def check(out):
            problem = ctx.oracle.check_optimal([table], [masks], out["positions"], z)
            return problem or _matches_problem(ctx, masks, out), out["k"]
        return ["solve", "--dict", ctx.dict_path, "--query", query, "--z", str(z)], check


class IndexSmallAlphabet(Workload):
    # d is 2500, not 5000, so that the index write/read path (about 6 s here)
    # fits four times in a run.  Thresholds target k as in exact-clustered:
    # a split query scans every mask smaller than the optimum, so with fixed
    # z (10, 50) its cost followed the seed.
    name = "index-small-alphabet"
    params = {"d": 2_500, "l": 12, "sigma": 4, "centers": 25, "rho": 0.25,
              "target_k": [3, 5], "simple_z0": 1, "split_tau": 8,
              "heuristic_k": 5, "tau": 3}
    smoke_params = {"d": 300, "l": 8, "centers": 5, "target_k": [2, 3], "heuristic_k": 3}
    warmup_rounds = 1
    tail_percentile = 99.0

    def index_builders(self, pmdm, dictionary):
        z0, tau = self.params["simple_z0"], self.params["split_tau"]
        return {
            "small": lambda: dictionary,
            "simple2": lambda: pmdm.index.simple_build(dictionary, 2, z0),
            "simple3": lambda: pmdm.index.simple_build(dictionary, 3, z0),
            "split": lambda: pmdm.index.split_build(dictionary, tau, z0),
        }

    def round(self, ctx, record):
        pmdm, oracle, ix = ctx.pmdm, ctx.oracle, ctx.indexes
        query = ctx.dictionary[record]
        masks = oracle.masks(query)
        cache = {}

        def table():
            if "t" not in cache:
                cache["t"] = oracle.table(masks)
            return cache["t"]
        ops = []
        for k in self.params["target_k"]:
            z = oracle.best_of_size(table(), k)

            def check_exact(mask, z=z):
                return oracle.check_optimal([table()], [masks], _positions(mask), z), len(mask)

            def small(z=z):
                return pmdm.index.small_ell_query(pmdm.index.small_ell_build(ix["small"], query), z)
            ops.append(Op(f"small.k{k}", small, check_exact))
            for kind, size in (("simple2", 2), ("simple3", 3)):
                def check_simple(found, z=z, size=size):
                    answer = None if found is None else (_positions(found[0]), found[1])
                    problem = oracle.check_fixed_size(table(), masks, size, z, answer)
                    return problem, None if found is None else len(found[0])
                ops.append(Op(f"{kind}.k{k}",
                              lambda z=z, kind=kind: pmdm.index.simple_query(ix[kind], query, z),
                              check_simple))
            ops.append(Op(f"split.k{k}",
                          lambda z=z: pmdm.index.split_query(ix["split"], query, z), check_exact))
        z_heuristic = oracle.best_of_size(table(), self.params["heuristic_k"])
        heuristic = pmdm.exact.PmdmInstance(ctx.dictionary, query, z_heuristic)
        cfg = pmdm.heuristic.GreedyConfig(tau=self.params["tau"])

        def check_heuristic(result):
            positions = _positions(result.mask)
            return oracle.check_reaches(masks, positions, z_heuristic), len(positions)
        ops.append(Op("greedy", lambda: pmdm.heuristic.greedy_pmdm(heuristic, cfg),
                      check_heuristic))
        ops.append(Op("baseline", lambda: pmdm.heuristic.baseline_pmdm(heuristic),
                      check_heuristic))
        return ops

    def cli_argv(self, ctx, record):
        query = ctx.dictionary[record]
        masks = ctx.oracle.masks(query)
        table = ctx.oracle.table(masks)
        z = ctx.oracle.best_of_size(table, self.params["target_k"][0])

        def check(out):
            problem = ctx.oracle.check_optimal([table], [masks], out["positions"], z)
            return problem or _matches_problem(ctx, masks, out), out["k"]
        argv = ["index", "query", "--index", ctx.index_paths["small"], "--query", query,
                "--z", str(z)]
        return argv, check


def _matches_problem(ctx, masks, out) -> str | None:
    actual = ctx.oracle.count(masks, positions_to_bits(out["positions"]))
    if out["matches"] != actual:
        return f"cli reported {out['matches']} matches, the mask gives {actual}"
    return None


WORKLOADS = {w.name: w for w in (ExactClustered, IndexSmallAlphabet)}
