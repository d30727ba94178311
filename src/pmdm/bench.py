"""Synthetic dictionaries and an evaluation harness for the solvers.

Generates uniform or clustered string collections (clustered: random
centers copied with per-position mutation, so nearby records exist and
small masks suffice), runs a set of algorithms over sampled dictionary
records as queries, oracle-verifies every returned mask, and aggregates
average solution size, average relative error against the exact optimum
(``solve_pmdm``), and timing.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .core import MAX_LENGTH, CapacityError, Dictionary, count_matches, mask_apply
from .exact import PmdmInstance, solve_pmdm
from .heuristic import GreedyConfig, baseline_pmdm, greedy_pmdm

REPORT_SCHEMA = "pmdm-report/1"


@dataclass(frozen=True)
class GenConfig:
    """Shape of a synthetic dictionary; generation is seed-deterministic."""

    size: int
    length: int
    alphabet_size: int
    seed: int = 0
    mode: str = "uniform"
    centers: int = 1
    mutation_rate: float = 0.0

    def __post_init__(self):
        if self.size < 1 or self.length < 1 or self.alphabet_size < 1:
            raise ValueError("size, length and alphabet_size must be positive")
        if self.length > MAX_LENGTH:
            # refused before ``generate`` draws a (size, length) code matrix
            raise CapacityError(
                f"string length {self.length} exceeds the supported maximum {MAX_LENGTH}"
            )
        if self.mode not in ("uniform", "clustered"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "clustered":
            if not 1 <= self.centers <= self.size:
                raise ValueError("centers must be in [1, size]")
            if not 0.0 <= self.mutation_rate <= 1.0:
                raise ValueError("mutation_rate must be in [0, 1]")


def _to_strings(codes: np.ndarray) -> list[str]:
    d, length = codes.shape
    text = (codes + ord("a")).astype(np.uint32).tobytes().decode("utf-32-le")
    return [text[i * length : (i + 1) * length] for i in range(d)]


def generate(cfg: GenConfig) -> Dictionary:
    """Draw a dictionary; identical configs give identical dictionaries."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.mode == "uniform":
        codes = rng.integers(0, cfg.alphabet_size, size=(cfg.size, cfg.length))
    else:
        centers = rng.integers(0, cfg.alphabet_size, size=(cfg.centers, cfg.length))
        assignment = rng.integers(0, cfg.centers, size=cfg.size)
        codes = centers[assignment]
        mutate = rng.random((cfg.size, cfg.length)) < cfg.mutation_rate
        replacements = rng.integers(0, cfg.alphabet_size, size=(cfg.size, cfg.length))
        codes = np.where(mutate, replacements, codes)
    return Dictionary(_to_strings(codes))


@dataclass
class QueryRecord:
    query_index: int
    algorithm: str
    mask_size: int | None
    time_us: float
    skipped: bool = False


@dataclass
class AlgorithmStats:
    avg_solution_size: float | None
    avg_relative_error: float | None
    mean_time_us: float | None
    completed: int


@dataclass
class ExperimentReport:
    schema: str
    threshold: int
    query_count: int
    seed: int
    records: list[QueryRecord] = field(default_factory=list)
    aggregates: dict[str, AlgorithmStats] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "threshold": self.threshold,
            "query_count": self.query_count,
            "seed": self.seed,
            "records": [
                {
                    "query_index": r.query_index,
                    "algorithm": r.algorithm,
                    "k": r.mask_size,
                    "time_us": r.time_us,
                    "skipped": r.skipped,
                }
                for r in self.records
            ],
            "aggregates": {
                name: {
                    "avg_ss": s.avg_solution_size,
                    "avg_re": s.avg_relative_error,
                    "mean_time_us": s.mean_time_us,
                    "completed": s.completed,
                }
                for name, s in self.aggregates.items()
            },
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["query_index", "algorithm", "k", "time_us", "skipped"])
            for r in self.records:
                writer.writerow(
                    [r.query_index, r.algorithm, r.mask_size, f"{r.time_us:.3f}", r.skipped]
                )


def run_experiment(
    dictionary: Dictionary,
    algorithms: list[str],
    z: int,
    query_count: int,
    seed: int = 0,
) -> ExperimentReport:
    """Sample dictionary records as queries and measure each algorithm.

    ``bf`` is the exact optimum (``solve_pmdm``), ``ba`` the baseline and
    ``grN`` the greedy with tau=N.  Every returned mask is re-verified
    against the linear-scan matcher; a verification failure aborts the
    run.  ``bf`` is marked skipped only where the exact engine gives up
    with CapacityError, which only the kept-set search above
    ``exact.TABLE_MAX_LENGTH`` does.
    """
    if query_count < 1:
        raise ValueError("query_count must be positive")
    for name in algorithms:
        if name != "bf" and name != "ba" and not (
            name.startswith("gr") and name[2:].isdigit() and int(name[2:]) >= 1
        ):
            raise ValueError(f"unknown algorithm {name!r}")
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, dictionary.size, size=query_count)
    report = ExperimentReport(REPORT_SCHEMA, z, query_count, seed)
    optimal: dict[int, int] = {}
    for qi, pick in enumerate(picks):
        inst = PmdmInstance(dictionary, dictionary[int(pick)], z)
        for name in algorithms:
            start = time.perf_counter_ns()
            skipped = False
            mask = None
            if name == "bf":
                try:
                    mask = solve_pmdm(inst)
                except CapacityError:
                    skipped = True
            elif name == "ba":
                mask = baseline_pmdm(inst).mask
            else:
                mask = greedy_pmdm(inst, GreedyConfig(tau=int(name[2:]))).mask
            elapsed_us = (time.perf_counter_ns() - start) / 1000.0
            if skipped:
                report.records.append(QueryRecord(qi, name, None, elapsed_us, True))
                continue
            if count_matches(dictionary, mask_apply(inst.query, mask)) < z:
                raise RuntimeError(
                    f"verification failed: {name} returned an infeasible mask "
                    f"for query {qi}"
                )
            if name == "bf":
                optimal[qi] = len(mask)
            report.records.append(QueryRecord(qi, name, len(mask), elapsed_us))
    for name in algorithms:
        rows = [r for r in report.records if r.algorithm == name]
        done = [r for r in rows if not r.skipped]
        avg_ss = sum(r.mask_size for r in done) / len(done) if done else None
        rel = [
            (r.mask_size - optimal[r.query_index]) / optimal[r.query_index]
            for r in done
            if r.query_index in optimal and optimal[r.query_index] >= 1
        ]
        avg_re = sum(rel) / len(rel) if rel else None
        mean_t = sum(r.time_us for r in done) / len(done) if done else None
        report.aggregates[name] = AlgorithmStats(avg_ss, avg_re, mean_t, len(done))
    return report
