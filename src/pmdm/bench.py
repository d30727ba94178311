"""Seeded synthetic dictionaries.

Uniform or clustered string collections (clustered: random centers
copied with per-position mutation, so nearby records exist and small
masks suffice).  ``pmdm bench gen`` writes one to a file, and the
benchmark under ``perfbench/`` draws its dictionaries here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAX_LENGTH, CapacityError, Dictionary


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
        # code c is written as chr(ord("a") + c), which must stay below the
        # surrogate range to be encodable
        symbols = 0xD800 - ord("a")
        if self.alphabet_size > symbols:
            raise ValueError(
                f"alphabet_size {self.alphabet_size} exceeds the {symbols} "
                "symbols from 'a' up to the surrogate range"
            )
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
    """Row i of the (d, l) symbol codes as a string, code c written as
    chr(ord("a") + c): each row of code points is one numpy string of l
    UTF-32 units (no code is 0, so none is cut as padding).  A Python
    slice per row took about 4 times as long at d = 1e4, l = 15."""
    length = codes.shape[1]
    return (codes + ord("a")).astype("<u4").view(f"<U{length}").ravel().tolist()


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
