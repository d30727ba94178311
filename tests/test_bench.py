import random

import numpy as np
import pytest

import pmdm.bench
from pmdm import (
    CapacityError,
    Dictionary,
    GenConfig,
    GreedyConfig,
    InfeasibleThresholdError,
    PmdmInstance,
    baseline_pmdm,
    generate,
    greedy_pmdm,
    mismatch_set,
    solve_pmdm,
)
from pmdm.cli import main

from support import oracle_count, reference_to_strings, t1


def test_generate_deterministic():
    cfg = GenConfig(size=5, length=4, alphabet_size=2, seed=7)
    assert generate(cfg) == generate(cfg)
    other = GenConfig(size=5, length=4, alphabet_size=2, seed=8)
    assert generate(other) != generate(cfg)


@pytest.mark.parametrize("mode", ["uniform", "clustered"])
@pytest.mark.parametrize("length", [1, 15, 64])
@pytest.mark.parametrize("sigma", [1, 10, 0xD800 - ord("a")])
def test_generated_strings_match_the_slicing_loop(monkeypatch, mode, length, sigma):
    """The same draws written as strings by the reference loop give the
    same dictionary, up to the last symbol below the surrogate range."""
    cfg = GenConfig(size=300, length=length, alphabet_size=sigma, seed=length + sigma,
                    mode=mode, centers=7, mutation_rate=0.3)
    fast = generate(cfg)
    monkeypatch.setattr(pmdm.bench, "_to_strings", reference_to_strings)
    assert generate(cfg).entries == fast.entries
    if sigma > 10:
        assert max(max(entry) for entry in fast) > chr(0x8000)


def test_generate_shapes_and_alphabet():
    cfg = GenConfig(size=30, length=6, alphabet_size=3, seed=1)
    d = generate(cfg)
    assert d.size == 30 and d.length == 6
    assert d.alphabet() <= set("abc")


def test_clustered_zero_mutation_copies_centers():
    cfg = GenConfig(
        size=40, length=5, alphabet_size=4, seed=3, mode="clustered",
        centers=3, mutation_rate=0.0,
    )
    d = generate(cfg)
    assert len(set(d.entries)) <= 3


def test_clustered_full_mutation_mismatch_fraction():
    sigma = 20
    cfg = GenConfig(
        size=400, length=30, alphabet_size=sigma, seed=11, mode="clustered",
        centers=2, mutation_rate=1.0,
    )
    d = generate(cfg)
    rng = random.Random(0)
    fractions = []
    for _ in range(300):
        a, b = rng.sample(range(d.size), 2)
        fractions.append(len(mismatch_set(d[a], d[b])) / d.length)
    observed = sum(fractions) / len(fractions)
    assert abs(observed - (1 - 1 / sigma)) < 0.05


def test_generate_validation():
    with pytest.raises(ValueError):
        GenConfig(size=0, length=4, alphabet_size=2)
    with pytest.raises(ValueError):
        GenConfig(size=5, length=4, alphabet_size=2, mode="weird")
    with pytest.raises(ValueError):
        GenConfig(size=5, length=4, alphabet_size=2, mode="clustered", centers=9)
    with pytest.raises(ValueError):
        GenConfig(
            size=5, length=4, alphabet_size=2, mode="clustered", centers=2,
            mutation_rate=1.5,
        )
    # codes are written from 'a' up; one more code would fall in the
    # surrogate range, which has no UTF-8 encoding
    GenConfig(size=5, length=4, alphabet_size=0xD800 - ord("a"))
    assert pmdm.bench._to_strings(np.array([[0, 0xD800 - ord("a") - 1]])) == ["a\ud7ff"]
    for sigma in (0xD800 - ord("a") + 1, 60_000, 2_000_000):
        with pytest.raises(ValueError, match="surrogate"):
            GenConfig(size=5, length=4, alphabet_size=sigma)


def test_generate_refuses_a_length_above_the_maximum_before_drawing(monkeypatch, tmp_path, capsys):
    draws = []
    monkeypatch.setattr(pmdm.bench.np.random, "default_rng", lambda *args: draws.append(args))
    with pytest.raises(CapacityError, match="length 65"):
        generate(GenConfig(size=10**9, length=65, alphabet_size=2))
    out = tmp_path / "syn.txt"
    argv = ["bench", "gen", "--d", "1000000000", "--l", "65", "--sigma", "2", "--out", str(out)]
    assert main(argv) == 3
    assert draws == [] and not out.exists() and capsys.readouterr().out == ""


def _small_clustered():
    return generate(
        GenConfig(
            size=300, length=9, alphabet_size=6, seed=21, mode="clustered",
            centers=8, mutation_rate=0.12,
        )
    )


def test_run_experiment_basic_invariants():
    # on small optima the greedy with budget 3 is exact, and neither
    # heuristic returns an infeasible mask or beats the optimum
    d = _small_clustered()
    for pick in np.random.default_rng(4).integers(0, d.size, size=12):
        inst = PmdmInstance(d, d[int(pick)], 6)
        optimum = len(solve_pmdm(inst))
        greedy = greedy_pmdm(inst, GreedyConfig(tau=3)).mask
        baseline = baseline_pmdm(inst).mask
        for mask in (greedy, baseline):
            assert oracle_count(d, inst.query, mask.bits) >= 6
        assert len(greedy) == optimum <= len(baseline)


def test_run_experiment_avg_ss_non_decreasing_in_z():
    # a larger threshold never lets the optimum, or the greedy, mask fewer
    # positions on average over the same records
    d = _small_clustered()
    picks = np.random.default_rng(5).integers(0, d.size, size=10)
    sizes_bf = []
    sizes_gr = []
    for z in (4, 30, 90):
        optimal = []
        greedy = []
        for pick in picks:
            inst = PmdmInstance(d, d[int(pick)], z)
            for mask, sizes in (
                (solve_pmdm(inst), optimal),
                (greedy_pmdm(inst, GreedyConfig(tau=3)).mask, greedy),
            ):
                assert oracle_count(d, inst.query, mask.bits) >= z
                sizes.append(len(mask))
        sizes_bf.append(sum(optimal) / len(optimal))
        sizes_gr.append(sum(greedy) / len(greedy))
    assert sizes_bf == sorted(sizes_bf)
    assert sizes_gr == sorted(sizes_gr)


def test_run_experiment_infeasible_threshold():
    with pytest.raises(InfeasibleThresholdError):
        greedy_pmdm(PmdmInstance(t1(), "abab", 9), GreedyConfig(tau=3))


def test_generated_dictionary_round_trips_through_files(tmp_path):
    d = generate(GenConfig(size=12, length=5, alphabet_size=3, seed=2))
    path = tmp_path / "dict.txt"
    d.save(path)
    assert Dictionary.from_file(path) == d
