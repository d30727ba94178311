import json
import random

import jsonschema
import numpy as np
import pytest

import pmdm.bench
import pmdm.exact
from pmdm import (
    CapacityError,
    Dictionary,
    GenConfig,
    InfeasibleThresholdError,
    PmdmInstance,
    generate,
    mismatch_set,
    run_experiment,
    solve_pmdm,
)
from pmdm.cli import main

from support import t1


def load_schema(name):
    import importlib.resources as resources

    with resources.files("pmdm.schemas").joinpath(name).open("r") as fh:
        return json.load(fh)


def test_generate_deterministic():
    cfg = GenConfig(size=5, length=4, alphabet_size=2, seed=7)
    assert generate(cfg) == generate(cfg)
    other = GenConfig(size=5, length=4, alphabet_size=2, seed=8)
    assert generate(other) != generate(cfg)


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
    d = _small_clustered()
    report = run_experiment(d, ["bf", "ba", "gr3"], z=6, query_count=12, seed=4)
    assert report.schema == "pmdm-report/1"
    # bf is solve_pmdm on the records the run samples as queries
    picks = np.random.default_rng(4).integers(0, d.size, size=12)
    assert [r.mask_size for r in report.records if r.algorithm == "bf"] == [
        len(solve_pmdm(PmdmInstance(d, d[int(p)], 6))) for p in picks
    ]
    bf = report.aggregates["bf"]
    assert bf.avg_relative_error in (0.0, None)
    for name in ("ba", "gr3"):
        stats = report.aggregates[name]
        assert stats.completed == 12
        assert stats.avg_solution_size >= bf.avg_solution_size
    # exactness regime: optima here are tiny, so greedy with budget 3 is exact
    assert report.aggregates["gr3"].avg_relative_error == 0.0


def test_run_experiment_deterministic_modulo_timing():
    d = _small_clustered()
    a = run_experiment(d, ["bf", "gr3"], z=6, query_count=8, seed=9)
    b = run_experiment(d, ["bf", "gr3"], z=6, query_count=8, seed=9)
    assert [(r.query_index, r.algorithm, r.mask_size, r.skipped) for r in a.records] == [
        (r.query_index, r.algorithm, r.mask_size, r.skipped) for r in b.records
    ]


def test_run_experiment_bf_budget_marks_skipped(monkeypatch):
    # above l = 20 the exact engine is the kept-set search, whose visit
    # budget is the only reason bf skips a query
    d = generate(
        GenConfig(
            size=300, length=24, alphabet_size=6, seed=21, mode="clustered",
            centers=8, mutation_rate=0.12,
        )
    )
    assert run_experiment(d, ["bf"], z=30, query_count=3, seed=2).aggregates["bf"].completed == 3
    monkeypatch.setattr(pmdm.exact, "KEPT_SET_VISIT_BUDGET", 5)
    report = run_experiment(d, ["bf", "gr3"], z=30, query_count=3, seed=2)
    bf_rows = [r for r in report.records if r.algorithm == "bf"]
    assert all(r.skipped and r.mask_size is None for r in bf_rows)
    assert report.aggregates["bf"].completed == 0
    assert report.aggregates["gr3"].completed == 3


def test_run_experiment_avg_ss_non_decreasing_in_z():
    d = _small_clustered()
    sizes_bf = []
    sizes_gr = []
    for z in (4, 30, 90):
        report = run_experiment(d, ["bf", "gr3"], z=z, query_count=10, seed=5)
        sizes_bf.append(report.aggregates["bf"].avg_solution_size)
        sizes_gr.append(report.aggregates["gr3"].avg_solution_size)
    assert sizes_bf == sorted(sizes_bf)
    assert sizes_gr == sorted(sizes_gr)


def test_run_experiment_infeasible_threshold():
    with pytest.raises(InfeasibleThresholdError):
        run_experiment(t1(), ["gr3"], z=9, query_count=2, seed=0)


def test_run_experiment_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        run_experiment(t1(), ["quantum"], z=1, query_count=1, seed=0)


def test_report_json_matches_schema(tmp_path):
    d = _small_clustered()
    report = run_experiment(d, ["bf", "ba", "gr3", "gr4"], z=6, query_count=5, seed=6)
    payload = json.loads(report.to_json())
    jsonschema.validate(payload, load_schema("report.schema.json"))
    csv_path = tmp_path / "report.csv"
    report.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "query_index,algorithm,k,time_us,skipped"
    assert len(lines) == 1 + len(report.records)


def test_generated_dictionary_round_trips_through_files(tmp_path):
    d = generate(GenConfig(size=12, length=5, alphabet_size=3, seed=2))
    path = tmp_path / "dict.txt"
    d.save(path)
    assert Dictionary.from_file(path) == d
