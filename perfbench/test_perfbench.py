"""Smoke tests for the benchmark itself (not part of the package's suite).

    python3 -m pytest perfbench -q

Each workload runs at smoke size, traced and untraced; every metric that
BENCHMARK.json declares must be printed with its unit, and a wrong or
raising answer injected into pmdm must show up as a failed operation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import pmdm  # noqa: E402

import run  # noqa: E402
from oracle import Oracle  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(capsys, workload: str, trace: int) -> tuple[dict, dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace), "--smoke"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    report, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    assert report["failed_ratio"] == 0.0
    assert report["provenance"]["seed"] == 3
    assert report["provenance"]["params"] == WORKLOADS[workload](smoke=True).params
    if trace:
        assert result["metrics"]["trace.answers_per_s_traced"]["value"] > 0


def _wrong_exact(inst):
    return pmdm.MaskSet()  # never optimal on these instances unless z is met unmasked


def _wrong_greedy(inst, cfg=None):
    return pmdm.HeuristicResult(pmdm.MaskSet([1]), 1)


def _wrong_split(idx, q, z):
    return pmdm.MaskSet(range(1, idx.length + 1))  # reaches z, never optimal


def _raises(*args, **kwargs):
    raise RuntimeError("injected")


INJECTIONS = [
    ("exact-clustered", pmdm.exact, "solve_pmdm", _wrong_exact),
    ("index-small-alphabet", pmdm.heuristic, "greedy_pmdm", _wrong_greedy),
    ("index-small-alphabet", pmdm.index, "split_query", _wrong_split),
    ("exact-clustered", pmdm.exact, "solve_mpmdm", _raises),
    ("index-small-alphabet", pmdm.index, "save_index", _raises),
]


@pytest.mark.parametrize("workload,module,attr,fake", INJECTIONS)
def test_injected_wrong_answers_count_as_failed(capsys, monkeypatch, workload, module, attr, fake):
    monkeypatch.setattr(module, attr, fake)
    report, result = _run(capsys, workload, 0)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert report["failed_ratio"] == result["failed"] / result["attempted"]
    assert report["failures"]


def test_hanging_cli_counts_as_failed(capsys, monkeypatch):
    monkeypatch.setattr(run, "CLI_BOOT", "import time; time.sleep(30)")
    monkeypatch.setattr(run, "CLI_TIMEOUT_S", 0.5)
    monkeypatch.setattr(run, "CLI_RECORDS", 1)
    report, result = _run(capsys, "exact-clustered", 1)  # the traced run starts the CLI
    assert result["failed"] == len(report["failures"]) > 0
    assert all("TimeoutExpired" in failure for failure in report["failures"])


def test_oracle_table_matches_direct_counting():
    rng = np.random.default_rng(5)
    entries = ["".join(rng.choice(list("abc"), size=6)) for _ in range(40)]
    oracle = Oracle(entries)
    query = entries[0]
    masks = oracle.masks(query)
    table = oracle.table(masks)
    for bits in range(1 << 6):
        direct = sum(
            all(bits >> i & 1 or e[i] == query[i] for i in range(6)) for e in entries
        )
        assert table[bits] == direct == oracle.count(masks, bits)


def test_self_time_excludes_child_spans():
    fake = types.SimpleNamespace()

    def inner():
        sum(range(20000))

    def outer():
        fake.inner()
        fake.inner()

    fake.inner, fake.outer = inner, outer
    with Tracer() as tracer:
        tracer.wrap(fake, "inner", "inner")
        tracer.wrap(fake, "outer", "outer")
        fake.outer()
    assert fake.inner is inner and fake.outer is outer
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2
    assert summary["inner"]["parents"] == {"outer": 2}
    outer_row = summary["outer"]
    assert outer_row["self_ns"] == outer_row["incl_ns"] - summary["inner"]["incl_ns"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-clustered",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
