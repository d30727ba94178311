"""The benchmark's tracer (``perfbench/tracing.py``) wraps pmdm functions
by their module attribute names, so removing or renaming one of them
breaks the benchmark.  This test installs the tracer to fail here first."""

import importlib.util
from pathlib import Path

import pmdm
from pmdm import GreedyConfig, MpmdmInstance, PmdmInstance

from support import t1

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_pmdm_and_restores():
    tracing = load_tracing()
    modules = (pmdm.core, pmdm.hypergraph, pmdm.exact, pmdm.heuristic, pmdm.index)
    before = [dict(vars(m)) for m in modules]
    with tracing.Tracer() as tracer:
        tracing.install(tracer, pmdm)
        # one greedy iteration tries sections of size 3, 2 and 1
        pmdm.heuristic.greedy_pmdm(PmdmInstance(t1(), "abab", 5), GreedyConfig(tau=3))
        pmdm.exact.solve_mpmdm(MpmdmInstance(t1(), ["abab", "bbbb"], 3))
        pmdm.index.small_ell_query(pmdm.index.small_ell_build(t1(), "abab"), 4)
        summary = tracer.summary()
    for name in (
        "heuristic.greedy", "hypergraph.section", "hypergraph.k2", "hypergraph.k3",
        "exact.multi", "index.small_ell_build", "index.small_ell_query",
    ):
        assert summary[name]["calls"] >= 1, name
    assert [dict(vars(m)) for m in modules] == before
