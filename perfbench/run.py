#!/usr/bin/env python3
"""pmdm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-clustered --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The load is a closed loop: one process, one client, one answer at a time,
no threads.  A run

1. sets up: generates the seeded dictionary, writes it and loads it with
   ``Dictionary.from_file`` (several times, and again in every pass; the
   median is ``setup_s``);
2. makes the workload's number of passes (4 or 16).  Each pass sets up
   again, builds, saves and loads the workload's index kinds once and
   answers fresh rounds for its share of ``--seconds``.  Untimed warm-up
   rounds come first (the first batch in a process is slower).  Rates and
   latency percentiles pool the answers of every pass; index timings are
   means over their samples and set-up timings medians.  With
   ``--trace 1`` the last pass answers each round of the first quarter of
   the passes twice more, untraced and traced back to back, for the
   per-layer metrics and the tracing overhead, and four of the passes
   also time cold ``pmdm`` processes one at a time;
3. checks every answer against the independent oracle, outside the timed
   region; exceptions and wrong answers count as failed, never abort.

Stdout gets a detailed report line (provenance, latency sample counts,
failures) and, last, the result object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer metrics
traced).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from oracle import Oracle
from tracing import Tracer, install
from workloads import WORKLOADS, Context

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Set-up samples taken before the first pass, and spread over the passes.
SETUP_REPS = 12
SETUP_PASS_SAMPLES = 48
CLI_RECORDS = 5
CLI_TIMEOUT_S = 60
CLI_BOOT = "import sys; from pmdm.cli import main; sys.exit(main())"
MAX_REPORTED_FAILURES = 10

END_TO_END = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "answer_p50_ms": "ms",
    "answer_tail_ms": "ms",
    "mask_size_mean": "positions",
    "index_build_s": "s",
    "index_load_s": "s",
    "index_bytes_ratio": "ratio",
}

#: Wrapped span names; each gives a per-layer ``_ms`` and ``_calls`` metric.
SPAN_LAYERS = (
    "core.mismatch_masks", "core.count_matches",
    "hypergraph.build", "hypergraph.section", "hypergraph.branching",
    "hypergraph.bruteforce", "hypergraph.k2", "hypergraph.k3",
    "exact.solve", "exact.multi", "exact.khv",
    "heuristic.greedy", "heuristic.baseline", "heuristic.preprocess",
)
INDEX_KINDS = ("small", "simple1", "simple2", "simple3", "split")

PER_LAYER = {"bench.generate_s": "s", "core.from_file_s": "s",
             "cli.start_s": "s", "cli.answer_s": "s"}
for _prefix in SPAN_LAYERS:
    PER_LAYER[_prefix + "_ms"] = "ms"
    PER_LAYER[_prefix + "_calls"] = "count"
PER_LAYER.update({
    "op.self_ms": "ms",
    "hypergraph.edges_mean": "count",
    "exact.k_steps": "count",
    "exact.khv_hit_ratio": "ratio",
    "heuristic.greedy_iterations": "count",
    "heuristic.baseline_iterations": "count",
    "heuristic.nodes_removed": "count",
    "index.small_ell_build_ms": "ms",
    "index.small_ell_query_ms": "ms",
    "index.simple.hit_ratio": "ratio",
    "trace.answers_per_s_untraced": "1/s",
    "trace.answers_per_s_traced": "1/s",
    "trace.overhead_ratio": "ratio",
})
for _kind in INDEX_KINDS:
    PER_LAYER.update({
        f"index.{_kind}.build_s": "s",
        f"index.{_kind}.save_s": "s",
        f"index.{_kind}.load_s": "s",
        f"index.{_kind}.bytes": "bytes",
        f"index.{_kind}.query_ms": "ms",
    })


def _now() -> float:
    return time.perf_counter()


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


# -- provenance -------------------------------------------------------------


def provenance(seed: int, workload, seconds: int, trace: int, smoke: bool) -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # a plain checkout without git metadata
    digest = hashlib.sha256()
    package = os.path.join(SRC, "pmdm")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload.name,
        "seed": seed,
        "params": workload.params,
        "passes": workload.passes,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
    }


# -- operations -------------------------------------------------------------


class Ledger:
    """Counts of attempted and failed operations, with the first failures."""

    def __init__(self):
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(what)

    def check(self, entries) -> list:
        """Judge answers; returns the mask sizes of those that passed."""
        sizes = []
        for op, result, error in entries:
            self.attempted += 1
            if error is not None:
                self.fail(f"{op.name}: raised {error}")
                continue
            try:
                problem, size = op.check(result)
            except Exception as exc:  # a malformed answer is a failed answer
                problem, size = f"check raised {type(exc).__name__}: {exc}", None
            if problem:
                self.fail(f"{op.name}: {problem}")
            elif size is not None:
                sizes.append(size)
        return sizes


def run_round(ops, tracer=None):
    """Answer one round; returns [(op, result, error)] and latencies in ns."""
    done, latencies = [], []
    for op in ops:
        span = None
        if tracer is not None:
            span = tracer.begin("op." + op.name)
        start = time.perf_counter_ns()
        try:
            result, error = op.call(), None
        except Exception as exc:  # counted as a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter_ns() - start)
        if span is not None:
            tracer.end(span)
        done.append((op, result, error))
    return done, latencies


def batch(workload, ctx, records, seconds=None):
    """Answer rounds over ``records`` in order: all of them, or whole rounds
    until ``seconds`` have passed; returns the entries, latencies and records
    used.  Round preparation is not timed."""
    entries, latencies, used = [], [], []
    deadline = None if seconds is None else _now() + seconds
    for record in records:
        done, lat = run_round(workload.round(ctx, record))
        entries.extend(done)
        latencies.extend(lat)
        used.append(record)
        if deadline is not None and _now() >= deadline:
            break
    return entries, latencies, used


def paired_pass(pmdm, workload, ctx, ledger, records, tracer):
    """Answer each round twice in a row, once untraced and once with spans
    recorded, alternating which goes first.

    Pairing the two answers of a round keeps a drift of the machine's speed
    out of the tracing overhead, and alternating keeps out the head start of
    a second answer.  Returns the untraced latencies, the traced latencies
    and the traced entries.
    """
    untraced, traced, entries = [], [], []
    for i, record in enumerate(records):
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                install(tracer, pmdm)
            try:
                done, latencies = run_round(workload.round(ctx, record),
                                            tracer if traced_turn else None)
            finally:
                tracer.restore()
            ledger.check(done)
            if traced_turn:
                traced.extend(latencies)
                entries.extend(done)
            else:
                untraced.extend(latencies)
    return untraced, traced, entries


def record_stream(rng, size: int):
    while True:
        for r in rng.integers(0, size, size=256):
            yield int(r)


# -- phases -----------------------------------------------------------------


def setup(pmdm, workload, seed: int, path: str, samples: dict, reps: int = SETUP_REPS):
    """Generate, write and load the dictionary ``reps`` times; the timings
    are appended to ``samples``.  Returns the loaded dictionary."""
    for _ in range(reps):
        t0 = _now()
        generated = pmdm.bench.generate(workload.gen_config(pmdm, seed))
        t1 = _now()
        generated.save(path)
        t2 = _now()
        dictionary = pmdm.core.Dictionary.from_file(path)
        t3 = _now()
        samples["setup_s"].append(t3 - t0)
        samples["generate_s"].append(t1 - t0)
        samples["from_file_s"].append(t3 - t2)
        if dictionary != generated:
            raise RuntimeError("the dictionary read back differs from the one written")
    return dictionary


def index_rep(pmdm, workload, ctx, ledger, timings: dict) -> None:
    """Build + save, then load, each index kind once; timings gather per kind.

    A kind whose build, save or load raises counts as a failed operation and
    is left out of ``ctx.indexes``, so its queries fail too.
    """
    for kind, build in workload.index_builders(pmdm, ctx.dictionary).items():
        path = os.path.join(ctx.work, kind + ".idx")
        ctx.indexes.pop(kind, None)
        ctx.index_paths.pop(kind, None)
        gc.collect()
        ledger.attempted += 1
        try:
            t0 = _now()
            built = build()
            t1 = _now()
            pmdm.index.save_index(path, built)
            t2 = _now()
            del built
            gc.collect()
            t3 = _now()
            loaded = pmdm.index.load_index(path)
            t4 = _now()
        except Exception as exc:  # counted as a failed operation
            ledger.fail(f"index {kind}: raised {type(exc).__name__}: {exc}")
            continue
        ctx.indexes[kind] = loaded
        ctx.index_paths[kind] = path
        row = timings.setdefault(kind, {"build_s": [], "save_s": [], "load_s": []})
        row["build_s"].append(t1 - t0)
        row["save_s"].append(t2 - t1)
        row["load_s"].append(t4 - t3)
        row["bytes"] = os.path.getsize(path)


def cli_samples(ctx, ledger, records, argv_for, times: list) -> None:
    """One cold ``pmdm`` process per record, one at a time; each output is
    checked and its wall time appended to ``times``.  A process
    that fails, hangs past ``CLI_TIMEOUT_S`` (it is killed and waited for)
    or prints a wrong answer counts as a failed operation."""
    env = dict(os.environ, PYTHONPATH=SRC)
    for record in records:
        ledger.attempted += 1
        label = "cli"
        try:
            argv, check = argv_for(ctx, record)
            label = f"cli {argv[0]}"
            t0 = _now()
            proc = subprocess.run(
                [sys.executable, "-c", CLI_BOOT, *argv], capture_output=True,
                text=True, env=env, timeout=CLI_TIMEOUT_S, cwd=ctx.work,
            )
            elapsed = _now() - t0
            if proc.returncode != 0:
                raise ValueError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            problem, _ = check(json.loads(proc.stdout.strip().splitlines()[-1]))
        except Exception as exc:  # a raising, hanging or malformed CLI is a failure
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            ledger.fail(f"{label}: {problem}")
        else:
            times.append(elapsed)


def rate(latencies_ns) -> float:
    """Answers per second over the time spent answering them."""
    return len(latencies_ns) / (sum(latencies_ns) / 1e9)


def _mask_cli(ctx, record):
    query = ctx.dictionary[record]

    def check(out):
        expected = "?" + query[1:]
        return (None if out.get("masked") == expected else f"masked {out.get('masked')!r}"), None
    return ["mask", "--query", query, "--positions", "[1]"], check


def latency_summary(latencies_ns, percentile: float) -> dict:
    ordered = sorted(latencies_ns)
    n = len(ordered)
    rank = max(1, math.ceil(percentile / 100.0 * n))
    return {
        "samples": n,
        "p50_ms": statistics.median(ordered) / 1e6,
        "tail_percentile": percentile,
        "tail_ms": ordered[rank - 1] / 1e6,
        "samples_beyond_tail": n - rank,
    }


def layer_metrics(summary: dict, answers: int, ledger_entries) -> dict:
    empty = {"calls": 0, "incl_ns": 0, "self_ns": 0, "payloads": [], "parents": {}}

    def row(name):
        return summary.get(name, empty)

    out = {}
    for span in SPAN_LAYERS:
        out[span + "_ms"] = row(span)["self_ns"] / 1e6 / answers
        out[span + "_calls"] = row(span)["calls"] / answers
    op_self = sum(r["self_ns"] for name, r in summary.items() if name.startswith("op."))
    out["op.self_ms"] = op_self / 1e6 / answers
    out["hypergraph.edges_mean"] = _mean(row("hypergraph.build")["payloads"])
    solves = row("exact.solve")["calls"]
    out["exact.k_steps"] = (
        row("hypergraph.section")["parents"].get("exact.solve", 0) / solves if solves else 0.0
    )
    khv = row("exact.khv")
    out["exact.khv_hit_ratio"] = len(khv["payloads"]) / khv["calls"] if khv["calls"] else 0.0
    out["heuristic.greedy_iterations"] = _mean(row("heuristic.greedy")["payloads"])
    out["heuristic.baseline_iterations"] = _mean(row("heuristic.baseline")["payloads"])
    out["heuristic.nodes_removed"] = _mean(row("heuristic.preprocess")["payloads"])
    for name in ("small_ell_build", "small_ell_query"):
        r = row("index." + name)
        out[f"index.{name}_ms"] = r["incl_ns"] / 1e6 / r["calls"] if r["calls"] else 0.0
    for kind in INDEX_KINDS:
        ops = [r for name, r in summary.items() if name.startswith(f"op.{kind}.")]
        calls = sum(r["calls"] for r in ops)
        out[f"index.{kind}.query_ms"] = (
            sum(r["incl_ns"] for r in ops) / 1e6 / calls if calls else 0.0
        )
    simple = [res for op, res, err in ledger_entries
              if op.name.startswith("simple") and err is None]
    out["index.simple.hit_ratio"] = (
        sum(res is not None for res in simple) / len(simple) if simple else 0.0
    )
    return out


# -- the run ----------------------------------------------------------------


def run(pmdm, workload, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """One benchmark run; returns (detailed report, result object)."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=workload.name + "-", dir=WORK_ROOT)
    try:
        report = {"report": "pmdm-perfbench/1",
                  "provenance": provenance(seed, workload, seconds, int(trace), smoke)}
        ledger = Ledger()
        dict_path = os.path.join(work, "dictionary.txt")
        setup_samples = {"setup_s": [], "generate_s": [], "from_file_s": []}
        dictionary = setup(pmdm, workload, seed, dict_path, setup_samples)
        ctx = Context(pmdm, dictionary, Oracle(dictionary.entries), dict_path, work)
        rng = np.random.default_rng([seed, 1])
        records = record_stream(rng, dictionary.size)
        cli_records = [int(r) for r in rng.integers(0, dictionary.size, size=CLI_RECORDS)]
        warm = [next(records) for _ in range(workload.warmup_rounds)]

        # Each pass samples set-up and the index write/read path and answers
        # fresh rounds for its share of the time, so every timing has samples
        # spread over the whole run; figures are medians, means or totals
        # over all of them.  With --trace 1 the last pass answers the rounds
        # of the first quarter of the passes again, untraced and traced in
        # turn, and four passes also time cold CLI processes.
        passes_n = workload.passes
        quarter = passes_n // 4
        index_times, passes, sizes, first = {}, [], [], []
        answering = 0.0  # so far; a pass that overruns its share shortens the next
        cli_times = {"cli.answer_s": [], "cli.start_s": []}
        for p in range(passes_n):
            setup(pmdm, workload, seed, dict_path, setup_samples,
                  SETUP_PASS_SAMPLES // passes_n)
            index_rep(pmdm, workload, ctx, ledger, index_times)
            gc.collect()
            if p == 0:
                ledger.check(batch(workload, ctx, warm)[0])
                gc.collect()
            if trace and p == passes_n - 1:
                tracer = Tracer()
                untraced, latencies, entries = paired_pass(pmdm, workload, ctx, ledger,
                                                           first, tracer)
            else:
                t0 = _now()
                entries, latencies, used = batch(workload, ctx, records,
                                                 (p + 1) * seconds / passes_n - answering)
                answering += _now() - t0
                sizes.extend(ledger.check(entries))
                if p < quarter:
                    first.extend(used)
            passes.append(latencies)
            if trace and p % quarter == 0:
                cli_samples(ctx, ledger, cli_records, workload.cli_argv,
                            cli_times["cli.answer_s"])
                cli_samples(ctx, ledger, cli_records, _mask_cli, cli_times["cli.start_s"])
        per_kind = {
            kind: {"build_s": statistics.mean(row["build_s"]),
                   "save_s": statistics.mean(row["save_s"]),
                   "load_s": statistics.mean(row["load_s"]), "bytes": row["bytes"]}
            for kind, row in index_times.items()
        }
        cli_s = {name: statistics.median(t) if t else 0.0 for name, t in cli_times.items()}
        setup_times = {name: statistics.median(v) for name, v in setup_samples.items()}
        report.update(setup=setup_times, index=index_times,
                      answers_per_pass=[len(l) for l in passes], cli_s=cli_s)

        if not trace:
            pooled = [t for latencies in passes for t in latencies]
            lat = latency_summary(pooled, workload.tail_percentile)
            dict_bytes = os.path.getsize(dict_path)
            values = {
                "setup_s": setup_times["setup_s"],
                "answers_per_s": rate(pooled),
                "answer_p50_ms": lat["p50_ms"],
                "answer_tail_ms": lat["tail_ms"],
                "mask_size_mean": _mean(sizes),
                "index_build_s": sum(k["build_s"] + k["save_s"] for k in per_kind.values()),
                "index_load_s": sum(k["load_s"] for k in per_kind.values()),
                "index_bytes_ratio": sum(k["bytes"] for k in per_kind.values()) / dict_bytes,
            }
            report["latency"] = lat
            report["answers_per_s_by_pass"] = [rate(l) for l in passes]
            units = END_TO_END
        else:
            summary = tracer.summary()
            values = layer_metrics(summary, len(latencies), entries)
            untraced_rate, traced_rate = rate(untraced), rate(latencies)
            values.update({
                "bench.generate_s": setup_times["generate_s"],
                "core.from_file_s": setup_times["from_file_s"],
                "cli.start_s": cli_s["cli.start_s"],
                "cli.answer_s": cli_s["cli.answer_s"],
                "trace.answers_per_s_untraced": untraced_rate,
                "trace.answers_per_s_traced": traced_rate,
                "trace.overhead_ratio": untraced_rate / traced_rate - 1.0,
            })
            for kind in INDEX_KINDS:
                for key in ("build_s", "save_s", "load_s", "bytes"):
                    values[f"index.{kind}.{key}"] = per_kind.get(kind, {}).get(key, 0)
            report["spans"] = len(tracer.spans)
            report["layers_self_ms"] = {
                name: r["self_ns"] / 1e6 for name, r in sorted(summary.items())
            }
            units = PER_LAYER

        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["failed_ratio"] = ledger.failed / ledger.attempted
        report["failures"] = ledger.failures
        result = {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {
                name: {"value": float(values[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
        return report, result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it, or it holds something else


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny dictionaries, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pmdm", "__init__.py")):
        print(f"error: no pmdm sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import pmdm  # the checkout's own sources, found only after the check above

    report, result = run(pmdm, WORKLOADS[args.workload](args.smoke), args.seed,
                         args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
