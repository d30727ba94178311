"""Command-line front end: solve/greedy/baseline/mask/count/index/reduce/bench.

Every result goes to stdout through ``_emit``, as JSON (``--format``
switches to csv or plain, where nested values are compact JSON cells);
diagnostics go to stderr.  Exit codes: 0 success, 1 infeasible threshold,
2 input/format error, 3 capacity guard or failed allocation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .bench import GenConfig, generate
from .core import (
    CapacityError,
    Dictionary,
    InfeasibleThresholdError,
    MaskSet,
    MaskedString,
    count_matches,
    mask_apply,
    _read_lines,
)
from .exact import MpmdmInstance, PmdmInstance, solve_mpmdm, solve_pmdm
from .exact import _best_in_table, _check_threshold
from .heuristic import GreedyConfig, baseline_pmdm, greedy_pmdm
from .hypergraph import build_hypergraph, dump_hypergraph
from .index import (
    SimpleIndex,
    SplitIndex,
    load_index,
    save_index,
    simple_build,
    simple_query,
    split_build,
    split_counts,
)
from .reductions import Graph, MuInstance, _is_integer, clique_to_pmdm, mu_to_pmdm, pmdm_to_mu


def _note(args, message: str) -> None:
    if getattr(args, "verbose", 0):
        print(message, file=sys.stderr)


def _emit(data: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(data))
    elif fmt == "csv":
        # quoted where a cell holds a comma, as nested values do
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(data)
        writer.writerow(_cell(value) for value in data.values())
    else:
        print(" ".join(f"{k}={_cell(data[k])}" for k in data))


def _cell(value) -> str:
    if isinstance(value, (list, dict)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _load_queries(args) -> list[str]:
    """The queries of ``--query``, ``--query-file`` and ``--multi``; more
    than one, which asks for a shared mask, only with ``--multi``."""
    queries: list[str] = []
    if args.query is not None:
        queries.append(args.query)
    for path in (args.query_file, args.multi):
        if path:
            queries.extend(line for line in _read_lines(path) if line)
    if not queries:
        raise ValueError("no query given; use --query or --query-file/--multi")
    if len(queries) > 1 and not args.multi:
        raise ValueError(
            f"{len(queries)} queries given; pass the query file with --multi "
            "for one mask shared by all of them"
        )
    return queries


def _answer(query: str, mask: MaskSet, matches: int, args) -> dict:
    """The record every single-query answer prints: k, positions, matches
    and the masked query, in that order."""
    return {
        "k": len(mask),
        "positions": list(mask.positions),
        "matches": matches,
        "masked": mask_apply(query, mask).render(args.wildcard),
    }


def _exact_answer(dictionary: Dictionary, query: str, args) -> dict:
    """``solve_pmdm``'s mask for one query, as ``pmdm solve`` prints it."""
    mask = solve_pmdm(PmdmInstance(dictionary, query, args.z))
    return _answer(query, mask, count_matches(dictionary, mask_apply(query, mask)), args)


def _cmd_solve(args) -> int:
    dictionary = Dictionary.from_file(args.dict, wildcard=args.wildcard)
    queries = _load_queries(args)
    _note(args, f"loaded {dictionary.size} strings of length {dictionary.length}; "
                f"{len(queries)} quer{'y' if len(queries) == 1 else 'ies'}")
    if args.dump_hypergraph:
        _emit(dump_hypergraph(build_hypergraph(dictionary, queries[0])), args.format)
        return 0
    if len(queries) == 1:
        _emit(_exact_answer(dictionary, queries[0], args), args.format)
        return 0
    inst = MpmdmInstance(dictionary, queries, args.z)
    mask = solve_mpmdm(inst)
    _emit(
        {
            "k": len(mask),
            "positions": list(mask.positions),
            "matches": [
                count_matches(dictionary, mask_apply(q, mask)) for q in queries
            ],
            "masked": [mask_apply(q, mask).render(args.wildcard) for q in queries],
        },
        args.format,
    )
    return 0


def _cmd_heuristic(args) -> int:
    dictionary = Dictionary.from_file(args.dict, wildcard=args.wildcard)
    _note(args, f"loaded {dictionary.size} strings of length {dictionary.length}")
    inst = PmdmInstance(dictionary, args.query, args.z)
    if args.command == "greedy":
        result = greedy_pmdm(inst, GreedyConfig(tau=args.tau))
    else:
        result = baseline_pmdm(inst)
    matches = count_matches(dictionary, mask_apply(args.query, result.mask))
    _emit(
        {**_answer(args.query, result.mask, matches, args), "iterations": result.iterations},
        args.format,
    )
    return 0


def _cmd_mask(args) -> int:
    positions = json.loads(args.positions)
    if not isinstance(positions, list) or not all(_is_integer(p) for p in positions):
        raise ValueError("--positions expects a JSON array of 1-based integer positions")
    masked = mask_apply(args.query, MaskSet(positions))
    _emit({"masked": masked.render(args.wildcard)}, args.format)
    return 0


def _cmd_count(args) -> int:
    dictionary = Dictionary.from_file(args.dict, wildcard=args.wildcard)
    masked = MaskedString.parse(args.masked, wildcard=args.wildcard)
    _emit({"matches": count_matches(dictionary, masked)}, args.format)
    return 0


def _cmd_index_build(args) -> int:
    dictionary = Dictionary.from_file(args.dict, wildcard=args.wildcard)
    if args.kind == "small":
        save_index(args.out, dictionary)
    elif args.kind == "simple":
        if args.k is None:
            raise ValueError("--k is required for kind=simple")
        save_index(args.out, simple_build(dictionary, args.k, args.z0))
    else:
        if args.tau is None:
            raise ValueError("--tau is required for kind=split")
        save_index(args.out, split_build(dictionary, args.tau, args.z0))
    _emit({"kind": args.kind, "out": str(args.out)}, args.format)
    return 0


def _cmd_index_query(args) -> int:
    obj = load_index(args.index)
    if isinstance(obj, Dictionary):
        _emit({"found": True, **_exact_answer(obj, args.query, args)}, args.format)
        return 0
    if isinstance(obj, SimpleIndex):
        found = simple_query(obj, args.query, args.z)
        if found is None:
            _emit({"found": False}, args.format)
            return 0
        mask, matches = found
    elif isinstance(obj, SplitIndex):
        _check_threshold(args.z, obj.size, obj.min_threshold)
        counts = split_counts(obj, args.query)
        mask = _best_in_table([counts], args.z, obj.length)
        matches = int(counts[mask.bits])
    else:
        raise ValueError("unsupported index payload")
    _emit({"found": True, **_answer(args.query, mask, matches, args)}, args.format)
    return 0


def _emit_reduction(inst: PmdmInstance, args) -> int:
    """Save a reduction's dictionary to ``--out-dict`` and print its record:
    query, z, d and out_dict, in that order."""
    inst.dictionary.save(args.out_dict)
    _emit(
        {
            "query": inst.query,
            "z": inst.threshold,
            "d": inst.dictionary.size,
            "out_dict": str(args.out_dict),
        },
        args.format,
    )
    return 0


def _cmd_reduce_clique(args) -> int:
    return _emit_reduction(clique_to_pmdm(Graph.from_file(args.graph), args.k), args)


def _cmd_reduce_to_mu(args) -> int:
    dictionary = Dictionary.from_file(args.dict, wildcard=args.wildcard)
    inst = PmdmInstance(dictionary, args.query, args.z)
    mu = pmdm_to_mu(inst)
    payload = {
        "universe": mu.universe_size,
        "sets": [sorted(s) for s in mu.sets],
        "z": mu.threshold,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        _emit({"out": str(args.out), "d": len(mu.sets)}, args.format)
    else:
        _emit(payload, args.format)
    return 0


def _check_mu_payload(payload) -> None:
    """Refuse JSON outside ``schemas/mu-instance.schema.json``; integral
    floats such as 1.0, which draft-07 counts as integers, are refused too."""
    if not isinstance(payload, dict) or not {"universe", "sets", "z"} <= payload.keys():
        raise ValueError("MU instance must be an object with universe, sets and z")
    if not _is_integer(payload["universe"]) or payload["universe"] < 0:
        raise ValueError("MU instance: universe must be an integer >= 0")
    sets = payload["sets"]
    if not isinstance(sets, list) or not all(
        isinstance(s, list) and all(_is_integer(e) and e >= 1 for e in s) for s in sets
    ):
        raise ValueError("MU instance: sets must be a list of lists of integers >= 1")
    if not _is_integer(payload["z"]) or payload["z"] < 1:
        raise ValueError("MU instance: z must be an integer >= 1")


def _cmd_reduce_from_mu(args) -> int:
    with open(args.mu, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    _check_mu_payload(payload)
    mu = MuInstance(payload["universe"], payload["sets"], payload["z"])
    return _emit_reduction(mu_to_pmdm(mu), args)


def _cmd_bench_gen(args) -> int:
    cfg = GenConfig(
        size=args.d,
        length=args.l,
        alphabet_size=args.sigma,
        seed=args.seed,
        mode=args.mode,
        centers=args.centers,
        mutation_rate=args.rho,
    )
    generate(cfg).save(args.out)
    _emit({"out": str(args.out), "d": args.d, "l": args.l}, args.format)
    return 0


def _glyph(text: str) -> str:
    """``--wildcard``'s type: one character, so a masked string keeps the
    query's length."""
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"expected one character, got {text!r}")
    return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--wildcard", default="?", type=_glyph, help="wildcard glyph for text I/O (one character)"
    )
    parser.add_argument(
        "--format", choices=("json", "csv", "plain"), default="json",
        help="output format (default json)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, help="diagnostics on stderr"
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmdm",
        description=(
            "Mask the fewest query positions so the masked query matches at "
            "least z dictionary strings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact minimum mask")
    p.add_argument("--dict", required=True)
    p.add_argument("--query")
    p.add_argument("--query-file", dest="query_file")
    p.add_argument("--multi", help="file of queries, one per line (multi-query mode)")
    p.add_argument("--z", type=int, required=True)
    p.add_argument(
        "--dump-hypergraph", action="store_true",
        help="print the mismatch hypergraph as JSON instead of solving",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    for name, help_text in (
        ("greedy", "greedy heuristic with per-iteration budget tau"),
        ("baseline", "one best-scored node at a time"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--dict", required=True)
        p.add_argument("--query", required=True)
        p.add_argument("--z", type=int, required=True)
        if name == "greedy":
            p.add_argument(
                "--tau", type=int, required=True,
                help="section sizes tried per iteration (1..tau); the exact section "
                "search grows steeply with tau: at l=30, d=2000 one answer took "
                "0.02 s at tau=3, 0.14 s at 6 and 1.6 s at 9. A section search of 4 or "
                "more positions that passes hypergraph.BRANCHING_VISIT_BUDGET or "
                "hypergraph.DENSE_BRUTE_CAP stops with exit code 3",
            )
        _add_common(p)
        p.set_defaults(func=_cmd_heuristic)

    p = sub.add_parser("mask", help="apply a mask to a query string")
    p.add_argument("--query", required=True)
    p.add_argument("--positions", required=True, help="JSON array of 1-based positions")
    _add_common(p)
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("count", help="count entries matching a masked string")
    p.add_argument("--dict", required=True)
    p.add_argument("--masked", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_count)

    p_index = sub.add_parser("index", help="build and query persisted indexes")
    index_sub = p_index.add_subparsers(dest="index_command", required=True)
    p = index_sub.add_parser("build")
    p.add_argument("--dict", required=True)
    p.add_argument("--kind", choices=("small", "simple", "split"), required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--z0", type=int, default=1)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_index_build)
    p = index_sub.add_parser("query")
    p.add_argument("--index", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--z", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_index_query)

    p_reduce = sub.add_parser("reduce", help="instance translations")
    reduce_sub = p_reduce.add_subparsers(dest="reduce_command", required=True)
    p = reduce_sub.add_parser("clique")
    p.add_argument("--graph", required=True, help="file: first line n, then 'u v' lines")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-dict", dest="out_dict", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_reduce_clique)
    p = reduce_sub.add_parser("to-mu")
    p.add_argument("--dict", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=_cmd_reduce_to_mu)
    p = reduce_sub.add_parser("from-mu")
    p.add_argument("--mu", required=True, help="MU instance JSON file")
    p.add_argument("--out-dict", dest="out_dict", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_reduce_from_mu)

    p_bench = sub.add_parser("bench", help="seeded synthetic dictionaries")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p = bench_sub.add_parser("gen")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("uniform", "clustered"), default="uniform")
    p.add_argument("--centers", type=int, default=1)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_bench_gen)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except InfeasibleThresholdError as exc:
        print(f"error: infeasible threshold: {exc}", file=sys.stderr)
        return 1
    except (CapacityError, MemoryError) as exc:
        # a failed allocation is a capacity limit too, met without a guard
        print(f"error: capacity guard: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
