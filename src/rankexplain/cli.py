"""Command-line surface: index, rank, explain KIND, eval MEASURE.

Each command declares exactly the flags its handler reads. Parameters
come from a JSON file plus flat ``--key value`` overrides: the flags
``rank`` and ``explain`` do not declare. Both are one flat namespace
over the fields of the parameter dataclasses (``RankerParams``,
``PointwiseParams`` with its ``SamplerConfig``, ``ListwiseParams``); a
key no field defines, or a value of the wrong type, is a usage error.
Every randomized command takes ``--seed``, the only source of the seed,
so repeated runs with the same inputs and seed produce byte-identical
output. Exit codes: 0 success, 1 I/O or parse failure, 2 usage error, 3
requested data not found.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .analysis import _unique_keys
from .axioms import (
    AGGREGATION_MODES,
    AXIOM_NAMES,
    DETAILED_AXIOMS,
    AggregatedAxiom,
    aggregate_preference,
    axiom_preference,
    explain_details,
    render_details,
)
from .datasets import demo_corpus_path, demo_topics_path
from .evaluation import RBO_P_DOMAIN, jaccard_at_k, kendall_tau, rbo, spearman_rho
from .index import PositionalIndex, UnknownDocumentError, _check_in, build_index, left_sum, read_corpus_jsonl
from .listwise import ListwiseParams, explain_all, explain_listwise
from .pointwise import PointwiseParams, exs_explain, lirme_explain, visualize_terms
from .rankers import (
    DEPTH_DOMAIN,
    Query,
    RankerParams,
    SIMPLE_RANKERS,
    load_from_res,
    load_topics,
    make_ranker,
    rank,
    save_to_res,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NOT_FOUND = 3


class UsageError(Exception):
    pass


class DataNotFoundError(Exception):
    pass


def _emit(text: str, out_path: str | None) -> None:
    if text and not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _overrides_from_extras(extras: list[str]) -> dict:
    """Interpret leftover arguments as flat --key value overrides."""
    overrides: dict[str, object] = {}
    i = 0
    while i < len(extras):
        key = extras[i]
        if not key.startswith("--") or i + 1 >= len(extras):
            raise UsageError(f"expected --key value override pairs, got {' '.join(extras[i:])}")
        raw = extras[i + 1]
        try:
            value: object = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[key[2:].replace("-", "_")] = value
        i += 2
    return overrides


def _coerce(key: str, value, default):
    """Check ``value`` against the type of the field's default and convert it."""
    kind = type(default)
    if kind is float and type(value) is int:
        value = float(value)
    if kind is tuple and type(value) is list and all(type(v) is str for v in value):
        value = tuple(value)
    if type(value) is kind:
        return value
    expected = {float: "a number", tuple: "a JSON list of strings"}.get(kind, kind.__name__)
    raise UsageError(f"parameter {key!r} expects {expected}, got {json.dumps(value)}")


def params_from_dict(cls, data: dict, fixed: dict):
    """Build the dataclass ``cls`` from the flat keys of ``data``.

    A leaf field takes ``data[name]`` when present, checked against the
    type of its default, and keeps its default otherwise. A field whose
    default is itself a dataclass is built from the same namespace.
    Fields named in ``fixed`` come from command-line flags and are never
    read from ``data``. Used keys are popped, so what remains is unknown.
    """
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in fixed:
            kwargs[f.name] = fixed[f.name]
        elif dataclasses.is_dataclass(f.default):
            kwargs[f.name] = params_from_dict(type(f.default), data, fixed)
        elif f.name in data:
            kwargs[f.name] = _coerce(f.name, data.pop(f.name), f.default)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def param_keys(cls, fixed) -> list[str]:
    """The flat keys ``params_from_dict`` reads for ``cls``."""
    keys = []
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default):
            keys += param_keys(type(f.default), fixed)
        elif f.name not in fixed:
            keys.append(f.name)
    return keys


def _build_params(args, extras: list[str], classes: tuple, extra: dict | None = None) -> list:
    """Build each of ``classes`` from --params plus the --key value overrides.

    The classes share one flat namespace. ``extra`` maps further keys the
    command reads itself to their defaults; their checked values follow
    the built objects. Seed and method come only from their flags, where
    the command has them; when a flag is absent the field keeps its
    default. Any other key is a usage error.
    """
    data: dict = {}
    if args.params:
        with open(args.params, encoding="utf-8") as f:
            data = json.load(f, object_pairs_hook=_unique_keys)
        if not isinstance(data, dict):
            raise UsageError(f"{args.params}: the params file must hold a JSON object")
    data.update(_overrides_from_extras(extras))
    flags = {key: getattr(args, key) for key in ("seed", "method") if hasattr(args, key)}
    clash = sorted(data.keys() & flags.keys())
    if clash:
        raise UsageError(f"set {clash[0]} with the --{clash[0]} flag, not as a parameter")
    extra = extra or {}
    fixed = {key: value for key, value in flags.items() if value is not None}
    built = [params_from_dict(cls, data, fixed) for cls in classes]
    built += [_coerce(key, data.pop(key, default), default) for key, default in extra.items()]
    if data:
        command = f"{args.command} {getattr(args, 'kind', '')}".strip()
        valid = sorted({key for cls in classes for key in param_keys(cls, flags)} | set(extra))
        raise UsageError(f"unknown parameter {', '.join(map(repr, sorted(data)))} for {command}; "
                         f"valid: {', '.join(valid) or 'none'}")
    return built


def _topics(args) -> dict | None:
    """The --topics file, read once per command; None without one."""
    if args.topics is None:
        return None
    return load_topics(demo_topics_path() if args.topics == "demo" else args.topics)


def _query_for(args, index: PositionalIndex, topics: dict | None) -> Query:
    """The query given as --query TEXT, or as --qid looked up in --topics."""
    if args.query:
        return Query.from_text(index, args.qid or "q", args.query)
    if topics is None or not args.qid:
        raise UsageError("provide --query TEXT, or --topics FILE with --qid")
    if args.qid not in topics:
        raise DataNotFoundError(f"qid {args.qid!r} not in topics {args.topics}")
    return Query.from_text(index, args.qid, topics[args.qid])


# -- subcommands -------------------------------------------------------------


def cmd_index(args, extras) -> int:
    corpus_path = demo_corpus_path() if args.corpus == "demo" else args.corpus
    corpus = read_corpus_jsonl(corpus_path)
    if not corpus:
        raise ValueError(f"{corpus_path}: corpus is empty")
    index = build_index(corpus)
    index.save(args.out)
    print(f"{index.n_docs} docs, {len(index.vocabulary)} terms")
    return EXIT_OK


def _check_arg(name: str, value, interval: str) -> None:
    """``_check_in`` for a value the command reads itself; outside, a usage error."""
    try:
        _check_in(name, value, interval)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_rank(args, extras) -> int:
    _check_arg("depth", args.depth, DEPTH_DOMAIN)
    ranker_params, = _build_params(args, extras, (RankerParams,))
    topics = _topics(args)
    index = PositionalIndex.load(args.index)
    ranker = make_ranker(index, args.model, ranker_params)
    runs = {}
    for qid in sorted(topics):
        query = Query.from_text(index, qid, topics[qid])
        runs[qid] = rank(index, ranker, query, depth=args.depth)
    save_to_res(runs, args.out)
    print(f"wrote {sum(len(r) for r in runs.values())} entries for {len(runs)} queries")
    return EXIT_OK


def cmd_explain_pointwise(args, extras) -> int:
    if args.method not in ("lirme", "exs"):
        raise UsageError(f"unknown pointwise method {args.method!r}; valid: lirme, exs")
    pw, ranker_params = _build_params(args, extras, (PointwiseParams, RankerParams))
    topics = _topics(args)
    index = PositionalIndex.load(args.index)
    query = _query_for(args, index, topics)
    ranker = make_ranker(index, args.model, ranker_params)
    if args.method == "lirme":
        expl = lirme_explain(index, ranker, query, args.docid, pw)
    else:
        base_list = rank(index, ranker, query, depth=max(pw.exs_k, 10))
        if len(base_list) < pw.exs_k:
            raise DataNotFoundError(
                f"only {len(base_list)} documents match the query; exs needs exs_k={pw.exs_k}")
        expl = exs_explain(index, ranker, query, args.docid, pw, base_list)
    _emit(visualize_terms(expl, fmt=args.format), args.out)
    return EXIT_OK


def cmd_explain_pairwise(args, extras) -> int:
    _build_params(args, extras, ())
    try:
        d1, d2 = [d.strip() for d in args.docs.split(",")]
    except ValueError as exc:
        raise UsageError("--docs expects two comma-separated docids") from exc
    names = [a.strip() for a in args.axioms.split(",") if a.strip()]
    for name in names:
        if name not in AXIOM_NAMES:
            raise UsageError(f"unknown axiom {name!r}; valid: {', '.join(AXIOM_NAMES)}")
        if args.details and name not in DETAILED_AXIOMS:
            raise UsageError(f"axiom {name!r} has no detailed view; valid: {', '.join(DETAILED_AXIOMS)}")
    if not names or len(set(names)) < len(names):
        raise UsageError(f"--axioms takes one or more distinct axiom names, got {args.axioms!r}")
    if args.weights and args.aggregate != "weighted_sum_sign":
        raise UsageError("--weights needs --aggregate weighted_sum_sign")
    if args.format == "text" and not args.details:
        raise UsageError("--format text needs --details; preferences are JSON")
    if args.aggregate:
        try:
            weights = [float(w) for w in args.weights.split(",")] if args.weights else [1.0] * len(names)
            if len(weights) != len(names):
                raise ValueError("--weights must match --axioms in length")
            agg = AggregatedAxiom(children=tuple(zip(names, weights)), mode=args.aggregate)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    topics = _topics(args)
    index = PositionalIndex.load(args.index)
    query = _query_for(args, index, topics)
    if args.details:
        blocks = []
        for name in names:
            table = explain_details(name, index, query, d1, d2)
            blocks.append(render_details(table, fmt=args.format))
        _emit("\n\n".join(blocks) if args.format == "text" else "\n".join(blocks), args.out)
        return EXIT_OK
    prefs = {name: axiom_preference(name, index, query, d1, d2) for name in names}
    payload = {"qid": query.qid, "d1": d1, "d2": d2, "preferences": prefs}
    if args.aggregate:
        payload["aggregate"] = aggregate_preference(agg, index, query, d1, d2)
    _emit(json.dumps(payload, separators=(",", ":")), args.out)
    return EXIT_OK


def cmd_explain_listwise(args, extras) -> int:
    if args.run:
        lw, = _build_params(args, extras, (ListwiseParams,))
    else:  # the lists are ranked here, so their depth is a key too
        lw, depth = _build_params(args, extras, (ListwiseParams,), {"depth": 10})
        _check_arg("depth", depth, DEPTH_DOMAIN)
    if args.all and (args.topics is None or args.qid):
        raise UsageError("--all explains every topic: it takes --topics and no --qid")
    if not (args.all or args.qid):
        raise UsageError("provide --qid, or --all with --topics")
    topics = _topics(args)
    index = PositionalIndex.load(args.index)
    if args.all:
        queries = [Query.from_text(index, qid, topics[qid]) for qid in sorted(topics)]
    else:
        queries = [_query_for(args, index, topics)]
    if args.run:
        runs = load_from_res(args.run)
        missing = [query.qid for query in queries if query.qid not in runs]
        if missing:
            raise DataNotFoundError(f"qid{'s' * (len(missing) > 1)} {', '.join(map(repr, missing))} "
                                    f"not in run {args.run}")
    else:
        ranker = make_ranker(index, args.model or "bm25", lw.ranker_params)
        runs = {query.qid: rank(index, ranker, query, depth=depth) for query in queries}
    if args.all:
        batch = explain_all(index, topics, runs, lw)
        records = [batch.explanations[qid].as_dict() if qid in batch.explanations
                   else {"qid": qid, "error": batch.errors[qid]} for qid in sorted(topics)]
        _emit("\n".join(json.dumps(record, separators=(",", ":")) for record in records), args.out)
        return EXIT_OK
    query, = queries
    if len(runs[query.qid]) < 2:
        raise DataNotFoundError(f"fewer than 2 ranked documents for qid {query.qid!r}")
    expl = explain_listwise(index, query, runs[query.qid], lw)
    _emit(json.dumps(expl.as_dict(), separators=(",", ":")), args.out)
    return EXIT_OK


_MEASURES = {"rbo": rbo, "tau": kendall_tau, "rho": spearman_rho, "jaccard": jaccard_at_k}


def cmd_eval(args, extras) -> int:
    # The measure's parser declares its one parameter flag, if it has one.
    domains = {"p": RBO_P_DOMAIN, "k": DEPTH_DOMAIN}
    params = {key: value for key, value in vars(args).items() if key in domains}
    for key, value in params.items():
        _check_arg(key, value, domains[key])
    runs_a = load_from_res(args.run_a)
    runs_b = load_from_res(args.run_b)
    shared = sorted(set(runs_a) & set(runs_b))
    if not shared:
        raise DataNotFoundError("no shared qids between the two runs")
    measure = _MEASURES[args.measure]
    rows = [(qid, measure(runs_a[qid].docids, runs_b[qid].docids, *params.values())) for qid in shared]
    rows.append(("mean", left_sum(value for _, value in rows) / len(rows)))
    _emit("\n".join(json.dumps({"qid": qid, "measure": args.measure, "value": value, "params": params},
                               separators=(",", ":")) for qid, value in rows), args.out)
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankexplain",
        description="Explain rankings: build an index, rank, run pointwise/pairwise/listwise explainers, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", allow_abbrev=False, help="build an index from a JSONL corpus")
    p_index.add_argument("--corpus", required=True, help='corpus JSONL path, or "demo"')
    p_index.add_argument("--out", required=True, help="output index file")
    p_index.set_defaults(func=cmd_index)

    p_rank = sub.add_parser("rank", allow_abbrev=False, help="rank topics and write a TREC run file")
    p_rank.add_argument("--index", required=True)
    p_rank.add_argument("--topics", required=True, help='topics TSV path, or "demo"')
    p_rank.add_argument("--model", default="bm25", choices=SIMPLE_RANKERS)
    p_rank.add_argument("--depth", type=int, default=10)
    p_rank.add_argument("--out", required=True)
    p_rank.add_argument("--params", help="JSON parameter file")
    p_rank.set_defaults(func=cmd_rank)

    # The flags every explain kind reads; each kind adds its own.
    explain = argparse.ArgumentParser(add_help=False)
    explain.add_argument("--index", required=True)
    source = explain.add_mutually_exclusive_group()
    source.add_argument("--query", help="raw query text")
    source.add_argument("--topics", help='topics TSV path, or "demo"')
    explain.add_argument("--qid", help="query id, looked up in --topics; names a --query")
    explain.add_argument("--params", help="JSON parameter file")
    explain.add_argument("--out", help="output path (default stdout)")
    seed_help = "seed of every random draw; the only seed source"

    p_explain = sub.add_parser("explain", allow_abbrev=False, help="run an explainer")
    kinds = p_explain.add_subparsers(dest="kind", required=True)

    p_point = kinds.add_parser("pointwise", parents=[explain], allow_abbrev=False,
                               help="weigh the terms of one document")
    p_point.add_argument("--docid", required=True, help="document to explain")
    p_point.add_argument("--method", default="lirme", help="lirme or exs")
    p_point.add_argument("--model", default="bm25", choices=SIMPLE_RANKERS, help="ranker being explained")
    p_point.add_argument("--format", default="json", choices=("text", "json"))
    p_point.add_argument("--seed", type=int, help=seed_help)
    p_point.set_defaults(func=cmd_explain_pointwise)

    p_pair = kinds.add_parser("pairwise", parents=[explain], allow_abbrev=False,
                              help="axiom preferences between two documents")
    p_pair.add_argument("--docs", required=True, help="docid pair D1,D2")
    p_pair.add_argument("--axioms", default="TFC1,PROX1", help="comma-separated distinct axiom names")
    output = p_pair.add_mutually_exclusive_group()
    output.add_argument("--details", action="store_true", help="emit the detailed axiom table")
    output.add_argument("--aggregate", help=f"aggregate mode: {', '.join(AGGREGATION_MODES)}")
    p_pair.add_argument("--weights", help="comma-separated weights, one per axiom, for weighted_sum_sign")
    p_pair.add_argument("--format", default="json", choices=("text", "json"), help="of the --details table")
    p_pair.set_defaults(func=cmd_explain_pairwise)

    p_list = kinds.add_parser("listwise", parents=[explain], allow_abbrev=False,
                              help="explain a ranked list by query expansion")
    p_list.add_argument("--method", help="listwise explainer (default multiplex)")
    lists = p_list.add_mutually_exclusive_group()
    lists.add_argument("--run", help="TREC run file to explain")
    lists.add_argument("--model", choices=SIMPLE_RANKERS,
                       help="without --run, rank the lists with this ranker (default bm25)")
    p_list.add_argument("--all", action="store_true", help="explain every topic of --topics")
    p_list.add_argument("--seed", type=int, help=seed_help)
    p_list.set_defaults(func=cmd_explain_listwise)

    p_eval = sub.add_parser("eval", allow_abbrev=False, help="compare two run files")
    measures = p_eval.add_subparsers(dest="measure", required=True)
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("run_a")
    pair.add_argument("run_b")
    pair.add_argument("--out", help="output path (default stdout)")
    measures.add_parser("rbo", parents=[pair], allow_abbrev=False, help="rank-biased overlap") \
        .add_argument("--p", type=float, default=0.9, help="RBO persistence")
    measures.add_parser("tau", parents=[pair], allow_abbrev=False, help="Kendall's tau")
    measures.add_parser("rho", parents=[pair], allow_abbrev=False, help="Spearman's rho")
    measures.add_parser("jaccard", parents=[pair], allow_abbrev=False, help="Jaccard overlap at depth k") \
        .add_argument("--k", type=int, default=10, help="Jaccard depth")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        if extras and "params" not in vars(args):  # only --params commands read --key value
            raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
        return args.func(args, extras)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataNotFoundError, UnknownDocumentError) as exc:
        print(f"not found: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
