"""Command-line surface: index, rank, explain, eval.

Parameters come from a JSON file plus flat ``--key value`` overrides.
Both are one flat namespace over the fields of the parameter
dataclasses (``RankerParams``, ``PointwiseParams`` with its
``SamplerConfig``, ``ListwiseParams``); a key no field defines, or a
value of the wrong type, is a usage error. Every randomized command
takes ``--seed``, the only source of the seed, so repeated runs with the
same inputs and seed produce byte-identical output. Exit codes: 0
success, 1 I/O or parse failure, 2 usage error, 3 requested data not
found.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .axioms import (
    AGGREGATION_MODES,
    AXIOM_NAMES,
    AggregatedAxiom,
    aggregate_preference,
    axiom_preference,
    explain_details,
    render_details,
)
from .datasets import demo_corpus_path, demo_topics_path
from .evaluation import jaccard_at_k, kendall_tau, rbo, spearman_rho
from .index import PositionalIndex, UnknownDocumentError, build_index, read_corpus_jsonl
from .listwise import ListwiseParams, explain_all, explain_listwise
from .pointwise import PointwiseParams, exs_explain, lirme_explain, visualize_terms
from .rankers import (
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
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
            if not text.endswith("\n"):
                f.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


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
    if type(value) is kind and (kind is not float or math.isfinite(value)):
        return value
    expected = {float: "a finite number", tuple: "a JSON list of strings"}.get(kind, kind.__name__)
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
    the built objects. For ``explain``, seed and method come only from
    their flags; when a flag is absent the field keeps its default. Any
    other key is a usage error.
    """
    data: dict = {}
    if args.params:
        with open(args.params, encoding="utf-8") as f:
            data = json.load(f)
        if not isinstance(data, dict):
            raise UsageError(f"{args.params}: the params file must hold a JSON object")
    data.update(_overrides_from_extras(extras))
    flags = {"seed": args.seed, "method": args.method} if args.command == "explain" else {}
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


def _resolve_topics(path: str | None) -> str | None:
    return demo_topics_path() if path == "demo" else path


def _query_for(args, index: PositionalIndex) -> Query:
    if getattr(args, "query", None):
        return Query.from_text(index, getattr(args, "qid", None) or "q", args.query)
    topics_path = _resolve_topics(getattr(args, "topics", None))
    if topics_path and getattr(args, "qid", None):
        topics = load_topics(topics_path)
        if args.qid not in topics:
            raise DataNotFoundError(f"qid {args.qid!r} not in {topics_path}")
        return Query.from_text(index, args.qid, topics[args.qid])
    raise UsageError("provide --query TEXT, or --topics FILE with --qid")


# -- subcommands -------------------------------------------------------------


def cmd_index(args, extras) -> int:
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    corpus_path = demo_corpus_path() if args.corpus == "demo" else args.corpus
    corpus = read_corpus_jsonl(corpus_path)
    if not corpus:
        raise ValueError(f"{corpus_path}: corpus is empty")
    index = build_index(corpus)
    index.save(args.out)
    print(f"{index.n_docs} docs, {len(index.vocabulary)} terms")
    return EXIT_OK


def _ranker(index, model: str, params: RankerParams):
    if model not in SIMPLE_RANKERS:
        raise UsageError(f"unknown model {model!r}; valid: {', '.join(SIMPLE_RANKERS)}")
    return make_ranker(index, model, params)


def cmd_rank(args, extras) -> int:
    ranker_params, = _build_params(args, extras, (RankerParams,))
    index = PositionalIndex.load(args.index)
    ranker = _ranker(index, args.model, ranker_params)
    topics = load_topics(_resolve_topics(args.topics))
    runs = {}
    for qid in sorted(topics):
        query = Query.from_text(index, qid, topics[qid])
        runs[qid] = rank(index, ranker, query, depth=args.depth)
    save_to_res(runs, args.out)
    print(f"wrote {sum(len(r) for r in runs.values())} entries for {len(runs)} queries")
    return EXIT_OK


def cmd_explain_pointwise(args, extras) -> int:
    method = args.method or "lirme"
    if method not in ("lirme", "exs"):
        raise UsageError(f"unknown pointwise method {method!r}; valid: lirme, exs")
    pw, ranker_params = _build_params(args, extras, (PointwiseParams, RankerParams))
    index = PositionalIndex.load(args.index)
    query = _query_for(args, index)
    if not index.has_doc(args.docid):
        raise DataNotFoundError(f"docid {args.docid!r} not in index")
    ranker = _ranker(index, args.model, ranker_params)
    if method == "lirme":
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
    index = PositionalIndex.load(args.index)
    query = _query_for(args, index)
    try:
        d1, d2 = [d.strip() for d in args.docs.split(",")]
    except ValueError as exc:
        raise UsageError("--docs expects two comma-separated docids") from exc
    for d in (d1, d2):
        if not index.has_doc(d):
            raise DataNotFoundError(f"docid {d!r} not in index")
    names = [a.strip() for a in args.axioms.split(",") if a.strip()]
    for name in names:
        if name not in AXIOM_NAMES:
            raise UsageError(f"unknown axiom {name!r}; valid: {', '.join(AXIOM_NAMES)}")
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
        if args.aggregate not in AGGREGATION_MODES:
            raise UsageError(f"unknown aggregation {args.aggregate!r}; valid: {', '.join(AGGREGATION_MODES)}")
        weights = [1.0] * len(names)
        if args.weights:
            weights = [float(w) for w in args.weights.split(",")]
            if len(weights) != len(names):
                raise UsageError("--weights must match --axioms in length")
        agg = AggregatedAxiom(children=tuple(zip(names, weights)), mode=args.aggregate)
        payload["aggregate"] = aggregate_preference(agg, index, query, d1, d2)
    _emit(json.dumps(payload, separators=(",", ":")), args.out)
    return EXIT_OK


def cmd_explain_listwise(args, extras) -> int:
    if args.run:
        lw, = _build_params(args, extras, (ListwiseParams,))
    else:  # the lists are ranked here, so their depth is a key too
        lw, depth = _build_params(args, extras, (ListwiseParams,), {"depth": 10})
    index = PositionalIndex.load(args.index)
    topics_path = _resolve_topics(args.topics)
    if args.run:
        runs = load_from_res(args.run)
    else:
        if not topics_path:
            raise UsageError("without --run, provide --topics to rank on the fly")
        topics = load_topics(topics_path)
        ranker = _ranker(index, args.model, lw.ranker_params)
        runs = {}
        for qid in sorted(topics):
            query = Query.from_text(index, qid, topics[qid])
            runs[qid] = rank(index, ranker, query, depth=depth)
    if args.all:
        if not topics_path:
            raise UsageError("--all requires --topics")
        topics = load_topics(topics_path)
        batch = explain_all(index, topics, runs, lw)
        lines = []
        for qid in sorted(topics):
            if qid in batch.explanations:
                lines.append(json.dumps(batch.explanations[qid].as_dict(), separators=(",", ":")))
            else:
                lines.append(json.dumps({"qid": qid, "error": batch.errors[qid]}, separators=(",", ":")))
        _emit("\n".join(lines), args.out)
        return EXIT_OK
    if not args.qid:
        raise UsageError("provide --qid, or --all with --topics")
    if args.qid not in runs:
        raise DataNotFoundError(f"qid {args.qid!r} not in run")
    if topics_path:
        topics = load_topics(topics_path)
        if args.qid not in topics:
            raise DataNotFoundError(f"qid {args.qid!r} not in topics")
        query = Query.from_text(index, args.qid, topics[args.qid])
    elif args.query:
        query = Query.from_text(index, args.qid, args.query)
    else:
        raise UsageError("provide --topics or --query for the query text")
    expl = explain_listwise(index, query, runs[args.qid], lw)
    _emit(json.dumps(expl.as_dict(), separators=(",", ":")), args.out)
    return EXIT_OK


def cmd_explain(args, extras) -> int:
    if args.kind == "pointwise":
        return cmd_explain_pointwise(args, extras)
    if args.kind == "pairwise":
        return cmd_explain_pairwise(args, extras)
    return cmd_explain_listwise(args, extras)


_MEASURES = ("rbo", "tau", "rho", "jaccard")


def cmd_eval(args, extras) -> int:
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    if args.measure not in _MEASURES:
        raise UsageError(f"unknown measure {args.measure!r}; valid: {', '.join(_MEASURES)}")
    runs_a = load_from_res(args.run_a)
    runs_b = load_from_res(args.run_b)
    shared = sorted(set(runs_a) & set(runs_b))
    if not shared:
        raise DataNotFoundError("no shared qids between the two runs")
    lines = []
    values = []
    for qid in shared:
        list_a = runs_a[qid].docids
        list_b = runs_b[qid].docids
        if args.measure == "rbo":
            value = rbo(list_a, list_b, args.p)
            params = {"p": args.p}
        elif args.measure == "tau":
            value = kendall_tau(list_a, list_b)
            params = {}
        elif args.measure == "rho":
            value = spearman_rho(list_a, list_b)
            params = {}
        else:
            value = jaccard_at_k(list_a, list_b, args.k)
            params = {"k": args.k}
        values.append(value)
        lines.append(json.dumps(
            {"qid": qid, "measure": args.measure, "value": value, "params": params},
            separators=(",", ":")))
    mean = sum(values) / len(values)
    lines.append(json.dumps(
        {"qid": "mean", "measure": args.measure, "value": mean, "params": params},
        separators=(",", ":")))
    _emit("\n".join(lines), args.out)
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

    p_explain = sub.add_parser("explain", allow_abbrev=False, help="run an explainer")
    p_explain.add_argument("kind", choices=("pointwise", "pairwise", "listwise"))
    p_explain.add_argument("--index", required=True)
    p_explain.add_argument("--method", default=None, help="explainer within the kind")
    p_explain.add_argument("--query", help="raw query text")
    p_explain.add_argument("--qid", help="query id (with --topics or --run)")
    p_explain.add_argument("--topics", help='topics TSV path, or "demo"')
    p_explain.add_argument("--docid", help="document to explain (pointwise)")
    p_explain.add_argument("--docs", help="docid pair D1,D2 (pairwise)")
    p_explain.add_argument("--axioms", default="TFC1,PROX1", help="comma-separated axiom names")
    p_explain.add_argument("--details", action="store_true", help="emit the detailed axiom table")
    p_explain.add_argument("--aggregate", help=f"aggregate mode: {', '.join(AGGREGATION_MODES)}")
    p_explain.add_argument("--weights", help="comma-separated aggregation weights")
    p_explain.add_argument("--run", help="TREC run file to explain (listwise)")
    p_explain.add_argument("--all", action="store_true", help="explain every topic (listwise)")
    p_explain.add_argument("--model", default="bm25", help="ranker being explained")
    p_explain.add_argument("--format", default="json", choices=("text", "json"))
    p_explain.add_argument("--params", help="JSON parameter file")
    p_explain.add_argument("--seed", type=int, help="seed of every random draw; the only seed source")
    p_explain.add_argument("--out", help="output path (default stdout)")
    p_explain.set_defaults(func=cmd_explain)

    p_eval = sub.add_parser("eval", allow_abbrev=False, help="compare two run files")
    p_eval.add_argument("measure", choices=_MEASURES)
    p_eval.add_argument("run_a")
    p_eval.add_argument("run_b")
    p_eval.add_argument("--p", type=float, default=0.9, help="RBO persistence")
    p_eval.add_argument("--k", type=int, default=10, help="Jaccard depth")
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
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
