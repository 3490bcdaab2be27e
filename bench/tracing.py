"""Spans and counters around the library's public functions.

The library has no instrumentation of its own, so the benchmark wraps
the public module functions and class methods it calls, from outside.
Wrapping replaces every reference to a function in every loaded
``rankexplain`` module, so calls the library makes internally (for
example ``listwise`` calling its imported ``rank`` and ``rbo``) are seen
too. ``install`` and ``uninstall`` swap the wrappers in and out, so an
untraced pass runs the original code with no wrapper in the way.

Three kinds of wrapper, chosen by how often the function runs:

* span: one record (name, start, end, parent span, op id) per call,
  kept in memory and written out at the end;
* timed: calls and self time are summed, no record is kept; used for
  the per-token and per-document calls (``porter_stem``, ``score``),
  which run hundreds of thousands of times per second;
* counted: calls only; used for ``avgdl``, ``idf`` and the PRNG draw,
  which are too cheap to time without the timer dominating.

Self time of a call is its duration minus the time of the span and timed
calls made inside it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

_NAME, _START, _CHILD, _SPAN = 0, 1, 2, 3
# Marks a method a class inherits: uninstalling deletes the override.
_INHERITED = object()


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = None
        self.op_kind = None
        self.spans: list = []
        self._stack: list = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()           # derived counters (docs scored, samples...)
        self.kind_counts: Counter = Counter()      # (op kind, name) -> calls
        self.stem_words: set = set()
        self.patches: list = []
        # Counting every PRNG draw slows the samplers by about half, so the
        # draws are counted in a pass of their own.
        self.draw_patches: list = []

    # -- op context ------------------------------------------------------

    def begin(self, op_id, kind: str) -> None:
        self.op_id = op_id
        self.op_kind = kind
        self.active = True

    def end(self) -> None:
        self.active = False
        self.op_id = None
        self.op_kind = None

    # -- recording -------------------------------------------------------

    def _enter(self, name: str, is_span: bool) -> list:
        parent = self._stack[-1][_SPAN] if self._stack else None
        span = None
        if is_span:
            span = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op_id])
        frame = [name, time.perf_counter(), 0.0, span if is_span else parent]
        self._stack.append(frame)
        self.calls[name] += 1
        self.kind_counts[(self.op_kind, name)] += 1
        return frame

    def _exit(self, frame: list, is_span: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[_START]
        self.self_s[frame[_NAME]] += duration - frame[_CHILD]
        if self._stack:
            self._stack[-1][_CHILD] += duration
        if is_span:
            record = self.spans[frame[_SPAN]]
            record[1] = frame[_START]
            record[2] = end

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n
        self.kind_counts[(self.op_kind, name)] += n

    def take(self) -> dict:
        """Totals recorded since the last take; spans are kept."""
        totals = {"calls": self.calls, "self_s": self.self_s, "counts": self.counts,
                  "kind_calls": self.kind_counts, "stem_words": self.stem_words}
        self.calls, self.self_s, self.counts = Counter(), defaultdict(float), Counter()
        self.kind_counts, self.stem_words = Counter(), set()
        return totals

    def parent_name(self):
        return self._stack[-1][_NAME] if self._stack else None

    # -- wrappers --------------------------------------------------------

    def wrap(self, name: str, fn, mode: str = "span", on_result=None):
        tracer = self
        is_span = mode == "span"
        if mode == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.active:
                    tracer.calls[name] += 1
                    tracer.kind_counts[(tracer.op_kind, name)] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, is_span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, is_span)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result
        return wrapper

    def patch(self, owner, attr: str, replacement, into=None) -> None:
        target = self.patches if into is None else into
        target.append((owner, attr, owner.__dict__.get(attr, _INHERITED), replacement))

    def patch_function(self, fn, replacement) -> None:
        """Replace fn in every loaded rankexplain module that holds it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "rankexplain" or mod_name.startswith("rankexplain.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patches.append((module, attr, fn, replacement))

    def install(self, patches=None) -> None:
        for owner, attr, _, replacement in (self.patches if patches is None else patches):
            setattr(owner, attr, replacement)

    def uninstall(self, patches=None) -> None:
        for owner, attr, original, _ in (self.patches if patches is None else patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "op": op_id}, separators=(",", ":")))
                f.write("\n")


# -- what to wrap ------------------------------------------------------------


def _on_stem(tracer, args, kwargs, result):
    tracer.stem_words.add(args[0])


def _on_score(tracer, args, kwargs, result):
    if tracer.parent_name() == "rankers.rank":
        tracer.count("rankers.docs_scored")


def _on_samples(tracer, args, kwargs, result):
    tracer.count("perturb.samples", len(result))
    if any(s.uniform_fallback for s in result):
        tracer.count("pointwise.fallbacks")


def _on_fit(tracer, args, kwargs, result):
    if result.solver != "normal_equations":
        tracer.count("pointwise.fallbacks")


def _on_pairs(tracer, args, kwargs, result):
    tracer.count("listwise.pairs_drawn", len(result))


def _on_matrix(tracer, args, kwargs, result):
    tracer.count("listwise.matrix_cells", int(result.entries.size))


def _on_fidelity(tracer, args, kwargs, result):
    evaluator = args[0]
    best = getattr(evaluator, "_bench_best", None)
    if best is not None:
        tracer.count("listwise.evals_after_first")
        if result > best:
            tracer.count("listwise.improving_evals")
    if best is None or result > best:
        evaluator._bench_best = result


def _bfs_budget_hook(bfs_fn):
    signature = inspect.signature(bfs_fn)

    def on_bfs(tracer, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if result.evaluations_used >= bound.arguments["eval_budget"]:
            tracer.count("listwise.budget_exhausted")
    return on_bfs


def instrument() -> Tracer:
    """A tracer whose wrappers cover every module the benchmark reports on.

    Nothing is swapped in until ``install`` is called.
    """
    from rankexplain import analysis, axioms, evaluation, index, listwise, perturb, pointwise, rankers, rng, stem

    t = Tracer()
    functions = [
        (analysis.tokenize, "analysis.tokenize", "span", None),
        (stem.porter_stem, "stem.porter_stem", "timed", _on_stem),
        (index.build_index, "index.build_index", "span", None),
        (rankers.rank, "rankers.rank", "span", None),
        (perturb.draw_samples, "perturb.draw_samples", "span", _on_samples),
        (pointwise.fit_weighted_ridge, "pointwise.fit", "span", _on_fit),
        (pointwise.lirme_explain, "pointwise.lirme", "span", None),
        (pointwise.exs_explain, "pointwise.exs", "span", None),
        (axioms.axiom_preference, "axioms.preference", "span", None),
        (axioms.aggregate_preference, "axioms.aggregate", "span", None),
        (axioms.explain_details, "axioms.details", "span", None),
        (axioms.render_details, "axioms.render", "span", None),
        (listwise.generate_candidates, "listwise.candidates", "span", None),
        (listwise.sample_pairs, "listwise.pairs", "span", _on_pairs),
        (listwise.build_preference_matrix, "listwise.matrix", "span", _on_matrix),
        (listwise.intent_exs_explain, "listwise.cover", "span", None),
        (listwise.multiplex_explain, "listwise.cover", "span", None),
        (listwise.greedy_explain, "listwise.greedy", "span", None),
        (listwise.bfs_explain, "listwise.bfs", "span", _bfs_budget_hook(listwise.bfs_explain)),
        (listwise.explain_listwise, "listwise.explain", "span", None),
        (evaluation.rbo, "evaluation.rbo", "span", None),
        (evaluation.kendall_tau, "evaluation.rank_corr", "span", None),
        (evaluation.spearman_rho, "evaluation.rank_corr", "span", None),
        (evaluation.jaccard_at_k, "evaluation.rank_corr", "span", None),
    ]
    for fn, name, mode, hook in functions:
        t.patch_function(fn, t.wrap(name, fn, mode, hook))

    pindex = index.PositionalIndex
    t.patch(pindex, "save", t.wrap("index.save", pindex.save))
    t.patch(pindex, "load", classmethod(t.wrap("index.load", pindex.__dict__["load"].__func__)))
    t.patch(pindex, "avgdl", property(t.wrap("index.avgdl", pindex.avgdl.fget, "count")))
    t.patch(pindex, "idf", t.wrap("index.idf", pindex.idf, "count"))
    t.patch(rng.XorShift64Star, "next_u64", t.wrap("rng.draws", rng.XorShift64Star.next_u64, "count"),
            into=t.draw_patches)
    t.patch(listwise.FidelityEvaluator, "__call__",
            t.wrap("listwise.fidelity", listwise.FidelityEvaluator.__call__, "span", _on_fidelity))
    for cls in (rankers.BM25Ranker, rankers.LMJMRanker, rankers.LMDirRanker,
                rankers.HiddenIntentRanker, rankers.LinearScorer):
        for method, name in (("score", "rankers.score"), ("score_tokens", "rankers.score_tokens")):
            hook = _on_score if method == "score" else None
            t.patch(cls, method, t.wrap(name, getattr(cls, method), "timed", hook))
    return t

