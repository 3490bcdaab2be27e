"""The benchmark's three workloads.

A workload generates its inputs from the seed, sets up (analyze, index,
build rankers), prepares per-topic inputs outside any timing, and then
serves ops in groups: ``group(g)`` returns the ops for topic ``g mod
n_topics``. An op is one user-visible request, timed on its own; its
check runs after the timer stops. Ops call the library through
attribute lookups on the package (``rx.rank``), so the tracer's
wrappers see them.

Quality figures and the output digest cover only the first
``quality_groups`` groups, which every run completes, so they repeat
exactly for a seed.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Any, Callable

import rankexplain as rx
from rankexplain.rng import XorShift64Star

import checks
from corpus import CorpusSpec, make_corpus, make_topics, pick_roots


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, bool], None]   # (output, record quality and digest)


class Workload:
    name = ""
    why = ""
    spec: CorpusSpec
    n_topics = 0
    topic_terms = 2
    topic_band = (10, 400)
    quality_groups = 1     # groups whose outputs feed the quality figures and digest
    trace_groups = 1       # groups in the fixed op list of a traced run

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.digest = hashlib.sha256()
        self.corpus = make_corpus(seed, self.spec)
        self.topics = make_topics(seed + 1, self.corpus.roots, self.n_topics,
                                  self.topic_terms, self.topic_band)
        self.index = None

    def documents(self) -> list:
        return [rx.Document(d, t) for d, t in zip(self.corpus.docids, self.corpus.texts)]

    def setup(self) -> None:
        raise NotImplementedError

    def check_setup(self) -> None:
        """The index holds every document with its non-stopword token count."""
        lengths = dict(zip(self.corpus.docids, self.corpus.content_lengths))
        checks.require(self.index.n_docs == len(lengths), "index lost documents")
        for docid, n in lengths.items():
            checks.require(self.index.doc_length(docid) == n,
                           f"{docid}: {self.index.doc_length(docid)} tokens indexed, {n} generated")

    def prepare(self) -> None:
        self.stats = checks.CollectionStats(self.index)

    def group(self, g: int) -> list:
        raise NotImplementedError

    def quality(self) -> dict:
        return {}

    def corpus_stats(self) -> dict:
        words = {w for text in self.corpus.texts for w in text.lower().rstrip(".").split()}
        vocab = self.index.vocabulary
        return {
            "docs": self.index.n_docs,
            "tokens": self.index.total_tokens,
            "distinct_words": len(words - set(rx.analysis.ENGLISH_STOPWORDS)),
            "distinct_stems": len(vocab),
            "mean_postings": sum(self.index.df(t) for t in vocab) / len(vocab),
        }

    def _digest(self, text: str, record: bool) -> None:
        if record:
            self.digest.update(text.encode("utf-8"))
            self.digest.update(b"\n")


def _mean(values) -> float:
    return sum(values) / len(values)


def _list_text(ranked) -> str:
    return " ".join(f"{e.docid}:{e.score!r}" for e in ranked.entries)


class IngestRank(Workload):
    name = "ingest-rank"
    why = ("analysis, stemming, index build and index save/load dominate set-up; "
           "ops rank over long postings lists at depth 1000, no explainer runs")
    spec = CorpusSpec(n_docs=3000, min_len=30, max_len=200, n_roots=2000)
    n_topics = 40
    topic_terms = 2
    topic_band = (20, 40)    # frequent roots: candidate sets of thousands of documents
    quality_groups = 8
    trace_groups = 4
    models = ("bm25", "lmjm", "lmdir")
    depth = 1000
    corr_depth = 100    # tau, rho and jaccard compare the top of the lists

    def setup(self) -> None:
        path = os.path.join(self.work_dir, "ingest-rank-index.json")
        built = rx.build_index(self.documents())
        built.save(path)
        self.index = rx.PositionalIndex.load(path)
        self.index_file_mb = os.path.getsize(path) / 1e6
        self.rankers = {m: rx.make_ranker(self.index, m) for m in self.models}

    def group(self, g: int) -> list:
        """All three models and the three list comparisons on one topic, and
        BM25 on a second topic.

        BM25 ranks are the slow ops (two sevenths), so p90 falls inside
        them; p50 falls among the comparisons.
        """
        t = g % self.n_topics
        qid = f"q{t}"
        lists: dict = {}
        sampler = XorShift64Star(self.seed * 7919 + g)

        def rank_op(model, topic):
            qid, text = f"q{topic}", self.topics[topic][0]

            def run():
                query = rx.Query.from_text(self.index, qid, text)
                return query, rx.rank(self.index, self.rankers[model], query, depth=self.depth)

            def check(out, record):
                query, ranked = out
                union = set()
                for term in query.terms:
                    union.update(self.index.postings(term))
                checks.check_ranked(ranked, self.depth, len(union))
                entry = ranked.entries[sampler.randbelow(len(ranked))]
                checks.check_score(self.stats, model, query.terms, entry.docid, entry.score)
                lists[model, topic] = ranked.docids
                self._digest(f"{qid} {model} {_list_text(ranked)}", record)
            return Op(f"rank:{model}", run, check)

        def measures(a, b) -> dict:
            top_a, top_b = a[:self.corr_depth], b[:self.corr_depth]
            return {"rbo": rx.rbo(a, b, 0.9), "tau": rx.kendall_tau(top_a, top_b),
                    "rho": rx.spearman_rho(top_a, top_b), "jaccard": rx.jaccard_at_k(a, b, self.corr_depth)}

        def eval_op(a, b):
            def run():
                return measures(lists[a, t], lists[b, t])

            def check(values, record):
                checks.check_rank_measures(values, measures(lists[b, t], lists[a, t]))
                self._digest(f"{qid} {a}~{b} {values!r}", record)
            return Op("eval", run, check)

        pairs = [(a, b) for i, a in enumerate(self.models) for b in self.models[i + 1:]]
        second = (t + self.n_topics // 2) % self.n_topics
        return ([rank_op(m, t) for m in self.models] + [eval_op(a, b) for a, b in pairs]
                + [rank_op("bm25", second)])


class ListwiseHidden(Workload):
    name = "listwise-hidden"
    why = ("fixed small pools over a larger corpus: fidelity evaluation, pair sampling "
           "and preference matrices dominate; hidden terms make quality checkable")
    spec = CorpusSpec(n_docs=2000, min_len=30, max_len=200, n_roots=2000)
    n_topics = 40
    topic_terms = 2
    topic_band = (10, 100)   # every topic matches well over deep_depth documents
    hidden_band = (40, 300)
    hidden_weight = 2.0
    quality_groups = 8
    trace_groups = 4
    shallow_depth = 20
    deep_depth = 200
    search_candidates = 12
    search_m_max = 3
    bfs_budget = 30
    coverage_candidates = 30

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.hidden_roots = [
            pick_roots(seed * 31 + i, self.corpus.roots, 3, self.hidden_band, exclude=roots)
            for i, (_, roots) in enumerate(self.topics)
        ]
        self.fidelities: list = []
        self.recalls: list = []

    def setup(self) -> None:
        self.index = rx.build_index(self.documents())
        base = rx.make_ranker(self.index, "bm25")
        self.hidden_terms = [
            tuple(rx.Query.from_text(self.index, "", " ".join(roots)).terms)
            for roots in self.hidden_roots
        ]
        self.rankers = [rx.HiddenIntentRanker(base, [(t, self.hidden_weight) for t in terms])
                        for terms in self.hidden_terms]

    def prepare(self) -> None:
        super().prepare()
        self.queries = [rx.Query.from_text(self.index, f"q{i}", text)
                        for i, (text, _) in enumerate(self.topics)]
        self.deep = [rx.rank(self.index, r, q, depth=self.deep_depth)
                     for r, q in zip(self.rankers, self.queries)]
        self.shallow = [rx.RankedList(d.qid, d.entries[:self.shallow_depth], d.tag)
                        for d in self.deep]
        self._candidates: dict = {}

    def _reference_candidates(self, t: int, ranked, params) -> set:
        key = (t, len(ranked), params.n_candidates)
        if key not in self._candidates:
            self._candidates[key] = checks.reference_candidates(
                self.stats, ranked, min(params.top_k, len(ranked)), params.n_candidates)
        return self._candidates[key]

    def group(self, g: int) -> list:
        """greedy and bfs on two topics' shallow lists, then two coverage ops
        on the first topic's deep list: one with rank_gap_weighted pairs,
        the slowest strategy, and one with uniform or top_vs_rest pairs.

        Search ops are two thirds of the ops and rank_gap_weighted ones a
        sixth, so p50 falls among the search ops and p90 among the
        rank_gap_weighted ones, away from the edge of either group.
        """
        t1, t2 = (2 * g) % self.n_topics, (2 * g + 1) % self.n_topics
        search = dict(n_candidates=self.search_candidates, m_max=self.search_m_max)
        coverage = dict(n_candidates=self.coverage_candidates, seed=g)
        methods = ("multiplex", "intent_exs")
        method = methods[g % 2]
        other = methods[(g + 1) % 2]
        strategy = ("uniform", "top_vs_rest")[(g // 2) % 2]
        plans = []
        for t in (t1, t2):
            plans.append(("greedy", t, self.shallow[t], rx.ListwiseParams(method="greedy", **search)))
            plans.append(("bfs", t, self.shallow[t], rx.ListwiseParams(
                method="bfs", eval_budget=self.bfs_budget, **search)))
        plans.append((f"{method}:{strategy}", t1, self.deep[t1], rx.ListwiseParams(
            method=method, pair_strategy=strategy, **coverage)))
        plans.append((f"{other}:rank_gap_weighted", t1, self.deep[t1], rx.ListwiseParams(
            method=other, pair_strategy="rank_gap_weighted", **coverage)))
        return [self._op(*plan) for plan in plans]

    def _op(self, kind: str, t: int, ranked, params) -> Op:
        query = self.queries[t]

        def run():
            return rx.explain_listwise(self.index, query, ranked, params)

        def check(expl, record):
            candidates = self._reference_candidates(t, ranked, params)
            fidelity = checks.check_listwise(self.stats, expl, query.terms, ranked, candidates,
                                             params.m_max, params.p)
            if record:
                hidden = self.hidden_terms[t]
                self.fidelities.append(fidelity)
                self.recalls.append(sum(h in expl.terms for h in hidden) / len(hidden))
            self._digest(
                f"{query.qid} {kind} {expl.terms} {expl.fidelity!r} {expl.evaluations_used}", record)
        return Op(kind, run, check)

    def quality(self) -> dict:
        return {"fidelity_rbo": _mean(self.fidelities), "hidden_recall": _mean(self.recalls)}


class DocExplain(Workload):
    name = "doc-explain"
    why = ("perturbation sampling, score_tokens, the ridge fit and the axioms dominate; "
           "the index and rank barely appear")
    spec = CorpusSpec(n_docs=300, min_len=150, max_len=400, n_roots=1200)
    n_topics = 20
    topic_terms = 4
    topic_band = (15, 35)
    quality_groups = 4
    trace_groups = 4
    models = ("bm25", "lmdir")
    methods = ("lirme", "topk_binary", "score_ratio", "rank_based")
    samplers = ("random", "masking", "tfidf")
    depth = 20
    n_terms = 10
    # Sampling cost grows with document length, so the explained document
    # is the top-20 one nearest a target length that cycles over the range.
    explained_lengths = (160, 200, 240, 280)
    pairs_per_list = 6
    agg_weighted = rx.AggregatedAxiom(
        children=tuple((name, 1.0 + i % 3) for i, name in enumerate(rx.AXIOM_NAMES)))
    agg_majority = rx.AggregatedAxiom(
        children=tuple((name, 1.0) for name in rx.AXIOM_NAMES), mode="majority")

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.correctness: list = []
        self.consistency: list = []
        self.undefined_correctness = 0

    def setup(self) -> None:
        self.index = rx.build_index(self.documents())
        self.rankers = {m: rx.make_ranker(self.index, m) for m in self.models}

    def prepare(self) -> None:
        super().prepare()
        self.queries = [rx.Query.from_text(self.index, f"q{i}", text)
                        for i, (text, _) in enumerate(self.topics)]
        self.lists = [{m: rx.rank(self.index, self.rankers[m], q, depth=self.depth)
                       for m in self.models} for q in self.queries]
        self._truth: dict = {}

    def _ground_truth(self, t: int, model: str):
        if (t, model) not in self._truth:
            self._truth[t, model] = rx.lmjm_ground_truth(self.index, self.queries[t], self.lists[t][model])
        return self._truth[t, model]

    def group(self, g: int) -> list:
        """One EXS target (or LIRME) under the three samplers per ranker, then
        the axioms on adjacent pairs; two pairwise ops for each pointwise one."""
        t = g % self.n_topics
        query = self.queries[t]
        method = self.methods[g % len(self.methods)]
        ops = []
        target = self.explained_lengths[g % len(self.explained_lengths)]
        for model in self.models:
            docids = self.lists[t][model].docids
            docid = min(docids, key=lambda d: abs(self.index.doc_length(d) - target))
            sampler_expls: list = []
            for kind in self.samplers:
                seed = g * 100 + len(ops)
                ops.append(self._pointwise_op(t, seed, model, method, kind, docid, sampler_expls))
        details = rx.axioms.DETAILED_AXIOMS
        for model in self.models:
            docids = self.lists[t][model].docids
            for i in range(self.pairs_per_list):
                axiom = details[(len(ops) + g) % len(details)]
                ops.append(self._pairwise_op(query, docids[i], docids[i + 1], axiom))
        return ops

    def _pointwise_op(self, t, seed, model, method, kind, docid, sampler_expls) -> Op:
        query = self.queries[t]
        ranker = self.rankers[model]
        base = self.lists[t][model]
        variant = "topk_binary" if method == "lirme" else method
        params = rx.PointwiseParams(sampler=rx.SamplerConfig(kind=kind, seed=seed),
                                    exs_variant=variant, n_terms=self.n_terms)

        def run():
            if method == "lirme":
                return rx.lirme_explain(self.index, ranker, query, docid, params)
            return rx.exs_explain(self.index, ranker, query, docid, params, base)

        def check(expl, record):
            checks.check_pointwise(expl, set(self.index.doc_tokens(docid)), self.n_terms)
            if record:
                try:
                    self.correctness.append(rx.pointwise_correctness(expl, self._ground_truth(t, model)))
                except ValueError:
                    # Pearson is undefined when every weight is equal (e.g. all targets 0).
                    self.undefined_correctness += 1
                sampler_expls.append(expl)
                if len(sampler_expls) == len(self.samplers):
                    self.consistency.append(rx.pointwise_consistency(sampler_expls, m=self.n_terms))
            self._digest(
                f"{query.qid} {model} {method} {kind} {docid} {expl.entries!r}", record)
        return Op(f"{'lirme' if method == 'lirme' else 'exs'}:{kind}", run, check)

    def _pairwise_op(self, query, di: str, dj: str, axiom: str) -> Op:
        def preferences(a, b) -> dict:
            prefs = {name: rx.axiom_preference(name, self.index, query, a, b) for name in rx.AXIOM_NAMES}
            prefs["weighted"] = rx.aggregate_preference(self.agg_weighted, self.index, query, a, b)
            prefs["majority"] = rx.aggregate_preference(self.agg_majority, self.index, query, a, b)
            return prefs

        def run():
            table = rx.explain_details(axiom, self.index, query, di, dj)
            return preferences(di, dj), table, rx.render_details(table)

        def check(out, record):
            forward, table, text = out
            checks.check_pairwise(forward, preferences(dj, di))
            checks.require(table.preference == forward[axiom],
                           f"{axiom} details preference {table.preference}, axiom says {forward[axiom]}")
            self._digest(f"{query.qid} {di} {dj} {forward!r}\n{text}", record)
        return Op("pairwise", run, check)

    def quality(self) -> dict:
        return {"pointwise_correctness": _mean(self.correctness),
                "pointwise_correctness_left_out": self.undefined_correctness,
                "pointwise_consistency": _mean(self.consistency)}


WORKLOADS = {w.name: w for w in (IngestRank, ListwiseHidden, DocExplain)}
