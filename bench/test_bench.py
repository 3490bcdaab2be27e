"""Tests of the benchmark's own parts: generator, percentiles, checks, tracer."""

import dataclasses
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rankexplain as rx  # noqa: E402

import checks  # noqa: E402
from corpus import CorpusSpec, make_corpus, make_topics, pick_roots  # noqa: E402
from stats import median, percentile  # noqa: E402

SMALL = CorpusSpec(n_docs=40, min_len=20, max_len=60, n_roots=80)


@pytest.fixture(scope="module")
def small():
    corpus = make_corpus(7, SMALL)
    index = rx.build_index([rx.Document(d, t) for d, t in zip(corpus.docids, corpus.texts)])
    query = rx.Query.from_text(index, "q", make_topics(8, corpus.roots, 1, 2, (0, 10))[0][0])
    return corpus, index, query, checks.CollectionStats(index)


# -- generator ---------------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    assert make_corpus(3, SMALL) == make_corpus(3, SMALL)
    assert make_corpus(3, SMALL).texts != make_corpus(4, SMALL).texts
    roots = make_corpus(3, SMALL).roots
    assert make_topics(5, roots, 6, 3, (0, 30)) == make_topics(5, roots, 6, 3, (0, 30))
    assert pick_roots(9, roots, 3, (10, 40)) == pick_roots(9, roots, 3, (10, 40))


def test_generator_respects_its_spec():
    corpus = make_corpus(3, SMALL)
    assert len(corpus.texts) == SMALL.n_docs and len(set(corpus.docids)) == SMALL.n_docs
    for text, content in zip(corpus.texts, corpus.content_lengths):
        assert SMALL.min_len <= len(text.split()) <= SMALL.max_len
        assert content <= len(text.split())
    topics = make_topics(5, corpus.roots, 10, 3, (0, 30))
    assert all(len(set(roots)) == 3 and text == " ".join(roots) for text, roots in topics)
    # Dealt from a shuffled deck: ten 3-term topics use each of the 30 roots once.
    assert sorted(r for _, roots in topics for r in roots) == sorted(corpus.roots[:30])
    assert not set(pick_roots(9, corpus.roots, 3, (10, 40), exclude=corpus.roots[10:35])) & set(corpus.roots[10:35])


def test_generated_words_are_inflected_so_stemming_merges_them(small):
    corpus, index, _, _ = small
    words = {w for text in corpus.texts for w in text.lower().rstrip(".").split()}
    assert len(index.vocabulary) < 0.6 * len(words)


# -- percentile helper -------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = [50, 15, 40, 20, 35]
    assert percentile(values, 0) == 15
    assert percentile(values, 100) == 50
    assert percentile(values, 50) == median(values) == 35
    assert percentile(values, 40) == pytest.approx(29.0)
    assert percentile(values, 90) == pytest.approx(46.0)
    assert percentile([2.5], 90) == 2.5
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(values, 101)


# -- correctness checks reject corrupted outputs -----------------------------


def test_check_ranked_rejects_bad_order_ties_and_length(small):
    _, index, query, _ = small
    ranked = rx.rank(index, rx.BM25Ranker(index), query, depth=10)
    n = len(ranked)
    checks.check_ranked(ranked, 10, n)
    e = ranked.entries
    swapped = rx.RankedList("q", [e[1]._replace(rank=1), e[0]._replace(rank=2)] + e[2:])
    with pytest.raises(checks.CheckFailed):
        checks.check_ranked(swapped, 10, n)
    tie_wrong = rx.RankedList("q", [rx.RunEntry("d2", 1, 1.0), rx.RunEntry("d1", 2, 1.0)])
    with pytest.raises(checks.CheckFailed):
        checks.check_ranked(tie_wrong, 10, 2)
    with pytest.raises(checks.CheckFailed, match="entries"):
        checks.check_ranked(ranked, 10, n - 1)
    gap = rx.RankedList("q", [e[0], e[1]._replace(rank=3)])
    with pytest.raises(checks.CheckFailed):
        checks.check_ranked(gap, 10, 2)


@pytest.mark.parametrize("model", ["bm25", "lmjm", "lmdir"])
def test_check_score_matches_rankers_and_rejects_perturbed_score(small, model):
    _, index, query, stats = small
    ranker = rx.make_ranker(index, model)
    for docid in index.doc_ids()[:10]:
        score = ranker.score(query, docid)
        checks.check_score(stats, model, query.terms, docid, score)
        with pytest.raises(checks.CheckFailed):
            checks.check_score(stats, model, query.terms, docid, score + 1e-6)


def test_check_rank_measures_rejects_asymmetry_and_range():
    good = {"rbo": 0.5, "tau": 0.2, "rho": 0.3, "jaccard": 0.4}
    checks.check_rank_measures(good, dict(good))
    with pytest.raises(checks.CheckFailed):
        checks.check_rank_measures(good, dict(good, tau=0.25))
    for name, bad in (("rbo", 1.2), ("tau", -1.5), ("rho", 2.0), ("jaccard", -0.1)):
        corrupted = dict(good, **{name: bad})
        with pytest.raises(checks.CheckFailed):
            checks.check_rank_measures(corrupted, dict(corrupted))


def test_reference_rbo_matches_library():
    a = ["a", "b", "c", "d", "e", "f"]
    b = ["c", "a", "g", "b", "f", "h"]
    assert checks.reference_rbo(a, b, 0.9) == pytest.approx(rx.rbo(a, b, 0.9), abs=1e-12)
    assert checks.reference_rbo(a, a, 0.9) == pytest.approx(1.0)


def test_check_listwise_rejects_stray_terms_too_many_terms_and_wrong_rbo(small):
    _, index, query, stats = small
    ranked = rx.rank(index, rx.BM25Ranker(index), query, depth=15)
    params = rx.ListwiseParams(method="greedy", n_candidates=20, m_max=3)
    expl = rx.explain_listwise(index, query, ranked, params)
    candidates = checks.reference_candidates(stats, ranked, min(params.top_k, len(ranked)), params.n_candidates)
    checks.check_listwise(stats, expl, query.terms, ranked, candidates, params.m_max, params.p)

    def corrupted(**changes):
        fields = dict(qid=expl.qid, method=expl.method, terms=list(expl.terms),
                      fidelity=dict(expl.fidelity), evaluations_used=expl.evaluations_used)
        fields.update(changes)
        return rx.ListwiseExplanation(**fields)

    outside = sorted(set(index.vocabulary) - candidates)[0]
    with pytest.raises(checks.CheckFailed, match="outside the candidate set"):
        checks.check_listwise(stats, corrupted(terms=[outside]), query.terms,
                              ranked, candidates, params.m_max, params.p)
    with pytest.raises(checks.CheckFailed, match="exceed m_max"):
        checks.check_listwise(stats, corrupted(terms=sorted(candidates)[:4]), query.terms,
                              ranked, candidates, params.m_max, params.p)
    wrong = {k: v - 0.01 for k, v in expl.fidelity.items()}
    with pytest.raises(checks.CheckFailed, match="reported rbo"):
        checks.check_listwise(stats, corrupted(fidelity=wrong), query.terms,
                              ranked, candidates, params.m_max, params.p)


def test_check_pointwise_rejects_nan_weights_and_foreign_terms(small):
    _, index, query, _ = small
    ranker = rx.BM25Ranker(index)
    docid = rx.rank(index, ranker, query, depth=1).docids[0]
    expl = rx.lirme_explain(index, ranker, query, docid, rx.PointwiseParams(
        sampler=rx.SamplerConfig(n_samples=50)))
    doc_terms = set(index.doc_tokens(docid))
    checks.check_pointwise(expl, doc_terms, 10)
    nan = rx.ExplanationVector(entries=[(expl.entries[0][0], math.nan)] + expl.entries[1:])
    with pytest.raises(checks.CheckFailed):
        checks.check_pointwise(nan, doc_terms, 10)
    foreign = rx.ExplanationVector(entries=expl.entries[:-1] + [("zzzunseen", 0.1)])
    with pytest.raises(checks.CheckFailed):
        checks.check_pointwise(foreign, doc_terms, 10)


def test_check_pairwise_rejects_symmetric_and_non_ternary_preferences(small):
    _, index, query, _ = small
    a, b = index.doc_ids()[:2]
    forward = {n: rx.axiom_preference(n, index, query, a, b) for n in rx.AXIOM_NAMES}
    backward = {n: rx.axiom_preference(n, index, query, b, a) for n in rx.AXIOM_NAMES}
    checks.check_pairwise(forward, backward)
    with pytest.raises(checks.CheckFailed):
        checks.check_pairwise(dict(forward, TFC1=1), dict(backward, TFC1=1))
    with pytest.raises(checks.CheckFailed):
        checks.check_pairwise(dict(forward, LNC1=2), dict(backward, LNC1=-2))


def test_check_setup_rejects_a_lost_token(small, tmp_path):
    from workloads import DocExplain

    class Tiny(DocExplain):
        spec = SMALL

    wl = Tiny(7, str(tmp_path))
    wl.setup()
    wl.check_setup()
    lengths = list(wl.corpus.content_lengths)
    lengths[3] += 1
    wl.corpus = dataclasses.replace(wl.corpus, content_lengths=tuple(lengths))
    with pytest.raises(checks.CheckFailed):
        wl.check_setup()


# -- tracer ------------------------------------------------------------------


def test_tracer_counts_layers_and_uninstall_restores_the_library(small):
    import tracing

    _, index, query, _ = small
    originals = (rx.rank, rx.rankers.rank, rx.listwise.rank, rx.PositionalIndex.__dict__["avgdl"],
                 rx.BM25Ranker.__dict__.get("score"))
    tracer = tracing.instrument()
    tracer.install()
    try:
        tracer.begin(0, "rank")
        ranked = rx.rank(index, rx.BM25Ranker(index), query, depth=5)
        tracer.end()
        rx.rank(index, rx.BM25Ranker(index), query, depth=5)   # inactive: not counted
    finally:
        tracer.uninstall()
    totals = tracer.take()
    assert totals["calls"]["rankers.rank"] == 1
    assert totals["calls"]["rankers.score"] == totals["counts"]["rankers.docs_scored"] >= len(ranked)
    assert totals["calls"]["index.avgdl"] > 0
    assert totals["self_s"]["rankers.rank"] > 0.0
    assert [s[0] for s in tracer.spans] == ["rankers.rank"]
    assert (rx.rank, rx.rankers.rank, rx.listwise.rank, rx.PositionalIndex.__dict__["avgdl"],
            rx.BM25Ranker.__dict__.get("score")) == originals
