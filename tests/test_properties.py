"""Property tests over seeded random corpora.

Hypothesis draws a seed and the corpus shape; ``conftest.random_corpus``
turns them into documents, so every failing example replays from its
seed. The sparse rankers are drawn with default and non-default
parameters. Scores are compared with ``==``: the fast paths must give
the reference values to the bit, not approximately.
"""

import heapq
import itertools
import json
import math
import os
import re
import struct
import tempfile
import warnings
from collections import Counter

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from rankexplain import (
    Document,
    HiddenIntentRanker,
    LinearScorer,
    PositionalIndex,
    Query,
    Ranker,
    RankerParams,
    bfs_explain,
    build_index,
    build_preference_matrix,
    generate_candidates,
    greedy_explain,
    kendall_tau,
    lmjm_ground_truth,
    make_ranker,
    rank,
    rbo,
    sample_pairs,
    spearman_rho,
)
from rankexplain import AggregatedAxiom, aggregate_preference, axiom_preference, explain_details, listwise
from rankexplain.axioms import AGGREGATION_MODES, AXIOM_NAMES, DETAILED_AXIOMS, DetailsTable
from rankexplain import index as index_module
from rankexplain.index import left_sum
from rankexplain.listwise import (
    PAIR_STRATEGIES,
    CandidateTerm,
    FidelityEvaluator,
    ListwiseExplanation,
    PreferenceMatrix,
    PreferencePair,
    intent_exs_explain,
    multiplex_explain,
)
from rankexplain.analysis import TokenizedDocument, tokenize
from rankexplain.perturb import (
    SAMPLER_KINDS,
    SamplerConfig,
    _bernoulli_samples,
    _masking_window_count,
    draw_samples,
    masking_sampler,
    random_sampler,
    tfidf_sampler,
)
from rankexplain.pointwise import EXS_VARIANTS, PointwiseParams, _perturbation_design, exs_targets, fit_weighted_ridge
from rankexplain.rankers import BM25Ranker, LMDirRanker, LMJMRanker, RankedList, RunEntry, _SparseRanker
from rankexplain.rng import XorShift64Star, block_u64

from conftest import index_state, make_vocab, random_corpus

OOV = "zzoov"

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def indexes(draw, min_docs=1, prefixes=st.just("d"), max_empty=0):
    """A random index and its vocabulary; up to ``max_empty`` of its documents have no tokens."""
    seed = draw(st.integers(0, 2**64 - 1))
    n_docs = draw(st.integers(min_docs, 12))
    vocab = make_vocab(draw(st.integers(2, 12)))
    min_len = draw(st.integers(1, 6))
    max_len = draw(st.integers(min_len, 20))
    prefix = draw(prefixes)
    corpus = random_corpus(XorShift64Star(seed), n_docs, vocab, min_len=min_len, max_len=max_len, prefix=prefix)
    corpus += [Document(f"{prefix}e{i}", draw(st.sampled_from(["", "the of"])))
               for i in range(draw(st.integers(0, max_empty)))]
    return build_index(corpus), vocab


def ranker_params():
    defaults = RankerParams()
    return st.builds(
        RankerParams,
        k1=st.sampled_from([defaults.k1, 0.0, 1.2, 3.0]),
        b=st.sampled_from([defaults.b, 0.0, 0.75, 1.0]),
        jm_lambda=st.sampled_from([defaults.jm_lambda, 0.01, 0.5, 0.99]),
        dirichlet_mu=st.sampled_from([defaults.dirichlet_mu, 0.5, 10.0, 2500.0]),
    )


rankers = st.tuples(st.sampled_from(["bm25", "lmjm", "lmdir"]), ranker_params())


def query_terms(vocab, min_size=0):
    """Terms of the vocabulary plus one out-of-vocabulary term, repeats allowed."""
    return st.lists(st.sampled_from(vocab + [OOV]), min_size=min_size, max_size=5)


def reference_run(pairs, depth):
    """``RunEntry``s of the (docid, score) pairs by score descending, ties by ascending docid, cut to ``depth``."""
    ordered = sorted(pairs, key=lambda p: (-p[1], p[0]))[:depth]
    return [RunEntry(d, i, s) for i, (d, s) in enumerate(ordered, start=1)]


def reference_fidelity(index, sm, query, ranked, p, terms):
    """The unoptimized evaluation: expand the query, re-rank the pool, take RBO.

    Returns the expanded terms, the re-ranked list and its RBO.
    """
    expanded = list(query.terms)
    for t in terms:
        if t not in expanded:
            expanded.append(t)
    q_exp = Query.from_terms(query.qid, expanded)
    approx = rank(index, sm, q_exp, pool=ranked.docids, depth=len(ranked))
    return expanded, approx, rbo(approx.docids, ranked.docids, p)


@PROPERTY_SETTINGS
@given(st.data(), indexes(), rankers)
def test_term_scores_equal_one_term_query_scores(data, built, ranker_spec):
    index, vocab = built
    sm = make_ranker(index, *ranker_spec)
    docids = data.draw(st.permutations(index.doc_ids()))
    terms = vocab + [OOV]
    expected = [[sm.score(Query.from_terms("", [term]), d) for d in docids] for term in terms]
    assert sm.term_rows(terms, docids).tolist() == expected


def reference_term_score(ranker, term, tf, dl):
    """One term's contribution to a sparse ranker's score, from its tf and the document length.

    Each model's formula in the library's operation order, with ``math.log``.
    """
    index, params = ranker.index, ranker.params
    if isinstance(ranker, BM25Ranker):
        if tf == 0:
            return 0.0
        avgdl = index.avgdl
        norm = 1.0 - params.b + params.b * (dl / avgdl) if avgdl > 0 else 1.0
        return index.idf(term) * tf * (params.k1 + 1.0) / (tf + params.k1 * norm)
    cf = index.cf(term)
    if cf == 0:
        return 0.0
    p_coll = cf / index.total_tokens
    if isinstance(ranker, LMJMRanker):
        p_doc = tf / dl if dl > 0 else 0.0
        return math.log((1.0 - params.jm_lambda) * p_doc + params.jm_lambda * p_coll)
    assert isinstance(ranker, LMDirRanker)
    return math.log((tf + params.dirichlet_mu * p_coll) / (dl + params.dirichlet_mu))


def reference_term_scores(ranker, term, docids):
    """A sparse ranker's ``term_rows`` row: one ``reference_term_score`` per document."""
    index = ranker.index
    return [reference_term_score(ranker, term, index.tf(term, d), index.doc_length(d)) for d in docids]


def reference_score(ranker, query, docid):
    """A sparse ranker's ``score``: the query terms' ``reference_term_score``, added left to right from 0.0."""
    index = ranker.index
    total = 0.0
    for t in query.terms:
        total += reference_term_score(ranker, t, index.tf(t, docid), index.doc_length(docid))
    return total


MODEL_PARAMS = [RankerParams(), RankerParams(k1=0.0, b=0.0, dirichlet_mu=0.5),
                RankerParams(k1=3.0, b=1.0, jm_lambda=0.99, dirichlet_mu=2500.0)]


@pytest.mark.parametrize("params", MODEL_PARAMS)
@pytest.mark.parametrize("model", ["bm25", "lmjm", "lmdir"])
@settings(max_examples=30, deadline=None)
@given(st.data(), indexes(max_empty=2))
def test_score_equals_the_reference_on_every_document(model, params, data, built):
    index, vocab = built
    sm = make_ranker(index, model, params)
    # Repeated terms, a term absent from the collection, and no terms at all.
    query = Query.from_terms("q", data.draw(query_terms(vocab)))
    assert ([repr(sm.score(query, d)) for d in index.doc_ids()]
            == [repr(reference_score(sm, query, d)) for d in index.doc_ids()])


@pytest.mark.parametrize("params", MODEL_PARAMS)
@pytest.mark.parametrize("cls", [BM25Ranker, LMJMRanker, LMDirRanker])
@settings(max_examples=20, deadline=None)
@given(st.data(), indexes())
def test_make_ranker_ranks_as_the_class_of_that_name(cls, params, data, built):
    index, vocab = built
    query = Query.from_terms("q", data.draw(query_terms(vocab)))
    made, built_directly = make_ranker(index, cls.name, params), cls(index, params)
    assert type(made) is cls and made.params is params
    for pool in (None, index.doc_ids()):
        assert repr(rank(index, made, query, pool)) == repr(rank(index, built_directly, query, pool))


@pytest.mark.parametrize("params", MODEL_PARAMS)
@pytest.mark.parametrize("model", ["bm25", "lmjm", "lmdir"])
@settings(max_examples=30, deadline=None)
@given(st.data(), indexes())
def test_term_rows_equal_the_scalar_term_scores(model, params, data, built):
    index, vocab = built
    sm = make_ranker(index, model, params)
    # Empty lists, repeated terms and docids, and a term absent from the collection.
    terms = data.draw(st.lists(st.sampled_from(vocab + [OOV]), max_size=8))
    docids = data.draw(st.lists(st.sampled_from(index.doc_ids()), max_size=12))
    docids += docids[:data.draw(st.integers(0, len(docids)))]
    block = sm.term_rows(terms, docids)
    assert block.dtype == np.float64 and block.shape == (len(terms), len(docids))
    assert block.tolist() == [reference_term_scores(sm, term, docids) for term in terms]


class ReferenceFidelityEvaluator:
    """The scalar evaluator that ``FidelityEvaluator.batch`` replaced.

    Per call: add a sparse ranker's cached rows in expanded-query order,
    order the docids by ``reference_run`` and take ``quadratic_rbo``,
    capped at 1, over them; any other ranker re-ranks through ``rank``.
    """

    def __init__(self, index, sm, query, ranked, p=0.9, terms=()):
        self.index, self.sm, self.query, self.ranked, self.p = index, sm, query, ranked, p
        self.pool = set(ranked.docids)
        self.calls = 0
        self._docids = sorted(self.pool)
        self._rows = None
        if isinstance(sm, _SparseRanker):
            terms = list(dict.fromkeys([*query.terms, *terms]))
            self._rows = dict(zip(terms, sm.term_rows(terms, self._docids)))

    def _rerank(self, expanded):
        if self._rows is None:
            q_exp = Query.from_terms(self.query.qid, expanded)
            return rank(self.index, self.sm, q_exp, pool=self.pool, depth=len(self.ranked)).docids
        missing = [term for term in dict.fromkeys(expanded) if term not in self._rows]
        if missing:
            self._rows.update(zip(missing, self.sm.term_rows(missing, self._docids)))
        totals = np.zeros(len(self._docids))
        for term in expanded:
            totals += self._rows[term]
        return [e.docid for e in reference_run(zip(self._docids, totals.tolist()), len(self.ranked))]

    def __call__(self, terms):
        expanded = list(self.query.terms)
        for t in terms:
            if t not in expanded:
                expanded.append(t)
        approx = self._rerank(expanded)
        assert set(approx) == self.pool, "re-ranking escaped the pool"
        self.calls += 1
        return min(1.0, quadratic_rbo(approx, self.ranked.docids, self.p))


def reference_greedy_explain(index, sm, query, ranked, candidates, m_max=10, p=0.9):
    """``greedy_explain`` with one scalar fidelity call per candidate."""
    ordered = sorted(candidates, key=lambda c: (-c.salience, c.term))
    evaluate = ReferenceFidelityEvaluator(index, sm, query, ranked, p, [c.term for c in ordered])
    selected = []
    current = evaluate(selected)
    while len(selected) < m_max:
        best_term = None
        best_fid = current
        for cand in ordered:
            if cand.term in selected:
                continue
            fid = evaluate(selected + [cand.term])
            if fid > best_fid:
                best_fid = fid
                best_term = cand.term
        if best_term is None:
            break
        selected.append(best_term)
        current = best_fid
    return ListwiseExplanation(query.qid, "greedy", selected, {f"rbo@{p:g}": current}, evaluate.calls)


def reference_bfs_explain(index, sm, query, ranked, candidates, m_max=10, p=0.9, eval_budget=1000):
    """``bfs_explain`` with one scalar fidelity call per child."""
    order = [c.term for c in sorted(candidates, key=lambda c: (-c.salience, c.term))]
    evaluate = ReferenceFidelityEvaluator(index, sm, query, ranked, p, order)
    baseline = evaluate(())
    evaluate.calls = 0
    best = (baseline, 0, ())
    frontier = [(-baseline, 0, ())]
    seen = {()}
    exhausted = False
    while frontier and not exhausted:
        _, size, terms = heapq.heappop(frontier)
        if size >= m_max:
            continue
        for term in order:
            if term in terms:
                continue
            child = tuple(sorted(terms + (term,)))
            if child in seen:
                continue
            seen.add(child)
            if evaluate.calls >= eval_budget:
                exhausted = True
                break
            fid = evaluate(child)
            if (-fid, len(child), child) < (-best[0], best[1], best[2]):
                best = (fid, len(child), child)
            heapq.heappush(frontier, (-fid, len(child), child))
    return ListwiseExplanation(query.qid, "bfs", list(best[2]), {f"rbo@{p:g}": best[0]},
                               evaluate.calls, diagnostics={"baseline": baseline})


@PROPERTY_SETTINGS
@given(st.data(), indexes(), rankers, st.sampled_from(["bm25", "lmjm", "lmdir"]))
def test_fidelity_evaluator_equals_reference(data, built, ranker_spec, list_model):
    index, vocab = built
    sm = make_ranker(index, *ranker_spec)
    pool = data.draw(st.lists(st.sampled_from(index.doc_ids()), min_size=1, unique=True))
    query = Query.from_terms("q", data.draw(query_terms(vocab)))
    ranked = rank(index, make_ranker(index, list_model), query, pool=pool, depth=len(pool))
    p = data.draw(st.sampled_from([0.5, 0.9, 0.99]))
    # Rows of the terms given up front come from one block, the others from later calls.
    evaluate = FidelityEvaluator(index, sm, query, ranked, p, data.draw(query_terms(vocab)))
    for terms in data.draw(st.lists(query_terms(vocab), min_size=1, max_size=6)):
        expanded, approx, fidelity = reference_fidelity(index, sm, query, ranked, p, terms)
        assert evaluate(terms) == fidelity
        # The summed rows are rank's scores to the bit, not only the same order.
        totals = evaluate._totals([expanded])[0].tolist()
        assert reference_run(zip(evaluate._docids, totals), len(ranked)) == approx.entries


def reference_candidates(index, ranked, top_k, n_candidates):
    """``generate_candidates`` as one running sum per term in a dict, sorting the whole table."""
    salience = {}
    for entry in ranked.entries[:top_k]:
        for term, tf in Counter(index.doc_tokens(entry.docid)).items():
            salience[term] = salience.get(term, 0.0) + tf * index.idf(term)
    ordered = sorted(salience.items(), key=lambda kv: (-kv[1], kv[0]))
    return [CandidateTerm(term, value) for term, value in ordered[:n_candidates]]


@st.composite
def indexes_with_copies(draw):
    """An index whose documents repeat drawn texts: copies give terms equal df and tf, so tied saliences."""
    index, vocab = draw(indexes())
    texts = [" ".join(index.doc_tokens(d)) for d in index.doc_ids()]
    texts += draw(st.lists(st.sampled_from(texts), max_size=12))
    return build_index([Document(f"d{i:03d}", text) for i, text in enumerate(texts)]), vocab


@PROPERTY_SETTINGS
@given(st.data(), indexes_with_copies())
def test_candidates_equal_the_full_sort_reference(data, built):
    index, vocab = built
    ranked = rank(index, make_ranker(index, "bm25"), Query.from_terms("q", data.draw(query_terms(vocab))),
                  pool=index.doc_ids(), depth=len(index.doc_ids()))
    top_k = data.draw(st.just(len(ranked)) | st.integers(1, len(ranked)))
    # The pool holds at most len(vocab) terms, so some counts exceed it.
    n_candidates = data.draw(st.integers(1, len(vocab) + 3))
    candidates = generate_candidates(index, ranked, top_k, n_candidates)
    assert candidates == reference_candidates(index, ranked, top_k, n_candidates)
    assert all(type(c.salience) is float for c in candidates)


def reference_lmjm_ground_truth(index, query, ranked, top_n, lam, n_terms):
    """``lmjm_ground_truth``'s weights from one scalar Jelinek-Mercer mixture per (term, top document)."""
    ranker = LMJMRanker(index, RankerParams(jm_lambda=lam))
    docids = ranked.docids[:top_n]
    log_likelihoods = [ranker.score(query, d) for d in docids]
    top = max(log_likelihoods)
    doc_weights = [math.exp(s - top) for s in log_likelihoods]
    counts = [Counter(index.doc_tokens(d)) for d in docids]
    raw = {}
    for term in index.vocabulary:
        mass = 0.0
        for tf, docid, weight in zip(counts, docids, doc_weights):
            dl = index.doc_length(docid)
            p_doc = tf.get(term, 0) / dl if dl > 0 else 0.0
            p_coll = index.cf(term) / index.total_tokens
            mass += ((1.0 - lam) * p_doc + lam * p_coll) * weight
        if mass > 0.0:
            raw[term] = mass
    kept = sorted(raw.items(), key=lambda kv: (-kv[1], kv[0]))[:n_terms]
    total = left_sum(w for _, w in kept)
    return [(t, w / total) for t, w in kept]


@PROPERTY_SETTINGS
@given(st.data(), indexes_with_copies(), st.sampled_from([0.01, 0.1, 0.5, 0.99]))
def test_lmjm_ground_truth_equals_the_scalar_reference(data, built, lam):
    index, vocab = built
    query = Query.from_terms("q", data.draw(query_terms(vocab, min_size=1)))
    ranked = rank(index, make_ranker(index, "lmjm"), query, pool=index.doc_ids(), depth=len(index.doc_ids()))
    top_n = data.draw(st.integers(1, len(ranked)))
    n_terms = data.draw(st.integers(1, len(vocab) + 3))
    truth = lmjm_ground_truth(index, query, ranked, top_n, lam, n_terms)
    assert list(truth.weights.items()) == reference_lmjm_ground_truth(index, query, ranked, top_n, lam, n_terms)


@st.composite
def explained_pools(draw):
    """An index of 1, 2 or up to 200 documents, all of them the pool, and an explained order of the pool.

    Few terms over many short documents give long runs of tied scores.
    """
    seed = draw(st.integers(0, 2**64 - 1))
    n_docs = draw(st.sampled_from([1, 2]) | st.integers(3, 200))
    vocab = make_vocab(draw(st.integers(2, 8)))
    corpus = random_corpus(XorShift64Star(seed), n_docs, vocab, min_len=1,
                           max_len=draw(st.integers(1, 12)))
    index = build_index(corpus)
    order = draw(st.permutations(index.doc_ids()))
    ranked = RankedList.from_entries("q", [RunEntry(d, i, -float(i)) for i, d in enumerate(order, 1)])
    return index, vocab, ranked


@settings(max_examples=80, deadline=None)
@given(st.data(), explained_pools(), rankers, st.sampled_from([0.5, 0.9, 0.99]))
def test_fidelity_batch_equals_the_scalar_reference(data, explained, ranker_spec, p):
    index, vocab, ranked = explained
    sm = make_ranker(index, *ranker_spec)
    query = Query.from_terms("q", data.draw(query_terms(vocab)))
    evaluate = FidelityEvaluator(index, sm, query, ranked, p, data.draw(query_terms(vocab)))
    reference = ReferenceFidelityEvaluator(index, sm, query, ranked, p)
    # Sets of different lengths with repeated and absent terms, the empty set, the
    # query's own terms and a set repeating another.
    sets = data.draw(st.lists(query_terms(vocab), min_size=1, max_size=8))
    sets += [(), query.terms, sets[0]]
    expected = [reference(terms) for terms in sets]
    assert evaluate.batch(sets) == expected
    assert [evaluate(terms) for terms in sets] == expected
    assert evaluate.calls == 2 * len(sets)


@st.composite
def search_candidates(draw, vocab):
    """Candidate terms with tied saliences, a repeated term and a term absent from the collection."""
    terms = draw(st.lists(st.sampled_from(vocab + [OOV]), min_size=1, max_size=7))
    return [CandidateTerm(t, draw(st.sampled_from([0.0, 1.0, 2.5]))) for t in terms]


@PROPERTY_SETTINGS
@given(st.data(), indexes(min_docs=2), rankers, st.integers(0, 4), st.sampled_from([0.5, 0.9, 0.99]),
       st.booleans())
def test_search_explainers_equal_the_scalar_reference(data, built, ranker_spec, m_max, p, opaque):
    index, vocab = built
    sm = make_ranker(index, *ranker_spec)
    if opaque:
        sm = HiddenIntentRanker(sm, [(vocab[0], 2.0)])
    query = Query.from_terms("q", data.draw(query_terms(vocab)))
    pool = data.draw(st.lists(st.sampled_from(index.doc_ids()), min_size=2, unique=True))
    ranked = rank(index, make_ranker(index, "bm25"), Query.from_terms("q", data.draw(query_terms(vocab))),
                  pool=pool, depth=len(pool))
    candidates = data.draw(search_candidates(vocab))
    # Budgets from 1 up cut an expansion anywhere in its children.
    budget = data.draw(st.integers(1, 40))

    def fields(expl):
        return expl.terms, expl.fidelity, expl.evaluations_used, expl.diagnostics

    assert fields(greedy_explain(index, sm, query, ranked, candidates, m_max=m_max, p=p)) == fields(
        reference_greedy_explain(index, sm, query, ranked, candidates, m_max=m_max, p=p))
    assert fields(bfs_explain(index, sm, query, ranked, candidates, m_max=m_max, p=p,
                              eval_budget=budget)) == fields(
        reference_bfs_explain(index, sm, query, ranked, candidates, m_max=m_max, p=p,
                              eval_budget=budget))


@PROPERTY_SETTINGS
@given(st.data(), indexes(), rankers)
def test_score_equals_score_tokens_of_doc_tokens(data, built, ranker_spec):
    index, vocab = built
    sm = make_ranker(index, *ranker_spec)
    query = Query.from_terms("q", data.draw(query_terms(vocab, min_size=1)))
    for docid in index.doc_ids():
        assert sm.score(query, docid) == sm.score_tokens(query, index.doc_tokens(docid))


@PROPERTY_SETTINGS
@given(st.data(), indexes(min_docs=2), st.lists(rankers, min_size=1, max_size=3))
def test_preference_matrix_equals_pairwise_signs(data, built, ranker_specs):
    index, vocab = built
    docids = index.doc_ids()
    simple = [make_ranker(index, *spec) for spec in ranker_specs]
    terms = data.draw(st.lists(st.sampled_from(vocab + [OOV]), min_size=1, unique=True))
    candidates = [CandidateTerm(t, 0.0) for t in terms]
    pair_docs = st.lists(st.sampled_from(docids), min_size=2, max_size=2, unique=True)
    pairs = [PreferencePair(u, l, 1) for u, l in data.draw(st.lists(pair_docs, min_size=1))]
    matrix = build_preference_matrix(index, simple, candidates, pairs)
    for r, ranker in enumerate(simple):
        for t, term in enumerate(terms):
            query = Query.from_terms("", [term])
            for p, pair in enumerate(pairs):
                diff = ranker.score(query, pair.upper) - ranker.score(query, pair.lower)
                assert matrix.entries[r, t, p] == (diff > 0) - (diff < 0)


def reference_build_preference_matrix(index, simple_rankers, candidates, pairs):
    """``build_preference_matrix`` as it was: one array and one sign per candidate row.

    A sparse ranker's row is the scalar ``reference_term_scores``; any
    other ranker's is its score of the one-term query per document.
    """
    if not simple_rankers:
        raise ValueError("need at least one simple ranker")
    if not candidates:
        raise ValueError("need at least one candidate term")
    if not pairs:
        raise ValueError("need at least one preference pair")
    docids = sorted({p.upper for p in pairs} | {p.lower for p in pairs})
    column = {d: i for i, d in enumerate(docids)}
    upper = np.array([column[p.upper] for p in pairs])
    lower = np.array([column[p.lower] for p in pairs])
    entries = np.zeros((len(simple_rankers), len(candidates), len(pairs)), dtype=np.int8)
    for r, ranker in enumerate(simple_rankers):
        for t, cand in enumerate(candidates):
            one_term = Query.from_terms("", [cand.term])
            row = (reference_term_scores(ranker, cand.term, docids) if isinstance(ranker, _SparseRanker)
                   else [ranker.score(one_term, d) for d in docids])
            row = np.array(row, dtype=np.float64)
            diff = row[upper] - row[lower]
            entries[r, t] = (diff > 0).astype(np.int8) - (diff < 0).astype(np.int8)
    return PreferenceMatrix(
        rankers=[r.name for r in simple_rankers],
        candidates=list(candidates),
        pairs=list(pairs),
        entries=entries,
    )


def reference_greedy_cover(layer, candidates, m_min, m_max):
    """The greedy cover as it was: one numpy call and one key per candidate."""
    n_terms, n_pairs = layer.shape
    selected = []
    running = np.zeros(n_pairs, dtype=np.int64)
    evaluations = 0

    def covered(vec):
        return int(np.count_nonzero(vec > 0))

    while len(selected) < min(m_max, n_terms):
        best_idx = None
        best_key = None
        base_cov = covered(running)
        for t in range(n_terms):
            if t in selected:
                continue
            gain = covered(running + layer[t]) - base_cov
            evaluations += 1
            key = (-gain, -candidates[t].salience, candidates[t].term)
            if best_key is None or key < best_key:
                best_key = key
                best_idx = t
        if best_idx is None:
            break
        best_gain = -best_key[0]
        if best_gain <= 0 and len(selected) >= m_min:
            break
        selected.append(best_idx)
        running += layer[best_idx]
    coverage = covered(running) / n_pairs
    terms = [candidates[t].term for t in selected]
    return terms, coverage, evaluations


def reference_coverage_explanation(method, layer, matrix, m_min, m_max, qid=""):
    """``_coverage_explanation`` as it was, over the kept greedy cover."""
    if m_min < 0 or m_max < m_min:
        raise ValueError(f"need 0 <= m_min <= m_max, got {m_min}, {m_max}")
    terms, coverage, evaluations = reference_greedy_cover(layer, matrix.candidates, m_min, m_max)
    diagnostics = {}
    if coverage == 0.0:
        diagnostics["zero_coverage"] = True
    return ListwiseExplanation(
        qid=qid,
        method=method,
        terms=terms,
        fidelity={"coverage": coverage},
        evaluations_used=evaluations,
        diagnostics=diagnostics,
    )


# A PreferenceMatrix holds only these, whether built or read from JSON.
matrix_entries = st.sampled_from([-1, 0, 1])


@st.composite
def coverage_matrices(draw):
    """A matrix of 1-3 rankers whose candidates repeat terms and tie saliences on purpose."""
    n_rankers = draw(st.integers(1, 3))
    n_terms = draw(st.integers(1, 8))
    n_pairs = draw(st.integers(1, 8))
    candidates = [CandidateTerm(draw(st.sampled_from(["a", "b", "c", "d"])),
                                draw(st.sampled_from([0.0, 1.0, 2.5, -1.0])))
                  for _ in range(n_terms)]
    values = draw(st.lists(matrix_entries, min_size=n_rankers * n_terms * n_pairs,
                           max_size=n_rankers * n_terms * n_pairs))
    entries = np.array(values, dtype=np.int8).reshape(n_rankers, n_terms, n_pairs)
    pairs = [PreferencePair(f"u{p}", f"v{p}", 1) for p in range(n_pairs)]
    return PreferenceMatrix([f"r{r}" for r in range(n_rankers)], candidates, pairs, entries)


@PROPERTY_SETTINGS
@given(coverage_matrices(), st.integers(0, 6), st.integers(0, 4))
def test_coverage_explainers_equal_reference(matrix, m_min, extra):
    m_max = m_min + extra       # both may exceed the number of candidates
    single = PreferenceMatrix(matrix.rankers[:1], matrix.candidates, matrix.pairs, matrix.entries[:1])
    cases = [(intent_exs_explain, "intent_exs", single, single.entries[0]),
             (multiplex_explain, "multiplex", matrix, matrix.consensus)]
    for explain, method, m, layer in cases:
        expl = explain(m, m_min, m_max, qid="q")
        expected = reference_coverage_explanation(method, layer, m, m_min, m_max, qid="q")
        assert expl.as_dict() == expected.as_dict()
        assert expl.diagnostics == expected.diagnostics
        assert type(expl.fidelity["coverage"]) is float


@PROPERTY_SETTINGS
@given(st.data(), indexes(min_docs=2), st.lists(rankers, min_size=1, max_size=3), st.booleans())
def test_preference_matrix_equals_reference(data, built, ranker_specs, hidden):
    index, vocab = built
    simple = [make_ranker(index, *spec) for spec in ranker_specs]
    if hidden:      # an opaque ranker: rows come from the Ranker.term_rows default
        weights = st.tuples(st.sampled_from(vocab), st.sampled_from([0.5, 2.5]))
        simple.append(HiddenIntentRanker(simple[0], data.draw(st.lists(weights, max_size=3))))
    terms = data.draw(st.lists(st.sampled_from(vocab + [OOV]), min_size=1, max_size=12))
    candidates = [CandidateTerm(t, 0.0) for t in terms]
    pair_docs = st.lists(st.sampled_from(index.doc_ids()), min_size=2, max_size=2, unique=True)
    pairs = [PreferencePair(u, l, 1) for u, l in data.draw(st.lists(pair_docs, min_size=1))]
    matrix = build_preference_matrix(index, simple, candidates, pairs)
    expected = reference_build_preference_matrix(index, simple, candidates, pairs)
    assert matrix.entries.dtype == np.int8
    assert np.array_equal(matrix.entries, expected.entries)
    assert (matrix.rankers, matrix.candidates, matrix.pairs) == \
        (expected.rankers, expected.candidates, expected.pairs)


class NaNForOneDoc(Ranker):
    """An opaque ranker scoring tf of the query terms, and NaN for one document."""

    name = "nan_for_one_doc"

    def __init__(self, index, nan_docid):
        self.index = index
        self.nan_docid = nan_docid

    def score(self, query, docid):
        if docid == self.nan_docid:
            return math.nan
        return float(sum(self.index.tf(t, docid) for t in query.terms))

    def score_tokens(self, query, tokens):
        raise NotImplementedError


def test_nan_score_gives_entry_0_without_warning():
    index = build_index([Document("a", "qq"), Document("b", "qq qq"), Document("c", "ww")])
    ranker = NaNForOneDoc(index, "b")
    candidates = [CandidateTerm("qq", 1.0), CandidateTerm("ww", 1.0)]
    pairs = [PreferencePair("b", "a", 1), PreferencePair("a", "c", 1), PreferencePair("c", "b", 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix = build_preference_matrix(index, [ranker], candidates, pairs)
        expected = reference_build_preference_matrix(index, [ranker], candidates, pairs)
    assert matrix.entries.tolist() == [[[0, 1, 0], [0, -1, 0]]]
    assert np.array_equal(matrix.entries, expected.entries)


@PROPERTY_SETTINGS
@given(st.data(), indexes(), rankers)
def test_rank_does_not_depend_on_pool_order(data, built, ranker_spec):
    index, vocab = built
    sm = make_ranker(index, *ranker_spec)
    query = Query.from_terms("q", data.draw(query_terms(vocab)))
    pool = data.draw(st.lists(st.sampled_from(index.doc_ids()), min_size=1, unique=True))
    depth = data.draw(st.integers(1, len(pool) + 2))
    expected = rank(index, sm, query, pool=sorted(pool), depth=depth)
    for other in (data.draw(st.permutations(pool)), set(pool), tuple(reversed(pool))):
        assert rank(index, sm, query, pool=other, depth=depth) == expected


class FixedScores(Ranker):
    """An opaque ranker that gives each docid one score, whatever the query."""

    name = "fixed"

    def __init__(self, scores):
        self.scores = scores

    def score(self, query, docid):
        return self.scores[docid]

    def score_tokens(self, query, tokens):
        raise NotImplementedError


# Ties, both zeros, an int zero and both infinities, beside any other finite float.
SCORES = st.one_of(st.sampled_from([0, 0.0, -0.0, 1.5, -2.0, math.inf, -math.inf]), st.floats(allow_nan=False))


def entries_of(entries):
    """(docid, rank, score repr) of each entry, so two lists compare by their scores' bits."""
    return [(e.docid, e.rank, repr(e.score)) for e in entries]


@PROPERTY_SETTINGS
@given(st.data(), indexes())
def test_rank_equals_the_sort_reference(data, built):
    index, vocab = built
    docids = index.doc_ids()
    scores = {d: data.draw(SCORES) for d in docids}
    ranker = FixedScores(scores)
    query = Query.from_terms("q", data.draw(query_terms(vocab)))
    pool = data.draw(st.lists(st.sampled_from(docids), unique=True))
    depth = data.draw(st.integers(1, len(docids) + 2))
    matching = set().union(*map(index.postings, query.terms))
    assert entries_of(rank(index, ranker, query, depth=depth).entries) == \
        entries_of(reference_run([(d, scores[d]) for d in matching], depth))
    assert entries_of(rank(index, ranker, query, pool=pool, depth=depth).entries) == \
        entries_of(reference_run([(d, scores[d]) for d in pool], depth))


@PROPERTY_SETTINGS
@given(st.data(), indexes())
def test_a_nan_score_raises_naming_the_first_such_docid(data, built):
    index, _ = built
    docids = index.doc_ids()
    nan_docids = data.draw(st.lists(st.sampled_from(docids), min_size=1, unique=True))
    scores = {d: math.nan if d in nan_docids else data.draw(SCORES) for d in docids}
    ranker = FixedScores(scores)
    message = re.escape(f"qid 'q': docid {min(nan_docids)!r} has a NaN score")
    every_term = Query.from_terms("q", index.vocabulary)      # every document holds a term
    for pool in (None, data.draw(st.permutations(docids))):
        with pytest.raises(ValueError, match=message):
            rank(index, ranker, every_term, pool=pool)


@PROPERTY_SETTINGS
@given(indexes(min_docs=0, max_empty=2))
def test_save_then_load_equals_the_built_index(built):
    index, vocab = built
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index.idx")
        index.save(path)
        loaded = PositionalIndex.load(path)
    assert index_state(loaded) == index_state(index)
    assert loaded.avgdl == index.avgdl
    for term in vocab + [OOV]:
        assert (loaded.df(term), loaded.cf(term), loaded.idf(term)) == \
            (index.df(term), index.cf(term), index.idf(term))
    for docid in index.doc_ids():
        assert loaded.doc_tokens(docid) == index.doc_tokens(docid)


def reference_doc_tokens(index: PositionalIndex, docid: str) -> tuple:
    """The scan over every posting list that rebuilt a token stream before the index kept them."""
    slots = [(pos, term) for term in index.vocabulary for pos in index.positions(term, docid)]
    return tuple(term for _, term in sorted(slots))


@PROPERTY_SETTINGS
@given(indexes(min_docs=0))
def test_kept_token_streams_equal_the_posting_scan(built):
    index, _ = built
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index.json")
        index.save(path)
        loaded = PositionalIndex.load(path)
    for copy in (index, loaded):
        assert copy.doc_ids() == index.doc_ids()
        for docid in index.doc_ids():
            expected = reference_doc_tokens(index, docid)
            assert copy.doc_tokens(docid) == expected
            assert copy.doc_length(docid) == len(expected)


def reference_index_file(index: PositionalIndex) -> bytes:
    """Version 3 of the index file, from the public accessors: a JSON header line, then each token as int32."""
    vocabulary, docids = index.vocabulary, index.doc_ids()
    header = {"config": index.config.to_dict(), "docids": docids, "lengths": list(map(index.doc_length, docids)),
              "version": 3, "vocabulary": vocabulary}
    ordinal = {term: u for u, term in enumerate(vocabulary)}
    ordinals = [ordinal[t] for d in docids for t in index.doc_tokens(d)]
    return (json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8") \
        + struct.pack(f"<{len(ordinals)}i", *ordinals)


@PROPERTY_SETTINGS
@given(indexes(min_docs=0, prefixes=st.sampled_from(["d", "dé-", '"q\\', "\u2603"]), max_empty=2))
def test_save_writes_the_reference_bytes(built):
    index, _ = built
    with tempfile.TemporaryDirectory() as tmp:
        saved = os.path.join(tmp, "saved.idx")
        index.save(saved)
        with open(saved, "rb") as f:
            assert f.read() == reference_index_file(index)
        assert index_state(PositionalIndex.load(saved)) == index_state(index)


def reference_inversion(corpus) -> tuple:
    """term -> {docid: [positions]} and docid -> token stream, by one walk over each analyzed document."""
    postings, streams = {}, {}
    for doc in corpus:
        streams[doc.docid] = tokens = tuple(tokenize(doc.text))
        for pos, term in enumerate(tokens):
            postings.setdefault(term, {}).setdefault(doc.docid, []).append(pos)
    return postings, streams


def assert_index_equals_reference(index, postings, streams):
    vocabulary, n = sorted(postings), len(streams)
    assert index.vocabulary == vocabulary and index.doc_ids() == sorted(streams)
    assert index.avgdl == (sum(map(len, streams.values())) / n if n else 0.0)
    singles = {}        # position -> the one (p,) tuple every one-position posting holds
    for term in vocabulary + [OOV]:
        held = postings.get(term, {})
        df = len(held)
        assert index.postings(term) == {d: tuple(ps) for d, ps in held.items()}
        assert (index.df(term), index.cf(term)) == (df, sum(map(len, held.values())))
        assert index.idf(term) == (math.log(1.0 + (n - df + 0.5) / (df + 0.5)) if df else 0.0)
        for docid in streams:
            assert index.positions(term, docid) == held.get(docid, [])
            assert index.tf(term, docid) == len(held.get(docid, []))
        for ps in index.postings(term).values():
            if len(ps) == 1:
                assert singles.setdefault(ps[0], ps) is ps
    for u, term in enumerate(vocabulary):      # the record's scalars and the ordinal arrays agree
        assert (index.cf_by_ordinal[u], index.idf_by_ordinal[u]) == (index.cf(term), index.idf(term))
    for docid, tokens in streams.items():
        assert index.doc_tokens(docid) == tokens
        counted = sorted(Counter(tokens).items())
        ordinals, counts = index.doc_terms(docid)
        assert ordinals.tolist() == [vocabulary.index(t) for t, _ in counted]
        assert counts.tolist() == [c for _, c in counted]


@st.composite
def corpora(draw):
    """One to a few documents, or enough for several chunks of inversion; empty ones and repeats."""
    seed = draw(st.integers(0, 2**64 - 1))
    n_docs = draw(st.one_of(st.integers(1, 4), st.integers(60, 140)))
    vocab = make_vocab(draw(st.integers(1, 12)))
    max_len = draw(st.integers(0, 12))
    return random_corpus(XorShift64Star(seed), n_docs, vocab, min_len=0, max_len=max_len)


@PROPERTY_SETTINGS
@given(corpora())
def test_built_and_reloaded_index_equal_the_dict_reference(corpus):
    postings, streams = reference_inversion(corpus)
    built = build_index(corpus)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index.json")
        built.save(path)
        loaded = PositionalIndex.load(path)
    for index in (built, loaded):
        assert_index_equals_reference(index, postings, streams)


def reference_invert(stream, starts, docids, n_terms):
    """``index._invert`` as it was before its sort took unique keys: a stable argsort of each chunk's keys."""
    cf = np.bincount(stream, minlength=n_terms)
    singles = [(p,) for p in range(int(np.diff(starts).max(initial=0)))]
    by_ordinal = [{} for _ in range(n_terms)]
    for start in range(0, len(docids), index_module._ROW_CHUNK):
        chunk_ids = docids[start:start + index_module._ROW_CHUNK]
        bounds = starts[start:start + index_module._ROW_CHUNK + 1]
        keys = index_module._keys(stream[bounds[0]:bounds[-1]], np.diff(bounds), n_terms)
        order = np.argsort(keys, kind="stable")
        first, tfs, run_row, run_ordinal = index_module._runs(keys[order], n_terms)
        positions = (order - np.repeat(bounds[run_row] - bounds[0], tfs)).tolist()
        for docid, u, p, tf in zip(map(chunk_ids.__getitem__, run_row.tolist()), run_ordinal.tolist(),
                                   first.tolist(), tfs.tolist()):
            by_ordinal[u][docid] = singles[positions[p]] if tf == 1 else tuple(positions[p:p + tf])
    return by_ordinal, cf


@PROPERTY_SETTINGS
@given(corpora())
def test_the_inversion_equals_the_stable_argsort_reference(corpus):
    index = build_index(corpus)
    args = index._stream, index._starts, index.doc_ids(), len(index.vocabulary)
    (by_ordinal, cf), (expected, expected_cf) = index_module._invert(*args), reference_invert(*args)
    assert [list(p.items()) for p in by_ordinal] == [list(p.items()) for p in expected]
    assert cf.tolist() == expected_cf.tolist()


@PROPERTY_SETTINGS
@given(st.data(), corpora())
def test_postings_and_matching_docs_run_in_docid_order(data, corpus):
    # Drawn docids, so that the corpus order is not the sorted order ("d10" < "d9").
    names = data.draw(st.lists(st.text("ab9Zé-", min_size=1, max_size=4), min_size=len(corpus),
                               max_size=len(corpus), unique=True))
    corpus = [Document(name, doc.text) for name, doc in zip(names, corpus)]
    built = build_index(corpus)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index.json")
        built.save(path)
        loaded = PositionalIndex.load(path)
    terms = built.vocabulary + [OOV]
    drawn = data.draw(st.lists(st.lists(st.sampled_from(terms), max_size=5), min_size=1, max_size=4))
    for index in (built, loaded):
        for term in terms:
            assert list(index.postings(term)) == sorted(index.postings(term))
        for query in drawn + [terms]:
            assert index.matching_docs(query) == sorted(set().union(*map(index.postings, query)))


@PROPERTY_SETTINGS
@given(st.data(), corpora())
def test_doc_terms_of_a_docid_list_equal_each_documents_counted_tokens(data, corpus):
    # Docids in a drawn (rank) order with repeats, from any chunk of inversion; some streams are empty.
    index = build_index(corpus)
    vocabulary = index.vocabulary
    docids = data.draw(st.lists(st.sampled_from(index.doc_ids()), max_size=30))
    expected = [(vocabulary.index(t), c) for d in docids for t, c in sorted(Counter(index.doc_tokens(d)).items())]
    ordinals, counts = index.doc_terms(*docids)
    assert list(zip(ordinals.tolist(), counts.tolist())) == expected


# -- pointwise targets ---------------------------------------------------------


@PROPERTY_SETTINGS
@given(st.data(), indexes(), st.sampled_from(["bm25", "lmjm", "lmdir"]))
def test_exs_targets_do_not_decrease_as_the_score_rises(data, built, model):
    # LM scores are negative log-likelihoods; the targets must not flip with the sign.
    index, vocab = built
    query = Query.from_terms("q", data.draw(query_terms(vocab, min_size=1)))
    base = rank(index, make_ranker(index, model), query, pool=index.doc_ids(), depth=len(index.doc_ids()))
    exs_k = data.draw(st.integers(1, len(base)))
    s_top = base.score_at(1)
    base_scores = [e.score for e in base.entries]
    shifted = [s_top + f * abs(s_top) for f in (-0.5, -0.2, 0.2, 0.5)]
    extra = data.draw(st.lists(st.floats(-100, 100), max_size=10))
    scores = np.array(sorted(base_scores + shifted + extra))
    for variant in EXS_VARIANTS:
        if variant == "score_ratio" and s_top == 0:
            continue
        targets = exs_targets(scores, base, variant, exs_k)
        assert np.all(np.diff(targets) >= 0), variant


def per_sample_fields(doc, kept_mask):
    """The per-sample derivation the mask-matrix design replaced: surviving
    tokens, the presence vector over the sorted distinct terms, the distance."""
    surviving = tuple(tok for tok, keep in zip(doc.tokens, kept_mask) if keep)
    present = set(surviving)
    features = tuple(1 if t in present else 0 for t in doc.distinct_terms())
    distance = 1.0 - sum(kept_mask) / len(doc.tokens)
    return surviving, features, distance


@PROPERTY_SETTINGS
@given(st.data(), indexes(), st.sampled_from(SAMPLER_KINDS),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       st.integers(1, 40), st.integers(0, 2**64 - 1), st.sampled_from([0.25, 1.0, 3.0]))
def test_perturbation_design_equals_per_sample_derivation(data, built, kind, rate, n_samples, seed, width):
    index, _ = built
    docid = data.draw(st.sampled_from(index.doc_ids()))
    doc = index.tokenized_doc(docid)
    assume(len(set(doc.tokens)) >= 2)
    sampler = SamplerConfig(kind=kind, rate=rate, chunk=data.draw(st.integers(1, len(doc.tokens))),
                            n_samples=n_samples, seed=seed)
    doc_tokens, kept, terms, X, kernel = _perturbation_design(
        index, docid, PointwiseParams(sampler=sampler, kernel_width=width))
    fields = [per_sample_fields(doc, s.kept_mask) for s in draw_samples(doc, sampler, index=index)]
    distances = np.array([distance for _, _, distance in fields])
    tokens = np.array(doc.tokens, dtype=object)
    assert doc_tokens == doc.tokens and terms == doc.distinct_terms()
    assert [tuple(tokens[row]) for row in kept] == [surviving for surviving, _, _ in fields]
    assert np.array_equal(X, np.array([features for _, features, _ in fields], dtype=float))
    assert np.array_equal(kernel, np.exp(-(distances ** 2) / (width ** 2)))


def fit_bits(fit):
    """A surrogate fit with its floats as bytes, so equal means equal to the bit."""
    floats = np.array([*fit.weights.values(), fit.intercept, fit.weighted_residual_norm])
    return list(fit.weights), floats.tobytes(), fit.sample_count, fit.solver


@PROPERTY_SETTINGS
@given(st.integers(1, 200), st.integers(1, 200), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-3, 1.0]))
def test_ridge_fit_does_not_depend_on_the_designs_memory_layout(n, d, seed, ridge):
    # A presence design as the pointwise explainers build it, with real targets and kernel weights.
    gen = np.random.default_rng(seed)
    X = (gen.random((n, d)) < 0.7).astype(float)
    y, w = gen.normal(size=n), np.exp(-gen.random(n) ** 2)
    wide = np.zeros((n, 2 * d))
    wide[:, ::2] = X
    fits = [fit_bits(fit_weighted_ridge(design, y, w, ridge))
            for design in (X, np.asfortranarray(X), wide[:, ::2])]
    assert fits[1] == fits[0]
    assert fits[2] == fits[0]


# -- block draws, mask batches and their scores --------------------------------


block_lengths = st.one_of(st.integers(0, 5000),
                          st.sampled_from([2**k + d for k in range(13) for d in (-1, 0, 1)]))


@PROPERTY_SETTINGS
@given(block_lengths, st.integers(0, 2**64 - 1))
def test_block_draws_equal_the_scalar_stream(n, seed):
    block, scalar = XorShift64Star(seed), XorShift64Star(seed)
    assert block_u64(block, n).tolist() == [scalar.next_u64() for _ in range(n)]
    assert block._state == scalar._state


# The sizes a doc-explain op draws (200 samples of 160-280 tokens), each side
# of a lane boundary at 16 steps per lane, and every length up to 300, which
# crosses each point where short blocks change their steps per lane.
OP_BLOCK_LENGTHS = sorted({*range(301), 40_000, 56_000, 2**16 - 1, 2**16 + 1,
                           *(16 * lanes + d for lanes in (17, 100, 2500, 3500, 4096) for d in (-1, 0, 1))})


@pytest.mark.parametrize("seed", [1, 2**64 - 1])
def test_op_sized_blocks_equal_the_scalar_stream(seed):
    scalar = XorShift64Star(seed)
    values, states = [], [scalar._state]       # states[n]: where n scalar draws leave the generator
    for _ in range(OP_BLOCK_LENGTHS[-1]):
        values.append(scalar.next_u64())
        states.append(scalar._state)
    for n in OP_BLOCK_LENGTHS:
        block = XorShift64Star(seed)
        assert block_u64(block, n).tolist() == values[:n], n
        assert block._state == states[n], n
    assert block_u64(XorShift64Star(seed), np.int64(300)).tolist() == values[:300]


@pytest.mark.parametrize("seed", [1, 2**64 - 1])
def test_bernoulli_samples_at_exact_thresholds(seed):
    # Position i's p is row 0's own draw at i, either neighbour of it, 0.0, 1.0
    # or 0.25, whose p * 2**53 is whole; random() < p decides every cell, so
    # row 0 sits exactly on (or one ulp off) each threshold. Below 0.5 the
    # upper neighbour of a draw is no whole multiple of 2**-53, so ceil matters.
    n_samples, n = 3, 24
    rng = XorShift64Star(seed)
    row0 = [rng.random() for _ in range(n)]
    assert any(d < 0.5 for d in row0) and any(d >= 0.5 for d in row0)
    for probs in (row0, [math.nextafter(d, 0.0) for d in row0], [math.nextafter(d, 1.0) for d in row0],
                  [0.0] * n, [1.0] * n, [0.25] * n):
        batch = _bernoulli_samples(probs, n_samples, XorShift64Star(seed))
        scalar = XorShift64Star(seed)
        assert batch.kept.tolist() == [[not scalar.random() < p for p in probs] for _ in range(n_samples)]
    assert _bernoulli_samples(row0, 1, XorShift64Star(seed)).kept.all()


def reference_samples(doc, index, config, rng):
    """The per-token samplers the mask batch replaced: (kept masks, fallback flag)."""
    n = len(doc.tokens)
    if config.kind == "masking":
        k = _masking_window_count(n, config.chunk, config.rate)
        masks = []
        for _ in range(config.n_samples):
            mask = [1] * n
            for _ in range(k):
                start = rng.randbelow(n - config.chunk + 1)
                for pos in range(start, start + config.chunk):
                    mask[pos] = 0
            masks.append(tuple(mask))
        return masks, False
    probs, fallback = [config.rate] * n, False
    if config.kind == "tfidf":
        counts = Counter(doc.tokens)
        weights = [counts[t] * index.idf(t) for t in doc.tokens]
        total = sum(weights)
        fallback = total <= 0.0
        if not fallback:
            probs = [min(1.0, config.rate * n * w / total) for w in weights]
    return [tuple([0 if rng.random() < p else 1 for p in probs]) for _ in range(config.n_samples)], fallback


SAMPLERS = {"random": lambda doc, index, config, rng: random_sampler(doc, config, rng),
            "masking": lambda doc, index, config, rng: masking_sampler(doc, config, rng),
            "tfidf": tfidf_sampler}


@PROPERTY_SETTINGS
@given(st.data(), indexes(), st.sampled_from(SAMPLER_KINDS),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       st.integers(1, 40), st.integers(0, 2**64 - 1), st.booleans())
def test_sampler_batches_equal_the_per_token_reference(data, built, kind, rate, n_samples, seed, unknown):
    index, _ = built
    doc = index.tokenized_doc(data.draw(st.sampled_from(index.doc_ids())))
    if unknown:     # terms the index does not hold: the tfidf sampler falls back to uniform removal
        doc = TokenizedDocument(docid="oov", tokens=(OOV,) * len(doc.tokens))
    config = SamplerConfig(kind=kind, rate=rate, chunk=data.draw(st.integers(1, len(doc.tokens))),
                           n_samples=n_samples, seed=seed)
    rng, reference_rng = XorShift64Star(seed), XorShift64Star(seed)
    batch = SAMPLERS[kind](doc, index, config, rng)
    masks, fallback = reference_samples(doc, index, config, reference_rng)
    assert [s.kept_mask for s in batch] == masks
    assert np.array_equal(batch.kept, np.array(masks, dtype=bool))
    assert [s.uniform_fallback for s in batch] == [fallback] * n_samples
    assert batch.uniform_fallback == fallback
    assert rng._state == reference_rng._state
    again = draw_samples(doc, config, index=index)
    assert np.array_equal(again.kept, batch.kept) and again.uniform_fallback == batch.uniform_fallback


def reference_score_tokens(ranker, query, tokens):
    """The sparse ``score_tokens`` the batch replaced: one ``reference_term_score`` per query term over a Counter.

    Added left to right from 0, as ``sum`` did before Python 3.12.
    """
    counts = Counter(tokens)
    total = 0
    for t in query.terms:
        total += reference_term_score(ranker, t, counts[t], len(tokens))
    return total


@PROPERTY_SETTINGS
@given(st.data(), indexes(), rankers, st.sampled_from(["sparse", "hidden", "linear"]))
def test_masked_scores_equal_score_tokens_of_each_rows_survivors(data, built, ranker_spec, kind):
    index, vocab = built
    sparse = make_ranker(index, *ranker_spec)
    terms = st.sampled_from(vocab + [OOV])
    ranker = {
        "sparse": lambda: sparse,
        "hidden": lambda: HiddenIntentRanker(sparse, data.draw(st.lists(
            st.tuples(terms, st.floats(0.01, 4.0)), max_size=3))),
        "linear": lambda: LinearScorer(index, data.draw(st.dictionaries(
            terms, st.one_of(st.integers(-3, 3), st.floats(-4.0, 4.0)), max_size=4))),
    }[kind]()
    # Query terms absent from the document, absent from the collection (OOV) and repeated.
    query = Query.from_terms("q", data.draw(query_terms(vocab)))
    tokens = index.doc_tokens(data.draw(st.sampled_from(index.doc_ids())))
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=len(tokens), max_size=len(tokens)),
                              max_size=12))
    rows += [[False] * len(tokens), [True] * len(tokens)]       # every token removed, none removed
    survivors = [tuple(t for t, keep in zip(tokens, row) if keep) for row in rows]
    scores = ranker.score_masked(query, tokens, np.array(rows, dtype=bool))
    assert scores.tolist() == [ranker.score_tokens(query, s) for s in survivors]
    if kind == "sparse":
        assert scores.tolist() == [reference_score_tokens(sparse, query, s) for s in survivors]


@pytest.mark.parametrize("params", MODEL_PARAMS)
@pytest.mark.parametrize("model", ["bm25", "lmjm", "lmdir"])
def test_term_blocks_equal_term_scores_over_a_grid(model, params):
    # About 40,000 distinct (tf, dl) pairs per term. np.log differs from
    # math.log in the last bit on roughly one argument in 10,000 here, so
    # this catches a block formula that takes np.log. Each row holds its
    # own shift of the grid's tf, and the terms' idf and cf differ, so a
    # per-term constant broadcast along the columns fails. Bit patterns are
    # compared, since == takes -0.0 for 0.0: the OOV row and BM25's tf = 0
    # cells must be +0.0.
    index = build_index(random_corpus(XorShift64Star(7), 30, make_vocab(40), min_len=50, max_len=300))
    ranker = make_ranker(index, model, params)
    tf, dl = (grid.ravel() for grid in np.meshgrid(np.arange(20), np.arange(2000)))
    terms = ["w00", OOV, "w39", "w00"]
    block_tf = np.stack([np.roll(tf, 7919 * k) for k in range(len(terms))])
    expected = np.array([[reference_term_score(ranker, term, t, d) for t, d in zip(row.tolist(), dl.tolist())]
                         for term, row in zip(terms, block_tf)])
    block = ranker._term_block(terms, block_tf, dl)
    assert block.dtype == np.float64
    assert np.array_equal(block.view(np.uint64), expected.view(np.uint64))


@PROPERTY_SETTINGS
@given(st.data(), indexes(min_docs=2), st.sampled_from(AGGREGATION_MODES))
def test_aggregate_equals_sign_or_majority_of_child_preferences(data, built, mode):
    index, vocab = built
    query = Query.from_terms("q", data.draw(query_terms(vocab, min_size=1)))
    di, dj = data.draw(st.lists(st.sampled_from(index.doc_ids()), min_size=2, max_size=2, unique=True))
    children = tuple(data.draw(st.lists(
        st.tuples(st.sampled_from(AXIOM_NAMES), st.floats(-4.0, 4.0)), min_size=1, max_size=14)))
    prefs = [(axiom_preference(name, index, query, di, dj), weight) for name, weight in children]
    if mode == "weighted_sum_sign":
        total = 0
        for p, w in prefs:      # left to right, as sum did before Python 3.12
            total += p * w
    else:
        total = sum(p for p, _ in prefs)        # votes for minus votes against
    expected = (total > 0) - (total < 0)
    assert aggregate_preference(AggregatedAxiom(children, mode), index, query, di, dj) == expected


# -- axioms: DocStats against the per-call views they replaced -----------------


class ReferenceView:
    """The per-call document view every axiom call built before ``DocStats``."""

    def __init__(self, index, query_terms, docid):
        self.dl = index.doc_length(docid)
        self.tf = {t: index.tf(t, docid) for t in query_terms}
        self.positions = {t: index.positions(t, docid) for t in query_terms}
        self.matched = [t for t in query_terms if self.tf[t] > 0]
        self.sum_tf = sum(self.tf.values())


def _ref_smaller(a, b):
    return 0 if a == b else (1 if a < b else -1)


def _ref_comparable(a, b):
    return a == b or abs(a - b) <= 0.1 * max(a, b)


def _ref_tf_lnc_condition(terms, va, vb):
    diffs = [va.tf[t] - vb.tf[t] for t in terms]
    if any(d < 0 for d in diffs) or not any(d > 0 for d in diffs):
        return False
    return va.dl <= vb.dl + sum(diffs)


def _ref_lb1_condition(va, vb):
    sa, sb = set(va.matched), set(vb.matched)
    return sb < sa and all(_ref_comparable(va.tf[t], vb.tf[t]) for t in sb)


def _ref_pair_averages(view):
    return {(ta, tb): sum(abs(pa - pb) for pa in view.positions[ta] for pb in view.positions[tb])
            / (len(view.positions[ta]) * len(view.positions[tb]))
            for ta, tb in itertools.combinations(view.matched, 2)}


def _ref_total_avg_dist(view):
    pairs = _ref_pair_averages(view)
    return left_sum(pairs.values()) / len(pairs) if pairs else math.inf


def _ref_cover_window(view):
    if not view.matched:
        return math.inf
    events = sorted((p, t) for t in view.matched for p in view.positions[t])
    counts = {}
    covered, best, left = 0, math.inf, 0
    for pos_r, term_r in events:
        counts[term_r] = counts.get(term_r, 0) + 1
        covered += counts[term_r] == 1
        while covered == len(view.matched):
            best = min(best, pos_r - events[left][0] + 1)
            counts[events[left][1]] -= 1
            covered -= counts[events[left][1]] == 0
            left += 1
    return best


def _ref_phrase_position(view, terms):
    if not terms:
        return math.inf
    sets = [set(view.positions[t]) for t in terms]
    for start in view.positions[terms[0]]:
        if all(start + k in s for k, s in enumerate(sets)):
            return start
    return math.inf


def _ref_min_pair_distance(view):
    return min((abs(pa - pb) for ta, tb in itertools.combinations(view.matched, 2)
                for pa in view.positions[ta] for pb in view.positions[tb]), default=math.inf)


def _ref_mean_nearest_other(view):
    if len(view.matched) < 2:
        return math.inf
    distances = []
    for term in view.matched:
        others = [p for t in view.matched if t != term for p in view.positions[t]]
        distances.extend(min(abs(pos - o) for o in others) for pos in view.positions[term])
    return sum(distances) / len(distances)


def _ref_both_ways(condition):
    return lambda index, terms, vi, vj: 1 if condition(vi, vj) else (-1 if condition(vj, vi) else 0)


REFERENCE_AXIOMS = {
    "TFC1": lambda index, terms, vi, vj: (
        _ref_smaller(vj.sum_tf, vi.sum_tf) if _ref_comparable(vi.dl, vj.dl) else 0),
    "TFC3": lambda index, terms, vi, vj: (
        _ref_smaller(len(vj.matched), len(vi.matched))
        if _ref_comparable(vi.dl, vj.dl) and vi.sum_tf == vj.sum_tf else 0),
    "TDC": lambda index, terms, vi, vj: (
        _ref_smaller(left_sum(vj.tf[t] * index.idf(t) for t in terms),
                     left_sum(vi.tf[t] * index.idf(t) for t in terms))
        if _ref_comparable(vi.dl, vj.dl) else 0),
    "LNC1": lambda index, terms, vi, vj: (
        0 if any(vi.tf[t] != vj.tf[t] for t in terms) else _ref_smaller(vi.dl, vj.dl)),
    "TF_LNC": lambda index, terms, vi, vj: _ref_both_ways(
        lambda va, vb: _ref_tf_lnc_condition(terms, va, vb))(index, terms, vi, vj),
    "LB1": _ref_both_ways(_ref_lb1_condition),
    "PROX1": lambda index, terms, vi, vj: _ref_smaller(_ref_total_avg_dist(vi), _ref_total_avg_dist(vj)),
    "PROX2": lambda index, terms, vi, vj: (
        _ref_smaller(len(vj.matched), len(vi.matched))
        or _ref_smaller(_ref_cover_window(vi), _ref_cover_window(vj))),
    "PROX3": lambda index, terms, vi, vj: _ref_smaller(
        _ref_phrase_position(vi, terms), _ref_phrase_position(vj, terms)),
    "PROX4": lambda index, terms, vi, vj: _ref_smaller(_ref_min_pair_distance(vi), _ref_min_pair_distance(vj)),
    "PROX5": lambda index, terms, vi, vj: _ref_smaller(_ref_mean_nearest_other(vi), _ref_mean_nearest_other(vj)),
    "AND": lambda index, terms, vi, vj: (
        _ref_smaller(len(vj.matched) == len(terms), len(vi.matched) == len(terms)) if terms else 0),
}


def reference_axioms(index, query, di, dj):
    """Every axiom's preference, from views built for this one call."""
    terms = list(dict.fromkeys(query.terms))
    vi, vj = ReferenceView(index, terms, di), ReferenceView(index, terms, dj)
    return {name: fn(index, terms, vi, vj) for name, fn in REFERENCE_AXIOMS.items()}


def reference_details(axiom, index, query, di, dj):
    terms = list(dict.fromkeys(query.terms))
    vi, vj = ReferenceView(index, terms, di), ReferenceView(index, terms, dj)
    pair_rows = []
    if axiom.startswith("PROX"):
        avg_i, avg_j = _ref_pair_averages(vi), _ref_pair_averages(vj)
        pair_rows = [(pair, avg_i.get(pair), avg_j.get(pair)) for pair in itertools.combinations(terms, 2)
                     if pair in avg_i or pair in avg_j]
    preference = None if axiom == "PROX1" else REFERENCE_AXIOMS[axiom](index, terms, vi, vj)
    return DetailsTable.build(axiom, terms, (di, dj), [(t, vi.tf[t], vj.tf[t]) for t in terms],
                              pair_rows, preference=preference)


AXIOM_TERMS = make_vocab(4, prefix="q")


@st.composite
def axiom_layouts(draw):
    """2-4 documents over four query terms and a filler, empty ones included, and a
    query of 1-4 terms, repeats and an unindexed term included."""
    docs = draw(st.lists(st.lists(st.sampled_from(AXIOM_TERMS + ["ff"]), max_size=14),
                         min_size=2, max_size=4))
    index = build_index([Document(f"d{i}", " ".join(tokens)) for i, tokens in enumerate(docs)])
    terms = draw(st.lists(st.sampled_from(AXIOM_TERMS + [OOV]), min_size=1, max_size=4))
    return index, Query.from_terms("q", terms)


@settings(max_examples=150, deadline=None)
@given(axiom_layouts(), st.lists(st.floats(-4.0, 4.0), min_size=len(AXIOM_NAMES), max_size=len(AXIOM_NAMES)))
def test_doc_stats_axioms_equal_the_per_call_reference(built, weights):
    index, query = built
    children = tuple(zip(AXIOM_NAMES, weights))
    for di, dj in itertools.permutations(index.doc_ids(), 2):
        expected = reference_axioms(index, query, di, dj)
        assert {name: axiom_preference(name, index, query, di, dj) for name in AXIOM_NAMES} == expected
        for mode in AGGREGATION_MODES:
            total = left_sum(expected[n] * w for n, w in children) if mode == "weighted_sum_sign" \
                else sum(expected.values())
            assert aggregate_preference(AggregatedAxiom(children, mode), index, query, di, dj) \
                == (total > 0) - (total < 0)
        for axiom in DETAILED_AXIOMS:
            assert explain_details(axiom, index, query, di, dj) == reference_details(axiom, index, query, di, dj)


# -- rank measures -------------------------------------------------------------


def quadratic_rbo(list_a, list_b, p):
    """``rbo`` as it was first written: the prefixes are intersected at every depth."""
    k = min(len(list_a), len(list_b))
    seen_a: set = set()
    seen_b: set = set()
    total = 0.0
    agreement = 0.0
    for d in range(1, k + 1):
        seen_a.add(list_a[d - 1])
        seen_b.add(list_b[d - 1])
        agreement = len(seen_a & seen_b) / d
        total += (p ** (d - 1)) * agreement
    return (1.0 - p) * total + agreement * (p ** k)


# Two lists of distinct items drawn from one small universe, so they overlap.
ranked_lists = st.lists(st.integers(0, 40), min_size=1, max_size=40, unique=True)
rbo_p = st.one_of(st.sampled_from([0.1, 0.5, 0.9, 0.98]), st.floats(0.001, 0.999))


@PROPERTY_SETTINGS
@given(ranked_lists, ranked_lists, rbo_p)
def test_rbo_equals_quadratic_reference(a, b, p):
    # The reference rounds one ulp above 1 for some identical lists; rbo caps it.
    assert rbo(a, b, p) == min(1.0, quadratic_rbo(a, b, p))


def test_rbo_of_identical_lists_is_capped_at_one():
    items = list(range(200))
    assert quadratic_rbo(items, items, 0.9) == 1.0000000000000002
    assert rbo(items, items, 0.9) == 1.0


@PROPERTY_SETTINGS
@given(ranked_lists, ranked_lists, rbo_p)
def test_rbo_symmetric_and_in_unit_range(a, b, p):
    value = rbo(a, b, p)
    assert value == rbo(b, a, p)
    assert 0.0 <= value <= 1.0


@PROPERTY_SETTINGS
@given(st.permutations(range(12)), ranked_lists, st.integers(2, 12))
def test_rank_correlations_symmetric_and_in_range(shared, extra, n):
    a = shared[:n] + [x + 100 for x in extra]
    b = [x + 200 for x in extra] + list(reversed(sorted(shared[:n])))
    for measure in (kendall_tau, spearman_rho):
        value = measure(a, b)
        assert value == measure(b, a)
        assert -1.0 <= value <= 1.0


# -- pair sampling -------------------------------------------------------------


def reference_weighted_index(rng, weights):
    """``XorShift64Star.weighted_index`` as it was: a linear scan over float weights."""
    total = float(sum(weights))
    if total <= 0.0:
        raise ValueError("weights must have positive sum")
    target = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if target < acc:
            return i
    return len(weights) - 1


def reference_sample_pairs(ranked, strategy, count, rng):
    """``sample_pairs`` as it was: build every pair, then pop the drawn ones."""
    docs = ranked.docids
    pool = [PreferencePair(docs[i], docs[j], rank_gap=j - i)
            for i in range(len(docs)) for j in range(i + 1, len(docs))]
    if strategy == "top_vs_rest":
        upper_ok = set(docs[:math.ceil(len(docs) / 10)])
        pool = [p for p in pool if p.upper in upper_ok]
    take = min(count, len(pool))
    chosen = []
    if strategy == "rank_gap_weighted":
        weights = [float(p.rank_gap) for p in pool]
        for _ in range(take):
            idx = reference_weighted_index(rng, weights)
            chosen.append(pool.pop(idx))
            weights.pop(idx)
        return chosen
    for _ in range(take):
        chosen.append(pool.pop(rng.randbelow(len(pool))))
    return chosen


def ranked_of(n):
    return RankedList.from_entries("q", [RunEntry(f"d{i:04d}", i, float(-i)) for i in range(1, n + 1)])


def pool_size(n, strategy):
    rows = math.ceil(n / 10) if strategy == "top_vs_rest" else n - 1
    return rows * (2 * n - rows - 1) // 2


def assert_same_draws(n, strategy, seed, count):
    ranked = ranked_of(n)
    rng, reference_rng = XorShift64Star(seed), XorShift64Star(seed)
    pairs = sample_pairs(ranked, strategy, count, rng)
    assert pairs == reference_sample_pairs(ranked, strategy, count, reference_rng)
    assert rng._state == reference_rng._state


@PROPERTY_SETTINGS
@given(st.data(), st.integers(2, 60), st.sampled_from(PAIR_STRATEGIES), st.integers(0, 2**64 - 1))
def test_sample_pairs_equals_pool_reference(data, n, strategy, seed):
    count = data.draw(st.integers(1, pool_size(n, strategy) + 5))
    assert_same_draws(n, strategy, seed, count)


class ScriptedRandom:
    """Returns given ``random()`` values, so a target can fall exactly on a prefix sum."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


@PROPERTY_SETTINGS
@given(st.data(), st.integers(2, 30))
def test_gap_weighted_ties_at_prefix_sums_equal_pool_reference(data, n):
    # Seeded generators almost never hit a prefix sum exactly; k / 64 often does.
    count = data.draw(st.integers(1, n * (n - 1) // 2))
    value = st.one_of(st.integers(0, 63).map(lambda k: k / 64), st.floats(0, 1, exclude_max=True))
    values = data.draw(st.lists(value, min_size=count, max_size=count))
    ranked = ranked_of(n)
    assert sample_pairs(ranked, "rank_gap_weighted", count, ScriptedRandom(values)) == \
        reference_sample_pairs(ranked, "rank_gap_weighted", count, ScriptedRandom(values))


@pytest.mark.parametrize("strategy", PAIR_STRATEGIES)
@pytest.mark.parametrize("seed", [0, 17, 2**63 + 5])
def test_sample_pairs_equals_pool_reference_at_depth_300(strategy, seed):
    assert_same_draws(300, strategy, seed, 60)


@pytest.mark.parametrize("strategy", PAIR_STRATEGIES)
def test_sample_pairs_builds_only_the_drawn_pairs(monkeypatch, strategy):
    built = []

    class CountingPair(PreferencePair):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(listwise, "PreferencePair", CountingPair)
    pairs = sample_pairs(ranked_of(200), strategy, 50, XorShift64Star(3))
    assert len(pairs) == 50
    assert len(built) <= 50


def test_gap_weighted_length_bound():
    # (n - 1) n (n + 1) / 6 first reaches 2**53 at n = 378,078.
    entries = [RunEntry(f"d{i}", i + 1, 0.0) for i in range(378_078)]
    with pytest.raises(ValueError, match="too long for rank_gap_weighted"):
        sample_pairs(RankedList("q", entries), "rank_gap_weighted", 1, XorShift64Star(1))
    pairs = sample_pairs(RankedList("q", entries[:-1]), "rank_gap_weighted", 1, XorShift64Star(1))
    assert pairs == [PreferencePair("d41431", "d367994", rank_gap=326_563)]
