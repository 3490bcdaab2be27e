"""Property tests over seeded random corpora.

Hypothesis draws a seed and the corpus shape; ``conftest.random_corpus``
turns them into documents, so every failing example replays from its
seed. The sparse rankers are drawn with default and non-default
parameters. Scores are compared with ``==``: the fast paths must give
the reference values to the bit, not approximately.
"""

import json
import math
import os
import tempfile
from itertools import chain, islice

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from rankexplain import (
    PositionalIndex,
    Query,
    RankerParams,
    build_index,
    build_preference_matrix,
    kendall_tau,
    make_ranker,
    rank,
    rbo,
    sample_pairs,
    spearman_rho,
)
from rankexplain import AggregatedAxiom, aggregate_preference, axiom_preference, listwise
from rankexplain.axioms import AGGREGATION_MODES, AXIOM_NAMES
from rankexplain.index import _check_postings
from rankexplain.listwise import PAIR_STRATEGIES, CandidateTerm, FidelityEvaluator, PreferencePair
from rankexplain.perturb import SAMPLER_KINDS, SamplerConfig, draw_samples
from rankexplain.pointwise import EXS_VARIANTS, PointwiseParams, _perturbation_design, exs_targets
from rankexplain.rankers import RankedList, RunEntry
from rankexplain.rng import XorShift64Star

from conftest import make_vocab, random_corpus

OOV = "zzoov"

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def indexes(draw, min_docs=1, prefixes=st.just("d")):
    seed = draw(st.integers(0, 2**64 - 1))
    n_docs = draw(st.integers(min_docs, 12))
    vocab = make_vocab(draw(st.integers(2, 12)))
    min_len = draw(st.integers(1, 6))
    max_len = draw(st.integers(min_len, 20))
    corpus = random_corpus(XorShift64Star(seed), n_docs, vocab, min_len=min_len, max_len=max_len,
                           prefix=draw(prefixes))
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
    for term in vocab + [OOV]:
        expected = [sm.score(Query.from_terms("", [term]), d) for d in docids]
        assert sm.term_scores(term, docids) == expected


@PROPERTY_SETTINGS
@given(st.data(), indexes(), rankers, st.sampled_from(["bm25", "lmjm", "lmdir"]))
def test_fidelity_evaluator_equals_reference(data, built, ranker_spec, list_model):
    index, vocab = built
    sm = make_ranker(index, *ranker_spec)
    pool = data.draw(st.lists(st.sampled_from(index.doc_ids()), min_size=1, unique=True))
    query = Query.from_terms("q", data.draw(query_terms(vocab)))
    ranked = rank(index, make_ranker(index, list_model), query, pool=pool, depth=len(pool))
    p = data.draw(st.sampled_from([0.5, 0.9, 0.99]))
    evaluate = FidelityEvaluator(index, sm, query, ranked, p)
    for terms in data.draw(st.lists(query_terms(vocab), min_size=1, max_size=6)):
        expanded, approx, fidelity = reference_fidelity(index, sm, query, ranked, p, terms)
        assert evaluate(terms) == fidelity
        # The summed rows are rank's scores to the bit, not only the same order.
        assert evaluate._rerank(expanded).entries == approx.entries


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


@PROPERTY_SETTINGS
@given(indexes())
def test_index_round_trip_keeps_statistics(built):
    index, vocab = built
    loaded = PositionalIndex.from_dict(index.to_dict())
    assert loaded.to_dict() == index.to_dict()
    assert loaded.avgdl == index.avgdl
    for term in vocab + [OOV]:
        assert (loaded.df(term), loaded.cf(term), loaded.idf(term)) == \
            (index.df(term), index.cf(term), index.idf(term))
    for docid in index.doc_ids():
        assert loaded.doc_tokens(docid) == index.doc_tokens(docid)


@PROPERTY_SETTINGS
@given(indexes(min_docs=0, prefixes=st.sampled_from(["d", "dé-", '"q\\', "\u2603"])))
def test_save_writes_the_reference_bytes(built):
    index, _ = built
    with tempfile.TemporaryDirectory() as tmp:
        saved, reference = os.path.join(tmp, "saved.json"), os.path.join(tmp, "reference.json")
        index.save(saved)
        with open(reference, "w", encoding="utf-8") as f:
            json.dump(index.to_dict(), f, sort_keys=True, separators=(",", ":"))
            f.write("\n")
        with open(saved, "rb") as f, open(reference, "rb") as g:
            assert f.read() == g.read()
        assert PositionalIndex.load(saved).to_dict() == index.to_dict()


_INT64_LIMIT = 2**63


def reference_check_postings(doc_length: dict, postings: dict) -> None:
    """The numpy postings check that the two-pass ``index._check_postings`` replaced."""
    for t, pl in postings.items():
        if type(pl) is not dict:
            raise ValueError(f"term {t!r}: postings must be a JSON object")
    rows = list(postings.values())
    docids = list(chain.from_iterable(rows))                     # posting i's docid
    lists = list(chain.from_iterable(map(dict.values, rows)))    # posting i's positions
    row_ends = np.cumsum([len(pl) for pl in rows])

    def term_of(i: int) -> str:
        return next(islice(postings, int(np.searchsorted(row_ends, i, side="right")), None))

    def fail(i: int, problem: str):
        raise ValueError(f"term {term_of(i)!r}, docid {docids[i]!r}: {problem}")

    lengths = list(map(doc_length.get, docids))
    if None in lengths:
        fail(lengths.index(None), "docid is not in doc_length")
    shape = "positions must be a non-empty, strictly increasing list of ints in [0, doc_length)"
    if set(map(type, lists)) - {list}:
        fail(next(i for i, ps in enumerate(lists) if type(ps) is not list), shape)
    sizes = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    if not sizes.all():
        fail(int(np.argmin(sizes)), shape)
    ends = np.cumsum(sizes)

    def posting_of(j: int) -> int:
        return int(np.searchsorted(ends, j, side="right"))

    flat = list(chain.from_iterable(lists))                      # every posting's positions
    if set(map(type, flat)) - {int} or (flat and not 0 <= min(flat) <= max(flat) < _INT64_LIMIT):
        fail(posting_of(next(j for j, p in enumerate(flat)
                             if type(p) is not int or not 0 <= p < _INT64_LIMIT)), shape)
    pos = np.array(flat, dtype=np.int64)
    del flat                                     # the array replaces it; keeps peak memory down
    rising = pos[1:] > pos[:-1]
    rising[ends[:-1] - 1] = True                 # a posting's first position follows no other
    falls = np.flatnonzero(~rising)
    if len(falls):
        fail(posting_of(int(falls[0]) + 1), shape)
    past_end = np.flatnonzero(pos[ends - 1] >= np.array(lengths, dtype=np.int64))
    if len(past_end):
        fail(int(past_end[0]), shape)
    slot = {d: k for k, d in enumerate(doc_length)}
    doc_slot = np.fromiter(map(slot.__getitem__, docids), dtype=np.int64, count=len(docids))
    tf_sum = np.bincount(doc_slot, weights=sizes, minlength=len(slot))
    for d, total, dl in zip(doc_length, tf_sum, doc_length.values()):
        if total != dl:
            raise ValueError(f"docid {d!r}: term frequencies sum to {int(total)}, doc_length is {dl}")
    # Each document now holds doc_length positions, all in range, so they
    # cover 0..doc_length-1 once unless two terms share one. Number the
    # positions of all documents consecutively and look for a repeat.
    doc_tf = tf_sum.astype(np.int64)
    slots = pos + np.repeat((np.cumsum(doc_tf) - doc_tf)[doc_slot], sizes)
    if np.bincount(slots).max(initial=0) > 1:
        holder: dict = {}
        for j, s in enumerate(slots.tolist()):
            if s in holder:
                fail(posting_of(j), f"position {int(pos[j])} is also held by term "
                                    f"{term_of(posting_of(holder[s]))!r}")
            holder[s] = j


POSTING_MUTATIONS = (None, "drop", "past_end", "negative", "float", "bool", "repeat",
                     "unknown_docid", "onto_other_term", "huge_doc_length")


def mutate_postings(draw, doc_length, postings, mutation):
    """Apply one ``mutation`` in place to a valid index's doc_length and postings."""
    if mutation == "onto_other_term":   # move a position onto another term's in the same document
        shared = [d for d in doc_length if sum(d in pl for pl in postings.values()) > 1]
        assume(shared)
        d = draw(st.sampled_from(shared))
        mover, holder = draw(st.permutations([t for t, pl in postings.items() if d in pl]))[:2]
        ps = postings[mover][d]
        ps[draw(st.integers(0, len(ps) - 1))] = draw(st.sampled_from(postings[holder][d]))
        if draw(st.booleans()):
            ps.sort()
        return
    t = draw(st.sampled_from(sorted(postings)))
    d = draw(st.sampled_from(sorted(postings[t])))
    ps = postings[t][d]
    i = draw(st.integers(0, len(ps) - 1))
    if mutation == "drop":
        del ps[i]
    elif mutation == "past_end":
        ps[i] = doc_length[d] + draw(st.integers(0, 2))
    elif mutation == "negative":
        ps[i] = -draw(st.integers(1, 3))
    elif mutation == "float":
        ps[i] = float(ps[i])
    elif mutation == "bool":
        ps[i] = draw(st.booleans())
    elif mutation == "repeat":
        ps.insert(i, ps[i])
    elif mutation == "unknown_docid":
        postings[t] = {("zz-" + e if e == d else e): e_ps for e, e_ps in postings[t].items()}
    elif mutation == "huge_doc_length":
        doc_length[d] = 2**40


def check_outcome(check, doc_length, postings):
    """None when ``check`` accepts, else the message of its ValueError."""
    try:
        check(doc_length, postings)
    except ValueError as exc:
        return str(exc)
    return None


@PROPERTY_SETTINGS
@given(st.data(), indexes(), st.sampled_from(POSTING_MUTATIONS))
def test_check_postings_equals_numpy_reference(data, built, mutation):
    index, _ = built
    raw = json.loads(json.dumps(index.to_dict()))
    doc_length, postings = raw["doc_length"], raw["postings"]
    if mutation is not None:
        mutate_postings(data.draw, doc_length, postings, mutation)
    outcome = check_outcome(_check_postings, doc_length, postings)
    assert outcome == check_outcome(reference_check_postings, doc_length, postings)
    assert (outcome is None) == (mutation is None)


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
    survivors, terms, X, kernel = _perturbation_design(
        index, docid, PointwiseParams(sampler=sampler, kernel_width=width))
    fields = [per_sample_fields(doc, s.kept_mask) for s in draw_samples(doc, sampler, index=index)]
    distances = np.array([distance for _, _, distance in fields])
    assert terms == doc.distinct_terms()
    assert survivors == [surviving for surviving, _, _ in fields]
    assert np.array_equal(X, np.array([features for _, features, _ in fields], dtype=float))
    assert np.array_equal(kernel, np.exp(-(distances ** 2) / (width ** 2)))


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
        total = sum(p * w for p, w in prefs)
    else:
        total = sum(p for p, _ in prefs)        # votes for minus votes against
    expected = (total > 0) - (total < 0)
    assert aggregate_preference(AggregatedAxiom(children, mode), index, query, di, dj) == expected


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
