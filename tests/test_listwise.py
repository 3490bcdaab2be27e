import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest

from rankexplain import (
    BM25Ranker,
    Document,
    HiddenIntentRanker,
    LMDirRanker,
    LMJMRanker,
    Query,
    RankedList,
    RunEntry,
    bfs_explain,
    build_index,
    build_preference_matrix,
    explain_all,
    explain_listwise,
    generate_candidates,
    greedy_explain,
    intent_exs_explain,
    matrix_from_json,
    matrix_to_json,
    multiplex_explain,
    rank,
    sample_pairs,
    show_matrix,
)
from rankexplain import rankers
from rankexplain.index import UnknownDocumentError
from rankexplain.listwise import (
    CandidateTerm,
    FidelityEvaluator,
    ListwiseParams,
    PreferenceMatrix,
    PreferencePair,
)
from rankexplain.rankers import Ranker
from rankexplain.rng import XorShift64Star

from conftest import hidden_intent_fixture


def ranked_of(n, qid="q"):
    return RankedList.from_entries(
        qid, [RunEntry(f"d{i}", i, float(n - i)) for i in range(1, n + 1)])


# -- candidates ----------------------------------------------------------------


def test_candidates_salience_ordering():
    index = build_index([Document("d1", "qq qq ww"), Document("d2", "zz")])
    ranked = RankedList.from_entries("q", [RunEntry("d1", 1, 1.0)])
    cands = generate_candidates(index, ranked, top_k=1, n_candidates=10)
    assert [c.term for c in cands] == ["qq", "ww"]
    assert cands[0].salience >= cands[1].salience


def test_candidates_truncation():
    index = build_index([Document("d1", "qq qq ww"), Document("d2", "zz")])
    ranked = RankedList.from_entries("q", [RunEntry("d1", 1, 1.0)])
    cands = generate_candidates(index, ranked, top_k=1, n_candidates=1)
    assert [c.term for c in cands] == ["qq"]
    for n_candidates in (0, -1):
        with pytest.raises(ValueError, match="^n_candidates must be in"):
            generate_candidates(index, ranked, top_k=1, n_candidates=n_candidates)


def test_candidates_sum_over_docs():
    # qq and ww have equal df (hence equal idf) and equal per-doc tf, but
    # qq appears in both top docs and ww in only one
    index = build_index([
        Document("d1", "qq ww"), Document("d2", "qq zz"), Document("d3", "ww ff"),
    ])
    ranked = RankedList.from_entries(
        "q", [RunEntry("d1", 1, 2.0), RunEntry("d2", 2, 1.0)])
    cands = {c.term: c.salience for c in generate_candidates(index, ranked, top_k=2, n_candidates=10)}
    assert index.idf("qq") == index.idf("ww")
    assert cands["qq"] == pytest.approx(index.idf("qq") * 2)
    assert cands["qq"] > cands["ww"] == pytest.approx(index.idf("ww"))


def test_candidates_add_each_terms_contributions_in_rank_order():
    # Found by search: with N = 7 and df = 3, qq's contributions 4, 5 and 6 times its
    # idf round to a different last bit unless the rank-3 document's comes last.
    texts = {"d3": "qq " * 4, "d1": "qq " * 5, "d2": "qq " * 6, **{f"d{i}": "ww" for i in range(4, 8)}}
    index = build_index([Document(d, text) for d, text in texts.items()])
    ranked = RankedList.from_entries("q", [RunEntry(d, r, 4.0 - r) for r, d in enumerate(["d3", "d1", "d2"], 1)])
    idf = index.idf("qq")

    def added(tfs):
        total = 0.0
        for tf in tfs:
            total += tf * idf
        return total

    salience = {c.term: c.salience for c in generate_candidates(index, ranked, top_k=3)}["qq"]
    assert salience == added([4, 5, 6])
    for tfs in itertools.permutations([4, 5, 6]):
        assert (added(tfs) == salience) == (tfs[-1] == 6), tfs


def test_candidates_empty_list_error():
    index = build_index([Document("d1", "qq")])
    with pytest.raises(ValueError):
        generate_candidates(index, RankedList(qid="q"), top_k=1, n_candidates=5)


def test_candidates_keep_query_terms():
    index = build_index([Document("d1", "thai life qq"), Document("d2", "zz")])
    ranked = RankedList.from_entries("q", [RunEntry("d1", 1, 1.0)])
    terms = {c.term for c in generate_candidates(index, ranked, top_k=1, n_candidates=10)}
    assert {"thai", "life"} <= terms


# -- pair sampling ---------------------------------------------------------------


def test_two_doc_list_single_pair():
    ranked = ranked_of(2)
    for strategy in ("uniform", "rank_gap_weighted", "top_vs_rest"):
        pairs = sample_pairs(ranked, strategy, 5, XorShift64Star(0))
        assert pairs == [PreferencePair("d1", "d2", 1)]


def test_uniform_exhausts_all_pairs():
    ranked = ranked_of(5)
    pairs = sample_pairs(ranked, "uniform", 100, XorShift64Star(1))
    assert len(pairs) == 10
    assert len(set(pairs)) == 10
    for pair in pairs:
        assert int(pair.upper[1:]) < int(pair.lower[1:])


def test_pairs_errors():
    with pytest.raises(ValueError, match="no pairs"):
        sample_pairs(ranked_of(1), "uniform", 1, XorShift64Star(0))
    with pytest.raises(ValueError, match="count"):
        sample_pairs(ranked_of(3), "uniform", 0, XorShift64Star(0))
    with pytest.raises(ValueError, match="strategy"):
        sample_pairs(ranked_of(3), "bogus", 1, XorShift64Star(0))


@pytest.mark.parametrize("strategy", ["uniform", "rank_gap_weighted", "top_vs_rest"])
def test_pairs_reject_duplicate_docids(strategy):
    # The dataclass constructor does not check uniqueness; from_entries does.
    docids = ["a"] + [f"d{i}" for i in range(1, 11)] + ["a"]
    ranked = RankedList("q", [RunEntry(d, i, float(-i)) for i, d in enumerate(docids, start=1)])
    with pytest.raises(ValueError, match="^duplicate 'a' in ranked list$"):
        sample_pairs(ranked, strategy, 66, XorShift64Star(0))


def test_pairs_deterministic_given_seed():
    ranked = ranked_of(12)
    for strategy in ("uniform", "rank_gap_weighted", "top_vs_rest"):
        a = sample_pairs(ranked, strategy, 6, XorShift64Star(9))
        b = sample_pairs(ranked, strategy, 6, XorShift64Star(9))
        assert a == b


def test_top_vs_rest_restricts_upper():
    ranked = ranked_of(20)
    pairs = sample_pairs(ranked, "top_vs_rest", 200, XorShift64Star(2))
    assert {p.upper for p in pairs} <= {"d1", "d2"}
    assert len(pairs) == 19 + 18


def test_rank_gap_weighted_frequency_increases_with_gap():
    ranked = ranked_of(20)
    counts = {}
    for seed in range(10_000):
        pair = sample_pairs(ranked, "rank_gap_weighted", 1, XorShift64Star(seed))[0]
        counts[pair] = counts.get(pair, 0) + 1
    by_gap = {}
    for pair, count in counts.items():
        by_gap.setdefault(pair.rank_gap, []).append(count)
    gaps = sorted(by_gap)
    means = [sum(by_gap[g]) / len(by_gap[g]) for g in gaps]
    # monotone regression check: strong positive rank correlation
    concordant = sum(
        1 if means[j] > means[i] else -1
        for i, j in itertools.combinations(range(len(gaps)), 2)
    )
    total = len(gaps) * (len(gaps) - 1) / 2
    assert concordant / total > 0.8
    assert means[-1] > means[0] * 5


# -- preference matrix -------------------------------------------------------------


@pytest.fixture()
def matrix_index():
    return build_index([
        Document("u", "qq qq ww ff"),
        Document("v", "ww ff ff gg"),
        Document("x", "qq gg hh jj"),
    ])


def test_matrix_entries(matrix_index):
    pairs = [PreferencePair("u", "v", 1)]
    cands = [CandidateTerm("qq", 2.0), CandidateTerm("kk", 1.0), CandidateTerm("ww", 1.5)]
    matrix = build_preference_matrix(matrix_index, [BM25Ranker(matrix_index)], cands, pairs)
    # qq present only in upper -> +1 (monotone scorer); kk absent from both -> 0;
    # ww: equal tf, equal length -> same score -> 0
    assert matrix.rankers == ["bm25"] and matrix.terms == ["qq", "kk", "ww"] and matrix.pairs == pairs
    assert matrix.entries[:, :, 0].tolist() == [[1, 0, 0]]


def test_matrix_consensus_sign_of_sum():
    entries = np.array([
        [[1]], [[1]], [[-1]],
    ], dtype=np.int8)
    matrix = PreferenceMatrix(
        rankers=["bm25", "lmjm", "lmdir"],
        candidates=[CandidateTerm("qq", 1.0)],
        pairs=[PreferencePair("a", "b", 1)],
        entries=entries,
    )
    assert matrix.consensus[0, 0] == 1


def test_matrix_formula_invariant(matrix_index):
    pairs = [PreferencePair("u", "v", 1), PreferencePair("u", "x", 2)]
    cands = [CandidateTerm(t, 1.0) for t in ("qq", "ww", "gg")]
    rankers = [BM25Ranker(matrix_index), LMJMRanker(matrix_index), LMDirRanker(matrix_index)]
    matrix = build_preference_matrix(matrix_index, rankers, cands, pairs)
    for r, ranker in enumerate(rankers):
        for t, cand in enumerate(cands):
            q = Query.from_terms("", [cand.term])
            for p, pair in enumerate(pairs):
                diff = ranker.score(q, pair.upper) - ranker.score(q, pair.lower)
                assert matrix.entries[r, t, p] == (diff > 0) - (diff < 0)


class TableRanker(Ranker):
    """Scores a one-term query from a (term, docid) table."""

    name = "table"

    def __init__(self, table):
        self.table = table

    def score(self, query, docid):
        return self.table[query.terms[0], docid]

    def score_tokens(self, query, tokens):
        raise NotImplementedError


def test_matrix_signs_of_nan_and_inf_scores(matrix_index):
    nan, inf = float("nan"), float("inf")
    table = {("qq", "u"): nan, ("qq", "v"): 1.0, ("ww", "u"): inf, ("ww", "v"): inf,
             ("ff", "u"): inf, ("ff", "v"): -inf, ("gg", "u"): -inf, ("gg", "v"): 0.0}
    cands = [CandidateTerm(t, 1.0) for t in ("qq", "ww", "ff", "gg")]
    pairs = [PreferencePair("u", "v", 1), PreferencePair("v", "u", 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix = build_preference_matrix(matrix_index, [TableRanker(table), BM25Ranker(matrix_index)], cands, pairs)
    # A NaN score and equal infinities give 0; the sparse ranker's layer is unaffected.
    assert matrix.entries[0].tolist() == [[0, 0], [0, 0], [1, -1], [-1, 1]]
    assert matrix.entries[1].tolist() == build_preference_matrix(
        matrix_index, [BM25Ranker(matrix_index)], cands, pairs).entries[0].tolist()


class FixedLikelihoodRanker(LMDirRanker):
    """A language model whose likelihood block is a fixed (terms x docids) table."""

    def __init__(self, index, table):
        super().__init__(index)
        self.table = np.asarray(table, dtype=np.float64)

    def _likelihood_block(self, terms, tf, dl):
        return self.table


def log_sign(a, b):
    log_a, log_b = math.log(a), math.log(b)
    return (log_a > log_b) - (log_a < log_b)


def near_tie_cases():
    """(a, b) likelihood pairs: equal, adjacent doubles, and relative gaps of 2**-31 and 2**-29."""
    cases = []
    for x in np.geomspace(1e-300, 1.0, 40).tolist() + [2.0 ** -1030, 0.5, 1.0]:
        up, down = np.nextafter(x, np.inf).item(), np.nextafter(x, 0.0).item()
        cases += [(x, x), (up, x), (x, up), (down, x), (x * (1 + 2.0 ** -31), x), (x, x * (1 + 2.0 ** -29))]
    return cases


def test_matrix_signs_of_near_tie_likelihoods(matrix_index):
    cases = near_tie_cases()
    # Some adjacent doubles have equal logs, so the rule must take logs to give them 0.
    assert any(a != b and math.log(a) == math.log(b) for a, b in cases)
    # Others inside the 2**-30 band have unequal logs, so calling every near tie a tie fails too.
    assert any(a != b and abs(a - b) <= 2.0 ** -30 * max(a, b) and log_sign(a, b) != 0 for a, b in cases)
    cands = [CandidateTerm(f"t{k}", 1.0) for k in range(len(cases))]
    pairs = [PreferencePair("u", "v", 1), PreferencePair("v", "u", 1)]
    matrix = build_preference_matrix(
        matrix_index, [FixedLikelihoodRanker(matrix_index, cases), BM25Ranker(matrix_index)], cands, pairs)
    assert matrix.entries[0].tolist() == [[log_sign(a, b), log_sign(b, a)] for a, b in cases]


def test_matrix_takes_logs_only_of_near_ties(matrix_index, monkeypatch):
    sizes = []

    def counting_log(x):
        sizes.append(np.size(x))
        return exact_log(x)

    exact_log = rankers._exact_log
    monkeypatch.setattr(rankers, "_exact_log", counting_log)
    pairs = [PreferencePair("u", "v", 1), PreferencePair("u", "x", 2), PreferencePair("x", "v", 1)]
    cands = [CandidateTerm(t, 1.0) for t in ("qq", "ww", "ff", "gg", "hh", "kk")]
    sparse = [LMJMRanker(matrix_index), LMDirRanker(matrix_index), BM25Ranker(matrix_index)]
    matrix = build_preference_matrix(matrix_index, sparse, cands, pairs)
    assert sizes == []
    assert matrix.entries.any()
    # Three near ties among ten cells: only their six likelihoods go through a log.
    x = 0.25
    cases = [(x, x), (x, np.nextafter(x, 1.0)), (x * (1 + 2.0 ** -31), x), (x, x * (1 - 2.0 ** -31)),
             (x, 2 * x), (x, x * (1 + 2.0 ** -29))] + [(0.5, 0.125)] * 4
    matrix = build_preference_matrix(matrix_index, [FixedLikelihoodRanker(matrix_index, cases)],
                                     [CandidateTerm(f"t{k}", 1.0) for k in range(len(cases))],
                                     [PreferencePair("u", "v", 1)])
    assert sizes == [3, 3]
    assert matrix.entries[0, :, 0].tolist() == [log_sign(a, b) for a, b in cases]


def test_matrix_validation(matrix_index):
    with pytest.raises(ValueError):
        build_preference_matrix(matrix_index, [], [CandidateTerm("qq", 1.0)],
                                [PreferencePair("u", "v", 1)])
    with pytest.raises(ValueError):
        build_preference_matrix(matrix_index, [BM25Ranker(matrix_index)], [],
                                [PreferencePair("u", "v", 1)])


# -- coverage explainers -------------------------------------------------------------


def make_matrix(layer, saliences=None):
    layer = np.asarray(layer, dtype=np.int8)
    n_terms, n_pairs = layer.shape
    if saliences is None:
        saliences = [float(n_terms - i) for i in range(n_terms)]
    return PreferenceMatrix(
        rankers=["bm25"],
        candidates=[CandidateTerm(f"t{i:02d}", saliences[i]) for i in range(n_terms)],
        pairs=[PreferencePair(f"u{j}", f"l{j}", 1) for j in range(n_pairs)],
        entries=layer[np.newaxis, :, :],
    )


def coverage_oracle(layer, subset):
    if not subset:
        return 0
    sums = np.asarray(layer, dtype=int)[list(subset)].sum(axis=0)
    return int(np.count_nonzero(sums > 0))


def test_single_term_covers_all():
    matrix = make_matrix([[1, 1, 1], [0, 1, 0]])
    expl = intent_exs_explain(matrix, m_min=1, m_max=3)
    assert expl.terms == ["t00"]
    assert expl.fidelity["coverage"] == 1.0


def test_disjoint_half_coverers_before_redundant():
    layer = [
        [1, 1, 0, 0],   # t00: first half
        [0, 0, 1, 1],   # t01: second half
        [1, 1, 0, 0],   # t02: redundant with t00
    ]
    matrix = make_matrix(layer)
    expl = intent_exs_explain(matrix, m_min=1, m_max=3)
    assert expl.terms == ["t00", "t01"]
    assert expl.fidelity["coverage"] == 1.0


def test_all_zero_entries_degenerate():
    matrix = make_matrix(np.zeros((4, 5), dtype=int))
    expl = intent_exs_explain(matrix, m_min=2, m_max=4)
    # m_min highest-salience terms, zero coverage, flagged
    assert expl.terms == ["t00", "t01"]
    assert expl.fidelity["coverage"] == 0.0
    assert expl.diagnostics.get("zero_coverage") is True


def test_intent_requires_single_ranker():
    matrix = make_matrix([[1]])
    multi = PreferenceMatrix(
        rankers=["bm25", "lmjm"],
        candidates=matrix.candidates,
        pairs=matrix.pairs,
        entries=np.vstack([matrix.entries, matrix.entries]),
    )
    with pytest.raises(ValueError, match="single-ranker"):
        intent_exs_explain(multi)


def test_multiplex_single_ranker_equals_intent():
    rng = XorShift64Star(5)
    layer = [[rng.randbelow(3) - 1 for _ in range(8)] for _ in range(6)]
    matrix = make_matrix(layer)
    a = intent_exs_explain(matrix, m_min=2, m_max=5)
    b = multiplex_explain(matrix, m_min=2, m_max=5)
    assert a.terms == b.terms
    assert a.fidelity == b.fidelity


def test_multiplex_disagreeing_rankers_zero_coverage():
    layer = np.array([[1, 1], [-1, -1]], dtype=np.int8)
    matrix = PreferenceMatrix(
        rankers=["bm25", "lmjm"],
        candidates=[CandidateTerm("t00", 2.0), CandidateTerm("t01", 1.0)],
        pairs=[PreferencePair("u0", "l0", 1), PreferencePair("u1", "l1", 1)],
        entries=np.stack([layer, -layer]),
    )
    expl = multiplex_explain(matrix, m_min=1, m_max=2)
    assert expl.fidelity["coverage"] == 0.0
    assert expl.diagnostics.get("zero_coverage") is True


def test_greedy_coverage_against_bruteforce_bound():
    rng = XorShift64Star(2718)
    for _ in range(20):
        n_terms = 6 + rng.randbelow(7)      # 6..12
        n_pairs = 8 + rng.randbelow(13)     # 8..20
        layer = np.array(
            [[(1 if r < 0.45 else (0 if r < 0.75 else -1))
              for r in (rng.random() for _ in range(n_pairs))]
             for _ in range(n_terms)], dtype=np.int8)
        matrix = make_matrix(layer)
        m_max = 5
        expl = intent_exs_explain(matrix, m_min=1, m_max=m_max)
        greedy_cov = coverage_oracle(layer, [matrix.terms.index(t) for t in expl.terms])
        best = 0
        for size in range(m_max + 1):
            for subset in itertools.combinations(range(n_terms), size):
                best = max(best, coverage_oracle(layer, subset))
        assert greedy_cov >= (1 - 1 / np.e) * best


# -- direct search -------------------------------------------------------------------


def test_every_explainer_takes_tied_candidates_in_one_order(monkeypatch):
    # Listed out of term order, with two salience ties: higher salience first, then term.
    candidates = [CandidateTerm("tc", 1.0), CandidateTerm("td", 2.0), CandidateTerm("tb", 1.0),
                  CandidateTerm("ta", 2.0)]
    expected = ["ta", "td", "tb", "tc"]
    # Each term covers a pair of its own, so every round's gains tie and the order decides.
    pairs = [PreferencePair(f"u{j}", f"l{j}", 1) for j in range(4)]
    for names, explain in ((["bm25"], intent_exs_explain), (["bm25", "lmjm"], multiplex_explain)):
        entries = np.stack([np.eye(4, dtype=np.int8)] * len(names))
        matrix = PreferenceMatrix(rankers=names, candidates=candidates, pairs=pairs, entries=entries)
        assert explain(matrix, m_min=4, m_max=4).terms == expected
    # The direct searches score every single-term set in their first batch after the baseline.
    batches = []
    batch = FidelityEvaluator.batch
    monkeypatch.setattr(FidelityEvaluator, "batch",
                        lambda self, sets: batches.append([list(s) for s in sets]) or batch(self, sets))
    index = build_index([Document("d1", "ta tb qq"), Document("d2", "tc td qq"), Document("d3", "qq")])
    ranked = rank(index, BM25Ranker(index), Query.from_terms("q", ["qq"]), depth=3)
    for search in (greedy_explain, bfs_explain):
        batches.clear()
        search(index, BM25Ranker(index), Query.from_terms("q", ["qq"]), ranked, candidates, m_max=1)
        assert batches[1] == [[term] for term in expected]


def bruteforce_best(evaluate, terms, m_max):
    best = (evaluate(()), 0, ())
    for size in range(1, m_max + 1):
        for subset in itertools.combinations(sorted(terms), size):
            fid = evaluate(subset)
            if (-fid, len(subset), subset) < (-best[0], best[1], best[2]):
                best = (fid, len(subset), subset)
    return best


def test_greedy_beats_every_single_term():
    index, query, opaque, ranked, candidates, hidden = hidden_intent_fixture(seed=3)
    sm = BM25Ranker(index)
    expl = greedy_explain(index, sm, query, ranked, candidates, m_max=5, p=0.9)
    evaluate = FidelityEvaluator(index, sm, query, ranked, 0.9)
    best_single = max(evaluate([c.term]) for c in candidates)
    fidelity = expl.fidelity["rbo@0.9"]
    assert fidelity >= best_single


@pytest.mark.parametrize("terms", [(), ("qq",)])
def test_fidelity_rejects_docids_outside_the_index(terms):
    index = build_index([Document("d1", "qq ww"), Document("d2", "qq")])
    ranked = RankedList.from_entries("q", [RunEntry("d1", 1, 2.0), RunEntry("nope", 2, 1.0)])
    for sm in (BM25Ranker(index), HiddenIntentRanker(BM25Ranker(index), [("ww", 1.0)])):
        with pytest.raises(UnknownDocumentError):
            FidelityEvaluator(index, sm, Query.from_terms("q", terms), ranked, 0.9)(())


def test_a_repeated_docid_is_rejected_by_name():
    index = build_index([Document("d1", "qq ww"), Document("d2", "qq"), Document("d3", "ww")])
    query = Query.from_terms("q", ["qq"])
    # The constructor alone does not check, as a run file's reader does.
    ranked = RankedList("q", [RunEntry("d1", 1, 3.0), RunEntry("d2", 2, 2.0), RunEntry("d1", 3, 1.0)])
    candidates = [CandidateTerm("ww", 1.0)]
    calls = [lambda sm: FidelityEvaluator(index, sm, query, ranked, 0.9)(()),
             lambda sm: greedy_explain(index, sm, query, ranked, candidates),
             lambda sm: bfs_explain(index, sm, query, ranked, candidates)]
    for sm in (BM25Ranker(index), HiddenIntentRanker(BM25Ranker(index), [("ww", 1.0)])):
        for call in calls:
            with pytest.raises(ValueError, match="^duplicate 'd1' in ranked list$"):
                call(sm)
    for method in ("multiplex", "intent_exs", "greedy", "bfs"):
        with pytest.raises(ValueError, match="^duplicate 'd1' in ranked list$"):
            explain_listwise(index, query, ranked, ListwiseParams(method=method))


def test_fidelity_checks_p_and_the_list_at_construction():
    index = build_index([Document("d1", "qq ww"), Document("d2", "qq")])
    query = Query.from_terms("q", ["qq"])
    for sm in (BM25Ranker(index), HiddenIntentRanker(BM25Ranker(index), [("ww", 1.0)])):
        for p in (0.0, 1.0, float("nan"), True, "0.9"):
            with pytest.raises(ValueError, match="^p must be"):
                FidelityEvaluator(index, sm, query, ranked_of(2), p)
        with pytest.raises(ValueError, match="empty ranked list"):
            FidelityEvaluator(index, sm, query, RankedList("q"), 0.9)


def test_greedy_m_max_zero_returns_baseline():
    index, query, opaque, ranked, candidates, hidden = hidden_intent_fixture(seed=4)
    sm = BM25Ranker(index)
    expl = greedy_explain(index, sm, query, ranked, candidates, m_max=0, p=0.9)
    evaluate = FidelityEvaluator(index, sm, query, ranked, 0.9)
    assert expl.terms == []
    assert expl.fidelity["rbo@0.9"] == pytest.approx(evaluate(()))


def test_greedy_absent_candidates_no_gain():
    index, query, opaque, ranked, candidates, hidden = hidden_intent_fixture(seed=5)
    sm = BM25Ranker(index)
    absent = [CandidateTerm("zz99", 1.0), CandidateTerm("zz98", 0.5)]
    expl = greedy_explain(index, sm, query, ranked, absent, m_max=5, p=0.9)
    assert expl.terms == []


def test_greedy_monotone_fidelity_trace():
    index, query, opaque, ranked, candidates, hidden = hidden_intent_fixture(seed=6)
    sm = BM25Ranker(index)
    evaluate = FidelityEvaluator(index, sm, query, ranked, 0.9)
    expl = greedy_explain(index, sm, query, ranked, candidates, m_max=6, p=0.9)
    trace = [evaluate(expl.terms[:i]) for i in range(len(expl.terms) + 1)]
    assert all(x < y + 1e-12 for x, y in zip(trace, trace[1:]))


def test_bfs_exhaustive_budget_equals_bruteforce():
    index, query, opaque, ranked, candidates, hidden = hidden_intent_fixture(
        seed=7, n_candidates=10)
    sm = BM25Ranker(index)
    m_max = 2
    budget = 10 + 45 + 10
    expl = bfs_explain(index, sm, query, ranked, candidates, m_max=m_max,
                       p=0.9, eval_budget=budget)
    evaluate = FidelityEvaluator(index, sm, query, ranked, 0.9)
    best = bruteforce_best(evaluate, [c.term for c in candidates], m_max)
    assert expl.fidelity["rbo@0.9"] == pytest.approx(best[0], abs=1e-12)
    assert tuple(expl.terms) == best[2]


def test_bfs_one_layer_budget_is_best_single_term():
    index, query, opaque, ranked, candidates, hidden = hidden_intent_fixture(
        seed=8, n_candidates=12)
    sm = BM25Ranker(index)
    expl = bfs_explain(index, sm, query, ranked, candidates, m_max=4,
                       p=0.9, eval_budget=len(candidates))
    evaluate = FidelityEvaluator(index, sm, query, ranked, 0.9)
    baseline = evaluate(())
    singles = [(evaluate((c.term,)), 1, (c.term,)) for c in candidates]
    best = min([(-baseline, 0, ())] + [(-f, s, t) for f, s, t in singles])
    assert expl.fidelity["rbo@0.9"] == pytest.approx(-best[0], abs=1e-12)
    assert tuple(expl.terms) == best[2]
    assert expl.evaluations_used == len(candidates)


def test_bfs_at_least_as_good_as_greedy():
    for seed in range(10):
        index, query, opaque, ranked, candidates, hidden = hidden_intent_fixture(
            seed=100 + seed, n_candidates=12)
        sm = BM25Ranker(index)
        greedy = greedy_explain(index, sm, query, ranked, candidates, m_max=3, p=0.9)
        bfs = bfs_explain(index, sm, query, ranked, candidates, m_max=3, p=0.9,
                          eval_budget=max(600, greedy.evaluations_used))
        assert bfs.fidelity["rbo@0.9"] >= greedy.fidelity["rbo@0.9"] - 1e-12


def test_search_errors():
    index, query, opaque, ranked, candidates, hidden = hidden_intent_fixture(seed=9)
    sm = BM25Ranker(index)
    with pytest.raises(ValueError):
        greedy_explain(index, sm, query, ranked, [], m_max=3)
    with pytest.raises(ValueError):
        bfs_explain(index, sm, query, ranked, candidates, eval_budget=0)


# -- matrix rendering -----------------------------------------------------------------


def test_show_matrix_single_cell():
    matrix = make_matrix([[1]])
    text = show_matrix(matrix)
    assert "u0>l0" in text
    assert text.splitlines()[1].endswith("+")


def test_show_matrix_filtered_column():
    matrix = make_matrix([[1, -1], [0, 1]])
    text = show_matrix(matrix, pair_filter=matrix.pairs[1])
    lines = text.splitlines()
    assert "u1>l1" in lines[0] and "u0>l0" not in lines[0]
    assert lines[1].split()[-1] == "-"
    assert lines[2].split()[-1] == "+"


def test_show_matrix_unknown_pair():
    matrix = make_matrix([[1]])
    with pytest.raises(ValueError, match="not in matrix"):
        show_matrix(matrix, pair_filter=PreferencePair("zz", "yy", 1))


def test_matrix_json_roundtrip():
    rng = XorShift64Star(12)
    layer = [[rng.randbelow(3) - 1 for _ in range(5)] for _ in range(4)]
    matrix = make_matrix(layer)
    restored = matrix_from_json(matrix_to_json(matrix))
    assert restored.rankers == matrix.rankers
    assert restored.pairs == matrix.pairs
    assert restored.terms == matrix.terms
    assert np.array_equal(restored.entries, matrix.entries)
    assert json.loads(matrix_to_json(matrix))["entries"] == matrix.entries.tolist()


def _edited_json(**changes) -> str:
    """The JSON of a 1-ranker, 2-term, 2-pair matrix with ``changes``; a None value drops the key."""
    data = json.loads(matrix_to_json(make_matrix([[1, -1], [0, 1]])))
    data.update(changes)
    return json.dumps({k: v for k, v in data.items() if v is not None})


@pytest.mark.parametrize("changes,message", [
    pytest.param({"entries": [[[1, 2], [0, 1]]]}, "-1, 0 or 1", id="entry-2"),
    pytest.param({"entries": [[[1, -2], [0, 1]]]}, "-1, 0 or 1", id="entry-minus-2"),
    pytest.param({"pairs": [], "entries": [[[], []]]}, "at least one pair", id="no-pairs"),
    pytest.param({"rankers": [], "entries": []}, "at least one ranker", id="no-rankers"),
    pytest.param({"terms": [], "salience": [], "entries": [[]]}, "at least one candidate", id="no-terms"),
    pytest.param({"entries": [[[1, -1]]]}, "shape (1, 2, 2)", id="too-few-rows"),
    pytest.param({"rankers": ["bm25", "lmjm"]}, "shape (2, 2, 2)", id="too-few-layers"),
    pytest.param({"entries": [[[1, 300], [0, 1]]]}, "-1, 0 or 1", id="entry-300"),
    pytest.param({"entries": [[[1, 1.5], [0, 1]]]}, "-1, 0 or 1", id="entry-float"),
    pytest.param({"entries": [[[1, True], [0, 1]]]}, "-1, 0 or 1", id="entry-true"),
    pytest.param({"entries": [[[1, "1"], [0, 1]]]}, "-1, 0 or 1", id="entry-string"),
    pytest.param({"entries": [[[1, [1]], [0, 1]]]}, "-1, 0 or 1", id="entry-list"),
    pytest.param({"entries": 1}, "shape (1, 2, 2)", id="entries-not-a-list"),
    pytest.param({"entries": None}, "has no key 'entries'", id="missing-entries"),
    pytest.param({"extra": 1}, "unknown key 'extra'", id="unknown-key"),
    pytest.param({"pairs": [{"upper": "a", "lower": "b", "rank_gap": "x"}] * 2}, "rank_gap must be an int",
                 id="rank-gap-string"),
    pytest.param({"pairs": [{"upper": "a", "lower": "b", "rank_gap": True}] * 2}, "rank_gap must be an int",
                 id="rank-gap-true"),
    pytest.param({"pairs": [{"upper": "a", "lower": "b", "rank_gap": 0}] * 2}, "rank_gap must be in [1, inf)",
                 id="rank-gap-0"),
    pytest.param({"pairs": [{"upper": "a", "lower": "b"}] * 2}, "has no key 'rank_gap'", id="pair-missing-key"),
    pytest.param({"pairs": [{"upper": "a", "lower": "b", "rank_gap": 1, "x": 0}] * 2}, "unknown key 'x'",
                 id="pair-unknown-key"),
    pytest.param({"pairs": [["a", "b", 1]] * 2}, "preference pair must be a JSON object", id="pair-a-list"),
    pytest.param({"pairs": [{"upper": 1, "lower": "b", "rank_gap": 1}] * 2}, "must be docids", id="upper-an-int"),
    pytest.param({"salience": [0.5]}, "list of 2 numbers", id="two-terms-one-salience"),
    pytest.param({"salience": [0.5, "x"]}, "salience of 't01' must be a number", id="salience-string"),
    pytest.param({"salience": [0.5, float("nan")]}, "salience of 't01' must be in (-inf, inf)", id="salience-nan"),
    pytest.param({"terms": ["t0", 1]}, "'terms' must be a list of strings", id="term-an-int"),
    pytest.param({"rankers": "bm25"}, "'rankers' must be a list of strings", id="rankers-a-string"),
])
def test_matrix_from_json_rejects_what_a_matrix_cannot_hold(changes, message):
    # At the parent these loaded; show_matrix then raised KeyError: 2, and an
    # empty pair list divided by zero in the coverage explainers.
    with pytest.raises(ValueError, match=re.escape(message)):
        matrix_from_json(_edited_json(**changes))


def test_matrix_from_json_rejects_a_repeated_key():
    # Plain json would keep the last "rankers" and load the matrix.
    text = matrix_to_json(make_matrix([[1, -1], [0, 1]]))
    with pytest.raises(ValueError, match="repeated key 'rankers'"):
        matrix_from_json('{"rankers": ["x"], ' + text.lstrip()[1:])


def test_matrix_from_json_rejects_what_is_not_an_object():
    with pytest.raises(ValueError, match="preference matrix must be a JSON object"):
        matrix_from_json("[]")


def test_preference_matrix_requires_an_int8_array():
    matrix = make_matrix([[1, 0]])
    with pytest.raises(ValueError, match="int8"):
        PreferenceMatrix(matrix.rankers, matrix.candidates, matrix.pairs, matrix.entries.astype(np.int64))
    with pytest.raises(ValueError, match="int8"):
        PreferenceMatrix(matrix.rankers, matrix.candidates, matrix.pairs, matrix.entries.tolist())


# -- batch ------------------------------------------------------------------------------


def test_explain_all_empty():
    index = build_index([Document("d1", "qq")])
    result = explain_all(index, {}, {})
    assert result.explanations == {} and result.errors == {}


def test_explain_all_isolates_failures(demo_index):
    ranker = BM25Ranker(demo_index)
    topics = {"1": "thai daily life", "2": "exons definition biology"}
    runs = {
        "1": rank(demo_index, ranker, Query.from_text(demo_index, "1", topics["1"]), depth=5),
        "2": RankedList.from_entries("2", [RunEntry("B1", 1, 1.0)]),  # singleton fails
    }
    params = ListwiseParams(method="multiplex", n_candidates=15, n_pairs=5, m_min=1, m_max=3)
    result = explain_all(demo_index, topics, runs, params)
    assert "1" in result.explanations
    assert "2" in result.errors


def test_explain_all_missing_run_rejected(demo_index):
    with pytest.raises(ValueError, match="without runs"):
        explain_all(demo_index, {"1": "thai"}, {})


def test_explain_all_matches_per_query(demo_index):
    ranker = BM25Ranker(demo_index)
    topics = {"1": "thai daily life", "3": "causes of stroke"}
    runs = {
        qid: rank(demo_index, ranker, Query.from_text(demo_index, qid, text), depth=6)
        for qid, text in topics.items()
    }
    params = ListwiseParams(method="intent_exs", n_candidates=15, n_pairs=8,
                            m_min=1, m_max=3, seed=11)
    batch = explain_all(demo_index, topics, runs, params)
    for qid, text in topics.items():
        single = explain_listwise(demo_index, Query.from_text(demo_index, qid, text),
                                  runs[qid], params)
        assert batch.explanations[qid] == single


def test_fidelity_pool_confined(demo_index):
    ranker = BM25Ranker(demo_index)
    query = Query.from_text(demo_index, "1", "thai daily life")
    ranked = rank(demo_index, ranker, query, depth=4)
    evaluate = FidelityEvaluator(demo_index, ranker, query, ranked, 0.9)
    evaluate(["coffe"])  # re-ranking must stay inside the 4 pool docs
    assert evaluate.calls == 1
