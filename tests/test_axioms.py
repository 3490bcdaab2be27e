import gc
import hashlib
import itertools
import json
import re
import weakref

import pytest

from rankexplain import (
    AggregatedAxiom,
    Document,
    Query,
    aggregate_preference,
    axiom_preference,
    build_index,
    explain_details,
    make_ranker,
    rank,
    render_details,
)
from rankexplain import axioms
from rankexplain.axioms import AXIOM_NAMES, DETAILED_AXIOMS, DetailsTable
from rankexplain.index import UnknownDocumentError
from rankexplain.rng import XorShift64Star

from conftest import axiom_preferences, make_vocab, random_corpus


def mini_index(*texts):
    return build_index([Document(f"d{i}", t) for i, t in enumerate(texts, start=1)])


def pref(axiom, index, terms, d1="d1", d2="d2"):
    return axiom_preference(axiom, index, Query.from_terms("q", terms), d1, d2)


# -- three hand cases per axiom ------------------------------------------------


def test_tfc1_cases():
    index = mini_index("qq qq qq ff", "qq ff ff ff")
    assert pref("TFC1", index, ["qq"]) == 1
    assert pref("TFC1", index, ["qq"], "d2", "d1") == -1
    equal = mini_index("qq ff", "qq gg")
    assert pref("TFC1", equal, ["qq"]) == 0
    incomparable = mini_index("qq qq", "qq ff ff ff ff ff ff ff")
    assert pref("TFC1", incomparable, ["qq"]) == 0


def test_tfc3_cases():
    index = mini_index("qq ww ff ff", "qq qq ff ff")
    assert pref("TFC3", index, ["qq", "ww"]) == 1
    assert pref("TFC3", index, ["qq", "ww"], "d2", "d1") == -1
    both = mini_index("qq ww ff ff", "ww qq ff ff")
    assert pref("TFC3", both, ["qq", "ww"]) == 0
    unequal_sum = mini_index("qq qq ww ff", "qq ff ff ff")
    assert pref("TFC3", unequal_sum, ["qq", "ww"]) == 0


def test_tdc_cases():
    # ww appears everywhere (low idf), qq only once (high idf)
    index = build_index([
        Document("d1", "qq ff"),
        Document("d2", "ww ff"),
        Document("x1", "ww hh"),
        Document("x2", "ww hh"),
        Document("x3", "ww hh"),
    ])
    assert pref("TDC", index, ["qq", "ww"]) == 1
    assert pref("TDC", index, ["qq", "ww"], "d2", "d1") == -1
    assert pref("TDC", index, ["qq", "ww"], "d1", "d1") == 0


def test_lnc1_cases():
    index = mini_index("qq ff", "qq ff ff")
    assert pref("LNC1", index, ["qq"]) == 1
    assert pref("LNC1", index, ["qq"], "d2", "d1") == -1
    equal = mini_index("qq ff", "qq gg")
    assert pref("LNC1", equal, ["qq"]) == 0
    unequal_tf = mini_index("qq qq", "qq ff")
    assert pref("LNC1", unequal_tf, ["qq"]) == 0


def test_tf_lnc_cases():
    index = mini_index("qq qq ff ff ff", "qq ff ff ff")
    assert pref("TF_LNC", index, ["qq"]) == 1
    assert pref("TF_LNC", index, ["qq"], "d2", "d1") == -1
    too_long = mini_index("qq qq ff ff ff ff ff", "qq ff ff ff")
    assert pref("TF_LNC", too_long, ["qq"]) == 0


def test_lb1_cases():
    index = mini_index("qq ww ff", "qq ff ff")
    assert pref("LB1", index, ["qq", "ww"]) == 1
    assert pref("LB1", index, ["qq", "ww"], "d2", "d1") == -1
    not_comparable = mini_index("qq qq qq qq ww ff", "qq ff ff ff ff ff")
    assert pref("LB1", not_comparable, ["qq", "ww"]) == 0
    same_matches = mini_index("qq ww ff", "ww qq gg")
    assert pref("LB1", same_matches, ["qq", "ww"]) == 0


def test_prox1_cases():
    index = mini_index("qq ww", "qq ff ff ww")
    assert pref("PROX1", index, ["qq", "ww"]) == 1
    assert pref("PROX1", index, ["qq", "ww"], "d2", "d1") == -1
    assert pref("PROX1", index, ["qq", "ww"], "d1", "d1") == 0
    # a document with no matched pair counts as infinitely distant
    partial = mini_index("qq ww ff", "qq ff ff")
    assert pref("PROX1", partial, ["qq", "ww"]) == 1


def test_prox2_cases():
    index = mini_index("qq ww ff ff", "qq ff ww ff")
    assert pref("PROX2", index, ["qq", "ww"]) == 1
    assert pref("PROX2", index, ["qq", "ww"], "d2", "d1") == -1
    assert pref("PROX2", index, ["qq", "ww"], "d1", "d1") == 0
    # matching more query terms wins before window size
    more_matches = mini_index("qq ff ff ff ff ww", "qq ff ff")
    assert pref("PROX2", more_matches, ["qq", "ww"]) == 1


def test_prox3_cases():
    index = mini_index("qq ww ff", "ff qq ww")
    assert pref("PROX3", index, ["qq", "ww"]) == 1
    assert pref("PROX3", index, ["qq", "ww"], "d2", "d1") == -1
    missing = mini_index("qq ff ww", "ww qq ff")
    assert pref("PROX3", missing, ["qq", "ww"]) == 0
    one_sided = mini_index("qq ww ff", "qq ff ww")
    assert pref("PROX3", one_sided, ["qq", "ww"]) == 1


def test_prox4_cases():
    index = mini_index("qq ff ww", "qq ff ff ff ww")
    assert pref("PROX4", index, ["qq", "ww"]) == 1
    assert pref("PROX4", index, ["qq", "ww"], "d2", "d1") == -1
    assert pref("PROX4", index, ["qq", "ww"], "d2", "d2") == 0


def test_prox4_brute_force_over_occurrence_pairs():
    rng = XorShift64Star(8)
    vocab = ["qq", "ww", "ff", "gg"]
    for _ in range(30):
        corpus = random_corpus(rng, 2, vocab, min_len=4, max_len=12)
        index = build_index(corpus)
        query = Query.from_terms("q", ["qq", "ww"])

        def oracle_min(docid):
            best = float("inf")
            pos = {t: index.positions(t, docid) for t in ("qq", "ww")}
            matched = [t for t, ps in pos.items() if ps]
            for ta, tb in itertools.combinations(matched, 2):
                for pa in pos[ta]:
                    for pb in pos[tb]:
                        best = min(best, abs(pa - pb))
            return best

        a, b = oracle_min("d000"), oracle_min("d001")
        expected = 0 if a == b else (1 if a < b else -1)
        assert axiom_preference("PROX4", index, query, "d000", "d001") == expected


def test_prox5_cases():
    index = mini_index("qq ww qq ww", "qq ff ww ff qq")
    assert pref("PROX5", index, ["qq", "ww"]) == 1
    assert pref("PROX5", index, ["qq", "ww"], "d2", "d1") == -1
    assert pref("PROX5", index, ["qq", "ww"], "d1", "d1") == 0


def test_and_cases():
    index = mini_index("qq ww ff", "qq ff ff")
    assert pref("AND", index, ["qq", "ww"]) == 1
    assert pref("AND", index, ["qq", "ww"], "d2", "d1") == -1
    complete = mini_index("qq ww ff", "ww ff qq")
    assert pref("AND", complete, ["qq", "ww"]) == 0
    both_incomplete = mini_index("qq ff", "ff gg")
    assert pref("AND", both_incomplete, ["qq", "ww"]) == 0


def test_identical_documents_zero_everywhere():
    index = mini_index("qq ww qq ff", "ff gg")
    query = Query.from_terms("q", ["qq", "ww"])
    for name in AXIOM_NAMES:
        assert axiom_preference(name, index, query, "d1", "d1") == 0


def test_unknown_axiom_lists_valid_set():
    index = mini_index("qq", "ww")
    with pytest.raises(ValueError, match="TFC1"):
        axiom_preference("BOGUS", index, Query.from_terms("q", ["qq"]), "d1", "d2")


def test_unknown_docid_error():
    index = mini_index("qq", "ww")
    with pytest.raises(UnknownDocumentError):
        axiom_preference("TFC1", index, Query.from_terms("q", ["qq"]), "d1", "nope")


def test_antisymmetry_random_triples():
    rng = XorShift64Star(123)
    vocab = make_vocab(8)
    for _ in range(40):
        corpus = random_corpus(rng, 6, vocab, min_len=3, max_len=25)
        index = build_index(corpus)
        ids = index.doc_ids()
        for _ in range(10):
            terms = [vocab[rng.randbelow(len(vocab))] for _ in range(1 + rng.randbelow(3))]
            query = Query.from_terms("q", terms)
            d1 = ids[rng.randbelow(len(ids))]
            d2 = ids[rng.randbelow(len(ids))]
            forward = axiom_preferences(index, query, d1, d2)
            backward = axiom_preferences(index, query, d2, d1)
            for name in AXIOM_NAMES:
                assert forward[name] == -backward[name], (name, d1, d2, terms)


def test_tfc1_duplication_invariance():
    rng = XorShift64Star(55)
    vocab = make_vocab(6)
    for _ in range(20):
        corpus = random_corpus(rng, 2, vocab, min_len=3, max_len=10)
        doubled = [Document(d.docid, d.text + " " + d.text) for d in corpus]
        q = Query.from_terms("q", [vocab[rng.randbelow(len(vocab))]])
        single = axiom_preference("TFC1", build_index(corpus), q, corpus[0].docid, corpus[1].docid)
        double = axiom_preference("TFC1", build_index(doubled), q, corpus[0].docid, corpus[1].docid)
        assert single == double


# -- explain_details -----------------------------------------------------------


def test_details_aggregation_fixture():
    # Printed per-pair averages must reproduce the published totals
    # through the same aggregation used for live documents.
    table = DetailsTable.build(
        "PROX1",
        query_terms=["exon", "definit", "biolog"],
        doc_ids=("D1077802", "D1806793"),
        tf_rows=[("exon", 23, 21), ("definit", 7, 56), ("biolog", 1, 25)],
        pair_rows=[
            (("exon", "definit"), 174.43, 2728.07),
            (("definit", "biolog"), 354.71, 3287.24),
            (("exon", "biolog"), 315.04, 2864.24),
        ],
    )
    assert table.num_pairs == (3, 3)
    assert table.total_avg_dist[0] == pytest.approx(281.39, abs=0.01)
    assert table.total_avg_dist[1] == pytest.approx(2959.85, abs=0.01)
    assert table.preference == 1
    text = render_details(table)
    assert "tf(exon)" in text and "avg_dist(exon, definit)" in text
    assert "total_avg_dist" in text and "281.39" in text


def test_details_single_term_query():
    index = mini_index("qq qq ff", "qq ff ff")
    table = explain_details("PROX1", index, Query.from_terms("q", ["qq"]), "d1", "d2")
    assert table.num_pairs == (0, 0)
    assert table.preference == 0


def test_details_matches_brute_force_enumeration():
    index = mini_index("qq ww qq ff ww", "ww ff ff qq qq")
    query = Query.from_terms("q", ["qq", "ww"])
    table = explain_details("PROX1", index, query, "d1", "d2")

    def oracle(docid):
        pos_a = index.positions("qq", docid)
        pos_b = index.positions("ww", docid)
        dists = [abs(a - b) for a in pos_a for b in pos_b]
        return sum(dists) / len(dists)

    (pair, left, right), = table.pair_rows
    assert pair == ("qq", "ww")
    assert left == pytest.approx(oracle("d1"), abs=1e-9)
    assert right == pytest.approx(oracle("d2"), abs=1e-9)
    assert table.total_avg_dist[0] == pytest.approx(oracle("d1"), abs=1e-9)


def test_details_tfc1_and_no_detail_axioms():
    index = mini_index("qq qq ff", "qq ff ff")
    table = explain_details("TFC1", index, Query.from_terms("q", ["qq"]), "d1", "d2")
    assert table.tf_rows == [("qq", 2, 1)]
    assert table.preference == 1
    with pytest.raises(ValueError, match="no detailed view"):
        explain_details("AND", index, Query.from_terms("q", ["qq"]), "d1", "d2")


def test_details_json_rendering():
    index = mini_index("qq ww", "qq ff ww")
    table = explain_details("PROX1", index, Query.from_terms("q", ["qq", "ww"]), "d1", "d2")
    payload = json.loads(render_details(table, fmt="json"))
    assert payload["preference"] == 1
    labels = [row["label"] for row in payload["rows"]]
    assert "tf(qq)" in labels and "num_pairs" in labels


# -- aggregation ----------------------------------------------------------------


def test_aggregate_single_child_identity():
    index = mini_index("qq qq ff", "qq ff ff")
    query = Query.from_terms("q", ["qq"])
    agg = AggregatedAxiom(children=(("TFC1", 1.0),))
    assert aggregate_preference(agg, index, query, "d1", "d2") == \
        axiom_preference("TFC1", index, query, "d1", "d2")


def test_aggregate_opposing_children_cancel():
    index = mini_index("qq qq ff", "qq ff ff")  # TFC1 +1, LNC1 0; use PROX pair instead
    query = Query.from_terms("q", ["qq"])
    # Build prefs (+1, -1) explicitly: TFC1 favors d1, reversed TFC1 via swapped docs
    agg = AggregatedAxiom(children=(("TFC1", 1.0), ("TFC1", 1.0)))
    forward = aggregate_preference(agg, index, query, "d1", "d2")
    assert forward == 1
    # +1 and -1 with equal weight on a genuinely opposing pair
    opposing = mini_index("qq qq ff ff ff ff ff ff ff ff", "qq ff")
    # TFC1: lengths incomparable -> 0; LNC1: unequal tf -> 0; AND both match -> 0
    agg2 = AggregatedAxiom(children=(("TFC1", 1.0), ("LNC1", 1.0)))
    assert aggregate_preference(agg2, opposing, query, "d1", "d2") == 0


def test_aggregate_weighted_sum():
    index = mini_index("qq qq ff", "qq ff ff")
    # TFC1 gives +1 (more tf, comparable length); LNC1 gives 0 (tf unequal)
    query = Query.from_terms("q", ["qq"])
    agg = AggregatedAxiom(children=(("TFC1", 2.0), ("LNC1", 1.0)))
    assert aggregate_preference(agg, index, query, "d1", "d2") == 1


def test_aggregate_weights_two_to_one():
    # prefs (+1, -1) with weights (2, 1) -> +1; sign invariance under scaling
    index = mini_index("qq ww", "qq ff ff ww")
    query = Query.from_terms("q", ["qq", "ww"])
    # PROX1 prefers d1 (+1); LNC1 prefers nothing... craft with PROX1 and TFC1 swapped docs
    p_prox = axiom_preference("PROX1", index, query, "d1", "d2")
    assert p_prox == 1
    lnc = axiom_preference("LNC1", index, query, "d1", "d2")
    assert lnc == 1  # shorter doc with equal tf
    # build an actual opposing pair: use PROX1 on (d1, d2) and on (d2, d1)
    # via majority of prefs computed per child
    agg = AggregatedAxiom(children=(("PROX1", 2.0), ("LNC1", 1.0)), mode="weighted_sum_sign")
    assert aggregate_preference(agg, index, query, "d1", "d2") == 1
    scaled = AggregatedAxiom(children=(("PROX1", 20.0), ("LNC1", 10.0)))
    assert aggregate_preference(scaled, index, query, "d1", "d2") == 1


def test_aggregate_majority():
    index = mini_index("qq ww", "qq ff ff ww")
    query = Query.from_terms("q", ["qq", "ww"])
    agg = AggregatedAxiom(children=(("PROX1", 1.0), ("LNC1", 1.0), ("AND", 1.0)),
                          mode="majority")
    assert aggregate_preference(agg, index, query, "d1", "d2") == 1


def test_aggregate_validation():
    with pytest.raises(ValueError, match="at least one"):
        AggregatedAxiom(children=())
    with pytest.raises(ValueError, match="unknown axiom"):
        AggregatedAxiom(children=(("NOPE", 1.0),))
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=re.escape(f"weight for 'TFC1' must be in (-inf, inf), got {bad!r}")):
            AggregatedAxiom(children=(("TFC1", bad),))


def test_aggregate_antisymmetry_and_scale_invariance():
    rng = XorShift64Star(77)
    vocab = make_vocab(6)
    agg = AggregatedAxiom(children=(("TFC1", 1.5), ("PROX1", 1.0), ("AND", 0.5)))
    for _ in range(25):
        corpus = random_corpus(rng, 4, vocab, min_len=3, max_len=15)
        index = build_index(corpus)
        ids = index.doc_ids()
        query = Query.from_terms("q", [vocab[rng.randbelow(len(vocab))],
                                       vocab[rng.randbelow(len(vocab))]])
        d1, d2 = ids[0], ids[1]
        fwd = aggregate_preference(agg, index, query, d1, d2)
        bwd = aggregate_preference(agg, index, query, d2, d1)
        assert fwd == -bwd
        scaled = AggregatedAxiom(children=tuple((n, w * 7.0) for n, w in agg.children))
        assert aggregate_preference(scaled, index, query, d1, d2) == fwd


# -- the DocStats memo ------------------------------------------------------------


def _all_outputs(index, query, di, dj):
    return (axiom_preferences(index, query, di, dj),
            [explain_details(name, index, query, di, dj) for name in DETAILED_AXIOMS])


def test_cold_warm_and_fresh_index_give_equal_results():
    corpus = random_corpus(XorShift64Star(5), 4, make_vocab(5), min_len=3, max_len=20)
    for terms in (["w00", "w01", "w00", "w03"], ["w00", "w01", "w03"]):    # repeated, then distinct
        index = build_index(corpus)
        query = Query.from_terms("q", terms)
        assert axioms._memos.get(id(index)) is None
        cold = _all_outputs(index, query, "d000", "d001")
        assert len(axioms._memos[id(index)]) == 2
        warm = _all_outputs(index, query, "d000", "d001")
        fresh = _all_outputs(build_index(corpus), query, "d000", "d001")
        assert cold == warm == fresh


def test_a_query_built_from_a_list_holds_a_tuple_and_gives_the_same_preferences():
    query = Query("q", ["qq", "ww"])
    assert query.terms == ("qq", "ww")
    assert axiom_preferences(mini_index("qq ww qq", "ww ff"), query, "d1", "d2") \
        == axiom_preferences(mini_index("qq ww qq", "ww ff"), Query.from_terms("q", ("qq", "ww")), "d1", "d2")


def test_an_unknown_docid_raises_every_time_and_stores_nothing():
    index = mini_index("qq ww", "ww")
    query = Query.from_terms("q", ["qq", "ww"])
    for _ in range(2):
        with pytest.raises(UnknownDocumentError):
            axiom_preference("PROX1", index, query, "nope", "d1")
        assert axioms._memos.get(id(index)) is None
    for _ in range(2):
        with pytest.raises(UnknownDocumentError):
            explain_details("PROX1", index, query, "d1", "nope")
        assert list(axioms._memos[id(index)]) == [(("qq", "ww"), "d1")]


def test_the_memo_is_freed_with_its_index():
    index = mini_index("qq ww", "ww qq")
    axiom_preferences(index, Query.from_terms("q", ["qq", "ww"]), "d1", "d2")
    alive = weakref.ref(index)
    n_memos = len(axioms._memos)
    del index
    gc.collect()
    assert alive() is None
    assert len(axioms._memos) < n_memos


def test_the_memo_holds_at_most_its_capacity_and_evicts_the_oldest_first():
    index = mini_index("qq ww", "ww ff")
    queries = [Query.from_terms("q", ["qq", f"x{k}"]) for k in range(axioms.MEMO_CAPACITY)]
    for query in queries:
        axiom_preference("TFC1", index, query, "d1", "d2")
        assert len(axioms._memos[id(index)]) <= axioms.MEMO_CAPACITY
    memo = axioms._memos[id(index)]
    assert len(memo) == axioms.MEMO_CAPACITY
    assert (("qq", "x0"), "d1") not in memo and (("qq", "x0"), "d2") not in memo
    assert list(memo)[-1] == (("qq", f"x{axioms.MEMO_CAPACITY - 1}"), "d2")


def test_a_pair_of_one_document_builds_its_stats_once(monkeypatch):
    built = []

    class CountingStats(axioms.DocStats):
        def __init__(self, index, terms, docid):
            built.append(docid)
            super().__init__(index, terms, docid)

    monkeypatch.setattr(axioms, "DocStats", CountingStats)
    index = mini_index("qq ww", "ww ff")
    query = Query.from_terms("q", ["qq", "ww"])
    axiom_preferences(index, query, "d1", "d1")
    assert built == ["d1"]
    assert list(axioms._memos[id(index)]) == [(("qq", "ww"), "d1")]


def test_indexes_with_the_same_docids_do_not_share_stats():
    first = mini_index("qq ff ww", "qq ww")
    second = mini_index("ww ff ff ff qq", "qq qq ww")
    query = Query.from_terms("q", ["qq", "ww"])
    before = _all_outputs(second, query, "d1", "d2")
    axioms._memos.pop(id(second))
    _all_outputs(first, query, "d1", "d2")
    assert _all_outputs(second, query, "d1", "d2") == before
    assert _all_outputs(first, query, "d1", "d2") != before


# -- the pairwise outputs at doc-explain's scale -----------------------------------


PAIRWISE_DIGEST = "77186e77004e3816d01ddfb4bbdb9f765ff9a31bf83ce07e75d702445f61b8a3"


def test_pairwise_outputs_at_doc_explain_scale_keep_their_digest():
    # doc-explain's shape: 300 documents of 150-400 tokens, 4-term queries and
    # the adjacent pairs of a top-20 bm25 list. No float here passes through
    # BLAS, so the digest holds on every machine.
    rng = XorShift64Star(37)
    vocab = make_vocab(800)
    index = build_index(random_corpus(rng, 300, vocab, min_len=150, max_len=400))
    ranker = make_ranker(index, "bm25")
    weighted = AggregatedAxiom(children=tuple((name, 1.0 + i % 3) for i, name in enumerate(AXIOM_NAMES)))
    majority = AggregatedAxiom(children=tuple((name, 1.0) for name in AXIOM_NAMES), mode="majority")
    digest = hashlib.sha256()
    for t in range(10):
        query = Query.from_terms(f"q{t}", [vocab[rng.randbelow(len(vocab))] for _ in range(4)])
        docids = rank(index, ranker, query, depth=20).docids
        for di, dj in zip(docids, docids[1:]):
            record = [axiom_preferences(index, query, di, dj),
                      aggregate_preference(weighted, index, query, di, dj),
                      aggregate_preference(majority, index, query, di, dj)]
            for name in DETAILED_AXIOMS:
                table = explain_details(name, index, query, di, dj)
                record += [render_details(table), render_details(table, "json")]
            digest.update(f"{query.qid} {di} {dj} {record!r}\n".encode())
    assert digest.hexdigest() == PAIRWISE_DIGEST
