import re
import math

import numpy as np
import pytest

from rankexplain import (
    BM25Ranker,
    Document,
    HiddenIntentRanker,
    LinearScorer,
    LMDirRanker,
    LMJMRanker,
    Query,
    RankedList,
    RankerParams,
    RunEntry,
    build_index,
    load_from_res,
    load_topics,
    make_ranker,
    rank,
    save_to_res,
)
from rankexplain.rankers import SIMPLE_RANKERS
from rankexplain.index import UnknownDocumentError
from rankexplain.rng import XorShift64Star

from conftest import make_vocab, random_corpus


@pytest.fixture()
def cat_index():
    return build_index([Document("D1", "cat cat dog"), Document("D2", "dog mouse")])


def test_bm25_hand_value(cat_index):
    # idf = ln(1 + 1.5/1.5) = ln 2; tf part = 2*2.2 / (2 + 1.2*1.15)
    ranker = BM25Ranker(cat_index, RankerParams(k1=1.2, b=0.75))
    query = Query.from_text(cat_index, "q", "cat")
    expected = math.log(2.0) * (2 * 2.2) / (2 + 1.2 * (0.25 + 0.75 * 3 / 2.5))
    assert ranker.score(query, "D1") == pytest.approx(expected)
    assert ranker.score(query, "D1") == pytest.approx(0.902, abs=5e-4)


def test_bm25_empty_query(cat_index):
    ranker = BM25Ranker(cat_index)
    assert ranker.score(Query.from_terms("q", []), "D1") == 0.0


def test_bm25_symmetry_equal_docs():
    index = build_index([Document("a", "qq ww"), Document("b", "qq zz")])
    ranker = BM25Ranker(index)
    query = Query.from_terms("q", ["qq"])
    assert ranker.score(query, "a") == ranker.score(query, "b")


def test_bm25_unknown_docid(cat_index):
    with pytest.raises(UnknownDocumentError):
        BM25Ranker(cat_index).score(Query.from_terms("q", ["cat"]), "nope")


@pytest.mark.parametrize("terms", [[], ["zzoov"], ["zzoov", "cat", "dog"]])
@pytest.mark.parametrize("make", [BM25Ranker, LMJMRanker, LMDirRanker])
def test_sparse_score_unknown_docid(cat_index, make, terms):
    # No terms, only a term absent from the collection, and matching terms.
    with pytest.raises(UnknownDocumentError, match="'nope'"):
        make(cat_index).score(Query.from_terms("q", terms), "nope")


@pytest.mark.parametrize("coefficients", [{}, {"cat": 2.0}])
def test_linear_scorer_unknown_docid(cat_index, coefficients):
    with pytest.raises(UnknownDocumentError, match="'nope'"):
        LinearScorer(cat_index, coefficients).score(Query.from_terms("q", []), "nope")


def test_bm25_tf_monotone(cat_index):
    ranker = BM25Ranker(cat_index)
    query = Query.from_terms("q", ["cat"])
    base = ranker.score_tokens(query, ["cat", "dog", "dog"])
    more = ranker.score_tokens(query, ["cat", "cat", "dog", "dog"])
    assert more >= base


def test_lmjm_hand_value():
    index = build_index([Document("d1", "qq ww"), Document("d2", "ww zz")])
    ranker = LMJMRanker(index, RankerParams(jm_lambda=0.5))
    query = Query.from_terms("q", ["qq"])
    assert ranker.score(query, "d1") == pytest.approx(math.log(0.5 * 0.5 + 0.5 * 0.25))
    assert ranker.score(query, "d2") == pytest.approx(math.log(0.125))


def test_lm_oov_term_skipped():
    index = build_index([Document("d1", "qq ww")])
    for ranker in (LMJMRanker(index, RankerParams(jm_lambda=0.5)), LMDirRanker(index, RankerParams(dirichlet_mu=10))):
        with_oov = ranker.score(Query.from_terms("q", ["qq", "nonexistent"]), "d1")
        without = ranker.score(Query.from_terms("q", ["qq"]), "d1")
        assert with_oov == without


def test_lm_identical_docs_equal_scores():
    index = build_index([Document("d1", "qq ww"), Document("d2", "qq ww")])
    query = Query.from_terms("q", ["qq", "ww"])
    for ranker in (LMJMRanker(index), LMDirRanker(index)):
        assert ranker.score(query, "d1") == ranker.score(query, "d2")


def test_lmdir_hand_value():
    index = build_index([Document("d1", "qq ww"), Document("d2", "ww zz")])
    ranker = LMDirRanker(index, RankerParams(dirichlet_mu=4.0))
    # cf(qq)=1, |C|=4 -> (1 + 4*0.25) / (2 + 4)
    assert ranker.score(Query.from_terms("q", ["qq"]), "d1") == pytest.approx(math.log(2.0 / 6.0))


def test_lm_parameter_validation():
    index = build_index([Document("d1", "qq")])
    with pytest.raises(ValueError):
        LMJMRanker(index, RankerParams(jm_lambda=0.0))
    with pytest.raises(ValueError):
        LMJMRanker(index, RankerParams(jm_lambda=1.0))
    for mu in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=re.escape("dirichlet_mu must be in [1e-280, inf)")):
            LMDirRanker(index, RankerParams(dirichlet_mu=mu))
    for k1, b, name in ((-1.0, 0.0, "k1"), (-0.5, 0.4, "k1"), (math.nan, 0.4, "k1"),
                        (math.inf, 0.4, "k1"), (0.9, 7.0, "b"), (0.9, -0.1, "b"), (0.9, math.nan, "b")):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            BM25Ranker(index, RankerParams(k1=k1, b=b))
    for bad in ({"jm_lambda": 0.0}, {"jm_lambda": 5.0}, {"dirichlet_mu": 0.0},
                {"dirichlet_mu": math.nan}, {"dirichlet_mu": math.inf}, {"k1": -1.0, "b": 0.0},
                {"k1": -0.5}, {"k1": math.nan}, {"k1": math.inf}, {"b": 7.0}, {"b": -0.1}, {"b": math.nan}):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be"):
            RankerParams(**bad)
    # The ends of each domain are accepted.
    BM25Ranker(index, RankerParams(k1=0.0, b=0.0))
    BM25Ranker(index, RankerParams(k1=1e300, b=1.0))
    RankerParams(k1=0.0, b=1.0, jm_lambda=1e-280, dirichlet_mu=1e-280)


def test_lm_smoothing_lower_ends_score_finite():
    index = build_index([Document("d1", "qq rr"), Document("d2", "rr ss tt"), Document("d3", "")])
    query = Query.from_terms("q", ["qq", "ss", "zz"])
    tokens = ["rr", "ss", "tt"]
    kept = [[True, True, True], [True, False, True], [False, False, False]]
    for ranker in (LMJMRanker(index, RankerParams(jm_lambda=1e-280)),
                   LMDirRanker(index, RankerParams(dirichlet_mu=1e-280))):
        scores = [ranker.score(query, docid) for docid in ("d1", "d2", "d3")]
        scores += [e.score for e in rank(index, ranker, query, depth=3).entries]
        scores += ranker.score_masked(query, tokens, kept).tolist()
        assert all(math.isfinite(s) for s in scores), ranker.name


class _HugeIndex:
    """One indexed term, of cf 1, in a collection of 2**63 - 1 tokens."""

    total_tokens = 2**63 - 1

    def cf(self, term):
        return 1


def test_lm_smoothing_lower_ends_keep_likelihoods_positive_up_to_2_63_tokens():
    tf, dl = np.zeros((1, 3), dtype=np.int64), np.array([0, 1, 2**63 - 1])
    for ranker in (LMJMRanker(_HugeIndex(), RankerParams(jm_lambda=1e-280)),
                   LMDirRanker(_HugeIndex(), RankerParams(dirichlet_mu=1e-280)),
                   LMDirRanker(_HugeIndex(), RankerParams(dirichlet_mu=2.0**64)),
                   LMDirRanker(_HugeIndex(), RankerParams(dirichlet_mu=1.7e308))):
        assert (ranker._likelihood_block(["t"], tf, dl) > 0.0).all(), ranker.params


def test_underflowing_lm_smoothing_is_a_value_error_naming_the_field():
    for field in ("jm_lambda", "dirichlet_mu"):
        with pytest.raises(ValueError, match=f"^{field} must be in \\[1e-280, .*got 5e-324$"):
            RankerParams(**{field: 5e-324})


def test_make_ranker_names_the_sparse_models(cat_index):
    assert SIMPLE_RANKERS == ("bm25", "lmjm", "lmdir")
    assert [type(make_ranker(cat_index, name)) for name in SIMPLE_RANKERS] == [BM25Ranker, LMJMRanker, LMDirRanker]
    for name in ("BM25", "linear", "", ["bm25"], None):
        with pytest.raises(ValueError, match=re.escape(f"unknown ranker {name!r}; valid: bm25, lmjm, lmdir")):
            make_ranker(cat_index, name)


def test_rank_singleton_pool(cat_index):
    ranker = BM25Ranker(cat_index)
    query = Query.from_text(cat_index, "q", "cat")
    ranked = rank(cat_index, ranker, query, pool={"D2"})
    assert ranked.docids == ["D2"]
    assert ranked.entries[0].rank == 1


def test_rank_tie_breaks_ascending_docid():
    index = build_index([Document("b", "qq"), Document("a", "qq")])
    ranked = rank(index, BM25Ranker(index), Query.from_terms("q", ["qq"]))
    assert ranked.docids == ["a", "b"]


def test_rank_from_bm25_example(cat_index):
    ranked = rank(cat_index, BM25Ranker(cat_index, RankerParams(k1=1.2, b=0.75)),
                  Query.from_text(cat_index, "q", "cat"))
    assert ranked.docids[0] == "D1"


def test_rank_pool_permutation_invariant(cat_index):
    ranker = BM25Ranker(cat_index)
    query = Query.from_text(cat_index, "q", "cat dog")
    a = rank(cat_index, ranker, query, pool=["D1", "D2"])
    b = rank(cat_index, ranker, query, pool=["D2", "D1"])
    assert a == b


def test_rank_rejects_a_pool_naming_a_docid_twice(cat_index):
    ranker = BM25Ranker(cat_index)
    query = Query.from_text(cat_index, "q", "cat dog")
    with pytest.raises(ValueError, match="duplicate 'D1' in pool"):
        rank(cat_index, ranker, query, pool=iter(["D1", "D2", "D1"]))
    assert rank(cat_index, ranker, query, pool={"D1", "D2"}) == rank(cat_index, ranker, query, pool=["D2", "D1"])


def test_rank_empty_candidates(cat_index):
    ranked = rank(cat_index, BM25Ranker(cat_index), Query.from_terms("q", ["zz"]))
    assert len(ranked) == 0


@pytest.mark.parametrize("make", [
    BM25Ranker, LMJMRanker, LMDirRanker,
    pytest.param(lambda index: LinearScorer(index, {}), id="linear-no-terms"),
    pytest.param(lambda index: LinearScorer(index, {"zz": 2}), id="linear-int-coefficient")])
def test_a_pool_ranked_empty_query_writes_float_zero_scores(cat_index, make, tmp_path):
    ranker = make(cat_index)
    ranked = rank(cat_index, ranker, Query.from_terms("q", []), pool=["D2", "D1"])
    assert [repr(e.score) for e in ranked.entries] == ["0.0", "0.0"]
    path = tmp_path / "run.trec"
    save_to_res({"q": ranked}, str(path))
    assert path.read_text() == f"q Q0 D1 1 0.0 {ranker.name}\nq Q0 D2 2 0.0 {ranker.name}\n"


def test_rank_depth_validation(cat_index):
    with pytest.raises(ValueError):
        rank(cat_index, BM25Ranker(cat_index), Query.from_terms("q", ["cat"]), depth=0)


# -- run files ---------------------------------------------------------------


def test_load_single_line(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("1 Q0 d7 1 12.5 sys\n")
    runs = load_from_res(str(path))
    assert runs["1"].entries == [RunEntry("d7", 1, 12.5)]
    assert runs["1"].tag == "sys"


def test_load_reorders_by_rank(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("1 Q0 b 2 1.0 sys\n1 Q0 a 1 2.0 sys\n")
    runs = load_from_res(str(path))
    assert runs["1"].docids == ["a", "b"]


def test_load_rank_gap_error(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("1 Q0 a 1 2.0 sys\n1 Q0 b 3 1.0 sys\n")
    with pytest.raises(ValueError, match="gap"):
        load_from_res(str(path))


def test_load_duplicate_doc_error(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("1 Q0 a 1 2.0 sys\n1 Q0 a 2 1.0 sys\n")
    with pytest.raises(ValueError, match=":2"):
        load_from_res(str(path))


def test_load_rejects_a_qid_whose_lines_carry_different_tags(tmp_path):
    # Keeping the first tag would make save_to_res write it on every line of q1.
    path = tmp_path / "run.trec"
    path.write_text("q1 Q0 a 1 2.0 runA\nq2 Q0 c 1 3.0 runB\nq1 Q0 b 2 1.0 runB\n")
    with pytest.raises(ValueError, match="run.trec:3: qid q1 has tag 'runB', but an earlier line has 'runA'"):
        load_from_res(str(path))


def test_load_malformed_line_number(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("1 Q0 a 1 2.0 sys\n1 Q0 b oops\n")
    with pytest.raises(ValueError, match=":2"):
        load_from_res(str(path))


def test_load_score_inversion_rejected(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("1 Q0 a 1 1.0 sys\n1 Q0 b 2 2.0 sys\n")
    with pytest.raises(ValueError, match="non-increasing"):
        load_from_res(str(path))


@pytest.mark.parametrize("lines,lineno", [
    pytest.param("1 Q0 a 1 nan sys\n1 Q0 b 2 inf sys\n", 1, id="nan"),
    pytest.param("1 Q0 a 1 inf sys\n1 Q0 b 2 1.0 sys\n", 1, id="inf"),
    pytest.param("1 Q0 a 1 1.0 sys\n1 Q0 b 2 -inf sys\n", 2, id="-inf"),
])
def test_load_non_finite_score_rejected(tmp_path, lines, lineno):
    path = tmp_path / "run.trec"
    path.write_text(lines)
    with pytest.raises(ValueError, match=f"run.trec:{lineno}: score must be finite"):
        load_from_res(str(path))


def test_run_roundtrip_bit_exact(tmp_path, cat_index):
    query = Query.from_text(cat_index, "7", "cat dog")
    runs = {"7": rank(cat_index, BM25Ranker(cat_index), query)}
    p1 = tmp_path / "a.trec"
    p2 = tmp_path / "b.trec"
    save_to_res(runs, str(p1))
    save_to_res(load_from_res(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def _run(qid="q1", docid="d2", tag="sys"):
    entries = [RunEntry("d1", 1, 2.0), RunEntry(docid, 2, 1.5)]
    return {qid: RankedList(qid=qid, entries=entries, tag=tag)}


def test_save_to_res_valid_run_round_trips(tmp_path):
    path = tmp_path / "run.trec"
    save_to_res(_run(), str(path))
    assert path.read_text() == "q1 Q0 d1 1 2.0 sys\nq1 Q0 d2 2 1.5 sys\n"
    runs = load_from_res(str(path))
    assert runs["q1"].entries == _run()["q1"].entries and runs["q1"].tag == "sys"


@pytest.mark.parametrize("kind,bad", [
    ("qid", "q 1"), ("qid", ""), ("docid", "a b"), ("docid", "d\t2"), ("docid", ""),
    ("tag", "my sys"), ("tag", ""),
])
def test_save_to_res_rejects_an_id_it_could_not_read_back(tmp_path, kind, bad):
    path = tmp_path / "run.trec"
    with pytest.raises(ValueError, match=re.escape(f"{kind} {bad!r} is empty or contains whitespace")):
        save_to_res(_run(**{kind: bad}), str(path))
    assert not path.exists()


@pytest.mark.parametrize("kind,bad", [("qid", 7), ("docid", 5), ("docid", None), ("tag", 1.5)])
def test_save_to_res_rejects_an_id_that_is_not_a_string(tmp_path, kind, bad):
    path = tmp_path / "run.trec"
    with pytest.raises(ValueError, match=re.escape(f"{kind} must be a string, got {bad!r}")):
        save_to_res(_run(**{kind: bad}), str(path))
    assert not path.exists()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_save_to_res_rejects_a_score_it_could_not_read_back(tmp_path, bad):
    path = tmp_path / "run.trec"
    runs = {"q1": RankedList(qid="q1", entries=[RunEntry("d1", 1, bad)], tag="sys")}
    with pytest.raises(ValueError, match=re.escape(f"qid 'q1' docid 'd1': score must be finite, got {bad!r}")):
        save_to_res(runs, str(path))
    assert not path.exists()


def test_ranked_list_invariant_validation():
    with pytest.raises(ValueError, match="duplicate"):
        RankedList.from_entries("q", [RunEntry("a", 1, 2.0), RunEntry("a", 2, 1.0)])


def test_ranked_list_rejects_a_nan_score():
    # 7.0 > nan is False, so the order check alone would pass the rising scores 5, nan, 7.
    with pytest.raises(ValueError, match=re.escape("qid 'q': docid 'b' has a NaN score")):
        RankedList.from_entries("q", [RunEntry("a", 1, 5.0), RunEntry("b", 2, math.nan), RunEntry("c", 3, 7.0)])
    entries = [RunEntry("a", 1, math.inf), RunEntry("b", 2, 0.0), RunEntry("c", 3, -math.inf)]
    assert RankedList.from_entries("q", entries).entries == entries


@pytest.mark.parametrize("line, message", [
    ("1 Q0 b two 1.0 t", "rank must be an integer, got 'two'"),
    ("1 Q0 b 2 high t", "score must be a number, got 'high'"),
], ids=["rank", "score"])
def test_load_rejects_a_non_numeric_rank_or_score(tmp_path, line, message):
    path = tmp_path / "run.trec"
    path.write_text(f"1 Q0 a 1 2.0 t\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
        load_from_res(str(path))


def test_load_topics(tmp_path):
    path = tmp_path / "topics.tsv"
    path.write_text("1\tcat dog\n2\tmouse\n")
    assert load_topics(str(path)) == {"1": "cat dog", "2": "mouse"}


@pytest.mark.parametrize("text,message", [
    ("1\tcat\n2 dog\n", "topics.tsv:2: expected qid<TAB>query text"),
    ("1\tcat\n2\tdog\n1\tmouse\n", "topics.tsv:3: duplicate qid '1'"),
], ids=["no-tab", "repeated-qid"])
def test_load_topics_rejects_a_line_without_a_tab_or_a_repeated_qid(tmp_path, text, message):
    path = tmp_path / "topics.tsv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_topics(str(path))


@pytest.mark.parametrize("qid", ["", "q 1", " q1", "q1\u00a0"])
def test_load_topics_rejects_empty_or_whitespace_qid(tmp_path, qid):
    path = tmp_path / "topics.tsv"
    path.write_text(f"1\tcat dog\n{qid}\tmouse\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"topics.tsv:2: qid {qid!r} is empty or contains whitespace")):
        load_topics(str(path))


# -- pluggable rankers --------------------------------------------------------


def test_linear_scorer(cat_index):
    scorer = LinearScorer(cat_index, {"cat": 2.0, "dog": -1.0})
    assert scorer.score(Query.from_terms("q", []), "D1") == pytest.approx(2 * 2.0 - 1.0)
    assert scorer.score_tokens(Query.from_terms("q", []), ["cat", "dog", "dog"]) == pytest.approx(0.0)


def test_hidden_intent_empty_is_identity(cat_index):
    base = BM25Ranker(cat_index)
    hidden = HiddenIntentRanker(base, [])
    query = Query.from_text(cat_index, "q", "cat")
    assert hidden.score(query, "D1") == base.score(query, "D1")


def test_hidden_intent_absent_term_contributes_zero(cat_index):
    base = BM25Ranker(cat_index)
    hidden = HiddenIntentRanker(base, [("mous", 2.0)])
    query = Query.from_text(cat_index, "q", "cat")
    assert hidden.score(query, "D1") == base.score(query, "D1")


def test_hidden_intent_present_term_raises_score():
    index = build_index([Document("d1", "sanuk fun"), Document("d2", "fun")])
    base = BM25Ranker(index)
    hidden = HiddenIntentRanker(base, [("sanuk", 2.0)])
    query = Query.from_terms("q", ["fun"])
    assert hidden.score(query, "d1") > base.score(query, "d1")


@pytest.mark.parametrize("make", [
    BM25Ranker, LMJMRanker, LMDirRanker,
    lambda index: HiddenIntentRanker(BM25Ranker(index), [("dog", 1.0)]),
])
def test_term_scores_unknown_docid(cat_index, make):
    ranker = make(cat_index)
    with pytest.raises(UnknownDocumentError):
        ranker.term_rows(["cat"], ["D1", "nope"])
    with pytest.raises(UnknownDocumentError):
        ranker.term_rows(["dog", "cat"], ["D1", "D1", "nope"])


@pytest.mark.parametrize("weight", [0.0, -1.0, math.nan, math.inf])
def test_hidden_intent_rejects_nonpositive_weight(cat_index, weight):
    # NaN and inf passed `weight <= 0` at the parent, and every score was then NaN.
    with pytest.raises(ValueError, match=re.escape("weight of hidden term 'cat' must be in (0, inf)")):
        HiddenIntentRanker(BM25Ranker(cat_index), [("dog", 1.0), ("cat", weight)])


@pytest.mark.parametrize("coefficient", [math.nan, math.inf, -math.inf])
def test_linear_scorer_rejects_a_non_finite_coefficient(cat_index, coefficient):
    with pytest.raises(ValueError, match=re.escape("coefficient of 'cat' must be in (-inf, inf)")):
        LinearScorer(cat_index, {"dog": -2.0, "cat": coefficient})


def test_score_tokens_matches_index_scoring():
    rng = XorShift64Star(17)
    corpus = random_corpus(rng, 10, make_vocab(12))
    index = build_index(corpus)
    query = Query.from_terms("q", ["w01", "w05"])
    for make in (lambda: BM25Ranker(index), lambda: LMJMRanker(index), lambda: LMDirRanker(index)):
        ranker = make()
        for docid in index.doc_ids():
            assert ranker.score_tokens(query, list(index.doc_tokens(docid))) == pytest.approx(
                ranker.score(query, docid))
