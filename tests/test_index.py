import math
import re
import time

import pytest

from rankexplain import Document, PositionalIndex, UnknownDocumentError, build_index
from rankexplain.index import read_corpus_jsonl
from rankexplain.rng import XorShift64Star

from conftest import make_vocab, random_corpus


def test_single_doc_statistics():
    index = build_index([Document("d1", "qq ww qq")])
    assert index.df("qq") == 1
    assert index.cf("qq") == 2
    assert index.positions("qq", "d1") == [0, 2]
    assert index.doc_length("d1") == 3


def test_empty_corpus():
    index = build_index([])
    assert index.n_docs == 0
    assert index.avgdl == 0.0


def test_two_singleton_docs():
    index = build_index([Document("d1", "xx"), Document("d2", "xx")])
    assert index.df("xx") == 2
    assert index.cf("xx") == 2
    assert index.avgdl == 1.0


def test_duplicate_docid_rejected():
    with pytest.raises(ValueError, match="d1"):
        build_index([Document("d1", "qq"), Document("d1", "ww")])


@pytest.mark.parametrize("docid", ["", "a b", "a\tb", " a", "a\n", "a\u3000b"])
def test_docid_empty_or_with_whitespace_rejected(docid):
    with pytest.raises(ValueError, match=re.escape(f"docid {docid!r} is empty or contains whitespace")):
        build_index([Document("d1", "qq"), Document(docid, "ww")])


def test_positions_term_absent():
    index = build_index([Document("d1", "qq ww")])
    assert index.positions("zz", "d1") == []


def test_positions_unknown_docid_is_distinct_error():
    index = build_index([Document("d1", "qq ww")])
    with pytest.raises(UnknownDocumentError):
        index.positions("qq", "nope")


def test_doc_tokens_roundtrip():
    index = build_index([Document("d1", "qq ww qq zz")])
    assert index.doc_tokens("d1") == ("qq", "ww", "qq", "zz")


def test_idf_pinned_formula():
    index = build_index([Document("d1", "qq"), Document("d2", "qq"), Document("d3", "ww")])
    assert index.idf("qq") == pytest.approx(math.log(1 + (3 - 2 + 0.5) / 2.5))
    assert index.idf("missing") == 0.0
    # always positive, even when df == N
    assert index.idf("qq") > 0


def test_cf_sums_match_doc_lengths():
    rng = XorShift64Star(3)
    vocab = make_vocab(15)
    for trial in range(25):
        corpus = random_corpus(rng, 8, vocab)
        index = build_index(corpus)
        total_cf = sum(index.cf(t) for t in index.vocabulary)
        total_dl = sum(index.doc_length(d) for d in index.doc_ids())
        assert total_cf == total_dl
        for term in index.vocabulary:
            assert index.df(term) == len(index.postings(term))
            for docid, positions in index.postings(term).items():
                assert list(positions) == sorted(set(positions))


def test_serialization_roundtrip_bit_equal(tmp_path):
    rng = XorShift64Star(5)
    corpus = random_corpus(rng, 6, make_vocab(12))
    index = build_index(corpus)
    p1 = tmp_path / "a.idx"
    p2 = tmp_path / "b.idx"
    index.save(str(p1))
    build_index(corpus).save(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    loaded = PositionalIndex.load(str(p1))
    assert loaded.to_dict() == index.to_dict()
    assert loaded.avgdl == index.avgdl
    p3 = tmp_path / "c.idx"
    loaded.save(str(p3))
    assert p3.read_bytes() == p1.read_bytes()


def test_read_corpus_jsonl_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"docid": "a", "text": "x"}\nnot json\n')
    with pytest.raises(ValueError, match=":2"):
        read_corpus_jsonl(str(path))
    path.write_text('{"docid": "a"}\n')
    with pytest.raises(ValueError, match="docid"):
        read_corpus_jsonl(str(path))

    # A docid is a JSON string or integer and a text a JSON string; nothing else is read.
    for line, field in [('{"docid": null, "text": "apple pear"}', "docid"),
                        ('{"docid": true, "text": "apple pear"}', "docid"),
                        ('{"docid": 1.5, "text": "apple pear"}', "docid"),
                        ('{"docid": ["a"], "text": "apple pear"}', "docid"),
                        ('{"docid": "a", "text": ["apple", "pear"]}', "text"),
                        ('{"docid": "a", "text": null}', "text"),
                        ('{"docid": "a", "text": 7}', "text")]:
        path.write_text('{"docid": "a0", "text": "x"}\n' + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f'{path}:2: "{field}" must be')):
            read_corpus_jsonl(str(path))


def test_read_corpus_jsonl_reads_an_integer_docid_as_its_decimal_string(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_text('{"docid": 7, "text": "apple pear"}\n{"docid": -2, "text": ""}\n')
    assert read_corpus_jsonl(str(path)) == [Document("7", "apple pear"), Document("-2", "")]


def test_demo_corpus_loads(demo_index):
    assert demo_index.n_docs == 20
    assert demo_index.has_doc("T1")


def _index_data(postings, doc_length):
    return {"version": 1, "config": build_index([]).config.to_dict(),
            "doc_length": doc_length, "postings": postings}


@pytest.mark.parametrize("postings,doc_length,message", [
    pytest.param({"appl": {"a": [5, 1]}}, {"a": 2}, "'appl', docid 'a'", id="position-past-end"),
    pytest.param({"appl": {"b": [0]}}, {"a": 1}, "'appl', docid 'b': docid is not in doc_length",
                 id="docid-not-in-doc-length"),
    pytest.param({"appl": {"a": [1, 0]}}, {"a": 2}, "'appl', docid 'a'", id="decreasing"),
    pytest.param({"appl": {"a": [0, 0]}}, {"a": 2}, "'appl', docid 'a'", id="repeated"),
    pytest.param({"appl": {"a": [-1, 0]}}, {"a": 2}, "'appl', docid 'a'", id="negative"),
    pytest.param({"appl": {"a": [0, 1.0]}}, {"a": 2}, "'appl', docid 'a'", id="float"),
    pytest.param({"appl": {"a": [True]}}, {"a": 1}, "'appl', docid 'a'", id="bool"),
    pytest.param({"appl": {"a": "01"}}, {"a": 2}, "'appl', docid 'a'", id="string"),
    pytest.param({"appl": {"a": []}}, {"a": 0}, "'appl', docid 'a'", id="empty"),
    pytest.param({"appl": {"a": [0]}}, {"a": 2}, "docid 'a': term frequencies sum to 1",
                 id="tf-sum-below-length"),
    pytest.param({"appl": {"a": [0, 1]}, "pear": {"a": [1]}}, {"a": 2},
                 "docid 'a': term frequencies sum to 3", id="tf-sum-above-length"),
    pytest.param({"appl": {"a": [2**64]}}, {"a": 1}, "'appl', docid 'a'", id="huge-position"),
    pytest.param({"appl": {"a": [0]}}, {"a": 1.0}, "docid 'a': doc_length", id="float-length"),
    pytest.param({"appl": {"a": [0]}}, {"a": 2**64}, "docid 'a': doc_length", id="huge-length"),
    pytest.param({"appl": ["a"]}, {"a": 1}, "'appl': postings", id="postings-not-object"),
    pytest.param({"appl": {"a b": [0]}}, {"a b": 1}, "docid 'a b' is empty or contains whitespace",
                 id="whitespace-docid"),
    pytest.param({"appl": {"": [0]}}, {"": 1}, "docid '' is empty or contains whitespace", id="empty-docid"),
    pytest.param({"appl": {"d": [0]}, "pear": {"d": [0]}}, {"d": 2},
                 "term 'pear', docid 'd': position 0 is also held by term 'appl'",
                 id="shared-position"),
    pytest.param({"appl": {"c": [0], "d": [0, 2]}, "kiwi": {"d": [3]}, "pear": {"d": [3]}},
                 {"c": 1, "d": 4}, "term 'pear', docid 'd': position 3 is also held by term 'kiwi'",
                 id="shared-position-second-doc"),
])
def test_from_dict_rejects_inconsistent_postings(postings, doc_length, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PositionalIndex.from_dict(_index_data(postings, doc_length))


def _with(key, value):
    """A valid index dict with ``key`` (a top-level key, or "config.KEY") set to ``value``."""
    data = _index_data({"appl": {"a": [0]}}, {"a": 1})
    where, _, key = key.rpartition(".")
    (data[where] if where else data)[key] = value
    return data


def _without(key):
    data = _with(key, None)
    where, _, key = key.rpartition(".")
    del (data[where] if where else data)[key]
    return data


@pytest.mark.parametrize("data,message", [
    pytest.param([], "index must be a JSON object with keys config, doc_length, postings, version",
                 id="top-level-list"),
    pytest.param(_without("postings"), "index has no key 'postings'", id="no-postings"),
    pytest.param(_without("version"), "index has no key 'version'", id="no-version"),
    pytest.param(_with("extra", 1), "index has an unknown key 'extra'", id="unknown-key"),
    pytest.param(_with("version", True), "unsupported index format version: True", id="version-bool"),
    pytest.param(_with("version", 1.0), "unsupported index format version: 1.0", id="version-float"),
    pytest.param(_with("version", 2), "unsupported index format version: 2", id="version-2"),
    pytest.param(_with("config", 5), "analyzer config must be a JSON object", id="config-not-object"),
    pytest.param(_without("config.stem"), "analyzer config has no key 'stem'", id="config-no-stem"),
    pytest.param(_with("config.case", True), "analyzer config has an unknown key 'case'",
                 id="config-unknown-key"),
    pytest.param(_with("config.lowercase", "no"), "analyzer config 'lowercase' must be true or false",
                 id="lowercase-string"),
    pytest.param(_with("config.stem", 1), "analyzer config 'stem' must be true or false", id="stem-int"),
    pytest.param(_with("config.stopwords", "the"), "analyzer config 'stopwords' must be a list of strings",
                 id="stopwords-string"),
    pytest.param(_with("config.stopwords", ["the", 1]), "analyzer config 'stopwords' must be a list",
                 id="stopwords-not-strings"),
    pytest.param(_with("config.token_pattern", "("), "analyzer config 'token_pattern' '(' does not compile",
                 id="pattern-does-not-compile"),
    pytest.param(_with("config.token_pattern", 5), "analyzer config 'token_pattern' must be a string",
                 id="pattern-not-string"),
])
def test_from_dict_rejects_malformed_index_or_config(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PositionalIndex.from_dict(data)


def test_from_dict_checks_tf_sums_before_sizing_anything_by_doc_length():
    # A false doc_length must fail on its sum, not allocate 2**40 slots first.
    start = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(
            "docid 'a': term frequencies sum to 1, doc_length is 1099511627776")):
        PositionalIndex.from_dict(_index_data({"appl": {"a": [0]}}, {"a": 2**40}))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("corpus", [
    [],
    [Document("d1", "the of")],
    [Document("d1", "the of"), Document("d2", "qq ww qq")],
    random_corpus(XorShift64Star(9), 12, make_vocab(10)),
])
def test_from_dict_accepts_built_index(corpus):
    index = build_index(corpus)
    loaded = PositionalIndex.from_dict(index.to_dict())
    assert loaded.to_dict() == index.to_dict()
    assert loaded.avgdl == index.avgdl
    assert [loaded.idf(t) for t in index.vocabulary] == [index.idf(t) for t in index.vocabulary]


def test_statistics_match_their_formulas():
    index = build_index(random_corpus(XorShift64Star(4), 30, make_vocab(20)))
    lengths = [index.doc_length(d) for d in index.doc_ids()]
    assert index.avgdl == sum(lengths) / len(lengths)
    for term in index.vocabulary:
        df = index.df(term)
        assert index.idf(term) == math.log(1.0 + (index.n_docs - df + 0.5) / (df + 0.5))
