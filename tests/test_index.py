import ast
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rankexplain import (
    BM25Ranker,
    Document,
    ListwiseParams,
    PointwiseParams,
    PositionalIndex,
    Query,
    RankedList,
    RunEntry,
    UnknownDocumentError,
    build_index,
    explain_details,
    explain_listwise,
    exs_explain,
    generate_candidates,
    lirme_explain,
    rank,
)
from rankexplain.analysis import AnalyzerConfig, tokenize
from rankexplain.axioms import DETAILED_AXIOMS
from rankexplain.datasets import demo_corpus_path
from rankexplain.index import read_corpus_jsonl
from rankexplain.listwise import LISTWISE_METHODS
from rankexplain.perturb import SamplerConfig
from rankexplain.rng import XorShift64Star

from conftest import axiom_preferences, index_file_bytes, index_state, make_vocab, random_corpus, read_index_file


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


@pytest.mark.parametrize("docid", [5, None, b"d2"])
def test_docid_that_is_not_a_string_rejected(docid):
    with pytest.raises(ValueError, match=re.escape(f"docid must be a string, got {docid!r}")):
        build_index([Document("d1", "qq"), Document(docid, "ww")])


@pytest.mark.parametrize("text", [None, 5, b"qq ww", ["qq"]])
def test_text_that_is_not_a_string_rejected_naming_the_docid(text):
    with pytest.raises(ValueError, match=re.escape(f"docid 'd2': text must be a string, got {text!r}")):
        build_index([Document("d1", "qq"), Document("d2", text)])


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
    assert index_state(loaded) == index_state(index)
    assert loaded.avgdl == index.avgdl
    p3 = tmp_path / "c.idx"
    loaded.save(str(p3))
    assert p3.read_bytes() == p1.read_bytes()


def test_saved_file_holds_a_header_line_and_each_documents_term_ordinals_as_int32(tmp_path):
    config = AnalyzerConfig(stopwords=frozenset({"the"}))
    index = build_index([Document("d2", "the"), Document("d1", "ww qq, ww")], config)
    index.save(tmp_path / "x.idx")
    assert (tmp_path / "x.idx").read_bytes() == (
        b'{"config":{"lowercase":true,"stem":true,"stopwords":["the"],"token_pattern":"[0-9A-Za-z]+"},'
        b'"docids":["d1","d2"],"lengths":[3,0],"version":3,"vocabulary":["qq","ww"]}\n'
        b"\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00")


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


def test_read_corpus_jsonl_rejects_a_repeated_key(tmp_path):
    # Plain json would keep the second text.
    path = tmp_path / "bad.jsonl"
    path.write_text('{"docid": "a", "text": "x"}\n{"docid": "b", "text": "apple", "text": "pear"}\n')
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: invalid JSON (repeated key 'text'")):
        read_corpus_jsonl(str(path))


def test_read_corpus_jsonl_reads_an_integer_docid_as_its_decimal_string(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_text('{"docid": 7, "text": "apple pear"}\n{"docid": -2, "text": ""}\n')
    assert read_corpus_jsonl(str(path)) == [Document("7", "apple pear"), Document("-2", "")]


def test_demo_corpus_loads(demo_index):
    assert demo_index.n_docs == 20
    assert demo_index.has_doc("T1")


def _header(vocabulary, docs, **keys):
    """A version-3 header for ``docs`` (docid -> term ordinals), with ``keys`` set on top."""
    return {"version": 3, "config": build_index([]).config.to_dict(), "vocabulary": vocabulary,
            "docids": list(docs), "lengths": [len(v) for v in docs.values()], **keys}


def _load(tmp_path, data: bytes):
    path = tmp_path / "x.idx"
    path.write_bytes(data)
    return PositionalIndex.load(path)


STREAMS = "the stream must be a list of term ordinals, ints in [0, 2)"
LENGTHS = "index lengths must be a list of ints >= 0, one per docid"


@pytest.mark.parametrize("header,ordinals,message", [
    pytest.param(_header(["pear", "appl"], {"a": [0, 1]}), [0, 1], "vocabulary must be a strictly ascending list",
                 id="vocabulary-descending"),
    pytest.param(_header(["appl", "appl"], {"a": [0, 1]}), [0, 1], "vocabulary must be a strictly ascending list",
                 id="vocabulary-repeated"),
    pytest.param(_header(["appl", 5], {"a": [0, 1]}), [0, 1], "vocabulary must be a strictly ascending list of strings",
                 id="vocabulary-non-string"),
    pytest.param(_header({"appl": 0}, {"a": [0]}), [0], "vocabulary must be a strictly ascending list",
                 id="vocabulary-object"),
    pytest.param(_header(["appl", "pear"], {}, docids={"a": 2}, lengths=[2]), [0, 1],
                 "index docids must be a list of strings", id="docids-object"),
    pytest.param(_header(["appl", "pear"], {"a": [-1, 0]}), [-1, 0], f"docid 'a': {STREAMS}", id="ordinal-negative"),
    pytest.param(_header(["appl", "pear"], {"a": [0, 2]}), [0, 2], f"docid 'a': {STREAMS}",
                 id="ordinal-past-vocabulary"),
    pytest.param(_header(["appl", "pear"], {"a": [0, 1], "b": [], "c": [1, 2]}), [0, 1, 1, 2], f"docid 'c': {STREAMS}",
                 id="ordinal-past-vocabulary-after-an-empty-document"),
    pytest.param(_header(["appl", "pear"], {"a": [0, 1]}), [0, 2**31 - 1], f"docid 'a': {STREAMS}",
                 id="ordinal-huge"),
    pytest.param(_header(["appl", "pear"], {"a b": [0, 1]}), [0, 1], "docid 'a b' is empty or contains whitespace",
                 id="whitespace-docid"),
    pytest.param(_header(["appl", "pear"], {"": [0, 1]}), [0, 1], "docid '' is empty or contains whitespace",
                 id="empty-docid"),
    pytest.param(_header(["appl", "pear"], {"a": [0, 1]}, docids=[5]), [0, 1], "docid must be a string, got 5",
                 id="docid-non-string"),
    pytest.param(_header(["appl", "pear"], {"b": [0], "a": [1]}), [0, 1],
                 "index docids must be strictly ascending; 'a' follows 'b'", id="docids-unsorted"),
    pytest.param(_header(["appl", "pear"], {"a": [0, 1]}, docids=["a", "a"], lengths=[1, 1]), [0, 1],
                 "index docids must be strictly ascending; 'a' follows 'a'", id="docids-repeated"),
    pytest.param(_header(["appl", "kiwi", "pear"], {"a": [0, 2]}), [0, 2],
                 "vocabulary term 'kiwi' occurs in no document", id="unused-term"),
    pytest.param(_header(["appl", "pear"], {"a": [0], "b": [1]}, lengths=[True, 1]), [0, 1], LENGTHS,
                 id="lengths-bool"),
    pytest.param(_header(["appl", "pear"], {"a": [0], "b": [1]}, lengths=[1.0, 1]), [0, 1], LENGTHS,
                 id="lengths-float"),
    pytest.param(_header(["appl", "pear"], {"a": [0], "b": [1]}, lengths=[-1, 3]), [0, 1], LENGTHS,
                 id="lengths-negative"),
    pytest.param(_header(["appl", "pear"], {"a": [0], "b": [1]}, lengths=[2]), [0, 1], LENGTHS,
                 id="lengths-fewer-than-docids"),
    pytest.param(_header(["appl", "pear"], {"a": [0], "b": [1]}, lengths=[1, 1, 0]), [0, 1], LENGTHS,
                 id="lengths-more-than-docids"),
    pytest.param(_header(["appl", "pear"], {"a": [0], "b": [1]}, lengths="11"), [0, 1], LENGTHS,
                 id="lengths-string"),
    pytest.param(_header(["appl", "pear"], {"a": [0, 1]}), b"\0\0\0\0\1\0\0",
                 "index body must hold 8 bytes, the int32 ordinals of 2 tokens; it holds 7", id="body-truncated"),
    pytest.param(_header(["appl", "pear"], {"a": [0, 1]}), [0, 1, 1],
                 "index body must hold 8 bytes, the int32 ordinals of 2 tokens; it holds 12",
                 id="body-trailing-bytes"),
])
def test_load_rejects_a_malformed_vocabulary_docids_lengths_or_stream(tmp_path, header, ordinals, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _load(tmp_path, index_file_bytes(header, ordinals))


def _with(key, value):
    """A valid index header with ``key`` (a top-level key, or "config.KEY") set to ``value``."""
    data = _header(["appl"], {"a": [0]})
    where, _, key = key.rpartition(".")
    (data[where] if where else data)[key] = value
    return data


def _without(key):
    data = _with(key, None)
    where, _, key = key.rpartition(".")
    del (data[where] if where else data)[key]
    return data


@pytest.mark.parametrize("data,message", [
    pytest.param([], "index must be a JSON object with keys config, docids, lengths, version, vocabulary",
                 id="top-level-list"),
    pytest.param(_without("docids"), "index has no key 'docids'", id="no-docids"),
    pytest.param(_without("lengths"), "index has no key 'lengths'", id="no-lengths"),
    pytest.param(_without("vocabulary"), "index has no key 'vocabulary'", id="no-vocabulary"),
    pytest.param(_without("version"), "index has no key 'version'", id="no-version"),
    pytest.param(_with("extra", 1), "index has an unknown key 'extra'", id="unknown-key"),
    pytest.param(_with("version", True), "unsupported index format version: True", id="version-bool"),
    pytest.param(_with("version", 3.0), "unsupported index format version: 3.0", id="version-float"),
    pytest.param(_with("version", 4), "unsupported index format version: 4", id="version-4"),
    pytest.param({"config": {}, "docs": {"a": [0]}, "version": 2, "vocabulary": ["appl"]},
                 "unsupported index format version: 2; rebuild the index with `rankexplain index`",
                 id="version-2"),
    pytest.param({"version": 1, "config": {}, "doc_length": {"a": 1}, "postings": {"appl": {"a": [0]}}},
                 "unsupported index format version: 1; rebuild the index with `rankexplain index`",
                 id="version-1"),
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
    pytest.param(_with("config.token_pattern", "(a)(b)"),
                 "analyzer config 'token_pattern' '(a)(b)' has capture groups", id="pattern-capture-groups"),
    pytest.param(_with("config.token_pattern", "(?P<word>[a-z]+)"),
                 "analyzer config 'token_pattern' '(?P<word>[a-z]+)' has capture groups",
                 id="pattern-named-group"),
])
def test_load_rejects_a_malformed_header_or_config(tmp_path, data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _load(tmp_path, index_file_bytes(data, [0]))


@pytest.mark.parametrize("data,message", [
    pytest.param(b"", "index file has no header line", id="empty-file"),
    pytest.param(json.dumps(_header(["appl"], {"a": []})).encode(), "index file has no header line",
                 id="header-without-newline"),
    pytest.param(b"\xff" + index_file_bytes(_header(["appl"], {"a": [0]}), [0]),
                 "index header is not a UTF-8 JSON line: 'utf-8' codec can't decode byte 0xff",
                 id="header-not-utf-8"),
    pytest.param(b"not json\n", "index header is not a UTF-8 JSON line: Expecting value", id="header-not-json"),
])
def test_load_rejects_a_file_without_a_utf_8_json_header_line(tmp_path, data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _load(tmp_path, data)


def test_capture_groups_are_rejected_before_any_text_is_analyzed():
    # findall would return the groups: ('a', 'b') would be a term, and the saved file unloadable.
    with pytest.raises(ValueError, match=re.escape("'token_pattern' '(a)(b)' has capture groups")):
        build_index([Document("d1", "ab")], AnalyzerConfig(token_pattern="(a)(b)"))
    with pytest.raises(ValueError, match="token_pattern"):
        tokenize("ab", AnalyzerConfig(token_pattern="([a-z])+"))
    assert tokenize("ab cd", AnalyzerConfig(token_pattern="(?:[a-z])+")) == ["ab", "cd"]


def test_a_pattern_matching_the_empty_string_puts_no_empty_term_in_an_index_or_query(tmp_path):
    config = AnalyzerConfig(token_pattern="[a-z]*")
    index = build_index([Document("d1", "ab, cd"), Document("d2", "!!")], config)
    assert "" not in index.vocabulary
    assert (index.doc_length("d1"), index.doc_length("d2")) == (2, 0)
    index.save(tmp_path / "x.idx")
    assert index_state(PositionalIndex.load(tmp_path / "x.idx")) == index_state(index)
    assert Query.from_text(index, "q", "ab  cd").terms == ("ab", "cd")


@pytest.mark.parametrize("corpus", [
    [],
    [Document("d1", "the of")],
    [Document("d1", "the of"), Document("d2", "qq ww qq")],
    random_corpus(XorShift64Star(9), 12, make_vocab(10)),
])
def test_load_accepts_a_saved_built_index(tmp_path, corpus):
    index = build_index(corpus)
    index.save(tmp_path / "x.idx")
    loaded = PositionalIndex.load(tmp_path / "x.idx")
    assert index_state(loaded) == index_state(index)
    assert loaded.avgdl == index.avgdl
    assert [loaded.idf(t) for t in index.vocabulary] == [index.idf(t) for t in index.vocabulary]


def test_statistics_match_their_formulas():
    index = build_index(random_corpus(XorShift64Star(4), 30, make_vocab(20)))
    lengths = [index.doc_length(d) for d in index.doc_ids()]
    assert index.avgdl == sum(lengths) / len(lengths)
    for term in index.vocabulary:
        df = index.df(term)
        assert index.idf(term) == math.log(1.0 + (index.n_docs - df + 0.5) / (df + 0.5))


# -- term ordinals, per-ordinal cf and idf, and per-document term counts ----------


def frozen_arrays(index):
    """The per-ordinal cf and idf."""
    return index.cf_by_ordinal, index.idf_by_ordinal


def assert_arrays_describe_the_streams(index):
    cf, idf = frozen_arrays(index)
    vocabulary, docids = index.vocabulary, index.doc_ids()
    assert vocabulary == sorted(vocabulary)
    assert (cf.dtype, idf.dtype) == (np.int64, np.float64)
    assert cf.tolist() == [index.cf(t) for t in vocabulary]
    assert cf.all() and int(cf.sum()) == index.total_tokens == sum(map(index.doc_length, docids))
    assert idf.tolist() == [index.idf(t) for t in vocabulary]
    assert (idf > 0).all()
    for docid in docids:
        doc_ordinals, doc_counts = index.doc_terms(docid)
        assert (np.diff(doc_ordinals) > 0).all()
        assert dict(zip(index.terms_at(doc_ordinals), doc_counts.tolist())) == Counter(index.doc_tokens(docid))
        assert int(doc_counts.sum()) == index.doc_length(docid)
    ordinals, counts = index.doc_terms(*docids)
    assert len(ordinals) == len(counts) == sum(map(index.df, vocabulary))
    assert np.bincount(ordinals, weights=counts, minlength=len(vocabulary)).tolist() == cf.tolist()


@pytest.mark.parametrize("texts", [
    [],
    ["the of"],
    ["the of", "qq ww qq", "zz"],        # an empty analyzed stream first,
    ["qq ww", "the", "ww zz ww"],        # in the middle,
    ["qq ww", "zz qq", "of the"],        # last,
    ["the", "of"],                       # and everywhere
])
def test_term_arrays_hold_each_documents_term_counts(texts):
    index = build_index([Document(f"d{i}", text) for i, text in enumerate(texts)])
    assert_arrays_describe_the_streams(index)


def test_term_arrays_across_chunks_of_documents():
    # Over 256 documents, so rows are counted in more than one chunk; empty streams included.
    corpus = random_corpus(XorShift64Star(11), 700, make_vocab(30), min_len=0, max_len=8)
    index = build_index(corpus[::-1])      # rows follow sorted docids, not corpus order
    assert index.doc_ids() == sorted(d.docid for d in corpus)
    assert_arrays_describe_the_streams(index)


def test_a_saved_and_reloaded_index_holds_equal_arrays(tmp_path):
    corpus = random_corpus(XorShift64Star(12), 300, make_vocab(25), min_len=0, max_len=10)
    index = build_index(corpus[::-1])
    index.save(tmp_path / "a.idx")
    loaded = PositionalIndex.load(tmp_path / "a.idx")
    assert loaded.vocabulary == index.vocabulary and loaded.doc_ids() == index.doc_ids()
    for built, read in zip(frozen_arrays(index), frozen_arrays(loaded)):
        assert built.dtype == read.dtype and built.tolist() == read.tolist()


def test_the_arrays_are_read_only():
    index = build_index([Document("d1", "qq ww qq"), Document("d2", "ww zz")])
    for array in frozen_arrays(index):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_vocabulary_and_doc_ids_are_copies():
    index = build_index([Document("d2", "ww qq"), Document("d1", "zz")])
    index.vocabulary.append("aa")
    index.doc_ids().clear()
    assert index.vocabulary == ["qq", "ww", "zz"] and index.doc_ids() == ["d1", "d2"]


def test_candidates_name_an_unknown_docid():
    index = build_index([Document("d1", "qq ww qq"), Document("d2", "ww zz")])
    ranked = RankedList.from_entries("q", [RunEntry("d1", 1, 2.0), RunEntry("nope", 2, 1.0)])
    with pytest.raises(UnknownDocumentError, match="'nope'"):
        generate_candidates(index, ranked, top_k=2)
    for docids in (["nope"], ["d1", "nope"], ["d2", "d1", "nope", "d1"]):
        with pytest.raises(UnknownDocumentError, match="'nope'"):
            index.doc_terms(*docids)


def test_tf_block_names_the_first_unknown_docid_in_the_order_given():
    index = build_index([Document("d1", "qq ww qq"), Document("d2", "ww zz")])
    for docids, first in ((["d1", "d1", "d2", "d2", "nope", "gone"], "nope"),
                          (["d2", "gone", "d1", "nope"], "gone"),
                          (["d1", "d2", "d1", None, "nope"], None),
                          (["d2", 5, "d2", "nope"], 5)):
        with pytest.raises(UnknownDocumentError) as raised:
            index.tf_block(["qq", "ww"], docids)
        assert raised.value.args == (f"unknown docid: {first!r}",)
    tf, dl = index.tf_block(["qq"], [])
    assert tf.shape == (1, 0) and tf.dtype == dl.dtype == np.int64 and dl.shape == (0,)


@pytest.mark.parametrize("docid", [5, None])
def test_a_docid_that_is_not_a_string_is_unknown(docid):
    index = build_index([Document("d1", "qq ww qq"), Document("d2", "ww zz")])
    for read in (index.doc_length, index.doc_terms, lambda d: index.doc_terms("d1", d, "d2"),
                 lambda d: index.tf_block(["qq"], [d])):
        with pytest.raises(UnknownDocumentError, match=repr(docid)):
            read(docid)


# -- an explainer reads only the documents it explains ----------------------------


class ScanCountingDict(dict):
    """A dict that counts the calls that walk all of it."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def items(self):
        self.scans += 1
        return super().items()

    def keys(self):
        self.scans += 1
        return super().keys()

    def values(self):
        self.scans += 1
        return super().values()


@pytest.mark.parametrize("source", ["built", "loaded"])
def test_ranking_and_explaining_never_walk_every_posting_list(source, tmp_path):
    # A token stream rebuilt from the postings walks every posting list, so
    # candidate generation, LIRME and EXS would cost more as the corpus grows.
    index = build_index(read_corpus_jsonl(demo_corpus_path()))
    if source == "loaded":
        index.save(tmp_path / "demo.idx")
        index = PositionalIndex.load(tmp_path / "demo.idx")
    index._terms = terms = ScanCountingDict(index._terms)
    index._lengths = lengths = ScanCountingDict(index._lengths)
    bm25 = BM25Ranker(index)
    query = Query.from_text(index, "1", "thai daily life")
    ranked = rank(index, bm25, query, depth=8)
    for method in LISTWISE_METHODS:
        explain_listwise(index, query, ranked, ListwiseParams(method=method, top_k=5, eval_budget=20))
    di, dj = ranked.docids[:2]
    params = PointwiseParams(sampler=SamplerConfig(n_samples=20), exs_k=2)
    lirme_explain(index, bm25, query, di, params)
    exs_explain(index, bm25, query, di, params, ranked)
    axiom_preferences(index, query, di, dj)
    for name in DETAILED_AXIOMS:
        explain_details(name, index, query, di, dj)
    assert terms.scans == 0 and lengths.scans == 0


def test_kept_token_streams_hold_one_object_per_term():
    # "runs" and "running" stem to equal terms; the index keeps 4 bytes per
    # token and doc_tokens maps them through the vocabulary, copying no term.
    index = build_index([Document("d1", "runs running run"), Document("d2", "running ran runs")])
    terms = {id(t) for t in index.vocabulary}
    assert all(id(t) in terms for d in index.doc_ids() for t in index.doc_tokens(d))


def test_the_index_keeps_one_int32_stream_in_docid_order(tmp_path):
    built = build_index([Document("d2", "ww qq ww"), Document("d10", "ee"), Document("d1", "qq ee qq"),
                         Document("d0", "")])
    docs = {"d0": [], "d1": [1, 0, 1], "d10": [0], "d2": [2, 1, 2]}     # ordinals into ee, qq, ww
    path = tmp_path / "x.idx"
    built.save(path)
    header, body = read_index_file(path)
    assert header["vocabulary"] == ["ee", "qq", "ww"]
    assert (header["docids"], header["lengths"]) == (list(docs), list(map(len, docs.values())))
    assert body == np.array([u for d in docs for u in docs[d]], dtype="<i4").tobytes()
    for index in (built, PositionalIndex.load(path)):
        stream = index._stream
        assert stream.dtype == np.int32 and stream.nbytes == 4 * index.total_tokens
        assert not stream.flags.writeable
        assert stream.tolist() == [u for d in sorted(docs) for u in docs[d]]
        for docid, ordinals in docs.items():
            assert index.doc_tokens(docid) == tuple(header["vocabulary"][u] for u in ordinals)
            assert index.doc_length(docid) == len(ordinals)


def test_the_constructor_keeps_an_int32_stream_as_it_is():
    stream = np.array([1, 0, 1], dtype=np.int32)
    index = PositionalIndex({"d1": 3}, stream, ["qq", "ww"], AnalyzerConfig())
    assert index._stream is stream and not stream.flags.writeable


def test_an_index_file_with_a_repeated_header_key_does_not_load(tmp_path):
    # Plain json would keep the second lengths and load.
    path = tmp_path / "x.idx"
    path.write_bytes(b'{"config":{"lowercase":true,"stem":true,"stopwords":[],"token_pattern":"[a-z]+"},'
                     b'"docids":["d1"],"lengths":[2],"lengths":[1],"version":3,"vocabulary":["qq"]}\n'
                     b"\0\0\0\0")
    with pytest.raises(ValueError, match="repeated key 'lengths'"):
        PositionalIndex.load(path)


def test_one_position_postings_share_their_tuple(tmp_path):
    # Most postings hold one position; a tuple each would cost 48 bytes per posting.
    built = build_index([Document("d1", "qq ww qq"), Document("d2", "ww qq")])
    built.save(tmp_path / "x.idx")
    for index in (built, PositionalIndex.load(tmp_path / "x.idx")):
        assert index.postings("ww")["d1"] is index.postings("qq")["d2"]
        assert index.postings("ww") == {"d1": (1,), "d2": (0,)} and index.postings("qq")["d1"] == (0, 2)


def test_terms_of_one_df_share_their_idf_float(tmp_path):
    # Most terms have df 1; a float each would cost 24 bytes per term.
    built = build_index([Document("d1", "qq ww ee"), Document("d2", "ww rr")])
    built.save(tmp_path / "x.idx")
    for index in (built, PositionalIndex.load(tmp_path / "x.idx")):
        assert index.idf("qq") is index.idf("ee") is index.idf("rr") != index.idf("ww")


def _foreign_term_readers(path: Path) -> set:
    """The (class, function) around each ``x._terms`` of a module whose x is not ``self``."""
    readers = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                walk(child, scope + (child.name,))
            else:
                if isinstance(child, ast.Attribute) and child.attr == "_terms" and not (
                        isinstance(child.value, ast.Name) and child.value.id == "self"):
                    readers.add((path.name, *scope[:2]))
                walk(child, scope)

    walk(ast.parse(path.read_text(encoding="utf-8")), ())
    return readers


def test_only_the_sparse_scores_read_the_index_term_records():
    # The record layout is private to the index and to these three per-document loops.
    readers = set().union(*map(_foreign_term_readers, INDEX_SOURCE.parent.glob("*.py")))
    assert readers == {("rankers.py", "BM25Ranker", "score"), ("rankers.py", "LMJMRanker", "score"),
                       ("rankers.py", "LMDirRanker", "score")}


def test_the_scan_counter_sees_a_walk():
    postings = ScanCountingDict({"a": {}, "b": {}})
    sorted(postings)
    list(postings.items())
    assert postings.scans == 2


# -- the index is written only in __init__ ----------------------------------------

INDEX_SOURCE = Path(__file__).resolve().parent.parent / "src" / "rankexplain" / "index.py"
MUTATING_METHODS = {"add", "append", "clear", "discard", "extend", "insert", "pop", "popitem",
                    "remove", "setdefault", "sort", "update"}


def _through_self(node) -> bool:
    """Whether ``node`` is ``self`` or reached from it by attributes and subscripts."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


def writes_after_init(source: str, class_name: str) -> list:
    """(method, line) of every write through ``self`` in a method of ``class_name`` but ``__init__``.

    A write is a store into or a ``del`` of ``self.x`` or ``self.x[k]``, a
    ``setattr(self, ...)`` (or ``delattr``, ``object.__setattr__``), or a
    mutating method called on something reached from ``self``, as in
    ``self._memo.setdefault(...)``.
    """
    cls = next(node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef) and node.name == class_name)
    found = []
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
            continue
        for node in ast.walk(method):
            if isinstance(node, (ast.Attribute, ast.Subscript)):
                written = not isinstance(node.ctx, ast.Load) and _through_self(node.value)
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                written = ((name in {"setattr", "delattr", "__setattr__", "__delattr__"}
                            and node.args and _through_self(node.args[0]))
                           or (name in MUTATING_METHODS and isinstance(func, ast.Attribute)
                               and isinstance(func.value, (ast.Attribute, ast.Subscript))
                               and _through_self(func.value)))
            else:
                written = False
            if written:
                found.append((method.name, node.lineno))
    return sorted(found, key=lambda hit: hit[1])


def test_positional_index_writes_attributes_only_in_init():
    # A lazy memo such as self._tokens[docid] = tokens would make the index mutable again.
    assert writes_after_init(INDEX_SOURCE.read_text(encoding="utf-8"), "PositionalIndex") == []


def test_the_walk_finds_every_kind_of_write_after_init():
    source = ("class PositionalIndex:\n"
              "    def __init__(self, postings):\n"
              "        self._postings = postings\n"
              "        self._memo = {}\n"
              "    def doc_tokens(self, docid):\n"
              "        self._memo[docid] = tokens = ()\n"
              "        return tokens\n"
              "    def reset(self):\n"
              "        self.n += 1\n"
              "        setattr(self, 'x', 1)\n"
              "        self._memo.setdefault('a', ())\n"
              "        del self._memo['a']\n"
              "        object.__setattr__(self, 'y', 2)\n"
              "    def reads(self):\n"
              "        other = {}\n"
              "        other['a'] = self._postings\n"
              "        self.doc_tokens('a')\n"
              "        return self._postings.get('a'), sorted(self._memo)\n")
    assert writes_after_init(source, "PositionalIndex") == [
        ("doc_tokens", 6), ("reset", 9), ("reset", 10), ("reset", 11), ("reset", 12), ("reset", 13)]
