import ast
import math
import re
import time
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
from rankexplain.axioms import DETAILED_AXIOMS, all_preferences
from rankexplain.datasets import demo_corpus_path
from rankexplain.index import read_corpus_jsonl
from rankexplain.listwise import LISTWISE_METHODS
from rankexplain.perturb import SamplerConfig
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
    pytest.param(_with("config.token_pattern", "(a)(b)"),
                 "analyzer config 'token_pattern' '(a)(b)' has capture groups", id="pattern-capture-groups"),
    pytest.param(_with("config.token_pattern", "(?P<word>[a-z]+)"),
                 "analyzer config 'token_pattern' '(?P<word>[a-z]+)' has capture groups",
                 id="pattern-named-group"),
])
def test_from_dict_rejects_malformed_index_or_config(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PositionalIndex.from_dict(data)


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
    assert PositionalIndex.load(tmp_path / "x.idx").to_dict() == index.to_dict()
    assert Query.from_text(index, "q", "ab  cd").terms == ("ab", "cd")


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


# -- term ordinals and per-document (ordinal, count) arrays -----------------------


def frozen_arrays(index):
    """The CSR rows (offsets, ordinals, counts) and the per-ordinal cf and idf."""
    return index._offsets, index._ordinals, index._counts, index.cf_by_ordinal, index.idf_by_ordinal


def assert_arrays_describe_the_streams(index):
    offsets, ordinals, counts, _, _ = frozen_arrays(index)
    vocabulary = index.vocabulary
    assert vocabulary == sorted(vocabulary)
    assert (offsets.dtype, ordinals.dtype, counts.dtype) == (np.int64, np.int32, np.int32)
    assert len(offsets) == index.n_docs + 1 and offsets[0] == 0
    assert offsets[-1] == len(ordinals) == len(counts) == sum(map(index.df, vocabulary))
    for row, docid in enumerate(index.doc_ids()):
        doc_ordinals, doc_counts = index.doc_terms(docid)
        assert doc_ordinals.tolist() == ordinals[offsets[row]:offsets[row + 1]].tolist()
        assert (np.diff(doc_ordinals) > 0).all()
        assert dict(zip(index.terms_at(doc_ordinals), doc_counts.tolist())) == Counter(index.doc_tokens(docid))
        assert int(doc_counts.sum()) == index.doc_length(docid)
    assert index.cf_by_ordinal.tolist() == [index.cf(t) for t in vocabulary]
    assert index.idf_by_ordinal.tolist() == [index.idf(t) for t in vocabulary]


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
    for array in (*frozen_arrays(index), *index.doc_terms("d1")):
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
    with pytest.raises(UnknownDocumentError, match="'nope'"):
        index.doc_terms("nope")


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
    index._postings = postings = ScanCountingDict(index._postings)
    bm25 = BM25Ranker(index)
    query = Query.from_text(index, "1", "thai daily life")
    ranked = rank(index, bm25, query, depth=8)
    for method in LISTWISE_METHODS:
        explain_listwise(index, query, ranked, ListwiseParams(method=method, top_k=5, eval_budget=20))
    di, dj = ranked.docids[:2]
    params = PointwiseParams(sampler=SamplerConfig(n_samples=20), exs_k=2)
    lirme_explain(index, bm25, query, di, params)
    exs_explain(index, bm25, query, di, params, ranked)
    all_preferences(index, query, di, dj)
    for name in DETAILED_AXIOMS:
        explain_details(name, index, query, di, dj)
    assert postings.scans == 0


def test_kept_token_streams_hold_one_object_per_term():
    # "runs" and "running" stem to equal terms; a stream holding a copy per
    # word would cost more than the 8 bytes per token the index promises.
    index = build_index([Document("d1", "runs running run"), Document("d2", "running ran runs")])
    terms = {id(t) for t in index.vocabulary}
    assert all(id(t) in terms for d in index.doc_ids() for t in index.doc_tokens(d))


def test_one_position_postings_share_their_tuple():
    # Most postings hold one position; a tuple each would cost 48 bytes per posting.
    built = build_index([Document("d1", "qq ww qq"), Document("d2", "ww qq")])
    for index in (built, PositionalIndex.from_dict(built.to_dict())):
        assert index.postings("ww")["d1"] is index.postings("qq")["d2"]
        assert index.postings("ww") == {"d1": (1,), "d2": (0,)} and index.postings("qq")["d1"] == (0, 2)


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
