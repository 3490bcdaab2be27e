"""Immutable positional inverted index over a small in-memory corpus.

Holds, per term, the posting list of (docid, positions) plus the global
statistics every scoring model and axiom in this package needs: document
lengths, corpus size, average document length, document frequency,
collection frequency and idf. The index is immutable, so the collection
statistics (total tokens, avgdl, and each indexed term's df, cf and idf)
are computed once at construction. Apart from the token memo that
``doc_tokens`` fills on first use, nothing is written after that.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .analysis import AnalyzerConfig, DEFAULT_CONFIG, TokenizedDocument, _Analyzer

_INDEX_FORMAT_VERSION = 1
_INT64_LIMIT = 2**63


def _check_id(kind: str, value: str, where: str = "") -> None:
    """Reject an id that a whitespace-separated run file could not read back."""
    if value.split() != [value]:
        raise ValueError(f"{where}{kind} {value!r} is empty or contains whitespace")


@dataclass(frozen=True)
class Document:
    docid: str
    text: str


class UnknownDocumentError(KeyError):
    """Raised when a docid is not part of the index."""


class PositionalIndex:
    """Term -> postings mapping with per-document positions.

    Positions are indices into the post-analysis token stream (stopwords
    removed before position assignment), so proximity values are measured
    in surviving tokens, not raw words.
    """

    def __init__(self, postings: dict, doc_length: dict, config: AnalyzerConfig):
        self._postings = postings          # term -> {docid: (pos, ...)}
        self._doc_length = dict(doc_length)
        self.config = config
        self._df = {t: len(pl) for t, pl in postings.items()}
        self._cf = {t: sum(len(ps) for ps in pl.values()) for t, pl in postings.items()}
        self._total_tokens = sum(self._cf.values())
        n = len(self._doc_length)
        self._avgdl = sum(self._doc_length.values()) / n if n else 0.0
        self._idf = {t: math.log(1.0 + (n - df + 0.5) / (df + 0.5))
                     for t, df in self._df.items() if df > 0}
        self._doc_tokens_cache: dict[str, tuple[str, ...]] = {}

    # -- statistics ------------------------------------------------------

    @property
    def n_docs(self) -> int:
        return len(self._doc_length)

    @property
    def avgdl(self) -> float:
        return self._avgdl

    @property
    def total_tokens(self) -> int:
        return self._total_tokens

    @property
    def vocabulary(self) -> list[str]:
        return sorted(self._postings)

    def doc_ids(self) -> list[str]:
        return sorted(self._doc_length)

    def has_doc(self, docid: str) -> bool:
        return docid in self._doc_length

    def _require_doc(self, docid: str) -> None:
        if docid not in self._doc_length:
            raise UnknownDocumentError(f"unknown docid: {docid!r}")

    def doc_length(self, docid: str) -> int:
        self._require_doc(docid)
        return self._doc_length[docid]

    def df(self, term: str) -> int:
        return self._df.get(term, 0)

    def cf(self, term: str) -> int:
        return self._cf.get(term, 0)

    def idf(self, term: str) -> float:
        """ln(1 + (N - df + 0.5) / (df + 0.5)); 0 for unseen terms.

        Always positive for indexed terms, which avoids negative-idf
        pathologies on tiny corpora.
        """
        return self._idf.get(term, 0.0)

    def tf(self, term: str, docid: str) -> int:
        self._require_doc(docid)
        posting = self._postings.get(term)
        if posting is None:
            return 0
        return len(posting.get(docid, ()))

    def positions(self, term: str, docid: str) -> list[int]:
        """Strictly increasing positions of term in docid; [] when absent."""
        self._require_doc(docid)
        posting = self._postings.get(term)
        if posting is None:
            return []
        return list(posting.get(docid, ()))

    def postings(self, term: str) -> dict:
        """Mapping docid -> positions tuple for one term ({} when unseen)."""
        return dict(self._postings.get(term, {}))

    def doc_tokens(self, docid: str) -> tuple[str, ...]:
        """Reconstruct the analyzed token sequence of a document."""
        self._require_doc(docid)
        cached = self._doc_tokens_cache.get(docid)
        if cached is not None:
            return cached
        slots: list[tuple[int, str]] = []
        for term, posting in self._postings.items():
            for pos in posting.get(docid, ()):
                slots.append((pos, term))
        slots.sort()
        tokens = tuple(term for _, term in slots)
        self._doc_tokens_cache[docid] = tokens
        return tokens

    def tokenized_doc(self, docid: str) -> TokenizedDocument:
        return TokenizedDocument(docid=docid, tokens=self.doc_tokens(docid))

    def doc_term_counts(self, docid: str) -> dict:
        return Counter(self.doc_tokens(docid))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": _INDEX_FORMAT_VERSION,
            "config": self.config.to_dict(),
            "doc_length": {d: self._doc_length[d] for d in sorted(self._doc_length)},
            "postings": {
                t: {d: list(ps) for d, ps in sorted(self._postings[t].items())}
                for t in sorted(self._postings)
            },
        }

    def save(self, path: str) -> None:
        """Write ``to_dict()`` as sorted compact JSON, one posting list at a time."""
        dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        with open(path, "w", encoding="utf-8") as f:
            f.write(f'{{"config":{dump(self.config.to_dict())},"doc_length":{dump(self._doc_length)},'
                    f'"postings":{{')
            for i, term in enumerate(sorted(self._postings)):
                f.write(f'{"," if i else ""}{dump(term)}:{dump(self._postings[term])}')
            f.write(f'}},"version":{dump(_INDEX_FORMAT_VERSION)}}}\n')

    @classmethod
    def from_dict(cls, data: dict) -> "PositionalIndex":
        if data.get("version") != _INDEX_FORMAT_VERSION:
            raise ValueError(f"unsupported index format version: {data.get('version')!r}")
        doc_length, raw_postings = data["doc_length"], data["postings"]
        if not isinstance(doc_length, dict) or not isinstance(raw_postings, dict):
            raise ValueError("index doc_length and postings must be JSON objects")
        for d, dl in doc_length.items():
            _check_id("docid", d)
            if type(dl) is not int or not 0 <= dl < _INT64_LIMIT:
                raise ValueError(f"docid {d!r}: doc_length must be a non-negative int, got {dl!r}")
        _check_postings(doc_length, raw_postings)
        postings = {t: {d: tuple(ps) for d, ps in pl.items()} for t, pl in raw_postings.items()}
        config = AnalyzerConfig.from_dict(data["config"])
        return cls(postings, doc_length, config)

    @classmethod
    def load(cls, path: str) -> "PositionalIndex":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def _check_postings(doc_length: dict, postings: dict) -> None:
    """Reject postings that do not describe each document's token stream.

    Every posting's docid must be in doc_length, and its positions a
    non-empty, strictly increasing list of ints in [0, doc_length). Every
    document's term frequencies must sum to its doc_length, and no two
    terms may share a position in it. The checks run over all postings at
    once, so loading stays cheap; a failure names the first offending term
    and docid.
    """
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


def build_index(corpus: list[Document], config: AnalyzerConfig = DEFAULT_CONFIG) -> PositionalIndex:
    """Tokenize a corpus and build the positional index.

    Rejects duplicate docids, and empty ones or ones with whitespace. An
    empty corpus yields an index with n_docs == 0 and avgdl == 0.
    """
    postings: dict[str, dict[str, tuple[int, ...]]] = {}
    doc_length: dict[str, int] = {}
    analyze = _Analyzer(config)
    for doc in corpus:
        _check_id("docid", doc.docid)
        if doc.docid in doc_length:
            raise ValueError(f"duplicate docid: {doc.docid!r}")
        tokens = analyze(doc.text)
        doc_length[doc.docid] = len(tokens)
        per_term: dict[str, list[int]] = {}
        for pos, term in enumerate(tokens):
            per_term.setdefault(term, []).append(pos)
        for term, positions in per_term.items():
            postings.setdefault(term, {})[doc.docid] = tuple(positions)
    return PositionalIndex(postings, doc_length, config)


def read_corpus_jsonl(path: str) -> list[Document]:
    """Read a JSON-Lines corpus: one {"docid": ..., "text": ...} per line."""
    docs: list[Document] = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict) or "docid" not in obj or "text" not in obj:
                raise ValueError(f'{path}:{lineno}: expected object with "docid" and "text"')
            docs.append(Document(docid=str(obj["docid"]), text=str(obj["text"])))
    return docs
