"""Immutable positional inverted index over a small in-memory corpus.

Holds, per term, the posting list of (docid, positions) plus the global
statistics every scoring model and axiom in this package needs: document
lengths, corpus size, average document length, document frequency and
collection frequency. Built once, then read-only; safe for concurrent
reads.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

from .analysis import AnalyzerConfig, DEFAULT_CONFIG, TokenizedDocument, tokenize

_INDEX_FORMAT_VERSION = 1


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
        self._doc_tokens_cache: dict[str, tuple[str, ...]] = {}

    # -- statistics ------------------------------------------------------

    @property
    def n_docs(self) -> int:
        return len(self._doc_length)

    @property
    def avgdl(self) -> float:
        if not self._doc_length:
            return 0.0
        return sum(self._doc_length.values()) / len(self._doc_length)

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
        df = self.df(term)
        if df == 0:
            return 0.0
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

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
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, sort_keys=True, separators=(",", ":"))
            f.write("\n")

    @classmethod
    def from_dict(cls, data: dict) -> "PositionalIndex":
        if data.get("version") != _INDEX_FORMAT_VERSION:
            raise ValueError(f"unsupported index format version: {data.get('version')!r}")
        postings = {
            t: {d: tuple(ps) for d, ps in pl.items()}
            for t, pl in data["postings"].items()
        }
        config = AnalyzerConfig.from_dict(data["config"])
        return cls(postings, data["doc_length"], config)

    @classmethod
    def load(cls, path: str) -> "PositionalIndex":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def build_index(corpus: list[Document], config: AnalyzerConfig = DEFAULT_CONFIG) -> PositionalIndex:
    """Tokenize a corpus and build the positional index.

    Rejects duplicate or empty docids. An empty corpus yields an index
    with n_docs == 0 and avgdl == 0.
    """
    postings: dict[str, dict[str, tuple[int, ...]]] = {}
    doc_length: dict[str, int] = {}
    for doc in corpus:
        if not doc.docid:
            raise ValueError("document with empty docid")
        if doc.docid in doc_length:
            raise ValueError(f"duplicate docid: {doc.docid!r}")
        tokens = tokenize(doc.text, config)
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
