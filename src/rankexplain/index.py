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

from .analysis import AnalyzerConfig, DEFAULT_CONFIG, TokenizedDocument, _Analyzer, _check_keys

_INDEX_FORMAT_VERSION = 1
_INT64_LIMIT = 2**63
_POSITIONS = "positions must be a non-empty, strictly increasing list of ints in [0, doc_length)"


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
        """Read ``to_dict``'s output back; anything else raises ValueError."""
        _check_keys("index", data, {"version", "config", "doc_length", "postings"})
        if type(data["version"]) is not int or data["version"] != _INDEX_FORMAT_VERSION:
            raise ValueError(f"unsupported index format version: {data['version']!r}")
        config = AnalyzerConfig.from_dict(data["config"])
        doc_length, raw_postings = data["doc_length"], data["postings"]
        if not isinstance(doc_length, dict) or not isinstance(raw_postings, dict):
            raise ValueError("index doc_length and postings must be JSON objects")
        for d, dl in doc_length.items():
            _check_id("docid", d)
            if type(dl) is not int or not 0 <= dl < _INT64_LIMIT:
                raise ValueError(f"docid {d!r}: doc_length must be a non-negative int, got {dl!r}")
        _check_postings(doc_length, raw_postings)
        postings = {t: {d: tuple(ps) for d, ps in pl.items()} for t, pl in raw_postings.items()}
        return cls(postings, doc_length, config)

    @classmethod
    def load(cls, path: str) -> "PositionalIndex":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def _check_postings(doc_length: dict, postings: dict) -> None:
    """Reject postings that do not describe each document's token stream.

    Pass 1 checks each posting: its docid is in doc_length, its positions a
    non-empty, strictly increasing list of ints in [0, doc_length). The term
    frequencies it sums per document must equal doc_length before pass 2
    allocates a slot per position, so a false doc_length such as 2**40
    fails cheaply. Pass 2 fills the slots; a slot filled twice is a
    position two terms share. A failure names the term and docid.
    """
    tf_sum = dict.fromkeys(doc_length, 0)
    for t, pl in postings.items():
        if type(pl) is not dict:
            raise ValueError(f"term {t!r}: postings must be a JSON object")
        for d, ps in pl.items():
            if d not in tf_sum:
                raise ValueError(f"term {t!r}, docid {d!r}: docid is not in doc_length")
            if type(ps) is not list or not ps:
                raise ValueError(f"term {t!r}, docid {d!r}: {_POSITIONS}")
            previous, dl = -1, doc_length[d]
            for p in ps:
                if type(p) is not int or not previous < p < dl:
                    raise ValueError(f"term {t!r}, docid {d!r}: {_POSITIONS}")
                previous = p
            tf_sum[d] += len(ps)
    for d, dl in doc_length.items():
        if tf_sum[d] != dl:
            raise ValueError(f"docid {d!r}: term frequencies sum to {tf_sum[d]}, doc_length is {dl}")
    slots = {d: [None] * dl for d, dl in doc_length.items()}
    for t, pl in postings.items():
        for d, ps in pl.items():
            held = slots[d]
            for p in ps:
                if held[p] is not None:
                    raise ValueError(f"term {t!r}, docid {d!r}: position {p} is also held by term {held[p]!r}")
                held[p] = t


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
    """Read a JSON-Lines corpus: one {"docid": string or int, "text": string} per line."""
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
            docid, text = obj["docid"], obj["text"]
            if type(docid) not in (str, int):
                raise ValueError(f'{path}:{lineno}: "docid" must be a string or an integer, got {json.dumps(docid)}')
            if type(text) is not str:
                raise ValueError(f'{path}:{lineno}: "text" must be a string')
            docs.append(Document(docid=str(docid), text=text))
    return docs
