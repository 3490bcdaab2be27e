"""Immutable positional inverted index over a small in-memory corpus.

Holds, per term, the posting list of (docid, positions), per document its
analyzed token stream, and the global statistics every scoring model and
axiom in this package needs: document lengths, corpus size, average
document length, document frequency, collection frequency and idf. A
document's length is the length of its stream and a term's df the length
of its posting list. The index is immutable: the collection statistics
(total tokens, avgdl, and each indexed term's cf and idf) and the
per-document term-ordinal arrays are computed at construction, and
nothing is written after that.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .analysis import AnalyzerConfig, DEFAULT_CONFIG, TokenizedDocument, _Analyzer, _check_keys

_INDEX_FORMAT_VERSION = 1
_INT64_LIMIT = 2**63
_POSITIONS = "positions must be a non-empty, strictly increasing list of ints in [0, doc_length)"


def _check_id(kind: str, value: str, where: str = "") -> None:
    """Reject an id that a whitespace-separated run file could not read back."""
    if value.split() != [value]:
        raise ValueError(f"{where}{kind} {value!r} is empty or contains whitespace")


def left_sum(values):
    """Add values left to right, starting from int 0 as ``sum`` does.

    From Python 3.12 on, ``sum`` compensates the rounding of float
    additions (Neumaier), so its last bit can differ from the plain order
    that the vectorized scoring paths and the golden files follow.
    """
    total = 0
    for value in values:
        total += value
    return total


def _check_in(name: str, value, interval: str) -> None:
    """Reject a value outside ``interval``, written in math notation: "(0, inf)", "[0, 1]".

    The test is two range comparisons, so NaN lies in no interval.
    """
    lo, hi = map(float, interval[1:-1].split(","))
    if not ((lo <= value if interval[0] == "[" else lo < value)
            and (value <= hi if interval[-1] == "]" else value < hi)):
        raise ValueError(f"{name} must be in {interval}, got {value!r}")


def _check_number(name: str, value, interval: str, number=(int, float)) -> None:
    """Reject a bool, a value not of type ``number`` (int, or int or float) and one outside ``interval``."""
    if not isinstance(value, number) or isinstance(value, bool):
        raise ValueError(f"{name} must be {'an int' if number is int else 'a number'}, got {value!r}")
    _check_in(name, value, interval)


def check_fields(obj) -> None:
    """Check every field of the dataclass ``obj`` against the domain its metadata declares.

    An int or float field (the type of its default) declares ``"in"``, an
    interval for ``_check_in``. An int field takes only an int; a float
    field an int or a float; neither takes a bool. A str field may declare
    ``"choices"``, the values it takes.
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if "in" in f.metadata:
            _check_number(f.name, value, f.metadata["in"], int if type(f.default) is int else (int, float))
        elif "choices" in f.metadata and value not in f.metadata["choices"]:
            raise ValueError(f"unknown {f.name} {value!r}; valid: {', '.join(f.metadata['choices'])}")


@dataclass(frozen=True)
class Document:
    docid: str
    text: str


class UnknownDocumentError(KeyError):
    """Raised when a docid is not part of the index."""


class PositionalIndex:
    """Term -> postings mapping with per-document positions, and each document's token stream.

    Positions are indices into the post-analysis token stream (stopwords
    removed before position assignment), so proximity values are measured
    in surviving tokens, not raw words. A posting of one position holds a
    (p,) tuple shared by every such posting, built or loaded.

    Construction freezes term ordinals: ordinal u is the u-th term of the
    sorted vocabulary, so ordinal order is ``str`` order. Rows follow the
    sorted docids. Per row, the document's distinct terms are kept as
    ascending int32 ordinals with their int32 counts, in CSR form: one
    ordinal and one count array of sum-of-df entries, and int64 row
    offsets; ``doc_terms`` reads one row. They are counted from the token
    streams a chunk of documents at a time, and each term's cf (so total
    tokens and avgdl) is summed from the same count, not from the
    postings. ``cf_by_ordinal`` and ``idf_by_ordinal`` hold cf and idf
    per ordinal. Every array is read-only. Candidate generation adds
    ``tf * idf`` over these ordinals per top document in rank order, from
    0.0, and the LM ground truth adds its mass vectors the same way.
    """

    def __init__(self, postings: dict, doc_tokens: dict, config: AnalyzerConfig):
        self._postings = postings          # term -> {docid: (pos, ...)}
        self._doc_tokens = doc_tokens      # docid -> (term, ...), the term at each position
        self.config = config
        self._vocabulary = vocabulary = sorted(postings)
        self._docids = docids = sorted(doc_tokens)
        self._offsets, self._ordinals, self._counts, cf = _term_count_rows(
            [doc_tokens[d] for d in docids], {t: u for u, t in enumerate(vocabulary)},
            sum(map(len, postings.values())))
        self._cf = dict(zip(vocabulary, cf.tolist()))
        self._cf_by_ordinal = cf
        self._total_tokens = int(cf.sum())
        n = len(docids)
        self._avgdl = self._total_tokens / n if n else 0.0
        idf = [math.log(1.0 + (n - df + 0.5) / (df + 0.5)) if df else 0.0
               for df in map(len, map(postings.__getitem__, vocabulary))]
        self._idf = dict(zip(vocabulary, idf))
        self._idf_by_ordinal = _read_only(np.array(idf, dtype=np.float64))

    # -- statistics ------------------------------------------------------

    @property
    def n_docs(self) -> int:
        return len(self._doc_tokens)

    @property
    def avgdl(self) -> float:
        return self._avgdl

    @property
    def total_tokens(self) -> int:
        return self._total_tokens

    @property
    def vocabulary(self) -> list[str]:
        """The indexed terms in ordinal order (sorted); a copy."""
        return list(self._vocabulary)

    def terms_at(self, ordinals) -> list[str]:
        """The term of each ordinal."""
        vocabulary = self._vocabulary
        return [vocabulary[u] for u in ordinals]

    def doc_ids(self) -> list[str]:
        """The docids in row order (sorted); a copy."""
        return list(self._docids)

    def has_doc(self, docid: str) -> bool:
        return docid in self._doc_tokens

    def _require_doc(self, docid: str) -> None:
        if docid not in self._doc_tokens:
            raise UnknownDocumentError(f"unknown docid: {docid!r}")

    def doc_length(self, docid: str) -> int:
        self._require_doc(docid)
        return len(self._doc_tokens[docid])

    def df(self, term: str) -> int:
        return len(self._postings.get(term, ()))

    def cf(self, term: str) -> int:
        return self._cf.get(term, 0)

    def idf(self, term: str) -> float:
        """ln(1 + (N - df + 0.5) / (df + 0.5)); 0 for unseen terms.

        Always positive for indexed terms, which avoids negative-idf
        pathologies on tiny corpora.
        """
        return self._idf.get(term, 0.0)

    @property
    def cf_by_ordinal(self) -> np.ndarray:
        """The read-only int64 array of ``cf`` indexed by term ordinal."""
        return self._cf_by_ordinal

    @property
    def idf_by_ordinal(self) -> np.ndarray:
        """The read-only float64 array of ``idf`` indexed by term ordinal."""
        return self._idf_by_ordinal

    def doc_terms(self, docid: str) -> tuple[np.ndarray, np.ndarray]:
        """The ascending term ordinals of docid and each one's tf, as read-only int32 views."""
        row = bisect.bisect_left(self._docids, docid)
        if row == len(self._docids) or self._docids[row] != docid:
            raise UnknownDocumentError(f"unknown docid: {docid!r}")
        lo, hi = self._offsets[row:row + 2].tolist()
        return self._ordinals[lo:hi], self._counts[lo:hi]

    def tf(self, term: str, docid: str) -> int:
        self._require_doc(docid)
        posting = self._postings.get(term)
        if posting is None:
            return 0
        return len(posting.get(docid, ()))

    def tf_block(self, terms, docids) -> tuple[np.ndarray, np.ndarray]:
        """The (terms x docids) int64 matrix of tf, and the length of each of docids.

        Rows and columns follow the order of ``terms`` and ``docids``; both
        may repeat. A term's row intersects its posting keys with the set of
        docids, so it costs O(min(df, distinct docids)), not one lookup per
        cell.
        """
        try:
            dl = np.array([len(self._doc_tokens[d]) for d in docids], dtype=np.int64)
        except KeyError as exc:
            raise UnknownDocumentError(f"unknown docid: {exc.args[0]!r}") from None
        column = dict(zip(docids, range(len(docids))))     # a repeated docid's last column
        hits, cols, counts = [], [], []
        for term in terms:
            posting = self._postings.get(term, {})
            shared = posting.keys() & column.keys()
            hits.append(len(shared))
            cols.extend(map(column.__getitem__, shared))
            counts.extend(map(len, map(posting.__getitem__, shared)))
        tf = np.zeros((len(terms), len(docids)), dtype=np.int64)
        tf[np.repeat(np.arange(len(terms)), hits), cols] = counts
        if len(column) < len(docids):
            tf = tf[:, [column[d] for d in docids]]
        return tf, dl

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
        """The analyzed token sequence of a document."""
        self._require_doc(docid)
        return self._doc_tokens[docid]

    def tokenized_doc(self, docid: str) -> TokenizedDocument:
        return TokenizedDocument(docid=docid, tokens=self.doc_tokens(docid))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": _INDEX_FORMAT_VERSION,
            "config": self.config.to_dict(),
            "doc_length": {d: len(self._doc_tokens[d]) for d in sorted(self._doc_tokens)},
            "postings": {
                t: {d: list(ps) for d, ps in sorted(self._postings[t].items())}
                for t in sorted(self._postings)
            },
        }

    def save(self, path: str) -> None:
        """Write ``to_dict()`` as sorted compact JSON, one posting list at a time."""
        dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        doc_length = {d: len(tokens) for d, tokens in self._doc_tokens.items()}
        with open(path, "w", encoding="utf-8") as f:
            f.write(f'{{"config":{dump(self.config.to_dict())},"doc_length":{dump(doc_length)},'
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
        doc_tokens = _check_postings(doc_length, raw_postings)
        singles = [(p,) for p in range(max(doc_length.values(), default=0))]
        postings = {t: {d: singles[ps[0]] if len(ps) == 1 else tuple(ps) for d, ps in pl.items()}
                    for t, pl in raw_postings.items()}
        return cls(postings, doc_tokens, config)

    @classmethod
    def load(cls, path: str) -> "PositionalIndex":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def _check_postings(doc_length: dict, postings: dict) -> dict:
    """Return each document's token stream, or reject postings that do not describe one.

    Pass 1 checks each posting: its docid is in doc_length, its positions a
    non-empty, strictly increasing list of ints in [0, doc_length). The term
    frequencies it sums per document must equal doc_length before pass 2
    allocates a slot per position, so a false doc_length such as 2**40
    fails cheaply. Pass 2 fills the slots; a slot filled twice is a
    position two terms share, and the filled slots are the streams. A
    failure names the term and docid.
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
    return {d: tuple(held) for d, held in slots.items()}


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


_ROW_CHUNK = 64     # documents whose tokens are counted at once


def _term_count_rows(streams: list, ordinal: dict, n_entries: int):
    """Each stream's sorted (term ordinal, count) pairs as CSR arrays, and each term's cf.

    ``n_entries`` is the number of (document, term) pairs, the sum of the
    dfs, so the outputs are allocated once. Streams are counted a chunk
    at a time: a chunk's tokens become int64 keys (row in chunk) * V +
    ordinal, one sort and ``np.unique`` count them, and the chunk's token
    ordinals add to cf by ``np.bincount``. The temporaries stay the size
    of a chunk, not of the corpus.
    """
    n_terms = len(ordinal)
    offsets = np.zeros(len(streams) + 1, dtype=np.int64)
    ordinals = np.empty(n_entries, dtype=np.int32)
    counts = np.empty(n_entries, dtype=np.int32)
    cf = np.zeros(n_terms, dtype=np.int64)
    filled = 0
    for start in range(0, len(streams), _ROW_CHUNK):
        chunk = streams[start:start + _ROW_CHUNK]
        lengths = np.fromiter(map(len, chunk), dtype=np.int64, count=len(chunk))
        tokens = np.fromiter(map(ordinal.__getitem__, itertools.chain.from_iterable(chunk)),
                             dtype=np.int64, count=int(lengths.sum()))
        cf += np.bincount(tokens, minlength=n_terms)
        keys, tfs = np.unique(np.repeat(np.arange(len(chunk)), lengths) * n_terms + tokens,
                              return_counts=True)
        end = filled + len(keys)
        ordinals[filled:end] = keys % n_terms
        counts[filled:end] = tfs
        row_sizes = np.bincount(keys // n_terms, minlength=len(chunk))
        offsets[start + 1:start + 1 + len(chunk)] = filled + np.cumsum(row_sizes)
        filled = end
    if filled != n_entries:
        raise ValueError(f"postings hold {n_entries} (document, term) pairs, the token streams {filled}")
    return _read_only(offsets), _read_only(ordinals), _read_only(counts), _read_only(cf)


def build_index(corpus: list[Document], config: AnalyzerConfig = DEFAULT_CONFIG) -> PositionalIndex:
    """Tokenize a corpus and build the positional index.

    Rejects duplicate docids, and empty ones or ones with whitespace. An
    empty corpus yields an index with n_docs == 0 and avgdl == 0.
    """
    postings: dict[str, dict[str, tuple[int, ...]]] = {}
    doc_tokens: dict[str, tuple[str, ...]] = {}
    singles: list[tuple[int]] = []     # (0,), (1,), ...: one tuple per position, not per posting
    analyze = _Analyzer(config)
    for doc in corpus:
        _check_id("docid", doc.docid)
        if doc.docid in doc_tokens:
            raise ValueError(f"duplicate docid: {doc.docid!r}")
        tokens = analyze(doc.text)
        singles.extend((p,) for p in range(len(singles), len(tokens)))
        doc_tokens[doc.docid] = tuple(tokens)
        per_term: dict[str, list[int]] = {}
        for pos, term in enumerate(tokens):
            per_term.setdefault(term, []).append(pos)
        for term, positions in per_term.items():
            shared = singles[positions[0]] if len(positions) == 1 else tuple(positions)
            postings.setdefault(term, {})[doc.docid] = shared
    return PositionalIndex(postings, doc_tokens, config)


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
