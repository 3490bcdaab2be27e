"""Immutable positional inverted index over a small in-memory corpus.

Holds, per term, the posting list of (docid, positions), per document its
analyzed token stream as term ordinals in one int32 array, and the global
statistics every scoring model and axiom in this package needs: document
lengths, corpus size, average document length, document frequency,
collection frequency and idf. A document's length is the length of its
stream and a term's df the length of its posting list. The index is
immutable: the collection statistics (total tokens, avgdl, and each
indexed term's cf and idf) are computed at construction, and nothing is
written after that.

An index file (format version 3) is one line of sorted compact JSON, the
header, with the analyzer config, the vocabulary, the docids and each
document's length, then the token stream as raw little-endian int32, 4
bytes a token. So ``save`` writes the stream's bytes and ``load`` reads
them back with ``np.frombuffer``; no token passes through JSON.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import json
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .analysis import AnalyzerConfig, DEFAULT_CONFIG, TokenizedDocument, _Analyzer, _check_keys, _unique_keys

_INDEX_FORMAT_VERSION = 3


def _check_id(kind: str, value: str, where: str = "") -> None:
    """Reject an id that a whitespace-separated run file could not read back."""
    if not isinstance(value, str):
        raise ValueError(f"{where}{kind} must be a string, got {value!r}")
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


@functools.cache
def _interval(interval: str) -> tuple:
    """The bounds of ``interval`` and whether its low and its high end are closed, parsed once per string."""
    lo, hi = map(float, interval[1:-1].split(","))
    return lo, hi, interval[0] == "[", interval[-1] == "]"


def _check_in(name: str, value, interval: str) -> None:
    """Reject a value outside ``interval``, written in math notation: "(0, inf)", "[0, 1]".

    The test is two range comparisons, so NaN lies in no interval.
    """
    lo, hi, lo_closed, hi_closed = _interval(interval)
    if not ((lo <= value if lo_closed else lo < value) and (value <= hi if hi_closed else value < hi)):
        raise ValueError(f"{name} must be in {interval}, got {value!r}")


def _check_type(name: str, value, number) -> None:
    """Reject a bool and a value not of type ``number`` (int, or int or float)."""
    if not isinstance(value, number) or isinstance(value, bool):
        raise ValueError(f"{name} must be {'an int' if number is int else 'a number'}, got {value!r}")


def _check_number(name: str, value, interval: str, number=(int, float)) -> None:
    """Reject a bool, a value not of type ``number`` (int, or int or float) and one outside ``interval``."""
    _check_type(name, value, number)
    _check_in(name, value, interval)


def _check_rank(name: str, value, n: int) -> None:
    """Reject a bool, a non-int and an int outside [1, n], with ``_check_number``'s messages.

    The bounds are compared directly, so ``_interval`` keeps no entry per n.
    """
    _check_type(name, value, int)
    if not 1 <= value <= n:
        raise ValueError(f"{name} must be in [1, {n}], got {value!r}")


def _check_unique(name: str, items) -> set:
    """The set of ``items``; a ValueError naming the first item seen twice."""
    unique = set(items)
    if len(unique) != len(items):
        seen = set()
        for item in items:
            if item in seen:
                raise ValueError(f"duplicate {item!r} in {name}")
            seen.add(item)
    return unique


def check_fields(obj) -> None:
    """Check every field of the dataclass ``obj`` against the domain its metadata declares.

    An int or float field (the type of its default) declares ``"in"``, an
    interval for ``_check_in``. An int field takes only an int; a float
    field an int or a float; neither takes a bool. A str field may declare
    ``"choices"``, the values it takes. A field whose default is a
    dataclass takes only an instance of that class.
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if "in" in f.metadata:
            _check_number(f.name, value, f.metadata["in"], int if type(f.default) is int else (int, float))
        elif "choices" in f.metadata and value not in f.metadata["choices"]:
            raise ValueError(f"unknown {f.name} {value!r}; valid: {', '.join(f.metadata['choices'])}")
        elif dataclasses.is_dataclass(f.default) and not isinstance(value, type(f.default)):
            raise ValueError(f"{f.name} must be a {type(f.default).__name__}, got {value!r}")


@dataclass(frozen=True)
class Document:
    docid: str
    text: str


class UnknownDocumentError(KeyError):
    """Raised when a docid is not part of the index."""

    __str__ = Exception.__str__      # KeyError's would quote the message


class _Term:
    """One term's postings (docid -> positions tuple), cf and idf: 56 bytes, where a NamedTuple takes 72."""

    __slots__ = ("postings", "cf", "idf")

    def __init__(self, postings: dict, cf: int, idf: float):
        self.postings, self.cf, self.idf = postings, cf, idf


_UNSEEN = _Term(MappingProxyType({}), 0, 0.0)     # the record of a term absent from the index


class PositionalIndex:
    """Term -> record of postings with per-document positions, and each document's term ordinals.

    Positions are indices into the post-analysis token stream (stopwords
    removed before position assignment), so proximity values are measured
    in surviving tokens, not raw words.

    Construction freezes term ordinals: ordinal u is the u-th term of the
    sorted vocabulary, so ordinal order is ``str`` order. Rows follow the
    sorted docids. The only copy of the documents is one read-only int32
    stream of their ordinals in row order, with int64 row offsets
    (``_starts``) and a docid -> length dict; ``doc_tokens`` maps a row's
    slice through the vocabulary, and ``doc_terms`` sorts rows' (row,
    ordinal) keys into (ordinal, count) runs. Building and loading call the
    same constructor with the lengths, the int32 array of ordinals and the
    vocabulary. It keeps the array as it is, and inverts it in one pass, a
    chunk of documents at a time (``_invert``). Each (document, term) pair
    gives a posting, whose positions are a tuple; a posting of one position
    holds the (p,) tuple shared by every such posting. ``_terms`` maps each
    term to its ``_Term`` (postings, cf, idf), one lookup for a scalar
    reader; ``cf_by_ordinal`` and ``idf_by_ordinal`` repeat cf and idf by ordinal.
    Candidate generation adds ``tf * idf`` over these ordinals for the top
    documents in rank order, from 0.0, and the LM ground truth adds its
    mass vectors the same way.
    """

    def __init__(self, lengths: dict, stream, vocabulary: list, config: AnalyzerConfig):
        """Index the documents of ``lengths`` (docid -> length), whose term ordinals ``stream`` holds.

        ``lengths`` runs in sorted docid order, and ``stream`` holds each
        document's ordinals into the sorted ``vocabulary`` in that order. An
        int32 array is kept as it is, made read-only, as the index's only
        copy of the documents; anything else is copied into one.
        """
        self._lengths = lengths
        self._stream = _read_only(np.asarray(stream, dtype=np.int32))
        self.config = config
        self._vocabulary = vocabulary
        self._docids = docids = list(lengths)
        self._starts = _read_only(np.concatenate(([0], np.cumsum(list(lengths.values()), dtype=np.int64))))
        by_ordinal, cf = _invert(self._stream, self._starts, docids, len(vocabulary))
        self._cf_by_ordinal = cf
        self._total_tokens = int(cf.sum())
        n = len(docids)
        self._avgdl = self._total_tokens / n if n else 0.0
        idf_of = {df: math.log(1.0 + (n - df + 0.5) / (df + 0.5)) if df else 0.0 for df in set(map(len, by_ordinal))}
        idf = [idf_of[len(posting)] for posting in by_ordinal]     # the terms of one df share one float
        self._idf_by_ordinal = _read_only(np.array(idf, dtype=np.float64))
        self._terms = dict(zip(vocabulary, map(_Term, by_ordinal, cf.tolist(), idf)))

    # -- statistics ------------------------------------------------------

    @property
    def n_docs(self) -> int:
        return len(self._lengths)

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
        return docid in self._lengths

    def _span(self, docid: str) -> slice:
        """docid's slice of the stream; its row is its place in the sorted docids."""
        self.doc_length(docid)      # raises UnknownDocumentError for an unknown docid
        row = bisect.bisect_left(self._docids, docid)
        return slice(*self._starts[row:row + 2].tolist())

    def doc_length(self, docid: str) -> int:
        try:
            return self._lengths[docid]
        except KeyError:
            raise UnknownDocumentError(f"unknown docid: {docid!r}") from None

    def df(self, term: str) -> int:
        return len(self._terms.get(term, _UNSEEN).postings)

    def cf(self, term: str) -> int:
        return self._terms.get(term, _UNSEEN).cf

    def idf(self, term: str) -> float:
        """ln(1 + (N - df + 0.5) / (df + 0.5)); 0 for unseen terms.

        Always positive for indexed terms, which avoids negative-idf
        pathologies on tiny corpora.
        """
        return self._terms.get(term, _UNSEEN).idf

    @property
    def cf_by_ordinal(self) -> np.ndarray:
        """The read-only int64 array of ``cf`` indexed by term ordinal."""
        return self._cf_by_ordinal

    @property
    def idf_by_ordinal(self) -> np.ndarray:
        """The read-only float64 array of ``idf`` indexed by term ordinal."""
        return self._idf_by_ordinal

    def doc_terms(self, *docids: str) -> tuple[np.ndarray, np.ndarray]:
        """Each of docids' distinct term ordinals, ascending, and their tfs, one docid after another."""
        spans = [self._span(d) for d in docids]
        tokens = np.concatenate([self._stream[:0], *map(self._stream.__getitem__, spans)])
        n_terms = len(self._vocabulary)
        _, tfs, _, ordinals = _runs(np.sort(_keys(tokens, [s.stop - s.start for s in spans], n_terms)), n_terms)
        return ordinals, tfs

    def tf(self, term: str, docid: str) -> int:
        self.doc_length(docid)      # raises UnknownDocumentError for an unknown docid
        return len(self._terms.get(term, _UNSEEN).postings.get(docid, ()))

    def tf_block(self, terms, docids) -> tuple[np.ndarray, np.ndarray]:
        """The (terms x docids) int64 matrix of tf, and the length of each of docids.

        Rows and columns follow the order of ``terms`` and ``docids``; both
        may repeat. Each length is one lookup in the docid -> length dict,
        and the first unknown docid, in the order given, raises
        UnknownDocumentError. A term's row intersects its posting keys with
        the set of docids, so it costs O(min(df, distinct docids)), not one
        lookup per cell.
        """
        try:
            dl = np.fromiter(map(self._lengths.__getitem__, docids), np.int64, len(docids))
        except KeyError as exc:
            raise UnknownDocumentError(f"unknown docid: {exc.args[0]!r}") from None
        column = dict(zip(docids, range(len(docids))))     # a repeated docid's last column
        hits, cols, counts = [], [], []
        for term in terms:
            posting = self._terms.get(term, _UNSEEN).postings
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
        self.doc_length(docid)      # raises UnknownDocumentError for an unknown docid
        return list(self._terms.get(term, _UNSEEN).postings.get(docid, ()))

    def postings(self, term: str) -> dict:
        """Mapping docid -> positions tuple for one term ({} when unseen).

        It iterates in ascending docid order: ``_invert`` fills every
        posting row by row, and rows follow the sorted docids.
        """
        return dict(self._terms.get(term, _UNSEEN).postings)

    def matching_docs(self, terms) -> list[str]:
        """The docids holding any of terms, ascending.

        Each posting's keys are already in docid order (see ``postings``),
        so sorting their concatenation merges sorted runs.
        """
        records = self._terms
        return list(dict.fromkeys(sorted(itertools.chain.from_iterable(
            records.get(t, _UNSEEN).postings for t in dict.fromkeys(terms)))))

    def doc_tokens(self, docid: str) -> tuple[str, ...]:
        """The analyzed token sequence of a document, mapped from its slice of the stream."""
        return tuple(self.terms_at(self._stream[self._span(docid)].tolist()))

    def tokenized_doc(self, docid: str) -> TokenizedDocument:
        return TokenizedDocument(docid=docid, tokens=self.doc_tokens(docid))

    # -- serialization ---------------------------------------------------

    def save(self, path: str) -> None:
        """Write the header line, sorted compact JSON, then the stream as little-endian int32."""
        header = {"config": self.config.to_dict(), "docids": self._docids, "lengths": list(self._lengths.values()),
                  "version": _INDEX_FORMAT_VERSION, "vocabulary": self._vocabulary}
        with open(path, "wb") as f:
            f.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n")
            f.write(self._stream.astype("<i4", copy=False).tobytes())

    @classmethod
    def load(cls, path: str) -> "PositionalIndex":
        """Read ``save``'s file back; anything else raises ValueError."""
        with open(path, "rb") as f:
            header, body = f.readline(), f.read()
        if not header.endswith(b"\n"):
            raise ValueError("index file has no header line: it must start with a JSON object and a newline")
        try:
            data = json.loads(header.decode("utf-8"), object_pairs_hook=_unique_keys)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"index header is not a UTF-8 JSON line: {exc}") from exc
        if type(data) is dict and "version" in data:
            version = data["version"]
            if type(version) is not int or version != _INDEX_FORMAT_VERSION:
                raise ValueError(f"unsupported index format version: {version!r}; "
                                 f"rebuild the index with `rankexplain index`")
        _check_keys("index", data, {"version", "config", "vocabulary", "docids", "lengths"})
        config = AnalyzerConfig.from_dict(data["config"])
        vocabulary, docids, lengths = data["vocabulary"], data["docids"], data["lengths"]
        if (type(vocabulary) is not list or any(type(t) is not str for t in vocabulary)
                or any(a >= b for a, b in itertools.pairwise(vocabulary))):
            raise ValueError("index vocabulary must be a strictly ascending list of strings")
        if type(docids) is not list:
            raise ValueError("index docids must be a list of strings")
        for d in docids:
            _check_id("docid", d)
        for a, b in itertools.pairwise(docids):
            if a >= b:
                raise ValueError(f"index docids must be strictly ascending; {b!r} follows {a!r}")
        if (type(lengths) is not list or len(lengths) != len(docids)
                or lengths and (set(map(type, lengths)) != {int} or min(lengths) < 0)):
            raise ValueError("index lengths must be a list of ints >= 0, one per docid")
        total = sum(lengths)
        if len(body) != 4 * total:
            raise ValueError(f"index body must hold {4 * total} bytes, the int32 ordinals of "
                             f"{total} tokens; it holds {len(body)}")
        stream = np.frombuffer(body, dtype="<i4")
        outside = np.flatnonzero((stream < 0) | (stream >= len(vocabulary)))
        if len(outside):
            d = docids[bisect.bisect_right(list(itertools.accumulate(lengths)), int(outside[0]))]
            raise ValueError(f"docid {d!r}: the stream must be a list of term ordinals, "
                             f"ints in [0, {len(vocabulary)})")
        index = cls(dict(zip(docids, lengths)), stream, vocabulary, config)
        if not index.cf_by_ordinal.all():
            unused = vocabulary[int(np.argmin(index.cf_by_ordinal))]
            raise ValueError(f"index vocabulary term {unused!r} occurs in no document")
        return index


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# Documents inverted at once. A chunk's temporaries take about 100 bytes a
# token; at 64 long documents they raised peak RSS, and 16 costs no
# measurable time.
_ROW_CHUNK = 16


def _keys(tokens: np.ndarray, lengths, n_terms: int) -> np.ndarray:
    """The int64 key row * V + ordinal of each token of rows laid end to end, ``lengths`` of them a row."""
    return np.repeat(np.arange(len(lengths)), lengths) * n_terms + tokens


def _runs(keys: np.ndarray, n_terms: int):
    """The start, length (tf), row and ordinal of each run of equal keys in the sorted ``keys``."""
    edges = np.ones(len(keys) + 1, dtype=bool)      # where each run starts, and the end
    np.not_equal(keys[1:], keys[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    return bounds[:-1], np.diff(bounds), *np.divmod(keys[bounds[:-1]], n_terms)


def _invert(stream: np.ndarray, starts: np.ndarray, docids: list, n_terms: int):
    """The postings of each term (a list by ordinal), and each term's cf.

    ``stream`` holds each docid's term ordinals in row order, row r's from
    ``starts[r]`` to ``starts[r + 1]``. One pass slices a chunk of rows out
    of the stream at a time and groups its tokens into (document, term)
    runs (``_runs``) by one sort of their keys, each made unique by the
    token's place in the chunk, which ``divmod`` then recovers. A run gives
    the posting: the shared (p,) tuple when tf is 1, else the tuple of its
    positions. The temporaries stay the size of a chunk, not of the corpus;
    cf is one ``np.bincount`` of the stream.
    """
    cf = np.bincount(stream, minlength=n_terms)     # before the postings grow: it copies the stream to int64
    singles = [(p,) for p in range(int(np.diff(starts).max(initial=0)))]
    by_ordinal = [{} for _ in range(n_terms)]
    for start in range(0, len(docids), _ROW_CHUNK):
        chunk_ids = docids[start:start + _ROW_CHUNK]
        bounds = starts[start:start + _ROW_CHUNK + 1]
        n = int(bounds[-1] - bounds[0])
        # Unique keys, so a plain sort puts each run's tokens in position order.
        keys, order = np.divmod(np.sort(_keys(stream[bounds[0]:bounds[-1]], np.diff(bounds), n_terms) * n
                                        + np.arange(n)), n)
        first, tfs, run_row, run_ordinal = _runs(keys, n_terms)
        positions = (order - np.repeat(bounds[run_row] - bounds[0], tfs)).tolist()
        for docid, u, p, tf in zip(map(chunk_ids.__getitem__, run_row.tolist()), run_ordinal.tolist(),
                                   first.tolist(), tfs.tolist()):
            by_ordinal[u][docid] = singles[positions[p]] if tf == 1 else tuple(positions[p:p + tf])
    return by_ordinal, _read_only(cf)


def build_index(corpus: list[Document], config: AnalyzerConfig = DEFAULT_CONFIG) -> PositionalIndex:
    """Tokenize a corpus and build the positional index.

    Rejects duplicate, non-string or empty docids, ones with whitespace and
    non-string text. An empty corpus yields an index with n_docs == 0 and avgdl == 0.
    """
    texts: dict[str, str] = {}
    for doc in corpus:
        _check_id("docid", doc.docid)
        if doc.docid in texts:
            raise ValueError(f"duplicate docid: {doc.docid!r}")
        if not isinstance(doc.text, str):
            raise ValueError(f"docid {doc.docid!r}: text must be a string, got {doc.text!r}")
        texts[doc.docid] = doc.text
    # One analyzer stems each distinct word once. Its word memo holds a term
    # object per word, so it goes before the index is built.
    doc_tokens = dict(zip(texts, map(tuple, map(_Analyzer(config), texts.values()))))
    ordinal = {term: u for u, term in enumerate(sorted(set(itertools.chain.from_iterable(doc_tokens.values()))))}
    lengths = {d: len(doc_tokens[d]) for d in sorted(doc_tokens)}
    # Popping each document's terms as its ordinals are read frees them one by one.
    terms = itertools.chain.from_iterable(map(doc_tokens.pop, lengths))
    stream = np.fromiter(map(ordinal.__getitem__, terms), dtype=np.int32, count=sum(lengths.values()))
    return PositionalIndex(lengths, stream, list(ordinal), config)


def read_corpus_jsonl(path: str) -> list[Document]:
    """Read a JSON-Lines corpus: one {"docid": string or int, "text": string} per line."""
    docs: list[Document] = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line, object_pairs_hook=_unique_keys)
            except ValueError as exc:     # malformed, or an object with a repeated key
                raise ValueError(f"{path}:{lineno}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
            if not isinstance(obj, dict) or "docid" not in obj or "text" not in obj:
                raise ValueError(f'{path}:{lineno}: expected object with "docid" and "text"')
            docid, text = obj["docid"], obj["text"]
            if type(docid) not in (str, int):
                raise ValueError(f'{path}:{lineno}: "docid" must be a string or an integer, got {json.dumps(docid)}')
            if type(text) is not str:
                raise ValueError(f'{path}:{lineno}: "text" must be a string')
            docs.append(Document(docid=str(docid), text=text))
    return docs
