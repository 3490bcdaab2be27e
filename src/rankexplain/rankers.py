"""Scoring models and ranked-list plumbing.

Three sparse models (BM25, Jelinek-Mercer and Dirichlet language models)
score against a :class:`PositionalIndex`. Any object implementing the
:class:`Ranker` interface can stand in for an opaque second-stage model;
:class:`HiddenIntentRanker` is the built-in synthetic one. Run files use
the six-column TREC format.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .index import (_UNSEEN, PositionalIndex, _check_id, _check_number, _check_rank, _check_unique, check_fields,
                    left_sum)


@dataclass(frozen=True)
class Query:
    qid: str
    terms: tuple[str, ...]

    @classmethod
    def from_text(cls, index: PositionalIndex, qid: str, text: str) -> "Query":
        """Analyze text with the index's own config."""
        from .analysis import tokenize

        return cls(qid=qid, terms=tuple(tokenize(text, index.config)))

    @classmethod
    def from_terms(cls, qid: str, terms: Sequence[str]) -> "Query":
        """Wrap already-analyzed terms (used for expanded queries)."""
        return cls(qid=qid, terms=tuple(terms))


class RunEntry(NamedTuple):
    docid: str
    rank: int
    score: float


@dataclass
class RankedList:
    """Ordered (docid, rank, score) entries for one query.

    Ranks are 1..n with no gaps, scores are non-NaN and non-increasing
    with rank, and docids are unique; the constructor path through
    :meth:`from_entries` enforces all of these.
    """

    qid: str
    entries: list[RunEntry] = field(default_factory=list)
    tag: str = "rankexplain"

    @classmethod
    def from_entries(cls, qid: str, entries: Iterable[RunEntry], tag: str = "rankexplain") -> "RankedList":
        entries = sorted(entries, key=lambda e: e.rank)
        seen: set[str] = set()
        prev_score: Optional[float] = None
        for i, entry in enumerate(entries, start=1):
            if entry.rank != i:
                raise ValueError(f"qid {qid!r}: ranks must be 1..n with no gaps (got {entry.rank} at position {i})")
            if entry.docid in seen:
                raise ValueError(f"qid {qid!r}: duplicate docid {entry.docid!r}")
            seen.add(entry.docid)
            if math.isnan(entry.score):
                raise ValueError(f"qid {qid!r}: docid {entry.docid!r} has a NaN score")
            if prev_score is not None and entry.score > prev_score:
                raise ValueError(f"qid {qid!r}: scores must be non-increasing with rank (rank {entry.rank})")
            prev_score = entry.score
        return cls(qid=qid, entries=list(entries), tag=tag)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def docids(self) -> list[str]:
        return [e.docid for e in self.entries]

    def score_at(self, rank: int) -> float:
        _check_rank("rank", rank, len(self.entries))
        return self.entries[rank - 1].score


DEPTH_DOMAIN = "[1, inf)"      # of a ranked list's depth


def _by_score(qid: str, docids: list, scores: list, depth: Optional[int]) -> list[RunEntry]:
    """The entries of ``docids`` (ascending) by score descending, cut to ``depth``.

    One stable argsort of the negated scores keeps ascending docid order
    among equal scores; each entry holds its score as given. NaN has no
    place in that order, so a NaN score raises ValueError naming the qid
    and the first such docid.
    """
    values = np.array(scores, dtype=np.float64)
    nan = np.flatnonzero(np.isnan(values))
    if len(nan):
        raise ValueError(f"qid {qid!r}: docid {docids[nan[0]]!r} has a NaN score")
    top = np.argsort(-values, kind="stable")[:depth].tolist()
    return list(map(tuple.__new__, itertools.repeat(RunEntry),
                    zip(map(docids.__getitem__, top), range(1, len(top) + 1), map(scores.__getitem__, top))))


@dataclass(frozen=True)
class RankerParams:
    """Default parameters of the built-in sparse models."""

    k1: float = field(default=0.9, metadata={"in": "[0, inf)"})
    b: float = field(default=0.4, metadata={"in": "[0, 1]"})
    # The lower ends keep every smoothed p(t|d) of an indexed term above 0.0, so its
    # log is finite, for indexes and documents under 2**63 tokens. Such a term has
    # cf >= 1 of n < 2**63 tokens, so p_coll = cf / n rounds to at least 2**-63.
    # Rounding is monotone, so each computed value is at least the double below
    # that bounds its exact value, and any value >= 2**-1074 (the least positive
    # double) rounds to a positive double.
    # - JM: p >= lam * p_coll >= 1e-280 * 2**-63, about 1e-299.
    # - Dirichlet: p = (tf + mu * p_coll) / (dl + mu). The numerator is at least
    #   mu * 2**-63, and dl + mu is at most 2**64, or 2 * mu when mu > 2**63. So
    #   p >= 1e-280 * 2**-127, about 6e-319, or p >= 2**-64.
    # Far smaller values, such as 5e-324, can make p 0.0, whose log raises.
    jm_lambda: float = field(default=0.1, metadata={"in": "[1e-280, 1)"})
    dirichlet_mu: float = field(default=1000.0, metadata={"in": "[1e-280, inf)"})

    def __post_init__(self):
        check_fields(self)


class Ranker(ABC):
    """Scoring interface: a pure function of (index, query, doc, params).

    ``score_tokens`` evaluates the same scoring function on a transient
    document given as a token list, with collection statistics frozen at
    the backing index. That is how perturbed documents are scored without
    re-indexing; ``score_masked`` scores many of them at once.
    """

    name: str = "ranker"

    @abstractmethod
    def score(self, query: Query, docid: str) -> float:
        ...

    @abstractmethod
    def score_tokens(self, query: Query, tokens: Sequence[str]) -> float:
        ...

    def score_masked(self, query: Query, tokens: Sequence[str], kept) -> np.ndarray:
        """``score_tokens`` of each row's survivors: the tokens where a row of ``kept`` is True.

        ``kept`` is a (variants x len(tokens)) bool matrix.
        """
        tokens = np.array(tokens, dtype=object)
        return np.array([self.score_tokens(query, tuple(tokens[row])) for row in kept], dtype=float)

    def term_rows(self, terms: Sequence[str], docids: Sequence[str]) -> np.ndarray:
        """Each of terms' one-term query scored on each of docids: a (len(terms) x len(docids)) float64 block."""
        queries = [Query.from_terms("", [term]) for term in terms]
        rows = [[self.score(query, docid) for docid in docids] for query in queries]
        return np.array(rows, dtype=np.float64).reshape(len(terms), len(docids))


def _exact_log(x: np.ndarray) -> np.ndarray:
    """``math.log`` of each entry; ``np.log`` may differ from it by one ulp.

    Each distinct value's log is taken once, mapped at C level into a
    float64 array, and scattered back through ``np.unique``'s inverse.
    It is the language models' ``_term_block``, so ``score_masked`` and
    the fidelity rows pay it per cell. A preference matrix calls it only
    on the likelihood pairs within a relative 2**-30 of each other.
    """
    values, inverse = np.unique(x, return_inverse=True)
    return np.fromiter(map(math.log, values.tolist()), np.float64, len(values))[inverse].reshape(x.shape)


class _SparseRanker(Ranker):
    """Shared machinery: per-term scoring over tf and document length.

    Each model is built as ``cls(index, params)`` and reads its fields of
    the :class:`RankerParams` ``self.params``; any other ``params`` is a
    ValueError. Each model writes its formula twice, in the same operation order.
    ``score`` scores one document: it checks the docid and takes the
    length part of the formula once, then adds one term at a time, each
    read in one lookup of its index record: tf, idf and cf. ``_term_block``
    scores a (terms x columns) tf matrix with one length per column, each
    term's idf or cf taken once; it serves ``term_rows`` (so the fidelity
    rows), ``score_masked`` and ``score_tokens``. Both add term contributions
    left to right from 0.0, a term that does not count adding 0.0, so a
    query's rows summed in query-term order give ``score`` to the bit,
    and a query with no terms scores 0.0. A language model's
    ``_term_block`` is the log of its ``_likelihood_block``; a preference
    matrix compares the likelihoods instead and takes logs only where two
    of them lie within a relative 2**-30 of each other.
    """

    def __init__(self, index: PositionalIndex, params: RankerParams = RankerParams()):
        if not isinstance(params, RankerParams):
            raise ValueError(f"params must be a RankerParams, got {params!r}")
        self.index = index
        self.params = params

    def _term_block(self, terms: Sequence[str], tf: np.ndarray, dl: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def score_tokens(self, query: Query, tokens: Sequence[str]) -> float:
        return float(self.score_masked(query, tokens, np.ones((1, len(tokens)), dtype=bool))[0])

    def score_masked(self, query: Query, tokens: Sequence[str], kept) -> np.ndarray:
        kept = np.asarray(kept, dtype=bool)
        if kept.ndim != 2 or kept.shape[1] != len(tokens):
            raise ValueError(f"kept must be a (variants x {len(tokens)}) matrix, got shape {kept.shape}")
        tokens = np.array(tokens, dtype=str)
        tf = np.array([kept[:, tokens == term].sum(axis=1) for term in query.terms], dtype=np.int64)
        block = self._term_block(query.terms, tf.reshape(len(query.terms), len(kept)), kept.sum(axis=1))
        total = np.zeros(len(kept))
        for row in block:
            total += row
        return total

    def term_rows(self, terms: Sequence[str], docids: Sequence[str]) -> np.ndarray:
        return self._term_block(terms, *self.index.tf_block(terms, docids))


class BM25Ranker(_SparseRanker):
    name = "bm25"

    def score(self, query: Query, docid: str) -> float:
        index = self.index
        dl = index.doc_length(docid)      # raises UnknownDocumentError for an unknown docid
        avgdl = index.avgdl
        params = self.params
        k1, b = params.k1, params.b
        k1_norm = k1 * (1.0 - b + b * (dl / avgdl) if avgdl > 0 else 1.0)
        records = index._terms
        total = 0.0
        for t in query.terms:
            term = records.get(t, _UNSEEN)
            tf = len(term.postings.get(docid, ()))
            total += term.idf * tf * (k1 + 1.0) / (tf + k1_norm) if tf else 0.0
        return total

    def _term_block(self, terms: Sequence[str], tf: np.ndarray, dl: np.ndarray) -> np.ndarray:
        idf = np.array([self.index.idf(t) for t in terms])
        avgdl = self.index.avgdl
        k1, b = self.params.k1, self.params.b
        norm = 1.0 - b + b * (dl / avgdl) if avgdl > 0 else 1.0
        return np.divide(idf[:, None] * tf * (k1 + 1.0), tf + k1 * norm,
                         out=np.zeros(tf.shape), where=tf > 0)


class _LMRanker(_SparseRanker):
    """A query log-likelihood model: each term adds the log of its smoothed p(t|d).

    ``_likelihood_block`` writes the formula's argument, p(t|d) of each
    (term, column) cell, and is 1.0 for a term the collection lacks, so
    that term adds +0.0. ``_term_block`` is its ``_exact_log``. A
    preference matrix compares the likelihoods themselves and takes the
    log only at near ties (see ``listwise.build_preference_matrix``).
    """

    def _likelihood_block(self, terms: Sequence[str], tf: np.ndarray, dl: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _term_block(self, terms: Sequence[str], tf: np.ndarray, dl: np.ndarray) -> np.ndarray:
        return _exact_log(self._likelihood_block(terms, tf, dl))


class LMJMRanker(_LMRanker):
    """Query log-likelihood with Jelinek-Mercer smoothing.

    Terms never seen in the collection are skipped.
    """

    name = "lmjm"

    def score(self, query: Query, docid: str) -> float:
        index = self.index
        dl = index.doc_length(docid)      # raises UnknownDocumentError for an unknown docid
        lam, n = self.params.jm_lambda, index.total_tokens
        records = index._terms
        total = 0.0
        for t in query.terms:
            term = records.get(t, _UNSEEN)
            cf = term.cf
            p_doc = len(term.postings.get(docid, ())) / dl if cf and dl > 0 else 0.0
            total += math.log((1.0 - lam) * p_doc + lam * (cf / n)) if cf else 0.0
        return total

    def _likelihood_block(self, terms: Sequence[str], tf: np.ndarray, dl: np.ndarray) -> np.ndarray:
        cf = np.array([self.index.cf(t) for t in terms], dtype=np.int64)
        seen = cf > 0
        lam, tf, p_coll = self.params.jm_lambda, tf[seen], cf[seen, None] / self.index.total_tokens
        p_doc = np.divide(tf, dl, out=np.zeros(tf.shape), where=dl > 0)
        out = np.ones((len(terms), len(dl)))
        out[seen] = (1.0 - lam) * p_doc + lam * p_coll
        return out


class LMDirRanker(_LMRanker):
    """Query log-likelihood with Dirichlet smoothing."""

    name = "lmdir"

    def score(self, query: Query, docid: str) -> float:
        index = self.index
        dl = index.doc_length(docid)      # raises UnknownDocumentError for an unknown docid
        mu, n = self.params.dirichlet_mu, index.total_tokens
        dl_mu = dl + mu
        records = index._terms
        total = 0.0
        for t in query.terms:
            term = records.get(t, _UNSEEN)
            cf = term.cf
            total += math.log((len(term.postings.get(docid, ())) + mu * (cf / n)) / dl_mu) if cf else 0.0
        return total

    def _likelihood_block(self, terms: Sequence[str], tf: np.ndarray, dl: np.ndarray) -> np.ndarray:
        cf = np.array([self.index.cf(t) for t in terms], dtype=np.int64)
        seen = cf > 0
        mu, p_coll = self.params.dirichlet_mu, cf[seen, None] / self.index.total_tokens
        out = np.ones((len(terms), len(dl)))
        out[seen] = (tf[seen] + mu * p_coll) / (dl + mu)
        return out


_SPARSE_RANKERS = {cls.name: cls for cls in (BM25Ranker, LMJMRanker, LMDirRanker)}
SIMPLE_RANKERS = tuple(_SPARSE_RANKERS)


def make_ranker(index: PositionalIndex, name: str, params: RankerParams = RankerParams()) -> Ranker:
    """The sparse ranker whose ``name`` is given, built over index from params."""
    if name not in SIMPLE_RANKERS:
        raise ValueError(f"unknown ranker {name!r}; valid: {', '.join(SIMPLE_RANKERS)}")
    return _SPARSE_RANKERS[name](index, params)


class LinearScorer(Ranker):
    """Query-independent scorer: sum of coefficient * tf over fixed terms.

    Useful as a transparent stand-in for an opaque model whose true term
    contributions are known, e.g. in fidelity experiments.
    """

    name = "linear"

    def __init__(self, index: PositionalIndex, coefficients: dict):
        self.index = index
        self.coefficients = dict(coefficients)
        for term, c in self.coefficients.items():
            _check_number(f"coefficient of {term!r}", c, "(-inf, inf)")

    def score(self, query: Query, docid: str) -> float:
        return self.score_tokens(query, self.index.doc_tokens(docid))

    def score_tokens(self, query: Query, tokens: Sequence[str]) -> float:
        counts = Counter(tokens)
        return float(left_sum(c * counts[t] for t, c in self.coefficients.items()))


class HiddenIntentRanker(Ranker):
    """Black box built from a base ranker plus hidden weighted terms.

    Scores as if the query were expanded with the hidden terms: base score
    plus each hidden term's weighted single-term score. The hidden terms
    are not observable through the Ranker interface.
    """

    name = "hidden_intent"

    def __init__(self, base: Ranker, hidden_terms: Sequence[tuple[str, float]]):
        for term, weight in hidden_terms:
            _check_number(f"weight of hidden term {term!r}", weight, "(0, inf)")
        self._base = base
        self._hidden = tuple((Query.from_terms("", [term]), weight) for term, weight in hidden_terms)

    def _with_hidden(self, base_score, query: Query, *doc):
        """``base_score(query, *doc)`` plus each hidden term's weighted ``base_score``: a float or an array."""
        total = base_score(query, *doc)
        for hidden, weight in self._hidden:
            total = total + weight * base_score(hidden, *doc)
        return total

    def score(self, query: Query, docid: str) -> float:
        return self._with_hidden(self._base.score, query, docid)

    def score_tokens(self, query: Query, tokens: Sequence[str]) -> float:
        return self._with_hidden(self._base.score_tokens, query, tokens)

    def score_masked(self, query: Query, tokens: Sequence[str], kept) -> np.ndarray:
        return self._with_hidden(self._base.score_masked, query, tokens, kept)


def rank(index: PositionalIndex, ranker: Ranker, query: Query,
         pool: Optional[Iterable[str]] = None, depth: int = 1000) -> RankedList:
    """Score candidates and return the ranked list.

    With a pool, exactly the pool is scored, and a docid named twice
    raises ValueError; otherwise candidates are ``index.matching_docs``
    of the query terms, the docids holding any of them. Either way they
    are scored in ascending docid order, one ``score`` call each, and a
    stable argsort orders them by score descending, so ties break by
    ascending docid. A NaN score raises ValueError. An empty candidate set
    produces an empty list.
    """
    _check_number("depth", depth, DEPTH_DOMAIN, int)
    if pool is None:
        candidates = index.matching_docs(query.terms)
    else:
        candidates = sorted(_check_unique("pool", list(pool)))
    scores = list(map(ranker.score, itertools.repeat(query), candidates))
    return RankedList(query.qid, _by_score(query.qid, candidates, scores, depth), ranker.name)


# -- run-file and topics I/O ----------------------------------------------


def load_from_res(path: str) -> dict:
    """Parse a TREC run file into {qid: RankedList}.

    Lines are ``qid Q0 docid rank score tag`` separated by whitespace.
    Malformed lines, non-finite scores, duplicate (qid, docid) pairs, rank
    gaps and a qid whose lines carry different tags are rejected with the
    offending line number where available.
    """
    raw: dict[str, list[RunEntry]] = {}
    tags: dict[str, str] = {}
    seen: set[tuple[str, str]] = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 whitespace-separated columns, got {len(fields)}")
            qid, _q0, docid, rank_s, score_s, tag = fields
            try:
                rank_v = int(rank_s)
                score_v = float(score_s)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad rank or score field") from exc
            if not math.isfinite(score_v):
                raise ValueError(f"{path}:{lineno}: score must be finite, got {score_s!r}")
            if (qid, docid) in seen:
                raise ValueError(f"{path}:{lineno}: duplicate (qid, docid) pair ({qid}, {docid})")
            seen.add((qid, docid))
            if tags.setdefault(qid, tag) != tag:
                raise ValueError(f"{path}:{lineno}: qid {qid} has tag {tag!r}, but an earlier line has {tags[qid]!r}")
            raw.setdefault(qid, []).append(RunEntry(docid, rank_v, score_v))
    runs: dict[str, RankedList] = {}
    for qid, entries in raw.items():
        runs[qid] = RankedList.from_entries(qid, entries, tag=tags[qid])
    return runs


def save_to_res(runs: dict, path: str) -> None:
    """Write runs in canonical TREC form: qids sorted, entries by rank.

    A qid, docid, tag or score that ``load_from_res`` could not read back
    raises ``ValueError`` before the file is opened.
    """
    for qid, ranked in runs.items():
        _check_id("qid", qid)
        _check_id("tag", ranked.tag)
        for entry in ranked.entries:
            _check_id("docid", entry.docid)
            if not math.isfinite(entry.score):
                raise ValueError(f"qid {qid!r} docid {entry.docid!r}: score must be finite, got {entry.score!r}")
    with open(path, "w", encoding="utf-8") as f:
        for qid in sorted(runs):
            ranked = runs[qid]
            for entry in ranked.entries:
                f.write(f"{qid} Q0 {entry.docid} {entry.rank} {entry.score!r} {ranked.tag}\n")


def load_topics(path: str) -> dict:
    """Read a tab-separated topics file: qid<TAB>query text, qids without whitespace."""
    topics: dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: expected qid<TAB>query text")
            qid, text = line.split("\t", 1)
            _check_id("qid", qid, f"{path}:{lineno}: ")
            if qid in topics:
                raise ValueError(f"{path}:{lineno}: duplicate qid {qid!r}")
            topics[qid] = text
    return topics
