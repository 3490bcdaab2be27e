"""Listwise explainers: expanded query plus simple ranker.

An explanation of a ranked list L is a pair (expansion terms, simple
model): re-ranking L's documents with the query expanded by those terms
should approximate L itself. Two families are implemented. The
preference-pair family (multiplex over several simple rankers, or a
single-ranker intent variant) greedily maximizes the number of sampled
document pairs whose order the selected terms preserve. The direct
family (greedy and best-first search) climbs rank-biased overlap between
the re-ranked list and L. All tie-breaking is by higher candidate
salience and then lexicographic term order, so outputs are deterministic
given the seed.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import rankers as _rankers
from .evaluation import RBO_P_DOMAIN, _rbo_rows
from .index import PositionalIndex, _check_number, _check_rank, _check_unique, check_fields
from .rankers import (
    Query,
    RankedList,
    Ranker,
    RankerParams,
    SIMPLE_RANKERS,
    _LMRanker,
    _SparseRanker,
    make_ranker,
    rank,
)
from .rng import XorShift64Star

PAIR_STRATEGIES = ("uniform", "rank_gap_weighted", "top_vs_rest")
LISTWISE_METHODS = ("multiplex", "intent_exs", "greedy", "bfs")


@dataclass(frozen=True)
class CandidateTerm:
    term: str
    salience: float


@dataclass(frozen=True)
class PreferencePair:
    upper: str
    lower: str
    rank_gap: int


@dataclass
class ListwiseExplanation:
    qid: str
    method: str
    terms: list[str]
    fidelity: dict
    evaluations_used: int
    diagnostics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "qid": self.qid,
            "method": self.method,
            "terms": list(self.terms),
            "fidelity": dict(self.fidelity),
            "evaluations": self.evaluations_used,
        }


def generate_candidates(index: PositionalIndex, ranked: RankedList,
                        top_k: int = 10, n_candidates: int = 100) -> list[CandidateTerm]:
    """Candidate expansion terms from the top of a ranked list.

    The pool is the union of distinct terms of the top_k documents
    (query terms are not excluded); salience(t) sums tf(t, D) * idf(t)
    over those documents. Sorted by salience descending, ties
    lexicographic, truncated to n_candidates.

    Salience accumulates over term ordinals: one ``doc_terms`` call gives
    the top documents' (ordinal, tf) runs in rank order, and ``np.add.at``
    adds each ``tf * idf[u]`` into ``acc[u]`` in that order, from 0.0, as
    one running sum per term would. Every pool term has idf > 0, so the
    pool is the nonzero entries of acc, ordered by
    ``np.lexsort((ordinal, -acc))``; ordinal order is the terms' ``str``
    order.
    """
    if len(ranked) == 0:
        raise ValueError("cannot generate candidates from an empty ranked list")
    _check_rank("top_k", top_k, len(ranked))
    _check_number("n_candidates", n_candidates, "[1, inf)", int)
    idf = index.idf_by_ordinal
    acc = np.zeros(len(idf))
    ordinals, counts = index.doc_terms(*(entry.docid for entry in ranked.entries[:top_k]))
    np.add.at(acc, ordinals, counts * idf[ordinals])
    pool = np.flatnonzero(acc)
    salience = acc[pool]
    top = np.lexsort((pool, -salience))[:n_candidates]
    return [CandidateTerm(term, value)
            for term, value in zip(index.terms_at(pool[top].tolist()), salience[top].tolist())]


def sample_pairs(ranked: RankedList, strategy: str, count: int,
                 rng: XorShift64Star) -> list[PreferencePair]:
    """Sample preference pairs (upper ranked above lower) from a list.

    uniform: without replacement from all ordered pairs.
    rank_gap_weighted: without replacement, probability proportional to
    the rank gap.
    top_vs_rest: uniform without replacement with the upper document
    restricted to the first ceil(n/10) ranks.

    The pool is never built. Pairs (i, j), i < j, of list positions are
    laid out row-major as a triangle whose row i holds gaps 1..n-1-i;
    top_vs_rest keeps its first ceil(n/10) rows. Each pair owns a run of
    consecutive slots, one per unit of weight: one slot, or for
    rank_gap_weighted as many as its gap. So row i starts at slot
    C(n, 2) - C(n - i, 2), or C(n + 1, 3) - C(n + 1 - i, 3) for gap
    weights. The row starts are tabled once, exact in int64, and a draw
    picks the k-th slot not yet drawn, with k = randbelow(remaining) or
    int(random() * remaining), and takes the pair that owns it: the row
    by bisection on the table, the gap by arithmetic. That is sampling
    from the full pool and removing each drawn pair: the same RNG calls
    give the same pairs in the same order. Cost: O(n) for the table, then
    O(count**2 + count * log n) Python for every strategy. Docids must be
    unique (ValueError otherwise).
    """
    n = len(ranked)
    if n < 2:
        raise ValueError("no pairs: ranked list has fewer than 2 entries")
    _check_number("count", count, "[1, inf)", int)
    if strategy not in PAIR_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; valid: {', '.join(PAIR_STRATEGIES)}")
    docs = ranked.docids
    _check_unique("ranked list", docs)
    # With unique docids, "upper is in the top ceil(n/10)" is "row < cutoff".
    n_rows = math.ceil(n / 10) if strategy == "top_vs_rest" else n - 1
    weighted = int(strategy == "rank_gap_weighted")
    remaining = math.comb(n + weighted, 2 + weighted) - math.comb(n + weighted - n_rows, 2 + weighted)
    # The weighted draw takes the first remaining pair whose prefix weight
    # exceeds random() * remaining. Prefix weights are integers, so that is
    # the pair holding slot floor(random() * remaining), exactly while they
    # stay below 2**53; then random() * remaining < remaining too.
    if weighted and remaining >= 2 ** 53:
        raise ValueError(f"ranked list of {n} entries is too long for rank_gap_weighted")
    # Row i holds n - 1 - i pairs, of weights 1 .. n - 1 - i when gap weighted.
    # Any list that fits in memory keeps the unweighted starts far below 2**63.
    pairs_in_row = np.arange(n - 1, n - 1 - n_rows, -1, dtype=np.int64)
    widths = pairs_in_row * (pairs_in_row + 1) // 2 if weighted else pairs_in_row
    row_start = np.concatenate(([0], np.cumsum(widths))).tolist()
    drawn: list[tuple[int, int]] = []     # sorted (first slot, width) runs already drawn
    chosen = []
    while remaining and len(chosen) < count:
        # The k-th slot not yet drawn, as removing the drawn pairs from the pool would give.
        k = int(rng.random() * remaining) if weighted else rng.randbelow(remaining)
        for first, width in drawn:
            if first > k:
                break
            k += width
        i = bisect.bisect_right(row_start, k, 0, n_rows) - 1
        start = row_start[i]
        if weighted:
            # Gap g owns in-row slots g(g-1)/2 .. g(g+1)/2 - 1.
            gap = (math.isqrt(8 * (k - start) + 1) + 1) // 2
            first, width = start + gap * (gap - 1) // 2, gap
        else:
            gap, first, width = k - start + 1, k, 1
        bisect.insort(drawn, (first, width))
        remaining -= width
        chosen.append(PreferencePair(docs[i], docs[i + gap], rank_gap=gap))
    return chosen


@dataclass
class PreferenceMatrix:
    """Term x pair agreement entries per simple ranker.

    entries[r][t][p] = sign(score_r(term t as query, upper) -
    score_r(term t as query, lower)) for pair p. The consensus layer is
    the sign of the per-ranker sum.
    """

    rankers: list[str]
    candidates: list[CandidateTerm]
    pairs: list[PreferencePair]
    entries: np.ndarray          # int8, shape (n_rankers, n_terms, n_pairs)

    def __post_init__(self):
        for name, items in (("ranker", self.rankers), ("candidate", self.candidates), ("pair", self.pairs)):
            if not items:
                raise ValueError(f"a preference matrix needs at least one {name}")
        shape = (len(self.rankers), len(self.candidates), len(self.pairs))
        entries = self.entries
        if not isinstance(entries, np.ndarray) or entries.dtype != np.int8 or entries.shape != shape:
            raise ValueError(f"preference matrix entries must be an int8 array of shape {shape}")
        if np.any((entries < -1) | (entries > 1)):
            raise ValueError("preference matrix entries must be -1, 0 or 1")

    @property
    def terms(self) -> list[str]:
        return [c.term for c in self.candidates]

    @property
    def consensus(self) -> np.ndarray:
        return np.sign(self.entries.sum(axis=0)).astype(np.int8)


def build_preference_matrix(index: PositionalIndex, simple_rankers: Sequence[Ranker],
                            candidates: Sequence[CandidateTerm],
                            pairs: Sequence[PreferencePair]) -> PreferenceMatrix:
    """Score every candidate as a one-term query against both pair sides.

    Each ranker scores one (candidates x docids) block; the sparse rankers
    on ``index`` share one tf matrix, gathered once. The blocks are
    stacked, each pair's upper and lower columns gathered once for all of
    them, and one pass writes the signs into ``entries``: 1 where upper
    scores higher, -1 where lower does, 0 on a tie or a NaN score.

    A language model's block is its likelihoods, the arguments of its
    logs, since ln is monotone. Only cells whose two likelihoods differ by
    no more than a relative 2**-30 take the sign of their ``_exact_log``
    difference instead, which is 0 where the logs round equal. Outside
    that band the logs differ by more than 2**-30 while one ulp of a log
    is at most 2**-42 (|ln x| < 745 for every positive double), so they
    order as their arguments do and the entries are those of the scores.
    """
    matrix = PreferenceMatrix(
        rankers=[r.name for r in simple_rankers],
        candidates=list(candidates),
        pairs=list(pairs),
        entries=np.zeros((len(simple_rankers), len(candidates), len(pairs)), dtype=np.int8),
    )
    terms = matrix.terms
    docids = sorted({p.upper for p in pairs} | {p.lower for p in pairs})
    column = dict(zip(docids, range(len(docids))))
    tf_block = None
    blocks = []
    likelihood_rows = []
    for r, ranker in enumerate(simple_rankers):
        if isinstance(ranker, _SparseRanker) and ranker.index is index:
            if tf_block is None:
                tf_block = index.tf_block(terms, docids)
            if isinstance(ranker, _LMRanker):
                likelihood_rows.append(r)
                blocks.append(ranker._likelihood_block(terms, *tf_block))
            else:
                blocks.append(ranker._term_block(terms, *tf_block))
        else:
            blocks.append(ranker.term_rows(terms, docids))
    scores = np.stack(blocks)                                   # (rankers, candidates, docids)
    upper = scores[..., [column[p.upper] for p in pairs]]
    lower = scores[..., [column[p.lower] for p in pairs]]
    np.subtract(upper > lower, upper < lower, out=matrix.entries, dtype=np.int8)
    for r in likelihood_rows:
        _sign_near_ties(upper[r], lower[r], matrix.entries[r])
    return matrix


_NEAR_TIE = 2.0 ** -30       # the relative gap within which two likelihoods' logs decide their sign


def _sign_near_ties(upper: np.ndarray, lower: np.ndarray, signs: np.ndarray) -> None:
    """Write into ``signs`` the sign of the ``_exact_log`` difference of each near tie.

    A near tie is a cell of the positive ``upper`` and ``lower`` that
    differ by no more than ``_NEAR_TIE`` times the larger of the two.
    """
    near = (upper != lower) & (np.abs(upper - lower) <= _NEAR_TIE * np.maximum(upper, lower))
    if near.any():
        log_upper, log_lower = _rankers._exact_log(upper[near]), _rankers._exact_log(lower[near])
        signs[near] = np.subtract(log_upper > log_lower, log_upper < log_lower, dtype=np.int8)


def _candidate_order(candidates: Sequence[CandidateTerm]) -> list[int]:
    """Candidate indices by higher salience, then term; stable, so duplicates keep index order."""
    return sorted(range(len(candidates)), key=lambda t: (-candidates[t].salience, candidates[t].term))


def _coverage_explanation(method: str, layer: np.ndarray, matrix: PreferenceMatrix,
                          m_min: int, m_max: int, qid: str = "") -> ListwiseExplanation:
    """Greedy maximum coverage over one entry layer (terms x pairs).

    A pair is covered by a term set S when the sum of S's entries for it
    is positive. Each round scores every unselected term at once and adds
    the one of maximal marginal coverage (ties by higher salience, then
    term); selection stops at m_max, or once the best gain is no longer
    positive after m_min terms were reached.
    """
    ListwiseParams(m_min=m_min, m_max=m_max)  # checks both against their declarations
    cands = matrix.candidates
    left = _candidate_order(cands)      # argmax takes the first maximum
    running = np.zeros(layer.shape[1], dtype=np.int64)
    selected: list[int] = []
    evaluations = 0
    while left and len(selected) < m_max:
        gains = np.count_nonzero(running + layer[left] > 0, axis=1) - np.count_nonzero(running > 0)
        best = int(np.argmax(gains))
        evaluations += len(left)
        if gains[best] <= 0 and len(selected) >= m_min:
            break
        selected.append(left.pop(best))
        running += layer[selected[-1]]
    coverage = int(np.count_nonzero(running > 0)) / layer.shape[1]
    return ListwiseExplanation(
        qid=qid,
        method=method,
        terms=[cands[t].term for t in selected],
        fidelity={"coverage": coverage},
        evaluations_used=evaluations,
        diagnostics={"zero_coverage": True} if coverage == 0.0 else {},
    )


def intent_exs_explain(matrix: PreferenceMatrix, m_min: int = 3, m_max: int = 10,
                       qid: str = "") -> ListwiseExplanation:
    """Single-ranker coverage explainer."""
    if len(matrix.rankers) != 1:
        raise ValueError(f"intent_exs needs a single-ranker matrix, got {len(matrix.rankers)}")
    return _coverage_explanation("intent_exs", matrix.entries[0], matrix, m_min, m_max, qid=qid)


def multiplex_explain(matrix: PreferenceMatrix, m_min: int = 3, m_max: int = 10,
                      qid: str = "") -> ListwiseExplanation:
    """Coverage explainer over the consensus of all rankers in the matrix."""
    return _coverage_explanation("multiplex", matrix.consensus, matrix, m_min, m_max, qid=qid)


# -- direct rank-approximation search ---------------------------------------


class FidelityEvaluator:
    """RBO between the explained list and the simple ranker's re-ranking.

    Re-ranking is confined to the documents of the explained list, so
    fidelity is well defined even when only a run file is available. The
    list must be non-empty with unique docids (ValueError at construction).

    ``batch(term_sets)`` gives the fidelity of each expansion-term set;
    calling the evaluator is ``batch`` of one set. Each set's re-ranked
    order is found first, and then one ``_rbo_rows`` call scores the whole
    batch, equal by ``==`` to ``rbo`` of ``rank``'s re-ranking. Only the
    order depends on the ranker:

    - a sparse ranker's score is a sum of per-term rows, so the evaluator
      keeps one row per term over the pool (docids sorted). Totals add each
      set's rows in expanded-query order from +0.0, a set shorter than the
      widest padded with row 0, all +0.0, which keeps the bits of a sum
      from +0.0, so they are ``rank``'s scores to the bit. A stable argsort
      of the negated totals gives ``rank``'s order, score descending and
      ties by docid. The rows of the query terms and of ``terms``, the
      expansion terms the caller will try, are scored in one ``term_rows``
      block up front, and any other term's with the first batch that needs
      it;
    - any other ranker re-ranks the pool through ``rank``, one set at a time.
    """

    def __init__(self, index: PositionalIndex, sm: Ranker, query: Query,
                 ranked: RankedList, p: float = 0.9, terms: Sequence[str] = ()):
        _check_number("p", p, RBO_P_DOMAIN)
        if len(ranked) == 0:
            raise ValueError("cannot evaluate fidelity against an empty ranked list")
        _check_unique("ranked list", ranked.docids)
        self.index = index
        self.sm = sm
        self.query = query
        self.ranked = ranked
        self.p = p
        self.calls = 0
        self._docids = sorted(ranked.docids)
        self._position = {d: i for i, d in enumerate(ranked.docids)}
        self._target = np.array([self._position[d] for d in self._docids])  # explained position per pool slot
        self._rows: Optional[np.ndarray] = None
        if isinstance(sm, _SparseRanker):
            terms = list(dict.fromkeys([*query.terms, *terms]))
            self._slot = dict(zip(terms, range(1, len(terms) + 1)))
            # Reads every docid's length, so an unknown docid raises, as in rank.
            self._rows = np.vstack([np.zeros((1, len(self._docids))), sm.term_rows(terms, self._docids)])

    def _expand(self, terms: Sequence[str]) -> list[str]:
        return [*self.query.terms, *(t for t in dict.fromkeys(terms) if t not in self.query.terms)]

    def _totals(self, expanded: Sequence[Sequence[str]]) -> np.ndarray:
        """(sets x pool) scores: each set's term rows added in order from +0.0."""
        missing = list(dict.fromkeys(t for e in expanded for t in e if t not in self._slot))
        if missing:
            self._slot.update(zip(missing, range(len(self._rows), len(self._rows) + len(missing))))
            self._rows = np.vstack([self._rows, self.sm.term_rows(missing, self._docids)])
        width = max(len(e) for e in expanded)
        slots = np.array([[self._slot[t] for t in e] + [0] * (width - len(e)) for e in expanded], dtype=np.intp)
        block = self._rows[slots]                                # (sets, columns, pool)
        totals = np.zeros((len(expanded), len(self._docids)))
        for c in range(width):
            totals += block[:, c]
        return totals

    def _reranked(self, expanded: Sequence[Sequence[str]]) -> np.ndarray:
        """(sets x pool) explained positions of each set's re-ranking, in re-ranked order."""
        if self._rows is not None:
            order = np.argsort(-self._totals(expanded), axis=1, kind="stable")  # rank's (-score, docid) order
            return self._target[order]
        reranked = (rank(self.index, self.sm, Query.from_terms(self.query.qid, e), pool=self._docids,
                         depth=len(self.ranked)) for e in expanded)
        return np.array([[self._position[d] for d in r.docids] for r in reranked])

    def batch(self, term_sets: Sequence[Sequence[str]]) -> list[float]:
        """``self(terms)`` for each of term_sets."""
        expanded = [self._expand(terms) for terms in term_sets]
        self.calls += len(expanded)
        if not expanded:
            return []
        return _rbo_rows(self._reranked(expanded), self.p)

    def __call__(self, terms: Sequence[str]) -> float:
        return self.batch([terms])[0]


def _search_terms(candidates: Sequence[CandidateTerm], ranked: RankedList, m_max: int) -> list[str]:
    """Check the arguments greedy and bfs share; the candidates' terms in ``_candidate_order``."""
    _check_number("m_max", m_max, "[0, inf)", int)
    if not candidates:
        raise ValueError("no candidate terms to search over")
    if len(ranked) < 2:
        raise ValueError("ranked list must have at least 2 entries")
    return [candidates[t].term for t in _candidate_order(candidates)]


def _better(fidelity: float, size: int, terms: tuple, best: tuple) -> bool:
    """Canonical preference: fidelity, then fewer terms, then lexicographic."""
    return (-fidelity, size, terms) < (-best[0], best[1], best[2])


def greedy_explain(index: PositionalIndex, sm: Ranker, query: Query, ranked: RankedList,
                   candidates: Sequence[CandidateTerm], m_max: int = 10,
                   p: float = 0.9) -> ListwiseExplanation:
    """Hill-climb expansion terms by fidelity gain.

    Starts from the bare query; each round adds the candidate with the
    largest fidelity improvement and stops when no candidate improves
    fidelity or m_max terms were taken.
    """
    order = _search_terms(candidates, ranked, m_max)
    evaluate = FidelityEvaluator(index, sm, query, ranked, p, order)
    selected: list[str] = []
    current = evaluate(selected)
    while len(selected) < m_max:
        # Each round scores every unselected candidate as one batch; the first best wins.
        left = [term for term in order if term not in selected]
        fids = evaluate.batch([selected + [term] for term in left])
        best = max(range(len(left)), key=fids.__getitem__, default=None)
        if best is None or fids[best] <= current:
            break
        selected.append(left[best])
        current = fids[best]
    return ListwiseExplanation(
        qid=query.qid,
        method="greedy",
        terms=selected,
        fidelity={f"rbo@{p:g}": current},
        evaluations_used=evaluate.calls,
    )


def bfs_explain(index: PositionalIndex, sm: Ranker, query: Query, ranked: RankedList,
                candidates: Sequence[CandidateTerm], m_max: int = 10, p: float = 0.9,
                eval_budget: int = 1000) -> ListwiseExplanation:
    """Best-first search over expansion-term sets keyed by fidelity.

    The frontier is a max-priority queue of term sets; popping the best
    set expands it by every unused candidate. Sets are deduplicated via
    their sorted form and each candidate-set fidelity computation costs
    one unit of budget (the empty-set baseline is free). Returns the best
    set seen, preferring, on fidelity ties, fewer terms and then
    lexicographic order.
    """
    order = _search_terms(candidates, ranked, m_max)
    ListwiseParams(eval_budget=eval_budget)  # checks it against its declaration
    evaluate = FidelityEvaluator(index, sm, query, ranked, p, order)
    baseline = evaluate(())
    evaluate.calls = 0
    best = (baseline, 0, ())
    frontier: list[tuple[float, int, tuple]] = []
    heapq.heappush(frontier, (-baseline, 0, ()))
    seen = {()}
    exhausted = False
    while frontier and not exhausted:
        _, size, terms = heapq.heappop(frontier)
        if size >= m_max:
            continue
        # The popped set's new children, cut at the remaining budget, score as one batch.
        children = []
        for term in order:
            if term in terms:
                continue
            child = tuple(sorted(terms + (term,)))
            if child in seen:
                continue
            seen.add(child)
            if evaluate.calls + len(children) >= eval_budget:
                exhausted = True
                break
            children.append(child)
        for child, fid in zip(children, evaluate.batch(children)):
            if _better(fid, len(child), child, best):
                best = (fid, len(child), child)
            heapq.heappush(frontier, (-fid, len(child), child))
    return ListwiseExplanation(
        qid=query.qid,
        method="bfs",
        terms=list(best[2]),
        fidelity={f"rbo@{p:g}": best[0]},
        evaluations_used=evaluate.calls,
        diagnostics={"baseline": baseline},
    )


# -- matrix rendering --------------------------------------------------------

_GLYPHS = {-1: "-", 0: "0", 1: "+"}


def _pair_label(pair: PreferencePair) -> str:
    return f"{pair.upper}>{pair.lower}"


def show_matrix(matrix: PreferenceMatrix, pair_filter: Optional[PreferencePair] = None) -> str:
    """Plain-text terms x pairs grid of {-, 0, +} entries.

    Multi-ranker matrices show the consensus layer. A pair filter
    restricts the grid to that single column.
    """
    layer = matrix.entries[0] if len(matrix.rankers) == 1 else matrix.consensus
    pairs = matrix.pairs
    if pair_filter is not None:
        if pair_filter not in matrix.pairs:
            raise ValueError(f"pair {_pair_label(pair_filter)} not in matrix")
        keep = matrix.pairs.index(pair_filter)
        layer = layer[:, [keep]]
        pairs = [pair_filter]
    term_w = max(len(t) for t in matrix.terms)
    headers = [_pair_label(p) for p in pairs]
    widths = [max(len(h), 1) for h in headers]
    lines = [" " * term_w + "  " + "  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for t, term in enumerate(matrix.terms):
        cells = [_GLYPHS[int(layer[t, p])].rjust(widths[p]) for p in range(len(pairs))]
        lines.append(f"{term:<{term_w}}  " + "  ".join(cells))
    return "\n".join(lines)


# -- batch driver ------------------------------------------------------------


@dataclass(frozen=True)
class ListwiseParams:
    method: str = field(default="multiplex", metadata={"choices": LISTWISE_METHODS})
    simple_rankers: tuple = ("bm25", "lmjm", "lmdir")
    top_k: int = field(default=10, metadata={"in": "[1, inf)"})
    n_candidates: int = field(default=100, metadata={"in": "[1, inf)"})
    n_pairs: int = field(default=50, metadata={"in": "[1, inf)"})
    pair_strategy: str = field(default="uniform", metadata={"choices": PAIR_STRATEGIES})
    m_min: int = field(default=3, metadata={"in": "[0, inf)"})
    m_max: int = field(default=10, metadata={"in": "[0, inf)"})
    p: float = field(default=0.9, metadata={"in": RBO_P_DOMAIN})
    eval_budget: int = field(default=1000, metadata={"in": "[1, inf)"})
    seed: int = field(default=0, metadata={"in": "(-inf, inf)"})
    ranker_params: RankerParams = RankerParams()

    def __post_init__(self):
        check_fields(self)
        if type(self.simple_rankers) is not tuple or not self.simple_rankers:
            raise ValueError("simple_rankers must be a tuple naming at least one ranker")
        for name in self.simple_rankers:
            if name not in SIMPLE_RANKERS:
                raise ValueError(f"unknown simple ranker {name!r}; valid: {', '.join(SIMPLE_RANKERS)}")
        if self.m_min > self.m_max:
            raise ValueError(f"need m_min <= m_max, got m_min={self.m_min}, m_max={self.m_max}")


def explain_listwise(index: PositionalIndex, query: Query, ranked: RankedList,
                     params: ListwiseParams = ListwiseParams()) -> ListwiseExplanation:
    """Run one configured listwise explainer on one ranked list.

    The coverage-family explainers additionally report the rank-biased
    overlap of re-ranking with their selected terms (same fidelity the
    direct family optimizes), computed with the first simple ranker.
    """
    top_k = min(params.top_k, len(ranked))
    candidates = generate_candidates(index, ranked, top_k=top_k,
                                     n_candidates=params.n_candidates)
    rankers = [make_ranker(index, name, params.ranker_params)
               for name in params.simple_rankers]
    sm = rankers[0]
    if params.method in ("greedy", "bfs"):
        if params.method == "greedy":
            return greedy_explain(index, sm, query, ranked, candidates,
                                  m_max=params.m_max, p=params.p)
        return bfs_explain(index, sm, query, ranked, candidates,
                           m_max=params.m_max, p=params.p,
                           eval_budget=params.eval_budget)
    rng = XorShift64Star(params.seed)
    pairs = sample_pairs(ranked, params.pair_strategy, params.n_pairs, rng)
    if params.method == "intent_exs":
        matrix = build_preference_matrix(index, [sm], candidates, pairs)
        expl = intent_exs_explain(matrix, params.m_min, params.m_max, qid=query.qid)
    else:
        matrix = build_preference_matrix(index, rankers, candidates, pairs)
        expl = multiplex_explain(matrix, params.m_min, params.m_max, qid=query.qid)
    evaluate = FidelityEvaluator(index, sm, query, ranked, params.p, expl.terms)
    expl.fidelity[f"rbo@{params.p:g}"] = evaluate(expl.terms)
    return expl


@dataclass
class BatchResult:
    explanations: dict
    errors: dict


def explain_all(index: PositionalIndex, topics: dict, runs: dict,
                params: ListwiseParams = ListwiseParams()) -> BatchResult:
    """Explain every topic's ranked list; per-query failures do not abort.

    Every topic qid must have a run; per-query explainer errors are
    captured into the error records instead of propagating.
    """
    missing = sorted(set(topics) - set(runs))
    if missing:
        raise ValueError(f"topics without runs: {', '.join(missing)}")
    explanations: dict[str, ListwiseExplanation] = {}
    errors: dict[str, str] = {}
    for qid in sorted(topics):
        query = Query.from_text(index, qid, topics[qid])
        try:
            explanations[qid] = explain_listwise(index, query, runs[qid], params)
        except Exception as exc:  # noqa: BLE001 - error records by contract
            errors[qid] = f"{type(exc).__name__}: {exc}"
    return BatchResult(explanations=explanations, errors=errors)
