"""Pairwise explanations: retrieval axioms over a document pair.

Every axiom maps (query, doc_i, doc_j) to a ternary preference: +1 when
doc_i should rank higher, -1 for doc_j, 0 for no preference, and is
antisymmetric by construction. The axioms use relaxed preconditions with
a fixed slack of 10% for length and term-frequency comparability, since
the strict textbook forms almost never fire on real document pairs.

The proximity family works on analyzed-token positions (stopwords were
removed before positions were assigned), which shifts raw distance
magnitudes; PROX2 to PROX5 are implementation-specific formalizations of
named heuristics and are documented inline.

Each axiom compares the ``DocStats`` of the two documents. They are kept
in a bounded memo per index, so the axioms, aggregates and details
tables of one pair (and of later calls) read each document once.
"""

from __future__ import annotations

import itertools
import json
import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Optional, Sequence

from .index import PositionalIndex, _check_number, left_sum
from .rankers import Query

COMPARABILITY_SLACK = 0.1
MEMO_CAPACITY = 256         # DocStats kept per index; the oldest is evicted first

_INF = math.inf


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def _comparable(a: float, b: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= COMPARABILITY_SLACK * max(a, b)


def pair_average_distance(positions_a: Sequence[int], positions_b: Sequence[int]) -> float:
    """Mean absolute position difference over all occurrence pairs."""
    total = sum(abs(pa - pb) for pa in positions_a for pb in positions_b)
    return total / (len(positions_a) * len(positions_b))


class DocStats:
    """What the axioms read of one document, for the distinct query terms.

    ``dl``, each term's positions and tf, the matched terms (in query
    order), ``sum_tf`` and each term's idf are read on construction, which
    raises ``UnknownDocumentError`` for an unknown docid. Everything else
    is computed on first read and kept. Distances are differences of
    analyzed-token positions.
    """

    def __init__(self, index: PositionalIndex, terms: tuple[str, ...], docid: str):
        self.terms = terms
        self.dl = index.doc_length(docid)
        self.positions = {t: index.positions(t, docid) for t in terms}
        self.tf = {t: len(p) for t, p in self.positions.items()}
        self.matched = [t for t in terms if self.tf[t]]
        self.sum_tf = sum(self.tf.values())
        self._idf = [index.idf(t) for t in terms]

    @cached_property
    def tdc_weight(self) -> float:
        """``tf * idf`` summed over the query terms, left to right."""
        return left_sum(self.tf[t] * idf for t, idf in zip(self.terms, self._idf))

    @cached_property
    def pair_averages(self) -> dict:
        """``pair_average_distance`` of each unordered pair of distinct matched terms."""
        return {(ta, tb): pair_average_distance(self.positions[ta], self.positions[tb])
                for ta, tb in itertools.combinations(self.matched, 2)}

    @cached_property
    def total_avg_dist(self) -> float:
        """PROX1: the mean of the pair averages; infinity without a matched pair."""
        pairs = self.pair_averages
        return left_sum(pairs.values()) / len(pairs) if pairs else _INF

    @cached_property
    def _events(self) -> list[tuple[int, str]]:
        """(position, term) of every matched occurrence, sorted by position."""
        return sorted((p, t) for t in self.matched for p in self.positions[t])

    @cached_property
    def cover_window(self) -> float:
        """PROX2: length of the smallest position window touching every matched term.

        Sliding-window sweep over the sorted occurrences; infinity when no
        term matches.
        """
        events = self._events
        need = len(self.matched)
        counts = dict.fromkeys(self.matched, 0)
        covered = 0
        best = _INF
        left = 0
        for pos_r, term_r in events:
            counts[term_r] += 1
            if counts[term_r] == 1:
                covered += 1
            while covered == need:
                best = min(best, pos_r - events[left][0] + 1)
                term_l = events[left][1]
                counts[term_l] -= 1
                if counts[term_l] == 0:
                    covered -= 1
                left += 1
        return best

    @cached_property
    def phrase_position(self) -> float:
        """PROX3: the earliest position where the query terms occur contiguously, in order."""
        if not self.terms:
            return _INF
        position_sets = [set(self.positions[t]) for t in self.terms]
        for start in self.positions[self.terms[0]]:
            if all(start + offset in positions for offset, positions in enumerate(position_sets)):
                return start
        return _INF

    @cached_property
    def nearest_other(self) -> tuple[float, float]:
        """PROX4's and PROX5's distances; both infinity below two matched terms.

        PROX4's is the smallest distance between occurrences of two matched
        terms; PROX5's the mean, over the matched occurrences, of the distance
        to the nearest occurrence of another matched term. A position holds
        one token, so the sorted occurrences fall into runs of one term, and
        that nearest occurrence is the last of the run before or the first of
        the run after.
        """
        if len(self.matched) < 2:
            return _INF, _INF
        runs = [[p for p, _ in run] for _, run in itertools.groupby(self._events, key=itemgetter(1))]
        total = 0
        for k, run in enumerate(runs):
            before = runs[k - 1][-1] if k else -_INF
            after = runs[k + 1][0] if k + 1 < len(runs) else _INF
            total += sum(min(p - before, after - p) for p in run)
        return min(b[0] - a[-1] for a, b in zip(runs, runs[1:])), total / len(self._events)


_memos: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _doc_stats(index: PositionalIndex, terms: tuple[str, ...], docid: str) -> DocStats:
    """The memoized ``DocStats`` of docid for terms.

    Each index has its own memo of at most ``MEMO_CAPACITY`` entries, keyed
    by (terms, docid) and evicted oldest first; it is freed with the
    index. This is safe because an index does not change after
    construction. An unknown docid raises and stores nothing. The memo
    takes no lock: the library is single-threaded, as its random number
    generator is.
    """
    key = (terms, docid)
    memo = _memos.get(index)
    if memo is not None and key in memo:
        return memo[key]
    stats = DocStats(index, terms, docid)
    if memo is None:
        memo = _memos[index] = {}
    elif len(memo) >= MEMO_CAPACITY:
        del memo[next(iter(memo))]
    memo[key] = stats
    return stats


def _views(index: PositionalIndex, query: Query, di: str, dj: str) -> tuple[DocStats, DocStats]:
    terms = tuple(dict.fromkeys(query.terms))       # distinct, in first-occurrence order
    return _doc_stats(index, terms, di), _doc_stats(index, terms, dj)


def _prefer_smaller(a: float, b: float) -> int:
    if a == b:
        return 0
    return 1 if a < b else -1


def _prefer_larger(a: float, b: float) -> int:
    return _prefer_smaller(b, a)


# -- term-frequency and length axioms --------------------------------------


def _tfc1(si: DocStats, sj: DocStats) -> int:
    if not _comparable(si.dl, sj.dl):
        return 0
    return _prefer_larger(si.sum_tf, sj.sum_tf)


def _tfc3(si: DocStats, sj: DocStats) -> int:
    if not _comparable(si.dl, sj.dl) or si.sum_tf != sj.sum_tf:
        return 0
    return _prefer_larger(len(si.matched), len(sj.matched))


def _tdc(si: DocStats, sj: DocStats) -> int:
    if not _comparable(si.dl, sj.dl):
        return 0
    return _prefer_larger(si.tdc_weight, sj.tdc_weight)


def _lnc1(si: DocStats, sj: DocStats) -> int:
    if si.tf != sj.tf:
        return 0
    return _prefer_smaller(si.dl, sj.dl)


def _tf_lnc_condition(sa: DocStats, sb: DocStats) -> bool:
    diffs = [sa.tf[t] - sb.tf[t] for t in sa.terms]
    if any(d < 0 for d in diffs) or not any(d > 0 for d in diffs):
        return False
    return sa.dl <= sb.dl + sum(diffs)


def _tf_lnc(si: DocStats, sj: DocStats) -> int:
    if _tf_lnc_condition(si, sj):
        return 1
    if _tf_lnc_condition(sj, si):
        return -1
    return 0


def _lb1_condition(sa: DocStats, sb: DocStats) -> bool:
    if not (set(sb.matched) < set(sa.matched)):
        return False
    return all(_comparable(sa.tf[t], sb.tf[t]) for t in sb.matched)


def _lb1(si: DocStats, sj: DocStats) -> int:
    if _lb1_condition(si, sj):
        return 1
    if _lb1_condition(sj, si):
        return -1
    return 0


def _and(si: DocStats, sj: DocStats) -> int:
    n = len(si.terms)
    if not n:
        return 0
    return _prefer_larger(1 if len(si.matched) == n else 0, 1 if len(sj.matched) == n else 0)


# -- proximity axioms -------------------------------------------------------


def _prox1(si: DocStats, sj: DocStats) -> int:
    return _prefer_smaller(si.total_avg_dist, sj.total_avg_dist)


def _prox2(si: DocStats, sj: DocStats) -> int:
    # Documents matching more query terms win outright; among equals the
    # smaller covering window wins.
    by_matched = _prefer_larger(len(si.matched), len(sj.matched))
    if by_matched != 0:
        return by_matched
    return _prefer_smaller(si.cover_window, sj.cover_window)


def _prox3(si: DocStats, sj: DocStats) -> int:
    return _prefer_smaller(si.phrase_position, sj.phrase_position)


def _prox4(si: DocStats, sj: DocStats) -> int:
    return _prefer_smaller(si.nearest_other[0], sj.nearest_other[0])


def _prox5(si: DocStats, sj: DocStats) -> int:
    return _prefer_smaller(si.nearest_other[1], sj.nearest_other[1])


AXIOMS = {
    "TFC1": _tfc1,
    "TFC3": _tfc3,
    "TDC": _tdc,
    "LNC1": _lnc1,
    "TF_LNC": _tf_lnc,
    "LB1": _lb1,
    "PROX1": _prox1,
    "PROX2": _prox2,
    "PROX3": _prox3,
    "PROX4": _prox4,
    "PROX5": _prox5,
    "AND": _and,
}

AXIOM_NAMES = tuple(AXIOMS)


def axiom_preference(axiom_name: str, index: PositionalIndex, query: Query,
                     di: str, dj: str) -> int:
    """Ternary preference of one named axiom for a document pair."""
    fn = AXIOMS.get(axiom_name)
    if fn is None:
        raise ValueError(f"unknown axiom {axiom_name!r}; valid: {', '.join(AXIOM_NAMES)}")
    return fn(*_views(index, query, di, dj))


# -- explain_details --------------------------------------------------------

DETAILED_AXIOMS = ("PROX1", "PROX2", "PROX3", "PROX4", "PROX5", "TFC1", "TDC")


@dataclass
class DetailsTable:
    """Diagnostic breakdown behind a pairwise preference.

    For the proximity axioms the table lists per-term frequencies, the
    average distance of each matched term pair in both documents, the
    pair counts, and the per-document mean of those averages
    (total_avg_dist). A column with no matched pair has total None, which
    compares as infinitely distant.
    """

    axiom: str
    query_terms: list[str]
    doc_ids: tuple[str, str]
    tf_rows: list[tuple[str, int, int]]
    pair_rows: list[tuple[tuple[str, str], Optional[float], Optional[float]]]
    num_pairs: tuple[int, int]
    total_avg_dist: tuple[Optional[float], Optional[float]]
    preference: int

    @classmethod
    def build(cls, axiom: str, query_terms: Sequence[str], doc_ids: tuple[str, str],
              tf_rows: Sequence[tuple[str, int, int]],
              pair_rows: Sequence[tuple[tuple[str, str], Optional[float], Optional[float]]],
              preference: Optional[int] = None) -> "DetailsTable":
        """Aggregate pair averages into totals and, for PROX1, the preference.

        total_avg_dist per column is the arithmetic mean of that column's
        listed per-pair averages; PROX1 prefers the smaller total.
        """
        left = [a for _, a, _ in pair_rows if a is not None]
        right = [b for _, _, b in pair_rows if b is not None]
        num_pairs = (len(left), len(right))
        totals = (
            left_sum(left) / len(left) if left else None,
            left_sum(right) / len(right) if right else None,
        )
        if preference is None:
            if axiom != "PROX1":
                raise ValueError(f"preference must be supplied for axiom {axiom!r}")
            ti = totals[0] if totals[0] is not None else _INF
            tj = totals[1] if totals[1] is not None else _INF
            preference = _prefer_smaller(ti, tj)
        return cls(
            axiom=axiom,
            query_terms=list(query_terms),
            doc_ids=doc_ids,
            tf_rows=list(tf_rows),
            pair_rows=list(pair_rows),
            num_pairs=num_pairs,
            total_avg_dist=totals,
            preference=preference,
        )


def explain_details(axiom_name: str, index: PositionalIndex, query: Query,
                    di: str, dj: str) -> DetailsTable:
    """Detailed view of a preference for the axioms that have one."""
    if axiom_name not in DETAILED_AXIOMS:
        raise ValueError(f"axiom {axiom_name!r} has no detailed view; valid: {', '.join(DETAILED_AXIOMS)}")
    si, sj = _views(index, query, di, dj)
    terms = si.terms
    tf_rows = [(t, si.tf[t], sj.tf[t]) for t in terms]
    pair_rows = []
    if axiom_name.startswith("PROX"):
        for pair in itertools.combinations(terms, 2):
            left, right = si.pair_averages.get(pair), sj.pair_averages.get(pair)
            if left is not None or right is not None:
                pair_rows.append((pair, left, right))
    preference = None if axiom_name == "PROX1" else AXIOMS[axiom_name](si, sj)
    return DetailsTable.build(axiom_name, terms, (di, dj), tf_rows, pair_rows, preference=preference)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def details_rows(table: DetailsTable) -> list[tuple[str, str, str]]:
    rows = [("docid", table.doc_ids[0], table.doc_ids[1])]
    for term, a, b in table.tf_rows:
        rows.append((f"tf({term})", _fmt(a), _fmt(b)))
    for (ta, tb), a, b in table.pair_rows:
        rows.append((f"avg_dist({ta}, {tb})", _fmt(a), _fmt(b)))
    if table.axiom.startswith("PROX"):
        rows.append(("num_pairs", _fmt(table.num_pairs[0]), _fmt(table.num_pairs[1])))
        rows.append((
            "total_avg_dist",
            _fmt(table.total_avg_dist[0]),
            _fmt(table.total_avg_dist[1]),
        ))
    return rows


def render_details(table: DetailsTable, fmt: str = "text") -> str:
    """Aligned plain-text table or its JSON form."""
    rows = details_rows(table)
    if fmt == "json":
        return json.dumps(
            {
                "axiom": table.axiom,
                "rows": [{"label": l, "d1": a, "d2": b} for l, a, b in rows],
                "preference": table.preference,
            },
            separators=(",", ":"),
        )
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}; valid: text, json")
    header = f"Query: {' '.join(table.query_terms)}  [axiom: {table.axiom}]"
    label_w = max(len(r[0]) for r in rows)
    col_w = max(max(len(r[1]), len(r[2])) for r in rows)
    lines = [header]
    for label, a, b in rows:
        lines.append(f"{label:<{label_w}}  {a:>{col_w}}  {b:>{col_w}}")
    lines.append(f"{'preference':<{label_w}}  {table.preference:+d}")
    return "\n".join(lines)


# -- aggregation ------------------------------------------------------------

AGGREGATION_MODES = ("weighted_sum_sign", "majority")


@dataclass(frozen=True)
class AggregatedAxiom:
    children: tuple          # (axiom name, weight) pairs
    mode: str = "weighted_sum_sign"

    def __post_init__(self):
        if not self.children:
            raise ValueError("aggregate needs at least one child axiom")
        if self.mode not in AGGREGATION_MODES:
            raise ValueError(f"unknown mode {self.mode!r}; valid: {', '.join(AGGREGATION_MODES)}")
        for name, weight in self.children:
            if name not in AXIOMS:
                raise ValueError(f"unknown axiom {name!r}; valid: {', '.join(AXIOM_NAMES)}")
            label = f"weight for {name!r}"
            if isinstance(weight, float) and not math.isfinite(weight):
                raise ValueError(f"{label} must be finite")
            _check_number(label, weight, "(-inf, inf)")


def aggregate_preference(agg: AggregatedAxiom, index: PositionalIndex, query: Query,
                         di: str, dj: str) -> int:
    """Combine child preferences: sign of weighted sum, or simple majority."""
    si, sj = _views(index, query, di, dj)
    prefs = [(AXIOMS[name](si, sj), weight) for name, weight in agg.children]
    if agg.mode == "weighted_sum_sign":
        return _sign(left_sum(p * w for p, w in prefs))
    plus = sum(1 for p, _ in prefs if p == 1)
    minus = sum(1 for p, _ in prefs if p == -1)
    return _sign(plus - minus)
