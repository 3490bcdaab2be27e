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
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .index import PositionalIndex, left_sum
from .rankers import Query

COMPARABILITY_SLACK = 0.1

_INF = math.inf


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def _comparable(a: float, b: float, slack: float = COMPARABILITY_SLACK) -> bool:
    if a == b:
        return True
    return abs(a - b) <= slack * max(a, b)


class _DocView:
    """Per-document view of the query-relevant statistics."""

    def __init__(self, index: PositionalIndex, query_terms: Sequence[str], docid: str):
        self.docid = docid
        self.dl = index.doc_length(docid)
        self.tf = {t: index.tf(t, docid) for t in query_terms}
        self.positions = {t: index.positions(t, docid) for t in query_terms}
        self.matched = [t for t in query_terms if self.tf[t] > 0]

    @property
    def sum_tf(self) -> int:
        return sum(self.tf.values())


def _query_terms(query: Query) -> list[str]:
    """Distinct query terms in first-occurrence order."""
    seen: list[str] = []
    for t in query.terms:
        if t not in seen:
            seen.append(t)
    return seen


def _views(index: PositionalIndex, query: Query, di: str, dj: str):
    terms = _query_terms(query)
    return terms, _DocView(index, terms, di), _DocView(index, terms, dj)


def _prefer_smaller(a: float, b: float) -> int:
    if a == b:
        return 0
    return 1 if a < b else -1


def _prefer_larger(a: float, b: float) -> int:
    return _prefer_smaller(b, a)


# -- term-frequency and length axioms --------------------------------------


def _tfc1(index, terms, vi, vj) -> int:
    if not _comparable(vi.dl, vj.dl):
        return 0
    return _prefer_larger(vi.sum_tf, vj.sum_tf)


def _tfc3(index, terms, vi, vj) -> int:
    if not _comparable(vi.dl, vj.dl) or vi.sum_tf != vj.sum_tf:
        return 0
    return _prefer_larger(len(vi.matched), len(vj.matched))


def _tdc(index, terms, vi, vj) -> int:
    if not _comparable(vi.dl, vj.dl):
        return 0
    wi = left_sum(vi.tf[t] * index.idf(t) for t in terms)
    wj = left_sum(vj.tf[t] * index.idf(t) for t in terms)
    return _prefer_larger(wi, wj)


def _lnc1(index, terms, vi, vj) -> int:
    if any(vi.tf[t] != vj.tf[t] for t in terms):
        return 0
    return _prefer_smaller(vi.dl, vj.dl)


def _tf_lnc_condition(terms, va, vb) -> bool:
    diffs = [va.tf[t] - vb.tf[t] for t in terms]
    if any(d < 0 for d in diffs) or not any(d > 0 for d in diffs):
        return False
    return va.dl <= vb.dl + sum(diffs)


def _tf_lnc(index, terms, vi, vj) -> int:
    if _tf_lnc_condition(terms, vi, vj):
        return 1
    if _tf_lnc_condition(terms, vj, vi):
        return -1
    return 0


def _lb1_condition(va, vb) -> bool:
    sa, sb = set(va.matched), set(vb.matched)
    if not (sb < sa):
        return False
    return all(_comparable(va.tf[t], vb.tf[t]) for t in sb)


def _lb1(index, terms, vi, vj) -> int:
    if _lb1_condition(vi, vj):
        return 1
    if _lb1_condition(vj, vi):
        return -1
    return 0


def _and(index, terms, vi, vj) -> int:
    if not terms:
        return 0
    return _prefer_larger(
        1 if len(vi.matched) == len(terms) else 0,
        1 if len(vj.matched) == len(terms) else 0,
    )


# -- proximity axioms -------------------------------------------------------


def pair_average_distance(positions_a: Sequence[int], positions_b: Sequence[int]) -> float:
    """Mean absolute position difference over all occurrence pairs."""
    total = sum(abs(pa - pb) for pa in positions_a for pb in positions_b)
    return total / (len(positions_a) * len(positions_b))


def _matched_pair_averages(terms, view) -> dict:
    """avg distance per unordered pair of distinct matched query terms."""
    out = {}
    for ta, tb in itertools.combinations(view.matched, 2):
        out[(ta, tb)] = pair_average_distance(view.positions[ta], view.positions[tb])
    return out


def _total_avg_dist(view, terms) -> float:
    pairs = _matched_pair_averages(terms, view)
    if not pairs:
        return _INF
    return left_sum(pairs.values()) / len(pairs)


def _prox1(index, terms, vi, vj) -> int:
    return _prefer_smaller(_total_avg_dist(vi, terms), _total_avg_dist(vj, terms))


def min_cover_window(positions_by_term: dict) -> float:
    """Length of the smallest position window touching every term.

    Sliding-window sweep over the merged, sorted (position, term) stream.
    Infinity when the mapping is empty.
    """
    if not positions_by_term:
        return _INF
    events = sorted(
        (pos, term) for term, positions in positions_by_term.items() for pos in positions
    )
    need = len(positions_by_term)
    counts: dict[str, int] = {}
    covered = 0
    best = _INF
    left = 0
    for right, (pos_r, term_r) in enumerate(events):
        counts[term_r] = counts.get(term_r, 0) + 1
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


def _prox2(index, terms, vi, vj) -> int:
    # Documents matching more query terms win outright; among equals the
    # smaller covering window wins.
    by_matched = _prefer_larger(len(vi.matched), len(vj.matched))
    if by_matched != 0:
        return by_matched
    wi = min_cover_window({t: vi.positions[t] for t in vi.matched})
    wj = min_cover_window({t: vj.positions[t] for t in vj.matched})
    return _prefer_smaller(wi, wj)


def first_phrase_position(view, query_terms: Sequence[str]) -> float:
    """Earliest position where the full query occurs contiguously."""
    if not query_terms:
        return _INF
    position_sets = [set(view.positions.get(term, [])) for term in query_terms]
    for start in view.positions.get(query_terms[0], []):
        if all(start + offset in positions for offset, positions in enumerate(position_sets)):
            return start
    return _INF


def _prox3(index, terms, vi, vj) -> int:
    return _prefer_smaller(first_phrase_position(vi, terms), first_phrase_position(vj, terms))


def _min_pair_distance(view) -> float:
    best = _INF
    for ta, tb in itertools.combinations(view.matched, 2):
        for pa in view.positions[ta]:
            for pb in view.positions[tb]:
                best = min(best, abs(pa - pb))
    return best


def _prox4(index, terms, vi, vj) -> int:
    return _prefer_smaller(_min_pair_distance(vi), _min_pair_distance(vj))


def _mean_nearest_other(view) -> float:
    if len(view.matched) < 2:
        return _INF
    distances = []
    for term in view.matched:
        others = [p for t in view.matched if t != term for p in view.positions[t]]
        for pos in view.positions[term]:
            distances.append(min(abs(pos - o) for o in others))
    return sum(distances) / len(distances)


def _prox5(index, terms, vi, vj) -> int:
    return _prefer_smaller(_mean_nearest_other(vi), _mean_nearest_other(vj))


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
    terms, vi, vj = _views(index, query, di, dj)
    return fn(index, terms, vi, vj)


def all_preferences(index: PositionalIndex, query: Query, di: str, dj: str) -> dict:
    """Evaluate every axiom once, sharing the per-document views."""
    terms, vi, vj = _views(index, query, di, dj)
    return {name: fn(index, terms, vi, vj) for name, fn in AXIOMS.items()}


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
    terms, vi, vj = _views(index, query, di, dj)
    tf_rows = [(t, vi.tf[t], vj.tf[t]) for t in terms]
    pair_rows = []
    if axiom_name.startswith("PROX"):
        avg_i = _matched_pair_averages(terms, vi)
        avg_j = _matched_pair_averages(terms, vj)
        for ta, tb in itertools.combinations(terms, 2):
            left = avg_i.get((ta, tb))
            right = avg_j.get((ta, tb))
            if left is None and right is None:
                continue
            pair_rows.append(((ta, tb), left, right))
    preference = AXIOMS[axiom_name](index, terms, vi, vj)
    if axiom_name == "PROX1":
        return DetailsTable.build(axiom_name, terms, (di, dj), tf_rows, pair_rows)
    return DetailsTable.build(axiom_name, terms, (di, dj), tf_rows, pair_rows,
                              preference=preference)


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
            if not math.isfinite(weight):
                raise ValueError(f"weight for {name!r} must be finite")


def aggregate_preference(agg: AggregatedAxiom, index: PositionalIndex, query: Query,
                         di: str, dj: str) -> int:
    """Combine child preferences: sign of weighted sum, or simple majority."""
    terms, vi, vj = _views(index, query, di, dj)
    prefs = [(AXIOMS[name](index, terms, vi, vj), weight) for name, weight in agg.children]
    if agg.mode == "weighted_sum_sign":
        return _sign(left_sum(p * w for p, w in prefs))
    plus = sum(1 for p, _ in prefs if p == 1)
    minus = sum(1 for p, _ in prefs if p == -1)
    return _sign(plus - minus)
