"""Fidelity and explanation-quality measures.

Rank similarity: extrapolated rank-biased overlap, Kendall tau, Spearman
rho (both computed on the intersection of the two lists) and Jaccard
overlap of top-k sets. Pointwise explanation quality: correctness
against a language-model expansion ground truth, and consistency across
explanations from different samplers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .index import PositionalIndex, _check_number, left_sum
from .rankers import DEPTH_DOMAIN, LMJMRanker, Query, RankedList

RBO_P_DOMAIN = "(0, 1)"      # of rbo's persistence p


def _check_distinct(name: str, items: Sequence) -> None:
    if len(items) == 0:
        raise ValueError(f"{name} is empty")
    if len(set(items)) != len(items):
        raise ValueError(f"{name} contains duplicate items")


def rbo(list_a: Sequence, list_b: Sequence, p: float) -> float:
    """Extrapolated rank-biased overlap at depth min(len(a), len(b)).

    (1 - p) * sum_{d=1..k} p^(d-1) * A_d  +  A_k * p^k, where A_d is the
    overlap fraction of the two depth-d prefixes. Identical lists give 1
    up to rounding; top-heavy for small p. The rounded sum can exceed 1 by
    an ulp (identical depth-200 lists at p = 0.9, for example), so the
    result is capped at 1.
    """
    _check_number("p", p, RBO_P_DOMAIN)
    _check_distinct("list_a", list_a)
    _check_distinct("list_b", list_b)
    k = min(len(list_a), len(list_b))
    seen_a: set = set()
    seen_b: set = set()
    overlap = 0          # |prefix_a & prefix_b| at the current depth
    total = 0.0
    agreement = 0.0
    for d in range(1, k + 1):
        a, b = list_a[d - 1], list_b[d - 1]
        overlap += 1 if a == b else (a in seen_b) + (b in seen_a)
        seen_a.add(a)
        seen_b.add(b)
        agreement = overlap / d
        total += (p ** (d - 1)) * agreement
    return min(1.0, (1.0 - p) * total + agreement * (p ** k))


def _intersection_orders(list_a: Sequence, list_b: Sequence):
    common = set(list_a) & set(list_b)
    if len(common) < 2:
        raise ValueError("undefined correlation: intersection has fewer than 2 items")
    order_a = [x for x in list_a if x in common]
    order_b = [x for x in list_b if x in common]
    return order_a, order_b


def kendall_tau(list_a: Sequence, list_b: Sequence) -> float:
    """(concordant - discordant) / (n choose 2) over the shared items."""
    order_a, order_b = _intersection_orders(list_a, list_b)
    pos_b = {x: i for i, x in enumerate(order_b)}
    n = len(order_a)
    concordant = discordant = 0
    for i, j in itertools.combinations(range(n), 2):
        if pos_b[order_a[i]] < pos_b[order_a[j]]:
            concordant += 1
        else:
            discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


def spearman_rho(list_a: Sequence, list_b: Sequence) -> float:
    """1 - 6 * sum d_i^2 / (n (n^2 - 1)) over intersection ranks."""
    order_a, order_b = _intersection_orders(list_a, list_b)
    pos_b = {x: i for i, x in enumerate(order_b)}
    n = len(order_a)
    d_sq = sum((i - pos_b[x]) ** 2 for i, x in enumerate(order_a))
    return 1.0 - 6.0 * d_sq / (n * (n * n - 1))


def jaccard_at_k(list_a: Sequence, list_b: Sequence, k: int) -> float:
    """Jaccard similarity of the two top-k sets (full list when shorter)."""
    _check_number("k", k, DEPTH_DOMAIN, int)
    top_a = set(list_a[:k])
    top_b = set(list_b[:k])
    union = top_a | top_b
    if not union:
        return 1.0
    return len(top_a & top_b) / len(union)


# -- pointwise ground truth and quality --------------------------------------


@dataclass
class GroundTruthTerms:
    """Term weights normalized to sum 1."""

    weights: dict

    def __post_init__(self):
        if not self.weights:
            raise ValueError("ground truth must be non-empty")
        for term, w in self.weights.items():
            _check_number(f"ground-truth weight of {term!r}", w, "[0, inf)")
        total = left_sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"ground-truth weights must sum to 1, got {total}")

    @property
    def terms(self) -> list[str]:
        return sorted(self.weights, key=lambda t: (-self.weights[t], t))


def lmjm_ground_truth(index: PositionalIndex, query: Query, ranked: RankedList,
                      top_n: int = 10, lam: float = 0.1, n_terms: int = 10) -> GroundTruthTerms:
    """Relevance-model style expansion weights from the top documents.

    weight(t) is proportional to the sum over the top_n documents of
    P_jm(t | D) * exp(query log-likelihood of D); a term absent from all
    top documents keeps only its smoothed collection floor, so it never
    outweighs an equally frequent present term. The top n_terms are kept
    and renormalized.

    The masses are one vector over term ordinals, and each top document's
    ``term_probability`` vector times its weight is added to it in rank
    order from 0.0, so each term's mass is the same float as its running
    scalar sum.
    """
    _check_number("top_n", top_n, f"[1, {len(ranked)}]", int)
    _check_number("n_terms", n_terms, "[1, inf)", int)
    ranker = LMJMRanker(index, lam=lam)
    cf, tokens = index.cf_by_ordinal, index.total_tokens
    p_coll = cf / tokens if tokens else np.zeros(len(cf))
    mass = np.zeros(len(p_coll))
    for docid in ranked.docids[:top_n]:
        doc_weight = math.exp(ranker.score(query, docid))
        ordinals, counts = index.doc_terms(docid)
        p_doc = np.zeros(len(p_coll))
        p_doc[ordinals] = counts / index.doc_length(docid)
        mass += ((1.0 - lam) * p_doc + lam * p_coll) * doc_weight
    pool = np.flatnonzero(mass > 0.0)
    if not len(pool):
        raise ValueError("degenerate ground truth: all term weights are zero")
    kept = pool[np.lexsort((pool, -mass[pool]))[:n_terms]]
    weights = mass[kept].tolist()
    total = left_sum(weights)
    return GroundTruthTerms(weights={t: w / total for t, w in zip(index.terms_at(kept.tolist()), weights)})


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mean_x = left_sum(xs) / n
    mean_y = left_sum(ys) / n
    var_x = left_sum((x - mean_x) ** 2 for x in xs)
    var_y = left_sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0.0 or var_y == 0.0:
        raise ValueError("correlation undefined: zero variance")
    cov = left_sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return cov / math.sqrt(var_x * var_y)


def pointwise_correctness(expl, truth: GroundTruthTerms) -> float:
    """Pearson correlation of explanation and ground-truth weights.

    Computed over the union of both term sets with missing entries as 0,
    so it is invariant to positive rescaling of either side.
    """
    expl_weights = dict(expl.entries)
    if not expl_weights:
        raise ValueError("explanation is empty")
    union = sorted(set(expl_weights) | set(truth.weights))
    xs = [expl_weights.get(t, 0.0) for t in union]
    ys = [truth.weights.get(t, 0.0) for t in union]
    return _pearson(xs, ys)


def pointwise_consistency(explanations: Sequence, m: int = 10) -> float:
    """Mean pairwise Jaccard similarity of the top-m term sets."""
    if len(explanations) < 2:
        raise ValueError("consistency needs at least 2 explanations")
    top_sets = []
    for expl in explanations:
        terms = expl.top_terms(m)
        if not terms:
            raise ValueError("explanation with no terms")
        top_sets.append(set(terms))
    values = []
    for sa, sb in itertools.combinations(top_sets, 2):
        values.append(len(sa & sb) / len(sa | sb))
    return left_sum(values) / len(values)
