"""Fidelity and explanation-quality measures.

Rank similarity: extrapolated rank-biased overlap, Kendall tau, Spearman
rho (both computed on the intersection of the two lists) and Jaccard
overlap of top-k sets. Pointwise explanation quality: correctness
against a language-model expansion ground truth, and consistency across
explanations from different samplers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .index import PositionalIndex, _check_number, _check_rank, _check_unique, left_sum
from .rankers import DEPTH_DOMAIN, LMJMRanker, Query, RankedList, RankerParams

RBO_P_DOMAIN = "(0, 1)"      # of rbo's persistence p


@functools.lru_cache(maxsize=16)
def _rbo_weights(p: float, k: int) -> np.ndarray:
    """Read-only p ** (d - 1) for d = 1..k by Python's ``pow`` (numpy's ``power`` can round otherwise)."""
    weights = np.array([p ** d for d in range(k)])
    weights.flags.writeable = False
    return weights


def _rbo_rows(other: np.ndarray, p: float) -> list[float]:
    """``rbo`` at depth k, the width of ``other``, of each of its rows.

    A row is one list's depth-k prefix, each item given as its 0-based
    position in the other list's depth-k prefix, or k if it is not there.

    - an item is in both depth-d prefixes from d = 1 + the larger of its
      two positions, so a cumulative bincount of those gives each overlap;
    - the terms ``p ** (d-1) * overlap_d / d`` are added left to right (a
      cumulative sum, not numpy's pairwise ``sum``);
    - the rounded sum can exceed 1 by an ulp (identical depth-200 lists at
      p = 0.9, for example), so the result is capped at 1.
    """
    rows, k = other.shape
    entry = np.maximum(np.arange(k), other) + np.arange(0, rows * (k + 1), k + 1)[:, None]
    overlap = np.bincount(entry.ravel(), minlength=rows * (k + 1)).reshape(rows, k + 1)[:, :k].cumsum(axis=1)
    agreement = overlap / np.arange(1, k + 1)
    total = np.cumsum(_rbo_weights(p, k) * agreement, axis=1)[:, -1]
    return np.minimum(1.0, (1.0 - p) * total + agreement[:, -1] * p ** k).tolist()


def rbo(list_a: Sequence, list_b: Sequence, p: float) -> float:
    """Extrapolated rank-biased overlap at depth k = min(len(a), len(b)).

    (1 - p) * sum_{d=1..k} p^(d-1) * A_d  +  A_k * p^k, where A_d is the
    overlap fraction of the two depth-d prefixes, capped at 1. Identical
    lists give 1 up to rounding; top-heavy for small p.
    """
    _check_number("p", p, RBO_P_DOMAIN)
    for name, items in (("list_a", list_a), ("list_b", list_b)):
        if len(items) == 0:
            raise ValueError(f"{name} is empty")
        _check_unique(name, items)
    k = min(len(list_a), len(list_b))
    depth_b = dict(zip(list_b[:k], range(k)))
    return _rbo_rows(np.fromiter(map(depth_b.get, list_a[:k], itertools.repeat(k)), np.intp, k)[None], p)[0]


def _shared_ranks(list_a: Sequence, list_b: Sequence) -> np.ndarray:
    """The items both lists hold, in list_a's order, each given as its 0-based rank among them in list_b."""
    common = _check_unique("list_a", list_a) & _check_unique("list_b", list_b)
    if len(common) < 2:
        raise ValueError("undefined correlation: intersection has fewer than 2 items")
    rank_b = dict(zip(filter(common.__contains__, list_b), itertools.count()))
    return np.fromiter(map(rank_b.__getitem__, filter(common.__contains__, list_a)), np.intp, len(common))


def kendall_tau(list_a: Sequence, list_b: Sequence) -> float:
    """(concordant - discordant) / (n choose 2) over the shared items."""
    ranks = _shared_ranks(list_a, list_b)
    n = len(ranks)
    pairs = n * (n - 1) // 2
    # One row per item: the later items ranked before it in list_b, an exact int count.
    discordant = sum(int(np.count_nonzero(ranks[i + 1:] < ranks[i])) for i in range(n - 1))
    return (pairs - 2 * discordant) / pairs


def spearman_rho(list_a: Sequence, list_b: Sequence) -> float:
    """1 - 6 * sum d_i^2 / (n (n^2 - 1)) over intersection ranks."""
    ranks = _shared_ranks(list_a, list_b)
    n = len(ranks)
    d = np.arange(n) - ranks
    return 1.0 - 6.0 * int(d @ d) / (n * (n * n - 1))


def jaccard_at_k(list_a: Sequence, list_b: Sequence, k: int) -> float:
    """Jaccard similarity of the two top-k sets (full list when shorter)."""
    _check_number("k", k, DEPTH_DOMAIN, int)
    _check_unique("list_a", list_a)
    _check_unique("list_b", list_b)
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
                      top_n: int = 10, jm_lambda: float = RankerParams.jm_lambda,
                      n_terms: int = 10) -> GroundTruthTerms:
    """Relevance-model style expansion weights from the top documents.

    weight(t) is proportional to the sum over the top_n documents of
    P_jm(t | D) * exp(query log-likelihood of D); each exp is taken of
    the log-likelihood minus the top_n's largest, so a long query's
    likelihoods do not all underflow to 0.0. A term absent from all
    top documents keeps only its smoothed collection floor, so it never
    outweighs an equally frequent present term. The top n_terms are kept
    and renormalized.

    The masses are one vector over term ordinals, and each top document's
    vector of mixtures ``(1 - jm_lambda) * tf / dl + jm_lambda * cf / total_tokens``
    times its weight is added to it in rank order from 0.0, so each term's
    mass is the same float as its running scalar sum.
    """
    _check_rank("top_n", top_n, len(ranked))
    _check_number("n_terms", n_terms, "[1, inf)", int)
    ranker = LMJMRanker(index, RankerParams(jm_lambda=jm_lambda))
    cf, tokens = index.cf_by_ordinal, index.total_tokens
    p_coll = cf / tokens if tokens else np.zeros(len(cf))
    mass = np.zeros(len(p_coll))
    top = ranked.docids[:top_n]
    scores = [ranker.score(query, docid) for docid in top]
    top_score = max(scores)
    for docid, score in zip(top, scores):
        doc_weight = math.exp(score - top_score)
        ordinals, counts = index.doc_terms(docid)
        p_doc = np.zeros(len(p_coll))
        p_doc[ordinals] = counts / index.doc_length(docid)
        mass += ((1.0 - jm_lambda) * p_doc + jm_lambda * p_coll) * doc_weight
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
    _check_number("m", m, "[1, inf)", int)
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
