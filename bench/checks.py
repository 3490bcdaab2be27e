"""Correctness checks the benchmark applies to every op's output.

The reference formulas here are written from the model definitions and
read only raw index statistics (postings, document lengths), never a
ranker, so an optimised scoring path is checked against an independent
computation. Every check raises ``CheckFailed``; run.py counts it as
a failed op.
"""

from __future__ import annotations

import math

SCORE_TOLERANCE = 1e-9
AXIOM_VALUES = (-1, 0, 1)
# The defaults of rankexplain.RankerParams, which every workload uses.
BM25_K1, BM25_B, JM_LAMBDA, DIRICHLET_MU = 0.9, 0.4, 0.1, 1000.0


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class CollectionStats:
    """Collection statistics recomputed from the index's raw postings."""

    def __init__(self, index):
        lengths = {d: index.doc_length(d) for d in index.doc_ids()}
        self.index = index
        self.n_docs = len(lengths)
        self.avgdl = sum(lengths.values()) / self.n_docs
        self.total_tokens = sum(lengths.values())

    def df(self, term: str) -> int:
        return len(self.index.postings(term))

    def cf(self, term: str) -> int:
        return sum(len(ps) for ps in self.index.postings(term).values())

    def idf(self, term: str) -> float:
        df = self.df(term)
        if df == 0:
            return 0.0
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))


def reference_score(stats: CollectionStats, model: str, terms, tf: dict, dl: int) -> float:
    """Score of one document, given its tf per term, under a sparse model
    with the library's default parameters."""
    k1, b, lam, mu = BM25_K1, BM25_B, JM_LAMBDA, DIRICHLET_MU
    total = 0.0
    for term in terms:
        f = tf.get(term, 0)
        if model == "bm25":
            if f:
                norm = 1.0 - b + b * (dl / stats.avgdl)
                total += stats.idf(term) * f * (k1 + 1.0) / (f + k1 * norm)
            continue
        cf = stats.cf(term)
        if cf == 0:
            continue
        p_coll = cf / stats.total_tokens
        if model == "lmjm":
            total += math.log((1.0 - lam) * f / dl + lam * p_coll)
        elif model == "lmdir":
            total += math.log((f + mu * p_coll) / (dl + mu))
        else:
            raise ValueError(f"no reference formula for {model!r}")
    return total


def indexed_score(stats: CollectionStats, model: str, terms, docid: str) -> float:
    index = stats.index
    tf = {t: index.tf(t, docid) for t in terms}
    return reference_score(stats, model, terms, tf, index.doc_length(docid))


def check_ranked(ranked, depth: int, n_candidates: int) -> None:
    """Ranks 1..n, scores non-increasing, equal scores in ascending docid."""
    entries = ranked.entries
    require(len(entries) == min(depth, n_candidates),
            f"list has {len(entries)} entries, expected min({depth}, {n_candidates})")
    for i, e in enumerate(entries, start=1):
        require(e.rank == i, f"rank {e.rank} at position {i}")
        require(math.isfinite(e.score), f"non-finite score at rank {i}")
    for a, b in zip(entries, entries[1:]):
        require(a.score > b.score or (a.score == b.score and a.docid < b.docid),
                f"order broken between {a.docid} and {b.docid}")


def check_score(stats: CollectionStats, model: str, terms, docid: str, score: float) -> None:
    expected = indexed_score(stats, model, terms, docid)
    require(abs(score - expected) <= SCORE_TOLERANCE,
            f"{model} score of {docid} is {score!r}, reference {expected!r}")


def reference_rbo(a, b, p: float) -> float:
    """Extrapolated rank-biased overlap, computed prefix by prefix."""
    k = min(len(a), len(b))
    seen_a: set = set()
    seen_b: set = set()
    overlap = 0
    total = 0.0
    for d in range(1, k + 1):
        x, y = a[d - 1], b[d - 1]
        if x == y:
            overlap += 1
        else:
            overlap += (x in seen_b) + (y in seen_a)
        seen_a.add(x)
        seen_b.add(y)
        total += p ** (d - 1) * overlap / d
    return (1.0 - p) * total + overlap / k * p ** k


def check_rank_measures(values: dict, reversed_values: dict) -> None:
    """Ranges of rbo, tau, rho, jaccard, and symmetry of rbo, tau and rho."""
    require(0.0 <= values["rbo"] <= 1.0 + 1e-12, f"rbo {values['rbo']} outside [0, 1]")
    require(0.0 <= values["jaccard"] <= 1.0, f"jaccard {values['jaccard']} outside [0, 1]")
    for name in ("tau", "rho"):
        require(-1.0 <= values[name] <= 1.0, f"{name} {values[name]} outside [-1, 1]")
    for name in ("rbo", "tau", "rho"):
        require(abs(values[name] - reversed_values[name]) <= 1e-12,
                f"{name} not symmetric: {values[name]} vs {reversed_values[name]}")


def reference_candidates(stats: CollectionStats, ranked, top_k: int, n_candidates: int) -> set:
    """Terms of the top_k documents with the n_candidates largest tf*idf sums."""
    index = stats.index
    salience: dict = {}
    for docid in ranked.docids[:top_k]:
        counts: dict = {}
        for t in index.doc_tokens(docid):
            counts[t] = counts.get(t, 0) + 1
        for t, f in counts.items():
            salience[t] = salience.get(t, 0.0) + f * stats.idf(t)
    ordered = sorted(salience.items(), key=lambda kv: (-kv[1], kv[0]))
    return {t for t, _ in ordered[:n_candidates]}


def check_listwise(stats: CollectionStats, expl, query_terms, ranked, candidates: set,
                   m_max: int, p: float) -> float:
    """Terms are candidates, at most m_max, and the reported RBO recomputes.

    The re-ranking uses the BM25 reference over the explained list's own
    documents with the query expanded by the explanation's terms. Returns
    the recomputed RBO.
    """
    terms = list(expl.terms)
    require(len(terms) <= m_max, f"{len(terms)} terms exceed m_max={m_max}")
    require(len(set(terms)) == len(terms), "duplicate explanation terms")
    stray = [t for t in terms if t not in candidates]
    require(not stray, f"terms outside the candidate set: {stray}")
    expanded = list(query_terms)
    for t in terms:
        if t not in expanded:
            expanded.append(t)
    scored = [(d, indexed_score(stats, "bm25", expanded, d)) for d in ranked.docids]
    reranked = [d for d, _ in sorted(scored, key=lambda ds: (-ds[1], ds[0]))]
    expected = reference_rbo(reranked, ranked.docids, p)
    reported = expl.fidelity[f"rbo@{p:g}"]
    require(abs(reported - expected) <= SCORE_TOLERANCE,
            f"reported rbo {reported!r}, recomputed {expected!r}")
    return expected


def check_pointwise(expl, doc_terms: set, n_terms: int) -> None:
    require(0 < len(expl.entries) <= n_terms, f"{len(expl.entries)} entries, n_terms={n_terms}")
    for term, weight in expl.entries:
        require(math.isfinite(weight), f"non-finite weight for {term!r}")
        require(term in doc_terms, f"term {term!r} is not in the document")


def check_pairwise(forward: dict, backward: dict) -> None:
    """Every preference is ternary and flips sign when the pair is swapped."""
    for name, value in forward.items():
        require(value in AXIOM_VALUES, f"{name} preference {value!r} is not ternary")
        require(backward[name] == -value,
                f"{name} not antisymmetric: {value} forward, {backward[name]} backward")
