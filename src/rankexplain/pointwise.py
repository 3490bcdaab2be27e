"""Pointwise explainers: local surrogate models over document perturbations.

Both explainers perturb the document, score each perturbed variant with
the ranker under scrutiny, and fit a weighted ridge surrogate on binary
term-presence features. They differ only in the regression target: the
LIRME-style explainer regresses the raw scores; the EXS-style explainer
first converts scores into one of three rank-aware targets. The signed
surrogate coefficients are the explanation.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .analysis import _check_keys, _unique_keys
from .index import PositionalIndex, _check_number, _check_unique, check_fields
from .perturb import SamplerConfig, draw_samples
from .rankers import Query, RankedList, Ranker

EXS_VARIANTS = ("topk_binary", "score_ratio", "rank_based")
RIDGE_DOMAIN = "[0, inf)"      # of the surrogate's ridge penalty


@dataclass
class ExplanationVector:
    """Ordered (term, weight) pairs, largest |weight| first, ties lexicographic."""

    entries: list[tuple[str, float]]
    qid: str = ""
    docid: str = ""
    method: str = ""
    params: dict = field(default_factory=dict)

    @classmethod
    def from_weights(cls, weights: dict, n_terms: Optional[int] = None, **meta) -> "ExplanationVector":
        ordered = sorted(weights.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
        if n_terms is not None:
            ordered = ordered[:n_terms]
        return cls(entries=ordered, **meta)

    @property
    def terms(self) -> list[str]:
        return [t for t, _ in self.entries]

    def top_terms(self, m: int) -> list[str]:
        return [t for t, _ in self.entries[:m]]

    def as_dict(self) -> dict:
        return {
            "qid": self.qid,
            "docid": self.docid,
            "method": self.method,
            "params": self.params,
            "terms": [{"term": t, "weight": w} for t, w in self.entries],
        }


@dataclass(frozen=True)
class PointwiseParams:
    sampler: SamplerConfig = SamplerConfig()
    # width ** 2 and distance ** 2 / width ** 2, distance in [0, 1], stay finite and nonzero.
    kernel_width: float = field(default=0.25, metadata={"in": "[1e-150, 1e150]"})
    ridge: float = field(default=1.0, metadata={"in": RIDGE_DOMAIN})
    n_terms: int = field(default=10, metadata={"in": "[1, inf)"})
    exs_variant: str = field(default="topk_binary", metadata={"choices": EXS_VARIANTS})
    exs_k: int = field(default=10, metadata={"in": "[1, inf)"})

    def __post_init__(self):
        check_fields(self)


@dataclass
class SurrogateFit:
    weights: dict
    intercept: float
    sample_count: int
    weighted_residual_norm: float
    solver: str = "normal_equations"


def fit_weighted_ridge(X, y, sample_weights, ridge: float,
                       feature_names: Optional[Sequence[str]] = None) -> SurrogateFit:
    """Minimize sum_i w_i (y_i - beta.x_i - b0)^2 + ridge * ||beta||^2.

    The intercept is unpenalized. Solved by normal equations; with
    ridge == 0 and a rank-deficient design, falls back to the
    minimum-norm least-squares solution and flags it in ``solver``.
    """
    X = np.ascontiguousarray(X, dtype=float)     # BLAS sums in another order for another layout
    y = np.asarray(y, dtype=float)
    w = np.asarray(sample_weights, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d matrix")
    n, d = X.shape
    if len(y) != n or len(w) != n or n < 1:
        raise ValueError("X rows, y and sample_weights must have equal positive length")
    for name, values in (("X", X), ("y", y), ("sample_weights", w)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")
    _check_number("ridge", ridge, RIDGE_DOMAIN)
    if np.any(w < 0):
        raise ValueError("sample weights must be >= 0")
    if not np.any(w > 0):
        raise ValueError("all sample weights are zero")
    if feature_names is None:
        feature_names = [str(i) for i in range(d)]
    if len(feature_names) != d:
        raise ValueError("feature_names length must match X columns")
    _check_unique("feature_names", feature_names)

    A = np.hstack([X, np.ones((n, 1))])
    G = A.T @ (w[:, None] * A)
    G += 0.0    # a GEMM of tiny negatives can underflow to -0.0; every zero the solve sees is +0.0
    G.reshape(-1)[:d * (d + 2):d + 2] += ridge  # the first d diagonal entries; the intercept's is unpenalized
    rhs = A.T @ (w * y)
    solver = "normal_equations"
    if ridge == 0.0:
        sw = np.sqrt(w)
        design = sw[:, None] * A
        rank = np.linalg.matrix_rank(design)
        if rank < d + 1:
            beta, *_ = np.linalg.lstsq(design, sw * y, rcond=None)
            solver = "minimum_norm"
        else:
            beta = np.linalg.solve(G, rhs)
    else:
        beta = np.linalg.solve(G, rhs)
    predictions = A @ beta
    residual = math.sqrt(float(np.sum(w * (y - predictions) ** 2)))
    weights = {feature_names[i]: float(beta[i]) for i in range(d)}
    return SurrogateFit(
        weights=weights,
        intercept=float(beta[d]),
        sample_count=n,
        weighted_residual_norm=residual,
        solver=solver,
    )


def _perturbation_design(index: PositionalIndex, docid: str, params: PointwiseParams):
    """Draw samples of one document and derive the surrogate design from their mask matrix.

    Returns the document's tokens, the (samples x positions) kept matrix,
    the sorted distinct terms, the presence matrix X (samples x terms) and
    each sample's kernel weight. X[s, j] is 1.0 when some position of term
    j survives in sample s: the kept columns, grouped by term, are packed
    8 samples to a byte, each term's bytes are ORed, and the result is
    unpacked to one 0.0/1.0 row per sample.
    """
    doc = index.tokenized_doc(docid)
    terms = doc.distinct_terms()
    if len(terms) < 2:
        raise ValueError(f"explanation undefined: document {docid!r} has fewer than 2 distinct terms")
    kept = draw_samples(doc, params.sampler, index=index).kept
    feature = {t: j for j, t in enumerate(terms)}
    column = np.array([feature[t] for t in doc.tokens])     # feature held at each position
    order = np.argsort(column, kind="stable")                 # positions grouped by feature
    packed = np.packbits(kept[:, order], axis=0)              # 8 samples to a byte, per position
    present = np.bitwise_or.reduceat(packed, np.searchsorted(column[order], np.arange(len(terms))), axis=1)
    X = np.unpackbits(present, axis=0, count=len(kept)).astype(float)
    distances = 1.0 - kept.sum(axis=1) / len(doc.tokens)
    kernel = np.exp(-(distances ** 2) / (params.kernel_width ** 2))
    return doc.tokens, kept, terms, X, kernel


def _explain(index: PositionalIndex, ranker: Ranker, query: Query, docid: str,
             params: PointwiseParams, method: str, target) -> ExplanationVector:
    """Fit the surrogate on target(scores of the perturbed variants)."""
    tokens, kept, terms, X, kernel = _perturbation_design(index, docid, params)
    y = target(ranker.score_masked(query, tokens, kept))
    fit = fit_weighted_ridge(X, y, kernel, params.ridge, feature_names=terms)
    return ExplanationVector.from_weights(
        fit.weights, n_terms=params.n_terms,
        qid=query.qid, docid=docid, method=method, params=asdict(params),
    )


def lirme_explain(index: PositionalIndex, ranker: Ranker, query: Query, docid: str,
                  params: PointwiseParams = PointwiseParams()) -> ExplanationVector:
    """Explain one (query, document) score with a local linear surrogate.

    Perturbed variants are scored directly through the ranker with
    collection statistics frozen at the index; sample weights follow the
    exponential kernel exp(-distance^2 / kernel_width^2).
    """
    return _explain(index, ranker, query, docid, params, "lirme", lambda scores: scores)


def exs_targets(scores: np.ndarray, base_list: RankedList, variant: str, exs_k: int) -> np.ndarray:
    """Convert raw perturbed-document scores into EXS surrogate targets.

    topk_binary: 1 when the score beats the rank-k score, else 0.
    score_ratio: 1 - (s_top - s) / |s_top|, clamped to [0, 1], where
    s_top is the base list's top score. Dividing by |s_top| keeps the
    target rising with the score under any sign convention: LM rankers
    score negative log-likelihoods, so s_top < 0 there.
    rank_based: 1 - (insertion rank of s) / exs_k, clamped to [0, 1], where
    the insertion rank counts base-list scores strictly above s.
    """
    _check_number("exs_k", exs_k, "[1, inf)", int)
    if len(base_list) < exs_k:
        raise ValueError(f"base list has {len(base_list)} entries, needs at least exs_k={exs_k}")
    if variant == "topk_binary":
        threshold = base_list.score_at(exs_k)
        return (scores > threshold).astype(float)
    if variant == "score_ratio":
        s_top = base_list.score_at(1)
        if s_top == 0:
            raise ValueError("score_ratio target undefined: top score is zero")
        return np.clip(1.0 - (s_top - scores) / abs(s_top), 0.0, 1.0)
    if variant == "rank_based":
        base_scores = np.array([e.score for e in base_list.entries])
        insertion_ranks = (base_scores > np.asarray(scores)[:, None]).sum(axis=1)
        return np.clip(1.0 - insertion_ranks / exs_k, 0.0, 1.0)
    raise ValueError(f"unknown exs_variant {variant!r}; valid: {', '.join(EXS_VARIANTS)}")


def exs_explain(index: PositionalIndex, ranker: Ranker, query: Query, docid: str,
                params: PointwiseParams, base_list: RankedList) -> ExplanationVector:
    """EXS-style explanation: rank-aware targets, then the same surrogate."""
    return _explain(index, ranker, query, docid, params, f"exs:{params.exs_variant}",
                    lambda scores: exs_targets(scores, base_list, params.exs_variant, params.exs_k))


BAR_COLUMNS = 40


def visualize_terms(expl: ExplanationVector, fmt: str = "text") -> str:
    """Render an explanation as text bars or as its JSON form.

    Text rows show the term, the signed weight, and a '#' bar scaled so
    the largest |weight| spans 40 columns.
    """
    if fmt == "json":
        return json.dumps(expl.as_dict(), separators=(",", ":"))
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}; valid: text, json")
    if not expl.entries:
        return ""
    peak = max(abs(w) for _, w in expl.entries)
    width = max(len(t) for t, _ in expl.entries)
    lines = []
    for term, weight in expl.entries:
        bar = "#" * (round(BAR_COLUMNS * abs(weight) / peak) if peak > 0 else 0)
        sign = "-" if weight < 0 else "+"
        lines.append(f"{term:<{width}}  {sign}{abs(weight):.4f}  {bar}")
    return "\n".join(lines)


def explanation_from_json(text: str) -> ExplanationVector:
    """Read the JSON of ``ExplanationVector.as_dict`` back; anything else raises ValueError."""
    data = json.loads(text, object_pairs_hook=_unique_keys)
    _check_keys("explanation", data, {"qid", "docid", "method", "params", "terms"})
    for key in ("qid", "docid", "method"):
        if type(data[key]) is not str:
            raise ValueError(f"explanation {key!r} must be a string, got {data[key]!r}")
    if type(data["params"]) is not dict or type(data["terms"]) is not list:
        raise ValueError("explanation 'params' must be a JSON object and 'terms' a list")
    entries = []
    for row in data["terms"]:
        _check_keys("explanation term", row, {"term", "weight"})
        term, weight = row["term"], row["weight"]
        if type(term) is not str:
            raise ValueError(f"explanation term must be a string, got {term!r}")
        _check_number(f"weight of {term!r}", weight, "(-inf, inf)")
        entries.append((term, weight))
    return ExplanationVector(entries=entries, qid=data["qid"], docid=data["docid"],
                             method=data["method"], params=data["params"])
