"""
Evaluating explanations
=======================

Rank-similarity measures quantify how faithfully an explanation
reproduces a ranking; correctness and consistency probe the pointwise
explainers themselves.
"""

from rankexplain import (
    BM25Ranker,
    LMDirRanker,
    PointwiseParams,
    Query,
    SamplerConfig,
    build_index,
    demo_corpus_path,
    jaccard_at_k,
    kendall_tau,
    lirme_explain,
    lmjm_ground_truth,
    pointwise_consistency,
    pointwise_correctness,
    rank,
    rbo,
    read_corpus_jsonl,
    spearman_rho,
)

index = build_index(read_corpus_jsonl(demo_corpus_path()))
query = Query.from_text(index, "1", "what is the daily life of thai people")

bm25_list = rank(index, BM25Ranker(index), query, depth=10)
lmdir_list = rank(index, LMDirRanker(index), query, depth=10)
a, b = bm25_list.docids, lmdir_list.docids
print("bm25  :", a)
print("lmdir :", b)
print(f"rbo@0.9   = {rbo(a, b, 0.9):.4f}      (top-weighted overlap)")
print(f"rbo@0.5   = {rbo(a, b, 0.5):.4f}      (even more top-heavy)")
print(f"kendall   = {kendall_tau(a, b):.4f}")
print(f"spearman  = {spearman_rho(a, b):.4f}")
print(f"jaccard@5 = {jaccard_at_k(a, b, 5):.4f}")

# Correctness: does the explanation correlate with language-model
# expansion weights from the top documents?
truth = lmjm_ground_truth(index, query, bm25_list, top_n=3, jm_lambda=0.1, n_terms=10)
print("\nexpansion ground truth:", truth.terms[:5])
expl = lirme_explain(index, BM25Ranker(index), query, "T1",
                     PointwiseParams(sampler=SamplerConfig(seed=7)))
print(f"correctness of the T1 explanation: {pointwise_correctness(expl, truth):.3f}")

# Consistency: how stable are explanations across samplers?
explanations = []
for kind in ("random", "masking", "tfidf"):
    params = PointwiseParams(sampler=SamplerConfig(kind=kind, rate=0.3, chunk=2,
                                                   n_samples=200, seed=7))
    explanations.append(lirme_explain(index, BM25Ranker(index), query, "T1", params))
print(f"consistency across samplers (top-5): "
      f"{pointwise_consistency(explanations, m=5):.3f}")
