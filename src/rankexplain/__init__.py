"""rankexplain: post-hoc explanations for ranked retrieval.

Pointwise surrogate explanations, pairwise axiom preferences, and
listwise query-expansion approximations over a built-in positional index
and sparse rankers, plus the measures to evaluate them.
"""

from .analysis import AnalyzerConfig, TokenizedDocument, tokenize
from .axioms import (
    AXIOM_NAMES,
    AggregatedAxiom,
    DetailsTable,
    aggregate_preference,
    axiom_preference,
    explain_details,
    render_details,
)
from .datasets import demo_corpus_path, demo_topics_path
from .evaluation import (
    GroundTruthTerms,
    jaccard_at_k,
    kendall_tau,
    lmjm_ground_truth,
    pointwise_consistency,
    pointwise_correctness,
    rbo,
    spearman_rho,
)
from .index import Document, PositionalIndex, UnknownDocumentError, build_index, read_corpus_jsonl
from .listwise import (
    CandidateTerm,
    ListwiseExplanation,
    ListwiseParams,
    PreferenceMatrix,
    PreferencePair,
    bfs_explain,
    build_preference_matrix,
    explain_all,
    explain_listwise,
    generate_candidates,
    greedy_explain,
    intent_exs_explain,
    multiplex_explain,
    sample_pairs,
    show_matrix,
)
from .perturb import (
    PerturbationBatch,
    PerturbedSample,
    SamplerConfig,
    draw_samples,
    masking_sampler,
    random_sampler,
    tfidf_sampler,
)
from .pointwise import (
    ExplanationVector,
    PointwiseParams,
    SurrogateFit,
    exs_explain,
    explanation_from_json,
    fit_weighted_ridge,
    lirme_explain,
    visualize_terms,
)
from .rankers import (
    BM25Ranker,
    HiddenIntentRanker,
    LinearScorer,
    LMDirRanker,
    LMJMRanker,
    Query,
    RankedList,
    Ranker,
    RankerParams,
    RunEntry,
    load_from_res,
    load_topics,
    make_ranker,
    rank,
    save_to_res,
)
from .rng import XorShift64Star
from .stem import porter_stem

__version__ = "0.1.0"
