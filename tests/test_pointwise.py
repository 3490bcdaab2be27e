import dataclasses
import json
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from rankexplain import (
    BM25Ranker,
    Document,
    LinearScorer,
    Query,
    RankedList,
    RunEntry,
    build_index,
    exs_explain,
    explanation_from_json,
    fit_weighted_ridge,
    lirme_explain,
    visualize_terms,
)
from rankexplain.perturb import SamplerConfig
from rankexplain.pointwise import (
    ExplanationVector,
    RIDGE_DOMAIN,
    PointwiseParams,
    _perturbation_design,
    exs_targets,
)
from rankexplain.rng import XorShift64Star

from conftest import make_vocab, random_corpus


def ridge_oracle(X, y, w, lam):
    """Weighted ridge via an explicitly stacked least-squares system."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    w = np.asarray(w, float)
    n, d = X.shape
    A = np.hstack([X, np.ones((n, 1))])
    sw = np.sqrt(w)
    rows = [sw[:, None] * A, np.sqrt(lam) * np.hstack([np.eye(d), np.zeros((d, 1))])]
    targets = np.concatenate([sw * y, np.zeros(d)])
    beta, *_ = np.linalg.lstsq(np.vstack(rows), targets, rcond=None)
    return beta


def test_ridge_hand_case():
    fit = fit_weighted_ridge([[1.0], [0.0]], [2.0, 0.0], [1.0, 1.0], 0.0, feature_names=["t"])
    assert fit.weights["t"] == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)


def test_ridge_constant_targets():
    fit = fit_weighted_ridge([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [3.0, 3.0, 3.0],
                             [1.0, 2.0, 1.0], 1.0)
    for w in fit.weights.values():
        assert w == pytest.approx(0.0, abs=1e-9)
    assert fit.intercept == pytest.approx(3.0, abs=1e-9)


def test_ridge_monotone_shrinkage():
    rng = XorShift64Star(1)
    X = [[rng.random() for _ in range(3)] for _ in range(12)]
    y = [rng.random() * 4 for _ in range(12)]
    w = [1.0] * 12
    norms = []
    for lam in (1.0, 10.0, 100.0):
        fit = fit_weighted_ridge(X, y, w, lam)
        norms.append(math.sqrt(sum(v * v for v in fit.weights.values())))
    assert norms[0] > norms[1] > norms[2]


def test_ridge_matches_oracle_on_random_systems():
    rng = XorShift64Star(99)
    for _ in range(50):
        X = [[float(rng.randbelow(2)) for _ in range(5)] for _ in range(10)]
        y = [rng.random() * 10 - 5 for _ in range(10)]
        w = [rng.random() + 0.05 for _ in range(10)]
        lam = rng.random() * 3
        fit = fit_weighted_ridge(X, y, w, lam)
        beta = ridge_oracle(X, y, w, lam)
        got = [fit.weights[str(i)] for i in range(5)] + [fit.intercept]
        assert np.allclose(got, beta, atol=1e-9)


@pytest.mark.parametrize("X,y,w,ridge", [
    # Products of the 1e-170 entries underflow, so the Gram matrix holds -0.0 off its diagonal.
    ([[1e-170, -1e-160], [1e-170, -1e-170]], [1e-170, -1e-170], [1.0, 0.0], 0.5),
    ([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]], [0.3, -1.2, 2.5, 0.7],
     [1.0, 0.5, 0.25, 0.8], 1.0),
])
def test_ridge_solves_the_normal_equations_with_a_diagonal_penalty_to_the_bit(X, y, w, ridge):
    X, y, w = np.array(X), np.array(y), np.array(w)
    A = np.hstack([X, np.ones((len(X), 1))])
    G = A.T @ (w[:, None] * A) + np.diag([ridge] * X.shape[1] + [0.0])
    beta = np.linalg.solve(G, A.T @ (w * y))
    fit = fit_weighted_ridge(X, y, w, ridge)
    assert np.array([*fit.weights.values(), fit.intercept]).tobytes() == beta.tobytes()


def test_ridge_zero_weights_error():
    with pytest.raises(ValueError, match="zero"):
        fit_weighted_ridge([[1.0]], [1.0], [0.0], 1.0)


@pytest.mark.parametrize("changes,message", [
    pytest.param({"w": [1.0, math.nan]}, "sample_weights must be finite", id="weight-nan"),
    pytest.param({"w": [1.0, math.inf]}, "sample_weights must be finite", id="weight-inf"),
    pytest.param({"y": [1.0, math.nan]}, "y must be finite", id="target-nan"),
    pytest.param({"y": [-math.inf, 1.0]}, "y must be finite", id="target-minus-inf"),
    pytest.param({"X": [[1.0], [math.nan]]}, "X must be finite", id="design-nan"),
    pytest.param({"ridge": math.nan}, "ridge must be in [0, inf), got nan", id="ridge-nan"),
    pytest.param({"ridge": -1.0}, "ridge must be in [0, inf), got -1.0", id="ridge-minus-1"),
    pytest.param({"ridge": math.inf}, "ridge must be in [0, inf), got inf", id="ridge-inf"),
])
def test_ridge_rejects_non_finite_inputs_and_a_ridge_outside_its_domain(changes, message):
    # Unchecked, a NaN or inf weight or target gives all-NaN weights, ridge nan
    # or -1 a singular system, and ridge inf all-zero weights.
    args = {"X": [[1.0], [0.0]], "y": [2.0, 0.0], "w": [1.0, 1.0], "ridge": 1.0} | changes
    with pytest.raises(ValueError, match=re.escape(message)):
        fit_weighted_ridge(args["X"], args["y"], args["w"], args["ridge"])


@pytest.mark.parametrize("names,repeated", [(["a", "a"], "a"), (["x", "b", "c", "b"], "b")])
def test_ridge_rejects_repeated_feature_names(names, repeated):
    X = np.eye(len(names))
    with pytest.raises(ValueError, match=re.escape(f"duplicate {repeated!r} in feature_names")):
        fit_weighted_ridge(X, [1.0] * len(names), [1.0] * len(names), 1.0, feature_names=names)


def test_ridge_domain_is_the_one_pointwise_params_declares():
    ridge = next(f for f in dataclasses.fields(PointwiseParams) if f.name == "ridge")
    assert ridge.metadata["in"] is RIDGE_DOMAIN


def test_ridge_fit_temporaries_stay_within_its_design_copies_and_one_gram_matrix():
    # A 200 x 170 presence design: the fit holds A = [X, 1] and the weighted w * A
    # while the GEMM writes G = A.T @ (w * A); no other (d+1)-square array may be alive then.
    gen = np.random.default_rng(3)
    n, d = 200, 170
    X = (gen.random((n, d)) < 0.7).astype(float)
    y, w = gen.normal(size=n), np.exp(-gen.random(n) ** 2)
    names = [f"t{i}" for i in range(d)]
    fit_weighted_ridge(X, y, w, 1.0, feature_names=names)     # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        fit_weighted_ridge(X, y, w, 1.0, feature_names=names)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    design, gram = n * (d + 1) * 8, (d + 1) ** 2 * 8
    assert peak <= 2 * design + gram + 16 * 1024, (peak, 2 * design + gram)


def test_ridge_rank_deficient_min_norm_flagged():
    # two identical columns, lam = 0
    fit = fit_weighted_ridge([[1.0, 1.0], [0.0, 0.0]], [2.0, 0.0], [1.0, 1.0], 0.0)
    assert fit.solver == "minimum_norm"
    assert fit.weights["0"] == pytest.approx(fit.weights["1"], abs=1e-9)


@pytest.fixture(scope="module")
def linear_fixture():
    rng = XorShift64Star(2024)
    vocab = make_vocab(30)
    corpus = random_corpus(rng, 20, vocab, min_len=15, max_len=30)
    signal = ["w00", "w01", "w02", "w03", "w04"]
    body = []
    for term in signal:
        body += [term, term]           # tf 2 each
    body += ["w10", "w11", "w12", "w13", "w14", "w15", "w16", "w17"]
    corpus.append(Document("target", " ".join(body)))
    index = build_index(corpus)
    coeffs = {t: 0.1 for t in vocab}
    coeffs.update({"w00": 6.0, "w01": -5.5, "w02": 5.0, "w03": -6.5, "w04": 7.0})
    return index, LinearScorer(index, coeffs), coeffs


def test_lirme_recovers_linear_scorer(linear_fixture):
    index, scorer, coeffs = linear_fixture
    query = Query.from_terms("q", ["w00"])
    doc_counts = Counter(index.doc_tokens("target"))
    truth = sorted(doc_counts, key=lambda t: (-abs(coeffs[t] * doc_counts[t]), t))[:5]
    hits = 0
    for seed in range(10):
        params = PointwiseParams(sampler=SamplerConfig(kind="random", rate=0.3,
                                                       n_samples=200, seed=seed),
                                 n_terms=5)
        expl = lirme_explain(index, scorer, query, "target", params)
        if set(expl.terms) == set(truth) and all(
            math.copysign(1, expl.weight(t)) == math.copysign(1, coeffs[t]) for t in expl.terms
        ):
            hits += 1
    assert hits >= 9


def test_lirme_constant_ranker_all_zero(linear_fixture):
    index, _, _ = linear_fixture
    constant = LinearScorer(index, {})
    params = PointwiseParams(sampler=SamplerConfig(seed=5))
    expl = lirme_explain(index, constant, Query.from_terms("q", ["w00"]), "target", params)
    for _, w in expl.entries:
        assert w == pytest.approx(0.0, abs=1e-9)


def test_lirme_requires_two_distinct_terms():
    index = build_index([Document("tiny", "qq qq qq"), Document("other", "ww zz")])
    with pytest.raises(ValueError, match="explanation undefined"):
        lirme_explain(index, BM25Ranker(index), Query.from_terms("q", ["qq"]), "tiny")


def test_lirme_deterministic(linear_fixture):
    index, scorer, _ = linear_fixture
    query = Query.from_terms("q", ["w00"])
    params = PointwiseParams(sampler=SamplerConfig(seed=13))
    a = lirme_explain(index, scorer, query, "target", params)
    b = lirme_explain(index, scorer, query, "target", params)
    assert a.entries == b.entries


def test_qualitative_mixed_signs_on_demo(demo_index):
    # A natural fixture: the Thai daily-life document should pick up both
    # positive and negative term influences under EXS-style targets.
    query = Query.from_text(demo_index, "1", "what is the daily life of thai people")
    ranker = BM25Ranker(demo_index)
    from rankexplain import rank

    base = rank(demo_index, ranker, query, depth=5)
    params = PointwiseParams(sampler=SamplerConfig(seed=3, rate=0.4), exs_k=5, n_terms=10)
    expl = exs_explain(demo_index, ranker, query, "T1", params, base)
    assert "sanuk" in demo_index.doc_tokens("T1")
    signs = {math.copysign(1, w) for _, w in expl.entries if w != 0}
    assert signs == {1.0, -1.0}


def test_locality_kernel_flattens_with_width(linear_fixture):
    index, _, _ = linear_fixture
    params = PointwiseParams(sampler=SamplerConfig(seed=1, rate=0.5),
                             kernel_width=1e6)
    *_, kernel = _perturbation_design(index, "target", params)
    assert max(kernel) / min(kernel) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("width", [1e-150, 1e150])
def test_the_kernel_is_computed_at_the_ends_of_the_width_domain(linear_fixture, width):
    # A numpy overflow or divide-by-zero RuntimeWarning is an error under the pytest settings.
    index, _, _ = linear_fixture
    params = PointwiseParams(sampler=SamplerConfig(seed=1, rate=0.5), kernel_width=width)
    *_, kernel = _perturbation_design(index, "target", params)
    assert ((kernel >= 0.0) & (kernel <= 1.0)).all()


# -- EXS targets ---------------------------------------------------------------


def base_list_fixture():
    entries = [RunEntry(f"d{i}", i, 10.0 - i) for i in range(1, 6)]
    return RankedList.from_entries("q", entries)


def test_exs_above_top_is_one_for_all_variants():
    base = base_list_fixture()
    scores = np.array([9.5])  # above rank-1 score 9.0
    for variant in ("topk_binary", "score_ratio", "rank_based"):
        target = exs_targets(scores, base, variant, exs_k=5)
        assert target[0] == pytest.approx(1.0)


def test_exs_below_rank_k_is_zero_topk():
    base = base_list_fixture()
    assert exs_targets(np.array([1.0]), base, "topk_binary", exs_k=5)[0] == 0.0


def test_exs_rank_based_midway():
    base = base_list_fixture()  # scores 9, 8, 7, 6, 5
    # score 7.5 -> two base scores above it -> 1 - 2/5
    assert exs_targets(np.array([7.5]), base, "rank_based", exs_k=5)[0] == pytest.approx(0.6)


def test_exs_score_ratio_midway():
    base = base_list_fixture()  # top score 9
    assert exs_targets(np.array([7.0]), base, "score_ratio", exs_k=5)[0] == pytest.approx(7 / 9)
    assert exs_targets(np.array([-5.0]), base, "score_ratio", exs_k=5)[0] == 0.0


def test_exs_short_base_list_rejected():
    base = base_list_fixture()
    with pytest.raises(ValueError, match="exs_k"):
        exs_targets(np.array([1.0]), base, "topk_binary", exs_k=10)


def test_exs_variants_share_design(linear_fixture):
    index, scorer, _ = linear_fixture
    params = PointwiseParams(sampler=SamplerConfig(seed=21))
    _, s1, t1, X1, k1 = _perturbation_design(index, "target", params)
    _, s2, t2, X2, k2 = _perturbation_design(index, "target", params)
    assert np.array_equal(X1, X2)
    assert np.array_equal(k1, k2)
    assert t1 == t2
    base = base_list_fixture()
    scores = np.array([9.5, 7.5, 1.0])
    binary = exs_targets(scores, base, "topk_binary", 5)
    ratio = exs_targets(scores, base, "score_ratio", 5)
    assert not np.array_equal(binary, ratio)


# -- visualization ---------------------------------------------------------------


def test_visualize_empty():
    assert visualize_terms(ExplanationVector(entries=[])) == ""


def test_visualize_bar_scaling():
    expl = ExplanationVector(entries=[("aa", 2.0), ("bb", -1.0)])
    lines = visualize_terms(expl, fmt="text").splitlines()
    assert lines[0].count("#") == 40
    assert lines[1].count("#") == 20
    assert "+2.0000" in lines[0]
    assert "-1.0000" in lines[1]


def test_json_roundtrip():
    expl = ExplanationVector(entries=[("aa", 2.0), ("bb", -1.0)],
                             qid="7", docid="d", method="lirme", params={"x": 1})
    text = visualize_terms(expl, fmt="json")
    parsed = explanation_from_json(text)
    assert parsed == expl
    assert json.loads(text)["terms"][0] == {"term": "aa", "weight": 2.0}


def _explanation_json(**changes) -> str:
    """A serialized explanation with ``changes``; a None value drops the key."""
    data = ExplanationVector(entries=[("aa", 2.0), ("bb", -1.0)], qid="7", docid="d", method="lirme",
                             params={"x": 1}).as_dict() | changes
    return json.dumps({k: v for k, v in data.items() if v is not None})


@pytest.mark.parametrize("text,message", [
    pytest.param("{}", "has no key 'docid'", id="empty-object"),
    pytest.param("[]", "explanation must be a JSON object", id="a-list"),
    pytest.param(_explanation_json(qid=None), "has no key 'qid'", id="missing-qid"),
    pytest.param(_explanation_json(extra=1), "unknown key 'extra'", id="unknown-key"),
    pytest.param(_explanation_json(qid=7), "'qid' must be a string", id="qid-an-int"),
    pytest.param(_explanation_json(params=[]), "'params' must be a JSON object", id="params-a-list"),
    pytest.param(_explanation_json(terms={}), "'terms' a list", id="terms-an-object"),
    pytest.param(_explanation_json(terms=[["aa", 2.0]]), "explanation term must be a JSON object", id="row-a-list"),
    pytest.param(_explanation_json(terms=[{"term": "aa"}]), "has no key 'weight'", id="row-without-weight"),
    pytest.param(_explanation_json(terms=[{"term": "aa", "weight": 1.0, "x": 0}]), "unknown key 'x'",
                 id="row-unknown-key"),
    pytest.param(_explanation_json(terms=[{"term": 1, "weight": 1.0}]), "term must be a string", id="term-an-int"),
    pytest.param(_explanation_json(terms=[{"term": "aa", "weight": "x"}]), "weight of 'aa' must be a number",
                 id="weight-a-string"),
    pytest.param(_explanation_json(terms=[{"term": "aa", "weight": True}]), "weight of 'aa' must be a number",
                 id="weight-true"),
    pytest.param(_explanation_json(terms=[{"term": "aa", "weight": math.nan}]),
                 "weight of 'aa' must be in (-inf, inf), got nan", id="weight-nan"),
    pytest.param(_explanation_json(terms=[{"term": "aa", "weight": -math.inf}]),
                 "weight of 'aa' must be in (-inf, inf), got -inf", id="weight-minus-inf"),
])
def test_explanation_from_json_rejects_what_as_dict_does_not_write(text, message):
    # Only what as_dict writes loads; anything else is a ValueError naming the key at fault.
    with pytest.raises(ValueError, match=re.escape(message)):
        explanation_from_json(text)


@pytest.mark.parametrize("text,key", [
    pytest.param('{"qid": "8", ' + _explanation_json()[1:], "qid", id="top-level"),
    pytest.param(_explanation_json(terms=[{"term": "aa", "weight": 1.0}]).replace('"weight"', '"term": "bb", "weight"'),
                 "term", id="in-a-term-row"),
])
def test_explanation_from_json_rejects_a_repeated_key(text, key):
    # Plain json would keep the last value and load the explanation.
    with pytest.raises(ValueError, match=f"repeated key '{key}'"):
        explanation_from_json(text)


def test_explanation_ordering():
    expl = ExplanationVector.from_weights({"bb": -3.0, "aa": 3.0, "cc": 1.0})
    assert expl.terms == ["aa", "bb", "cc"]
