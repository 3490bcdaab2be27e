import itertools
import math

import pytest

from rankexplain import (
    BM25Ranker,
    Document,
    GroundTruthTerms,
    Query,
    build_index,
    jaccard_at_k,
    kendall_tau,
    lmjm_ground_truth,
    pointwise_consistency,
    pointwise_correctness,
    rank,
    rbo,
    spearman_rho,
)
from rankexplain.pointwise import ExplanationVector
from rankexplain.rankers import LMJMRanker
from rankexplain.rng import XorShift64Star


# -- oracles -------------------------------------------------------------------


def rbo_oracle(a, b, p):
    """Depth-sum definition computed from scratch at every depth."""
    k = min(len(a), len(b))
    total = 0.0
    for d in range(1, k + 1):
        overlap = len(set(a[:d]) & set(b[:d])) / d
        total += p ** (d - 1) * overlap
    tail = len(set(a[:k]) & set(b[:k])) / k
    return (1 - p) * total + tail * p ** k


def tau_oracle(a, b):
    common = [x for x in a if x in set(b)]
    pos_a = {x: i for i, x in enumerate(common)}
    pos_b = {x: i for i, x in enumerate([x for x in b if x in set(a)])}
    n = len(common)
    concordant = discordant = 0
    for x, y in itertools.combinations(common, 2):
        if (pos_a[x] - pos_a[y]) * (pos_b[x] - pos_b[y]) > 0:
            concordant += 1
        else:
            discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


def rho_oracle(a, b):
    common = set(a) & set(b)
    ra = {x: i for i, x in enumerate(x for x in a if x in common)}
    rb = {x: i for i, x in enumerate(x for x in b if x in common)}
    n = len(common)
    d_sq = sum((ra[x] - rb[x]) ** 2 for x in common)
    return 1 - 6 * d_sq / (n * (n * n - 1))


def random_lists(rng, max_len=8, universe=12):
    items = [f"i{j}" for j in range(universe)]
    def draw():
        picks = list(items)
        rng.shuffle(picks)
        return picks[: 1 + rng.randbelow(max_len)]
    return draw(), draw()


# -- rbo -----------------------------------------------------------------------


def test_rbo_identical():
    assert rbo(["a", "b", "c"], ["a", "b", "c"], 0.9) == pytest.approx(1.0)


def test_rbo_disjoint():
    assert rbo(["a", "b"], ["c", "d"], 0.9) == 0.0


def test_rbo_hand_value():
    assert rbo(["a", "b"], ["b", "a"], 0.9) == pytest.approx(0.90)


def test_rbo_errors():
    with pytest.raises(ValueError, match="empty"):
        rbo([], ["a"], 0.9)
    with pytest.raises(ValueError, match="duplicate"):
        rbo(["a", "a"], ["a", "b"], 0.9)
    with pytest.raises(ValueError, match="p must"):
        rbo(["a"], ["a"], 1.0)


def test_rbo_matches_oracle():
    rng = XorShift64Star(31)
    for _ in range(300):
        a, b = random_lists(rng)
        for p in (0.5, 0.9):
            assert rbo(a, b, p) == pytest.approx(rbo_oracle(a, b, p), abs=1e-9)


def test_rbo_monotone_in_p_for_deep_agreement():
    # lists whose only commonality sits below rank 1: a larger p shifts
    # weight toward those deep ranks, so the value must rise with p
    a = ["x", "c", "d", "e"]
    b = ["y", "c", "d", "e"]
    values = [rbo(a, b, p) for p in (0.1, 0.5, 0.9, 0.99)]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_rbo_symmetric():
    rng = XorShift64Star(32)
    for _ in range(50):
        a, b = random_lists(rng)
        for p in (0.5, 0.9):
            assert rbo(a, b, p) == pytest.approx(rbo(b, a, p), abs=1e-12)


# -- correlations ----------------------------------------------------------------


def test_tau_identical_and_reversed():
    assert kendall_tau(["a", "b", "c"], ["a", "b", "c"]) == 1.0
    assert kendall_tau(["a", "b", "c"], ["c", "b", "a"]) == -1.0


def test_tau_hand_value():
    assert kendall_tau(["a", "b", "c"], ["a", "c", "b"]) == pytest.approx(1 / 3)


def test_rho_identical_and_reversed():
    assert spearman_rho(["a", "b", "c"], ["a", "b", "c"]) == 1.0
    assert spearman_rho(["a", "b", "c"], ["c", "b", "a"]) == -1.0


def test_rho_hand_value():
    assert spearman_rho(["a", "b", "c"], ["a", "c", "b"]) == pytest.approx(0.5)


def test_correlations_undefined_below_two():
    with pytest.raises(ValueError, match="undefined correlation"):
        kendall_tau(["a"], ["a"])
    with pytest.raises(ValueError, match="undefined correlation"):
        spearman_rho(["a", "b"], ["b", "c"])


def test_correlations_match_oracles_on_permutations():
    rng = XorShift64Star(41)
    items = [f"x{j}" for j in range(10)]
    for _ in range(200):
        a = list(items)
        b = list(items)
        rng.shuffle(a)
        rng.shuffle(b)
        n = 2 + rng.randbelow(9)
        a, b = a[:n], [x for x in b if x in set(a[:n])]
        assert kendall_tau(a, b) == pytest.approx(tau_oracle(a, b), abs=1e-12)
        assert spearman_rho(a, b) == pytest.approx(rho_oracle(a, b), abs=1e-12)


def test_correlations_symmetric():
    a = ["a", "b", "c", "d", "e"]
    b = ["b", "a", "e", "c", "d"]
    assert kendall_tau(a, b) == kendall_tau(b, a)
    assert spearman_rho(a, b) == spearman_rho(b, a)


def test_correlations_computed_on_intersection():
    a = ["a", "b", "z1", "c"]
    b = ["a", "z2", "b", "c"]
    assert kendall_tau(a, b) == 1.0


# -- jaccard ---------------------------------------------------------------------


def test_jaccard_basics():
    assert jaccard_at_k(["a", "b"], ["a", "b"], 2) == 1.0
    assert jaccard_at_k(["a", "b"], ["c", "d"], 2) == 0.0
    assert jaccard_at_k(["a", "b", "x"], ["a", "c", "y"], 2) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        jaccard_at_k(["a"], ["a"], 0)


def test_jaccard_short_lists_use_full_length():
    assert jaccard_at_k(["a"], ["a", "b", "c"], 2) == pytest.approx(1 / 2)


# -- ground truth ------------------------------------------------------------------


@pytest.fixture()
def gt_index():
    return build_index([
        Document("d1", "qq ww ww"),
        Document("d2", "qq zz hh"),
        Document("d3", "zz hh yy"),
    ])


def test_ground_truth_top1_hand_value(gt_index):
    query = Query.from_terms("q", ["qq"])
    ranked = rank(gt_index, BM25Ranker(gt_index), query, pool=["d1"])
    lam = 0.5
    truth = lmjm_ground_truth(gt_index, query, ranked, top_n=1, lam=lam, n_terms=10)
    # with one document the exp(score) factor cancels in normalization:
    # weight(t) proportional to P_jm(t | d1)
    jm = LMJMRanker(gt_index, lam=lam)
    expected = {}
    for term in gt_index.vocabulary:
        expected[term] = jm.term_probability(term, gt_index.tf(term, "d1"), 3)
    total = sum(expected.values())
    for term, weight in truth.weights.items():
        assert weight == pytest.approx(expected[term] / total, abs=1e-12)


def test_ground_truth_absent_term_floor(gt_index):
    query = Query.from_terms("q", ["qq"])
    ranked = rank(gt_index, BM25Ranker(gt_index), query, pool=["d1"])
    truth = lmjm_ground_truth(gt_index, query, ranked, top_n=1, lam=0.5, n_terms=10)
    # "yy" (cf 1) absent from d1 keeps only the collection floor and must
    # rank strictly below "qq" (cf 2, present in d1)
    assert truth.weights["yy"] < truth.weights["qq"]
    # equal-cf comparison: "ww" present (cf 2) vs absent term with same cf
    assert truth.weights["ww"] > truth.weights["yy"]


def test_ground_truth_single_term(gt_index):
    query = Query.from_terms("q", ["qq"])
    ranked = rank(gt_index, BM25Ranker(gt_index), query, pool=["d1"])
    truth = lmjm_ground_truth(gt_index, query, ranked, top_n=1, lam=0.5, n_terms=1)
    assert len(truth.weights) == 1
    assert sum(truth.weights.values()) == pytest.approx(1.0)


def test_ground_truth_validation(gt_index):
    query = Query.from_terms("q", ["qq"])
    ranked = rank(gt_index, BM25Ranker(gt_index), query, pool=["d1"])
    with pytest.raises(ValueError):
        lmjm_ground_truth(gt_index, query, ranked, top_n=5)
    with pytest.raises(ValueError):
        GroundTruthTerms(weights={})
    with pytest.raises(ValueError):
        GroundTruthTerms(weights={"a": 0.4})
    # NaN passed both `w < 0` and the sum check at the parent.
    for weights in ({"a": math.nan}, {"a": 0.5, "b": math.nan}, {"a": math.inf}, {"a": 1.5, "b": -0.5}):
        with pytest.raises(ValueError, match="ground-truth weight of"):
            GroundTruthTerms(weights=weights)


# -- correctness / consistency -------------------------------------------------------


def truth_of(weights):
    total = sum(weights.values())
    return GroundTruthTerms(weights={t: w / total for t, w in weights.items()})


def test_correctness_scale_invariance():
    truth = truth_of({"aa": 3.0, "bb": 2.0, "cc": 1.0})
    expl = ExplanationVector(entries=[("aa", 30.0), ("bb", 20.0), ("cc", 10.0)])
    assert pointwise_correctness(expl, truth) == pytest.approx(1.0, abs=1e-9)


def test_correctness_negation():
    truth = truth_of({"aa": 3.0, "bb": 2.0, "cc": 1.0})
    expl = ExplanationVector(entries=[("aa", -3.0), ("bb", -2.0), ("cc", -1.0)])
    assert pointwise_correctness(expl, truth) == pytest.approx(-1.0, abs=1e-9)


def test_correctness_hand_three_terms():
    truth = truth_of({"aa": 0.5, "bb": 0.3, "cc": 0.2})
    expl = ExplanationVector(entries=[("aa", 1.0), ("bb", 0.5), ("dd", 0.25)])
    xs = [1.0, 0.5, 0.25, 0.0]
    ys = [0.5, 0.3, 0.0, 0.2]
    mx, my = sum(xs) / 4, sum(ys) / 4
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    expected = cov / math.sqrt(sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys))
    assert pointwise_correctness(expl, truth) == pytest.approx(expected, abs=1e-12)


def test_correctness_zero_variance_error():
    truth = truth_of({"aa": 0.5, "bb": 0.5})
    expl = ExplanationVector(entries=[("aa", 1.0), ("bb", 1.0)])
    with pytest.raises(ValueError, match="zero variance"):
        pointwise_correctness(expl, truth)


def test_consistency_identical():
    e = ExplanationVector(entries=[("aa", 1.0), ("bb", 0.5)])
    assert pointwise_consistency([e, e, e], m=2) == 1.0


def test_consistency_disjoint():
    e1 = ExplanationVector(entries=[("aa", 1.0)])
    e2 = ExplanationVector(entries=[("bb", 1.0)])
    e3 = ExplanationVector(entries=[("cc", 1.0)])
    assert pointwise_consistency([e1, e2, e3], m=1) == 0.0


def test_consistency_one_shared_pair():
    e1 = ExplanationVector(entries=[("aa", 1.0), ("bb", 0.5)])
    e2 = ExplanationVector(entries=[("aa", 1.0), ("bb", 0.4)])
    e3 = ExplanationVector(entries=[("cc", 1.0), ("dd", 0.5)])
    # pairs: (e1,e2)=1, (e1,e3)=0, (e2,e3)=0
    assert pointwise_consistency([e1, e2, e3], m=2) == pytest.approx(1 / 3)


def test_consistency_validation():
    e = ExplanationVector(entries=[("aa", 1.0)])
    with pytest.raises(ValueError):
        pointwise_consistency([e], m=1)
    with pytest.raises(ValueError, match="no terms"):
        pointwise_consistency([e, ExplanationVector(entries=[])], m=1)
