"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import math
import time
from collections import Counter
from contextlib import contextmanager

import jsonschema
import numpy as np
import pytest

from rankexplain import (
    BM25Ranker,
    Document,
    GroundTruthTerms,
    LinearScorer,
    PointwiseParams,
    Query,
    SamplerConfig,
    bfs_explain,
    build_index,
    build_preference_matrix,
    generate_candidates,
    greedy_explain,
    kendall_tau,
    lirme_explain,
    load_from_res,
    pointwise_consistency,
    pointwise_correctness,
    rank,
    rbo,
    sample_pairs,
    save_to_res,
    spearman_rho,
)
from rankexplain import cli
from rankexplain.axioms import AXIOM_NAMES, DetailsTable, all_preferences, axiom_preference
from rankexplain.listwise import FidelityEvaluator, intent_exs_explain
from rankexplain.pointwise import ExplanationVector
from rankexplain.rng import XorShift64Star

from conftest import hidden_intent_fixture, make_vocab, random_corpus


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{description}]: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s ({elapsed:.1f}s)"
    print(f"criterion {number} [{description}]: PASS ({elapsed:.1f}s)")


# -- criterion 1: metric-oracle equivalence -----------------------------------


def rbo_oracle(a, b, p):
    k = min(len(a), len(b))
    total = 0.0
    for d in range(1, k + 1):
        total += p ** (d - 1) * (len(set(a[:d]) & set(b[:d])) / d)
    return (1 - p) * total + (len(set(a[:k]) & set(b[:k])) / k) * p ** k


def tau_oracle(a, b):
    common = set(a) & set(b)
    oa = [x for x in a if x in common]
    ob = {x: i for i, x in enumerate(x for x in b if x in common)}
    n = len(oa)
    score = 0
    for i, j in itertools.combinations(range(n), 2):
        score += 1 if (ob[oa[i]] < ob[oa[j]]) else -1
    return score / (n * (n - 1) / 2)


def rho_oracle(a, b):
    common = set(a) & set(b)
    ra = {x: i for i, x in enumerate(x for x in a if x in common)}
    rb = {x: i for i, x in enumerate(x for x in b if x in common)}
    n = len(common)
    return 1 - 6 * sum((ra[x] - rb[x]) ** 2 for x in common) / (n * (n * n - 1))


def test_criterion_1_metric_oracles():
    with criterion(1, "metric-oracle equivalence", 10):
        rng = XorShift64Star(101)
        universe = [f"i{j:02d}" for j in range(12)]
        for _ in range(1000):
            a = list(universe)
            b = list(universe)
            rng.shuffle(a)
            rng.shuffle(b)
            a = a[: 1 + rng.randbelow(8)]
            b = b[: 1 + rng.randbelow(8)]
            for p in (0.5, 0.9):
                assert abs(rbo(a, b, p) - rbo_oracle(a, b, p)) <= 1e-9
        items = [f"x{j}" for j in range(10)]
        for _ in range(500):
            n = 2 + rng.randbelow(9)
            a = list(items[:n])
            b = list(items[:n])
            rng.shuffle(a)
            rng.shuffle(b)
            assert kendall_tau(a, b) == tau_oracle(a, b)
            assert spearman_rho(a, b) == rho_oracle(a, b)


# -- criterion 2: published details-table arithmetic ---------------------------


def test_criterion_2_details_table_fixture():
    with criterion(2, "details-table arithmetic fixture", 10):
        table = DetailsTable.build(
            "PROX1",
            query_terms=["exon", "definit", "biolog"],
            doc_ids=("D1077802", "D1806793"),
            tf_rows=[("exon", 23, 21), ("definit", 7, 56), ("biolog", 1, 25)],
            pair_rows=[
                (("exon", "definit"), 174.43, 2728.07),
                (("definit", "biolog"), 354.71, 3287.24),
                (("exon", "biolog"), 315.04, 2864.24),
            ],
        )
        assert abs(table.total_avg_dist[0] - 281.39) <= 0.01
        assert abs(table.total_avg_dist[1] - 2959.85) <= 0.01
        assert table.preference == 1


# -- criterion 3: axiom case table + antisymmetry ------------------------------


AXIOM_CASES = {
    # axiom: list of (texts, query terms, docpair, expected preference)
    "TFC1": [
        (("qq qq qq ff", "qq ff ff ff"), ["qq"], ("d1", "d2"), 1),
        (("qq qq qq ff", "qq ff ff ff"), ["qq"], ("d2", "d1"), -1),
        (("qq ff", "qq gg"), ["qq"], ("d1", "d2"), 0),
    ],
    "TFC3": [
        (("qq ww ff ff", "qq qq ff ff"), ["qq", "ww"], ("d1", "d2"), 1),
        (("qq ww ff ff", "qq qq ff ff"), ["qq", "ww"], ("d2", "d1"), -1),
        (("qq ww ff ff", "ww qq ff ff"), ["qq", "ww"], ("d1", "d2"), 0),
    ],
    "TDC": [
        (("qq ff", "ww ff", "ww hh", "ww hh", "ww hh"), ["qq", "ww"], ("d1", "d2"), 1),
        (("qq ff", "ww ff", "ww hh", "ww hh", "ww hh"), ["qq", "ww"], ("d2", "d1"), -1),
        (("qq ff", "ww ff", "ww hh", "ww hh", "ww hh"), ["qq", "ww"], ("d1", "d1"), 0),
    ],
    "LNC1": [
        (("qq ff", "qq ff ff"), ["qq"], ("d1", "d2"), 1),
        (("qq ff", "qq ff ff"), ["qq"], ("d2", "d1"), -1),
        (("qq ff", "qq gg"), ["qq"], ("d1", "d2"), 0),
    ],
    "TF_LNC": [
        (("qq qq ff ff ff", "qq ff ff ff"), ["qq"], ("d1", "d2"), 1),
        (("qq qq ff ff ff", "qq ff ff ff"), ["qq"], ("d2", "d1"), -1),
        (("qq qq ff ff ff ff ff", "qq ff ff ff"), ["qq"], ("d1", "d2"), 0),
    ],
    "LB1": [
        (("qq ww ff", "qq ff ff"), ["qq", "ww"], ("d1", "d2"), 1),
        (("qq ww ff", "qq ff ff"), ["qq", "ww"], ("d2", "d1"), -1),
        (("qq ww ff", "ww qq gg"), ["qq", "ww"], ("d1", "d2"), 0),
    ],
    "PROX1": [
        (("qq ww", "qq ff ff ww"), ["qq", "ww"], ("d1", "d2"), 1),
        (("qq ww", "qq ff ff ww"), ["qq", "ww"], ("d2", "d1"), -1),
        (("qq ww", "qq ff ff ww"), ["qq", "ww"], ("d1", "d1"), 0),
    ],
    "PROX2": [
        (("qq ww ff ff", "qq ff ww ff"), ["qq", "ww"], ("d1", "d2"), 1),
        (("qq ww ff ff", "qq ff ww ff"), ["qq", "ww"], ("d2", "d1"), -1),
        (("qq ww ff ff", "qq ff ww ff"), ["qq", "ww"], ("d2", "d2"), 0),
    ],
    "PROX3": [
        (("qq ww ff", "ff qq ww"), ["qq", "ww"], ("d1", "d2"), 1),
        (("qq ww ff", "ff qq ww"), ["qq", "ww"], ("d2", "d1"), -1),
        (("qq ff ww", "ww qq ff"), ["qq", "ww"], ("d1", "d2"), 0),
    ],
    "PROX4": [
        (("qq ff ww", "qq ff ff ff ww"), ["qq", "ww"], ("d1", "d2"), 1),
        (("qq ff ww", "qq ff ff ff ww"), ["qq", "ww"], ("d2", "d1"), -1),
        (("qq ff ww", "qq ff ff ff ww"), ["qq", "ww"], ("d1", "d1"), 0),
    ],
    "PROX5": [
        (("qq ww qq ww", "qq ff ww ff qq"), ["qq", "ww"], ("d1", "d2"), 1),
        (("qq ww qq ww", "qq ff ww ff qq"), ["qq", "ww"], ("d2", "d1"), -1),
        (("qq ww qq ww", "qq ff ww ff qq"), ["qq", "ww"], ("d2", "d2"), 0),
    ],
    "AND": [
        (("qq ww ff", "qq ff ff"), ["qq", "ww"], ("d1", "d2"), 1),
        (("qq ww ff", "qq ff ff"), ["qq", "ww"], ("d2", "d1"), -1),
        (("qq ww ff", "ww ff qq"), ["qq", "ww"], ("d1", "d2"), 0),
    ],
}


def test_criterion_3_axiom_cases_and_antisymmetry():
    with criterion(3, "axiom hand cases + antisymmetry", 30):
        assert set(AXIOM_CASES) == set(AXIOM_NAMES)
        for axiom, cases in AXIOM_CASES.items():
            assert len(cases) >= 3
            for texts, terms, (da, db), expected in cases:
                index = build_index(
                    [Document(f"d{i}", t) for i, t in enumerate(texts, start=1)])
                got = axiom_preference(axiom, index, Query.from_terms("q", terms), da, db)
                assert got == expected, (axiom, texts, terms, da, db, got)
        rng = XorShift64Star(303)
        vocab = make_vocab(8)
        triples = 0
        while triples < 1000:
            corpus = random_corpus(rng, 6, vocab, min_len=3, max_len=25)
            index = build_index(corpus)
            ids = index.doc_ids()
            for _ in range(20):
                terms = [vocab[rng.randbelow(len(vocab))]
                         for _ in range(1 + rng.randbelow(3))]
                query = Query.from_terms("q", terms)
                d1 = ids[rng.randbelow(len(ids))]
                d2 = ids[rng.randbelow(len(ids))]
                fwd = all_preferences(index, query, d1, d2)
                bwd = all_preferences(index, query, d2, d1)
                for name in AXIOM_NAMES:
                    assert fwd[name] == -bwd[name], (name, d1, d2, terms)
                triples += 1


# -- criterion 4: pointwise linear recovery ------------------------------------


def test_criterion_4_pointwise_linear_recovery():
    with criterion(4, "pointwise linear recovery", 60):
        rng = XorShift64Star(404)
        vocab = make_vocab(30)
        corpus = random_corpus(rng, 49, vocab, min_len=15, max_len=30)
        signal = ["w00", "w01", "w02", "w03", "w04"]
        body = []
        for term in signal:
            body += [term, term]
        body += ["w10", "w11", "w12", "w13", "w14", "w15", "w16", "w17"]
        corpus.append(Document("target", " ".join(body)))
        index = build_index(corpus)
        coeffs = {t: 0.1 for t in vocab}
        coeffs.update({"w00": 6.0, "w01": -5.5, "w02": 5.0, "w03": -6.5, "w04": 7.0})
        scorer = LinearScorer(index, coeffs)
        query = Query.from_terms("q", ["w00"])
        counts = Counter(index.doc_tokens("target"))
        truth = sorted(counts, key=lambda t: (-abs(coeffs[t] * counts[t]), t))[:5]
        hits = 0
        for seed in range(20):
            params = PointwiseParams(
                sampler=SamplerConfig(kind="random", rate=0.3, n_samples=200, seed=seed),
                n_terms=5)
            expl = lirme_explain(index, scorer, query, "target", params)
            if set(expl.terms) == set(truth) and all(
                math.copysign(1, expl.weight(t)) == math.copysign(1, coeffs[t])
                for t in expl.terms
            ):
                hits += 1
        assert hits >= 19, f"recovered in only {hits}/20 trials"


# -- criterion 5: listwise search optimality -------------------------------------


def test_criterion_5_listwise_search_optimality():
    with criterion(5, "listwise search optimality", 300):
        for seed in range(1000, 1020):
            index, query, opaque, ranked, candidates, hidden = hidden_intent_fixture(seed)
            assert len(candidates) == 30
            sm = BM25Ranker(index)
            terms = [c.term for c in candidates]
            evaluate = FidelityEvaluator(index, sm, query, ranked, 0.9)
            best = (evaluate(()), 0, ())
            for size in range(1, 4):
                for subset in itertools.combinations(sorted(terms), size):
                    fid = evaluate(subset)
                    if (-fid, len(subset), subset) < (-best[0], best[1], best[2]):
                        best = (fid, len(subset), subset)
            exhaustive = bfs_explain(index, sm, query, ranked, candidates,
                                     m_max=3, p=0.9, eval_budget=5000)
            assert exhaustive.fidelity["rbo@0.9"] == best[0]
            assert tuple(exhaustive.terms) == best[2]
            budgeted = bfs_explain(index, sm, query, ranked, candidates,
                                   m_max=3, p=0.9, eval_budget=500)
            assert budgeted.fidelity["rbo@0.9"] >= 0.9 * best[0]
            greedy = greedy_explain(index, sm, query, ranked, candidates, m_max=3, p=0.9)
            single_eval = FidelityEvaluator(index, sm, query, ranked, 0.9)
            best_single = max(single_eval((t,)) for t in terms)
            assert greedy.fidelity["rbo@0.9"] >= best_single


# -- criterion 6: coverage guarantee ----------------------------------------------


def coverage_of(layer, subset):
    if not subset:
        return 0
    return int(np.count_nonzero(np.asarray(layer, dtype=int)[list(subset)].sum(axis=0) > 0))


def test_criterion_6_coverage_guarantee():
    with criterion(6, "greedy coverage within (1 - 1/e) of optimum", 60):
        for seed in range(500, 520):
            rng = XorShift64Star(seed)
            vocab = make_vocab(18)
            corpus = random_corpus(rng, 25, vocab, min_len=8, max_len=20)
            index = build_index(corpus)
            ranker = BM25Ranker(index)
            query = Query.from_terms("q", [vocab[rng.randbelow(len(vocab))],
                                           vocab[rng.randbelow(len(vocab))]])
            ranked = rank(index, ranker, query, pool=index.doc_ids(), depth=8)
            candidates = generate_candidates(index, ranked, top_k=8, n_candidates=12)
            pairs = sample_pairs(ranked, "uniform", 20, XorShift64Star(seed + 1))
            matrix = build_preference_matrix(index, [ranker], candidates, pairs)
            assert len(matrix.terms) <= 12 and len(matrix.pairs) <= 20
            layer = matrix.entries[0]
            m_max = 5
            expl = intent_exs_explain(matrix, m_min=1, m_max=m_max)
            got = coverage_of(layer, [matrix.terms.index(t) for t in expl.terms])
            optimum = 0
            for size in range(m_max + 1):
                for subset in itertools.combinations(range(len(matrix.terms)), size):
                    optimum = max(optimum, coverage_of(layer, subset))
            assert got >= (1 - 1 / math.e) * optimum, (seed, got, optimum)


# -- criterion 7: consistency and correctness sanity --------------------------------


def test_criterion_7_consistency_correctness(demo_index):
    with criterion(7, "consistency/correctness sanity", 30):
        query = Query.from_text(demo_index, "1", "what is the daily life of thai people")
        ranker = BM25Ranker(demo_index)
        params = PointwiseParams(sampler=SamplerConfig(kind="random", rate=0.3,
                                                       n_samples=100, seed=17))
        a = lirme_explain(demo_index, ranker, query, "T1", params)
        b = lirme_explain(demo_index, ranker, query, "T1", params)
        assert pointwise_consistency([a, b], m=5) == 1.0
        truth_weights = {"thai": 0.4, "sanuk": 0.3, "life": 0.2, "daili": 0.1}
        truth = GroundTruthTerms(weights=truth_weights)
        scaled = ExplanationVector(
            entries=sorted(((t, 7.5 * w) for t, w in truth_weights.items()),
                           key=lambda kv: (-abs(kv[1]), kv[0])))
        assert pointwise_correctness(scaled, truth) == pytest.approx(1.0, abs=1e-9)


# -- criterion 8: I/O fidelity --------------------------------------------------------


POINTWISE_SCHEMA = {
    "type": "object",
    "required": ["qid", "docid", "method", "params", "terms"],
    "properties": {
        "qid": {"type": "string"},
        "docid": {"type": "string"},
        "method": {"type": "string"},
        "params": {"type": "object"},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["term", "weight"],
                "properties": {"term": {"type": "string"}, "weight": {"type": "number"}},
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}

DETAILS_SCHEMA = {
    "type": "object",
    "required": ["axiom", "rows", "preference"],
    "properties": {
        "axiom": {"type": "string"},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "d1", "d2"],
                "properties": {"label": {"type": "string"}, "d1": {"type": "string"},
                               "d2": {"type": "string"}},
                "additionalProperties": False,
            },
        },
        "preference": {"enum": [-1, 0, 1]},
    },
    "additionalProperties": False,
}

LISTWISE_SCHEMA = {
    "type": "object",
    "required": ["qid", "method", "terms", "fidelity", "evaluations"],
    "properties": {
        "qid": {"type": "string"},
        "method": {"type": "string"},
        "terms": {"type": "array", "items": {"type": "string"}},
        "fidelity": {"type": "object", "additionalProperties": {"type": "number"}},
        "evaluations": {"type": "integer"},
    },
    "additionalProperties": False,
}

EVAL_SCHEMA = {
    "type": "object",
    "required": ["qid", "measure", "value", "params"],
    "properties": {
        "qid": {"type": "string"},
        "measure": {"type": "string"},
        "value": {"type": "number"},
        "params": {"type": "object"},
    },
    "additionalProperties": False,
}


def test_criterion_8_io_fidelity(tmp_path, capsys):
    with criterion(8, "I/O fidelity and CLI end-to-end", 120):
        # TREC round trip: byte-exact through load/save
        index_path = tmp_path / "demo.idx"
        run_path = tmp_path / "demo.trec"
        assert cli.run(["index", "--corpus", "demo", "--out", str(index_path)]) == 0
        assert cli.run(["rank", "--index", str(index_path), "--topics", "demo",
                        "--model", "bm25", "--depth", "10", "--out", str(run_path)]) == 0
        resaved = tmp_path / "resaved.trec"
        save_to_res(load_from_res(str(run_path)), str(resaved))
        assert resaved.read_bytes() == run_path.read_bytes()
        capsys.readouterr()

        # repeated runs with the same seed must be byte-identical
        index2 = tmp_path / "demo2.idx"
        run2 = tmp_path / "demo2.trec"
        assert cli.run(["index", "--corpus", "demo", "--out", str(index2)]) == 0
        assert cli.run(["rank", "--index", str(index2), "--topics", "demo",
                        "--model", "bm25", "--depth", "10", "--out", str(run2)]) == 0
        assert index2.read_bytes() == index_path.read_bytes()
        assert run2.read_bytes() == run_path.read_bytes()
        capsys.readouterr()

        def run_capture(argv):
            assert cli.run(argv) == 0
            return capsys.readouterr().out

        pointwise_argv = ["explain", "pointwise", "--index", str(index_path),
                          "--method", "lirme", "--topics", "demo", "--qid", "1",
                          "--docid", "T1", "--seed", "5"]
        out_pointwise = run_capture(pointwise_argv)
        assert out_pointwise == run_capture(pointwise_argv)
        payload = json.loads(out_pointwise)
        jsonschema.validate(payload, POINTWISE_SCHEMA)
        weights = [abs(t["weight"]) for t in payload["terms"]]
        assert weights == sorted(weights, reverse=True)

        out_exs = run_capture(["explain", "pointwise", "--index", str(index_path),
                               "--method", "exs", "--topics", "demo", "--qid", "1",
                               "--docid", "T1", "--seed", "5", "--exs_k", "5"])
        jsonschema.validate(json.loads(out_exs), POINTWISE_SCHEMA)

        pairwise_argv = ["explain", "pairwise", "--index", str(index_path),
                         "--topics", "demo", "--qid", "2", "--docs", "B1,B2",
                         "--axioms", "PROX1", "--details", "--format", "json"]
        out_pairwise = run_capture(pairwise_argv)
        assert out_pairwise == run_capture(pairwise_argv)
        jsonschema.validate(json.loads(out_pairwise), DETAILS_SCHEMA)

        for method in ("multiplex", "intent_exs", "greedy", "bfs"):
            argv = ["explain", "listwise", "--index", str(index_path),
                    "--method", method, "--run", str(run_path), "--topics", "demo",
                    "--qid", "1", "--seed", "3", "--n_candidates", "15",
                    "--m_min", "1", "--m_max", "3", "--n_pairs", "10",
                    "--eval_budget", "120"]
            out_listwise = run_capture(argv)
            assert out_listwise == run_capture(argv)
            jsonschema.validate(json.loads(out_listwise), LISTWISE_SCHEMA)

        eval_argv = ["eval", "rbo", str(run_path), str(run_path), "--p", "0.9"]
        out_eval = run_capture(eval_argv)
        assert out_eval == run_capture(eval_argv)
        for line in out_eval.strip().splitlines():
            jsonschema.validate(json.loads(line), EVAL_SCHEMA)
