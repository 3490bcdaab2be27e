import pytest

from rankexplain import Document, build_index
from rankexplain.analysis import TokenizedDocument
from rankexplain.perturb import (
    SamplerConfig,
    draw_samples,
    masking_sampler,
    random_sampler,
    tfidf_sampler,
)
from rankexplain.rng import XorShift64Star


def doc_of(tokens):
    return TokenizedDocument(docid="d", tokens=tuple(tokens))


def removed_fraction(sample):
    return 1 - sum(sample.kept_mask) / len(sample.kept_mask)


def check_sample_invariants(doc, sample):
    assert type(sample.kept_mask) is tuple
    assert len(sample.kept_mask) == len(doc.tokens)
    assert set(sample.kept_mask) <= {0, 1}


def test_rate_zero_is_identity():
    doc = doc_of(["qq", "ww", "zz"])
    cfg = SamplerConfig(kind="random", rate=0.0, n_samples=5)
    for sample in random_sampler(doc, cfg, XorShift64Star(0)):
        assert sample.kept_mask == (1, 1, 1)


def test_rate_one_removes_everything():
    doc = doc_of(["qq", "ww", "zz"])
    cfg = SamplerConfig(kind="random", rate=1.0, n_samples=5)
    for sample in random_sampler(doc, cfg, XorShift64Star(0)):
        assert sample.kept_mask == (0, 0, 0)


def test_seed_determinism_all_samplers():
    corpus = [Document("d", "qq ww qq zz ww qq yy xx"), Document("e", "ww yy")]
    index = build_index(corpus)
    doc = index.tokenized_doc("d")
    for kind in ("random", "masking", "tfidf"):
        cfg = SamplerConfig(kind=kind, rate=0.4, chunk=2, n_samples=10, seed=42)
        assert draw_samples(doc, cfg, index=index) == draw_samples(doc, cfg, index=index)


def test_empty_document_rejected():
    cfg = SamplerConfig(kind="random", rate=0.5, n_samples=1)
    with pytest.raises(ValueError, match="nothing to perturb"):
        random_sampler(doc_of([]), cfg, XorShift64Star(0))


def test_sample_invariants_hold():
    corpus = [Document("d", " ".join(f"t{i % 7:02d}" for i in range(24)))]
    index = build_index(corpus)
    doc = index.tokenized_doc("d")
    for kind in ("random", "masking", "tfidf"):
        cfg = SamplerConfig(kind=kind, rate=0.5, chunk=3, n_samples=25, seed=9)
        for sample in draw_samples(doc, cfg, index=index):
            check_sample_invariants(doc, sample)


def test_random_mean_distance_matches_rate():
    doc = doc_of([f"t{i:02d}" for i in range(40)])
    cfg = SamplerConfig(kind="random", rate=0.35, n_samples=10_000, seed=1)
    samples = random_sampler(doc, cfg, XorShift64Star(cfg.seed))
    mean = sum(map(removed_fraction, samples)) / len(samples)
    assert mean == pytest.approx(0.35, abs=0.02)


def test_masking_full_window_empties_doc():
    doc = doc_of(["qq", "ww", "zz"])
    cfg = SamplerConfig(kind="masking", rate=0.5, chunk=3, n_samples=4)
    for sample in masking_sampler(doc, cfg, XorShift64Star(0)):
        assert sample.kept_mask == (0, 0, 0)


def test_masking_rate_zero_identity():
    doc = doc_of(["qq", "ww", "zz", "yy"])
    cfg = SamplerConfig(kind="masking", rate=0.0, chunk=2, n_samples=4)
    for sample in masking_sampler(doc, cfg, XorShift64Star(0)):
        assert sample.kept_mask == (1, 1, 1, 1)


def test_masking_chunk_too_large():
    doc = doc_of(["qq", "ww"])
    cfg = SamplerConfig(kind="masking", rate=0.5, chunk=3, n_samples=1)
    with pytest.raises(ValueError, match="chunk"):
        masking_sampler(doc, cfg, XorShift64Star(0))


def test_masking_chunk_one_matches_random_expectation():
    # With unit windows the expected removal count must track the random
    # sampler's rate * n within the Monte-Carlo tolerance.
    n = 50
    doc = doc_of([f"t{i:02d}" for i in range(n)])
    cfg = SamplerConfig(kind="masking", rate=0.3, chunk=1, n_samples=10_000, seed=2)
    samples = masking_sampler(doc, cfg, XorShift64Star(cfg.seed))
    mean_removed = sum(map(removed_fraction, samples)) / len(samples)
    assert mean_removed == pytest.approx(0.3, abs=0.02)


def test_tfidf_uniform_weights_match_random_marginals():
    # All terms distinct and equally frequent corpus-wide: tf-idf is flat,
    # so per-position removal frequency must match the configured rate.
    tokens = [f"t{i:02d}" for i in range(20)]
    index = build_index([Document("d", " ".join(tokens)), Document("e", " ".join(tokens))])
    doc = index.tokenized_doc("d")
    cfg = SamplerConfig(kind="tfidf", rate=0.25, n_samples=10_000, seed=3)
    samples = tfidf_sampler(doc, index, cfg, XorShift64Star(cfg.seed))
    removed = [0] * len(tokens)
    for s in samples:
        for pos, keep in enumerate(s.kept_mask):
            removed[pos] += 1 - keep
    for pos in range(len(tokens)):
        assert removed[pos] / len(samples) == pytest.approx(0.25, abs=0.02)
        assert not samples[0].uniform_fallback


def test_tfidf_heavy_term_removed_most():
    heavy = ["hh"] * 5
    light = [f"l{i:02d}" for i in range(10)]
    index = build_index(
        [Document("d", " ".join(heavy + light))] +
        [Document(f"x{i}", f"l{i:02d} filler") for i in range(10)]
    )
    doc = index.tokenized_doc("d")
    cfg = SamplerConfig(kind="tfidf", rate=0.2, n_samples=10_000, seed=4)
    samples = tfidf_sampler(doc, index, cfg, XorShift64Star(cfg.seed))
    tokens = doc.tokens
    freq = {}
    for s in samples:
        for pos, keep in enumerate(s.kept_mask):
            freq[tokens[pos]] = freq.get(tokens[pos], 0) + (1 - keep)
    heavy_rate = freq["hh"] / (5 * len(samples))
    light_rates = [freq[t] / len(samples) for t in light]
    assert heavy_rate > max(light_rates)


def test_tfidf_rate_zero_identity():
    index = build_index([Document("d", "qq ww zz")])
    doc = index.tokenized_doc("d")
    cfg = SamplerConfig(kind="tfidf", rate=0.0, n_samples=3)
    for sample in tfidf_sampler(doc, index, cfg, XorShift64Star(0)):
        assert sample.kept_mask == (1, 1, 1)


def test_tfidf_fallback_on_unknown_terms():
    index = build_index([Document("other", "aa bb")])
    doc = doc_of(["uu", "vv", "uu"])
    cfg = SamplerConfig(kind="tfidf", rate=0.5, n_samples=5)
    samples = tfidf_sampler(doc, index, cfg, XorShift64Star(0))
    assert all(s.uniform_fallback for s in samples)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(kind="bogus")
    with pytest.raises(ValueError):
        SamplerConfig(rate=1.5)
    with pytest.raises(ValueError):
        SamplerConfig(chunk=0)
    with pytest.raises(ValueError):
        SamplerConfig(n_samples=0)
