"""Document perturbation samplers for the pointwise explainers.

Each sampler removes tokens from an analyzed document. A sample records
only what the sampler decided: the kept-position mask, and whether the
tfidf sampler fell back to uniform removal. The pointwise explainers
derive everything else (surviving tokens, term presence, distance) from
the stacked masks. All randomness flows through the package's portable
PRNG, so a (document, config, seed) triple fully determines the output.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .analysis import TokenizedDocument
from .index import PositionalIndex, check_fields
from .rng import XorShift64Star

SAMPLER_KINDS = ("random", "masking", "tfidf")


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = field(default="random", metadata={"choices": SAMPLER_KINDS})
    rate: float = field(default=0.3, metadata={"in": "[0, 1]"})         # expected removal fraction
    chunk: int = field(default=3, metadata={"in": "[1, inf)"})          # window size, masking only
    n_samples: int = field(default=200, metadata={"in": "[1, inf)"})
    seed: int = field(default=0, metadata={"in": "(-inf, inf)"})

    def __post_init__(self):
        check_fields(self)


@dataclass
class PerturbedSample:
    kept_mask: tuple[int, ...]         # 1 where the position survives, 0 where removed
    uniform_fallback: bool = False


def _check_doc(doc: TokenizedDocument) -> None:
    if len(doc.tokens) == 0:
        raise ValueError(f"document {doc.docid!r} has no tokens: nothing to perturb")


def _bernoulli_samples(probs: list[float], n_samples: int, rng: XorShift64Star,
                       uniform_fallback: bool = False) -> list[PerturbedSample]:
    """Remove position p when a fresh random() falls below probs[p]."""
    return [PerturbedSample(tuple([0 if rng.random() < p else 1 for p in probs]), uniform_fallback)
            for _ in range(n_samples)]


def random_sampler(doc: TokenizedDocument, config: SamplerConfig,
                   rng: XorShift64Star) -> list[PerturbedSample]:
    """Remove each token independently with probability config.rate."""
    _check_doc(doc)
    return _bernoulli_samples([config.rate] * len(doc.tokens), config.n_samples, rng)


def _masking_window_count(n: int, chunk: int, rate: float) -> int:
    """Windows needed so the expected removed fraction is about rate.

    Starts are uniform over the n - chunk + 1 admissible offsets and
    windows may overlap; removal is their union. Solving
    1 - (1 - chunk/starts)**k = rate for k gives the count below.
    """
    if rate <= 0.0:
        return 0
    starts = n - chunk + 1
    per_window = chunk / starts
    if per_window >= 1.0:
        return 1
    if rate >= 1.0:
        # No finite k reaches full coverage in expectation; flood instead.
        return max(1, math.ceil(math.log(1.0 / n) / math.log(1.0 - per_window)))
    return max(1, round(math.log(1.0 - rate) / math.log(1.0 - per_window)))


def masking_sampler(doc: TokenizedDocument, config: SamplerConfig,
                    rng: XorShift64Star) -> list[PerturbedSample]:
    """Remove whole contiguous windows of config.chunk tokens."""
    _check_doc(doc)
    n = len(doc.tokens)
    if config.chunk > n:
        raise ValueError(f"chunk {config.chunk} exceeds document length {n}")
    k = _masking_window_count(n, config.chunk, config.rate)
    starts = n - config.chunk + 1
    samples = []
    for _ in range(config.n_samples):
        mask = [1] * n
        for _ in range(k):
            start = rng.randbelow(starts)
            for pos in range(start, start + config.chunk):
                mask[pos] = 0
        samples.append(PerturbedSample(tuple(mask)))
    return samples


def tfidf_sampler(doc: TokenizedDocument, index: PositionalIndex, config: SamplerConfig,
                  rng: XorShift64Star) -> list[PerturbedSample]:
    """Remove positions with probability proportional to their tf-idf.

    Position p holding term t is removed with probability
    min(1, rate * n * w(p) / sum(w)) where w(p) = tf(t, doc) * idf(t), so
    uniform weights reduce to the random sampler's marginals and heavy
    terms are removed more often. If every weight is zero (terms unknown
    to the index) the sampler falls back to uniform removal and flags the
    samples.
    """
    _check_doc(doc)
    n = len(doc.tokens)
    counts = Counter(doc.tokens)
    weights = [counts[t] * index.idf(t) for t in doc.tokens]
    total = sum(weights)
    fallback = total <= 0.0
    if fallback:
        probs = [config.rate] * n
    else:
        probs = [min(1.0, config.rate * n * w / total) for w in weights]
    return _bernoulli_samples(probs, config.n_samples, rng, uniform_fallback=fallback)


def draw_samples(doc: TokenizedDocument, config: SamplerConfig,
                 index: PositionalIndex | None = None) -> list[PerturbedSample]:
    """Dispatch on config.kind with a PRNG seeded from config.seed."""
    rng = XorShift64Star(config.seed)
    if config.kind == "random":
        return random_sampler(doc, config, rng)
    if config.kind == "masking":
        return masking_sampler(doc, config, rng)
    if index is None:
        raise ValueError("tfidf sampler needs the index")
    return tfidf_sampler(doc, index, config, rng)
