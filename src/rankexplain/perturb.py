"""Document perturbation samplers for the pointwise explainers.

Each sampler removes tokens from an analyzed document and returns one
:class:`PerturbationBatch`: a read-only (samples x positions) bool matrix,
True where a position survives, and whether the tfidf sampler fell back to
uniform removal. The matrix is filled from one block of the package's
portable PRNG stream, whose row-major order is the order of the draws, so
a (document, config, seed) triple fully determines the output. The
pointwise explainers derive everything else (term presence, distance,
the scores of the variants) from the matrix.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .analysis import TokenizedDocument
from .index import PositionalIndex, check_fields, left_sum
from .rng import XorShift64Star, block_u64

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


class PerturbedSample:
    """One row of a batch. ``kept_mask`` is built, as a tuple of 0/1, when read."""

    __slots__ = ("_row", "uniform_fallback")

    def __init__(self, row: np.ndarray, uniform_fallback: bool = False):
        self._row = row
        self.uniform_fallback = uniform_fallback

    @property
    def kept_mask(self) -> tuple[int, ...]:
        """1 where the position survives, 0 where it was removed."""
        return tuple(self._row.view(np.uint8).tolist())


class PerturbationBatch(Sequence):
    """n_samples perturbations of one document, as a sequence of :class:`PerturbedSample`.

    ``kept`` is the read-only (samples x positions) bool matrix;
    ``uniform_fallback`` holds for every sample.
    """

    def __init__(self, kept: np.ndarray, uniform_fallback: bool = False):
        kept.flags.writeable = False
        self.kept = kept
        self.uniform_fallback = uniform_fallback

    def __len__(self) -> int:
        return len(self.kept)

    def __getitem__(self, i: int) -> PerturbedSample:
        return PerturbedSample(self.kept[operator.index(i)], self.uniform_fallback)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PerturbationBatch) and self.uniform_fallback == other.uniform_fallback
                and np.array_equal(self.kept, other.kept))


def _check_doc(doc: TokenizedDocument) -> None:
    if len(doc.tokens) == 0:
        raise ValueError(f"document {doc.docid!r} has no tokens: nothing to perturb")


def _bernoulli_samples(probs: list[float], n_samples: int, rng: XorShift64Star,
                       uniform_fallback: bool = False) -> PerturbationBatch:
    """Remove position p of a sample when its draw falls below probs[p].

    The test is ``random() < probs[p]``, made on integers: random() is
    k * 2**-53 for k the draw's 53 high bits, and p * 2**53 is exact for p
    in [0, 1], so k * 2**-53 < p exactly when k < ceil(p * 2**53). The
    (samples x positions) block of draws is shifted to k in place and
    compared with those thresholds; no float is made from a draw.
    """
    thresholds = np.ceil(np.array(probs) * 2.0 ** 53).astype(np.uint64)
    draws = block_u64(rng, n_samples * len(probs)).reshape(n_samples, len(probs))
    draws >>= 11
    return PerturbationBatch(draws >= thresholds, uniform_fallback)


def random_sampler(doc: TokenizedDocument, config: SamplerConfig,
                   rng: XorShift64Star) -> PerturbationBatch:
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
                    rng: XorShift64Star) -> PerturbationBatch:
    """Remove whole contiguous windows of config.chunk tokens."""
    _check_doc(doc)
    n = len(doc.tokens)
    if config.chunk > n:
        raise ValueError(f"chunk {config.chunk} exceeds document length {n}")
    k = _masking_window_count(n, config.chunk, config.rate)
    starts = n - config.chunk + 1
    # Each sample's k window starts, as randbelow(starts) draws them.
    first = (block_u64(rng, config.n_samples * k) % np.uint64(starts)).astype(np.intp)
    windows = first.reshape(config.n_samples, k, 1) + np.arange(config.chunk)
    kept = np.ones((config.n_samples, n), dtype=bool)
    kept[np.arange(config.n_samples)[:, None, None], windows] = False
    return PerturbationBatch(kept)


def tfidf_sampler(doc: TokenizedDocument, index: PositionalIndex, config: SamplerConfig,
                  rng: XorShift64Star) -> PerturbationBatch:
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
    total = left_sum(weights)
    fallback = total <= 0.0
    if fallback:
        probs = [config.rate] * n
    else:
        probs = [min(1.0, config.rate * n * w / total) for w in weights]
    return _bernoulli_samples(probs, config.n_samples, rng, uniform_fallback=fallback)


def draw_samples(doc: TokenizedDocument, config: SamplerConfig,
                 index: PositionalIndex | None = None) -> PerturbationBatch:
    """Dispatch on config.kind with a PRNG seeded from config.seed."""
    rng = XorShift64Star(config.seed)
    if config.kind == "random":
        return random_sampler(doc, config, rng)
    if config.kind == "masking":
        return masking_sampler(doc, config, rng)
    if index is None:
        raise ValueError("tfidf sampler needs the index")
    return tfidf_sampler(doc, index, config, rng)
