"""Seeded synthetic corpora and topics for the benchmark.

Every random choice goes through the library's ``XorShift64Star``, so one
seed gives the same documents and topics on every platform. Words are a
root plus an inflectional suffix ("tavol", "tavoling", "tavolations"),
so the Porter stemmer does real work, and roots are drawn with a
Zipf-skewed distribution so postings lengths look like real text.
A few stopwords and capitalised sentence starts keep the analyzer busy.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from rankexplain.rng import XorShift64Star

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "dr", "gl", "pl", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u")
_CODAS = ("", "", "m", "n", "t")   # no "s", "l", "r": "-s", "-al", "-er" are suffixes to Porter
# Suffix weights favour bare and plural forms, as in running text.
_SUFFIXES = (("", 8), ("s", 4), ("ing", 3), ("ed", 3), ("er", 2), ("ers", 1),
             ("ation", 1), ("ations", 1), ("ness", 1), ("ful", 1), ("ly", 1),
             ("ize", 1), ("izes", 1), ("izing", 1), ("ement", 1), ("ements", 1))
_STOPWORDS = ("the", "of", "and", "a", "to", "in", "is", "with", "for", "on")
_STOPWORD_RATE = 0.15
# Root r is drawn with probability proportional to 1 / (r + _ZIPF_Q) ** _ZIPF_S
# (Zipf-Mandelbrot; the offset flattens the head).
_ZIPF_S = 1.0
_ZIPF_Q = 2.7


@dataclass(frozen=True)
class CorpusSpec:
    n_docs: int
    min_len: int             # words per document, stopwords included
    max_len: int
    n_roots: int


@dataclass(frozen=True)
class Corpus:
    docids: tuple
    texts: tuple
    roots: tuple             # by descending draw probability
    content_lengths: tuple   # non-stopword tokens per document


def _cumulative(weights) -> list:
    total = 0.0
    acc = []
    for w in weights:
        total += w
        acc.append(total)
    return [a / total for a in acc]


def _draw(rng: XorShift64Star, cumulative: list) -> int:
    return min(bisect.bisect_right(cumulative, rng.random()), len(cumulative) - 1)


def make_roots(rng: XorShift64Star, n: int) -> tuple:
    """n distinct pronounceable roots of two or three syllables."""
    roots: list = []
    seen: set = set()
    while len(roots) < n:
        syllables = 2 + rng.randbelow(2)
        root = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))
        root += rng.choice(_CODAS)
        if root not in seen:
            seen.add(root)
            roots.append(root)
    return tuple(roots)


def inflect(rng: XorShift64Star, root: str, suffix_cum: list) -> str:
    return root + _SUFFIXES[_draw(rng, suffix_cum)][0]


def make_corpus(seed: int, spec: CorpusSpec) -> Corpus:
    """Documents of spec.min_len..spec.max_len words, Zipf-skewed roots."""
    rng = XorShift64Star(seed)
    roots = make_roots(rng, spec.n_roots)
    root_cum = _cumulative(1.0 / (r + _ZIPF_Q) ** _ZIPF_S for r in range(spec.n_roots))
    suffix_cum = _cumulative(w for _, w in _SUFFIXES)
    docids, texts, lengths = [], [], []
    for i in range(spec.n_docs):
        n_words = spec.min_len + rng.randbelow(spec.max_len - spec.min_len + 1)
        words = []
        content = 0
        for _ in range(n_words):
            if rng.random() < _STOPWORD_RATE:
                words.append(rng.choice(_STOPWORDS))
            else:
                words.append(inflect(rng, roots[_draw(rng, root_cum)], suffix_cum))
                content += 1
        words[0] = words[0].capitalize()
        docids.append(f"d{i:05d}")
        texts.append(" ".join(words) + ".")
        lengths.append(content)
    return Corpus(tuple(docids), tuple(texts), roots, tuple(lengths))


def make_topics(seed: int, roots: tuple, n_topics: int, n_terms: int, band: tuple) -> list:
    """(raw query text, roots used) per topic, n_terms distinct roots each.

    Roots are dealt from shuffled decks of the ranks in roots[band[0]:
    band[1]], so any run of consecutive topics spans the band about evenly
    and one seed's topics cost about what another's do. Query words are
    the bare roots: a rare inflection can stem to a form few documents
    share, which would make one topic's candidate set far smaller than
    another's.
    """
    rng = XorShift64Star(seed)
    deck: list = []
    topics = []
    for _ in range(n_topics):
        picked: list = []
        while len(picked) < n_terms:
            if not deck:
                deck = list(roots[band[0]:band[1]])
                rng.shuffle(deck)
            root = deck.pop()
            if root not in picked:
                picked.append(root)
        topics.append((" ".join(picked), tuple(picked)))
    return topics


def pick_roots(seed: int, roots: tuple, count: int, band: tuple, exclude=()) -> tuple:
    """count distinct roots from roots[band[0]:band[1]], none of them in exclude."""
    rng = XorShift64Star(seed)
    lo, hi = band
    picked: list = []
    while len(picked) < count:
        root = roots[lo + rng.randbelow(hi - lo)]
        if root not in picked and root not in exclude:
            picked.append(root)
    return tuple(picked)
