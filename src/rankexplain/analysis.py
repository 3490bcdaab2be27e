"""Text analysis: tokenization, stopping, and stemming.

The analyzer chain is fixed and deterministic: lowercase, split into
contiguous alphanumeric runs, drop stopwords, Porter-stem. An analyzer
remembers the term each word became, so it stems each distinct word once
over all the texts it analyzes; ``build_index`` uses one analyzer for the
whole corpus, ``tokenize`` a fresh one per call. Positions used anywhere
in the package refer to indices in the post-analysis token stream, i.e.
stopwords are removed before positions are assigned.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .stem import porter_stem

# The classic 33-word Lucene English stopword list. Small enough to stay
# out of the way, large enough to drop the usual function words.
ENGLISH_STOPWORDS = frozenset(
    """a an and are as at be but by for if in into is it no not of on or
    such that the their then there these they this to was will with""".split()
)

_DEFAULT_TOKEN_PATTERN = r"[0-9A-Za-z]+"


def _check_keys(what: str, data, keys: set) -> None:
    """Reject anything but a JSON object with exactly ``keys``, naming the key at fault."""
    if type(data) is not dict:
        raise ValueError(f"{what} must be a JSON object with keys {', '.join(sorted(keys))}")
    wrong = sorted(keys ^ data.keys())     # keys missing or unknown
    if wrong:
        raise ValueError(f"{what} {'has no' if wrong[0] in keys else 'has an unknown'} key {wrong[0]!r}")


def _unique_keys(pairs: list) -> dict:
    """The dict of a JSON object's (key, value) pairs; a ValueError names a key it repeats.

    The ``object_pairs_hook`` of every JSON reader here: without it ``json``
    keeps a repeated key's last value.
    """
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r} in a JSON object")
        data[key] = value
    return data


@dataclass(frozen=True)
class AnalyzerConfig:
    """Configuration of the analysis chain. Equal configs tokenize equally."""

    lowercase: bool = True
    stem: bool = True
    stopwords: frozenset = ENGLISH_STOPWORDS
    token_pattern: str = _DEFAULT_TOKEN_PATTERN

    def __post_init__(self):
        pattern = self.token_pattern
        try:
            groups = re.compile(pattern).groups
        except re.error as exc:
            raise ValueError(f"analyzer config 'token_pattern' {pattern!r} does not compile: {exc}") from exc
        if groups:      # findall would return the groups instead of the tokens
            raise ValueError(f"analyzer config 'token_pattern' {pattern!r} has capture groups; use (?:...)")

    def to_dict(self) -> dict:
        return {
            "lowercase": self.lowercase,
            "stem": self.stem,
            "stopwords": sorted(self.stopwords),
            "token_pattern": self.token_pattern,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalyzerConfig":
        _check_keys("analyzer config", data, {"lowercase", "stem", "stopwords", "token_pattern"})
        for key in ("lowercase", "stem"):
            if type(data[key]) is not bool:
                raise ValueError(f"analyzer config {key!r} must be true or false, got {data[key]!r}")
        stopwords, pattern = data["stopwords"], data["token_pattern"]
        if type(stopwords) is not list or not all(type(w) is str for w in stopwords):
            raise ValueError("analyzer config 'stopwords' must be a list of strings")
        if type(pattern) is not str:
            raise ValueError(f"analyzer config 'token_pattern' must be a string, got {pattern!r}")
        return cls(data["lowercase"], data["stem"], frozenset(stopwords), pattern)


DEFAULT_CONFIG = AnalyzerConfig()


class _Analyzer:
    """The analysis chain of one config, with a memo from word to term.

    A word's term is None for a stopword or the empty word, else the word
    Porter-stemmed (or left as it is without stemming). ``porter_stem`` is
    looked up when a word is first seen, so a replaced module attribute is
    the one called. Words with equal terms may give distinct but equal
    term objects; an index keeps ordinals into its vocabulary, not these.
    """

    def __init__(self, config: AnalyzerConfig):
        self._config = config
        self._split = re.compile(config.token_pattern).findall
        self._terms: dict[str, str | None] = {}

    def _term(self, word: str) -> str | None:
        if not word or word in self._config.stopwords:     # a pattern may match ''
            return None
        return porter_stem(word) if self._config.stem else word

    def __call__(self, text: str) -> list[str]:
        if self._config.lowercase:
            text = text.lower()
        words = self._split(text)
        self._terms.update({word: self._term(word) for word in set(words).difference(self._terms)})
        return [t for t in map(self._terms.__getitem__, words) if t is not None]


def tokenize(text: str, config: AnalyzerConfig = DEFAULT_CONFIG) -> list[str]:
    """Analyze raw text into a list of normalized terms.

    Steps, in order: lowercase, split on non-alphanumeric characters,
    stopword removal, Porter stemming. Empty input yields an empty list.
    """
    return _Analyzer(config)(text)


@dataclass(frozen=True)
class TokenizedDocument:
    """A document after analysis; position i is the i-th surviving token."""

    docid: str
    tokens: tuple[str, ...] = field(default_factory=tuple)

    def distinct_terms(self) -> list[str]:
        return sorted(set(self.tokens))
