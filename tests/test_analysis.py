import itertools
import re
import runpy
import string
from pathlib import Path

from hypothesis import given, settings, strategies as st

import porter_reference
import rankexplain.analysis
from rankexplain import Document, stem, PositionalIndex, build_index, read_corpus_jsonl
from rankexplain.analysis import (
    DEFAULT_CONFIG,
    ENGLISH_STOPWORDS,
    AnalyzerConfig,
    TokenizedDocument,
    tokenize,
)
from rankexplain.datasets import demo_corpus_path
from rankexplain.rng import XorShift64Star
from rankexplain.stem import porter_stem

from conftest import index_state, make_vocab, random_corpus


def reference_tokenize(text, config):
    """The analysis chain without a memo: every token is stemmed. Empty matches are not terms."""
    if config.lowercase:
        text = text.lower()
    tokens = [t for t in re.findall(config.token_pattern, text) if t]
    if config.stopwords:
        tokens = [t for t in tokens if t not in config.stopwords]
    if config.stem:
        tokens = [porter_stem(t) for t in tokens]
    return tokens


def reference_index(corpus, config=DEFAULT_CONFIG):
    """The constructor's index of the reference token streams, in sorted docid order."""
    streams = {doc.docid: reference_tokenize(doc.text, config) for doc in sorted(corpus, key=lambda d: d.docid)}
    vocabulary = sorted({t for tokens in streams.values() for t in tokens})
    ordinal = {t: u for u, t in enumerate(vocabulary)}
    stream = [ordinal[t] for tokens in streams.values() for t in tokens]
    return PositionalIndex({d: len(tokens) for d, tokens in streams.items()}, stream, vocabulary, config)


# Stopwords, words of two characters or fewer, digits and mixed case: the
# cases where the chain's order matters or the stemmer returns its input.
STOCK_WORDS = ["The", "the", "AND", "of", "a", "I", "is", "Be", "ox", "xy", "42", "2024",
               "a1b2", "Running", "RUNS", "runner", "happy", "Happiness", "conditional",
               "CONDITION", "flies", "sky", "w07", "caresses", "agreed", "feed"]
SEPARATORS = [" ", "  ", "-", ", ", ".\n", "'", "_", "\t"]

words = st.one_of(st.sampled_from(STOCK_WORDS),
                  st.text("abcdeiosyAEYZ019", min_size=1, max_size=9))
texts = st.lists(st.tuples(words, st.sampled_from(SEPARATORS)), max_size=40).map(
    lambda parts: "".join(w + sep for w, sep in parts))
configs = st.sampled_from([
    DEFAULT_CONFIG,
    AnalyzerConfig(stem=False),
    AnalyzerConfig(stopwords=frozenset({"runs", "happy", "ox", "42"})),
    AnalyzerConfig(stopwords=frozenset()),
    AnalyzerConfig(lowercase=False, stopwords=frozenset({"The", "a"})),
    AnalyzerConfig(token_pattern=r"[a-z]*"),     # also matches empty strings
    AnalyzerConfig(token_pattern=r"(?:[a-z]|\d\d)+"),    # a group that captures nothing
])

ANALYSIS_SETTINGS = settings(max_examples=100, deadline=None)


def test_empty_text():
    assert tokenize("") == []


def test_stemmed_query_terms():
    assert tokenize("Exons definition BIOLOGY") == ["exon", "definit", "biolog"]


def test_all_stopwords():
    config = AnalyzerConfig(stopwords=frozenset({"the"}))
    assert tokenize("the the the", config) == []


def test_chain_order_lowercase_split_stop_stem():
    # "The" must be lowercased before the stopword check removes it.
    assert tokenize("The Stroke") == ["stroke"]


def test_punctuation_splits_tokens():
    assert tokenize("high-risk, clot.") == ["high", "risk", "clot"]


def test_deterministic():
    text = "Daily life of Thai people, with sanuk everywhere."
    assert tokenize(text) == tokenize(text)


def test_no_stem_config():
    config = AnalyzerConfig(stem=False, stopwords=frozenset())
    assert tokenize("exons definition", config) == ["exons", "definition"]


def test_empty_matches_are_not_terms():
    assert tokenize("ab cd", AnalyzerConfig(token_pattern="[a-z]*")) == ["ab", "cd"]
    assert tokenize("xab x", AnalyzerConfig(token_pattern="(?=x)")) == []


def test_stopword_list_contents():
    assert "the" in ENGLISH_STOPWORDS
    assert "what" not in ENGLISH_STOPWORDS


def test_idempotent_on_own_output():
    rng = XorShift64Star(11)
    vocab = make_vocab(30)
    for doc in random_corpus(rng, 20, vocab):
        tokens = tokenize(doc.text)
        assert tokenize(" ".join(tokens)) == tokens


def test_mostly_idempotent_on_demo_vocabulary(demo_index):
    # Canonical Porter re-stems a handful of its own outputs (e.g.
    # "becaus" -> "becau"); such terms must stay rare.
    unstable = [t for t in demo_index.vocabulary if tokenize(t) not in ([t], [])]
    assert len(unstable) <= 0.05 * len(demo_index.vocabulary), unstable


def test_porter_known_pairs():
    pairs = {
        "caresses": "caress", "ponies": "poni", "flies": "fli", "dies": "di",
        "agreed": "agre", "plastered": "plaster", "motoring": "motor",
        "hopping": "hop", "falling": "fall", "filing": "file", "sized": "size",
        "happy": "happi", "sky": "sky", "relational": "relat",
        "conditional": "condit", "rational": "ration", "generalization": "gener",
        "oscillators": "oscil", "biology": "biolog", "definition": "definit",
        "exons": "exon", "arteries": "arteri", "everyday": "everydai",
        "people": "peopl", "together": "togeth", "stroke": "stroke",
        "controll": "control", "roll": "roll",
        # y after a consonant is a vowel; every character but a e i o u y
        # is a consonant, uppercase letters, digits and non-ASCII included
        "yyy": "yyi", "syzygy": "syzygi", "crying": "cry", "Ying": "Ying",
        "RUNNING": "RUNNING", "Running": "Run", "a1b2ing": "a1b2",
        "naïvely": "naïv", "añoing": "año",
    }
    for word, stem in pairs.items():
        assert porter_stem(word) == stem, word


def test_measure_of_porters_examples():
    # Porter (1980): m=0 TR, EE, TREE, Y, BY; m=1 TROUBLE, OATS, TREES, IVY;
    # m=2 TROUBLES, PRIVATE, OATEN, ORRERY
    for m, words in enumerate([["tr", "ee", "tree", "y", "by"],
                               ["trouble", "oats", "trees", "ivy"],
                               ["troubles", "private", "oaten", "orrery"]]):
        assert [stem._cv_pattern(w).count("vc") for w in words] == [m] * len(words)


def test_tokenized_positions_are_token_indices():
    doc = TokenizedDocument("x", tuple(tokenize("the cat sat on the mat")))
    # stopwords removed before positions are assigned
    assert doc.tokens == ("cat", "sat", "mat")
    assert doc.distinct_terms() == ["cat", "mat", "sat"]


@ANALYSIS_SETTINGS
@given(texts, configs)
def test_tokenize_equals_reference_chain(text, config):
    assert tokenize(text, config) == reference_tokenize(text, config)


@ANALYSIS_SETTINGS
@given(st.integers(0, 2**64 - 1), st.integers(0, 10), st.integers(1, 15), configs)
def test_build_index_equals_reference_chain(seed, n_docs, max_len, config):
    vocab = make_vocab(4) + STOCK_WORDS
    corpus = random_corpus(XorShift64Star(seed), n_docs, vocab, min_len=0, max_len=max_len)
    assert index_state(build_index(corpus, config)) == index_state(reference_index(corpus, config))


def test_build_index_stems_each_distinct_word_once(monkeypatch):
    calls = []

    def counting_stem(word):
        calls.append(word)
        return porter_stem(word)

    monkeypatch.setattr(rankexplain.analysis, "porter_stem", counting_stem)
    corpus = [Document("d1", "The runner runs; the runners RUN and run."),
              Document("d2", "Runs of the happy runner, happily running"),
              Document("d3", "")]
    distinct = {w for doc in corpus for w in re.findall(r"[0-9a-z]+", doc.text.lower())
                if w not in ENGLISH_STOPWORDS}
    index = build_index(corpus)
    assert sorted(calls) == sorted(distinct)
    assert index_state(index) == index_state(reference_index(corpus))
    build_index(corpus)
    assert len(calls) == 2 * len(distinct)
    tokenize("runs runs RUNS")
    tokenize("runs")
    assert calls[2 * len(distinct):] == ["runs", "runs"]


# -- Porter steps 2 to 4 against the rule scans they replaced -------------------

REFERENCE_STEP2_RULES = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("bli", "ble"), ("alli", "al"), ("entli", "ent"), ("eli", "e"),
    ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"), ("ator", "ate"),
    ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous"),
    ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]
REFERENCE_STEP3_RULES = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"), ("ical", "ic"),
    ("ful", ""), ("ness", ""),
]
REFERENCE_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def reference_apply_rules(word, rules):
    best = None
    for suffix, replacement, condition in rules:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best[0])):
            best = (suffix, replacement, condition)
    if best is None:
        return None
    suffix, replacement, condition = best
    base = word[: len(word) - len(suffix)]
    if condition is None or condition(base):
        return base + replacement
    return word


def reference_step2(word):
    """Step 2 as first written: a fresh rule list per call, scanned twice."""
    if word.endswith("logi") and porter_reference._measure(word[:-3]) > 0:
        return word[:-3] + "og"
    if reference_apply_rules(word, [(s, r, None) for s, r in REFERENCE_STEP2_RULES]) is None:
        return word
    best = max((s for s, _ in REFERENCE_STEP2_RULES if word.endswith(s)), key=len)
    base = word[: len(word) - len(best)]
    return base + dict(REFERENCE_STEP2_RULES)[best] if porter_reference._measure(base) > 0 else word


def reference_step3(word):
    result = reference_apply_rules(
        word, [(s, r, lambda base: porter_reference._measure(base) > 0)
               for s, r in REFERENCE_STEP3_RULES])
    return word if result is None else result


def reference_step4(word):
    matched = [s for s in REFERENCE_STEP4_SUFFIXES if word.endswith(s)]
    if not matched:
        return word
    suffix = max(matched, key=len)
    base = word[: len(word) - len(suffix)]
    if porter_reference._measure(base) <= 1:
        return word
    if suffix == "ion" and not base.endswith(("s", "t")):
        return word
    return base


RULE_SUFFIXES = sorted({s for s, _ in REFERENCE_STEP2_RULES + REFERENCE_STEP3_RULES}
                       | set(REFERENCE_STEP4_SUFFIXES) | {"logi"})
lowercase_words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=12)
stem_inputs = st.one_of(
    lowercase_words,
    st.builds(lambda head, suffix: head + suffix, lowercase_words, st.sampled_from(RULE_SUFFIXES)),
)


@settings(max_examples=500, deadline=None)
@given(stem_inputs)
def test_porter_steps_2_to_4_equal_rule_scans(word):
    cv = stem._cv_pattern(word)
    assert stem._step2(word, cv) == reference_step2(word)
    assert stem._step3(word, cv) == reference_step3(word)
    assert stem._step4(word, cv) == reference_step4(word)


# -- the whole stemmer against the reference copy --------------------------------

STEP1_SUFFIXES = ["sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y", "e", "ll"]
heads = st.text(alphabet="abcdeilnorstuvwyzYïñ", max_size=8)
any_words = st.one_of(
    st.text(max_size=12),                                    # the full Unicode alphabet
    st.text(max_size=12).map(str.upper),
    st.text(alphabet=string.ascii_letters + string.digits + "ïñÿÏ", max_size=12),
    st.builds(lambda parts, tail: "".join(parts) + tail,             # y-runs
              st.lists(st.sampled_from(["y", "yy", "yyy", "Y", "a", "e", "u", "b", "r", "s", "ï"]),
                       max_size=8),
              st.sampled_from([""] + STEP1_SUFFIXES)),
    st.builds(lambda head, tail: head + "".join(tail), heads,
              st.lists(st.sampled_from(RULE_SUFFIXES + STEP1_SUFFIXES), min_size=1, max_size=3)),
)


@settings(max_examples=500, deadline=None)
@given(any_words)
def test_porter_stem_equals_the_reference(word):
    assert porter_stem(word) == porter_reference.porter_stem(word)


def test_porter_stem_equals_the_reference_on_every_short_y_word():
    # Whether a y is a vowel depends on the letters before it, so enumerate
    # every word of up to six of a, b and y, with each step-1 suffix.
    words = ["".join(letters) + tail for n in range(7) for letters in itertools.product("aby", repeat=n)
             for tail in [""] + STEP1_SUFFIXES]
    assert [porter_stem(w) for w in words] == [porter_reference.porter_stem(w) for w in words]


def bench_corpus_words(seed):
    """Every word a bench corpus at seed can hold: each root with each suffix, and the stopwords.

    All three workloads draw their roots from one generator seeded with
    the bench seed, so the 2000 roots of the largest are a superset of the
    others'.
    """
    corpus = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "corpus.py"))
    roots = corpus["make_roots"](XorShift64Star(seed), 2000)
    return {root + suffix for root in roots for suffix, _ in corpus["_SUFFIXES"]} | set(corpus["_STOPWORDS"])


def test_porter_stem_equals_the_reference_on_bench_and_demo_words():
    words = bench_corpus_words(1)
    for doc in read_corpus_jsonl(demo_corpus_path()):
        tokens = re.findall(DEFAULT_CONFIG.token_pattern, doc.text)
        words.update(tokens, (t.lower() for t in tokens))
    assert len(words) > 30000
    assert [porter_stem(w) for w in words] == [porter_reference.porter_stem(w) for w in words]
