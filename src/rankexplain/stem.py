"""Porter stemmer.

Implements the classic suffix-stripping algorithm (Porter, "An algorithm
for suffix stripping", 1980), including the two revisions from the
author's reference implementation (``bli -> ble`` and ``logi -> log``), so
that e.g. "biology" reduces to "biolog" and "definition" to "definit".
Words of length <= 2 are returned unchanged.

The vowels are ``a e i o u``, and ``y`` after a consonant; a ``y`` that
starts the word or follows a vowel is a consonant. Every other character
is a consonant: uppercase letters, digits and non-ASCII letters too. So
with ``lowercase=False`` an all-caps word is left mostly unstemmed
("RUNNING" stays "RUNNING") while "Running" becomes "Run".

A word's consonant-vowel pattern, one ``c`` or ``v`` per character, is
built once, and every condition reads it: the measure of the stem
``word[:k]`` is ``pattern[:k].count("vc")``, the stem contains a vowel if
``"v" in pattern[:k]``, and the ``*d`` and ``*o`` conditions read the
pattern's last characters. Whether a ``y`` is a vowel depends only on the
characters before it, so a stripped word's pattern is a prefix of the
old one; the pattern is rebuilt only when a step appends to the word.
"""

from __future__ import annotations

# c or v for each ASCII character, y left for _cv_pattern to decide;
# every character outside the table is a consonant.
_CV_TABLE = str.maketrans({**{chr(i): "c" for i in range(128)},
                           **dict.fromkeys("aeiou", "v"), "y": "y"})


def _cv_pattern(word: str) -> str:
    """``c`` for each consonant of word and ``v`` for each vowel."""
    cv = word.translate(_CV_TABLE)
    if not cv.isascii():
        cv = "".join(ch if ch.isascii() else "c" for ch in cv)
    if "y" in cv:
        chars = list(cv)
        for i, ch in enumerate(chars):
            if ch == "y":
                chars[i] = "v" if i and chars[i - 1] == "c" else "c"
        cv = "".join(chars)
    return cv


def _ends_double_consonant(word: str, cv: str) -> bool:
    """*d condition: the last two letters are equal and the last is a consonant."""
    return len(word) > 1 and word[-1] == word[-2] and cv[-1] == "c"


def _ends_cvc(word: str, cv: str) -> bool:
    """*o condition: ends consonant-vowel-consonant, final not w, x or y."""
    return cv.endswith("cvc") and word[-1] not in "wxy"


def _step1a(word: str) -> str:
    if word.endswith("s"):
        if word.endswith(("sses", "ies")):
            return word[:-2]
        if not word.endswith("ss"):
            return word[:-1]
    return word


def _step1b(word: str, cv: str) -> str:
    if word.endswith("eed"):
        return word[:-1] if "vc" in cv[:-3] else word
    if word.endswith("ed") and "v" in cv[:-2]:
        word, cv = word[:-2], cv[:-2]
    elif word.endswith("ing") and "v" in cv[:-3]:
        word, cv = word[:-3], cv[:-3]
    else:
        return word
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word, cv) and word[-1] not in "lsz":
        return word[:-1]
    if cv.count("vc") == 1 and _ends_cvc(word, cv):
        return word + "e"
    return word


def _step1c(word: str, cv: str) -> str:
    if word.endswith("y") and "v" in cv[:-1]:
        return word[:-1] + "i"
    return word


def _by_last_two_letters(rules: dict) -> dict:
    """rules' (suffix, replacement) pairs by the suffix's last two letters, longest suffix first."""
    groups: dict = {}
    for suffix in sorted(rules, key=len, reverse=True):
        groups.setdefault(suffix[-2:], []).append((suffix, rules[suffix]))
    return {ending: tuple(pairs) for ending, pairs in groups.items()}


_STEP2_RULES = _by_last_two_letters({
    "ational": "ate", "tional": "tion", "enci": "ence", "anci": "ance",
    "izer": "ize", "bli": "ble", "alli": "al", "entli": "ent", "eli": "e",
    "ousli": "ous", "ization": "ize", "ation": "ate", "ator": "ate",
    "alism": "al", "iveness": "ive", "fulness": "ful", "ousness": "ous",
    "aliti": "al", "iviti": "ive", "biliti": "ble",
})

_STEP3_RULES = _by_last_two_letters({
    "icate": "ic", "ative": "", "alize": "al", "iciti": "ic", "ical": "ic",
    "ful": "", "ness": "",
})

_STEP4_RULES = _by_last_two_letters(dict.fromkeys([
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
], ""))


def _replace_longest_suffix(word: str, cv: str, rules: dict, min_measure: int) -> str:
    """Rewrite the longest suffix in rules if the stem before it has measure >= min_measure.

    Only the longest match is tried (Porter's one-rule-per-step rule): if
    its condition fails, the word is left unchanged. Every suffix has at
    least two letters.
    """
    for suffix, replacement in rules.get(word[-2:], ()):
        if word.endswith(suffix):
            k = len(word) - len(suffix)
            return word[:k] + replacement if cv[:k].count("vc") >= min_measure else word
    return word


def _step2(word: str, cv: str) -> str:
    # The 'logi' departure keeps the 'l' with the stem, which makes short
    # stems like 'geo' or 'bio' measure positively. No other rule's suffix
    # ends in 'ogi'.
    if word.endswith("logi"):
        return word[:-1] if "vc" in cv[:-3] else word
    return _replace_longest_suffix(word, cv, _STEP2_RULES, 1)


def _step3(word: str, cv: str) -> str:
    return _replace_longest_suffix(word, cv, _STEP3_RULES, 1)


def _step4(word: str, cv: str) -> str:
    if word.endswith("ion") and not word.endswith(("sion", "tion")):
        return word
    return _replace_longest_suffix(word, cv, _STEP4_RULES, 2)


def _step5a(word: str, cv: str) -> str:
    if word.endswith("e"):
        m = cv[:-1].count("vc")
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1], cv[:-1])):
            return word[:-1]
    return word


def _step5b(word: str, cv: str) -> str:
    if word.endswith("ll") and cv.count("vc") > 1:
        return word[:-1]
    return word


# Each step after 1a with the last letters of the words it can rewrite;
# porter_stem does not call it for any other word.
_STEPS = (
    (_step1b, "dg"),
    (_step1c, "y"),
    (_step2, {ending[-1] for ending in _STEP2_RULES}),
    (_step3, {ending[-1] for ending in _STEP3_RULES}),
    (_step4, {ending[-1] for ending in _STEP4_RULES}),
    (_step5a, "e"),
    (_step5b, "l"),
)


def porter_stem(word: str) -> str:
    """Stem a single word; the module docstring says which characters are vowels."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    cv = _cv_pattern(word)
    for step, last_letters in _STEPS:
        if word[-1] in last_letters:
            stemmed = step(word, cv)
            if stemmed != word:
                cv = cv[:len(stemmed)] if word.startswith(stemmed) else _cv_pattern(stemmed)
                word = stemmed
    return word
