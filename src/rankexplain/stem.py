"""Porter stemmer.

Implements the classic suffix-stripping algorithm, including the two
revisions from the author's reference implementation (``bli -> ble`` and
``logi -> log``), so that e.g. "biology" reduces to "biolog" and
"definition" to "definit". Words of length <= 2 are returned unchanged.
"""

from __future__ import annotations

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return True if i == 0 else not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences: [C](VC)^m[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """*o condition: ends consonant-vowel-consonant, final not w, x or y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _step1a(word: str) -> str:
    for suffix, replacement in (("sses", "ss"), ("ies", "i"), ("ss", "ss"), ("s", "")):
        if word.endswith(suffix):
            return word[: len(word) - len(suffix)] + replacement
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    stripped = None
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        stripped = word[:-2]
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        stripped = word[:-3]
    if stripped is None:
        return word
    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    if _ends_double_consonant(stripped) and stripped[-1] not in "lsz":
        return stripped[:-1]
    if _measure(stripped) == 1 and _ends_cvc(stripped):
        return stripped + "e"
    return stripped


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2_RULES = {
    "ational": "ate",
    "tional": "tion",
    "enci": "ence",
    "anci": "ance",
    "izer": "ize",
    "bli": "ble",
    "alli": "al",
    "entli": "ent",
    "eli": "e",
    "ousli": "ous",
    "ization": "ize",
    "ation": "ate",
    "ator": "ate",
    "alism": "al",
    "iveness": "ive",
    "fulness": "ful",
    "ousness": "ous",
    "aliti": "al",
    "iviti": "ive",
    "biliti": "ble",
}

_STEP3_RULES = {
    "icate": "ic",
    "ative": "",
    "alize": "al",
    "iciti": "ic",
    "ical": "ic",
    "ful": "",
    "ness": "",
}

_STEP4_SUFFIXES = frozenset([
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
])

_LONGEST_SUFFIX = max(map(len, [*_STEP2_RULES, *_STEP3_RULES, *_STEP4_SUFFIXES]))


def _longest_suffix(word: str, suffixes):
    """The longest member of suffixes that word ends with, or None; at most seven lookups."""
    for n in range(_LONGEST_SUFFIX, 0, -1):
        if word[-n:] in suffixes:
            return word[-n:]
    return None


def _replace_longest_suffix(word: str, rules: dict) -> str:
    """Rewrite the longest matching suffix if the remaining stem has m > 0.

    Only the longest match is tried (Porter's one-rule-per-step rule): if
    its condition fails, the word is left unchanged.
    """
    suffix = _longest_suffix(word, rules)
    if suffix is None:
        return word
    stem = word[: len(word) - len(suffix)]
    return stem + rules[suffix] if _measure(stem) > 0 else word


def _step2(word: str) -> str:
    # The 'logi' departure keeps the 'l' with the stem, which makes short
    # stems like 'geo' or 'bio' measure positively.
    if word.endswith("logi") and _measure(word[:-3]) > 0:
        return word[:-3] + "og"
    return _replace_longest_suffix(word, _STEP2_RULES)


def _step3(word: str) -> str:
    return _replace_longest_suffix(word, _STEP3_RULES)


def _step4(word: str) -> str:
    suffix = _longest_suffix(word, _STEP4_SUFFIXES)
    if suffix is None:
        return word
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) <= 1:
        return word
    if suffix == "ion" and not stem.endswith(("s", "t")):
        return word
    return stem


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


def porter_stem(word: str) -> str:
    """Stem a single lowercase word."""
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _step2(word)
    word = _step3(word)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
