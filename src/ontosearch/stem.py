"""Porter suffix-stripping stemmer (original 1980 rule set).

Deterministic, dependency-free implementation used by the keyword
tokenizer.  Inputs are case-folded before the rules run; characters
outside a-z (digits, hyphens) are treated as consonants, so hyphenated
tokens pass through the rules unharmed ("co-chaired" -> "co-chair").
"""

from __future__ import annotations

from functools import lru_cache

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a consonant unless it follows a consonant (TOY vs SYZYGY)
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences: [C](VC){m}[V]."""
    m = 0
    i = 0
    n = len(stem)
    while i < n and _is_consonant(stem, i):
        i += 1
    while i < n:
        while i < n and not _is_consonant(stem, i):
            i += 1
        if i >= n:
            break
        m += 1
        while i < n and _is_consonant(stem, i):
            i += 1
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """consonant-vowel-consonant ending where the last letter is not w, x, y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


# (suffix, replacement), steps 2 and 3 of `_replace_suffix`. Within each step
# only the longest matching suffix, the first listed, is considered; if the
# stem before it has measure 0 the step applies nothing.
_STEP2 = (
    ("ational", "ate"), ("ization", "ize"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("tional", "tion"),
    ("biliti", "ble"), ("ousli", "ous"), ("entli", "ent"),
    ("ation", "ate"), ("alism", "al"), ("aliti", "al"), ("iviti", "ive"),
    ("enci", "ence"), ("anci", "ance"), ("izer", "ize"), ("abli", "able"),
    ("alli", "al"), ("ator", "ate"), ("eli", "e"),
)

_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ness", ""), ("ful", ""),
)

_STEP4 = (
    "ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ion",
    "ism", "ate", "iti", "ous", "ive", "ize", "al", "er", "ic", "ou",
)


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    stripped = None
    if word.endswith("ed") and _has_vowel(word[:-2]):
        stripped = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
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
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _replace_suffix(word: str, rules: tuple[tuple[str, str], ...]) -> str:
    """Steps 2 and 3: the first rule whose suffix ends `word` replaces it, if the stem
    before it has measure > 0."""
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            return stem + replacement if _measure(stem) > 0 else word
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > 1:
                if suffix == "ion" and not stem.endswith(("s", "t")):
                    return word
                return stem
            return word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


@lru_cache(maxsize=None)
def stem(token: str) -> str:
    """Stem one token; tokens of length <= 2 pass through unchanged.

    Memoized: the function is pure, and a corpus repeats a small vocabulary
    of forms many times, so the cache grows with the vocabulary only.
    """
    word = token.casefold()
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _replace_suffix(word, _STEP2)
    word = _replace_suffix(word, _STEP3)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
