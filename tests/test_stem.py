"""Frozen transformation vectors for the suffix-stripping stemmer.

Each pair is the published example for one rule, traced through the full
rule pipeline (so e.g. "agreed" ends at "agre", not step 1b's "agree").
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ontosearch.stem import stem

VECTORS = [
    # plurals and -ed / -ing
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    # y -> i
    ("happy", "happi"),
    ("sky", "sky"),
    # double and triple suffixes
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("feudalism", "feudal"),
    ("callousness", "callous"),
    ("formality", "formal"),
    ("sensibility", "sensibl"),
    ("vilely", "vile"),
    ("hopefulness", "hope"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electricity", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    # bare-stem suffixes
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("homologous", "homolog"),
    # final -e and -ll
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controlling", "control"),
    ("rolling", "roll"),
    ("nation", "nation"),
    # words the retrieval fixtures lean on
    ("president", "presid"),
    ("presidents", "presid"),
    ("university", "univers"),
    ("universities", "univers"),
    ("existence", "exist"),
    ("countries", "countri"),
    ("country", "countri"),
    ("joined", "join"),
    ("newly", "newli"),
    ("years", "year"),
    ("chaired", "chair"),
    ("co-chaired", "co-chair"),
    ("organization", "organ"),
]


@pytest.mark.parametrize("word,expected", VECTORS)
def test_known_vectors(word, expected):
    assert stem(word) == expected


def test_short_tokens_unchanged():
    for token in ("a", "ab", "is", "i", "42"):
        assert stem(token) == token


def test_case_folding():
    assert stem("President") == stem("president") == "presid"


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
def test_idempotent_enough_for_indexing(word):
    # a stem never grows, and stemming is deterministic
    first = stem(word)
    assert len(first) <= len(word)
    assert stem(word) == first


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=3, max_size=20))
def test_never_raises_on_token_charset(word):
    stem(word)


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyzABC0123456789-", max_size=20))
def test_memoized_stem_equals_the_rules(word):
    assert stem(word) == stem.__wrapped__(word)
