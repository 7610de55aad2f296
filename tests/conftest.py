from __future__ import annotations

from pathlib import Path

import pytest

from ontosearch.expand import DocumentCounts
from ontosearch.kb import load_kb

DATA_DIR = Path(__file__).parent / "data"

# Worked example shared by the annotation/expansion/CLI tests: a two-sentence
# document and a question that mention the sample KB's entities.
FIGURE_DOC = (
    "The California Compact has been in existence for several years. "
    "The California group is co-chaired by Stanford University President Don Kennedy."
)
FIGURE_QUERY = "Who is the president of Stanford University?"


@pytest.fixture(scope="session")
def figure_kb():
    return load_kb(DATA_DIR / "figure_kb.tsv")


@pytest.fixture(scope="session")
def figure_kb_path():
    return DATA_DIR / "figure_kb.tsv"


_ENTITY_SPACE_NAMES = ("N", "C", "NC", "I")


def counted_document(doc_id: str, bags: dict) -> DocumentCounts:
    """A counted document whose parts are `bags` (space name -> term -> tf), the
    rest empty: KW from `stems`, G's own part from `own`, and each N, C, NC or
    I term as an entity entry of its own, that term alone in its space's slot,
    counted tf times."""
    entities = {tuple((term,) if other == name else () for other in _ENTITY_SPACE_NAMES): tf
                for name, bag in bags.items() if name in _ENTITY_SPACE_NAMES for term, tf in bag.items()}
    return DocumentCounts(doc_id, _stems(bags.get("KW", {})), _stems(bags.get("G", {})), entities)


def _stems(bag: dict) -> dict:
    """stem -> tf of a bag of `k:` terms."""
    assert all(term.startswith("k:") for term in bag), bag
    return {term[2:]: tf for term, tf in bag.items()}
