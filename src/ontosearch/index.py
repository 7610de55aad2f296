"""Immutable per-space inverted indexes with tf-idf weights and document norms.

Weighting is the classic tf * ln(n_docs / df), with df computed per space:
a term's document frequency counts documents within the one space it lives
in. Build output is canonical (rosters, postings, and norm accumulation all
follow sorted order), so any permutation of the input stream produces a
bit-identical bundle, and partial indexes built over document shards can be
merged in any order.

On-disk layout is a directory with `manifest.tsv` plus one file per space.
A space file carries the postings lines (`term<TAB>df<TAB>doc:tf,...`,
sorted by serialized term) followed by the norm lines (`doc_id<TAB>norm`,
12 significant digits); the two line kinds differ in field count. Because
postings entries use `:` and `,` as separators, doc_ids may not contain
them. Norms are recomputed from the exact tf/df integers at load time and
the stored values are only verified, so a loaded index scores bit-identically
to a freshly built one.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

from .expand import DocRepresentation, GeneralizedTerm, Space, parse_term, serialize_term

_FORBIDDEN_IN_DOC_ID = (":", ",", "\t", "\n")


class Posting(NamedTuple):
    doc_id: str
    tf: int


@dataclass
class SpaceIndex:
    postings: dict[GeneralizedTerm, tuple[Posting, ...]]
    df: dict[GeneralizedTerm, int]
    doc_norms: dict[str, float]
    n_docs: int


@dataclass
class IndexBundle:
    spaces: dict[Space, SpaceIndex]
    doc_ids: tuple[str, ...]


def tfidf_weight(tf: int, df: int, n_docs: int) -> float:
    """tf * ln(n_docs / df); exactly 0.0 for a ubiquitous term."""
    if tf < 1:
        raise ValueError(f"tf must be >= 1, got {tf}")
    if df < 1 or df > n_docs:
        raise ValueError(f"df must be in [1, n_docs={n_docs}], got {df}")
    return tf * math.log(n_docs / df)


def build_index(reps: Iterable[DocRepresentation]) -> IndexBundle:
    """Build all six space indexes from a stream of document representations."""
    by_doc: dict[str, dict[Space, dict]] = {}
    for rep in reps:
        if rep.doc_id in by_doc:
            raise ValueError(f"duplicate doc_id {rep.doc_id!r}")
        by_doc[rep.doc_id] = rep.space_bags
    roster = tuple(sorted(by_doc))
    n_docs = len(roster)

    spaces: dict[Space, SpaceIndex] = {}
    for space in Space:
        term_docs: dict[GeneralizedTerm, dict[str, int]] = {}
        for doc_id in roster:
            for term, tf in by_doc[doc_id].get(space, {}).items():
                term_docs.setdefault(term, {})[doc_id] = tf

        postings: dict[GeneralizedTerm, tuple[Posting, ...]] = {}
        df: dict[GeneralizedTerm, int] = {}
        for term in sorted(term_docs, key=serialize_term):
            docs = term_docs[term]
            postings[term] = tuple(Posting(d, docs[d]) for d in sorted(docs))
            df[term] = len(docs)

        doc_norms = {
            doc_id: _doc_norm(by_doc[doc_id].get(space, {}), df, n_docs)
            for doc_id in roster
        }
        spaces[space] = SpaceIndex(postings=postings, df=df, doc_norms=doc_norms, n_docs=n_docs)
    return IndexBundle(spaces=spaces, doc_ids=roster)


def _doc_norm(bag: dict, df: dict, n_docs: int) -> float:
    # accumulate in serialized-term order so the float result is input-order-free
    acc = 0.0
    for term in sorted(bag, key=serialize_term):
        w = tfidf_weight(bag[term], df[term], n_docs)
        acc += w * w
    return math.sqrt(acc)


# --- persistence --------------------------------------------------------------

def _space_file_name(space: Space) -> str:
    return f"{space.value}.tsv"


def save_index(bundle: IndexBundle, directory: str | Path) -> None:
    """Write manifest.tsv plus one file per space; rewrites are byte-identical."""
    for doc_id in bundle.doc_ids:
        if any(ch in doc_id for ch in _FORBIDDEN_IN_DOC_ID):
            raise ValueError(f"doc_id {doc_id!r} contains a reserved separator character")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    manifest_lines = []
    for space in Space:
        sx = bundle.spaces[space]
        file_name = _space_file_name(space)
        manifest_lines.append(f"{space.value}\t{sx.n_docs}\t{file_name}\t{len(sx.postings)}")
        lines = []
        for term, plist in sx.postings.items():  # already in serialized order
            entries = ",".join(f"{p.doc_id}:{p.tf}" for p in plist)
            lines.append(f"{serialize_term(term)}\t{sx.df[term]}\t{entries}")
        for doc_id in bundle.doc_ids:
            lines.append(f"{doc_id}\t{sx.doc_norms[doc_id]:.12g}")
        _atomic_write(directory / file_name, "\n".join(lines) + "\n" if lines else "")
    _atomic_write(directory / "manifest.tsv", "\n".join(manifest_lines) + "\n")


def load_index(directory: str | Path) -> IndexBundle:
    """Read an index directory back; verifies stored norms against recomputation."""
    directory = Path(directory)
    manifest_path = directory / "manifest.tsv"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"missing manifest: {manifest_path}")

    spaces: dict[Space, SpaceIndex] = {}
    roster: tuple[str, ...] | None = None
    for line in manifest_path.read_text(encoding="utf-8").splitlines():
        space_name, n_docs_s, file_name, term_count_s = line.split("\t")
        space = Space(space_name)
        n_docs = int(n_docs_s)
        sx, stored_norms = _load_space_file(directory / file_name, n_docs)
        if len(sx.postings) != int(term_count_s):
            raise ValueError(f"{file_name}: manifest says {term_count_s} terms, file has {len(sx.postings)}")
        _verify_norms(sx, stored_norms, file_name)
        spaces[space] = sx
        space_roster = tuple(sorted(sx.doc_norms))
        if roster is None:
            roster = space_roster
        elif roster != space_roster:
            raise ValueError(f"{file_name}: document roster differs between spaces")

    missing = set(Space) - set(spaces)
    if missing:
        raise ValueError(f"manifest lacks spaces: {sorted(s.value for s in missing)}")
    return IndexBundle(spaces=spaces, doc_ids=roster or ())


def _load_space_file(path: Path, n_docs: int) -> tuple[SpaceIndex, dict[str, float]]:
    postings: dict[GeneralizedTerm, tuple[Posting, ...]] = {}
    df: dict[GeneralizedTerm, int] = {}
    stored_norms: dict[str, float] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        fields = line.split("\t")
        if len(fields) == 3:
            term = parse_term(fields[0])
            entries = []
            for chunk in fields[2].split(","):
                doc_id, _, tf_s = chunk.rpartition(":")
                entries.append(Posting(doc_id, int(tf_s)))
            if int(fields[1]) != len(entries):
                raise ValueError(f"{path}:{lineno}: df does not match posting count")
            postings[term] = tuple(entries)
            df[term] = len(entries)
        elif len(fields) == 2:
            stored_norms[fields[0]] = float(fields[1])
        else:
            raise ValueError(f"{path}:{lineno}: unrecognized line shape")

    # recompute norms from the exact integers for full precision
    doc_bags: dict[str, dict[GeneralizedTerm, int]] = {d: {} for d in stored_norms}
    for term, plist in postings.items():
        for posting in plist:
            doc_bags.setdefault(posting.doc_id, {})[term] = posting.tf
    doc_norms = {d: _doc_norm(bag, df, n_docs) for d, bag in doc_bags.items()}
    sx = SpaceIndex(postings=postings, df=df, doc_norms=doc_norms, n_docs=n_docs)
    return sx, stored_norms


def _verify_norms(sx: SpaceIndex, stored: dict[str, float], file_name: str) -> None:
    for doc_id, norm in sx.doc_norms.items():
        reference = stored.get(doc_id)
        if reference is None:
            raise ValueError(f"{file_name}: no stored norm for doc {doc_id!r}")
        if not math.isclose(norm, reference, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(
                f"{file_name}: stored norm {reference!r} for doc {doc_id!r} "
                f"disagrees with postings (recomputed {norm!r})"
            )


def _current_umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


# what open() would give a new file; mkstemp alone creates it owner-only
_NEW_FILE_MODE = 0o666 & ~_current_umask()


def _atomic_write(path: Path, content: str) -> None:
    """Replace ``path`` with ``content`` in one rename.

    The text goes to a uniquely named temp file in the target's directory
    first, so readers see the old file or the new one, never a partial
    write, and concurrent writers never share a temp file. A failed write
    removes its temp file and leaves any old file as it was.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, _NEW_FILE_MODE)
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
