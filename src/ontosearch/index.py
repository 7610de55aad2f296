"""Immutable per-space inverted indexes with tf-idf weights and document norms.

Weighting is the classic tf * ln(n_docs / df), with df computed per space:
a term's document frequency counts documents within the one space it lives
in. Build output is canonical (rosters, term ids, postings, and norm
accumulation all follow sorted order), so any permutation of the input
stream produces a bit-identical bundle, and partial indexes built over
document shards can be merged in any order.

In memory a space is a CSR matrix over integer term ids. Term ids follow
serialized-term order, so term-id order is the canonical accumulation
order. Term t's postings are entries `offsets[t]` to `offsets[t + 1]` of
`doc_idx` (positions in the sorted roster) and `tf`; `idf` holds each
term's ln(n_docs / df), `weights` each posting's tf * idf, and `norms` each
document's Euclidean norm, whose squares `np.bincount` sums posting by
posting, that is in term-id order.

On-disk layout is a directory with `manifest.tsv` plus one file per space.
A space file carries the postings lines (`term<TAB>df<TAB>doc:tf,...`,
sorted by serialized term) followed by the norm lines (`doc_id<TAB>norm`,
12 significant digits); the two line kinds differ in field count. Because
postings entries use `:` and `,` as separators, doc_ids may not contain
them. Loading maps the parsed postings straight into the arrays, recomputes
the norms from the exact tf/df integers, and checks every stored value
against them in one vectorized pass, so a loaded index scores
bit-identically to a freshly built one.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .expand import DocRepresentation, GeneralizedTerm, Space, parse_term, serialize_term

_FORBIDDEN_IN_DOC_ID = (":", ",", "\t", "\n")

_ARRAY_FIELDS = ("offsets", "doc_idx", "tf", "idf", "weights", "norms")


@dataclass(eq=False)
class SpaceIndex:
    """One space's postings as CSR arrays over term ids (see the module docstring).

    `term_ids` maps each term to its id and lists the terms in id order;
    `doc_ids` is the sorted roster that `doc_idx` and `norms` index.
    """

    term_ids: dict[GeneralizedTerm, int]
    doc_ids: tuple[str, ...]
    offsets: np.ndarray  # int64, one more than there are terms
    doc_idx: np.ndarray  # int32 roster position, per posting
    tf: np.ndarray       # int64, per posting
    idf: np.ndarray      # float64 ln(n_docs / df), per term
    weights: np.ndarray  # float64 tf * idf, per posting
    norms: np.ndarray    # float64, per roster position
    n_docs: int

    @cached_property
    def df(self) -> dict[GeneralizedTerm, int]:
        """term -> document frequency, in term-id order."""
        return dict(zip(self.term_ids, np.diff(self.offsets).tolist()))

    @cached_property
    def doc_positions(self) -> dict[str, int]:
        return {doc_id: i for i, doc_id in enumerate(self.doc_ids)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpaceIndex):
            return NotImplemented
        return (
            self.n_docs == other.n_docs
            and self.doc_ids == other.doc_ids
            and list(self.term_ids.items()) == list(other.term_ids.items())
            and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in _ARRAY_FIELDS)
        )


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


def _space_index(
    terms: Sequence[GeneralizedTerm],
    df: Sequence[int],
    doc_idx: Sequence[int],
    tf: Sequence,
    doc_ids: tuple[str, ...],
    n_docs: int,
) -> SpaceIndex:
    """Arrays for postings listed term by term, terms in serialized order."""
    counts = np.array(df, dtype=np.int64)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    doc_idx = np.array(doc_idx, dtype=np.int32)
    tf = np.array(tf, dtype=np.int64)
    if tf.size and tf.min() < 1:
        raise ValueError(f"tf must be >= 1, got {tf.min()}")
    # math.log, as tfidf_weight takes it: np.log may differ in the last ulp
    idf = np.array([tfidf_weight(1, d, n_docs) for d in df], dtype=np.float64)
    weights = tf * np.repeat(idf, counts)
    norms = np.sqrt(np.bincount(doc_idx, weights=weights * weights, minlength=len(doc_ids)))
    return SpaceIndex(
        term_ids={term: i for i, term in enumerate(terms)},
        doc_ids=doc_ids,
        offsets=offsets,
        doc_idx=doc_idx,
        tf=tf,
        idf=idf,
        weights=weights,
        norms=norms,
        n_docs=n_docs,
    )


def build_index(reps: Iterable[DocRepresentation]) -> IndexBundle:
    """Build all six space indexes from a stream of document representations."""
    by_doc: dict[str, dict[Space, dict]] = {}
    for rep in reps:
        if rep.doc_id in by_doc:
            raise ValueError(f"duplicate doc_id {rep.doc_id!r}")
        by_doc[rep.doc_id] = rep.space_bags
    roster = tuple(sorted(by_doc))

    spaces: dict[Space, SpaceIndex] = {}
    for space in Space:
        term_docs: dict[GeneralizedTerm, list[tuple[int, int]]] = {}
        for position, doc_id in enumerate(roster):
            for term, tf in by_doc[doc_id].get(space, {}).items():
                term_docs.setdefault(term, []).append((position, tf))
        terms = sorted(term_docs, key=serialize_term)
        postings = [posting for term in terms for posting in term_docs[term]]
        spaces[space] = _space_index(
            terms,
            [len(term_docs[term]) for term in terms],
            [position for position, _ in postings],
            [tf for _, tf in postings],
            roster,
            len(roster),
        )
    return IndexBundle(spaces=spaces, doc_ids=roster)


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
        manifest_lines.append(f"{space.value}\t{sx.n_docs}\t{file_name}\t{len(sx.term_ids)}")
        doc_ids, offsets = sx.doc_ids, sx.offsets.tolist()
        entries = [f"{doc_ids[i]}:{tf}" for i, tf in zip(sx.doc_idx.tolist(), sx.tf.tolist())]
        lines = [
            f"{serialize_term(term)}\t{hi - lo}\t{','.join(entries[lo:hi])}"
            for term, lo, hi in zip(sx.term_ids, offsets, offsets[1:])
        ]
        lines.extend(f"{doc_id}\t{norm:.12g}" for doc_id, norm in zip(doc_ids, sx.norms.tolist()))
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
        sx = _load_space_file(directory / file_name, int(n_docs_s), int(term_count_s))
        if roster is None:
            roster = sx.doc_ids
        elif roster != sx.doc_ids:
            raise ValueError(f"{file_name}: document roster differs between spaces")
        sx.doc_ids = roster  # one tuple for the whole bundle
        spaces[Space(space_name)] = sx

    missing = set(Space) - set(spaces)
    if missing:
        raise ValueError(f"manifest lacks spaces: {sorted(s.value for s in missing)}")
    return IndexBundle(spaces=spaces, doc_ids=roster or ())


def _load_space_file(path: Path, n_docs: int, n_terms: int) -> SpaceIndex:
    terms: list[str] = []
    df: list[int] = []
    docs: list[str] = []
    tfs: list[str] = []
    stored: dict[str, float] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        fields = line.split("\t")
        if len(fields) == 3:
            count = fields[2].count(",") + 1
            flat = fields[2].replace(",", ":").split(":")
            if len(flat) != 2 * count:
                raise ValueError(f"{path}:{lineno}: postings are not doc:tf pairs")
            if int(fields[1]) != count:
                raise ValueError(f"{path}:{lineno}: df does not match posting count")
            terms.append(fields[0])
            df.append(count)
            docs.extend(flat[0::2])
            tfs.extend(flat[1::2])
        elif len(fields) == 2:
            stored[fields[0]] = float(fields[1])
        else:
            raise ValueError(f"{path}:{lineno}: unrecognized line shape")

    if len(terms) != n_terms:
        raise ValueError(f"{path.name}: manifest says {n_terms} terms, file has {len(terms)}")
    # term ids are file order, so it must be the canonical accumulation order
    if any(a >= b for a, b in zip(terms, terms[1:])):
        raise ValueError(f"{path.name}: terms are not in strictly ascending serialized order")
    roster = tuple(sorted(stored))
    positions = {doc_id: i for i, doc_id in enumerate(roster)}
    try:
        doc_idx = [positions[doc_id] for doc_id in docs]
    except KeyError as exc:
        raise ValueError(f"{path.name}: no stored norm for doc {exc.args[0]!r}") from None
    sx = _space_index([parse_term(t) for t in terms], df, doc_idx, tfs, roster, n_docs)
    _verify_norms(sx, np.array([stored[doc_id] for doc_id in roster], dtype=np.float64), path.name)
    return sx


def _verify_norms(sx: SpaceIndex, stored: np.ndarray, file_name: str) -> None:
    """math.isclose(norm, stored, rel_tol=1e-9, abs_tol=1e-9), for every document at once."""
    computed = sx.norms
    tolerance = np.maximum(1e-9 * np.maximum(np.abs(computed), np.abs(stored)), 1e-9)
    # an infinite stored norm is never close; the inf tolerance would let it through
    bad = np.flatnonzero(~(np.abs(computed - stored) <= tolerance) | np.isinf(stored))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"{file_name}: stored norm {stored[i].item()!r} for doc {sx.doc_ids[i]!r} "
            f"disagrees with postings (recomputed {computed[i].item()!r})"
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
