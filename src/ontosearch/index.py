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

The build is a sort-based inversion (Zobel & Moffat, "Inverted files for
text search engines", 2006). Per space, one pass over the bags lists each
posting's provisional term id, tf and roster position; the vocabulary is
ranked once by serialized term; one `np.lexsort` by (term rank, roster
position) puts the postings in CSR order, and `np.bincount` of the ranks
gives each term's df.

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
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
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

    # Query-time views, each built on first use: set `doc_ids` before any
    # is read, as `load_index` does.

    @cached_property
    def doc_array(self) -> np.ndarray:
        """The roster as an object array, so one take maps positions to doc ids."""
        return np.array(self.doc_ids, dtype=object)

    @cached_property
    def offset_list(self) -> list[int]:
        """`offsets` as Python ints, so a query term's slice makes no numpy scalar."""
        return self.offsets.tolist()

    @cached_property
    def idf_list(self) -> list[float]:
        """`idf` as Python floats: the same doubles, read without a numpy scalar."""
        return self.idf.tolist()

    @cached_property
    def has_norm(self) -> np.ndarray:
        """`norms > 0.0`: the documents a cosine may divide by their norm."""
        return self.norms > 0.0

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
    doc_idx = np.asarray(doc_idx, dtype=np.int32)
    tf = np.asarray(tf, dtype=np.int64)
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
    """Build all six space indexes from a stream of document representations.

    A term's provisional id is the order in which the bags, in roster order,
    first show it; see the module docstring for the rest.
    """
    by_doc: dict[str, dict[Space, dict]] = {}
    for rep in reps:
        if rep.doc_id in by_doc:
            raise ValueError(f"duplicate doc_id {rep.doc_id!r}")
        by_doc[rep.doc_id] = rep.space_bags
    roster = tuple(sorted(by_doc))

    spaces: dict[Space, SpaceIndex] = {}
    for space in Space:
        bags = [by_doc[doc_id].get(space, {}) for doc_id in roster]
        # a term's first lookup gives it the next id
        provisional: dict[GeneralizedTerm, int] = defaultdict(count().__next__)
        ids = np.fromiter(map(provisional.__getitem__, chain.from_iterable(bags)), np.int64)
        tf = np.fromiter(chain.from_iterable(bag.values() for bag in bags), np.int64)
        doc_pos = np.repeat(np.arange(len(roster), dtype=np.int32), [len(bag) for bag in bags])
        terms = list(provisional)
        keys = [serialize_term(term) for term in terms]
        order = sorted(range(len(terms)), key=keys.__getitem__)
        rank = np.empty(len(terms), dtype=np.int64)  # provisional id -> final id
        rank[order] = np.arange(len(terms))
        term_rank = rank[ids]
        postings = np.lexsort((doc_pos, term_rank))
        spaces[space] = _space_index(
            [terms[i] for i in order],
            np.bincount(term_rank, minlength=len(terms)).tolist(),
            doc_pos[postings],
            tf[postings],
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
    """Read an index directory back, checking stored norms; a malformed field fails with file:line."""
    directory = Path(directory)
    manifest_path = directory / "manifest.tsv"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"missing manifest: {manifest_path}")

    spaces: dict[Space, SpaceIndex] = {}
    roster: tuple[str, ...] | None = None
    for lineno, line in enumerate(manifest_path.read_text(encoding="utf-8").splitlines(), start=1):
        where = f"{manifest_path}:{lineno}"
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"{where}: expected 4 tab-separated fields, got {len(fields)}")
        space_name, n_docs, file_name, n_terms = fields
        try:
            space = Space(space_name)
        except ValueError:
            raise ValueError(f"{where}: unknown space {space_name!r}") from None
        if space in spaces:
            raise ValueError(f"{where}: space {space_name!r} is listed twice")
        spaces[space] = sx = _load_space_file(directory / file_name, roster)
        for stated, held, what in ((n_terms, len(sx.term_ids), "terms"), (n_docs, sx.n_docs, "documents")):
            if stated != str(held):
                raise ValueError(f"{where}: {file_name}: manifest says {stated} {what}, file has {held}")
        roster = sx.doc_ids  # one tuple for the whole bundle

    missing = set(Space) - set(spaces)
    if missing:
        raise ValueError(f"manifest lacks spaces: {sorted(s.value for s in missing)}")
    return IndexBundle(spaces=spaces, doc_ids=roster or ())


def _load_space_file(path: Path, roster: tuple[str, ...] | None) -> SpaceIndex:
    """One space file, whose roster must be `roster` unless that is None."""
    terms: list[str] = []
    term_lines: list[int] = []
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
            if fields[1] != str(count):
                raise ValueError(f"{path}:{lineno}: df {fields[1]!r} does not match posting count {count}")
            terms.append(fields[0])
            term_lines.append(lineno)
            df.append(count)
            docs.extend(flat[0::2])
            tfs.extend(flat[1::2])
        elif len(fields) == 2:
            try:
                stored[fields[0]] = float(fields[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: norm must be a number, got {fields[1]!r}") from None
        else:
            raise ValueError(f"{path}:{lineno}: unrecognized line shape")

    # term ids are file order, so it must be the canonical accumulation order
    if any(a >= b for a, b in zip(terms, terms[1:])):
        raise ValueError(f"{path.name}: terms are not in strictly ascending serialized order")
    if roster is None:
        roster = tuple(sorted(stored))
    elif roster != tuple(sorted(stored)):
        raise ValueError(f"{path.name}: document roster differs between spaces")
    positions = {doc_id: i for i, doc_id in enumerate(roster)}
    try:
        doc_idx = np.array([positions[doc_id] for doc_id in docs], dtype=np.int32)
    except KeyError as exc:
        raise ValueError(f"{path.name}: no stored norm for doc {exc.args[0]!r}") from None
    try:
        tf = np.array(tfs, dtype=np.int64)
    except (ValueError, OverflowError):
        tf = None
    # a term's postings ascend the roster; posting i is on line[i]
    line = np.repeat(np.array(term_lines, dtype=np.int64), df)
    unordered = (np.diff(doc_idx, prepend=-1) <= 0) & (np.diff(line, prepend=0) == 0)
    if tf is None or tf.size and tf.min() < 1 or unordered.any():
        for i, text in enumerate(tfs):  # name the first bad posting's line
            try:
                bad_tf = np.int64(text) < 1
            except (ValueError, OverflowError):
                bad_tf = True
            if bad_tf:
                raise ValueError(f"{path}:{line[i]}: tf must be an integer >= 1, got {text!r}")
            if unordered[i]:
                raise ValueError(f"{path}:{line[i]}: postings repeat a document or leave roster order")
    sx = _space_index([parse_term(t) for t in terms], df, doc_idx, tf, roster, len(roster))
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
