"""Immutable per-space inverted indexes with tf-idf weights and document norms.

Weighting is the classic tf * ln(n_docs / df), with df computed per space:
a term's document frequency counts documents within the one space it lives
in. Build output is canonical (rosters, rows, postings, and norm
accumulation all follow sorted order), so any permutation of the input
stream produces a bit-identical bundle.

In memory a bundle's postings are one CSR table (`PostingsTable`) whose rows
are `index.tsv`'s term lines in file order. Row r's postings are entries
`offsets[r]` to `offsets[r + 1]` of `doc_idx` (positions in the sorted
roster) and `tf`; `idf` holds each row's ln(n_docs / df), taken once per
distinct df and gathered back, and `weights` each posting's tf * idf. A space
(`SpaceIndex`) maps its terms, in sorted order, the canonical accumulation
order, to their rows, and holds each document's Euclidean norm. KW, N, C, NC
and I each read their section's rows; G reads its own section's and those of
N, C, NC and I merged by term (`_bundle`, the one place the index side
defines G), so an entity posting is held once, as in the file. A space's
norms are the squares of its rows' postings summed by `np.bincount` in its
term order, each row's block gathered in turn. All spaces share one roster
(`Roster`), the sorted doc ids, which owns the query-time views tied to it,
each built on first use and gone with the bundle: a doc id's position, an
object array of the ids, and the read-only zeros and all-False flags of a
cosine that touches no document. `rank.Scores` holds the roster it indexes.

The build is a sort-based inversion (Zobel & Moffat, "Inverted files for
text search engines", 2006) of counted documents (`expand.DocumentCounts`);
no document is turned into term bags. KW and G's own part are inverted from
their stem counts, each stem made a `k:<stem>` term once per build. N, C,
NC and I are inverted from the entity term counts: each distinct entry, an
annotation's four tuples of terms, is mapped to each space's provisional
term ids once, and an entry seen n times in a document gives each of its
terms a posting of tf n, all listed flat with `np.repeat`. The vocabulary is
sorted once, and one stable argsort by term rank puts the postings in CSR
order. Two entries of one document may share a term (a country's and a
city's `t:*/Location/*`); their postings end up adjacent and
`np.add.reduceat` adds them. Of G only its own part is inverted. The six
parts are listed in one table in file order, and build and load alike then
give each space its rows through `_bundle`.

On disk an index is one file, `index.tsv`, written through
`textfile.write_text`, so the postings and the fingerprint of the inputs
they were built from reach the disk and are then committed by a single
rename. It stores only what the loader cannot recompute (Zobel & Moffat
again): no norms, and of G only its keywords.

    ontosearch-index<TAB>4                      the format line
    key<TAB>value                               the fingerprint, by key
    docs<TAB>n                                  then n roster rows:
    doc_id                                      sorted by doc id
    space<TAB>KW<TAB>n_terms                    then n_terms term lines:
    term<TAB>gaps<TAB>tfs                       sorted by term
    ...                                         (one section per space)
    sha256<TAB>hex                              of all the bytes above

A term's first gap is its first roster position and each later gap, at least
1, the step from the one before. Each of the gaps and tfs fields is the
padded base64 of its values as unsigned LEB128 varints, 7 bits a byte, so a
gap or tf below 128 takes one byte; a byte-aligned code is both smaller and
faster to decode than decimal text (Scholer, Williams, Yiannis & Zobel,
"Compression of inverted indexes for fast query evaluation", SIGIR 2002).
The saver encodes each section's slice of the table in one vectorized pass.
Doc ids may not contain tab or newline. The loader reads the sections in
`Space` order, the order the saver writes, so a bundle has one spelling, and
it reads the postings of every space at once: it checks every field as
strict base64 with array operations (before Python 3.11 `a2b_base64` skips
what is not base64), decodes each field with `a2b_base64`, and decodes the
varints with numpy, refusing one cut short, one of more than 9 bytes (63
bits, so every value fits an int64) and one with a needless zero byte, so a
list of values has one spelling. It checks
that doc ids and terms strictly ascend, that each term is spelt as
`expand.Triple` spells it, that each term has as many tfs as gaps, that tfs
and later gaps are at least 1, that positions fall inside the roster and
that parts keep `_bundle`'s kind rule; a failure names `path:line`. A
space's terms are checked in whole-space passes too: one comparison pass for
their order, and list-wide tests of the triples' slashes and `%` and of their
names joined into one string. Only a term these cannot vouch for, such as one
holding `%`, is spelt again alone, as `Triple(*triple_slots(term))`, and so
is a failure, to name its line. Only then does it check the sha256, which
also catches an edit that leaves every field well formed. A loaded index
equals a freshly built one and keeps its header's fingerprint, so a caller
checks its inputs against the bytes it loaded. Formats 2 and 3 are refused
by their format line, with a request to rebuild; a directory from before
format 2 holds no `index.tsv`.
"""

from __future__ import annotations

import binascii
import hashlib
import math
import operator
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, count, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .expand import _ENTITY_SPACES, DocumentCounts, EntityTerms, GeneralizedTerm, Space, Triple, triple_slots
from .kb import normalize_name
from .textfile import decode_utf8, write_text

_RESERVED = frozenset("\t\n")

_TABLE_FIELDS = ("offsets", "doc_idx", "tf", "idf", "weights")


@dataclass(eq=False)
class PostingsTable:
    """A bundle's postings as one CSR table over rows (see the module docstring)."""

    offsets: np.ndarray  # int64, one more than there are rows
    doc_idx: np.ndarray  # int32 roster position, per posting
    tf: np.ndarray       # int64, per posting
    idf: np.ndarray      # float64 ln(n_docs / df), per row
    weights: np.ndarray  # float64 tf * idf, per posting

    # Query-time views, each built on first use.

    @cached_property
    def offset_list(self) -> list[int]:
        """`offsets` as Python ints, so a query term's slice makes no numpy scalar."""
        return self.offsets.tolist()

    @cached_property
    def idf_list(self) -> list[float]:
        """`idf` as Python floats: the same doubles, read without a numpy scalar."""
        return self.idf.tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PostingsTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in _TABLE_FIELDS)


class Roster(tuple):
    """A bundle's doc ids, sorted: one tuple that all its spaces and scores share, with the
    query-time views of it, each built on first use, once per bundle."""

    @cached_property
    def positions(self) -> dict[str, int]:
        return {doc_id: i for i, doc_id in enumerate(self)}

    @cached_property
    def array(self) -> np.ndarray:
        """The roster as an object array, so one take maps positions to doc ids."""
        return np.array(self, dtype=object)

    @cached_property
    def untouched(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only zeros and all-False flags, one per position: the scores of a cosine
        that shares no term with its space, and of an empty weighted sum."""
        values, touched = np.zeros(len(self)), np.zeros(len(self), dtype=bool)
        values.flags.writeable = touched.flags.writeable = False
        return values, touched


@dataclass(eq=False)
class SpaceIndex:
    """One space: its terms, in sorted order, each mapped to its row of the bundle's table,
    and each document's norm; `doc_ids` is the sorted roster that `doc_idx` and `norms` index.
    """

    rows: dict[GeneralizedTerm, int]
    doc_ids: Roster
    table: PostingsTable
    norms: np.ndarray    # float64, per roster position

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @cached_property
    def df(self) -> dict[GeneralizedTerm, int]:
        """term -> document frequency, in sorted term order."""
        rows = np.fromiter(self.rows.values(), np.int64, len(self.rows))
        return dict(zip(self.rows, (self.table.offsets[rows + 1] - self.table.offsets[rows]).tolist()))

    @cached_property
    def has_norm(self) -> np.ndarray:
        """`norms > 0.0`: the documents a cosine may divide by their norm."""
        return self.norms > 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpaceIndex):
            return NotImplemented
        return (
            self.doc_ids == other.doc_ids
            and list(self.rows.items()) == list(other.rows.items())
            and self.table == other.table
            and np.array_equal(self.norms, other.norms)
        )


@dataclass
class IndexBundle:
    spaces: dict[Space, SpaceIndex]
    doc_ids: Roster
    # the header's key -> value lines as `load_index` read them; {} for a built bundle
    fingerprint: dict[str, str] = field(default_factory=dict, compare=False)


def tfidf_weight(tf: int, df: int, n_docs: int) -> float:
    """tf * ln(n_docs / df); exactly 0.0 for a ubiquitous term."""
    if tf < 1:
        raise ValueError(f"tf must be >= 1, got {tf}")
    if df < 1 or df > n_docs:
        raise ValueError(f"df must be in [1, n_docs={n_docs}], got {df}")
    return tf * math.log(n_docs / df)


def _table(df: Sequence[int], doc_idx: Sequence[int], tf: Sequence, n_docs: int) -> PostingsTable:
    """The table of postings listed row by row, `df[r]` of them in row r."""
    counts = np.asarray(df, dtype=np.int64)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    doc_idx = np.asarray(doc_idx, dtype=np.int32)
    tf = np.asarray(tf, dtype=np.int64)
    if tf.size and tf.min() < 1:
        raise ValueError(f"tf must be >= 1, got {tf.min()}")
    # math.log, as tfidf_weight takes it: np.log may differ in the last ulp; once per
    # distinct df, as there are far fewer of those than rows
    distinct, which = np.unique(counts, return_inverse=True)
    idf = np.array([tfidf_weight(1, d, n_docs) for d in distinct.tolist()], dtype=np.float64)[which]
    return PostingsTable(offsets=offsets, doc_idx=doc_idx, tf=tf, idf=idf, weights=tf * np.repeat(idf, counts))


def _space_index(rows: dict[GeneralizedTerm, int], table: PostingsTable, doc_ids: Roster) -> SpaceIndex:
    """A space over rows of `table`, its terms in sorted order. Its norms add each document's
    squares in that order: each row's block of postings is gathered in turn, then `np.bincount`
    adds them, as for the space inverted whole."""
    at = np.fromiter(rows.values(), np.int64, len(rows))
    lo, df = table.offsets[at], table.offsets[at + 1] - table.offsets[at]
    # where in the table each of the rows' postings lies, row after row
    postings = np.arange(df.sum()) + np.repeat(lo - (np.cumsum(df) - df), df)
    weights = table.weights[postings]
    norms = np.sqrt(np.bincount(table.doc_idx[postings], weights=weights * weights, minlength=len(doc_ids)))
    return SpaceIndex(rows=rows, doc_ids=doc_ids, table=table, norms=norms)


class _Postings(NamedTuple):
    """One space's postings listed term by term, terms in sorted order."""

    terms: list[GeneralizedTerm]
    df: np.ndarray
    doc_idx: np.ndarray
    tf: np.ndarray


def _ranked(terms: list[GeneralizedTerm], ids: np.ndarray, doc_pos: np.ndarray, tf: np.ndarray) -> _Postings:
    """Postings under provisional term ids, each term's in roster order, put in CSR order:
    the terms ranked, then one stable argsort of the postings by rank. Postings of one term
    in one document, which two entries of a document's entity terms can give, are then
    adjacent, and are added into one."""
    order = sorted(range(len(terms)), key=terms.__getitem__)
    # provisional id -> final id, in the narrowest type: numpy's stable sort of 8- and
    # 16-bit integers is a radix sort
    rank = np.empty(len(terms), dtype=np.min_scalar_type(len(terms)))
    rank[order] = np.arange(len(terms))
    term_rank = rank[ids]
    postings = np.argsort(term_rank, kind="stable")
    term_rank, doc_pos, tf = term_rank[postings], doc_pos[postings], tf[postings]
    repeat = (term_rank[1:] == term_rank[:-1]) & (doc_pos[1:] == doc_pos[:-1])
    if repeat.any():
        first = np.flatnonzero(np.concatenate(([True], ~repeat)))
        term_rank, doc_pos, tf = term_rank[first], doc_pos[first], np.add.reduceat(tf, first)
    return _Postings([terms[i] for i in order], np.bincount(term_rank, minlength=len(terms)), doc_pos, tf)


def _listed(bags: list[dict]) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """One count bag per roster position, listed flat: the distinct keys in order of first
    sight, and per entry its key's provisional id (its place in that list), its count and
    its roster position."""
    provisional: dict = defaultdict(count().__next__)
    lengths = [len(bag) for bag in bags]
    total = sum(lengths)
    ids = np.fromiter(map(provisional.__getitem__, chain.from_iterable(bags)), np.int64, total)
    counts = np.fromiter(chain.from_iterable(map(dict.values, bags)), np.int64, total)
    return list(provisional), ids, counts, np.repeat(np.arange(len(bags), dtype=np.int32), lengths)


def _invert_stems(bags: list[dict[str, int]]) -> _Postings:
    """The postings of one space's stem counts."""
    stems, ids, tf, doc_pos = _listed(bags)
    return _ranked(["k:" + stem for stem in stems], ids, doc_pos, tf)


def _invert_entities(bags: list[dict[EntityTerms, int]]) -> list[_Postings]:
    """The postings of N, C, NC and I from entity term counts. Each distinct entry is mapped
    to each space's provisional term ids once, and an entry seen n times in a document gives
    each of its terms there a posting of tf n."""
    entries, entry_ids, entry_tf, entry_pos = _listed(bags)
    parts = []
    for space_index in range(len(_ENTITY_SPACES)):
        term_ids: dict[GeneralizedTerm, int] = defaultdict(count().__next__)
        per_entry = [[term_ids[term] for term in entry[space_index]] for entry in entries]
        lengths = np.array([len(ids) for ids in per_entry], dtype=np.int64)
        start = np.cumsum(lengths) - lengths  # where each entry's term ids start
        width = lengths[entry_ids]  # the postings each entry seen gives
        # each posting's place among the flat term ids: its entry's start, plus its place in the entry
        at = np.arange(width.sum()) + np.repeat(start[entry_ids] - (np.cumsum(width) - width), width)
        ids = np.fromiter(chain.from_iterable(per_entry), np.int64, lengths.sum())[at]
        parts.append(_ranked(list(term_ids), ids, np.repeat(entry_pos, width), np.repeat(entry_tf, width)))
    return parts


def _bundle(sections: Mapping[Space, list[GeneralizedTerm]], df: np.ndarray, doc_idx: np.ndarray,
            tf: np.ndarray, roster: tuple[str, ...],
            where: Callable[[Space, int], str] = lambda space, i: "") -> IndexBundle:
    """Every space over one table whose rows are the sections' terms, section after section in
    the order given, with `df[r]` postings in row r. A space reads its section's rows; G reads
    its own section's and those of N, C, NC and I merged by term, so G's terms and norms are
    those of G inverted whole.

    Build and load share one kind rule: G's own section holds keywords only, and N, C, NC and I
    triples only; terms sort `k:` before `t:`, so one end of each section decides. `where(space,
    i)` places an error at the section's term i."""
    seen: set[str] = set()  # G's own terms are keywords, so only the entity sections can share a term
    for space, i, kind in ((Space.G, -1, "k:"), *((s, 0, "t:") for s in _ENTITY_SPACES)):
        terms = sections[space]
        if terms and not terms[i].startswith(kind):
            raise ValueError(f"{where(space, i % len(terms))}{space.value}'s part holds "
                             f"{'keywords' if kind == 'k:' else 'triples'} only, got {terms[i]!r}")
        if not seen.isdisjoint(terms):
            i = next(i for i, term in enumerate(terms) if term in seen)
            raise ValueError(f"{where(space, i)}term {terms[i]!r} lies in two of N, C, NC and I")
        seen.update(terms)
    table = _table(df, doc_idx, tf, len(roster))
    roster = Roster(roster)
    rows, first = {}, 0
    for space, terms in sections.items():
        rows[space] = dict(zip(terms, range(first, first + len(terms))))
        first += len(terms)
    merged = chain.from_iterable(rows[space].items() for space in (Space.G, *_ENTITY_SPACES))
    rows[Space.G] = dict(sorted(merged))  # the terms are distinct, so the pairs sort by term alone
    return IndexBundle(spaces={space: _space_index(rows[space], table, roster) for space in Space},
                       doc_ids=roster)


def build_index(docs: Iterable[DocumentCounts]) -> IndexBundle:
    """Build all six space indexes from a stream of counted documents: KW and G's own part
    from their stem counts, N, C, NC and I from their entity term counts, listed in file
    order; `_bundle` gives G its rows, as `load_index` does."""
    by_doc: dict[str, DocumentCounts] = {}
    for doc in docs:
        if not isinstance(doc, DocumentCounts):
            raise TypeError(f"build_index takes counted documents (expand_document's), "
                            f"got {type(doc).__name__}")
        if doc.doc_id in by_doc:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r}")
        by_doc[doc.doc_id] = doc
    roster = tuple(sorted(by_doc))
    in_roster = [by_doc[doc_id] for doc_id in roster]
    parts = {
        Space.KW: _invert_stems([doc.stems for doc in in_roster]),
        **dict(zip(_ENTITY_SPACES, _invert_entities([doc.entities for doc in in_roster]))),
        Space.G: _invert_stems([doc.own for doc in in_roster]),
    }
    sections = {space: part.terms for space, part in parts.items()}
    df = np.concatenate([part.df for part in parts.values()])
    doc_idx = np.concatenate([part.doc_idx for part in parts.values()])
    tf = np.concatenate([part.tf for part in parts.values()])
    del parts  # the parts go before the table's weights and the norms are made
    return _bundle(sections, df, doc_idx, tf, roster)


# --- persistence --------------------------------------------------------------

INDEX_FILE = "index.tsv"
FORMAT_LINE = "ontosearch-index\t4"
_DIGEST = "sha256\t"  # how the last line starts

# a count on a header or space line has at most this many digits, so it fits an int64
_MAX_DIGITS = 18
# a varint has at most 9 bytes, 63 bits, so every value fits an int64
_VARINT_BYTES = 9
# each base64 character's 6-bit value; -1 for a character outside the alphabet
_SEXTETS = np.full(256, -1, dtype=np.int8)
_SEXTETS[np.frombuffer(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
                       dtype=np.uint8)] = np.arange(64)


def _varint_fields(values: np.ndarray, offsets: list[int]) -> list[str]:
    """The values of each term, `values[offsets[t]:offsets[t + 1]]`, as one field: the padded
    base64 of their unsigned LEB128 varints (7 bits a byte, low bits first, the high bit set
    on every byte but a varint's last)."""
    width, rest = np.ones(values.size, dtype=np.int64), values >> 7  # bytes per varint
    while rest.any():
        width += rest > 0
        rest >>= 7
    ends = np.cumsum(width)
    data = np.empty(width.sum(), dtype=np.uint8)
    at, rest = ends - width, values  # where each unwritten varint's next byte goes, and what it has left
    while at.size:
        more = rest > 0x7F
        data[at] = rest & 0x7F | more * 0x80
        at, rest = at[more] + 1, rest[more] >> 7
    bounds = np.concatenate(([0], ends))[offsets].tolist()
    data = data.tobytes()
    # b2a_base64 ends each field with "\n"
    text = b"".join([binascii.b2a_base64(data[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
    return text.decode("ascii").split("\n")[:-1]


def save_index(bundle: IndexBundle, directory: str | Path,
               fingerprint: Mapping[str, str] | None = None) -> None:
    """Write the bundle and `fingerprint` as one `index.tsv`, committed by one rename.

    Of G only the keywords are written, as `_bundle` gives G the rest. Rewrites
    are byte-identical. A doc id or term holding a tab or newline is refused
    before anything is written.
    """
    for doc_id in bundle.doc_ids:
        if not _RESERVED.isdisjoint(doc_id):
            raise ValueError(f"doc_id {doc_id!r} contains a reserved separator character")
    fingerprint = dict(fingerprint or {})
    for key, value in fingerprint.items():
        if key == "docs" or any(ch in key + value for ch in "\t\n"):
            raise ValueError(f"fingerprint entry {key!r}: {value!r} cannot be stored")

    lines = [FORMAT_LINE, *(f"{key}\t{value}" for key, value in sorted(fingerprint.items()))]
    lines.append(f"docs\t{len(bundle.doc_ids)}")
    lines.extend(bundle.doc_ids)
    for space in Space:
        sx = bundle.spaces[space]
        terms = list(sx.rows)
        if space is Space.G:  # keywords sort first; the rest is derived on load
            terms = terms[:sum(term.startswith("k:") for term in terms)]
        if "\t" in (joined := "".join(terms)) or "\n" in joined:
            term = next(term for term in terms if not _RESERVED.isdisjoint(term))
            raise ValueError(f"{space.value} term {term!r} contains a reserved separator character")
        # the terms written are one section of the table: consecutive rows from the first
        first = sx.rows[terms[0]] if terms else 0
        section = sx.table.offsets[first:first + len(terms) + 1]
        lo, hi = section[0], section[-1]
        offsets = (section - lo).tolist()
        doc_idx = sx.table.doc_idx[lo:hi]
        lines.append(f"space\t{space.value}\t{len(terms)}")
        gaps = doc_idx.astype(np.int64)
        gaps[1:] -= doc_idx[:-1]
        starts = offsets[:-1]
        gaps[starts] = doc_idx[starts]  # a term's first gap is its first roster position
        lines.extend(map("\t".join, zip(
            terms,
            _varint_fields(gaps, offsets),
            _varint_fields(sx.table.tf[lo:hi], offsets),
        )))
    content = "\n".join(lines) + "\n"
    content += f"{_DIGEST}{hashlib.sha256(content.encode('utf-8')).hexdigest()}\n"
    write_text(Path(directory) / INDEX_FILE, content)


def _count(text: str, where: str) -> int:
    if not (text.isascii() and text.isdigit() and len(text) <= _MAX_DIGITS):
        raise ValueError(f"{where}: expected a count, got {text!r}")
    return int(text)


def _read_header(lines: Iterator[str], path: Path) -> tuple[dict[str, str], int, int]:
    """The format line, the fingerprint and the `docs` line: (fingerprint, n_docs, docs line number)."""
    first = next(lines, None)
    if first != FORMAT_LINE:
        raise ValueError(f"{path}:1: expected the format line {FORMAT_LINE!r}, got {first!r}; "
                         "rebuild it with `ontosearch index`")
    fingerprint: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=2):
        if line.count("\t") != 1:
            raise ValueError(f"{path}:{lineno}: expected key<TAB>value, got {line!r}")
        key, _, value = line.partition("\t")
        if key == "docs":
            return fingerprint, _count(value, f"{path}:{lineno}"), lineno
        if key in fingerprint:
            raise ValueError(f"{path}:{lineno}: fingerprint key {key!r} is listed twice")
        fingerprint[key] = value
    raise ValueError(f"{path}: no docs line")


def load_index(directory: str | Path) -> IndexBundle:
    """Read `index.tsv` back, checking every field, then the sha256; a malformed field fails with
    path:line. The bundle keeps the header's fingerprint, read from the same bytes."""
    path = Path(directory) / INDEX_FILE
    if not path.is_file():
        raise FileNotFoundError(f"missing index file: {path}")
    data = path.read_bytes()
    # split on "\n" alone: a "\r" in a doc id or fingerprint value stays inside its line
    lines = decode_utf8(data, path).split("\n")
    if lines.pop():
        raise ValueError(f"{path}:{len(lines) + 1}: the file ends inside a line")
    digest = lines.pop() if lines and lines[-1].startswith(_DIGEST) else None
    fingerprint, n_docs, docs_line = _read_header(iter(lines), path)
    at = docs_line + n_docs  # index of the line after the roster
    if at > len(lines):
        raise ValueError(f"{path}:{docs_line}: the docs line states {n_docs} documents, "
                         f"but the file ends after {len(lines) - docs_line}")
    sections: dict[Space, tuple[int, int]] = {}  # each space's term lines, as a slice of `lines`
    counted = f"{n_docs} roster rows that line {docs_line} states"
    for space in Space:  # in the order save_index writes them, so a bundle has one spelling
        where, head = f"{path}:{at + 1}", f"space\t{space.value}\t"
        if at == len(lines) or not lines[at].startswith(head):
            got = (repr(lines[at]) if at < len(lines)
                   else "the end of the file" if digest is None else repr(digest))
            raise ValueError(f"{where}: expected space<TAB>{space.value}<TAB>n_terms after the {counted}, "
                             f"got {got}")
        n_terms = lines[at][len(head):]
        end = at + 1 + _count(n_terms, where)
        if end > len(lines):
            raise ValueError(f"{where}: space {space.value} states {n_terms} terms, "
                             f"but the file ends after {len(lines) - at - 1}")
        sections[space] = at + 1, end
        counted = f"{n_terms} term lines that line {at + 1} states"
        at = end
    if at < len(lines):
        raise ValueError(f"{path}:{at + 1}: expected the sha256 line after the {counted}, got {lines[at]!r}")

    roster = tuple(_cells(lines[docs_line:docs_line + n_docs], 1, "a doc id alone", path, docs_line + 1))
    for i, (a, b) in enumerate(zip(roster, roster[1:])):
        if a >= b:
            problem = "repeats the row above" if a == b else f"sorts before {a!r} on the row above"
            raise ValueError(f"{path}:{docs_line + i + 2}: doc id {b!r} {problem}")
    cells = {space: _cells(lines[start:end], 3, "term<TAB>gaps<TAB>tfs", path, start + 1)
             for space, (start, end) in sections.items()}
    # every space's postings are read at once, each term's after the one on the line before
    offsets, positions, tf = _read_postings(
        list(chain.from_iterable(row[1::3] for row in cells.values())),
        list(chain.from_iterable(row[2::3] for row in cells.values())),
        path, np.concatenate([np.arange(start + 1, end + 1) for start, end in sections.values()]), len(roster))
    terms = {space: row[0::3] for space, row in cells.items()}
    for space, (start, _) in sections.items():
        _check_terms(terms[space], path, start + 1)
    bundle = _bundle(terms, np.diff(offsets), positions, tf, roster,
                     lambda space, i: f"{path}:{sections[space][0] + 1 + i}: ")
    # a digest line that can match is ASCII, so len(digest) counts its bytes
    if digest is None or hashlib.sha256(data[:-len(digest) - 1]).hexdigest() != digest[len(_DIGEST):]:
        raise ValueError(f"{path}:{len(lines) + 1}: expected the sha256 of the lines above; the "
                         "file was changed after it was written, so rebuild it")
    bundle.fingerprint = fingerprint
    return bundle


def _cells(rows: list[str], width: int, shape: str, path: Path, first: int) -> list[str]:
    """The fields of rows that each have `width` tab-separated fields, row after row."""
    tabs = list(map(str.count, rows, repeat("\t")))
    if tabs.count(width - 1) != len(rows):
        i = next(i for i, n in enumerate(tabs) if n != width - 1)
        raise ValueError(f"{path}:{first + i}: expected {shape}, got {rows[i]!r}")
    return "\t".join(rows).split("\t") if rows else []


def _varints(fields: list[str], what: str, path: Path, field_lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fields that are each the padded base64 of LEB128 varints: (all values, how many per field).

    Before Python 3.11 `a2b_base64` skips characters outside the alphabet and stops at
    the padding, so the text is checked first: each field is nonempty, a multiple of four
    characters, from the alphabet but for one or two trailing `=`, and with zero padding
    bits. Then each varint must be complete, at most 9 bytes and minimal (no trailing zero
    byte), so a list of values has one spelling, the one `save_index` writes.
    """
    if not fields:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)

    def fail(bad: np.ndarray, problem: str) -> None:
        if bad.size:  # bad: the fields at fault, in file order
            i = bad[0]
            raise ValueError(f"{path}:{field_lines[i]}: {what} {problem}, got {fields[i]!r}")

    lengths = np.fromiter(map(len, fields), dtype=np.int64, count=len(fields))
    fail(np.flatnonzero(lengths == 0), "must not be empty")
    fail(np.flatnonzero(lengths % 4 != 0), "must be padded base64")
    text = "".join(fields)
    if not text.isascii():
        fail(np.flatnonzero([not field.isascii() for field in fields]), "must be padded base64")
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    ends = np.cumsum(lengths)
    last, before = raw[ends - 1] == ord("="), raw[ends - 2] == ord("=")
    n_pad = last.astype(np.int64) + (last & before)  # trailing `=`, up to two
    # characters outside the alphabet (uint8 arithmetic wraps, so one comparison tests a range),
    # counted per field: only its padding may be
    outside = np.flatnonzero(~(((raw | 0x20) - ord("a") < 26) | (raw - ord("0") < 10)
                               | (raw == ord("+")) | (raw == ord("/"))))
    n_outside = np.bincount(np.searchsorted(ends, outside, side="right"), minlength=len(fields))
    # the bits of the last character before the padding that no byte takes
    spare = _SEXTETS[raw[ends - 1 - n_pad]] & np.array([0, 0x03, 0x0F], dtype=np.int8)[n_pad]
    fail(np.flatnonzero((n_outside != n_pad) | (spare != 0)), "must be padded base64")

    data = np.frombuffer(b"".join(map(binascii.a2b_base64, fields)), dtype=np.uint8)
    byte_ends = np.cumsum(lengths // 4 * 3 - n_pad)
    fail(np.flatnonzero(data[byte_ends - 1] >= 0x80), "ends inside a varint")
    stops = np.flatnonzero(data < 0x80)  # the last byte of each varint
    counts = np.diff(np.searchsorted(stops, byte_ends), prepend=0)
    if stops.size == data.size:  # every varint one byte
        return data.astype(np.int64), counts
    width = np.diff(stops, prepend=-1)
    for bad, problem in ((width > _VARINT_BYTES, f"holds a varint of more than {_VARINT_BYTES} bytes"),
                         ((width > 1) & (data[stops] == 0), "holds a non-minimal varint")):
        fail(np.searchsorted(byte_ends, stops[bad], side="right"), problem)
    values = data[stops].astype(np.int64)  # a varint's last byte holds its highest bits
    for back in range(1, width.max()):  # then each byte before it, 7 bits lower
        longer = np.flatnonzero(width > back)
        values[longer] = values[longer] << 7 | data[stops[longer] - back] & 0x7F
    return values, counts


def _read_postings(gap_fields: list[str], tf_fields: list[str], path: Path, term_lines: np.ndarray,
                   n_docs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gaps and tfs fields of the term lines numbered `term_lines`: (offsets, roster
    position and tf per posting), term t's postings from `offsets[t]` to `offsets[t + 1]`."""
    gaps, df = _varints(gap_fields, "gaps", path, term_lines)
    tf, n_tf = _varints(tf_fields, "tfs", path, term_lines)
    mismatch = np.flatnonzero(df != n_tf)
    if mismatch.size:
        i = mismatch[0]
        raise ValueError(f"{path}:{term_lines[i]}: df {df[i]} (gaps) does not match {n_tf[i]} tfs")

    offsets = np.zeros(len(df) + 1, dtype=np.int64)
    np.cumsum(df, out=offsets[1:])
    starts = offsets[:-1]

    def fail(mask: np.ndarray, message: str) -> None:
        bad = np.flatnonzero(mask)
        if bad.size:  # name the line of the first bad posting
            raise ValueError(f"{path}:{term_lines[np.searchsorted(offsets, bad[0], 'right') - 1]}: {message}")

    fail(gaps >= n_docs, f"a posting lies outside the roster of {n_docs} documents")
    later = np.ones(gaps.size, dtype=bool)
    later[starts] = False
    fail(later & (gaps == 0), "postings repeat a document or leave roster order")
    fail(tf == 0, "tf must be an integer >= 1, got 0")
    first_gaps = gaps[starts]
    positions = np.cumsum(gaps, out=gaps)  # the gaps are read no more
    positions -= np.repeat(positions[starts] - first_gaps, df)
    fail(positions >= n_docs, f"a posting lies outside the roster of {n_docs} documents")
    return offsets, positions, tf


def _check_terms(terms: list[str], path: Path, first: int) -> None:
    """Check one space's terms, the first on line `first`: strictly ascending, and each
    spelt as `Keyword` or `Triple` spells it, so no term has two spellings.

    Both are checked over the whole space at once. A term these checks cannot vouch for,
    such as one holding `%`, or one of a space whose triple names are not all in normal
    form, is checked alone, in file order, by spelling it again; so is a failure, to name
    its line."""
    # a section's rows are file order, so it must be the canonical accumulation order
    if not all(map(operator.lt, terms, terms[1:])):
        i = next(i for i, (a, b) in enumerate(zip(terms, terms[1:])) if a >= b)
        raise ValueError(f"{path}:{first + i + 1}: terms are not in strictly ascending serialized order")
    # the terms ascend, so the keywords lie in one run and the triples in another
    k_lo, k_hi, t_lo, t_hi = (bisect_left(terms, prefix) for prefix in ("k:", "k;", "t:", "t;"))
    triples = terms[t_lo:t_hi]
    # a triple of three slots, not all `*`, with no `%` is spelt as `Triple` spells it but for
    # its name's case and spaces (a term field holds no tab or newline)
    plain = np.fromiter(map(str.count, triples, repeat("/")), np.int64, len(triples)) == 2
    if "%" in "".join(triples):
        plain &= ~np.fromiter(map(str.__contains__, triples, repeat("%")), bool, len(triples))
    if "t:*/*/*" in triples:
        plain[triples.index("t:*/*/*")] = False
    slots = "/".join(compress(triples, plain)).split("/")  # three a triple
    # each name after its `t:` and between two `/`: each is in normal form when the whole
    # is and none starts or ends with a space
    names = "/" + "/".join(slots[::3]) + "/"
    if normalize_name(names) != names or "/t: " in names or " /" in names:
        plain[:] = False
    unvouched = (t_lo + np.flatnonzero(~plain)).tolist()
    for i in chain(range(k_lo), range(k_hi, t_lo), unvouched, range(t_hi, len(terms))):
        text = terms[i]
        try:
            canonical = Triple(*triple_slots(text))
        except ValueError as exc:
            raise ValueError(f"{path}:{first + i}: {exc}") from None
        if canonical != text:
            raise ValueError(f"{path}:{first + i}: term {text!r} is not in canonical form, {canonical!r}")
