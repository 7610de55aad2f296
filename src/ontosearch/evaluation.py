"""Retrieval evaluation: average precision, MAP, interpolated
precision-recall curves at the 11 standard recall levels, and a paired
Fisher randomization test for comparing two systems.

Average precision and the curve each start from one relevance mask per
ranking, which a caller judging both may build once and pass to each;
every sum over a ranking is a sequential `np.cumsum`, so both equal the
prefix-scan definitions exactly. A query's curve is the array of its 11
interpolated precisions. F is paired with each level only when curves are
averaged: `mean_curve` computes every query's F at every level from the
stacked curves, and both of its means add the rows in query order, as a
sequential scan does.

The randomization test keys one Philox generator by the seed and lays
the permutations end to end in its stream. With c = ceil(n / 4) for n
queries, permutation p reads the first n of the 4c raw draws at counters
p*c + 1 .. p*c + c, so a block of m permutations is one `random_raw(m * 4c)`
call from a generator that is never reset, and any one permutation can
still be drawn on its own by starting the counter at p*c. Distinct counters
under one key give independent draws, so no two permutations share one. A
query's pair is swapped exactly when its draw's top bit is clear, which is
when the uniform `(raw >> 11) * 2**-53` falls below one half. The
permutations are scored a block of rows at a time, each row's mean summed
the way a single permutation's is, so the counts equal the
one-permutation-at-a-time loop over `permutation_signs` bit for bit.

The run and qrels parsers read a file as one stream of per-line
`str.split`s, unpacked into named fields, and do each query's work with
calls over its whole lists of doc ids and ranks or rels; the cyclic garbage
collector is paused for that pass. Only a parse that fails walks the lines,
to name the first bad one as `path:line`.
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress
from operator import lt
from pathlib import Path
from typing import NoReturn

import numpy as np

from .textfile import read_text

RECALL_LEVELS = tuple(round(0.1 * j, 1) for j in range(11))

# sign-matrix entries scored per block of permutations (64 kB of float64)
_BLOCK_FLOATS = 1 << 13


def relevance_mask(ranking: list[str], relevant: set[str]) -> np.ndarray:
    """Whether each ranked doc is relevant, in rank order."""
    return np.fromiter(map(relevant.__contains__, ranking), bool, len(ranking))


def average_precision(ranking: list[str], relevant: set[str], *, mask: np.ndarray | None = None) -> float:
    """Mean of precision-at-rank over retrieved relevant docs; misses add 0.
    `mask`, when given, is the ranking's `relevance_mask`."""
    if not relevant:
        raise ValueError("relevant set is empty")
    if mask is None:
        mask = relevance_mask(ranking, relevant)
    ranks = np.flatnonzero(mask) + 1
    # the i-th hit's precision is i / its rank; a sequential cumsum adds
    # them in rank order, as a scan does (the pairwise np.sum would not)
    totals = np.cumsum(np.arange(1, ranks.size + 1) / ranks)
    return (float(totals[-1]) if totals.size else 0.0) / len(relevant)


def map_score(per_query_ap: list[float]) -> float:
    if not per_query_ap:
        raise ValueError("no per-query values to average")
    return sum(per_query_ap) / len(per_query_ap)


def interpolated_curve(ranking: list[str], relevant: set[str], *, mask: np.ndarray | None = None) -> np.ndarray:
    """Interpolated precision at each of the 11 levels: the max precision
    over every ranking prefix whose recall reaches the level. `mask`, when
    given, is the ranking's `relevance_mask`."""
    if not relevant:
        raise ValueError("relevant set is empty")
    if mask is None:
        mask = relevance_mask(ranking, relevant)
    hits = np.cumsum(mask)
    recalls = hits / len(relevant)
    precisions = hits / np.arange(1, len(ranking) + 1)
    # recall never falls along the ranking, so the prefixes reaching a level
    # are those from the first one that does; best[i] is the max precision
    # of prefix i and every later one (0.0 past the last)
    best = np.append(np.maximum.accumulate(precisions[::-1])[::-1], 0.0)
    return best[np.searchsorted(recalls, RECALL_LEVELS)]


def mean_curve(curves: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-level arithmetic means of precision and of F across queries; a
    query's F pairs its precision at a level with the level's recall value
    (0 where both are 0)."""
    if not curves:
        raise ValueError("no curves to average")
    precision = np.stack(curves)
    levels = np.array(RECALL_LEVELS)
    total = precision + levels
    f_measure = np.divide(2.0 * precision * levels, total, out=np.zeros_like(total), where=total > 0.0)
    # an axis-0 reduce of a C-contiguous stack adds whole rows in order
    return precision.sum(axis=0) / len(curves), f_measure.sum(axis=0) / len(curves)


# --- paired randomization test --------------------------------------------------

@dataclass(frozen=True)
class SigTestResult:
    delta: float
    n_minus: int
    n_plus: int
    n_perm: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_perm < 1:
            raise ValueError("n_perm must be >= 1")

    @property
    def p_two_sided(self) -> float:
        return min(1.0, (self.n_minus + self.n_plus) / self.n_perm)


def _row_counters(n_queries: int) -> int:
    """Philox counters one permutation of `n_queries` spans: four draws each."""
    return -(-n_queries // 4)


def permutation_signs(seed: int, perm_index: int, n_queries: int) -> np.ndarray:
    """Swap signs (+1/-1) for one permutation; -1 swaps the query's pair.

    A query's pair is swapped when its uniform draw is below one half. The
    draws come from a counter-based generator keyed by the seed, its counter
    started at `perm_index * ceil(n_queries / 4)`. Permutation p draws from
    the ceil(n_queries / 4) counters after its start, which end where p + 1's
    start, so the streams of distinct permutations never overlap and any one
    can be drawn on its own. The counter is a Python int, so a start of
    2**64 or more carries into the counter's second word.
    """
    bit_gen = np.random.Philox(key=seed, counter=perm_index * _row_counters(n_queries))
    return np.where(np.random.Generator(bit_gen).random(n_queries) < 0.5, -1.0, 1.0)


def permutation_sign_blocks(seed: int, n_perm: int, n_queries: int) -> Iterator[np.ndarray]:
    """The swap signs of permutations 0 .. n_perm - 1, a block of rows at a time.

    Row p of the concatenated blocks equals `permutation_signs(seed, p,
    n_queries)`. One Philox keyed by the seed, never reset, draws a block
    of m rows as one `random_raw` call of m rows of 4 * ceil(n_queries / 4)
    draws; a row keeps its first n_queries, and a draw's top bit is clear
    exactly when its uniform is below one half. A block holds at most
    `_BLOCK_FLOATS` signs (at least one row).
    """
    bit_gen = np.random.Philox(key=seed)
    width = 4 * _row_counters(n_queries)
    rows = max(1, _BLOCK_FLOATS // n_queries)
    for start in range(0, n_perm, rows):
        m = min(rows, n_perm - start)
        top_bits = bit_gen.random_raw(m * width).reshape(m, width)[:, :n_queries] >> 63
        signs = top_bits * 2.0  # a set bit keeps the pair (+1), a clear one swaps it (-1)
        signs -= 1.0
        yield signs


def per_query_diff(aps_a: list[float], aps_b: list[float]) -> list[float]:
    """Element-wise A - B in query order."""
    if len(aps_a) != len(aps_b):
        raise ValueError(f"paired lists differ in length: {len(aps_a)} vs {len(aps_b)}")
    return [a - b for a, b in zip(aps_a, aps_b)]


def randomization_test(
    aps_a: list[float],
    aps_b: list[float],
    n_perm: int,
    seed: int,
) -> SigTestResult:
    """Two-sided paired randomization test on per-query average precision.

    Each permutation swaps every query's (A, B) pair independently with
    probability one half and measures the signed MAP difference d; the
    two-sided p-value is the fraction of permutations with |d| >= the
    observed delta, clamped to 1.

    Permutation p's swaps are `permutation_signs(seed, p, n)`. One keyed
    Philox draws the permutations end to end, a block of rows per
    `random_raw` call, and the swaps are read off the draws' top bits (see
    `permutation_sign_blocks`). Each block of permutations is scored with
    one row-wise `(diffs * signs).mean(axis=1)`, which sums every row
    exactly as one permutation's `.mean()` does, so the counts are those of
    the serial loop bit for bit (a matrix product would sum in another
    order).
    """
    if not aps_a or not aps_b:
        raise ValueError("per-query score lists must be non-empty")
    diffs = np.asarray(per_query_diff(aps_a, aps_b), dtype=np.float64)
    delta = abs(float(diffs.mean()))

    n_minus = 0
    n_plus = 0
    for signs in permutation_sign_blocks(seed, n_perm, diffs.size):
        signs *= diffs
        d = signs.mean(axis=1)
        n_minus += int(np.count_nonzero(d <= -delta))
        n_plus += int(np.count_nonzero(d >= delta))
    return SigTestResult(delta=delta, n_minus=n_minus, n_plus=n_plus, n_perm=n_perm, seed=seed)


# --- file formats ----------------------------------------------------------------

def _fields(text: str) -> Iterator[list[str]]:
    """The whitespace-split fields of each non-blank line."""
    return filter(None, map(str.split, text.splitlines()))


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Hold off the cyclic garbage collector while a parse passes over its lines.

    The pass keeps strings, ints and a few lists per query, which hold no
    cycle, while the file's list of lines is still young. A collection set
    off inside the pass by an allocation elsewhere in the process (a signal
    handler's, another thread's) would walk every line and find nothing,
    so the pass would cost more or less by when one fell.

    When the pass ends, the young objects it kept are collected at once.
    Left young, they would be walked by whichever allocation next crossed
    the collector's threshold, be it in this command, a later one or a
    signal handler, depending on how many objects the process happened to
    make before the parse."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
            gc.collect(0)


def _walk_lines(text: str, origin: str, width: int, number: int, name: str) -> Iterator[tuple[int, list[str]]]:
    """Each non-blank line as (line number, fields), after checking that it
    has `width` fields and that field `number` (the `name`) is an integer;
    the first line that fails raises its `origin:line` error.

    Only a failed parse walks the lines, to name its first bad line; a walk
    that gets to the end has found none, which is a bug."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()  # [] for a blank line
        if len(fields) != width:
            if not fields:
                continue
            raise ValueError(f"{origin}:{lineno}: expected {width} fields, got {len(fields)}")
        try:
            int(fields[number])
        except ValueError:
            raise ValueError(f"{origin}:{lineno}: {name} {fields[number]!r} is not an integer") from None
        yield lineno, fields
    raise AssertionError(f"{origin}: the parse failed, but no line is malformed")


def parse_qrels(text: str, origin: str = "<qrels>") -> dict[str, set[str]]:
    """TREC qrels lines `query_id 0 doc_id rel`; rel > 0 marks relevance.

    A query with no rel > 0 is left out. The queries are in the order of
    their first line, whatever its rel."""
    judged: dict[str, tuple[list[str], list[str]]] = {}  # query_id -> (doc ids, rels)
    current_id = None  # the previous line's query
    try:
        with _collector_paused():
            for query_id, _, doc_id, rel in _fields(text):
                if query_id != current_id:
                    current_id = query_id
                    docs, rels = judged.setdefault(query_id, ([], []))
                docs.append(doc_id)
                rels.append(rel)
        relevant = {}
        for query_id, (docs, rels) in judged.items():
            positive = {rel: int(rel) > 0 for rel in set(rels)}  # a few distinct rels
            if any(positive.values()):
                relevant[query_id] = set(compress(docs, map(positive.__getitem__, rels)))
    except ValueError:
        for _ in _walk_lines(text, origin, 4, 3, "relevance"):
            pass
    return relevant


def load_qrels(path: str | Path) -> dict[str, set[str]]:
    path = Path(path)
    return parse_qrels(read_text(path), str(path))


def _raise_run_fault(text: str, origin: str) -> NoReturn:
    """Raise the error of a run's first bad line, a doc repeated within its
    query included."""
    seen: dict[str, set[str]] = {}  # query_id -> its doc ids so far
    for lineno, (query_id, _, doc_id, *_) in _walk_lines(text, origin, 6, 3, "rank"):
        docs = seen.setdefault(query_id, set())
        if doc_id in docs:
            raise ValueError(
                f"{origin}:{lineno}: duplicate doc {doc_id!r} in ranking for query {query_id!r}"
            )
        docs.add(doc_id)


def parse_run(text: str, origin: str = "<run>") -> dict[str, list[str]]:
    """TREC run lines `query_id Q0 doc_id rank score tag` -> rankings per query.

    A ranking is ordered by rank, ties by doc id; a query's lines need not
    be contiguous."""
    columns: dict[str, tuple[list[str], list[int]]] = {}  # query_id -> (doc ids, ranks)
    current_id = None  # the previous line's query
    try:
        with _collector_paused():
            for query_id, _, doc_id, rank, _, _ in _fields(text):
                if query_id != current_id:
                    current_id = query_id
                    docs, ranks = columns.setdefault(query_id, ([], []))
                docs.append(doc_id)
                ranks.append(int(rank))
    except ValueError:
        _raise_run_fault(text, origin)
    rankings: dict[str, list[str]] = {}
    for query_id, (docs, ranks) in columns.items():
        if len(set(docs)) != len(docs):
            _raise_run_fault(text, origin)
        if all(map(lt, ranks, ranks[1:])):  # already in rank order, as search writes them
            rankings[query_id] = docs
        else:
            rankings[query_id] = [doc_id for _, doc_id in sorted(zip(ranks, docs))]
    return rankings


def load_run(path: str | Path) -> dict[str, list[str]]:
    path = Path(path)
    return parse_run(read_text(path), str(path))


def format_eval_report(
    per_query_ap: dict[str, float],
    precision: np.ndarray,
    f_measure: np.ndarray,
) -> str:
    """TSV report: one `ap` line per query, a `map` line, and one `curve`
    line per recall level with its mean precision and mean F."""
    lines = [f"ap\t{query_id}\t{ap:.6f}" for query_id, ap in sorted(per_query_ap.items())]
    lines.append(f"map\t{map_score(list(per_query_ap.values())):.6f}")
    for level, p, f in zip(RECALL_LEVELS, precision.tolist(), f_measure.tolist()):
        lines.append(f"curve\t{level:.1f}\t{p:.6f}\t{f:.6f}")
    return "\n".join(lines) + "\n"


def format_sigtest_report(result: SigTestResult) -> str:
    header = "delta\tn_minus\tn_plus\tp\tn_perm\tseed"
    row = (
        f"{result.delta:.6f}\t{result.n_minus}\t{result.n_plus}"
        f"\t{result.p_two_sided:.6f}\t{result.n_perm}\t{result.seed}"
    )
    return header + "\n" + row + "\n"
