"""Span tracing from outside the program, for the benchmark's traced run.

`Tracer.install` rebinds the module attributes that ontosearch's own
callers look up (for example `ontosearch.rank.annotate`, which
`represent_document` and `represent_query` call), so every call through
them records a span: name, start, end, parent span, and the document or
query id when the call carries one. Hot leaves such as `stem` record only
a call count and total time. `Tracer.uninstall` puts the originals back.

A span's self time is its duration minus the time its child spans and
leaves cover. A target that no longer exists is listed in `absent`, and
the layer metrics that depend on it read 0; installing never fails.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

# metric-name spelling of the model names, which may contain "+"
MODEL_KEYS = {"kw": "kw", "ne": "ne", "kw-union-ne": "kw-union-ne",
              "kw+ne": "kw-plus-ne", "kw+ne+wh": "kw-plus-ne-wh"}
SPACES = ("KW", "N", "C", "NC", "I", "G")

# span record fields
NAME, START, END, PARENT, REF, TAG, COVERED = range(7)


class NullTracer:
    """Stand-in for the untraced passes: spans cost one attribute lookup."""

    _null = contextlib.nullcontext()

    def span(self, name, ref=None, tag=None):
        return self._null

    def register_index(self, bundle) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds]
        self.counts: Counter = Counter()
        self.stem_args: set[str] = set()
        self.space_names: dict[int, str] = {}  # id(space index) -> space name
        self.index_shape: dict[str, tuple[int, int]] = {}  # space -> (terms, postings)
        self.absent: list[str] = []
        self._installed: list[tuple] = []

    # --- recording -----------------------------------------------------------

    def _open(self, name, ref=None, tag=None) -> list:
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, ref, tag, 0.0]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def _close(self, record) -> None:
        record[END] = end = perf_counter()
        self._stack.pop()
        if record[PARENT] >= 0:
            self.spans[record[PARENT]][COVERED] += end - record[START]

    @contextlib.contextmanager
    def span(self, name, ref=None, tag=None):
        record = self._open(name, ref, tag)
        try:
            yield
        finally:
            self._close(record)

    def _span_wrapper(self, fn, name, ref_of=None, tag_of=None, after=None):
        def traced(*args, **kwargs):
            record = self._open(name,
                                ref_of(args, kwargs) if ref_of else None,
                                tag_of(args, kwargs) if tag_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def _leaf_wrapper(self, fn, name, distinct=None):
        stat = self.leaves.setdefault(name, [0, 0.0])
        spans, stack = self.spans, self._stack

        def counted(*args, **kwargs):
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stat[0] += 1
                stat[1] += elapsed
                if stack:
                    spans[stack[-1]][COVERED] += elapsed
                if distinct is not None:
                    distinct.add(args[0])
        return counted

    # --- hooks for the call sites -----------------------------------------------

    def _targets(self):
        def arg(position, keyword):
            return lambda a, kw: a[position] if len(a) > position else kw.get(keyword)

        def model_tag(a, kw):
            return MODEL_KEYS.get(arg(2, "cfg")(a, kw).model.value, "other")

        def space_tag(a, kw):
            return self.space_names.get(id(arg(1, "space")(a, kw)), "other")

        def count(key, value):
            def after(a, kw, result):
                self.counts[key] += value(a, kw, result)
            return after

        return (
            ("ontosearch.cli", "cmd_index", "cli.index", {}),
            ("ontosearch.cli", "cmd_search", "cli.search", {}),
            ("ontosearch.cli", "cmd_eval", "cli.eval", {}),
            ("ontosearch.cli", "cmd_sigtest", "cli.sigtest", {}),
            ("ontosearch.cli", "parse_corpus", "cli.parse_corpus", {}),
            ("ontosearch.cli", "load_kb", "kb.load", {}),
            ("ontosearch.kb", "load_kb", "kb.load", {}),
            ("ontosearch.cli", "represent_document", "rank.represent_document",
             {"ref_of": arg(2, "doc_id")}),
            ("ontosearch.cli", "build_index", "index.build",
             {"after": lambda a, kw, bundle: self._record_shape(bundle)}),
            ("ontosearch.cli", "save_index", "index.save", {}),
            ("ontosearch.cli", "load_index", "index.load", {}),
            ("ontosearch.index", "load_index", "index.load", {}),
            ("ontosearch.rank", "annotate", "annotate", {}),
            ("ontosearch.annotate", "recognize_entities", "annotate.recognize",
             {"after": count("annotate.mentions", lambda a, kw, r: len(r))}),
            ("ontosearch.annotate", "tokenize_keywords", "annotate.tokenize", {}),
            ("ontosearch.annotate", "stem", "stem", {"leaf": self.stem_args}),
            ("ontosearch.rank", "expand_document", "expand.document", {}),
            ("ontosearch.rank", "expand_query", "expand.query", {}),
            ("ontosearch.rank", "represent_query", "rank.represent_query", {}),
            ("ontosearch.rank", "score_query", "rank.score",
             {"tag_of": model_tag,
              "after": count("rank.candidates", lambda a, kw, r: len(r))}),
            ("ontosearch.rank", "cosine_score", "rank.cosine", {"tag_of": space_tag}),
            ("ontosearch.rank", "rank_documents", "rank.rank", {}),
            ("ontosearch.cli", "load_run", "evaluation.load_run", {}),
            ("ontosearch.cli", "average_precision", "evaluation.ap", {"leaf": None}),
            ("ontosearch.cli", "interpolated_curve", "evaluation.curve", {"leaf": None}),
            ("ontosearch.cli", "randomization_test", "evaluation.sigtest",
             {"after": count("evaluation.perms", lambda a, kw, r: arg(2, "n_perm")(a, kw))}),
        )

    def _record_shape(self, bundle) -> None:
        try:
            self.index_shape = {
                space.value: (len(sx.df), sum(sx.df.values()))
                for space, sx in bundle.spaces.items()
            }
        except AttributeError:
            self.absent.append("index shape (IndexBundle.spaces[*].df)")

    def register_index(self, bundle) -> None:
        """Name the space indexes of a loaded bundle for the cosine spans."""
        spaces = getattr(bundle, "spaces", {})
        self.space_names = {id(sx): space.value for space, sx in spaces.items()}

    # --- installation ----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, options in self._targets():
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if "leaf" in options:
                wrapper = self._leaf_wrapper(original, name, options["leaf"])
            else:
                wrapper = self._span_wrapper(original, name, **options)
            self._installed.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # --- summaries ---------------------------------------------------------------

    def totals(self) -> dict:
        """(name, tag) and (name, None) -> [calls, total seconds, self seconds]."""
        out: dict = {}
        for record in self.spans:
            duration = record[END] - record[START]
            keys = [(record[NAME], None)]
            if record[TAG] is not None:
                keys.append((record[NAME], record[TAG]))
            for key in keys:
                row = out.setdefault(key, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += duration
                row[2] += duration - record[COVERED]
        return out

    def child_calls(self, name: str, parent_name: str) -> int:
        return sum(1 for r in self.spans
                   if r[NAME] == name and r[PARENT] >= 0 and self.spans[r[PARENT]][NAME] == parent_name)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps({"name": record[NAME], "start": record[START],
                                     "end": record[END], "parent": record[PARENT],
                                     "ref": record[REF], "tag": record[TAG]}) + "\n")
            for name, (calls, seconds) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "calls": calls, "seconds": seconds}) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from one traced pass, keyed by their benchmark names."""
    t = tracer.totals()

    def calls(name, tag=None):
        return t.get((name, tag), (0, 0.0, 0.0))[0]

    def total(name, tag=None):
        return t.get((name, tag), (0, 0.0, 0.0))[1]

    def self_s(name):
        return t.get((name, None), (0, 0.0, 0.0))[2]

    stem_calls, stem_s = tracer.leaves.get("stem", (0, 0.0))
    docs = calls("rank.represent_document")
    m = {
        "kb.load_s": total("kb.load"),
        "cli.index.self_s": self_s("cli.index"),
        "cli.parse_corpus_s": total("cli.parse_corpus"),
        "cli.eval.self_s": self_s("cli.eval"),
        "cli.sigtest.self_s": self_s("cli.sigtest"),
        "stem.calls": stem_calls,
        "stem.distinct": len(tracer.stem_args),
        "stem.self_s": stem_s,
        "annotate.calls_per_doc":
            tracer.child_calls("annotate", "rank.represent_document") / docs if docs else 0.0,
        "annotate.tokenize.self_s": self_s("annotate.tokenize"),
        "annotate.recognize_s": total("annotate.recognize"),
        "annotate.recognize_calls": calls("annotate.recognize"),
        "annotate.mentions": tracer.counts["annotate.mentions"],
        "expand.document_s": total("expand.document"),
        "expand.query_s": total("expand.query"),
        "index.build_s": total("index.build"),
        "index.save_s": total("index.save"),
        "index.load_s": total("index.load"),
        "rank.represent_document_s": total("rank.represent_document"),
        "rank.represent_document_calls": docs,
        "rank.represent_query_s": total("rank.represent_query"),
        "rank.search_calls": calls("rank.search"),
        "rank.cosine_calls": calls("rank.cosine"),
        "rank.candidates": tracer.counts["rank.candidates"],
        "rank.rank_s": total("rank.rank"),
        "evaluation.load_run_s": total("evaluation.load_run"),
        "evaluation.ap_s": tracer.leaves.get("evaluation.ap", (0, 0.0))[1],
        "evaluation.curve_s": tracer.leaves.get("evaluation.curve", (0, 0.0))[1],
        "evaluation.sigtest_s": total("evaluation.sigtest"),
        "evaluation.perms": tracer.counts["evaluation.perms"],
    }
    for key in MODEL_KEYS.values():
        m[f"rank.search_s.{key}"] = total("rank.search", key)
        m[f"rank.score_s.{key}"] = total("rank.score", key)
    for space in SPACES:
        m[f"rank.cosine_s.{space}"] = total("rank.cosine", space)
        terms, postings = tracer.index_shape.get(space, (0, 0))
        m[f"index.terms.{space}"] = terms
        m[f"index.postings.{space}"] = postings
    return m
