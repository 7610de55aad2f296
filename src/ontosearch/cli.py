"""Command-line entry point: index, search, eval, sigtest, dump-terms.

File formats:
  corpus    records starting with `DOC<TAB>doc_id`, followed by the
            document's text lines until the next DOC record
  queries   `query_id<TAB>query text[<TAB>WH=class_id]`
  config    optional TSV of `key<TAB>value` lines, each key set at most
            once; an unknown key is an error and explicit flags win
  qrels     TREC `query_id 0 doc_id rel`
  run       TREC `query_id Q0 doc_id rank score tag`; the tag (--run-tag)
            is one non-empty word

Flags and config keys come from one table, `_SETTINGS`: each of the ten
keys has its help, its converter, the models that read it and the
commands that take it as a flag. index, search and dump-terms each check
every key a config file sets, as search would, and a failure names the
flag or the config line; then the stop-word and wh-mapping files are
read, once. No command takes abbreviated flags, and an empty path is an
error.

Evaluation covers every query with at least one relevant doc (rel > 0)
in the qrels: a query with no run lines contributes an average precision
of zero rather than being dropped, so a system cannot improve its MAP by
returning nothing. A query whose every qrels line has rel <= 0 is not
judged, since its average precision is undefined.

An index directory holds one file, `index.tsv`, whose header carries a
fingerprint of the knowledge base file and of the stop-word set (its
sorted words, one a line) used to build it (see `ontosearch.index`).
Search reads that header first and refuses to run when the inputs on
the command line hash differently, or when the directory holds an index
of an earlier format, which must be rebuilt. The postings
and the fingerprint are committed by one rename, so a failed `index`
leaves the old index with its own fingerprint. All output files are
written atomically, so a failed command leaves no partial primary output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .annotate import DEFAULT_STOPWORDS, DEFAULT_WH_MAPPING, load_stopwords, load_wh_mapping
from .evaluation import (
    average_precision,
    format_eval_report,
    format_sigtest_report,
    interpolated_curve,
    load_qrels,
    load_run,
    mean_curve,
    randomization_test,
    relevance_mask,
)
from .expand import Space, display_term
from .index import build_index, load_index, read_fingerprint, save_index
from .kb import load_kb
from .rank import (
    Model,
    ModelConfig,
    format_run_lines,
    represent_document,
    represent_query,
    search,
)
from .textfile import read_text, write_text


class CliError(Exception):
    """Raised for user-facing command failures; maps to exit code 1."""


class QuerySpec(NamedTuple):
    query_id: str
    text: str
    wh_override: str | None


class RunConfig(NamedTuple):
    kb_path: Path
    model: ModelConfig
    stopwords: frozenset[str]
    wh_mapping: dict[str, str]


# --- corpus and query files -----------------------------------------------------

def parse_corpus(text: str, origin: str = "<corpus>") -> dict[str, str]:
    """Ordered doc_id -> document text.

    Doc ids may not contain whitespace, which would split a
    whitespace-separated run or qrels line (tab and newline also separate
    the index's fields); they are rejected here, before any document is
    analyzed.
    """
    docs: dict[str, list[str]] = {}
    current: list[str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("DOC\t"):
            doc_id = raw[len("DOC\t"):].strip()
            if not doc_id:
                raise CliError(f"{origin}:{lineno}: DOC record with empty id")
            if doc_id.split() != [doc_id]:  # split() splits at exactly the str.isspace characters
                raise CliError(f"{origin}:{lineno}: doc id {doc_id!r} contains whitespace")
            if doc_id in docs:
                raise CliError(f"{origin}:{lineno}: duplicate doc id {doc_id!r}")
            current = docs.setdefault(doc_id, [])
        elif raw.strip():
            if current is None:
                raise CliError(f"{origin}:{lineno}: text before the first DOC record")
            current.append(raw)
    return {doc_id: "\n".join(lines) for doc_id, lines in docs.items()}


def parse_queries(text: str, origin: str = "<queries>") -> list[QuerySpec]:
    queries: list[QuerySpec] = []
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise CliError(f"{origin}:{lineno}: expected 2 or 3 tab-separated fields")
        query_id, query_text = fields[0].strip(), fields[1]
        if not query_id:
            raise CliError(f"{origin}:{lineno}: empty query id")
        if any(ch.isspace() for ch in query_id):
            raise CliError(f"{origin}:{lineno}: query id {query_id!r} contains whitespace")
        if query_id in seen:
            raise CliError(f"{origin}:{lineno}: duplicate query id {query_id!r}")
        seen.add(query_id)
        wh_override = None
        if len(fields) == 3:
            if not fields[2].startswith("WH="):
                raise CliError(f"{origin}:{lineno}: third field must be WH=<class_id>")
            wh_override = fields[2][len("WH="):].strip()
            if not wh_override:
                raise CliError(f"{origin}:{lineno}: empty WH class")
        queries.append(QuerySpec(query_id, query_text, wh_override))
    return queries


# --- fingerprinting ---------------------------------------------------------------

def _fingerprint(kb_path: Path, stopwords: frozenset[str]) -> dict[str, str]:
    """sha256 of the KB file and of the stop-word set, its sorted words one a line."""
    stop_bytes = "\n".join(sorted(stopwords)).encode("utf-8")
    return {
        "kb_sha256": hashlib.sha256(kb_path.read_bytes()).hexdigest(),
        "stopwords_sha256": hashlib.sha256(stop_bytes).hexdigest(),
    }


def _check_fingerprint(index_dir: Path, expected: dict[str, str]) -> None:
    if read_fingerprint(index_dir) != expected:
        raise CliError(
            "index fingerprint mismatch: the knowledge base or stop-word list "
            "differs from the one used at indexing time; rebuild the index"
        )


# --- commands ----------------------------------------------------------------------

def cmd_index(cfg: RunConfig, corpus_path: Path, index_dir: Path) -> None:
    kb = load_kb(cfg.kb_path)
    corpus = parse_corpus(read_text(corpus_path), str(corpus_path))
    reps = [
        represent_document(text, kb, doc_id, stopwords=cfg.stopwords)
        for doc_id, text in corpus.items()
    ]
    bundle = build_index(reps)
    save_index(bundle, index_dir, _fingerprint(cfg.kb_path, cfg.stopwords))


def cmd_search(cfg: RunConfig, index_dir: Path, queries_path: Path,
               output_path: Path, run_tag: str) -> None:
    # the tag is the sixth field of whitespace-separated run lines
    if not run_tag or any(ch.isspace() for ch in run_tag):
        raise CliError(f"--run-tag {run_tag!r} must be non-empty and contain no whitespace")
    _check_fingerprint(index_dir, _fingerprint(cfg.kb_path, cfg.stopwords))
    queries = parse_queries(read_text(queries_path), str(queries_path))
    kb = load_kb(cfg.kb_path)
    idx = load_index(index_dir)
    lines: list[str] = []
    for query in queries:
        ranking = search(
            query.text, idx, kb, cfg.model,
            stopwords=cfg.stopwords, wh_mapping=cfg.wh_mapping, wh_override=query.wh_override,
        )
        lines.extend(format_run_lines(query.query_id, ranking, run_tag))
    write_text(output_path, "\n".join(lines) + "\n" if lines else "")


def cmd_eval(run_path: Path, qrels_path: Path, output_path: Path) -> None:
    run = load_run(run_path)
    qrels = load_qrels(qrels_path)
    if not qrels:
        raise CliError(f"no relevance judgments in {qrels_path}")
    if not set(run) & set(qrels):
        raise CliError("run and qrels share no query ids")
    per_query_ap: dict[str, float] = {}
    curves = []
    for query_id in sorted(qrels):
        ranking, relevant = run.get(query_id, []), qrels[query_id]
        mask = relevance_mask(ranking, relevant)  # one per ranking, for both judgments
        per_query_ap[query_id] = average_precision(ranking, relevant, mask=mask)
        curves.append(interpolated_curve(ranking, relevant, mask=mask))
    write_text(output_path, format_eval_report(per_query_ap, *mean_curve(curves)))


def cmd_sigtest(run_a_path: Path, run_b_path: Path, qrels_path: Path,
                output_path: Path, n_perm: int, seed: int) -> None:
    if n_perm < 1:
        raise CliError(f"--permutations {n_perm} must be >= 1")
    if not 0 <= seed < 2**128:  # the keys Philox takes
        raise CliError(f"--seed {seed} must be in [0, 2**128)")
    run_a = load_run(run_a_path)
    run_b = load_run(run_b_path)
    qrels = load_qrels(qrels_path)
    if not qrels:
        raise CliError(f"no relevance judgments in {qrels_path}")
    if not set(run_a) & set(qrels) or not set(run_b) & set(qrels):
        raise CliError("both runs must share query ids with the qrels")
    query_ids = sorted(qrels)
    aps_a = [average_precision(run_a.get(q, []), qrels[q]) for q in query_ids]
    aps_b = [average_precision(run_b.get(q, []), qrels[q]) for q in query_ids]
    result = randomization_test(aps_a, aps_b, n_perm=n_perm, seed=seed)
    write_text(output_path, format_sigtest_report(result))


def cmd_dump_terms(cfg: RunConfig, text: str, side: str, wh_override: str | None) -> list[str]:
    kb = load_kb(cfg.kb_path)
    if side == "document":
        rep = represent_document(text, kb, "doc", stopwords=cfg.stopwords)
    else:
        rep = represent_query(
            text, kb, cfg.model,
            stopwords=cfg.stopwords, wh_mapping=cfg.wh_mapping, wh_override=wh_override,
        )
    generalized = cfg.model.model in (Model.KW_PLUS_NE, Model.KW_PLUS_NE_WH)
    spaces = [Space.G] if generalized else [Space.KW, Space.N, Space.C, Space.NC, Space.I]
    return sorted(display_term(t) for t in set().union(*(rep.space_bags[space] for space in spaces)))


# --- argument plumbing ---------------------------------------------------------------

def _path(text: str) -> Path:
    if not text:
        raise argparse.ArgumentTypeError(f"invalid path {text!r}")
    return Path(text)


class Setting(NamedTuple):
    help: str
    convert: Callable[[str], object]  # int, float, Model, or _path for a file
    models: frozenset[Model]  # the models that read it
    commands: tuple[str, ...]  # the commands that take it as a flag
    field: str | None = None  # the ModelConfig field it sets


_ALL_MODELS = frozenset(Model)
_SPACE_WEIGHTED = frozenset({Model.NE, Model.KW_UNION_NE})
_ANALYSIS = ("index", "search", "dump-terms")

# the keys a --config file may set, in the order they are read: model comes
# before every key that only some models read
_SETTINGS = {
    "kb": Setting("knowledge base TSV", _path, _ALL_MODELS, _ANALYSIS),
    "stopwords": Setting("stop-word list, one word per line", _path, _ALL_MODELS, _ANALYSIS),
    "model": Setting("kw | ne | kw-union-ne | kw+ne | kw+ne+wh", Model, _ALL_MODELS,
                     ("search", "dump-terms"), "model"),
    "alpha": Setting("keyword/entity blend for kw-union-ne", float,
                     frozenset({Model.KW_UNION_NE}), ("search",), "alpha"),
    "wn": Setting("name-space weight", float, _SPACE_WEIGHTED, ("search",), "w_n"),
    "wc": Setting("class-space weight", float, _SPACE_WEIGHTED, ("search",), "w_c"),
    "wnc": Setting("name-class-space weight", float, _SPACE_WEIGHTED, ("search",), "w_nc"),
    "wi": Setting("identifier-space weight", float, _SPACE_WEIGHTED, ("search",), "w_i"),
    "k": Setting("result cutoff", int, _ALL_MODELS, ("search",), "k"),
    "wh-mapping": Setting("interrogative-to-class TSV", _path,
                          frozenset({Model.KW_PLUS_NE_WH}), ("search", "dump-terms")),
}
# the error for a value each converter rejects
_INVALID = {
    int: "{where} {text!r} is not an integer",
    float: "{where} {text!r} is not a number",
    _path: "{where} {text!r} is not a path",
    Model: "unknown model {text!r}; choose from " + ", ".join(m.value for m in Model),
}


def _load_config_file(path: Path) -> dict[str, tuple[str, str]]:
    """key -> (value, `path:lineno` of the line that set it)."""
    values: dict[str, tuple[str, str]] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("\t")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected key<TAB>value")
        key = key.strip()
        if key not in _SETTINGS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}; a config file sets "
                           + ", ".join(_SETTINGS))
        if key in values:
            raise CliError(f"{path}:{lineno}: key {key!r} is set again; "
                           f"{values[key][1]} set it first")
        values[key] = (value.strip(), f"{path}:{lineno}")
    return values


def _run_config(args: argparse.Namespace) -> RunConfig:
    """Each setting from its flag, or else its config line, converted and checked
    against the model; a failure names the flag or the config line. Then the
    stop-word and wh-mapping files are read, or the built-in ones taken."""
    config = _load_config_file(args.config) if args.config else {}
    values = {}
    model = ModelConfig.model
    for key, setting in _SETTINGS.items():
        text, where = getattr(args, key.replace("-", "_"), None), f"--{key}"
        if text is None and key in config:
            text, line = config[key]
            where = f"{line}: {key}"
        if text is None:
            if key == "kb":
                raise CliError("--kb is required")
            continue
        try:
            values[key] = setting.convert(text)
        except (ValueError, argparse.ArgumentTypeError):
            raise CliError(_INVALID[setting.convert].format(where=where, text=text)) from None
        model = values.get("model", model)
        if model not in setting.models:
            names = [m.value for m in Model if m in setting.models]
            raise CliError(f"{where} applies only to model{'s' * (len(names) > 1)} "
                           + " and ".join(names))
    try:
        model_config = ModelConfig(**{
            _SETTINGS[key].field: value for key, value in values.items() if _SETTINGS[key].field})
    except ValueError as exc:
        raise CliError(str(exc)) from None
    return RunConfig(
        values["kb"], model_config,
        load_stopwords(values["stopwords"]) if "stopwords" in values else DEFAULT_STOPWORDS,
        load_wh_mapping(values["wh-mapping"]) if "wh-mapping" in values else DEFAULT_WH_MAPPING)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: parsing leaves it as it was, and help is formatted when printed."""
    parser = argparse.ArgumentParser(
        prog="ontosearch",
        description="Ontology-aware text retrieval over keyword and entity spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help):
        # no abbreviations, so a flag one command takes (--run-tag) is not
        # read for one it lacks (--run)
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        keys = [key for key, setting in _SETTINGS.items() if name in setting.commands]
        if keys:
            p.add_argument("--config", type=_path, help="optional TSV of key/value defaults")
        for key in keys:
            p.add_argument(f"--{key}", help=_SETTINGS[key].help)
        return p

    p_index = add_command("index", "build an index directory from a corpus")
    p_index.add_argument("--corpus", required=True, type=_path)
    p_index.add_argument("--index-dir", required=True, type=_path)

    p_search = add_command("search", "run a query file against an index")
    p_search.add_argument("--index-dir", required=True, type=_path)
    p_search.add_argument("--queries", required=True, type=_path)
    p_search.add_argument("--output", required=True, type=_path)
    p_search.add_argument("--run-tag", default="ontosearch")

    p_eval = add_command("eval", "score a run file against qrels")
    p_eval.add_argument("--run", required=True, type=_path)
    p_eval.add_argument("--qrels", required=True, type=_path)
    p_eval.add_argument("--output", required=True, type=_path)

    p_sig = add_command("sigtest", "paired randomization test between two runs")
    p_sig.add_argument("--run-a", required=True, type=_path)
    p_sig.add_argument("--run-b", required=True, type=_path)
    p_sig.add_argument("--qrels", required=True, type=_path)
    p_sig.add_argument("--output", required=True, type=_path)
    p_sig.add_argument("--permutations", type=int, default=100_000)
    p_sig.add_argument("--seed", type=int, default=0)

    p_dump = add_command("dump-terms", "print a text's expanded term set")
    p_dump.add_argument("--side", choices=("query", "document"), default="query")
    p_dump.add_argument("--wh", help="override the query's wh class (model kw+ne+wh, --side query only)")
    p_dump.add_argument("text", help="query or document text")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "index":
            cmd_index(_run_config(args), args.corpus, args.index_dir)
        elif args.command == "search":
            cmd_search(_run_config(args), args.index_dir, args.queries, args.output, args.run_tag)
        elif args.command == "eval":
            cmd_eval(args.run, args.qrels, args.output)
        elif args.command == "sigtest":
            cmd_sigtest(args.run_a, args.run_b, args.qrels, args.output,
                        args.permutations, args.seed)
        elif args.command == "dump-terms":
            cfg = _run_config(args)
            if args.wh is not None and cfg.model.model is not Model.KW_PLUS_NE_WH:
                raise CliError("--wh applies only to model kw+ne+wh")
            if args.wh is not None and args.side == "document":
                raise CliError("--wh applies only to --side query")
            for line in cmd_dump_terms(cfg, args.text, args.side, args.wh):
                print(line)
        return 0
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
