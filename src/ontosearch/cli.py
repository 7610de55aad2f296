"""Command-line entry point: index, search, eval, sigtest, dump-terms.

File formats:
  corpus    records starting with `DOC<TAB>doc_id`, followed by the
            document's text lines until the next DOC record
  queries   `query_id<TAB>query text[<TAB>WH=class_id]`
  config    optional TSV of `key<TAB>value` pairs mirroring the flag
            names (without dashes); explicit flags win
  qrels     TREC `query_id 0 doc_id rel`
  run       TREC `query_id Q0 doc_id rank score tag`

Evaluation covers every query in the qrels: a query with no run lines
contributes an average precision of zero rather than being dropped, so
a system cannot improve its MAP by returning nothing.

An index directory carries a fingerprint of the knowledge base and
stop-word list used to build it; search refuses to run when the files
on the command line hash differently. All output files are written
atomically, so a failed command leaves no partial primary output.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

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
)
from .expand import Space, display_term
from .index import _FORBIDDEN_IN_DOC_ID, _atomic_write, build_index, load_index, save_index
from .kb import load_kb
from .rank import (
    Model,
    ModelConfig,
    format_run_lines,
    rank_documents,
    represent_document,
    represent_query,
    score_query,
    search,
)


class CliError(Exception):
    """Raised for user-facing command failures; maps to exit code 1."""


class QuerySpec(NamedTuple):
    query_id: str
    text: str
    wh_override: str | None


@dataclass(frozen=True)
class RunConfig:
    kb_path: Path
    model: ModelConfig
    stopword_path: Path | None = None
    wh_mapping_path: Path | None = None
    seed: int = 0

    @property
    def stopwords(self):
        if self.stopword_path is None:
            return DEFAULT_STOPWORDS
        return load_stopwords(self.stopword_path)

    @property
    def wh_mapping(self):
        if self.wh_mapping_path is None:
            return DEFAULT_WH_MAPPING
        return load_wh_mapping(self.wh_mapping_path)


# --- corpus and query files -----------------------------------------------------

def parse_corpus(text: str, origin: str = "<corpus>") -> dict[str, str]:
    """Ordered doc_id -> document text.

    Doc ids may not contain the index's separator characters, nor
    whitespace, which would split a whitespace-separated run or qrels
    line; they are rejected here, before any document is analyzed.
    """
    docs: dict[str, list[str]] = {}
    current: list[str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("DOC\t"):
            doc_id = raw[len("DOC\t"):].strip()
            if not doc_id:
                raise CliError(f"{origin}:{lineno}: DOC record with empty id")
            if any(ch in doc_id for ch in _FORBIDDEN_IN_DOC_ID):
                raise CliError(
                    f"{origin}:{lineno}: doc id {doc_id!r} contains a reserved "
                    "separator character (':', ',' or tab)"
                )
            if any(ch.isspace() for ch in doc_id):
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
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

def _fingerprint(kb_path: Path, stopword_path: Path | None) -> dict[str, str]:
    kb_hash = hashlib.sha256(Path(kb_path).read_bytes()).hexdigest()
    if stopword_path is None:
        stop_bytes = "\n".join(sorted(DEFAULT_STOPWORDS)).encode("utf-8")
    else:
        stop_bytes = Path(stopword_path).read_bytes()
    return {
        "kb_sha256": kb_hash,
        "stopwords_sha256": hashlib.sha256(stop_bytes).hexdigest(),
    }


def _write_fingerprint(index_dir: Path, fingerprint: dict[str, str]) -> None:
    lines = [f"{key}\t{value}" for key, value in sorted(fingerprint.items())]
    _atomic_write(index_dir / "fingerprint.tsv", "\n".join(lines) + "\n")


def _check_fingerprint(index_dir: Path, expected: dict[str, str]) -> None:
    path = index_dir / "fingerprint.tsv"
    if not path.is_file():
        raise CliError(f"index at {index_dir} has no fingerprint.tsv; rebuild it")
    stored = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("\t")
        stored[key] = value
    if stored != expected:
        raise CliError(
            "index fingerprint mismatch: the knowledge base or stop-word list "
            "differs from the one used at indexing time; rebuild the index"
        )


# --- commands ----------------------------------------------------------------------

def cmd_index(kb_path: Path, corpus_path: Path, index_dir: Path,
              stopword_path: Path | None) -> None:
    kb = load_kb(kb_path)
    stopwords = load_stopwords(stopword_path) if stopword_path else DEFAULT_STOPWORDS
    corpus = parse_corpus(corpus_path.read_text(encoding="utf-8"), str(corpus_path))
    reps = [
        represent_document(text, kb, doc_id, stopwords=stopwords)
        for doc_id, text in corpus.items()
    ]
    bundle = build_index(reps)
    save_index(bundle, index_dir)
    _write_fingerprint(index_dir, _fingerprint(kb_path, stopword_path))


def cmd_search(cfg: RunConfig, index_dir: Path, queries_path: Path,
               output_path: Path, run_tag: str) -> None:
    _check_fingerprint(index_dir, _fingerprint(cfg.kb_path, cfg.stopword_path))
    queries = parse_queries(queries_path.read_text(encoding="utf-8"), str(queries_path))
    kb = load_kb(cfg.kb_path)
    idx = load_index(index_dir)
    stopwords = cfg.stopwords
    wh_mapping = cfg.wh_mapping if cfg.model.model is Model.KW_PLUS_NE_WH else None
    lines: list[str] = []
    for query in queries:
        results = search(
            query.text, idx, kb, cfg.model,
            stopwords=stopwords, wh_mapping=wh_mapping, wh_override=query.wh_override,
        )
        lines.extend(format_run_lines(query.query_id, results, run_tag))
    _atomic_write(output_path, "\n".join(lines) + "\n" if lines else "")


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
        ranking = run.get(query_id, [])
        per_query_ap[query_id] = average_precision(ranking, qrels[query_id])
        curves.append(interpolated_curve(ranking, qrels[query_id]))
    _atomic_write(output_path, format_eval_report(per_query_ap, mean_curve(curves)))


def cmd_sigtest(run_a_path: Path, run_b_path: Path, qrels_path: Path,
                output_path: Path, n_perm: int, seed: int) -> None:
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
    _atomic_write(output_path, format_sigtest_report(result))


def cmd_dump_terms(cfg: RunConfig, text: str, side: str, wh_override: str | None) -> list[str]:
    kb = load_kb(cfg.kb_path)
    if side == "document":
        rep = represent_document(text, kb, "doc", stopwords=cfg.stopwords)
    else:
        wh_mapping = cfg.wh_mapping if cfg.model.model is Model.KW_PLUS_NE_WH else None
        rep = represent_query(
            text, kb, cfg.model,
            stopwords=cfg.stopwords, wh_mapping=wh_mapping, wh_override=wh_override,
        )
    if cfg.model.model in (Model.KW_PLUS_NE, Model.KW_PLUS_NE_WH):
        terms = set(rep.space_bags[Space.G])
    else:
        terms = set()
        for space in (Space.KW, Space.N, Space.C, Space.NC, Space.I):
            terms.update(rep.space_bags[space])
    return sorted(display_term(t) for t in terms)


# --- argument plumbing ---------------------------------------------------------------

def _load_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("\t")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected key<TAB>value")
        values[key.strip()] = value.strip()
    return values


def _merged(args: argparse.Namespace, config: dict[str, str], key: str, default=None):
    flag_value = getattr(args, key.replace("-", "_"), None)
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _model_config(args: argparse.Namespace, config: dict[str, str]) -> ModelConfig:
    model_name = _merged(args, config, "model", Model.KW_PLUS_NE.value)
    try:
        model = Model(model_name)
    except ValueError:
        raise CliError(f"unknown model {model_name!r}; choose from "
                       + ", ".join(m.value for m in Model)) from None

    weight_keys = ("wn", "wc", "wnc", "wi")
    given_weights = {k: _merged(args, config, k) for k in weight_keys}
    alpha = _merged(args, config, "alpha")
    if model not in (Model.NE, Model.KW_UNION_NE) and any(
        v is not None for v in given_weights.values()
    ):
        raise CliError("space weights apply only to models ne and kw-union-ne")
    if model is not Model.KW_UNION_NE and alpha is not None:
        raise CliError("--alpha applies only to model kw-union-ne")

    kwargs = {}
    names = {"wn": "w_n", "wc": "w_c", "wnc": "w_nc", "wi": "w_i"}
    for key, value in given_weights.items():
        if value is not None:
            kwargs[names[key]] = float(value)
    if alpha is not None:
        kwargs["alpha"] = float(alpha)
    k = _merged(args, config, "k")
    if k is not None:
        kwargs["k"] = int(k)
    try:
        return ModelConfig(model=model, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _run_config(args: argparse.Namespace, config: dict[str, str]) -> RunConfig:
    kb = _merged(args, config, "kb")
    if kb is None:
        raise CliError("--kb is required")
    model = _model_config(args, config)
    wh_mapping = _merged(args, config, "wh-mapping")
    if wh_mapping is not None and model.model is not Model.KW_PLUS_NE_WH:
        raise CliError("--wh-mapping applies only to model kw+ne+wh")
    stopwords = _merged(args, config, "stopwords")
    seed = int(_merged(args, config, "seed", 0))
    return RunConfig(
        kb_path=Path(kb),
        model=model,
        stopword_path=Path(stopwords) if stopwords else None,
        wh_mapping_path=Path(wh_mapping) if wh_mapping else None,
        seed=seed,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontosearch",
        description="Ontology-aware text retrieval over keyword and entity spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, help="optional TSV of key/value defaults")
        p.add_argument("--kb", help="knowledge base TSV")
        p.add_argument("--stopwords", help="stop-word list, one word per line")
        p.add_argument("--model", help="kw | ne | kw-union-ne | kw+ne | kw+ne+wh")
        p.add_argument("--alpha", help="keyword/entity blend for kw-union-ne")
        p.add_argument("--wn", help="name-space weight")
        p.add_argument("--wc", help="class-space weight")
        p.add_argument("--wnc", help="name-class-space weight")
        p.add_argument("--wi", help="identifier-space weight")
        p.add_argument("--k", help="result cutoff")
        p.add_argument("--seed", help="random seed")
        p.add_argument("--wh-mapping", help="interrogative-to-class TSV")

    p_index = sub.add_parser("index", help="build an index directory from a corpus")
    add_common(p_index)
    p_index.add_argument("--corpus", required=True, type=Path)
    p_index.add_argument("--index-dir", required=True, type=Path)

    p_search = sub.add_parser("search", help="run a query file against an index")
    add_common(p_search)
    p_search.add_argument("--index-dir", required=True, type=Path)
    p_search.add_argument("--queries", required=True, type=Path)
    p_search.add_argument("--output", required=True, type=Path)
    p_search.add_argument("--run-tag", default="ontosearch")

    p_eval = sub.add_parser("eval", help="score a run file against qrels")
    p_eval.add_argument("--run", required=True, type=Path)
    p_eval.add_argument("--qrels", required=True, type=Path)
    p_eval.add_argument("--output", required=True, type=Path)

    p_sig = sub.add_parser("sigtest", help="paired randomization test between two runs")
    p_sig.add_argument("--run-a", required=True, type=Path)
    p_sig.add_argument("--run-b", required=True, type=Path)
    p_sig.add_argument("--qrels", required=True, type=Path)
    p_sig.add_argument("--output", required=True, type=Path)
    p_sig.add_argument("--permutations", type=int, default=100_000)
    p_sig.add_argument("--seed", type=int, default=0)

    p_dump = sub.add_parser("dump-terms", help="print a text's expanded term set")
    add_common(p_dump)
    p_dump.add_argument("--side", choices=("query", "document"), default="query")
    p_dump.add_argument("--wh", help="override the query's wh class")
    p_dump.add_argument("text", help="query or document text")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config_file(args.config) if getattr(args, "config", None) else {}
        if args.command == "index":
            cfg = _run_config(args, config)
            cmd_index(cfg.kb_path, args.corpus, args.index_dir, cfg.stopword_path)
        elif args.command == "search":
            cfg = _run_config(args, config)
            cmd_search(cfg, args.index_dir, args.queries, args.output, args.run_tag)
        elif args.command == "eval":
            cmd_eval(args.run, args.qrels, args.output)
        elif args.command == "sigtest":
            cmd_sigtest(args.run_a, args.run_b, args.qrels, args.output,
                        args.permutations, args.seed)
        elif args.command == "dump-terms":
            cfg = _run_config(args, config)
            for line in cmd_dump_terms(cfg, args.text, args.side, args.wh):
                print(line)
        return 0
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
