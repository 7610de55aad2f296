"""End-to-end command-line behavior: files in, files out, exit codes."""

from __future__ import annotations

import argparse
import builtins
import hashlib
import os
import re
import sys
from pathlib import Path

import pytest

from ontosearch import cli, evaluation
from ontosearch.annotate import DEFAULT_STOPWORDS
from ontosearch.cli import CliError, main, parse_corpus, parse_queries
from ontosearch.evaluation import load_run
from ontosearch.index import load_index
from ontosearch.synth import generate

from conftest import DATA_DIR, FIGURE_DOC, FIGURE_QUERY

KB = str(DATA_DIR / "figure_kb.tsv")

CORPUS_TEXT = f"""\
DOC\td-pres
{FIGURE_DOC}
DOC\td-georgia
Georgia signed the wine accord last spring.
DOC\td-moscow
Moscow hosts the winter fair near the river.
"""

QUERIES_TEXT = (
    "q1\tWho is the president of Stanford University?\n"
    "q2\tGeorgia wine\n"
    "q3\twinter fair\tWH=Location\n"
)


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "corpus.tsv").write_text(CORPUS_TEXT, encoding="utf-8")
    (tmp_path / "queries.tsv").write_text(QUERIES_TEXT, encoding="utf-8")
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_tree(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# --- parsing helpers -------------------------------------------------------------

def test_parse_corpus_splits_records():
    docs = parse_corpus(CORPUS_TEXT)
    assert list(docs) == ["d-pres", "d-georgia", "d-moscow"]
    assert docs["d-georgia"] == "Georgia signed the wine accord last spring."
    assert docs["d-pres"].startswith("The California Compact")


def test_parse_corpus_rejects_duplicates_and_orphan_text():
    with pytest.raises(CliError, match="duplicate doc id 'd1'"):
        parse_corpus("DOC\td1\nx\nDOC\td1\ny\n")
    with pytest.raises(CliError, match="before the first DOC"):
        parse_corpus("orphan line\nDOC\td1\n")


def test_parse_queries_reads_wh_column():
    queries = parse_queries(QUERIES_TEXT)
    assert [q.query_id for q in queries] == ["q1", "q2", "q3"]
    assert queries[0].wh_override is None
    assert queries[2].wh_override == "Location"


@pytest.mark.parametrize("line", [
    "q1\ttext\tWH=\n",
    "q1\ttext\tPerson\n",
    "q1\n",
    "q1\ta\tb\tc\n",
])
def test_parse_queries_rejects_malformed_lines(line):
    with pytest.raises(CliError):
        parse_queries(line)


def test_parse_queries_rejects_duplicate_ids():
    with pytest.raises(CliError, match="duplicate query id"):
        parse_queries("q1\ta\nq1\tb\n")


def test_parse_queries_skips_comments_and_blank_lines_and_rejects_an_empty_id():
    queries = parse_queries("# judged\n\nq1\tGeorgia wine\n   \n#q2\tnot a query\nq3\tfair\n")
    assert [(q.query_id, q.text) for q in queries] == [("q1", "Georgia wine"), ("q3", "fair")]
    with pytest.raises(CliError, match=r"^<queries>:2: empty query id$"):
        parse_queries("q1\tx\n \tGeorgia wine\n")


def test_parse_corpus_rejects_a_doc_record_with_an_empty_id():
    with pytest.raises(CliError, match=r"^<corpus>:3: DOC record with empty id$"):
        parse_corpus("DOC\td1\ntext\nDOC\t \nmore\n")


def test_the_doc_id_check_rejects_exactly_the_ids_that_hold_a_space_character():
    # `doc_id.split() != [doc_id]` against the per-character `any(ch.isspace() ...)`,
    # over every code point
    differ = [c for c in range(sys.maxunicode + 1)
              if ((doc_id := f"d{chr(c)}1").split() != [doc_id]) != chr(c).isspace()]
    assert differ == []
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert len(spaces) == 29
    for ch in spaces:
        if len(f"d{ch}1".splitlines()) > 1:  # a line break ends the DOC line first
            continue
        doc_id = f"d{ch}1"
        with pytest.raises(CliError, match=f"^<corpus>:3: doc id {re.escape(repr(doc_id))} contains whitespace$"):
            parse_corpus(f"DOC\tok\ntext\nDOC\t{doc_id}\nmore\n")


# --- index command -----------------------------------------------------------------

def test_index_writes_expected_directory_shape(workspace):
    index_dir = workspace / "idx"
    assert run_cli("index", "--kb", KB, "--corpus", workspace / "corpus.tsv",
                   "--index-dir", index_dir) == 0
    assert [p.name for p in index_dir.iterdir()] == ["index.tsv"]
    header = (index_dir / "index.tsv").read_text(encoding="utf-8").splitlines()[:3]
    assert header[0] == "ontosearch-index\t4"
    assert [line.split("\t")[0] for line in header[1:]] == ["kb_sha256", "stopwords_sha256"]


def test_index_rerun_is_byte_identical(workspace):
    index_dir = workspace / "idx"
    run_cli("index", "--kb", KB, "--corpus", workspace / "corpus.tsv", "--index-dir", index_dir)
    first = read_tree(index_dir)
    run_cli("index", "--kb", KB, "--corpus", workspace / "corpus.tsv", "--index-dir", index_dir)
    assert read_tree(index_dir) == first


# sha256 of the index.tsv that `ontosearch index` writes for synth.generate(seed=7, n_docs=600)
# with the default stop words; a change to analysis, the build or the saver moves it
SYNTH_600_INDEX_SHA256 = "1759b385c83b3ca69dd1cd2032bde846b6dafd8ee3946f6de8d800b7a6b71f50"


def test_index_bytes_of_a_600_document_synthetic_collection_are_pinned(tmp_path):
    collection = generate(seed=7, n_docs=600)
    (tmp_path / "kb.tsv").write_text(collection.kb_text, encoding="utf-8")
    (tmp_path / "corpus.tsv").write_text(collection.corpus_text, encoding="utf-8")
    assert run_cli("index", "--kb", tmp_path / "kb.tsv", "--corpus", tmp_path / "corpus.tsv",
                   "--index-dir", tmp_path / "idx") == 0
    index_bytes = (tmp_path / "idx" / "index.tsv").read_bytes()
    assert hashlib.sha256(index_bytes).hexdigest() == SYNTH_600_INDEX_SHA256


def test_index_duplicate_doc_id_fails_without_output(workspace, capsys):
    (workspace / "bad.tsv").write_text("DOC\tdup\nx\nDOC\tdup\ny\n", encoding="utf-8")
    index_dir = workspace / "idx-bad"
    assert run_cli("index", "--kb", KB, "--corpus", workspace / "bad.tsv",
                   "--index-dir", index_dir) == 1
    assert "dup" in capsys.readouterr().err
    assert not index_dir.exists()


@pytest.mark.parametrize("doc_id", ["d:1", "d,1", "d\t1"])
def test_index_rejects_reserved_doc_id_before_analysis(workspace, capsys, monkeypatch, doc_id):
    # a tab, which separates the index's fields, is whitespace too; ':' and ','
    # are not reserved, so those ids pass the check and both documents are indexed
    (workspace / "bad.tsv").write_text(f"DOC\tok\nfine text\nDOC\t{doc_id}\ny\n", encoding="utf-8")
    analyzed = []
    represent = cli.represent_document

    def recording(*args, **kwargs):
        rep = represent(*args, **kwargs)
        analyzed.append(rep.doc_id)
        return rep

    monkeypatch.setattr(cli, "represent_document", recording)
    index_dir = workspace / "idx-bad"
    code = run_cli("index", "--kb", KB, "--corpus", workspace / "bad.tsv", "--index-dir", index_dir)
    err = capsys.readouterr().err
    if "\t" in doc_id:
        assert code == 1
        assert f"bad.tsv:3: doc id {doc_id!r} contains whitespace" in err
        assert analyzed == []
        assert not index_dir.exists()
    else:
        assert (code, err) == (0, "")
        assert analyzed == ["ok", doc_id]
        assert (index_dir / "index.tsv").exists()


def test_doc_ids_with_colons_and_commas_round_trip_through_index_search_and_eval(tmp_path):
    (tmp_path / "corpus.tsv").write_text(
        "DOC\ta:1,b\nGeorgia signed the wine accord.\n"
        "DOC\tz,2\nMoscow hosts the winter fair.\n"
        "DOC\tplain\nA river runs past the fair.\n", encoding="utf-8")
    (tmp_path / "queries.tsv").write_text("q1\tGeorgia wine\nq2\twinter fair\n", encoding="utf-8")
    (tmp_path / "qrels.txt").write_text("q1 0 a:1,b 1\nq2 0 z,2 1\n", encoding="utf-8")
    index_dir, run, report = tmp_path / "idx", tmp_path / "run.txt", tmp_path / "eval.tsv"
    assert run_cli("index", "--kb", KB, "--corpus", tmp_path / "corpus.tsv",
                   "--index-dir", index_dir) == 0
    assert run_cli("search", "--kb", KB, "--index-dir", index_dir, "--model", "kw",
                   "--queries", tmp_path / "queries.tsv", "--output", run) == 0
    assert [line.split()[:3] for line in run.read_text().splitlines()] == [
        ["q1", "Q0", "a:1,b"], ["q2", "Q0", "z,2"], ["q2", "Q0", "plain"]]
    assert run_cli("eval", "--run", run, "--qrels", tmp_path / "qrels.txt", "--output", report) == 0
    assert "map\t1.000000" in report.read_text().splitlines()


@pytest.mark.parametrize("doc_id", ["d 1", "d\u00a01", "d\u20031"])
def test_index_rejects_whitespace_in_doc_id_before_analysis(workspace, capsys, monkeypatch, doc_id):
    # a doc id with whitespace would split its run lines into extra fields
    (workspace / "bad.tsv").write_text(f"DOC\tok\nfine text\nDOC\t{doc_id}\ny\n", encoding="utf-8")
    analyzed = []
    monkeypatch.setattr(cli, "represent_document", lambda *args, **kwargs: analyzed.append(args))
    index_dir = workspace / "idx-bad"
    assert run_cli("index", "--kb", KB, "--corpus", workspace / "bad.tsv",
                   "--index-dir", index_dir) == 1
    assert f"bad.tsv:3: doc id {doc_id!r} contains whitespace" in capsys.readouterr().err
    assert analyzed == []
    assert not index_dir.exists()


# --- search command -------------------------------------------------------------------

def build_index_dir(workspace):
    index_dir = workspace / "idx"
    assert run_cli("index", "--kb", KB, "--corpus", workspace / "corpus.tsv",
                   "--index-dir", index_dir) == 0
    return index_dir


def test_search_produces_well_formed_ranked_run(workspace):
    index_dir = build_index_dir(workspace)
    out = workspace / "run.txt"
    assert run_cli("search", "--kb", KB, "--index-dir", index_dir,
                   "--queries", workspace / "queries.tsv", "--output", out,
                   "--model", "kw+ne+wh", "--run-tag", "wh-run") == 0
    lines = out.read_text().splitlines()
    assert lines, "expected at least one result line"
    for line in lines:
        query_id, q0, doc_id, rank, score, tag = line.split()
        assert q0 == "Q0" and tag == "wh-run"
        assert 0.0 < float(score) <= 1.0
        assert "." in score and len(score.split(".")[1]) == 6
    run = load_run(out)
    assert run["q1"][0] == "d-pres"   # who/president query finds the president doc
    assert run["q2"][0] == "d-georgia"
    assert "d-moscow" in run["q3"]    # WH=Location reaches the city mention


def test_search_is_deterministic(workspace):
    index_dir = build_index_dir(workspace)
    out1, out2 = workspace / "run1.txt", workspace / "run2.txt"
    for out in (out1, out2):
        run_cli("search", "--kb", KB, "--index-dir", index_dir,
                "--queries", workspace / "queries.tsv", "--output", out, "--model", "kw+ne")
    assert out1.read_bytes() == out2.read_bytes()


def test_search_empty_query_file_writes_empty_run(workspace):
    index_dir = build_index_dir(workspace)
    (workspace / "none.tsv").write_text("", encoding="utf-8")
    out = workspace / "run-empty.txt"
    assert run_cli("search", "--kb", KB, "--index-dir", index_dir,
                   "--queries", workspace / "none.tsv", "--output", out) == 0
    assert out.read_text() == ""


@pytest.mark.parametrize("query_id", ["q 1", "q\u00a01"])
def test_search_rejects_whitespace_in_query_id_before_analysis(workspace, capsys, monkeypatch, query_id):
    index_dir = build_index_dir(workspace)
    (workspace / "bad.tsv").write_text(f"q0\twine\n{query_id}\tGeorgia wine\n", encoding="utf-8")
    analyzed = []
    monkeypatch.setattr(cli, "search", lambda *args, **kwargs: analyzed.append(args))
    out = workspace / "run.txt"
    assert run_cli("search", "--kb", KB, "--index-dir", index_dir,
                   "--queries", workspace / "bad.tsv", "--output", out) == 1
    assert f"bad.tsv:2: query id {query_id!r} contains whitespace" in capsys.readouterr().err
    assert analyzed == []
    assert not out.exists()


def test_search_rejects_fingerprint_mismatch(workspace, capsys):
    index_dir = build_index_dir(workspace)
    other_kb = workspace / "other_kb.tsv"
    other_kb.write_text("CLASS\tThing\t-\tTOP\n", encoding="utf-8")
    out = workspace / "run.txt"
    assert run_cli("search", "--kb", other_kb, "--index-dir", index_dir,
                   "--queries", workspace / "queries.tsv", "--output", out) == 1
    assert "fingerprint" in capsys.readouterr().err
    assert not out.exists()


def test_a_kb_edited_while_index_runs_is_refused_by_search(workspace, capsys, monkeypatch):
    # the fingerprint is that of the KB the documents were analysed with, not of the file afterwards
    kb = workspace / "kb.tsv"
    original = Path(KB).read_bytes()
    kb.write_bytes(original)

    def build_after_an_edit(reps, real_build=cli.build_index):
        kb.write_bytes(original + b"ENTITY\tFair_T.1\tDayTime\twinter fair\t-\n")
        return real_build(reps)

    monkeypatch.setattr(cli, "build_index", build_after_an_edit)
    index_dir = workspace / "idx"
    assert run_cli("index", "--kb", kb, "--corpus", workspace / "corpus.tsv", "--index-dir", index_dir) == 0
    monkeypatch.undo()
    assert load_index(index_dir).fingerprint["kb_sha256"] == hashlib.sha256(original).hexdigest()
    out = workspace / "run.txt"
    assert run_cli("search", "--kb", kb, "--index-dir", index_dir,
                   "--queries", workspace / "queries.tsv", "--output", out) == 1
    assert "error: index fingerprint mismatch" in capsys.readouterr().err
    assert not out.exists()


def test_search_names_the_line_of_a_malformed_kb(workspace, capsys):
    index_dir = build_index_dir(workspace)
    text = Path(KB).read_text(encoding="utf-8")
    bad_kb = workspace / "bad_kb.tsv"
    bad_kb.write_text(text + "BOGUS\tline\n", encoding="utf-8")
    out = workspace / "run.txt"
    assert run_cli("search", "--kb", bad_kb, "--index-dir", index_dir,
                   "--queries", workspace / "queries.tsv", "--output", out) == 1
    line = len(text.splitlines()) + 1
    assert f"error: {bad_kb}:{line}: unknown record tag 'BOGUS'" in capsys.readouterr().err
    assert not out.exists()


def test_the_fingerprint_covers_the_stop_word_set_not_the_file(workspace, capsys):
    (workspace / "stop.txt").write_text("the\nof\nis\nwho\n", encoding="utf-8")
    (workspace / "same.txt").write_text("\nWHO\n  Is\n\nof\nThe\n\n", encoding="utf-8")
    (workspace / "other.txt").write_text("the\nof\n", encoding="utf-8")
    index_dir = workspace / "idx"
    assert run_cli("index", "--kb", KB, "--stopwords", workspace / "stop.txt",
                   "--corpus", workspace / "corpus.tsv", "--index-dir", index_dir) == 0

    def search_with(*stopwords, out):
        return run_cli("search", "--kb", KB, *stopwords, "--index-dir", index_dir,
                       "--queries", workspace / "queries.tsv", "--output", workspace / out)

    assert search_with("--stopwords", workspace / "stop.txt", out="run.txt") == 0
    assert search_with("--stopwords", workspace / "same.txt", out="same-run.txt") == 0
    assert (workspace / "same-run.txt").read_bytes() == (workspace / "run.txt").read_bytes()
    assert search_with("--stopwords", workspace / "other.txt", out="other-run.txt") == 1
    assert search_with(out="default-run.txt") == 1
    assert capsys.readouterr().err.count("error: index fingerprint mismatch") == 2
    assert not (workspace / "other-run.txt").exists()
    assert not (workspace / "default-run.txt").exists()


def test_the_built_in_stop_words_keep_their_fingerprint(workspace):
    # the sha256 of the sorted built-in words, one a line, as every index built with them records
    header = (build_index_dir(workspace) / "index.tsv").read_text(encoding="utf-8").splitlines()
    assert header[2] == ("stopwords_sha256\t"
                         "6fe251d7cea0ca18b7ed9d899091d7e565bd84b10eb7ca939a37a63d0beb5f64")


def test_the_built_in_stop_words_as_a_file_build_the_same_index(workspace):
    (workspace / "stop.txt").write_text("\n".join(sorted(DEFAULT_STOPWORDS, reverse=True)),
                                        encoding="utf-8")
    default_dir = build_index_dir(workspace)
    file_dir = workspace / "idx-file"
    assert run_cli("index", "--kb", KB, "--stopwords", workspace / "stop.txt",
                   "--corpus", workspace / "corpus.tsv", "--index-dir", file_dir) == 0
    assert read_tree(file_dir) == read_tree(default_dir)
    assert search_exit(workspace, KB, file_dir) == 0


def search_exit(workspace, kb, index_dir, out_name="run.txt"):
    return run_cli("search", "--kb", kb, "--index-dir", index_dir,
                   "--queries", workspace / "queries.tsv", "--output", workspace / out_name)


@pytest.mark.parametrize("fail_at", [1, 2, 8])
def test_a_failed_reindex_keeps_the_old_index_and_its_fingerprint(workspace, capsys, monkeypatch, fail_at):
    """Whichever rename of a re-index fails, the index left behind is whole and carries its own fingerprint."""
    index_dir = build_index_dir(workspace)
    before = read_tree(index_dir)
    other_kb = workspace / "other_kb.tsv"
    # one more entity, which the corpus names, so the new index differs in more than its fingerprint
    other_kb.write_text(Path(KB).read_text(encoding="utf-8") + "ENTITY\tFair_T.1\tDayTime\twinter fair\t-\n",
                        encoding="utf-8")
    renames = []

    def flaky_replace(src, dst, real_replace=os.replace):
        renames.append(dst)
        if len(renames) == fail_at:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", flaky_replace)  # the commit step of every atomic write
    failed = run_cli("index", "--kb", other_kb, "--corpus", workspace / "corpus.tsv",
                     "--index-dir", index_dir) == 1
    monkeypatch.undo()
    if failed:
        assert "disk full" in capsys.readouterr().err
        assert read_tree(index_dir) == before  # no temp file, no part of the new index
    else:
        assert "\nt:winter fair/*/*\t" in (index_dir / "index.tsv").read_text(encoding="utf-8")
    accepted, refused = (KB, other_kb) if failed else (other_kb, KB)
    assert search_exit(workspace, accepted, index_dir) == 0
    assert search_exit(workspace, refused, index_dir, "refused-run.txt") == 1
    assert "fingerprint mismatch" in capsys.readouterr().err
    assert not (workspace / "refused-run.txt").exists()


def test_a_format_1_directory_is_refused_and_reindexing_replaces_it(workspace, capsys):
    index_dir = workspace / "idx"
    index_dir.mkdir()
    old = ["manifest.tsv", "fingerprint.tsv", "KW.tsv", "N.tsv", "C.tsv", "NC.tsv", "I.tsv", "G.tsv"]
    for name in old:
        (index_dir / name).write_text("written by format 1\n", encoding="utf-8")
    assert search_exit(workspace, KB, index_dir) == 1
    assert f"missing index file: {index_dir / 'index.tsv'}" in capsys.readouterr().err
    assert not (workspace / "run.txt").exists()
    assert build_index_dir(workspace) == index_dir
    assert sorted(p.name for p in index_dir.iterdir()) == sorted([*old, "index.tsv"])
    assert search_exit(workspace, KB, index_dir) == 0


def test_a_format_2_index_is_refused_and_reindexing_replaces_it(workspace, capsys):
    index_dir = build_index_dir(workspace)
    path = index_dir / "index.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    # format 2's header line, over a body without its sha256 line
    path.write_text("\n".join(["ontosearch-index\t2", *lines[1:-1]]) + "\n", encoding="utf-8")
    assert search_exit(workspace, KB, index_dir) == 1
    err = capsys.readouterr().err
    assert "expected the format line 'ontosearch-index\\t4', got 'ontosearch-index\\t2'" in err
    assert "rebuild it" in err
    assert not (workspace / "run.txt").exists()
    assert build_index_dir(workspace) == index_dir
    assert path.read_text(encoding="utf-8").splitlines() == lines
    assert search_exit(workspace, KB, index_dir) == 0


def test_search_without_index_fails(workspace, capsys):
    out = workspace / "run.txt"
    assert run_cli("search", "--kb", KB, "--index-dir", workspace / "missing",
                   "--queries", workspace / "queries.tsv", "--output", out) == 1
    assert not out.exists()


@pytest.mark.parametrize("tag", ["my run", "", "tab\tseparated"])
def test_search_rejects_a_run_tag_before_reading_kb_or_index(workspace, capsys, monkeypatch, tag):
    opened = []
    monkeypatch.setattr(cli, "load_kb", lambda *args: opened.append(args))
    monkeypatch.setattr(cli, "load_index", lambda *args: opened.append(args))
    out = workspace / "run.txt"
    assert run_cli("search", "--kb", KB, "--index-dir", workspace / "missing",
                   "--queries", workspace / "queries.tsv", "--output", out,
                   "--run-tag", tag) == 1
    assert f"error: --run-tag {tag!r} must be non-empty" in capsys.readouterr().err
    assert opened == []
    assert not out.exists()


@pytest.mark.parametrize("argv,fragment", [
    (("search", "--model", "bm25"), "unknown model"),
    (("search", "--model", "kw", "--alpha", "0.5"), "alpha"),
    (("search", "--model", "kw+ne", "--wn", "1.0"), "--wn"),
    (("search", "--model", "kw", "--wh-mapping", "x.tsv"), "wh-mapping"),
])
def test_model_flag_validation(workspace, capsys, argv, fragment):
    index_dir = build_index_dir(workspace)
    full = list(argv) + ["--kb", KB, "--index-dir", str(index_dir),
                         "--queries", str(workspace / "queries.tsv"),
                         "--output", str(workspace / "run.txt")]
    assert main(full) == 1
    assert fragment in capsys.readouterr().err


def test_config_file_supplies_defaults_and_flags_win(workspace):
    index_dir = build_index_dir(workspace)
    config = workspace / "config.tsv"
    config.write_text(f"model\tkw\nkb\t{KB}\n", encoding="utf-8")
    out_kw = workspace / "run-kw.txt"
    assert run_cli("search", "--config", config, "--index-dir", index_dir,
                   "--queries", workspace / "queries.tsv", "--output", out_kw) == 0
    out_ne = workspace / "run-override.txt"
    assert run_cli("search", "--config", config, "--model", "kw+ne", "--index-dir", index_dir,
                   "--queries", workspace / "queries.tsv", "--output", out_ne) == 0
    kw_lines = out_kw.read_text()
    assert "Q0" in kw_lines
    assert out_ne.read_text() != kw_lines  # the flag really overrode the config


def unread_search_paths(tmp_path):
    """The path flags of a search that fails on its settings, before it opens a file."""
    return ("--index-dir", tmp_path / "index", "--queries", tmp_path / "queries.tsv",
            "--output", tmp_path / "run.txt")


@pytest.mark.parametrize("flag,value,model,message", [
    ("k", "ten", "kw", "--k 'ten' is not an integer"),
    ("k", "2.5", "kw", "--k '2.5' is not an integer"),
    ("alpha", "x", "kw-union-ne", "--alpha 'x' is not a number"),
    ("wn", "x", "ne", "--wn 'x' is not a number"),
], ids=["k-word", "k-fraction", "alpha", "wn"])
def test_unparseable_number_names_its_flag_or_config_line(tmp_path, capsys, flag, value,
                                                           model, message):
    assert run_cli("search", "--kb", KB, "--model", model, f"--{flag}", value,
                   *unread_search_paths(tmp_path)) == 1
    assert f"error: {message}\n" == capsys.readouterr().err
    config = tmp_path / "config.tsv"
    config.write_text(f"# defaults\nmodel\t{model}\n{flag}\t{value}\n", encoding="utf-8")
    assert run_cli("dump-terms", "--kb", KB, "--config", config, "Moscow") == 1
    assert f"error: {config}:3: {flag} {value!r} is not " in capsys.readouterr().err


@pytest.mark.parametrize("key,value,model,message", [
    ("wn", "1.0", "kw+ne", "applies only to models ne and kw-union-ne"),
    ("alpha", "0.5", "ne", "applies only to model kw-union-ne"),
    ("wh-mapping", "wh.tsv", "kw+ne", "applies only to model kw+ne+wh"),
], ids=["wn", "alpha", "wh-mapping"])
def test_a_setting_the_model_does_not_read_names_its_flag_or_config_line(tmp_path, capsys, key,
                                                                         value, model, message):
    assert run_cli("search", "--kb", KB, "--model", model, f"--{key}", value,
                   *unread_search_paths(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: --{key} {message}\n"
    config = tmp_path / "config.tsv"
    config.write_text(f"model\t{model}\n# the key no model {model} reads\n{key}\t{value}\n",
                      encoding="utf-8")
    assert run_cli("search", "--kb", KB, "--config", config, *unread_search_paths(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {config}:3: {key} {message}\n"


def test_kb_is_required_before_any_other_setting_is_checked(tmp_path, capsys):
    config = tmp_path / "config.tsv"
    config.write_text("model\tbm25\nk\tten\n", encoding="utf-8")
    assert run_cli("search", "--config", config, "--stopwords", "", "--wn", "x",
                   *unread_search_paths(tmp_path)) == 1
    assert capsys.readouterr().err == "error: --kb is required\n"


@pytest.mark.parametrize("command,flag", [
    ("dump-terms", "kb"), ("dump-terms", "stopwords"), ("dump-terms", "wh-mapping"),
    ("index", "stopwords"),
])
def test_an_empty_path_flag_is_an_error_not_the_default(workspace, capsys, command, flag):
    rest = {
        "dump-terms": ["--model", "kw+ne+wh", "Who founded Stanford University?"],
        "index": ["--corpus", workspace / "corpus.tsv", "--index-dir", workspace / "index"],
    }[command]
    assert run_cli(command, "--kb", KB, f"--{flag}", "", *rest) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --{flag} '' is not a path\n"
    assert captured.out == ""
    assert not (workspace / "index").exists()


EMPTY_PATH_ARGV = {
    "index": ["--kb", KB, "--corpus", "corpus.tsv", "--index-dir", "new-idx"],
    "search": ["--kb", KB, "--index-dir", "idx", "--queries", "queries.tsv", "--output", "out.txt"],
    "eval": ["--run", "run.txt", "--qrels", "qrels.txt", "--output", "out.txt"],
    "sigtest": ["--run-a", "run.txt", "--run-b", "run.txt", "--qrels", "qrels.txt",
                "--output", "out.txt", "--permutations", "10"],
    "dump-terms": ["--kb", KB, "Moscow"],
}


@pytest.mark.parametrize("command,flag", [
    ("index", "--corpus"), ("index", "--index-dir"), ("index", "--config"),
    ("search", "--index-dir"), ("search", "--queries"), ("search", "--output"),
    ("search", "--config"),
    ("eval", "--run"), ("eval", "--qrels"), ("eval", "--output"),
    ("sigtest", "--run-a"), ("sigtest", "--run-b"), ("sigtest", "--qrels"), ("sigtest", "--output"),
    ("dump-terms", "--config"),
])
def test_an_empty_path_flag_exits_2_and_writes_nothing(workspace, capsys, monkeypatch, command, flag):
    # without the empty flag each command line succeeds in this directory
    build_index_dir(workspace)
    (workspace / "run.txt").write_text(RUN_A, encoding="utf-8")
    (workspace / "qrels.txt").write_text(QRELS, encoding="utf-8")
    monkeypatch.chdir(workspace)
    before = {p: p.read_bytes() for p in sorted(workspace.rglob("*")) if p.is_file()}
    argv = list(EMPTY_PATH_ARGV[command])
    if flag in argv:
        argv[argv.index(flag) + 1] = ""
    else:
        argv[:0] = [flag, ""]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, *argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: invalid path ''" in captured.err
    assert "_path" not in captured.err
    assert captured.out == ""
    assert {p: p.read_bytes() for p in sorted(workspace.rglob("*")) if p.is_file()} == before


def test_nan_space_weight_is_rejected(tmp_path, capsys):
    assert run_cli("search", "--kb", KB, "--model", "ne", "--wn", "nan",
                   *unread_search_paths(tmp_path)) == 1
    assert "space weights must sum to 1" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["modle", "seed", "corpus"])
def test_config_file_rejects_a_key_no_flag_reads(tmp_path, capsys, key):
    config = tmp_path / "config.tsv"
    config.write_text(f"kb\t{KB}\n\n{key}\tkw\n", encoding="utf-8")
    assert run_cli("dump-terms", "--config", config, "Moscow") == 1
    assert f"error: {config}:3: unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["index", "search", "dump-terms"])
def test_seed_is_not_a_flag_of_the_analysis_commands(workspace, capsys, command):
    argv = {
        "index": ["--corpus", workspace / "corpus.tsv", "--index-dir", workspace / "index"],
        "search": ["--index-dir", workspace / "index", "--queries", workspace / "queries.tsv",
                   "--output", workspace / "run.txt"],
        "dump-terms": ["Moscow"],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, "--kb", KB, "--seed", "1", *argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    assert not (workspace / "index").exists()


@pytest.mark.parametrize("command,flag", [
    *(("index", flag) for flag in ("model", "alpha", "wn", "wc", "wnc", "wi", "k", "wh-mapping")),
    *(("dump-terms", flag) for flag in ("alpha", "wn", "wc", "wnc", "wi", "k")),
])
def test_index_and_dump_terms_take_no_flag_they_do_not_read(workspace, capsys, command, flag):
    argv = {
        "index": ["--corpus", workspace / "corpus.tsv", "--index-dir", workspace / "index"],
        "dump-terms": ["Moscow"],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, "--kb", KB, *argv, f"--{flag}", "1")
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: --{flag} 1" in capsys.readouterr().err
    assert not (workspace / "index").exists()


@pytest.mark.parametrize("argv", [
    ("search", "--kb", KB, "--index-dir", "idx", "--queries", "queries.tsv",
     "--output", "out.tsv", "--run", "eval.txt"),
    ("search", "--kb", KB, "--index-dir", "idx", "--que", "queries.tsv", "--output", "out.tsv"),
    ("eval", "--run", "run.txt", "--qrels", "qrels.txt", "--out", "out.tsv"),
    ("sigtest", "--run-a", "run.txt", "--run-b", "run.txt", "--qrels", "qrels.txt",
     "--output", "out.tsv", "--perm", "5"),
], ids=["search-run", "search-que", "eval-out", "sigtest-perm"])
def test_no_command_takes_an_abbreviated_flag(workspace, capsys, monkeypatch, argv):
    # each command line would succeed if its abbreviation were read as the full flag
    build_index_dir(workspace)
    (workspace / "run.txt").write_text(RUN_A, encoding="utf-8")
    (workspace / "qrels.txt").write_text(QRELS, encoding="utf-8")
    monkeypatch.chdir(workspace)
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 2
    assert "error: " in capsys.readouterr().err
    assert not (workspace / "out.tsv").exists()


def test_search_takes_every_config_key_as_a_flag(tmp_path):
    keys = ("kb", "stopwords", "model", "alpha", "wn", "wc", "wnc", "wi", "k", "wh-mapping")
    argv = ["search", *(f"--{key}=v-{key}" for key in keys), *unread_search_paths(tmp_path)]
    args = cli._build_parser().parse_args([str(a) for a in argv])
    assert {key: getattr(args, key.replace("-", "_")) for key in keys} == {
        key: f"v-{key}" for key in keys}


def test_main_builds_the_parser_once_per_process(capsys):
    cli._build_parser.cache_clear()
    outputs = []
    for _ in range(2):
        assert run_cli("dump-terms", "--kb", KB, "Georgia wine") == 0
        outputs.append(capsys.readouterr().out)
    assert (cli._build_parser.cache_info().misses, cli._build_parser.cache_info().hits) == (1, 1)
    assert outputs[0] == outputs[1] and "wine\n" in outputs[0]


@pytest.mark.parametrize("command", [[], ["index"], ["search"], ["eval"], ["sigtest"], ["dump-terms"]],
                         ids=["ontosearch", "index", "search", "eval", "sigtest", "dump-terms"])
def test_every_help_is_formatted_at_print_time_as_a_fresh_parser_formats_it(command, monkeypatch, capsys):
    # the cached parser does not freeze the width of the terminal it was built under
    cli._build_parser.cache_clear()
    for columns in ("50", "120", "50"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exit_info:
            cli._build_parser.__wrapped__().parse_args([*command, "--help"])
        assert exit_info.value.code == 0
        fresh = capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*command, "--help")
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == fresh
    assert cli._build_parser.cache_info().misses == 1


def test_readme_flag_table_lists_each_commands_settings_flags():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
    documented = {
        row[0].strip("` "): re.findall(r"`(--[a-z-]+)`", row[1])
        for row in (line.strip("|").split("|") for line in section.splitlines()
                    if line.startswith("| `"))
    }
    settings = {f"--{key}" for key in cli._SETTINGS}
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)).choices
    taken = {}
    for command, parser in subparsers.items():
        flags = [flag for action in parser._actions for flag in action.option_strings
                 if flag in settings]
        if flags:
            taken[command] = flags
    assert documented == taken


def test_index_checks_every_key_of_its_config_file(workspace, capsys):
    config = workspace / "config.tsv"
    config.write_text(f"kb\t{KB}\nmodel\tkw\nk\tten\n", encoding="utf-8")
    assert run_cli("index", "--config", config, "--corpus", workspace / "corpus.tsv",
                   "--index-dir", workspace / "index") == 1
    assert f"error: {config}:3: k 'ten' is not an integer" in capsys.readouterr().err
    assert not (workspace / "index").exists()


def test_index_checks_a_wh_mapping_file_its_config_names(workspace, capsys):
    (workspace / "wh.tsv").write_text("who Person\n", encoding="utf-8")
    config = workspace / "config.tsv"
    config.write_text(f"kb\t{KB}\nmodel\tkw+ne+wh\nwh-mapping\t{workspace / 'wh.tsv'}\n",
                      encoding="utf-8")
    assert run_cli("index", "--config", config, "--corpus", workspace / "corpus.tsv",
                   "--index-dir", workspace / "index") == 1
    assert capsys.readouterr().err == f"error: {workspace / 'wh.tsv'}:1: expected `word<TAB>class_id`\n"
    assert not (workspace / "index").exists()


def test_config_file_line_needs_a_tab(tmp_path, capsys):
    config = tmp_path / "config.tsv"
    config.write_text(f"kb\t{KB}\nmodel kw\n", encoding="utf-8")
    assert run_cli("dump-terms", "--config", config, "Moscow") == 1
    assert capsys.readouterr().err == f"error: {config}:2: expected key<TAB>value\n"


def test_config_file_rejects_a_key_set_twice(tmp_path, capsys):
    config = tmp_path / "config.tsv"
    config.write_text(f"kb\t{KB}\nmodel\tkw\n# later\nmodel\tkw+ne+wh\n", encoding="utf-8")
    assert run_cli("search", "--config", config, *unread_search_paths(tmp_path)) == 1
    assert (f"error: {config}:4: key 'model' is set again; {config}:2 set it first\n"
            == capsys.readouterr().err)


# sha256 of each run file `ontosearch search` writes with default flags for the
# 24 judged queries of synth.generate(seed=7); bench/expected.json records the same
JUDGED_RUN_SHA256 = {
    "kw": "1bd2c0524926b0b1605eff9b935e1c7e5ea5469d51ef9e2958cba94f5db2e492",
    "ne": "c6a368133fd502f15c0238fe28781ab3b1ace77687c921c1378445bbdee207b8",
    "kw-union-ne": "1153b841cbeae6f9c295561bc6b415b3c2fb8e268dde0fd8a557d1e28dd1cf36",
    "kw+ne": "13d7849d921543809a29332dbcf1ee879ed54befd60c6fa9b10b05acd9cfb79c",
    "kw+ne+wh": "1da8f66c8fee001ade2a49bfcc4603a9f1feedae989d23a89eb0d7f51db8573e",
}


@pytest.fixture(scope="module")
def judged_synth(tmp_path_factory):
    """A directory holding synth.generate(seed=7)'s qrels and its five run files."""
    work = tmp_path_factory.mktemp("judged")
    collection = generate(seed=7)
    for name, text in (("kb.tsv", collection.kb_text), ("corpus.tsv", collection.corpus_text),
                       ("queries.tsv", collection.queries_text), ("qrels.txt", collection.qrels_text)):
        (work / name).write_text(text, encoding="utf-8")
    common = ["--kb", work / "kb.tsv", "--index-dir", work / "index"]
    assert run_cli("index", *common, "--corpus", work / "corpus.tsv") == 0
    for model in JUDGED_RUN_SHA256:
        assert run_cli("search", *common, "--queries", work / "queries.tsv",
                       "--model", model, "--output", work / f"run-{model}.txt") == 0
    return work


def test_judged_synth_run_files_match_their_recorded_digests(judged_synth):
    digests = {model: hashlib.sha256((judged_synth / f"run-{model}.txt").read_bytes()).hexdigest()
               for model in JUDGED_RUN_SHA256}
    assert digests == JUDGED_RUN_SHA256


# sha256 of each `ontosearch eval` report of those five runs against synth's qrels
JUDGED_EVAL_SHA256 = {
    "kw": "cd02039aa9c97b7e061c8a7c551e8a8b01d2f8cc181099af783bbb5995e298cb",
    "ne": "04a72b5693f35135e4762533283c394d4d4392ffd8fbdca6c6a0fe815b99d652",
    "kw-union-ne": "2b3692df908823838b85ef68403a668b620c8569c8d357b331195f07355cac69",
    "kw+ne": "8375388249c1970b5e9b755f080374d615afe24f6df482175ac41f432bfa6b55",
    "kw+ne+wh": "58ce9fdae9cd93dcdd9215a15c769744b1e1463c32b205b6c79f2ab4317c9592",
}
# sha256 of the `ontosearch sigtest --permutations 2000 --seed 7` reports of the
# benchmark's two pairs of those runs
JUDGED_SIGTEST_SHA256 = {
    ("kw", "kw+ne"): "1c603cf6a23daa303ae05b8ff9eac94287a94cb64508ace1523aaea0e24b7cc0",
    ("kw+ne", "kw+ne+wh"): "d944776050a5a5f6ac0c5a7457ba7690cd7a0c67ec7603b947b57f63f945da1e",
}


def judge_synth(work, command, *models, out):
    if command == "eval":
        runs = ["--run", work / f"run-{models[0]}.txt"]
    else:
        runs = ["--run-a", work / f"run-{models[0]}.txt", "--run-b", work / f"run-{models[1]}.txt",
                "--permutations", "2000", "--seed", "7"]
    assert run_cli(command, *runs, "--qrels", work / "qrels.txt", "--output", out) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_eval_and_sigtest_reports_of_the_judged_synth_runs_match_their_recorded_digests(
        judged_synth, tmp_path):
    evals = {model: judge_synth(judged_synth, "eval", model, out=tmp_path / f"eval-{model}.tsv")
             for model in JUDGED_EVAL_SHA256}
    sigtests = {pair: judge_synth(judged_synth, "sigtest", *pair, out=tmp_path / "sig.tsv")
                for pair in JUDGED_SIGTEST_SHA256}
    assert (evals, sigtests) == (JUDGED_EVAL_SHA256, JUDGED_SIGTEST_SHA256)


def test_eval_and_sigtest_judge_through_the_names_of_the_cli_module(judged_synth, tmp_path,
                                                                      monkeypatch):
    # bench/tracing.py times these names where cli looks them up
    calls = dict.fromkeys(("load_run", "average_precision", "interpolated_curve"), 0)
    for name in calls:
        def counted(*args, name=name, real=getattr(cli, name), **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    n_judged = len(evaluation.load_qrels(judged_synth / "qrels.txt"))
    judge_synth(judged_synth, "eval", "kw", out=tmp_path / "eval.tsv")
    assert calls == {"load_run": 1, "average_precision": n_judged, "interpolated_curve": n_judged}
    calls.update(dict.fromkeys(calls, 0))
    judge_synth(judged_synth, "sigtest", "kw", "kw+ne", out=tmp_path / "sig.tsv")
    assert calls == {"load_run": 2, "average_precision": 2 * n_judged, "interpolated_curve": 0}


def test_run_config_reads_stopword_and_wh_mapping_files_once(workspace, capsys, monkeypatch):
    (workspace / "stop.txt").write_text("the\nof\nis\n", encoding="utf-8")
    (workspace / "wh.tsv").write_text("who\tPerson\nwhere\tLocation\n", encoding="utf-8")
    reads = []
    for method in ("read_text", "read_bytes"):
        def counted(path, *args, real=getattr(Path, method), **kwargs):
            reads.append(path.name)
            return real(path, *args, **kwargs)
        monkeypatch.setattr(Path, method, counted)

    def counted_open(file, *args, real=builtins.open, **kwargs):
        if isinstance(file, (str, os.PathLike)):  # not a descriptor that write_text opens
            reads.append(Path(file).name)
        return real(file, *args, **kwargs)
    monkeypatch.setattr(builtins, "open", counted_open)
    files = ["--stopwords", workspace / "stop.txt"]
    with_wh = [*files, "--model", "kw+ne+wh", "--wh-mapping", workspace / "wh.tsv"]
    commands = [
        ["index", *files, "--corpus", workspace / "corpus.tsv", "--index-dir", workspace / "idx"],
        ["search", *with_wh, "--index-dir", workspace / "idx",
         "--queries", workspace / "queries.tsv", "--output", workspace / "run.txt"],
        ["dump-terms", *with_wh, FIGURE_QUERY],
    ]
    for argv in commands:
        reads.clear()
        assert run_cli(*argv[:1], "--kb", KB, *argv[1:]) == 0
        assert reads.count("stop.txt") == 1
        assert reads.count("wh.tsv") == (argv[0] != "index")
        assert reads.count(Path(KB).name) == 1
        assert reads.count("index.tsv") == (argv[0] == "search")
    run_lines = (workspace / "run.txt").read_text(encoding="utf-8").splitlines()
    assert [line.split()[0] for line in run_lines] == ["q1", "q2", "q3"]
    # "who" is no stop word of stop.txt, and wh.tsv maps it
    assert {"who", "(*/Person/*)"} <= set(capsys.readouterr().out.splitlines())


# --- eval and sigtest commands -----------------------------------------------------------

RUN_A = (
    "q1 Q0 d1 1 0.900000 a\n"
    "q1 Q0 d2 2 0.500000 a\n"
    "q2 Q0 d3 1 0.800000 a\n"
)
RUN_B = (
    "q1 Q0 d2 1 0.700000 b\n"
    "q1 Q0 d1 2 0.600000 b\n"
    "q2 Q0 d4 1 0.500000 b\n"
)
QRELS = "q1 0 d1 1\nq2 0 d3 1\n"


def test_eval_report_matches_hand_computation(workspace):
    (workspace / "run.txt").write_text(RUN_A, encoding="utf-8")
    (workspace / "qrels.txt").write_text(QRELS, encoding="utf-8")
    out = workspace / "eval.tsv"
    assert run_cli("eval", "--run", workspace / "run.txt",
                   "--qrels", workspace / "qrels.txt", "--output", out) == 0
    lines = out.read_text().splitlines()
    assert "ap\tq1\t1.000000" in lines
    assert "ap\tq2\t1.000000" in lines
    assert "map\t1.000000" in lines
    assert sum(1 for l in lines if l.startswith("curve\t")) == 11


def test_eval_counts_queries_missing_from_run_as_zero(workspace):
    (workspace / "run.txt").write_text("q1 Q0 d1 1 0.900000 a\n", encoding="utf-8")
    (workspace / "qrels.txt").write_text(QRELS, encoding="utf-8")
    out = workspace / "eval.tsv"
    assert run_cli("eval", "--run", workspace / "run.txt",
                   "--qrels", workspace / "qrels.txt", "--output", out) == 0
    lines = out.read_text().splitlines()
    assert "ap\tq2\t0.000000" in lines
    assert "map\t0.500000" in lines


def test_eval_leaves_out_a_query_with_no_relevant_doc(workspace):
    # q3's every judgment is rel <= 0, so its average precision is undefined
    (workspace / "run.txt").write_text(RUN_A + "q3 Q0 d5 1 0.400000 a\n", encoding="utf-8")
    (workspace / "qrels.txt").write_text(QRELS + "q3 0 d5 0\nq3 0 d6 -1\n", encoding="utf-8")
    out = workspace / "eval.tsv"
    assert run_cli("eval", "--run", workspace / "run.txt",
                   "--qrels", workspace / "qrels.txt", "--output", out) == 0
    lines = out.read_text().splitlines()
    assert [line for line in lines if line.startswith("ap\t")] == ["ap\tq1\t1.000000", "ap\tq2\t1.000000"]
    assert "map\t1.000000" in lines


def test_eval_builds_one_relevance_mask_per_judged_query(workspace, monkeypatch):
    # q4 is judged but has no run lines; q3 has no relevant doc, so it is not judged
    (workspace / "run.txt").write_text(RUN_A + "q3 Q0 d5 1 0.400000 a\n", encoding="utf-8")
    (workspace / "qrels.txt").write_text(QRELS + "q4 0 d1 1\nq3 0 d5 0\n", encoding="utf-8")
    out = workspace / "eval.tsv"
    assert run_cli("eval", "--run", workspace / "run.txt",
                   "--qrels", workspace / "qrels.txt", "--output", out) == 0
    expected = out.read_bytes()
    masks = []
    original = evaluation.relevance_mask

    def counted(ranking, relevant):
        masks.append(list(ranking))
        return original(ranking, relevant)

    monkeypatch.setattr(cli, "relevance_mask", counted)
    monkeypatch.setattr(evaluation, "relevance_mask", counted)
    assert run_cli("eval", "--run", workspace / "run.txt",
                   "--qrels", workspace / "qrels.txt", "--output", out) == 0
    assert masks == [["d1", "d2"], ["d3"], []]  # q1, q2 and q4, in query order
    assert out.read_bytes() == expected


def test_eval_requires_query_overlap(workspace, capsys):
    (workspace / "run.txt").write_text("q9 Q0 d1 1 0.5 a\n", encoding="utf-8")
    (workspace / "qrels.txt").write_text(QRELS, encoding="utf-8")
    out = workspace / "eval.tsv"
    assert run_cli("eval", "--run", workspace / "run.txt",
                   "--qrels", workspace / "qrels.txt", "--output", out) == 1
    assert "share no query ids" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "sigtest"])
def test_eval_and_sigtest_require_relevance_judgments(workspace, capsys, command):
    (workspace / "run.txt").write_text(RUN_A, encoding="utf-8")
    (workspace / "qrels.txt").write_text("\n", encoding="utf-8")
    runs = {"eval": ["--run", workspace / "run.txt"],
            "sigtest": ["--run-a", workspace / "run.txt", "--run-b", workspace / "run.txt"]}
    out = workspace / "out.tsv"
    assert run_cli(command, *runs[command], "--qrels", workspace / "qrels.txt",
                   "--output", out) == 1
    assert capsys.readouterr().err == f"error: no relevance judgments in {workspace / 'qrels.txt'}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["corpus.tsv", "queries.tsv", "config.tsv", "run.txt"])
def test_a_byte_that_is_not_utf8_is_named_by_file_and_line(workspace, capsys, name):
    (workspace / "config.tsv").write_text(f"# defaults\nkb\t{KB}\n", encoding="utf-8")
    (workspace / "run.txt").write_text(RUN_A, encoding="utf-8")
    (workspace / "qrels.txt").write_text(QRELS, encoding="utf-8")
    index_dir = build_index_dir(workspace)
    path = workspace / name
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(lines[0] + b"\xff" + b"".join(lines[1:]))
    argv = {
        "corpus.tsv": ("index", "--kb", KB, "--corpus", path, "--index-dir", workspace / "idx2"),
        "queries.tsv": ("search", "--kb", KB, "--index-dir", index_dir, "--queries", path,
                        "--output", workspace / "out.txt"),
        "config.tsv": ("index", "--config", path, "--corpus", workspace / "corpus.tsv",
                       "--index-dir", workspace / "idx2"),
        "run.txt": ("eval", "--run", path, "--qrels", workspace / "qrels.txt", "--output", workspace / "out.txt"),
    }[name]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: {path}:2: not valid UTF-8\n"
    assert not (workspace / "idx2").exists() and not (workspace / "out.txt").exists()


@pytest.mark.parametrize("order", ["ab", "ba"])
def test_sigtest_requires_both_runs_to_share_query_ids_with_the_qrels(workspace, capsys, order):
    (workspace / "a.txt").write_text(RUN_A, encoding="utf-8")
    (workspace / "b.txt").write_text("q9 Q0 d1 1 0.5 b\n", encoding="utf-8")
    (workspace / "qrels.txt").write_text(QRELS, encoding="utf-8")
    run_a, run_b = (workspace / f"{name}.txt" for name in order)
    out = workspace / "sig.tsv"
    assert run_cli("sigtest", "--run-a", run_a, "--run-b", run_b, "--qrels", workspace / "qrels.txt",
                   "--output", out, "--permutations", "10") == 1
    assert capsys.readouterr().err == "error: both runs must share query ids with the qrels\n"
    assert not out.exists()


@pytest.mark.parametrize("run_text,qrels_text,message", [
    ("q1 Q0 d1 one 0.9 a\n", QRELS, "run.txt:1: rank 'one' is not an integer"),
    ("q1 Q0 d1 1 0.9 a\nq1 Q0 d1 2 0.8 a\n", QRELS,
     "run.txt:2: duplicate doc 'd1' in ranking for query 'q1'"),
    (RUN_A, "q1 0 d1 1\nq2 0 d3 yes\n", "qrels.txt:2: relevance 'yes' is not an integer"),
], ids=["rank", "duplicate", "relevance"])
def test_eval_names_the_file_and_line_of_a_malformed_field(workspace, capsys, run_text,
                                                          qrels_text, message):
    (workspace / "run.txt").write_text(run_text, encoding="utf-8")
    (workspace / "qrels.txt").write_text(qrels_text, encoding="utf-8")
    out = workspace / "eval.tsv"
    assert run_cli("eval", "--run", workspace / "run.txt",
                   "--qrels", workspace / "qrels.txt", "--output", out) == 1
    assert capsys.readouterr().err == f"error: {workspace}/{message}\n"
    assert not out.exists()


def test_sigtest_identical_runs_p_one_and_determinism(workspace):
    (workspace / "a.txt").write_text(RUN_A, encoding="utf-8")
    (workspace / "qrels.txt").write_text(QRELS, encoding="utf-8")
    out1, out2 = workspace / "sig1.tsv", workspace / "sig2.tsv"
    for out in (out1, out2):
        assert run_cli("sigtest", "--run-a", workspace / "a.txt",
                       "--run-b", workspace / "a.txt",
                       "--qrels", workspace / "qrels.txt", "--output", out,
                       "--permutations", "300", "--seed", "5") == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, row = out1.read_text().splitlines()
    assert header == "delta\tn_minus\tn_plus\tp\tn_perm\tseed"
    delta, n_minus, n_plus, p, n_perm, seed = row.split("\t")
    assert float(delta) == 0.0 and float(p) == 1.0
    assert (n_perm, seed) == ("300", "5")


def test_sigtest_is_symmetric_in_run_order(workspace):
    (workspace / "a.txt").write_text(RUN_A, encoding="utf-8")
    (workspace / "b.txt").write_text(RUN_B, encoding="utf-8")
    (workspace / "qrels.txt").write_text(QRELS, encoding="utf-8")
    out_ab, out_ba = workspace / "ab.tsv", workspace / "ba.tsv"
    run_cli("sigtest", "--run-a", workspace / "a.txt", "--run-b", workspace / "b.txt",
            "--qrels", workspace / "qrels.txt", "--output", out_ab,
            "--permutations", "400", "--seed", "3")
    run_cli("sigtest", "--run-a", workspace / "b.txt", "--run-b", workspace / "a.txt",
            "--qrels", workspace / "qrels.txt", "--output", out_ba,
            "--permutations", "400", "--seed", "3")
    row_ab = out_ab.read_text().splitlines()[1].split("\t")
    row_ba = out_ba.read_text().splitlines()[1].split("\t")
    assert row_ab[0] == row_ba[0]          # delta
    assert row_ab[3] == row_ba[3]          # p
    assert (row_ab[1], row_ab[2]) == (row_ba[2], row_ba[1])  # counts swap


@pytest.mark.parametrize("flag,value,message", [
    ("--permutations", "0", "--permutations 0 must be >= 1"),
    ("--permutations", "-5", "--permutations -5 must be >= 1"),
    ("--seed", "-1", "--seed -1 must be in [0, 2**128)"),
    ("--seed", str(2**128), f"--seed {2**128} must be in [0, 2**128)"),
], ids=["zero-permutations", "negative-permutations", "negative-seed", "seed-2**128"])
def test_sigtest_rejects_permutations_and_seed_before_reading_runs(workspace, capsys, monkeypatch,
                                                                  flag, value, message):
    opened = []
    monkeypatch.setattr(cli, "load_run", lambda *args: opened.append(args))
    monkeypatch.setattr(cli, "load_qrels", lambda *args: opened.append(args))
    out = workspace / "sig.tsv"
    assert run_cli("sigtest", "--run-a", workspace / "a.txt", "--run-b", workspace / "b.txt",
                   "--qrels", workspace / "qrels.txt", "--output", out, flag, value) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert opened == []
    assert not out.exists()


# --- dump-terms ------------------------------------------------------------------------

def test_dump_terms_query_golden(capsys):
    assert run_cli("dump-terms", "--kb", KB, "--model", "kw+ne+wh", FIGURE_QUERY) == 0
    assert capsys.readouterr().out.splitlines() == [
        "(*/*/University_T.52)",
        "(*/Person/*)",
        "presid",
    ]
    assert run_cli("dump-terms", "--kb", KB, "--model", "kw+ne", FIGURE_QUERY) == 0
    assert capsys.readouterr().out.splitlines() == [
        "(*/*/University_T.52)",
        "presid",
    ]


@pytest.mark.parametrize("model", ["kw", "ne", "kw-union-ne"])
def test_dump_terms_golden_for_the_models_that_score_the_five_spaces(capsys, model):
    # the keyword and entity terms of the five spaces; G's mixed terms are not printed
    assert run_cli("dump-terms", "--kb", KB, "--model", model, FIGURE_QUERY) == 0
    assert capsys.readouterr().out.splitlines() == [
        "(*/*/University_T.52)",
        "presid",
        "stanford",
        "univers",
    ]
    assert run_cli("dump-terms", "--kb", KB, "--model", model, "--side", "document",
                   "California") == 0
    assert capsys.readouterr().out.splitlines() == [
        "(*/*/Province_T.4198)",
        "(*/Location/*)",
        "(*/PoliticalRegion/*)",
        "(*/Province/*)",
        "(california/*/*)",
        "(california/Location/*)",
        "(california/PoliticalRegion/*)",
        "(california/Province/*)",
        "california",
    ]


def test_dump_terms_document_golden(capsys):
    assert run_cli("dump-terms", "--kb", KB, "--side", "document", "California") == 0
    assert capsys.readouterr().out.splitlines() == [
        "(*/*/Province_T.4198)",
        "(*/Location/*)",
        "(*/PoliticalRegion/*)",
        "(*/Province/*)",
        "(california/*/*)",
        "(california/Location/*)",
        "(california/PoliticalRegion/*)",
        "(california/Province/*)",
    ]


def test_dump_terms_wh_override_flag(capsys):
    assert run_cli("dump-terms", "--kb", KB, "--model", "kw+ne+wh",
                   "--wh", "Location", "fair") == 0
    assert "(*/Location/*)" in capsys.readouterr().out.splitlines()


def test_dump_terms_with_an_empty_wh_mapping_adds_no_wh_class(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    assert run_cli("dump-terms", "--kb", KB, "--model", "kw+ne+wh", "--wh-mapping", empty,
                   "Who founded Stanford University?") == 0
    assert capsys.readouterr().out.splitlines() == ["(*/*/University_T.52)", "found"]


def test_dump_terms_rejects_wh_override_under_kw(capsys):
    assert run_cli("dump-terms", "--kb", KB, "--model", "kw", "--wh", "Location", FIGURE_QUERY) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --wh applies only to model kw+ne+wh\n"
    assert captured.out == ""


def test_dump_terms_rejects_wh_override_on_the_document_side(capsys):
    assert run_cli("dump-terms", "--kb", KB, "--model", "kw+ne+wh", "--side", "document",
                   "--wh", "Location", "fair") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --wh applies only to --side query\n"
    assert captured.out == ""
