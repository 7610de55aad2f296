"""End-to-end command-line behavior: files in, files out, exit codes."""

from __future__ import annotations

import math

import pytest

from ontosearch import cli
from ontosearch.cli import CliError, main, parse_corpus, parse_queries
from ontosearch.evaluation import load_run

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


# --- index command -----------------------------------------------------------------

def test_index_writes_expected_directory_shape(workspace):
    index_dir = workspace / "idx"
    assert run_cli("index", "--kb", KB, "--corpus", workspace / "corpus.tsv",
                   "--index-dir", index_dir) == 0
    names = {p.name for p in index_dir.iterdir()}
    assert names == {"manifest.tsv", "fingerprint.tsv",
                     "KW.tsv", "N.tsv", "C.tsv", "NC.tsv", "I.tsv", "G.tsv"}


def test_index_rerun_is_byte_identical(workspace):
    index_dir = workspace / "idx"
    run_cli("index", "--kb", KB, "--corpus", workspace / "corpus.tsv", "--index-dir", index_dir)
    first = read_tree(index_dir)
    run_cli("index", "--kb", KB, "--corpus", workspace / "corpus.tsv", "--index-dir", index_dir)
    assert read_tree(index_dir) == first


def test_index_duplicate_doc_id_fails_without_output(workspace, capsys):
    (workspace / "bad.tsv").write_text("DOC\tdup\nx\nDOC\tdup\ny\n", encoding="utf-8")
    index_dir = workspace / "idx-bad"
    assert run_cli("index", "--kb", KB, "--corpus", workspace / "bad.tsv",
                   "--index-dir", index_dir) == 1
    assert "dup" in capsys.readouterr().err
    assert not index_dir.exists()


@pytest.mark.parametrize("doc_id", ["d:1", "d,1", "d\t1"])
def test_index_rejects_reserved_doc_id_before_analysis(workspace, capsys, monkeypatch, doc_id):
    (workspace / "bad.tsv").write_text(f"DOC\tok\nfine text\nDOC\t{doc_id}\ny\n", encoding="utf-8")
    analyzed = []
    monkeypatch.setattr(cli, "represent_document", lambda *args, **kwargs: analyzed.append(args))
    index_dir = workspace / "idx-bad"
    assert run_cli("index", "--kb", KB, "--corpus", workspace / "bad.tsv",
                   "--index-dir", index_dir) == 1
    err = capsys.readouterr().err
    assert f"bad.tsv:3: doc id {doc_id!r} contains a reserved separator character" in err
    assert analyzed == []
    assert not index_dir.exists()


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


def test_search_without_index_fails(workspace, capsys):
    out = workspace / "run.txt"
    assert run_cli("search", "--kb", KB, "--index-dir", workspace / "missing",
                   "--queries", workspace / "queries.tsv", "--output", out) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv,fragment", [
    (("search", "--model", "bm25"), "unknown model"),
    (("search", "--model", "kw", "--alpha", "0.5"), "alpha"),
    (("search", "--model", "kw+ne", "--wn", "1.0"), "weights"),
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


def test_eval_requires_query_overlap(workspace, capsys):
    (workspace / "run.txt").write_text("q9 Q0 d1 1 0.5 a\n", encoding="utf-8")
    (workspace / "qrels.txt").write_text(QRELS, encoding="utf-8")
    out = workspace / "eval.tsv"
    assert run_cli("eval", "--run", workspace / "run.txt",
                   "--qrels", workspace / "qrels.txt", "--output", out) == 1
    assert "share no query ids" in capsys.readouterr().err
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
