"""Smoke tests of the process entry point: `python -m ontosearch.cli` exits
with `main`'s status (0 done, 1 an error it reports, 2 a bad command line)."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from ontosearch.cli import parse_corpus
from ontosearch.index import INDEX_FILE, load_index
from ontosearch.synth import generate

REPO = Path(__file__).parent.parent
KB = REPO / "tests" / "data" / "figure_kb.tsv"


def child_env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


def module_command(*args):
    return [sys.executable, "-m", "ontosearch.cli", *map(str, args)], child_env()


def run_module(*args, cwd):
    argv, env = module_command(*args)
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)


def test_dump_terms_exits_0_and_prints_its_terms(tmp_path):
    done = run_module("dump-terms", "--kb", KB, "Moscow", cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, "(moscow/City/*)\n", "")


def test_an_unknown_flag_exits_2(tmp_path):
    done = run_module("dump-terms", "--kb", KB, "--no-such-flag", "Moscow", cwd=tmp_path)
    assert done.returncode == 2
    assert "unrecognized arguments: --no-such-flag" in done.stderr
    assert done.stdout == ""


def test_a_missing_kb_file_exits_1_with_an_error_line(tmp_path):
    done = run_module("dump-terms", "--kb", tmp_path / "missing.tsv", "Moscow", cwd=tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ")
    assert "missing.tsv" in done.stderr
    assert done.stdout == ""


def test_a_killed_index_leaves_the_old_index_or_the_new_one(tmp_path):
    # the new index has another corpus and another knowledge base, so its
    # bytes and its fingerprint both differ from the old one's
    old, new = generate(seed=1, n_docs=200), generate(seed=2, n_docs=2000)
    builds = {}
    for name, collection, kb_extra in (("old", old, ""), ("new", new, "\n")):
        (tmp_path / f"{name}.tsv").write_text(collection.corpus_text, encoding="utf-8")
        (tmp_path / f"{name}-kb.tsv").write_text(collection.kb_text + kb_extra, encoding="utf-8")
        done = run_module("index", "--kb", tmp_path / f"{name}-kb.tsv", "--corpus", tmp_path / f"{name}.tsv",
                          "--index-dir", tmp_path / name, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        builds[(tmp_path / name / INDEX_FILE).read_bytes()] = load_index(tmp_path / name).fingerprint
    assert len(builds) == 2 and load_index(tmp_path / "old").fingerprint != load_index(tmp_path / "new").fingerprint

    argv, env = module_command("index", "--kb", tmp_path / "new-kb.tsv", "--corpus", tmp_path / "new.tsv",
                               "--index-dir", tmp_path / "killed")
    for delay in (0.05, 0.15, 0.25, 0.35, 0.5, 0.8):
        shutil.rmtree(tmp_path / "killed", ignore_errors=True)
        shutil.copytree(tmp_path / "old", tmp_path / "killed")
        process = subprocess.Popen(argv, cwd=tmp_path, env=env,
                                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        time.sleep(delay)
        process.kill()  # SIGKILL
        process.wait()
        content = (tmp_path / "killed" / INDEX_FILE).read_bytes()
        assert content in builds, f"killed after {delay} s"
        assert load_index(tmp_path / "killed").fingerprint == builds[content]
        leftovers = {path.name for path in (tmp_path / "killed").iterdir()} - {INDEX_FILE}
        assert all(name.startswith(f".{INDEX_FILE}.") and name.endswith(".tmp") for name in leftovers)


# one process's whole loop, through cli.main: argv is the collection directory, the
# output directory and a document text. It indexes, searches under all five models,
# evaluates each run, runs one sigtest and dumps the document's terms.
WHOLE_LOOP = """
import sys
from contextlib import redirect_stdout
from ontosearch.cli import main
data, out, text = sys.argv[1:]
common = ["--kb", f"{data}/kb.tsv", "--index-dir", f"{out}/index"]
assert main(["index", *common, "--corpus", f"{data}/corpus.tsv"]) == 0
for model in ("kw", "ne", "kw-union-ne", "kw+ne", "kw+ne+wh"):
    run = f"{out}/run-{model}.txt"
    assert main(["search", *common, "--model", model, "--queries", f"{data}/queries.tsv",
                 "--output", run]) == 0
    assert main(["eval", "--run", run, "--qrels", f"{data}/qrels.txt",
                 "--output", f"{out}/eval-{model}.tsv"]) == 0
assert main(["sigtest", "--run-a", f"{out}/run-kw.txt", "--run-b", f"{out}/run-kw+ne.txt",
             "--qrels", f"{data}/qrels.txt", "--output", f"{out}/sigtest.tsv",
             "--permutations", "2000", "--seed", "7"]) == 0
with open(f"{out}/dump-terms.txt", "w", encoding="utf-8") as terms, redirect_stdout(terms):
    assert main(["dump-terms", "--kb", f"{data}/kb.tsv", "--side", "document", text]) == 0
"""


def test_the_whole_loop_writes_the_same_bytes_whatever_the_hash_seed(tmp_path):
    # str hashes, and so the walk of a set of strings, differ between processes
    collection = generate(seed=7, n_docs=60)
    data = tmp_path / "data"
    data.mkdir()
    for name, text in (("kb.tsv", collection.kb_text), ("corpus.tsv", collection.corpus_text),
                       ("queries.tsv", collection.queries_text), ("qrels.txt", collection.qrels_text)):
        (data / name).write_text(text, encoding="utf-8")
    every_document = " ".join(parse_corpus(collection.corpus_text).values())
    outputs = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"hash-seed-{hash_seed}"
        out.mkdir()
        done = subprocess.run([sys.executable, "-c", WHOLE_LOOP, data, out, every_document],
                              env=child_env(PYTHONHASHSEED=hash_seed), capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outputs.append({path.relative_to(out).as_posix(): path.read_bytes()
                        for path in sorted(out.rglob("*")) if path.is_file()})
    assert len(outputs[0]) == 13  # index.tsv, five runs, five eval reports, sigtest, dump-terms
    assert outputs[0] == outputs[1]
