"""Smoke tests of the process entry point: `python -m ontosearch.cli` exits
with `main`'s status (0 done, 1 an error it reports, 2 a bad command line)."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from ontosearch.index import INDEX_FILE, load_index, read_fingerprint
from ontosearch.synth import generate

REPO = Path(__file__).parent.parent
KB = REPO / "tests" / "data" / "figure_kb.tsv"


def module_command(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "ontosearch.cli", *map(str, args)], env


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
        builds[(tmp_path / name / INDEX_FILE).read_bytes()] = read_fingerprint(tmp_path / name)
    assert len(builds) == 2 and read_fingerprint(tmp_path / "old") != read_fingerprint(tmp_path / "new")

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
        assert read_fingerprint(tmp_path / "killed") == builds[content]
        load_index(tmp_path / "killed")
        leftovers = {path.name for path in (tmp_path / "killed").iterdir()} - {INDEX_FILE}
        assert all(name.startswith(f".{INDEX_FILE}.") and name.endswith(".tmp") for name in leftovers)
