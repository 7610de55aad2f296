"""Smoke tests of the process entry point: `python -m ontosearch.cli` exits
with `main`'s status (0 done, 1 an error it reports, 2 a bad command line)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent
KB = REPO / "tests" / "data" / "figure_kb.tsv"


def run_module(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ontosearch.cli", *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True)


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
