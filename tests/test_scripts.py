"""Smoke tests of the scripts: each runs end to end on a small collection."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(REPO / "scripts" / name), *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def test_make_synthetic_writes_the_four_collection_files(tmp_path):
    out = tmp_path / "synthetic"
    lines = run_script("make_synthetic.py", "--docs", 60, "--out-dir", out, cwd=tmp_path)
    names = ["kb.tsv", "corpus.tsv", "queries.tsv", "qrels.txt"]
    assert lines == [f"wrote {out / name}" for name in names]
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    assert (out / "corpus.tsv").read_text(encoding="utf-8").count("DOC\t") == 60
    assert all((out / name).stat().st_size > 0 for name in names)


def test_compare_models_prints_a_map_row_per_model_and_a_row_per_pair(tmp_path):
    lines = run_script("compare_models.py", "--docs", 60, "--permutations", 500,
                       "--work-dir", tmp_path / "work", cwd=tmp_path)
    blank = lines.index("")
    maps, pairs = lines[1:blank], lines[blank + 2:]
    assert lines[0].split() == ["model", "MAP"]
    assert [row.split()[0] for row in maps] == ["kw", "ne", "kw-union-ne", "kw+ne", "kw+ne+wh"]
    assert all(0.0 <= float(row.split()[1]) <= 1.0 for row in maps)
    assert lines[blank + 1].split() == ["pair", "delta", "p"]
    assert len(pairs) == 10
    assert all(len(row.split()) == 5 and row.split()[1] == "vs" for row in pairs)
    assert all(0.0 <= float(row.split()[4]) <= 1.0 for row in pairs)
    assert (tmp_path / "work" / "index" / "index.tsv").is_file()
