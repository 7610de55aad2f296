#!/usr/bin/env python3
"""Compare all five retrieval models on a synthetic collection.

Generates a seeded collection, indexes it, runs every model through the
command-line pipeline, evaluates each run, and prints a MAP table plus
pairwise randomization-test p-values.
"""

from __future__ import annotations

import argparse
import itertools
from pathlib import Path

from ontosearch.cli import CliError, check_sigtest_args, judge, main as cli_main
from ontosearch.evaluation import load_qrels, load_run, map_score, randomization_test
from ontosearch.synth import generate

MODELS = ("kw", "ne", "kw-union-ne", "kw+ne", "kw+ne+wh")


def run_cli(*argv: str) -> None:
    code = cli_main(list(argv))
    if code != 0:
        raise SystemExit(f"command failed ({code}): {' '.join(argv)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--docs", type=int, default=60)
    parser.add_argument("--alias-bias", type=float, default=0.5)
    parser.add_argument("--permutations", type=int, default=100_000)
    parser.add_argument("--work-dir", type=Path, default=Path("compare-run"))
    args = parser.parse_args()
    try:
        check_sigtest_args(args.permutations, args.seed)
        collection = generate(seed=args.seed, n_docs=args.docs, alias_bias=args.alias_bias)
    except (CliError, ValueError) as exc:
        parser.error(str(exc))

    work = args.work_dir
    work.mkdir(parents=True, exist_ok=True)
    kb_path, corpus_path, queries_path, qrels_path = (
        work / "kb.tsv", work / "corpus.tsv", work / "queries.tsv", work / "qrels.txt")
    for path, text in ((kb_path, collection.kb_text), (corpus_path, collection.corpus_text),
                       (queries_path, collection.queries_text), (qrels_path, collection.qrels_text)):
        path.write_text(text, encoding="utf-8")

    index_dir = work / "index"
    run_cli("index", "--kb", str(kb_path), "--corpus", str(corpus_path),
            "--index-dir", str(index_dir))

    qrels = load_qrels(str(qrels_path))
    aps: dict[str, list[float]] = {}
    print(f"{'model':<14}{'MAP':>8}")
    for model in MODELS:
        run_path = work / f"run.{model.replace('+', 'p')}.txt"
        run_cli("search", "--kb", str(kb_path), "--model", model,
                "--index-dir", str(index_dir), "--queries", str(queries_path),
                "--output", str(run_path), "--run-tag", model)
        aps[model] = list(judge(load_run(run_path), qrels).values())
        print(f"{model:<14}{map_score(aps[model]):>8.4f}")

    print()
    print(f"{'pair':<28}{'delta':>9}{'p':>10}")
    for a, b in itertools.combinations(MODELS, 2):
        result = randomization_test(aps[a], aps[b], n_perm=args.permutations, seed=args.seed)
        print(f"{a + ' vs ' + b:<28}{result.delta:>9.4f}{result.p_two_sided:>10.5f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
