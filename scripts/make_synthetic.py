#!/usr/bin/env python3
"""Write a seeded synthetic retrieval collection to disk.

Produces four files in --out-dir: kb.tsv, corpus.tsv, queries.tsv,
qrels.txt — ready for `ontosearch index` / `search` / `eval`.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from ontosearch.synth import generate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--docs", type=int, default=60)
    parser.add_argument("--alias-bias", type=float, default=0.5,
                        help="probability that a mention uses an alias "
                             "instead of the canonical name")
    parser.add_argument("--out-dir", type=Path, default=Path("synthetic"))
    args = parser.parse_args()

    try:
        collection = generate(seed=args.seed, n_docs=args.docs,
                              alias_bias=args.alias_bias)
    except ValueError as exc:
        parser.error(str(exc))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in (
        ("kb.tsv", collection.kb_text),
        ("corpus.tsv", collection.corpus_text),
        ("queries.tsv", collection.queries_text),
        ("qrels.txt", collection.qrels_text),
    ):
        (args.out_dir / name).write_text(text, encoding="utf-8")
        print(f"wrote {args.out_dir / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
