"""Correctness checks on the outputs of one benchmark pass.

Each check returns a list of failure messages; an empty list is a pass.
They run outside the timed region and use the program's public functions
plus the brute-force references in `tests/oracles.py`.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import oracles
from ontosearch import annotate, cli, rank

SCORE_TOLERANCE = 1e-9   # the dense-oracle tolerance of the acceptance test
PRINTED_TOLERANCE = 5e-7 + 1e-12  # reports print six decimals
DENSE_WEIGHTS = {"N": 0.25, "C": 0.25, "NC": 0.25, "I": 0.25}


def read_qrels(path: Path) -> dict[str, set[str]]:
    qrels: dict[str, set[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        query_id, _, doc_id, rel = line.split()
        if int(rel) > 0:
            qrels.setdefault(query_id, set()).add(doc_id)
    return qrels


def read_run(path: Path) -> dict[str, list[str]]:
    rows: dict[str, list[tuple[int, str]]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        query_id, _, doc_id, position, _, _ = line.split()
        rows.setdefault(query_id, []).append((int(position), doc_id))
    return {q: [d for _, d in sorted(r)] for q, r in rows.items()}


def oracle_aps(run_path: Path, qrels: dict[str, set[str]]) -> dict[str, float]:
    run = read_run(run_path)
    return {q: oracles.ap_scan(run.get(q, []), qrels[q]) for q in sorted(qrels)}


def judged_runs(judged_dir: Path, out_dir: Path, models, expected: dict[str, str]) -> list[str]:
    """`ontosearch search` on synth's judged queries; run files must match their digests."""
    index_dir = out_dir / "index"
    argv = ["--kb", str(judged_dir / "kb.tsv"), "--index-dir", str(index_dir)]
    if cli.main(["index", *argv, "--corpus", str(judged_dir / "corpus.tsv")]) != 0:
        return ["judged collection: ontosearch index failed"]
    failures = []
    for model in models:
        run_path = out_dir / f"run-{model}.txt"
        code = cli.main(["search", *argv, "--queries", str(judged_dir / "queries.tsv"),
                         "--model", model, "--output", str(run_path)])
        if code != 0:
            failures.append(f"judged queries, model {model}: ontosearch search failed")
            continue
        digest = hashlib.sha256(run_path.read_bytes()).hexdigest()
        if digest != expected.get(model):
            failures.append(f"judged queries, model {model}: run file sha256 {digest} "
                            f"differs from the recorded {expected.get(model)}")
    return failures


def tracked_mentions(docs: dict[str, str], kb, mentions_path: Path) -> list[str]:
    """Every mention the collection tracks is what the recognizer finds, and no more."""
    tracked = json.loads(mentions_path.read_text(encoding="utf-8"))
    wrong = []
    for doc_id, text in docs.items():
        found = {a.entity_id for a in annotate.recognize_entities(text, kb)}
        if found != set(tracked[doc_id]):
            wrong.append(f"{doc_id}: recognizer found {sorted(found, key=str)}, "
                         f"collection tracks {tracked[doc_id]}")
    return [f"{len(wrong)} documents' mentions differ, e.g. {wrong[0]}"] if wrong else []


def dense_oracle(docs: dict[str, str], kb, idx, samples, k: int) -> list[str]:
    """Sampled searches against the dense scorers of tests/oracles.py.

    `samples` holds (model, query_id, query_text, results) with the results
    the timed pass's `rank.search` returned.
    """
    bags = {}
    for doc_id, text in docs.items():
        rep = rank.represent_document(text, kb, doc_id)
        bags[doc_id] = {space.value: dict(bag) for space, bag in rep.space_bags.items()}
    failures = []
    for model, query_id, text, results in samples:
        cfg = rank.ModelConfig(model=rank.Model(model), k=k)
        rep = rank.represent_query(text, kb, cfg)
        got = rank.score_query(rep, idx, cfg)
        q_bags = {space.value: dict(bag) for space, bag in rep.space_bags.items()}
        if model == "kw":
            expected = oracles.dense_cosine({d: b["KW"] for d, b in bags.items()}, q_bags["KW"])
        elif model == "ne":
            expected = oracles.dense_ne_scores(bags, q_bags, DENSE_WEIGHTS)
        elif model == "kw-union-ne":
            expected = oracles.dense_union_scores(
                oracles.dense_ne_scores(bags, q_bags, DENSE_WEIGHTS),
                oracles.dense_cosine({d: b["KW"] for d, b in bags.items()}, q_bags["KW"]),
                alpha=0.5,
            )
        else:
            expected = oracles.dense_cosine({d: b["G"] for d, b in bags.items()}, q_bags["G"])
        where = f"{query_id} under {model}"
        if got.keys() != expected.keys():
            failures.append(f"{where}: scored documents differ from the dense oracle")
            continue
        bad = [d for d, v in expected.items() if abs(got[d] - v) > SCORE_TOLERANCE]
        if bad:
            failures.append(f"{where}: {len(bad)} scores differ from the dense oracle, e.g. {bad[0]}")
        ranked = oracles.rank_scores(got, k)
        if [d for d, _ in ranked] != [r.doc_id for r in results] or any(
            abs(s - r.score) > SCORE_TOLERANCE for (_, s), r in zip(ranked, results)
        ):
            failures.append(f"{where}: search results are not the top {k} of the scores")
    return failures


def eval_reports(run_paths: dict, eval_paths: dict, qrels) -> list[str]:
    """Per-query AP and MAP in each eval report, recomputed with oracles.ap_scan."""
    failures = []
    for model, run_path in run_paths.items():
        aps = oracle_aps(run_path, qrels)
        reported = {}
        for line in eval_paths[model].read_text(encoding="utf-8").splitlines():
            fields = line.split("\t")
            if fields[0] == "ap":
                reported[fields[1]] = float(fields[2])
            elif fields[0] == "map":
                reported[None] = float(fields[1])
        expected = dict(aps)
        expected[None] = math.fsum(aps.values()) / len(aps)
        if reported.keys() != expected.keys():
            failures.append(f"eval {model}: report covers other queries than the qrels")
            continue
        bad = [q for q in expected if abs(reported[q] - expected[q]) > PRINTED_TOLERANCE]
        if bad:
            failures.append(f"eval {model}: {len(bad)} AP/MAP values differ from oracles.ap_scan")
    return failures


def sigtest_reports(pairs, run_paths: dict, sig_paths: dict, qrels, n_perm: int, seed: int) -> list[str]:
    """delta = |mean(A - B)| and p = min(1, (n_minus + n_plus) / n_perm); p is not pinned."""
    failures = []
    for a, b in pairs:
        aps_a, aps_b = oracle_aps(run_paths[a], qrels), oracle_aps(run_paths[b], qrels)
        delta = abs(math.fsum(aps_a[q] - aps_b[q] for q in aps_a) / len(aps_a))
        fields = sig_paths[(a, b)].read_text(encoding="utf-8").splitlines()[1].split("\t")
        got_delta, n_minus, n_plus, p = float(fields[0]), int(fields[1]), int(fields[2]), float(fields[3])
        where = f"sigtest {a} vs {b}"
        if (int(fields[4]), int(fields[5])) != (n_perm, seed):
            failures.append(f"{where}: report is for n_perm={fields[4]} seed={fields[5]}")
        if abs(got_delta - delta) > PRINTED_TOLERANCE:
            failures.append(f"{where}: delta {got_delta} is not |mean(A-B)| = {delta:.6f}")
        if abs(p - min(1.0, (n_minus + n_plus) / n_perm)) > PRINTED_TOLERANCE:
            failures.append(f"{where}: p {p} is not min(1, (n_minus+n_plus)/n_perm)")
    return failures
