#!/usr/bin/env python3
"""ontosearch benchmark: index, open, search, eval and sigtest, end to end.

    python3 bench/run.py --workload experiment --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload all

One run sets up its workload's inputs in a child process (five times,
reporting the median as `setup_s`), then drives the researcher's loop in
this process with one client, each step waiting for the last, in rounds:
`ontosearch index`, opening the index (fingerprint check, `load_kb`,
`load_index`), `rank.search` per query of the round's slice of the judged
stream under all five models cut at k=1000, `ontosearch eval` on the five
run files, and `ontosearch sigtest` on two model pairs. Times are scaled
to a reference machine speed (bench/calibration.py). Every output is then
checked (bench/checks.py), and the last line printed is one JSON object:
correct, attempted, failed, metrics.

With `--trace 1` the run makes one round over the whole stream twice,
untraced and then traced (bench/tracing.py), and reports the per-layer
metrics of the traced round, plus the tracing overhead. Spans are written
to .bench_work/<workload>/trace.jsonl.

The metric names, units and directions are those of BENCHMARK.json at the
repository root; bench/README.md says what each measures and why each
workload exists. Exit status is 0 only when every check passes.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
from calibration import REFERENCE_S, SpeedSampler  # noqa: E402
from collection import WORKLOADS, parse_corpus_text  # noqa: E402

MODELS = ("kw", "ne", "kw-union-ne", "kw+ne", "kw+ne+wh")
K = 1000                  # TREC pool depth
SETUP_REPS = 5
SIGTEST_PAIRS = (("kw", "kw+ne"), ("kw+ne", "kw+ne+wh"))
SIGTEST_PERMS = 10_000
AGREEMENT_PERMS = 4096
AGREEMENT_MAX_SHIFT = 8
SETUP_TIMEOUT_S = 120

# ROADMAP "Baseline" rows: (label, per-layer source, 600-doc value, 6000-doc value)
ROADMAP_BASELINE = (
    ("represent_document (per doc)", "rank.represent_document_s / rank.represent_document_calls",
     "0.70 ms", "0.54 ms"),
    ("build_index", "index.build_s / builds", "0.12 s", "0.91 s"),
    ("load_index", "index.load_s / loads", "0.10 s", "0.96 s"),
    ("search kw+ne+wh (per query)", "rank.search_s.kw-plus-ne-wh / searches per model",
     "0.62 ms", "3.6 ms"),
    ("search ne (per query)", "rank.search_s.ne / searches per model", "0.31 ms", "1.0 ms"),
    ("randomization_test, 10k perms", "evaluation.sigtest_s * 10000 / evaluation.perms",
     "0.2-0.3 s (24 queries)", "-"),
)


def import_program():
    """Import ontosearch and the test oracles from this checkout, or exit non-zero."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import ontosearch  # noqa: F401
        import oracles  # noqa: F401
    except ImportError as exc:
        sys.exit(f"error: cannot import the program from {ROOT}: {exc}")
    if Path(ontosearch.__file__).resolve().parent != (ROOT / "src" / "ontosearch").resolve():
        sys.exit(f"error: imported ontosearch from {ontosearch.__file__}, not this checkout")


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


# --- set-up -------------------------------------------------------------------------

def run_setup(workload: str, seed: int, out: Path) -> tuple[tuple[float, float], list[str]]:
    """Median set-up time, raw and scaled, over SETUP_REPS child processes.

    Every child must write the same files.
    """
    times, raw_times, digests, failures = [], [], set(), []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "collection.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        times.append(result["setup_s"])
        raw_times.append(result["setup_raw_s"])
        digests.add(result["sha256"])
    if len(digests) != 1:
        failures.append(f"set-up is not deterministic: {len(digests)} different input digests")
    return (statistics.median(raw_times), statistics.median(times)), failures


# --- one pass of the timed loop ----------------------------------------------------------

class Round:
    """Output files of one round: a slice of the query stream through search, eval, sigtest."""

    def __init__(self, out: Path) -> None:
        self.out = out
        self.qrels_path = out / "qrels.txt"
        self.run_paths = {m: out / f"run-{m}.txt" for m in MODELS}
        self.eval_paths = {m: out / f"eval-{m}.txt" for m in MODELS}
        self.sig_paths = {p: out / f"sigtest-{p[0]}-vs-{p[1]}.txt" for p in SIGTEST_PAIRS}

    def outputs(self) -> list[Path]:
        return [*self.run_paths.values(), *self.eval_paths.values(), *self.sig_paths.values()]


class Pass:
    """Outputs, timings and failures of one pass over the workload.

    Each timed operation is kept as (round, start, end, wall time without
    calibration probes); `timings` turns them into seconds as measured or
    at the reference machine speed (bench/calibration.py).
    """

    def __init__(self, out: Path) -> None:
        self.out = out
        self.failures: list[str] = []
        self.attempted = 0
        self.rounds: list[Round] = []
        self.ops: dict[str, list[tuple[int, float, float, float]]] = {
            kind: [] for kind in ("index", "open", "search", "eval", "sigtest")}
        self.sampler = SpeedSampler()
        self.index_bytes = 0
        self.samples: list = []

    def record(self, kind: str, mark: tuple[float, float]) -> None:
        end, elapsed = self.sampler.elapsed(mark)
        self.ops[kind].append((len(self.rounds) - 1, mark[0], end, elapsed))

    def cli(self, kind: str, argv: list[str]) -> None:
        """One `ontosearch` command, timed from a collected heap as a fresh process would start."""
        from ontosearch import cli
        self.attempted += 1
        gc.collect()
        mark = self.sampler.mark()
        code = cli.main(argv)
        self.record(kind, mark)
        if code != 0:
            self.failures.append(f"ontosearch {' '.join(argv)} exited {code}")

    def timings(self, kind: str, scaled: bool, per_round: bool = False) -> list[float]:
        """Seconds of each operation of `kind`, or of each round's operations summed."""
        values = [(r, elapsed * (self.sampler.factor(start, end) if scaled else 1.0))
                  for r, start, end, elapsed in self.ops[kind]]
        if not per_round:
            return [v for _, v in values]
        sums: dict[int, float] = {}
        for r, v in values:
            sums[r] = sums.get(r, 0.0) + v
        return list(sums.values())

    def busy(self) -> float:
        """Reference-speed seconds spent in all timed operations."""
        return sum(sum(self.timings(kind, True)) for kind in self.ops)


def _another_round(done: int, rounds: int, elapsed: float, seconds: float) -> bool:
    """Always up to `rounds`; then while one more round at the pace so far fits in `seconds`."""
    return done < rounds or elapsed * (done + 1) / done <= seconds


def run_pass(inputs: Path, out: Path, seed: int, rounds: int, seconds: float,
             tracer, sample: dict) -> Pass:
    """`rounds` rounds (more while another fits in `seconds`), each on its slice of the stream.

    A round builds a fresh index, opens it, searches its slice under every
    model, and runs eval and sigtest on the slice's run files. Spreading
    every phase over the whole pass keeps each metric from resting on one
    stretch of a machine whose speed drifts.
    """
    from ontosearch import index as index_mod, kb as kb_mod, rank
    from tracing import MODEL_KEYS

    p = Pass(out)
    kb_path = str(inputs / "kb.tsv")
    queries = [line.split("\t") for line in (inputs / "queries.tsv").read_text("utf-8").splitlines()]
    qrels_lines = (inputs / "qrels.txt").read_text("utf-8").splitlines(keepends=True)
    configs = {m: rank.ModelConfig(model=rank.Model(m), k=K) for m in MODELS}
    empty = out / "no-queries.tsv"
    out.mkdir(parents=True)
    empty.write_text("", encoding="utf-8")
    started = perf_counter()

    with p.sampler:
        while _another_round(len(p.rounds), rounds, perf_counter() - started, seconds):
            r = Round(out / f"round-{len(p.rounds)}")
            r.out.mkdir()
            stream = queries[len(p.rounds) % rounds::rounds]
            ids = {query_id for query_id, _ in stream}
            r.qrels_path.write_text("".join(line for line in qrels_lines if line.split(" ", 1)[0] in ids),
                                    encoding="utf-8")
            p.rounds.append(r)

            index_dir = r.out / "index"
            with tracer.span("bench.index"):
                p.cli("index", ["index", "--kb", kb_path, "--corpus", str(inputs / "corpus.tsv"),
                                "--index-dir", str(index_dir)])
            p.index_bytes = sum(f.stat().st_size for f in index_dir.rglob("*") if f.is_file())

            # open: what `ontosearch search` does before its first query
            with tracer.span("bench.open"):
                p.cli("open", ["search", "--kb", kb_path, "--index-dir", str(index_dir),
                               "--queries", str(empty), "--output", str(r.out / "no-run.txt")])
            # the loaded index lives only while this process searches, as in `ontosearch search`
            p.attempted += 1
            with tracer.span("bench.load"):
                kb = kb_mod.load_kb(kb_path)
                idx = index_mod.load_index(index_dir)
            tracer.register_index(idx)

            for model in MODELS:
                cfg, tag = configs[model], MODEL_KEYS[model]
                with open(r.run_paths[model], "w", encoding="utf-8") as fh:
                    for query_id, text in stream:
                        p.attempted += 1
                        with tracer.span("rank.search", query_id, tag):
                            mark = p.sampler.mark()
                            results = rank.search(text, idx, kb, cfg)
                            p.record("search", mark)
                        lines = rank.format_run_lines(query_id, results, "bench")
                        fh.write("".join(line + "\n" for line in lines))
                        if sample.get(model) == query_id and len(p.samples) < len(sample):
                            p.samples.append((model, query_id, text, results))
            del kb, idx

            for model in MODELS:
                with tracer.span("bench.eval"):
                    p.cli("eval", ["eval", "--run", str(r.run_paths[model]), "--qrels", str(r.qrels_path),
                                   "--output", str(r.eval_paths[model])])
            for a, b in SIGTEST_PAIRS:
                with tracer.span("bench.sigtest"):
                    p.cli("sigtest", ["sigtest", "--run-a", str(r.run_paths[a]),
                                      "--run-b", str(r.run_paths[b]), "--qrels", str(r.qrels_path),
                                      "--output", str(r.sig_paths[(a, b)]),
                                      "--permutations", str(SIGTEST_PERMS), "--seed", str(seed)])
    return p


def end_to_end(name: str, p: Pass, setup_s: float, peak_rss_mb: float, scaled: bool) -> dict[str, float]:
    """The end-to-end metrics, from times as measured or at the reference machine speed."""
    n_docs = WORKLOADS[name].n_docs
    latencies = p.timings("search", scaled)
    perms = SIGTEST_PERMS * len(SIGTEST_PAIRS)
    return {
        "setup_s": setup_s,
        "index_docs_per_s": statistics.median(n_docs / t for t in p.timings("index", scaled)),
        "index_bytes_per_doc": p.index_bytes / n_docs,
        "open_s": statistics.median(p.timings("open", scaled)),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p99_ms": statistics.quantiles(latencies, n=100, method="inclusive")[98] * 1e3,
        "eval_s": statistics.median(p.timings("eval", scaled, per_round=True)),
        "sigtest_perms_per_s": statistics.median(
            perms / t for t in p.timings("sigtest", scaled, per_round=True)),
        "peak_rss_mb": peak_rss_mb,
    }


# --- checks ---------------------------------------------------------------------------

def check_pass(inputs: Path, p: Pass, seed: int) -> tuple[int, list[str]]:
    """Run every correctness check on a pass; returns (checks attempted, failures)."""
    import checks
    from ontosearch.index import load_index
    from ontosearch.kb import load_kb

    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    docs = {d: "\n".join(lines) for d, lines in
            parse_corpus_text((inputs / "corpus.tsv").read_text(encoding="utf-8")).items()}
    kb = load_kb(inputs / "kb.tsv")
    judged_out = p.out / "judged"
    judged_out.mkdir()
    results = [
        checks.judged_runs(inputs / "judged", judged_out, MODELS, expected["judged_run_sha256"]),
        checks.tracked_mentions(docs, kb, inputs / "mentions.json"),
        checks.dense_oracle(docs, kb, load_index(p.rounds[-1].out / "index"), p.samples, K),
    ]
    for r in p.rounds:
        qrels = checks.read_qrels(r.qrels_path)
        results.append(checks.eval_reports(r.run_paths, r.eval_paths, qrels))
        results.append(checks.sigtest_reports(SIGTEST_PAIRS, r.run_paths, r.sig_paths, qrels,
                                              SIGTEST_PERMS, seed))
    if len(p.samples) != len(MODELS):
        results.append([f"dense oracle sampled {len(p.samples)} searches, expected {len(MODELS)}"])
    return len(results), [f for r in results for f in r]


def adjacent_sign_agreement(n_queries: int, seed: int) -> float:
    """Share of swap decisions that permutations p and p+1 share, at the best alignment.

    Independent permutations share about half; permutations drawn from
    overlapping generator streams share up to all but the shifted-out ones.
    """
    import numpy as np
    from ontosearch.evaluation import permutation_signs

    signs = np.array([permutation_signs(seed, i, n_queries) for i in range(AGREEMENT_PERMS)])
    first, second = signs[:-1], signs[1:]
    best = 0.0
    for shift in range(-AGREEMENT_MAX_SHIFT, AGREEMENT_MAX_SHIFT + 1):
        if shift >= 0:
            agree = (second[:, :n_queries - shift] == first[:, shift:]).sum()
        else:
            agree = (second[:, -shift:] == first[:, :n_queries + shift]).sum()
        best = max(best, float(agree) / first.size)
    return best


def file_digests(paths) -> list[str]:
    return [hashlib.sha256(Path(x).read_bytes()).hexdigest() for x in paths]


# --- reporting ----------------------------------------------------------------------

def print_metrics(title: str, metrics: dict, units: dict, raw: dict) -> None:
    print(title)
    for key, unit in units.items():
        measured = f"({raw[key]:.6g})" if raw[key] != metrics[key] else ""
        print(f"  {key:<38} {metrics[key]:>14.6g} {unit:<8} {measured}")


def print_roadmap_map(name: str, m: dict, builds: int, loads: int) -> None:
    n_docs = WORKLOADS[name].n_docs
    per_model = m["rank.search_calls"] / len(MODELS) or 1
    measured = (
        f"{m['rank.represent_document_s'] / max(m['rank.represent_document_calls'], 1) * 1e3:.3f} ms",
        f"{m['index.build_s'] / max(builds, 1):.3f} s",
        f"{m['index.load_s'] / max(loads, 1):.3f} s",
        f"{m['rank.search_s.kw-plus-ne-wh'] / per_model * 1e3:.3f} ms",
        f"{m['rank.search_s.ne'] / per_model * 1e3:.3f} ms",
        f"{m['evaluation.sigtest_s'] * 1e4 / max(m['evaluation.perms'], 1):.3f} s",
    )
    column = 2 if n_docs == 600 else 3
    print(f"ROADMAP baseline vs this traced pass ({name}: {n_docs} docs, "
          f"{WORKLOADS[name].n_queries} queries; traced times include tracing overhead)")
    for row, value in zip(ROADMAP_BASELINE, measured):
        roadmap = row[column] if n_docs in (600, 6000) else "-"
        print(f"  {row[0]:<32} roadmap {roadmap:<24} measured {value:<12} from {row[1]}")


def emit(attempted: int, failures: list[str], metrics: dict, units: dict) -> int:
    """Print the result line; correct only when nothing failed."""
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 1 if failures else 0


# --- driver ---------------------------------------------------------------------------

def run_workload(args) -> int:
    import_program()
    from tracing import NullTracer, Tracer, layer_metrics

    declared = declared_metrics()
    name = args.workload
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    setup_s, failures = run_setup(name, args.seed, inputs)
    rng = random.Random(args.seed)
    query_ids = [line.split("\t")[0] for line in (inputs / "queries.tsv").read_text("utf-8").splitlines()]
    sample = {model: rng.choice(query_ids) for model in MODELS}

    print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    rounds = WORKLOADS[name].rounds
    if not args.trace:
        p = run_pass(inputs, work / "pass", args.seed, rounds, args.seconds, NullTracer(), sample)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if p.failures:
            return emit(p.attempted, failures + p.failures, {}, {})
        n_checks, check_failures = check_pass(inputs, p, args.seed)
        failures += check_failures
        attempted = p.attempted + n_checks
        metrics = end_to_end(name, p, setup_s[1], peak_rss_mb, True)
        units = declared["end_to_end"]
        print_metrics("end-to-end metrics (times at reference speed; as measured in brackets)",
                      metrics, units, end_to_end(name, p, setup_s[0], peak_rss_mb, False))
        print(f"  {'failed_frac':<34} {len(failures) / attempted:>16.6g} "
              f"({len(failures)} of {attempted} operations and checks)")
        return emit(attempted, failures, metrics, units)

    # the traced run makes one round over the whole stream, untraced and then traced
    reference = run_pass(inputs, work / "untraced", args.seed, 1, 0, NullTracer(), sample)
    tracer = Tracer()
    tracer.install()
    try:
        p = run_pass(inputs, work / "traced", args.seed, 1, 0, tracer, sample)
    finally:
        tracer.uninstall()
    tracer.write(work / "trace.jsonl")
    if reference.failures or p.failures:
        return emit(reference.attempted + p.attempted, failures + reference.failures + p.failures, {}, {})
    n_checks, check_failures = check_pass(inputs, p, args.seed)
    failures += check_failures
    if file_digests(p.rounds[0].outputs()) != file_digests(reference.rounds[0].outputs()):
        failures.append("traced and untraced passes wrote different run, eval or sigtest files")
    attempted = reference.attempted + p.attempted + n_checks + 1

    metrics = layer_metrics(tracer)
    metrics["index.bytes"] = p.index_bytes
    metrics["evaluation.adjacent_sign_agreement"] = adjacent_sign_agreement(len(query_ids), args.seed)
    metrics["trace.overhead_frac"] = p.busy() / reference.busy() - 1.0
    units = declared["per_layer"]
    if metrics.keys() != units.keys():
        failures.append(f"per-layer metrics differ from BENCHMARK.json: "
                        f"{sorted(metrics.keys() ^ units.keys())}")
        units = {k: units.get(k, "?") for k in metrics}
    raw = dict(metrics)
    factor = REFERENCE_S / statistics.median(p.sampler.durations)
    metrics.update({k: v * factor for k, v in metrics.items() if units[k] == "s"})
    print_metrics("per-layer metrics of the traced pass (times at reference speed; as measured in brackets)",
                  metrics, units, raw)
    if tracer.absent:
        print("absent layers (their metrics read 0): " + ", ".join(tracer.absent))
    print_roadmap_map(name, metrics, len(p.ops["index"]), len(p.ops["open"]) + len(p.rounds))
    return emit(attempted, failures, metrics, units)


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one merged result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.exit(f"error: workload {name} printed no result (exit {proc.returncode})")
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
