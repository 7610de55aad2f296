"""Evaluation measures and the paired randomization test."""

from __future__ import annotations

import gc
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosearch import evaluation
from ontosearch.evaluation import (
    RECALL_LEVELS,
    SigTestResult,
    average_precision,
    format_eval_report,
    format_sigtest_report,
    interpolated_curve,
    load_qrels,
    load_run,
    map_score,
    mean_curve,
    parse_qrels,
    parse_run,
    per_query_diff,
    permutation_sign_blocks,
    permutation_signs,
    randomization_test,
)

import oracles


# --- average precision ----------------------------------------------------------

@pytest.mark.parametrize("load,text", [
    (load_run, b"q1 Q0 d1 1 0.9 a\nq1 Q0 d\xff 2 0.5 a\n"),
    (load_qrels, b"q1 0 d1 1\nq1 0 d\xff 1\n"),
], ids=["run", "qrels"])
def test_a_run_or_qrels_file_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, load, text):
    path = tmp_path / "judged.txt"
    path.write_bytes(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: not valid UTF-8")):
        load(path)


def test_ap_perfect_ranking_is_one():
    assert average_precision(["r1", "r2", "r3"], {"r1", "r2", "r3"}) == 1.0
    assert average_precision(["r1", "r2", "n1", "n2"], {"r1", "r2"}) == 1.0


def test_ap_hand_worked_two_relevant():
    # relevant at ranks 1 and 3: (1/1 + 2/3) / 2
    assert average_precision(["r1", "n1", "r2"], {"r1", "r2"}) == pytest.approx((1 + 2 / 3) / 2)
    assert average_precision(["r1", "n1", "r2"], {"r1", "r2"}) == pytest.approx(0.8333333333, abs=1e-9)


def test_ap_total_miss_is_zero():
    assert average_precision(["n1", "n2"], {"r1"}) == 0.0


def test_ap_unretrieved_relevant_contribute_zero():
    assert average_precision(["r1"], {"r1", "r2"}) == 0.5
    assert average_precision([], {"r1"}) == 0.0


def test_ap_requires_nonempty_relevant():
    with pytest.raises(ValueError):
        average_precision(["d1"], set())


def test_ap_ignores_order_of_trailing_nonrelevant():
    relevant = {"r1", "r2"}
    base = ["n1", "r1", "r2"]
    rng = random.Random(3)
    tail = [f"x{i}" for i in range(6)]
    reference = average_precision(base + tail, relevant)
    for _ in range(10):
        rng.shuffle(tail)
        assert average_precision(base + tail, relevant) == reference


@settings(max_examples=80, deadline=None)
@given(
    ranking=st.lists(st.sampled_from([f"d{i}" for i in range(12)]), unique=True, max_size=12),
    relevant=st.sets(st.sampled_from([f"d{i}" for i in range(12)]), min_size=1, max_size=6),
)
def test_ap_matches_prefix_scan_oracle(ranking, relevant):
    assert average_precision(ranking, relevant) == oracles.ap_scan(ranking, relevant)


DOC_POOL = [f"d{i}" for i in range(200)]


@settings(max_examples=150, deadline=None)
@given(
    ranking=st.lists(st.sampled_from(DOC_POOL[:150]), unique=True, max_size=150),
    # d150..d199 are never ranked, so some relevant sets have no hit at all
    relevant=st.sets(st.sampled_from(DOC_POOL), min_size=1, max_size=80),
)
def test_ap_and_curve_equal_their_scan_oracles_exactly(ranking, relevant):
    assert average_precision(ranking, relevant) == oracles.ap_scan(ranking, relevant)
    curve = interpolated_curve(ranking, relevant)
    assert list(zip(RECALL_LEVELS, curve.tolist())) == (
        oracles.interpolated_curve_scan(ranking, relevant)
    )


def test_ap_and_curve_equal_their_scan_oracles_on_long_rankings():
    # hundreds of hits, where a pairwise sum would round differently
    rng = random.Random(5)
    docs = [f"d{i}" for i in range(2000)]
    for _ in range(100):
        ranking = rng.sample(docs, rng.randint(0, 1000))
        relevant = set(rng.sample(docs, rng.randint(1, 300)))
        assert average_precision(ranking, relevant) == oracles.ap_scan(ranking, relevant)
        curve = interpolated_curve(ranking, relevant)
        assert list(zip(RECALL_LEVELS, curve.tolist())) == (
            oracles.interpolated_curve_scan(ranking, relevant)
        )


@pytest.mark.parametrize("ranking", [[], ["n1", "n2", "n3"]], ids=["empty", "no-hit"])
def test_ap_and_curve_of_a_ranking_without_hits_are_zero(ranking):
    relevant = {"r1", "r2"}
    assert average_precision(ranking, relevant) == 0.0 == oracles.ap_scan(ranking, relevant)
    precision, f_measure = mean_curve([interpolated_curve(ranking, relevant)])
    assert list(zip(RECALL_LEVELS, precision.tolist(), f_measure.tolist())) == [
        (level, 0.0, 0.0) for level in RECALL_LEVELS
    ]


# --- MAP --------------------------------------------------------------------------

def test_map_trivial_values():
    assert map_score([1.0, 1.0]) == 1.0
    assert map_score([0.0]) == 0.0
    with pytest.raises(ValueError):
        map_score([])


def test_map_is_the_arithmetic_mean():
    values = [0.1, 0.25, 0.4, 0.85]
    assert map_score(values) == pytest.approx(sum(values) / 4, abs=1e-15)


# --- interpolated curve -------------------------------------------------------------

def test_curve_perfect_ranking_is_flat_one():
    curve = interpolated_curve(["r1", "r2", "r3"], {"r1", "r2", "r3"})
    assert curve.tolist() == [1.0] * 11
    _, f_measure = mean_curve([curve])
    assert f_measure[0] == 0.0  # recall level 0 pins F to 0


def test_curve_f_is_zero_at_level_zero_for_any_ranking():
    _, f_measure = mean_curve([interpolated_curve(["n1", "r1"], {"r1", "r2"})])
    assert RECALL_LEVELS[0] == 0.0
    assert f_measure[0] == 0.0


def test_curve_matches_max_scan_oracle_on_hand_ranking():
    ranking = ["r1", "n1", "r2", "n2", "n3", "r3", "n4", "n5", "r4", "n6"]
    relevant = {"r1", "r2", "r3", "r4", "r5"}
    curve = interpolated_curve(ranking, relevant)
    expected = oracles.interpolated_curve_scan(ranking, relevant)
    assert list(zip(RECALL_LEVELS, curve.tolist())) == expected
    _, f_measure = mean_curve([curve])
    for level, precision, f in zip(RECALL_LEVELS, curve.tolist(), f_measure.tolist()):
        if precision == 0.0 and level == 0.0:
            assert f == 0.0
        else:
            expected_f = 2 * precision * level / (precision + level)
            assert f == pytest.approx(expected_f)


def test_curve_precision_never_increases_across_levels():
    rng = random.Random(11)
    docs = [f"d{i}" for i in range(30)]
    for _ in range(300):
        ranking = rng.sample(docs, rng.randint(0, 30))
        relevant = set(rng.sample(docs, rng.randint(1, 10)))
        curve = interpolated_curve(ranking, relevant)
        precisions = curve.tolist()
        assert all(a >= b for a, b in zip(precisions, precisions[1:]))
        assert list(zip(RECALL_LEVELS, precisions)) == (
            oracles.interpolated_curve_scan(ranking, relevant)
        )


def test_curve_requires_nonempty_relevant():
    with pytest.raises(ValueError):
        interpolated_curve(["d1"], set())


def test_mean_curve_averages_per_level():
    c1 = interpolated_curve(["r1", "r2"], {"r1", "r2"})
    c2 = interpolated_curve(["n1", "n2"], {"r1"})
    (_, f1), (_, f2) = mean_curve([c1]), mean_curve([c2])
    precision, f_measure = mean_curve([c1, c2])
    for i in range(11):
        assert precision[i] == pytest.approx((c1[i] + c2[i]) / 2)
        assert f_measure[i] == pytest.approx((f1[i] + f2[i]) / 2)
    with pytest.raises(ValueError):
        mean_curve([])


def _means_and_scan(judged):
    """`mean_curve` of the judged rankings' curves as (level, precision, F)
    rows, and the scan oracle's rows."""
    precision, f_measure = mean_curve([interpolated_curve(r, rel) for r, rel in judged])
    expected = oracles.mean_curve_scan([oracles.interpolated_curve_scan(r, rel) for r, rel in judged])
    return list(zip(RECALL_LEVELS, precision.tolist(), f_measure.tolist())), expected


@settings(max_examples=150, deadline=None)
@given(judged=st.lists(
    st.tuples(
        st.lists(st.sampled_from(DOC_POOL[:60]), unique=True, max_size=60),
        st.sets(st.sampled_from(DOC_POOL[:80]), min_size=1, max_size=30),
    ),
    min_size=1, max_size=40,
))
def test_mean_curve_equals_its_scan_oracle_exactly(judged):
    actual, expected = _means_and_scan(judged)
    assert actual == expected


def test_mean_curve_equals_its_scan_oracle_over_many_queries():
    # hundreds of rows, where a pairwise sum would round some mean differently
    rng = random.Random(29)
    docs = [f"d{i}" for i in range(300)]
    judged = [
        (rng.sample(docs, rng.randint(0, 120)), set(rng.sample(docs, rng.randint(1, 40))))
        for _ in range(600)
    ]
    actual, expected = _means_and_scan(judged)
    assert actual == expected


# --- per-query differences -----------------------------------------------------------

def test_per_query_diff_goldens():
    assert per_query_diff([0.4, 0.4], [0.4, 0.4]) == [0.0, 0.0]
    assert per_query_diff([0.5], [0.2]) == [0.3]
    with pytest.raises(ValueError):
        per_query_diff([0.1], [0.1, 0.2])


def test_per_query_diff_sums_to_map_gap():
    rng = random.Random(5)
    aps_a = [rng.random() for _ in range(10)]
    aps_b = [rng.random() for _ in range(10)]
    gap = sum(per_query_diff(aps_a, aps_b))
    assert gap == pytest.approx(10 * (map_score(aps_a) - map_score(aps_b)), abs=1e-12)


# --- randomization test ----------------------------------------------------------------

@pytest.mark.parametrize("n_minus,n_plus,expected_p", [
    (0, 5, 0.00005),
    (1, 12, 0.00013),
    (7977, 25059, 0.33036),
    (77, 52, 0.00129),
])
def test_p_value_arithmetic_is_exact(n_minus, n_plus, expected_p):
    result = SigTestResult(delta=0.1, n_minus=n_minus, n_plus=n_plus, n_perm=100000, seed=0)
    assert result.p_two_sided == expected_p


def test_p_value_clamps_to_one():
    result = SigTestResult(delta=0.0, n_minus=900, n_plus=900, n_perm=1000, seed=0)
    assert result.p_two_sided == 1.0
    with pytest.raises(ValueError):
        SigTestResult(delta=0.0, n_minus=0, n_plus=0, n_perm=0, seed=0)


def test_identical_systems_give_p_one():
    aps = [0.2, 0.5, 0.9, 0.4]
    result = randomization_test(aps, list(aps), n_perm=500, seed=7)
    assert result.delta == 0.0
    assert result.n_minus == 500 and result.n_plus == 500
    assert result.p_two_sided == 1.0


def test_randomization_is_deterministic_under_fixed_seed():
    aps_a = [0.9, 0.7, 0.8, 0.65, 0.92]
    aps_b = [0.4, 0.45, 0.5, 0.3, 0.55]
    first = randomization_test(aps_a, aps_b, n_perm=2000, seed=123)
    second = randomization_test(aps_a, aps_b, n_perm=2000, seed=123)
    assert first == second


def test_randomization_is_symmetric_in_its_arguments():
    aps_a = [0.9, 0.1, 0.6, 0.35]
    aps_b = [0.2, 0.3, 0.55, 0.4]
    ab = randomization_test(aps_a, aps_b, n_perm=3000, seed=9)
    ba = randomization_test(aps_b, aps_a, n_perm=3000, seed=9)
    assert ab.delta == ba.delta
    assert ab.p_two_sided == ba.p_two_sided
    assert (ab.n_minus, ab.n_plus) == (ba.n_plus, ba.n_minus)


def test_block_evaluation_merges_to_the_serial_counts():
    aps_a = [0.8, 0.3, 0.7, 0.5, 0.66, 0.42]
    aps_b = [0.6, 0.35, 0.4, 0.52, 0.3, 0.45]
    serial = randomization_test(aps_a, aps_b, n_perm=1000, seed=31)
    diffs = np.asarray(per_query_diff(aps_a, aps_b))
    n_minus = n_plus = 0
    for block in (range(0, 400), range(400, 1000)):  # any split must merge exactly
        for perm_index in block:
            d = float((diffs * permutation_signs(31, perm_index, diffs.size)).mean())
            if d <= -serial.delta:
                n_minus += 1
            if d >= serial.delta:
                n_plus += 1
    assert (n_minus, n_plus) == (serial.n_minus, serial.n_plus)


@pytest.mark.parametrize("n_queries", [2, 5, 24, 64])
def test_permutation_streams_share_no_uniform(n_queries):
    # overlapping counter streams would repeat draws across permutations
    draws = np.concatenate([oracles.permutation_uniforms(3, p, n_queries) for p in range(4096)])
    assert np.unique(draws).size == draws.size


def test_permutation_signs_follow_their_uniforms():
    uniforms = oracles.permutation_uniforms(8, 11, 40)
    assert np.array_equal(permutation_signs(8, 11, 40), np.where(uniforms < 0.5, -1.0, 1.0))


def serial_counts(diffs, n_perm, seed):
    """(n_minus, n_plus, delta) from one permutation at a time, by definition."""
    delta = abs(float(diffs.mean()))
    d = [float((diffs * permutation_signs(seed, p, diffs.size)).mean()) for p in range(n_perm)]
    return sum(x <= -delta for x in d), sum(x >= delta for x in d), delta


@st.composite
def block_kernel_cases(draw):
    """(diffs, rows per block, n_perm, seed); n_perm is below `rows` or not a multiple of it."""
    n = draw(st.integers(1, 300))
    rows = draw(st.integers(1, 64))
    if rows == 1:
        n_perm = draw(st.integers(1, 40))
    else:
        n_perm = draw(st.integers(0, 2)) * rows + draw(st.integers(1, rows - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        diffs = rng.uniform(-0.5, 0.5, n)
    else:  # tenths: |d| == delta ties are common, and rounding decides them
        diffs = rng.integers(-4, 5, n) / 10
    return diffs, rows, n_perm, draw(st.integers(0, 2**63 - 1))


@settings(max_examples=60, deadline=None)
@given(case=block_kernel_cases())
def test_block_kernel_equals_the_serial_definition_exactly(case):
    diffs, rows, n_perm, seed = case
    n = diffs.size
    # a budget of rows * n signs, plus slack below one row, makes blocks of `rows` rows
    with mock.patch.object(evaluation, "_BLOCK_FLOATS", rows * n + n // 2):
        blocks = list(permutation_sign_blocks(seed, n_perm, n))
        result = randomization_test(list(diffs), [0.0] * n, n_perm=n_perm, seed=seed)
    full, rest = divmod(n_perm, rows)
    assert [len(b) for b in blocks] == [rows] * full + ([rest] if rest else [])
    expected_signs = np.array([permutation_signs(seed, p, n) for p in range(n_perm)])
    assert np.array_equal(np.concatenate(blocks), expected_signs)
    assert (result.n_minus, result.n_plus, result.delta) == serial_counts(diffs, n_perm, seed)


@pytest.mark.parametrize("n", [67, 200, 257])
def test_block_kernel_at_the_module_budget_equals_the_serial_definition(n):
    rows = evaluation._BLOCK_FLOATS // n
    diffs = np.random.default_rng(n).uniform(-0.5, 0.5, n)
    for n_perm in (rows - 1, rows + 37):  # one partial block; one full and one partial
        result = randomization_test(list(diffs), [0.0] * n, n_perm=n_perm, seed=n)
        assert (result.n_minus, result.n_plus, result.delta) == serial_counts(diffs, n_perm, n)


def test_exact_oracle_counts_a_constant_difference_by_hand():
    # only all-plus reaches +delta and only all-minus reaches -delta
    assert oracles.exact_randomization_counts([0.25] * 4) == (1, 1, 16)


@pytest.mark.parametrize("n", [4, 9, 16])
@pytest.mark.parametrize("diff_seed", [0, 1, 2])
def test_sampled_p_approaches_the_exact_p(n, diff_seed):
    n_perm = 20_000
    diffs = np.random.default_rng(diff_seed).uniform(-0.3, 0.5, n)
    n_minus, n_plus, n_vectors = oracles.exact_randomization_counts(diffs)
    exact_p = min(1.0, (n_minus + n_plus) / n_vectors)
    sampled = randomization_test(list(diffs), [0.0] * n, n_perm=n_perm, seed=diff_seed)
    standard_error = (exact_p * (1.0 - exact_p) / n_perm) ** 0.5
    assert abs(sampled.p_two_sided - exact_p) <= 4.5 * standard_error


def test_p_is_monotone_nonincreasing_in_injected_delta():
    rng = random.Random(2)
    diffs = np.asarray([rng.uniform(-0.2, 0.4) for _ in range(8)])
    d_values = [
        float((diffs * permutation_signs(17, i, diffs.size)).mean())
        for i in range(2000)
    ]
    previous_p = None
    for delta in (0.0, 0.01, 0.05, 0.1, 0.2, 0.4):
        count = sum(1 for d in d_values if d <= -delta) + sum(1 for d in d_values if d >= delta)
        p = min(1.0, count / len(d_values))
        if previous_p is not None:
            assert p <= previous_p
        previous_p = p


def test_separated_systems_reach_small_p():
    aps_a = [0.9] * 10
    aps_b = [0.1] * 10
    result = randomization_test(aps_a, aps_b, n_perm=2000, seed=77)
    assert result.delta == pytest.approx(0.8)
    assert result.p_two_sided < 0.05


def test_randomization_rejects_bad_inputs():
    with pytest.raises(ValueError):
        randomization_test([], [], n_perm=10, seed=0)
    with pytest.raises(ValueError):
        randomization_test([0.1], [0.1, 0.2], n_perm=10, seed=0)


# --- file formats -------------------------------------------------------------------

QRELS_TEXT = """\
q1 0 docA 1
q1 0 docB 0
q1 0 docC 2
q2 0 docA 1

"""


def test_parse_qrels_keeps_positive_judgments_only():
    qrels = parse_qrels(QRELS_TEXT)
    assert qrels == {"q1": {"docA", "docC"}, "q2": {"docA"}}


def test_parse_qrels_rejects_malformed_lines():
    with pytest.raises(ValueError, match="expected 4 fields"):
        parse_qrels("q1 0 docA\n")


def test_parse_run_orders_by_rank_field():
    text = (
        "q1 Q0 docB 2 0.400000 tag\n"
        "q1 Q0 docA 1 0.900000 tag\n"
        "q2 Q0 docC 1 0.100000 tag\n"
    )
    assert parse_run(text) == {"q1": ["docA", "docB"], "q2": ["docC"]}


def test_parse_run_rejects_duplicates_and_bad_shape():
    with pytest.raises(ValueError, match="duplicate"):
        parse_run("q1 Q0 docA 1 0.5 t\nq1 Q0 docA 2 0.4 t\n")
    with pytest.raises(ValueError, match="expected 6 fields"):
        parse_run("q1 docA 1 0.5\n")


def test_parse_qrels_names_the_line_of_a_non_integer_relevance():
    with pytest.raises(ValueError, match=r"^qrels.txt:2: relevance 'one' is not an integer$"):
        parse_qrels("q1 0 docA 1\nq1 0 docB one\n", "qrels.txt")


def test_parse_run_names_the_line_of_a_non_integer_rank():
    with pytest.raises(ValueError, match=r"^run.txt:3: rank '2.5' is not an integer$"):
        parse_run("q1 Q0 docA 1 0.5 t\n\nq1 Q0 docB 2.5 0.4 t\n", "run.txt")


def test_parse_run_names_the_line_of_a_repeated_doc():
    text = "q1 Q0 docA 1 0.5 t\nq2 Q0 docA 1 0.5 t\nq1 Q0 docB 2 0.4 t\nq1 Q0 docA 3 0.3 t\n"
    with pytest.raises(ValueError, match=r"^run.txt:4: duplicate doc 'docA' in ranking for query 'q1'$"):
        parse_run(text, "run.txt")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("parse, text", [
    (parse_run, "q1 Q0 docA 1 0.5 t\nq1 Q0 docB 2 0.4 t\n"),
    (parse_run, "q1 Q0 docA 1 0.5 t\nq1 Q0 docB x 0.4 t\n"),
    (parse_qrels, "q1 0 docA 1\nq1 0 docB 0\n"),
    (parse_qrels, "q1 0 docA 1\nq1 0 docB\n"),
])
def test_a_parse_pauses_the_collector_for_its_pass_and_restores_it(parse, text, enabled):
    during = []
    fields = evaluation._fields

    def watched(text):
        for row in fields(text):
            during.append(gc.isenabled())
            yield row

    (gc.enable if enabled else gc.disable)()
    try:
        with mock.patch.object(evaluation, "_fields", watched):
            try:
                parse(text)
            except ValueError:
                pass
        assert during and not any(during)
        assert gc.isenabled() == enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("parse, line", [
    (parse_run, "q{} Q0 docA 1 0.5 t\n"),
    (parse_qrels, "q{} 0 docA 1\n"),
])
def test_a_parse_leaves_no_young_generation_for_a_later_allocation_to_collect(parse, line):
    # the pass keeps a few containers a query, in all fewer than the collector's threshold
    # of 700, so only the parse itself can collect them
    n = 100
    text = "".join(line.format(i) for i in range(n))
    gc.collect()
    parsed = parse(text)
    young = gc.get_count()[0]
    assert len(parsed) == n
    assert young < n // 2


@st.composite
def judged_texts(draw, run: bool):
    """A run (`run`) or qrels text, with at most one malformed line.

    A query's lines come in blocks split by other queries' lines, between
    blank and whitespace-only lines, with mixed separators and line ends.
    Ranks ascend, ascend with ties, or fall anyhow; a number may be written
    `+3` or `007`. Qrels query `q0` has no rel above 0. The malformed line,
    if any, is at a random place: it has one field too few or too many, a
    number that is not an integer, or an earlier line's query and doc again."""
    docs = {query_id: draw(st.permutations("abcdefghij")) for query_id in ("q0", "q1", "q2")}
    order = draw(st.sampled_from(["ascending", "tied", "any"]))
    numbers = st.integers(-2, 9) if run else st.integers(-2, 3)
    rows = []  # (query_id, doc_id, number)
    width = 6 if run else 4
    for query_id in draw(st.lists(st.sampled_from(sorted(docs)), min_size=1, max_size=24)):
        k = sum(row[0] == query_id for row in rows)
        if k < len(docs[query_id]):
            n = {"ascending": k + 1, "tied": k // 2 + 1}.get(order) or draw(numbers)
            if query_id == "q0" and not run:
                n = -abs(n)
            rows.append((query_id, docs[query_id][k], n))
    lines = []
    for query_id, doc_id, n in rows:
        number = draw(st.sampled_from([str(n), f"+{n}" if n >= 0 else str(n), f"{n:03d}"]))
        lines.append([query_id, "Q0", doc_id, number, "0.5", "tag"] if run else [query_id, "0", doc_id, number])
    fault = draw(st.sampled_from([None, "short", "long", "number", "repeat"]))
    at = draw(st.integers(0, len(lines)))
    if fault == "short" and lines:
        lines[min(at, len(lines) - 1)].pop()
    elif fault == "long":
        lines.insert(at, (lines[at - 1] if at else ["q1", "Q0", "a", "1", "0.5", "tag"][:width]) + ["x"])
    elif fault == "number" and lines:
        lines[min(at, len(lines) - 1)][3] = draw(st.sampled_from(["2.5", "x", "1e3", "--1", ""]))
    elif fault == "repeat" and lines:
        again = list(lines[draw(st.integers(0, len(lines) - 1))])
        lines.insert(draw(st.integers(0, len(lines))), again)
    texts = []
    for fields in lines:
        for _ in range(draw(st.integers(0, 1))):
            texts.append(draw(st.sampled_from(["", " ", "\t ", "  \t"])))
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        texts.append(draw(st.sampled_from(["", " "])) + sep.join(fields) + draw(st.sampled_from(["", " \t"])))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in texts)


def _parsed(parse, text):
    try:
        return parse(text, "judged.txt")
    except ValueError as error:
        return f"ValueError: {error}"


@settings(max_examples=400, deadline=None)
@given(text=judged_texts(run=True))
def test_parse_run_equals_the_line_walk(text):
    assert _parsed(parse_run, text) == _parsed(oracles.parse_run_walk, text)


@settings(max_examples=400, deadline=None)
@given(text=judged_texts(run=False))
def test_parse_qrels_equals_the_line_walk(text):
    assert _parsed(parse_qrels, text) == _parsed(oracles.parse_qrels_walk, text)


def test_eval_report_format_golden():
    curve = interpolated_curve(["r1"], {"r1"})
    report = format_eval_report({"q2": 0.5, "q1": 1.0}, *mean_curve([curve]))
    lines = report.splitlines()
    assert lines[0] == "ap\tq1\t1.000000"
    assert lines[1] == "ap\tq2\t0.500000"
    assert lines[2] == "map\t0.750000"
    assert lines[3] == "curve\t0.0\t1.000000\t0.000000"
    assert lines[-1] == "curve\t1.0\t1.000000\t1.000000"
    assert len(lines) == 2 + 1 + 11


def test_sigtest_report_format_golden():
    result = SigTestResult(delta=0.125, n_minus=0, n_plus=5, n_perm=100000, seed=42)
    assert format_sigtest_report(result) == (
        "delta\tn_minus\tn_plus\tp\tn_perm\tseed\n"
        "0.125000\t0\t5\t0.000050\t100000\t42\n"
    )
