"""Inverted-index construction, tf-idf weighting, and persistence."""

import base64
import hashlib
import math
import os
import random
import re
import stat
import sys
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontosearch.annotate import AnnotatedText, EntityAnnotation, annotate
from ontosearch.cli import parse_corpus
from ontosearch.expand import DocumentCounts, Keyword, Space, Triple, expand_document, triple_slots
from ontosearch.index import (
    IndexBundle,
    _check_terms,
    _varint_fields,
    _varints,
    build_index,
    load_index,
    read_fingerprint,
    save_index,
    tfidf_weight,
)
from ontosearch.kb import parse_kb
from ontosearch.rank import (
    Model, ModelConfig, cosine_score, rank_documents, represent_document, represent_query, score_query,
)
from ontosearch.synth import generate
from ontosearch.textfile import write_text

import oracles
from conftest import FIGURE_DOC, FIGURE_QUERY, counted_document
from test_microbench import grown_collection


ENTITY_SPACES = (Space.N, Space.C, Space.NC, Space.I)

F = oracles.posting_field


def term_line(term, gaps, tfs):
    """A term line as `save_index` writes it, its fields from `oracles.posting_field`."""
    return f"{term}\t{F(gaps)}\t{F(tfs)}"


def rep(doc_id, **bags):
    """Counted document with the named parts filled and the rest empty.

    G's part holds the keywords given for it; the N, C, NC and I terms join
    them in `space_bags`, as in a document's G.
    """
    return counted_document(doc_id, bags)


K = Keyword


def postings(sx, term):
    """(doc_id, tf) pairs of a term's postings, read off its row of the space's table."""
    table, row = sx.table, sx.rows[term]
    lo, hi = table.offsets[row], table.offsets[row + 1]
    return tuple(
        (sx.doc_ids[i], tf) for i, tf in zip(table.doc_idx[lo:hi].tolist(), table.tf[lo:hi].tolist())
    )


def assert_same_space(sx, reference):
    """Term by term: the same sorted terms, each with the same (doc_id, tf) postings and idf
    bits, and the same norms bits."""
    assert sx.doc_ids == reference.doc_ids
    assert list(sx.rows) == list(reference.rows)
    for term, row in sx.rows.items():
        assert postings(sx, term) == postings(reference, term), term
        assert sx.table.idf[row].tobytes() == reference.table.idf[reference.rows[term]].tobytes(), term
    assert sx.norms.tobytes() == reference.norms.tobytes()


def norm(sx, doc_id):
    return sx.norms[sx.doc_ids.positions[doc_id]].item()


def test_tfidf_weight_frozen_values():
    assert tfidf_weight(3, 2, 4) == 3 * math.log(2)
    assert tfidf_weight(3, 2, 4) == pytest.approx(2.0794415416798357)
    assert tfidf_weight(5, 5, 5) == 0.0  # ubiquitous term
    assert tfidf_weight(1, 1, 1) == 0.0
    assert tfidf_weight(2, 1, 10) == 2 * math.log(10)


@pytest.mark.parametrize("tf,df,n", [(0, 1, 2), (-1, 1, 2), (1, 0, 2), (1, 3, 2), (1, 1, 0)])
def test_tfidf_weight_contract_errors(tf, df, n):
    with pytest.raises(ValueError):
        tfidf_weight(tf, df, n)


def test_postings_and_df_two_doc_example():
    bundle = build_index([
        rep("d1", KW={K("presid"): 2, K("univers"): 1}),
        rep("d2", KW={K("univers"): 3}),
    ])
    kw = bundle.spaces[Space.KW]
    assert kw.n_docs == 2
    assert kw.df[K("presid")] == 1
    assert kw.df[K("univers")] == 2
    assert postings(kw, K("presid")) == (("d1", 2),)
    assert postings(kw, K("univers")) == (("d1", 1), ("d2", 3))
    assert bundle.doc_ids == ("d1", "d2")


def test_ubiquitous_term_contributes_nothing_to_norms():
    bundle = build_index([
        rep("a", KW={K("shared"): 4}),
        rep("b", KW={K("shared"): 1, K("rare"): 2}),
    ])
    kw = bundle.spaces[Space.KW]
    assert norm(kw, "a") == 0.0
    assert norm(kw, "b") == pytest.approx(2 * math.log(2))


def test_empty_bags_still_count_toward_n_docs():
    bundle = build_index([
        rep("a"),
        rep("b", N={Triple("stanford", None, None): 1}),
    ])
    n_space = bundle.spaces[Space.N]
    assert n_space.n_docs == 2
    assert n_space.df[Triple("stanford", None, None)] == 1
    # the single occurrence is discriminating, so its weight is ln 2
    assert norm(n_space, "b") == pytest.approx(math.log(2))
    assert norm(n_space, "a") == 0.0


FIVE_DOCS = [
    rep("d1", KW={K("alpha"): 3, K("beta"): 1}, N={Triple("x", None, None): 2}),
    rep("d2", KW={K("alpha"): 1, K("gamma"): 4}),
    rep("d3", KW={K("beta"): 2, K("gamma"): 1, K("delta"): 1},
        C={Triple(None, "City", None): 1}),
    rep("d4", KW={K("delta"): 5}, N={Triple("x", None, None): 1, Triple("y", None, None): 3}),
    rep("d5", KW={K("alpha"): 2, K("delta"): 2},
        I={Triple("x", "City", "City_1"): 1}),
]


def test_norms_match_dense_recomputation():
    bundle = build_index(FIVE_DOCS)
    for space in Space:
        sx = bundle.spaces[space]
        for doc in FIVE_DOCS:
            bag = doc.space_bags[space]
            expected = math.sqrt(sum(
                (tf * math.log(sx.n_docs / sx.df[t])) ** 2 for t, tf in bag.items()
            ))
            assert norm(sx, doc.doc_id) == pytest.approx(expected, abs=1e-9)


def test_build_is_invariant_under_input_permutation():
    reference = build_index(FIVE_DOCS)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = FIVE_DOCS.copy()
        rng.shuffle(shuffled)
        bundle = build_index(shuffled)
        assert bundle == reference  # dataclass equality: exact floats included
        for space in Space:
            assert list(bundle.spaces[space].rows) == list(reference.spaces[space].rows)


@pytest.mark.parametrize("tf", [0, -2])
def test_build_rejects_a_bag_count_below_one(tf):
    reps = [rep("d1", KW={Keyword("a"): 1, Keyword("b"): tf}), rep("d2", KW={Keyword("a"): 2})]
    with pytest.raises(ValueError, match=f"^tf must be >= 1, got {tf}$"):
        build_index(reps)


def test_postings_tf_sums_are_conserved():
    bundle = build_index(FIVE_DOCS)
    for space in Space:
        sx = bundle.spaces[space]
        total_in_bags = sum(sum(d.space_bags[space].values()) for d in FIVE_DOCS)
        total_in_postings = sum(tf for term in sx.rows for _, tf in postings(sx, term))
        assert total_in_postings == total_in_bags


def test_duplicate_doc_id_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_index([rep("same", KW={K("a"): 1}), rep("same", KW={K("b"): 1})])


x = Triple("x", None, None)
IN_TWO_SPACES = "term 't:x/*/*' lies in two of N, C, NC and I"


# a G part holding a triple cannot be counted (G's own part counts stems);
# the load-side twin is test_load_refuses_parts_that_break_the_kind_rule_though_the_sha256_matches[triple-in-G]
@pytest.mark.parametrize("d1,d2,message", [
    ({"N": {x: 1}, "C": {x: 1}}, {}, IN_TWO_SPACES),
    ({"N": {x: 1}}, {"C": {x: 1}}, IN_TWO_SPACES),
    ({"N": {K("a"): 1}, "G": {K("a"): 1}}, {}, "N's part holds triples only, got 'k:a'"),
], ids=["in-two-entity-bags", "in-two-entity-spaces", "keyword-in-N"])
def test_build_rejects_a_g_that_is_not_its_keywords_and_the_entity_bags(d1, d2, message):
    # such parts could not be saved and loaded back as the same G
    reps = [rep("d0", KW={K("a"): 1}), rep("d1", **d1), rep("d2", **d2)]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_index(reps)


def test_build_rejects_a_representation_that_is_not_a_counted_document(figure_kb):
    # a query's bags, its wh class in G's own part, are no document
    doc = represent_document(FIGURE_QUERY, figure_kb, "d")
    query = represent_query(FIGURE_QUERY, figure_kb, ModelConfig(model=Model.KW_PLUS_NE_WH))
    assert Triple(class_id="Person") in query.space_bags[Space.G]
    for other in (query, query._replace(space_bags={**query.space_bags, Space.G: {}})):
        with pytest.raises(TypeError, match="^build_index takes counted documents "
                                            r"\(expand_document's\), got DocRepresentation$"):
            build_index([doc, other])


def test_build_rejects_documents_counted_against_two_expansion_tables(figure_kb):
    # a key's terms are read through one table per build
    doc = represent_document(FIGURE_QUERY, figure_kb, "d")
    with pytest.raises(ValueError, match="^the documents were counted against different expansion tables$"):
        build_index([doc, rep("e", N={x: 1})])


def test_two_keys_of_one_document_that_share_a_term_give_one_posting(figure_kb):
    # Georgia (a country) and Moscow (a city) both expand to the class Location
    doc = represent_document("Georgia and Moscow met.", figure_kb, "d")
    assert len(doc.keys) == 2
    location = Triple(class_id="Location")
    assert [location in figure_kb.expansions[key][1] for key in doc.keys] == [True, True]
    docs = [doc, represent_document("Wine.", figure_kb, "e")]
    bundle = build_index(docs)
    assert postings(bundle.spaces[Space.C], location) == (("d", 2),)
    assert postings(bundle.spaces[Space.G], location) == (("d", 2),)
    reference = oracles.build_index_dicts(docs)
    for space in Space:
        assert_same_space(bundle.spaces[space], reference.spaces[space])


def test_a_representation_stores_g_own_terms_and_composes_g_on_read():
    d = rep("d", KW={K("a"): 1, K("b"): 2}, N={x: 3}, G={K("a"): 1})
    assert d.own == {"a": 1}  # G's own stems; its entity terms are not stored
    assert d.space_bags[Space.G] == Counter({K("a"): 1, x: 3})
    assert d.space_bags is d.space_bags  # composed once
    assert list(d.space_bags) == list(Space)


# --- persistence ---------------------------------------------------------------

def test_save_writes_one_index_file(tmp_path):
    save_index(build_index(FIVE_DOCS), tmp_path, {"kb_sha256": "ab12"})
    assert [p.name for p in tmp_path.iterdir()] == ["index.tsv"]
    text = (tmp_path / "index.tsv").read_text()
    lines = text.splitlines()
    assert lines[:8] == ["ontosearch-index\t4", "kb_sha256\tab12", "docs\t5", "d1", "d2", "d3", "d4", "d5"]
    assert lines[8:13] == [  # gaps: the first roster position, then steps of at least 1
        "space\tKW\t4", term_line("k:alpha", [0, 1, 3], [3, 1, 2]), term_line("k:beta", [0, 2], [1, 2]),
        term_line("k:delta", [2, 1, 1], [1, 5, 2]), term_line("k:gamma", [1, 1], [4, 1]),
    ]
    assert lines[9] == "k:alpha\tAAED\tAwEC"  # the base64 of the bytes 00 01 03 and 03 01 02
    # G's four entity terms are N's, C's and I's, so its section lists none
    assert len(build_index(FIVE_DOCS).spaces[Space.G].rows) == 4
    assert [line for line in lines if line.startswith("space\t")] == [
        "space\tKW\t4", "space\tN\t2", "space\tC\t1", "space\tNC\t0", "space\tI\t1", "space\tG\t0",
    ]
    body = "".join(line + "\n" for line in lines[:-1])
    assert lines[-1] == "sha256\t" + hashlib.sha256(body.encode("utf-8")).hexdigest()
    assert read_fingerprint(tmp_path) == {"kb_sha256": "ab12"}


def test_round_trip_restores_everything_exactly(tmp_path):
    built = build_index(FIVE_DOCS + [rep("d6", N={Triple("x", None, None): 1}, G={K("alpha"): 1})])
    save_index(built, tmp_path)
    loaded = load_index(tmp_path)
    assert loaded == built
    for space in Space:
        assert loaded.spaces[space].norms.tolist() == built.spaces[space].norms.tolist()  # exact floats
    # G's own keywords and the entity terms of N, C, NC and I, in one sorted order
    assert list(loaded.spaces[Space.G].rows) == [
        K("alpha"), Triple(None, "City", None), Triple("x", None, None),
        Triple("x", "City", "City_1"), Triple("y", None, None)]


@pytest.mark.parametrize("n_extra", [0, 1000], ids=["synth", "grown-kb-1000"])
def test_idf_is_each_dfs_tfidf_weight_bit_for_bit(tmp_path, n_extra):
    # idf is computed once per distinct df and gathered back, on build and on load alike
    collection = generate(seed=7, n_docs=600)
    kb, texts = parse_kb(collection.kb_text), list(parse_corpus(collection.corpus_text).values())
    if n_extra:
        kb, texts = grown_collection(SimpleNamespace(kb=kb, kb_text=collection.kb_text, texts=texts), n_extra)
    built = build_index([represent_document(text, kb, f"d{i:03d}") for i, text in enumerate(texts)])
    save_index(built, tmp_path)
    loaded = load_index(tmp_path)
    assert loaded == built
    for bundle in (built, loaded):
        for sx in bundle.spaces.values():
            want = [tfidf_weight(1, df, sx.n_docs) for df in sx.df.values()]
            assert len(set(want)) < len(want)  # terms share a df
            assert sx.table.idf[list(sx.rows.values())].tobytes() == np.array(want, dtype=np.float64).tobytes()


def test_every_space_reads_one_table_that_holds_each_stored_posting_once(tmp_path):
    # G reads its own rows and those of N, C, NC and I; it keeps no postings of its own
    collection = generate(seed=7, n_docs=600)
    kb = parse_kb(collection.kb_text)
    built = build_index([represent_document(text, kb, doc_id)
                         for doc_id, text in parse_corpus(collection.corpus_text).items()])
    save_index(built, tmp_path)
    loaded = load_index(tmp_path)
    assert built == loaded
    term_lines = [line.split("\t") for line in (tmp_path / "index.tsv").read_text("utf-8").splitlines()
                  if line.startswith(("k:", "t:"))]
    # a varint's last byte is the one below 0x80, so a gaps field holds as many postings
    stored = sum(sum(byte < 0x80 for byte in base64.b64decode(gaps)) for _, gaps, _ in term_lines)
    for bundle in (built, loaded):
        table = bundle.spaces[Space.KW].table
        assert all(sx.table is table for sx in bundle.spaces.values())
        assert len(table.offsets) - 1 == len(term_lines)
        assert table.offsets[-1] == len(table.doc_idx) == len(table.tf) == len(table.weights) == stored
        assert all([name for name, value in vars(sx).items() if isinstance(value, np.ndarray)] == ["norms"]
                   for sx in bundle.spaces.values())
        entity_rows = {term: row for space in ENTITY_SPACES for term, row in bundle.spaces[space].rows.items()}
        g_rows = bundle.spaces[Space.G].rows
        assert {term: row for term, row in g_rows.items() if term.startswith("t:")} == entity_rows


def test_a_carriage_return_in_a_doc_id_or_fingerprint_value_round_trips(tmp_path):
    # save_index reserves only ':', ',', tab and newline; a "\r" must not split a line on load
    built = build_index([rep("a\rb", KW={K("alpha"): 1}), *FIVE_DOCS])
    save_index(built, tmp_path, {"kb_sha256": "v\rw"})
    assert load_index(tmp_path) == built
    assert read_fingerprint(tmp_path) == {"kb_sha256": "v\rw"}


def test_query_views_are_built_on_first_use_from_the_bundle_roster(tmp_path):
    built = build_index(FIVE_DOCS)
    save_index(built, tmp_path)
    loaded = load_index(tmp_path)
    table_views = ("offset_list", "idf_list")
    assert not any("has_norm" in vars(sx) for sx in loaded.spaces.values())
    assert not any(view in vars(sx.table) for sx in loaded.spaces.values() for view in table_views)
    assert not any(view in vars(loaded.doc_ids) for view in ("positions", "array", "untouched"))
    for bundle in (built, loaded):
        roster = bundle.doc_ids
        assert roster.array.dtype == object and len(roster.array) == len(roster)
        assert all(a is b for a, b in zip(roster.array, roster))
        assert roster.positions == {doc_id: i for i, doc_id in enumerate(roster)}
        values, touched = roster.untouched
        assert values.tolist() == [0.0] * len(roster) and touched.tolist() == [False] * len(roster)
        assert not values.flags.writeable and not touched.flags.writeable
        for sx in bundle.spaces.values():
            assert sx.doc_ids is roster
            assert sx.has_norm.tolist() == (sx.norms > 0.0).tolist()
        table = bundle.spaces[Space.KW].table  # one per bundle, so its lists are built once
        assert table.offset_list == table.offsets.tolist()
        assert all(type(o) is int for o in table.offset_list)
        assert table.idf_list == table.idf.tolist()
        assert all(type(x) is float for x in table.idf_list)
        assert all(sx.table.offset_list is table.offset_list for sx in bundle.spaces.values())


def test_every_space_of_a_bundle_reads_one_roster_view(figure_kb, tmp_path):
    texts = {"d-pres": FIGURE_DOC, "d-two": "Georgia and Moscow met.", "d-wine": "Wine from Georgia."}
    built = build_index([represent_document(text, figure_kb, doc_id) for doc_id, text in texts.items()])
    save_index(built, tmp_path)
    loaded = load_index(tmp_path)
    assert loaded == built
    # the shared zeros are built on first use, not at build or load
    assert "untouched" not in vars(built.doc_ids) and "untouched" not in vars(loaded.doc_ids)
    for bundle in (built, loaded):
        roster = bundle.doc_ids
        assert all(sx.doc_ids is roster for sx in bundle.spaces.values())
        for model in Model:
            cfg = ModelConfig(model=model)
            query = represent_query(FIGURE_QUERY + " Georgia wine", figure_kb, cfg)
            scores = score_query(query, bundle, cfg)
            assert scores.roster is roster and rank_documents(scores), model
            unseen = score_query(represent_query("zyzzyva quokka", figure_kb, cfg), bundle, cfg)
            assert unseen.roster is roster and len(unseen) == 0 and not unseen.array.any(), model
            if model is not Model.KW_UNION_NE:  # which sums its two parts into a new array
                assert unseen.array is roster.untouched[0] and unseen.touched is roster.untouched[1], model
        for sx in bundle.spaces.values():  # a bag of unseen terms touches nothing in any space
            unseen = cosine_score({"k:zyzzyva": 1, Triple(entity_id="nobody"): 2}, sx)
            assert unseen.array is roster.untouched[0] and unseen.touched is roster.untouched[1]


def test_rewrite_is_byte_identical(tmp_path):
    built = build_index(FIVE_DOCS)
    first, second = tmp_path / "first", tmp_path / "second"
    save_index(built, first)
    save_index(load_index(first), second)
    for path in sorted(first.iterdir()):
        assert (second / path.name).read_bytes() == path.read_bytes()


# FIVE_DOCS' index.tsv, by line: 1 format, 2 docs, 3-7 roster rows d1..d5,
# 8 `space KW 4`, 9-12 k:alpha k:beta k:delta k:gamma, 13 `space N 2`,
# 14-15 t:x t:y, 16 `space C 1`, 17 t:*/City/*, 18 `space NC 0`,
# 19 `space I 1`, 20 t:x/City/City_1, 21 `space G 0`, 22 sha256


def saved_five(tmp_path):
    save_index(build_index(FIVE_DOCS), tmp_path)
    return tmp_path / "index.tsv"


def replace_line(path, lineno, *lines):
    """Put `lines` in place of line `lineno` (1-based) of a file, or after its end."""
    text = path.read_text().splitlines()
    text[lineno - 1:lineno] = lines
    path.write_text("\n".join(text) + "\n")


def rejects(path, lineno, message):
    return pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: {message}"))


SHA256_DIFFERS = ("expected the sha256 of the lines above; the file was changed after it was written, "
                  "so rebuild it")


@pytest.mark.parametrize("lineno,line", [
    (10, term_line("k:alpha", [0, 1, 3], [3, 1, 5])),  # another tf
    (12, term_line("k:delta", [1, 2, 1], [1, 5, 2])),  # another in-range gap: d2 for d3
    (13, term_line("k:gammb", [1, 1], [4, 1])),        # another term, still in order
    (8, "d6"),                          # another doc id, still in order
    (2, "kb_sha256\tcd34"),             # another fingerprint
    (23, "sha256\t" + "0" * 64),        # another digest
], ids=["tf", "gap", "term", "doc-id", "fingerprint", "digest"])
def test_load_rejects_an_edit_that_leaves_every_field_well_formed(tmp_path, lineno, line):
    # norms are recomputed, not stored, so only the sha256 can tell
    save_index(build_index(FIVE_DOCS), tmp_path, {"kb_sha256": "ab12"})
    path = tmp_path / "index.tsv"  # FIVE_DOCS' lines, one further down
    replace_line(path, lineno, line)
    with rejects(path, 23, SHA256_DIFFERS):
        load_index(tmp_path)


def test_load_reports_a_field_error_before_the_sha256(tmp_path):
    path = saved_five(tmp_path)
    replace_line(path, 9, term_line("k:alpha", [0, 1, 3], [3, 1, 5]))  # caught by the sha256 alone
    replace_line(path, 17, term_line("t:*/City", [2], [1]))
    with rejects(path, 17, "malformed triple term 't:*/City'"):
        load_index(tmp_path)
    replace_line(path, 17, term_line("t:*/City/*", [2], [1]))
    with rejects(path, 22, SHA256_DIFFERS):
        load_index(tmp_path)


def test_load_rejects_a_file_without_its_sha256_line(tmp_path):
    path = saved_five(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with rejects(path, 22, SHA256_DIFFERS):
        load_index(tmp_path)


def test_load_and_read_fingerprint_refuse_a_format_2_file(tmp_path):
    # as format 2 wrote it: norms on the roster rows, G's entity lines, no sha256
    (tmp_path / "index.tsv").write_text(
        "ontosearch-index\t2\nkb_sha256\tab12\ndocs\t1\nd1\t0\t0\t0\t0\t0\t0\n"
        "space\tKW\t1\nk:a\t0\t1\nspace\tN\t1\nt:x/*/*\t0\t1\nspace\tC\t0\nspace\tNC\t0\n"
        "space\tI\t0\nspace\tG\t1\nt:x/*/*\t0\t1\n", encoding="utf-8")
    for read in (load_index, read_fingerprint):
        with rejects(tmp_path / "index.tsv", 1, "expected the format line 'ontosearch-index\\t4', got "
                     "'ontosearch-index\\t2'; rebuild it with `ontosearch index`"):
            read(tmp_path)


def test_load_and_read_fingerprint_refuse_a_format_3_file(tmp_path):
    # as format 3 wrote it: gaps and tfs as decimal comma lists
    body = ("ontosearch-index\t3\nkb_sha256\tab12\ndocs\t2\nd1\nd2\nspace\tKW\t1\nk:a\t0,1\t1,2\n"
            "space\tN\t1\nt:x/*/*\t1\t1\nspace\tC\t0\nspace\tNC\t0\nspace\tI\t0\nspace\tG\t0\n")
    (tmp_path / "index.tsv").write_text(
        body + "sha256\t" + hashlib.sha256(body.encode("utf-8")).hexdigest() + "\n", encoding="utf-8")
    for read in (load_index, read_fingerprint):
        with rejects(tmp_path / "index.tsv", 1, "expected the format line 'ontosearch-index\\t4', got "
                     "'ontosearch-index\\t3'; rebuild it with `ontosearch index`"):
            read(tmp_path)


def test_load_and_read_fingerprint_name_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    path = saved_five(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data + b"\xff")
    with rejects(path, 23, "not valid UTF-8"):
        load_index(tmp_path)
    path.write_bytes(data.replace(b"docs\t5", b"kb_sha256\t\xff\ndocs\t5"))  # a fingerprint value
    for read in (load_index, read_fingerprint):
        with rejects(path, 2, "not valid UTF-8"):
            read(tmp_path)


def test_load_rejects_df_posting_mismatch(tmp_path):
    path = saved_five(tmp_path)
    replace_line(path, 9, term_line("k:alpha", [0, 1, 3], [3, 1]))
    with rejects(path, 9, "df 3 (gaps) does not match 2 tfs"):
        load_index(tmp_path)


def two_doc_index(tmp_path):
    save_index(build_index([
        rep("a", KW={K("shared"): 1, K("x"): 1}),
        rep("b", KW={K("shared"): 1, K("y"): 2}),
    ]), tmp_path)
    path = tmp_path / "index.tsv"
    assert path.read_text().splitlines()[5] == term_line("k:shared", [0, 1], [1, 1])
    return path


def test_load_rejects_posting_for_doc_without_norm_line(tmp_path):
    # position 2 of a 2-document roster names no roster row
    path = two_doc_index(tmp_path)
    replace_line(path, 6, term_line("k:shared", [0, 2], [1, 1]))
    with rejects(path, 6, "a posting lies outside the roster of 2 documents"):
        load_index(tmp_path)


@pytest.mark.parametrize("edit", ["repeat", "order"])
def test_load_rejects_a_roster_that_repeats_a_row_or_leaves_sorted_order(tmp_path, edit):
    path = saved_five(tmp_path)
    rows = path.read_text().splitlines()[2:7]
    if edit == "repeat":  # a second d2 row before the real one
        replace_line(path, 2, "docs\t6")
        replace_line(path, 4, "d2", rows[1])
        message = "doc id 'd2' repeats the row above"
    else:
        replace_line(path, 3, rows[1])
        replace_line(path, 4, rows[0])
        message = "doc id 'd1' sorts before 'd2' on the row above"
    with rejects(path, 4 if edit == "order" else 5, message):
        load_index(tmp_path)


@pytest.mark.parametrize("lineno,line,at,message", [
    (2, "docs\t6", 9, "after the 6 roster rows that line 2 states, got 'k:alpha\\t"),
    (2, "docs\t4", 7, "after the 4 roster rows that line 2 states, got 'd5'"),
    (8, "space\tKW\t3", 12, "after the 3 term lines that line 8 states, got 'k:gamma\\t"),
    (8, "space\tKW\t9", None, "no section for spaces ['C', 'N']"),
    (21, "space\tG\t1", 21, "space G states 1 terms, but the file ends after 0"),
], ids=["docs-over", "docs-under", "terms-under", "terms-over-a-space", "terms-past-end"])
def test_load_rejects_a_count_that_is_not_what_follows_it(tmp_path, lineno, line, at, message):
    path = saved_five(tmp_path)
    replace_line(path, lineno, line)
    where = f"{path}:{at}: " if at else f"{path}: "
    with pytest.raises(ValueError, match=re.escape(where) + ".*" + re.escape(message)):
        load_index(tmp_path)


def test_load_rejects_manifest_term_count_mismatch(tmp_path):
    # the term count manifest.tsv held now sits on each space line
    path = saved_five(tmp_path)
    assert path.read_text().splitlines()[7] == "space\tKW\t4"
    replace_line(path, 8, "space\tKW\t5")
    with rejects(path, 14, "expected space<TAB>name<TAB>n_terms after the 5 term lines that line 8 "
                 f"states, got {term_line('t:x/*/*', [0, 3], [2, 1])!r}"):
        load_index(tmp_path)


def test_load_rejects_terms_out_of_serialized_order(tmp_path):
    # term ids follow file order, which must be the canonical accumulation order
    path = saved_five(tmp_path)
    lines = path.read_text().splitlines()
    replace_line(path, 9, lines[9])
    replace_line(path, 10, lines[8])
    with rejects(path, 10, "terms are not in strictly ascending serialized order"):
        load_index(tmp_path)


def test_load_rejects_two_spellings_of_one_term(tmp_path):
    # both name the normalized name "x", which would give two term ids one term
    path = saved_five(tmp_path)
    replace_line(path, 14, term_line("t:X/*/*", [0], [2]))
    replace_line(path, 15, term_line("t:x/*/*", [3], [1]))
    with rejects(path, 14, "term 't:X/*/*' is not in canonical form, 't:x/*/*'"):
        load_index(tmp_path)


@pytest.mark.parametrize("text,canonical", [
    ("t:X/*/*", "t:x/*/*"),              # a name not normalized
    ("t:a%2fb/*/*", "t:a%252fb/*/*"),    # an escape in lower case
    ("t:*/%2a/*", "t:*/%252a/*"),
    ("t:*/a%2Ab/*", "t:*/a*b/*"),        # a `*` escaped that needs no escape
    ("t:*/*/*", None),                   # no slot
])
def test_load_refuses_a_lone_term_not_in_canonical_form_though_the_sha256_matches(tmp_path, text, canonical):
    # such a term would load as a term that differs from its text
    path = saved_five(tmp_path)
    replace_line(path, 14, term_line(text, [0, 3], [2, 1]))
    resign(path)
    message = (f"term {text!r} is not in canonical form, {canonical!r}" if canonical
               else "a Triple needs at least one specified slot")
    with rejects(path, 14, message):
        load_index(tmp_path)


# term texts as a term field may hold them (no tab or newline): slots that may
# hold escapes in either case, `*`, mixed case and runs of whitespace
raw_slot = st.lists(st.sampled_from(["*", "%", "%2F", "%2f", "%2A", "%2a", "%25", "%09", "%0A", "%0a",
                                     "a", "B", "ß", "İ", " ", "  ", "\r", "\x1c", "."]),
                    max_size=4).map("".join)
term_texts = st.one_of(
    st.tuples(raw_slot, raw_slot, raw_slot).map(lambda slots: "t:" + "/".join(slots)),
    st.tuples(raw_slot, raw_slot, raw_slot).filter(any).map(lambda slots: Triple(*slots)),
    st.lists(raw_slot, max_size=4).map(lambda slots: "t:" + "/".join(slots)),
)


@given(term_texts)
def test_the_load_check_accepts_exactly_the_terms_that_round_trip(text):
    try:
        round_trips = Triple(*triple_slots(text)) == text
    except ValueError:
        round_trips = False
    try:
        _check_terms([text], Path("index.tsv"), 1)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == round_trips


def check_outcome(check, terms):
    """The message `check` raises on `terms`, the first on line 7, or None when it accepts them."""
    try:
        check(terms, Path("index.tsv"), 7)
    except ValueError as exc:
        return str(exc)
    return None


# triples without `%`, which the whole-space check may vouch for: only their names' case and
# spaces, and a triple of `*` alone, keep them from round-tripping
plain_slot = st.lists(st.sampled_from(["*", "a", "B", "ß", "İ", " ", "  ", "\r", "\x1c", "."]),
                      max_size=3).map("".join)
plain_triples = st.tuples(plain_slot, plain_slot, plain_slot).map(lambda slots: "t:" + "/".join(slots))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(term_texts, plain_triples, plain_triples, raw_slot.map("k:".__add__)), max_size=8),
       st.one_of(st.none(), st.none(), raw_slot.map("q:".__add__)),
       st.sampled_from([False, False, False, True]))
@example(["t:a/*/*", "t: b/*/*"], None, False)
@example(["t:a /*/*", "t:b/*/*"], None, False)
@example(["t:*/*/*", "t:a/*/*"], None, False)
@example(["k:a", "t:B/*/*", "t:c/*/*"], None, False)
def test_the_whole_space_check_accepts_and_refuses_what_the_walk_does(texts, unknown, swap):
    terms = sorted({*texts, unknown} - {None})
    if swap and len(terms) > 1:  # and one pair out of order
        terms[-2:] = terms[:-3:-1]
    assert check_outcome(_check_terms, terms) == check_outcome(oracles.check_terms_walk, terms)


@pytest.mark.parametrize("lineno,line,message", [
    (1, "ontosearch-index\t1", "expected the format line 'ontosearch-index\\t4', got "
                               "'ontosearch-index\\t1'; rebuild it with `ontosearch index`"),
    (2, "docs\tfive", "expected a count, got 'five'"),
    (2, "kb_sha256", "expected key<TAB>value, got 'kb_sha256'"),
    (4, "d2\t3.70058942643", "expected a doc id alone, got 'd2\\t3.70058942643'"),
    (8, "", "expected space<TAB>name<TAB>n_terms after the 5 roster rows that line 2 states, got ''"),
    (8, "space\tKW", "expected space<TAB>name<TAB>n_terms after the 5 roster rows that line 2 "
                    "states, got 'space\\tKW'"),
    (13, "space\tN\t2.0", "expected a count, got '2.0'"),
    (13, "space\tXX\t2", "unknown space 'XX'"),
    (9, "k:alpha\t" + F([0, 1, 3]), "expected term<TAB>gaps<TAB>tfs, got " + repr("k:alpha\t" + F([0, 1, 3]))),
    (10, term_line("k:beta", [0, 2], [1]), "df 2 (gaps) does not match 1 tfs"),
    (11, f"k:delta\t{F([2, 1, 1])}\t{F([1, 5, 2], 'not-base64')}",
     f"tfs must be padded base64, got {F([1, 5, 2], 'not-base64')!r}"),
    (11, term_line("k:delta", [2, 1, 1], [1, 0, 2]), "tf must be an integer >= 1, got 0"),
    (11, term_line("k:delta", [2, 1, 2], [1, 5, 2]), "a posting lies outside the roster of 5 documents"),
    (11, term_line("k:delta", [5], [1]), "a posting lies outside the roster of 5 documents"),
    (11, term_line("k:delta", [2, 0, 1], [1, 5, 2]), "postings repeat a document or leave roster order"),
    (17, term_line("t:*/City", [2], [1]), "malformed triple term 't:*/City'"),
    (17, term_line("q:City", [2], [1]), "unknown term serialization 'q:City'"),
], ids=[
    "format-line", "docs-count", "fingerprint-line", "roster-row", "space-line-empty",
    "space-line-short", "space-term-count", "space-name", "term-line-short", "df",
    "tf-field", "tf-zero", "past-roster-by-steps", "past-roster-first", "repeated-doc",
    "malformed-triple", "unknown-term-kind",
])
def test_load_names_the_file_and_line_of_a_malformed_field(tmp_path, lineno, line, message):
    path = saved_five(tmp_path)
    replace_line(path, lineno, line)
    with rejects(path, lineno, message):
        load_index(tmp_path)


def resign(path):
    """Put the sha256 of the lines above in place of the last line, as `save_index` writes it."""
    body = "".join(line + "\n" for line in path.read_text().splitlines()[:-1])
    path.write_text(body + "sha256\t" + hashlib.sha256(body.encode("utf-8")).hexdigest() + "\n")


@pytest.mark.parametrize("edits,at,message", [
    ({13: ["space\tN\t3", term_line("k:alpha", [2], [1])]}, 14, "N's part holds triples only, got 'k:alpha'"),
    ({21: ["space\tG\t2", term_line("k:alpha", [0], [1]), term_line("t:z/*/*", [0], [1])]}, 23,
     "G's part holds keywords only, got 't:z/*/*'"),
    ({16: ["space\tC\t2"], 17: [term_line("t:*/City/*", [2], [1]), term_line("t:x/*/*", [0], [1])]}, 18,
     "term 't:x/*/*' lies in two of N, C, NC and I"),
], ids=["keyword-in-N", "triple-in-G", "triple-in-N-and-C"])
def test_load_refuses_parts_that_break_the_kind_rule_though_the_sha256_matches(tmp_path, edits, at, message):
    # each would merge into a G that no build makes, and a re-save of it would not load
    path = saved_five(tmp_path)
    for lineno in sorted(edits, reverse=True):
        replace_line(path, lineno, *edits[lineno])
    resign(path)
    with rejects(path, at, message):
        load_index(tmp_path)


def test_load_rejects_rows_whose_field_counts_only_add_up(tmp_path):
    # one field too many on k:alpha's line and one too few on k:beta's would shift every cell after them
    path = saved_five(tmp_path)
    replace_line(path, 9, term_line("k:alpha", [0, 1, 3], [3, 1, 2]) + "\t" + F([1]))
    replace_line(path, 10, f"k:beta\t{F([0, 2])}")
    with rejects(path, 9, "expected term<TAB>gaps<TAB>tfs"):
        load_index(tmp_path)


def test_load_rejects_a_fingerprint_key_listed_twice(tmp_path):
    path = saved_five(tmp_path)
    replace_line(path, 2, "kb_sha256\tab12", "kb_sha256\tcd34", "docs\t5")
    for read in (load_index, read_fingerprint):
        with rejects(path, 3, "fingerprint key 'kb_sha256' is listed twice"):
            read(tmp_path)


def test_load_rejects_a_header_without_a_docs_line(tmp_path):
    path = tmp_path / "index.tsv"
    path.write_text("ontosearch-index\t4\nkb_sha256\tab12\n", encoding="utf-8")
    for read in (load_index, read_fingerprint):
        with pytest.raises(ValueError, match=re.escape(f"{path}: no docs line")):
            read(tmp_path)


def test_load_rejects_a_docs_line_that_states_more_rows_than_the_file_holds(tmp_path):
    path = saved_five(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:4]) + "\n")  # the docs line and two of its five rows
    with rejects(path, 2, "the docs line states 5 documents, but the file ends after 2"):
        load_index(tmp_path)


def test_load_rejects_a_space_listed_twice(tmp_path):
    path = saved_five(tmp_path)
    replace_line(path, 19, "space\tN\t1")
    with rejects(path, 19, "space 'N' is listed twice"):
        load_index(tmp_path)


def test_load_rejects_a_missing_space_and_a_cut_file(tmp_path):
    path = saved_five(tmp_path)
    text = path.read_text()
    path.write_text(text[:text.index("space\tG")])
    with pytest.raises(ValueError, match=re.escape(f"{path}: no section for spaces ['G']")):
        load_index(tmp_path)
    path.write_text(text[:-1])
    with rejects(path, 22, "the file ends inside a line"):
        load_index(tmp_path)


@pytest.mark.parametrize("postings", ["a:1,a:1", "b:1,a:1"])
def test_load_rejects_postings_that_repeat_a_document_or_leave_roster_order(tmp_path, postings):
    # as gaps, a repeat is a step of 0 and a step back a negative gap, which a writer
    # subtracting in 64 bits would store as 2**64 - 1, a varint of 10 bytes
    path = two_doc_index(tmp_path)
    positions = [{"a": 0, "b": 1}[p.split(":")[0]] for p in postings.split(",")]
    gaps = [(p - q) % 2**64 for p, q in zip(positions, [0] + positions)]
    replace_line(path, 6, term_line("k:shared", gaps, [1, 1]))
    message = {
        "a:1,a:1": "postings repeat a document or leave roster order",
        "b:1,a:1": f"gaps holds a varint of more than 9 bytes, got {F([1, 2**64 - 1])!r}",
    }[postings]
    with rejects(path, 6, message):
        load_index(tmp_path)


# what the loader says of each of `oracles.posting_field`'s malformed fields
FIELD_PROBLEMS = {
    "truncated": "ends inside a varint",
    "over-9-bytes": "holds a varint of more than 9 bytes",
    "non-minimal": "holds a non-minimal varint",
    "not-base64": "must be padded base64",
    "inner-padding": "must be padded base64",
    "padding-bits": "must be padded base64",
    "empty": "must not be empty",
}


@pytest.mark.parametrize("field", ["gaps", "tfs"])
@pytest.mark.parametrize("value", ["+1", " 1", "-1", "1.5", "1,,2", "1,", "99999999999999999999",
                                   "１", *(pytest.param(kind, id=kind) for kind in oracles.MALFORMED_FIELDS)])
def test_load_takes_only_plain_ascii_integers_in_gaps_and_tfs(tmp_path, field, value):
    # each field strict base64 of complete, minimal varints of at most 9 bytes (a2b_base64
    # before Python 3.11 skips what is not base64): format 3's decimal spellings, which
    # np.fromstring alone would have read as some number, and each malformed field
    path = saved_five(tmp_path)
    fields = {"gaps": [1, 1], "tfs": [4, 1]}
    text = {name: F(values, value if name == field and value in FIELD_PROBLEMS else None)
            for name, values in fields.items()}
    if value not in FIELD_PROBLEMS:
        text[field] = value
    replace_line(path, 12, f"k:gamma\t{text['gaps']}\t{text['tfs']}")
    if value == "99999999999999999999":  # the base64 of five well-formed 3-byte varints
        message = "df 5 (gaps) does not match 2 tfs" if field == "gaps" else "df 2 (gaps) does not match 5 tfs"
    else:
        message = f"{field} {FIELD_PROBLEMS.get(value, 'must be padded base64')}, got {text[field]!r}"
    with rejects(path, 12, message):
        load_index(tmp_path)


# the values where a varint gains a byte, and the largest one of 9 bytes
VARINT_EDGES = [0, 1, 127, 128, 2**14 - 1, 2**14, 2**21 - 1, 2**21, 2**56 - 1, 2**56, 2**63 - 1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(st.sampled_from(VARINT_EDGES), st.integers(0, 2**63 - 1)),
                         min_size=1, max_size=8), max_size=6))
def test_posting_fields_round_trip_every_int64_value(lists):
    values = np.array([value for values in lists for value in values], dtype=np.int64)
    offsets = np.cumsum([0, *map(len, lists)]).tolist()
    fields = _varint_fields(values, offsets)
    assert fields == [F(values) for values in lists]
    decoded, counts = _varints(fields, "gaps", Path("index.tsv"), np.arange(1, len(fields) + 1))
    assert decoded.dtype == np.int64 and decoded.tolist() == values.tolist()
    assert counts.tolist() == list(map(len, lists))


def test_load_refuses_a_format_1_directory_and_save_replaces_it(tmp_path):
    """A format-1 directory holds no index.tsv, so it is refused as any such
    directory is; saving writes index.tsv beside the files already there."""
    old = ["manifest.tsv", "fingerprint.tsv"] + [f"{space.value}.tsv" for space in Space]
    for name in old:
        (tmp_path / name).write_text("format 1\n")
    for read in (load_index, read_fingerprint):
        with pytest.raises(FileNotFoundError, match=re.escape(f"missing index file: {tmp_path / 'index.tsv'}")):
            read(tmp_path)
    built = build_index(FIVE_DOCS)
    save_index(built, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*old, "index.tsv"])
    assert load_index(tmp_path) == built


def test_save_rejects_a_fingerprint_it_cannot_store(tmp_path):
    for fingerprint in ({"docs": "1"}, {"kb": "a\tb"}, {"k\nb": "a"}):
        with pytest.raises(ValueError, match="cannot be stored"):
            save_index(build_index(FIVE_DOCS), tmp_path, fingerprint)
    assert not (tmp_path / "index.tsv").exists()


def test_save_rejects_reserved_characters_in_doc_id(tmp_path):
    bundle = build_index([rep("bad\tdoc", KW={K("a"): 1})])
    with pytest.raises(ValueError, match="reserved"):
        save_index(bundle, tmp_path)


@pytest.mark.parametrize("separator", ["\t", "\n"], ids=["tab", "newline"])
@pytest.mark.parametrize("space", ["KW", "G"])
def test_save_refuses_a_term_the_index_file_cannot_hold(tmp_path, space, separator):
    term = K(f"a{separator}b")
    bundle = build_index([rep("d1", **{space: {term: 1}}), rep("d2", KW={K("c"): 1})])
    message = f"{space} term {term!r} contains a reserved separator character"
    with pytest.raises(ValueError, match=re.escape(message)):
        save_index(bundle, tmp_path / "idx")
    assert not (tmp_path / "idx" / "index.tsv").exists()


def test_failed_write_keeps_old_file_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "KW.tsv"
    write_text(target, "old\n")
    with pytest.raises(UnicodeEncodeError):
        write_text(target, "new \udcff\n")  # a lone surrogate cannot be encoded
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["KW.tsv"]


def test_a_write_is_fsynced_before_its_rename_and_its_directory_after(tmp_path, monkeypatch):
    # a power loss cannot be simulated in a test; what makes the write durable is the order
    # of the calls: the whole temp file fsynced, then renamed, then its directory fsynced
    content = "line \u00e9\n" * 1000
    calls = []
    fsync, replace = os.fsync, os.replace

    def traced_fsync(fd):
        st = os.fstat(fd)
        calls.append(("fsync", "directory" if stat.S_ISDIR(st.st_mode) else st.st_size))
        fsync(fd)

    def traced_replace(src, dst):
        calls.append(("replace", Path(dst).name))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", traced_fsync)
    monkeypatch.setattr(os, "replace", traced_replace)
    target = tmp_path / "run.txt"
    write_text(target, content)
    assert calls == [("fsync", len(content.encode("utf-8"))), ("replace", "run.txt"), ("fsync", "directory")]
    assert target.read_text(encoding="utf-8") == content


def test_concurrent_writers_do_not_collide(tmp_path):
    target = tmp_path / "run.txt"
    contents = [f"writer {i}\n" * 200 for i in range(6)]
    errors = []

    def write_many(content):
        try:
            for _ in range(40):
                write_text(target, content)
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=write_many, args=(c,)) for c in contents]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert target.read_text(encoding="utf-8") in contents
    assert [p.name for p in tmp_path.iterdir()] == ["run.txt"]


def test_empty_index_round_trips(tmp_path):
    built = build_index([])
    save_index(built, tmp_path)
    loaded = load_index(tmp_path)
    assert loaded == IndexBundle(
        spaces={s: loaded.spaces[s] for s in Space}, doc_ids=()
    )
    assert all(loaded.spaces[s].n_docs == 0 for s in Space)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.text(alphabet="abcdef", min_size=1, max_size=6),  # doc ids
        st.dictionaries(
            st.text(alphabet="xyz", min_size=1, max_size=4).map(Keyword),
            st.integers(min_value=1, max_value=9),
            max_size=6,
        ),
        max_size=8,
    )
)
def test_random_corpora_round_trip_and_conserve(tmp_path_factory, corpus):
    reps = [rep(doc_id, KW=bag) for doc_id, bag in corpus.items()]
    built = build_index(reps)
    assert built.doc_ids == tuple(sorted(corpus))
    kw = built.spaces[Space.KW]
    for term in kw.rows:
        plist = postings(kw, term)
        assert kw.df[term] == len(plist)
        assert all(tf >= 1 for _, tf in plist)
        assert [doc_id for doc_id, _ in plist] == sorted(doc_id for doc_id, _ in plist)
    directory = tmp_path_factory.mktemp("idx")
    save_index(built, directory)
    assert load_index(directory) == built


# terms whose serialized forms escape `%`, `/` and `*`, or leave non-ASCII as is
ODD_TERMS = [
    Keyword("x"), Keyword("straße"), Keyword("日本"), Keyword("a%2fb"), Keyword("*"),
    Triple(name="a/b"), Triple(name="x%y", class_id="C"), Triple(class_id="*"),
    Triple(name="İstanbul", class_id="City", entity_id="City/1"), Triple(entity_id="%2A"),
    Triple(name="Straße Nord"), Triple(class_id="Ort", entity_id="ß"),
]


@st.composite
def shuffled_reps(draw):
    """Counted documents in any order: some parts absent or empty, KW and G's
    part drawn from the keywords, and each triple kept to one entity space."""
    doc_ids = draw(st.lists(st.text(alphabet="ab1é_", min_size=1, max_size=4),
                            unique=True, max_size=7))
    triples = [term for term in ODD_TERMS if term.startswith("t:")]
    homes = draw(st.lists(st.sampled_from(ENTITY_SPACES), min_size=len(triples), max_size=len(triples)))
    pools = {space: [t for t, home in zip(triples, homes) if home is space] for space in ENTITY_SPACES}
    pools[Space.KW] = pools[Space.G] = [term for term in ODD_TERMS if term.startswith("k:")]
    reps = []
    for doc_id in draw(st.permutations(doc_ids)):
        bags = {space.value: draw(st.dictionaries(st.sampled_from(pools[space]),
                                                  st.integers(min_value=1, max_value=5), max_size=5))
                if pools[space] else {}
                for space in draw(st.sets(st.sampled_from(list(Space))))}
        reps.append(counted_document(doc_id, bags))
    return reps


def build_both_and_compare(reps, tmp_path_factory):
    built, reference = build_index(reps), oracles.build_index_dicts(reps)
    assert built.doc_ids == reference.doc_ids
    for space in Space:
        assert_same_space(built.spaces[space], reference.spaces[space])
    directories = tmp_path_factory.mktemp("lexsort"), tmp_path_factory.mktemp("dicts")
    save_index(built, directories[0])
    save_index(reference, directories[1])
    for name in sorted(p.name for p in directories[1].iterdir()):
        assert (directories[0] / name).read_bytes() == (directories[1] / name).read_bytes(), name


@settings(max_examples=80, deadline=None)
@given(shuffled_reps())
def test_build_equals_the_dict_of_lists_build(tmp_path_factory, reps):
    build_both_and_compare(reps, tmp_path_factory)


def test_build_equals_the_dict_of_lists_build_on_a_pinned_corpus(tmp_path_factory):
    # out of roster order, an empty bag, and one term in two spaces
    shared = Triple(name="a/b")
    reps = [
        rep("z", N={shared: 2}, G={Keyword("日本"): 1}),
        rep("b"),
        rep("a", KW={Keyword("straße"): 3}, C={Triple(class_id="*"): 1}, G={Keyword("straße"): 1}),
        rep("é", I={Triple(name="x%y", class_id="C", entity_id="%2A"): 4}, N={shared: 1}),
    ]
    build_both_and_compare(reps, tmp_path_factory)
    built = build_index(reps)
    assert [space for space in Space if shared in built.spaces[space].rows] == [Space.N, Space.G]


@pytest.fixture(scope="module")
def figure_keys(figure_kb):
    """The figure KB's annotation keys: each surface's as the recognizer annotates
    it, plus a class-only and a name-only key, their terms in `figure_kb.expansions`."""
    annotations = [ann for surface in sorted(figure_kb.name_index)
                   for ann in annotate(surface, figure_kb).entities]
    annotations += [EntityAnnotation((0, 3), "man", class_id="Man"),
                    EntityAnnotation((0, 4), "Zork", name="Zork")]
    keys: dict = {}
    for ann in annotations:
        keys |= expand_document(AnnotatedText([], [], [ann]), figure_kb).keys
    return sorted(keys, key=repr)


STEMS = ["x", "presid", "straße", "日本", "a%2fb", "*"]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_counted_documents_build_what_the_dict_of_lists_build_does(tmp_path_factory, figure_kb,
                                                                   figure_keys, data):
    # any stems, G's own part a sub-multiset of them, and any keys of the KB,
    # which may share terms within a document
    docs = []
    for doc_id in data.draw(st.permutations(data.draw(
            st.lists(st.text(alphabet="ab1é_", min_size=1, max_size=4), unique=True, max_size=7)))):
        stems = data.draw(st.dictionaries(st.sampled_from(STEMS), st.integers(1, 5), max_size=5))
        own = {stem: data.draw(st.integers(1, stems[stem]))
               for stem in data.draw(st.lists(st.sampled_from(sorted(stems)), unique=True)
                                     if stems else st.just([]))}
        keys = data.draw(st.dictionaries(st.sampled_from(figure_keys), st.integers(1, 4), max_size=5))
        docs.append(DocumentCounts(doc_id, stems, own, keys, figure_kb.expansions))
    build_both_and_compare(docs, tmp_path_factory)
