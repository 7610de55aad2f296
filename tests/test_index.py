"""Inverted-index construction, tf-idf weighting, and persistence."""

import math
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosearch.expand import DocRepresentation, Keyword, Space, Triple
from ontosearch.index import (
    IndexBundle,
    _atomic_write,
    build_index,
    load_index,
    save_index,
    tfidf_weight,
)


def rep(doc_id, **bags):
    """Document representation with the named spaces filled and the rest empty."""
    space_bags = {space: Counter() for space in Space}
    for name, counts in bags.items():
        space_bags[Space[name]] = Counter(counts)
    return DocRepresentation(doc_id=doc_id, space_bags=space_bags)


K = Keyword


def postings(sx, term):
    """(doc_id, tf) pairs of a term's postings, read off the CSR arrays."""
    t = sx.term_ids[term]
    lo, hi = sx.offsets[t], sx.offsets[t + 1]
    return tuple(
        (sx.doc_ids[i], tf) for i, tf in zip(sx.doc_idx[lo:hi].tolist(), sx.tf[lo:hi].tolist())
    )


def norm(sx, doc_id):
    return sx.norms[sx.doc_positions[doc_id]].item()


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
            assert list(bundle.spaces[space].term_ids) == list(reference.spaces[space].term_ids)


def test_postings_tf_sums_are_conserved():
    bundle = build_index(FIVE_DOCS)
    for space in Space:
        total_in_bags = sum(sum(d.space_bags[space].values()) for d in FIVE_DOCS)
        total_in_postings = sum(bundle.spaces[space].tf.tolist())
        assert total_in_postings == total_in_bags


def test_duplicate_doc_id_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_index([rep("same", KW={K("a"): 1}), rep("same", KW={K("b"): 1})])


# --- persistence ---------------------------------------------------------------

def test_save_creates_manifest_plus_one_file_per_space(tmp_path):
    save_index(build_index(FIVE_DOCS), tmp_path)
    assert (tmp_path / "manifest.tsv").is_file()
    for space in Space:
        assert (tmp_path / f"{space.value}.tsv").is_file()
    assert len(list(tmp_path.iterdir())) == len(Space) + 1


def test_round_trip_restores_everything_exactly(tmp_path):
    built = build_index(FIVE_DOCS)
    save_index(built, tmp_path)
    loaded = load_index(tmp_path)
    assert loaded == built
    for space in Space:
        assert loaded.spaces[space].norms.tolist() == built.spaces[space].norms.tolist()  # exact floats


def test_rewrite_is_byte_identical(tmp_path):
    built = build_index(FIVE_DOCS)
    first, second = tmp_path / "first", tmp_path / "second"
    save_index(built, first)
    save_index(load_index(first), second)
    for path in sorted(first.iterdir()):
        assert (second / path.name).read_bytes() == path.read_bytes()


def test_load_rejects_tampered_norm(tmp_path):
    save_index(build_index(FIVE_DOCS), tmp_path)
    kw_file = tmp_path / f"{Space.KW.value}.tsv"
    lines = kw_file.read_text().splitlines()
    for i, line in enumerate(lines):
        fields = line.split("\t")
        if len(fields) == 2 and float(fields[1]) > 0:
            lines[i] = f"{fields[0]}\t{float(fields[1]) * 2:.12g}"
            break
    kw_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="norm"):
        load_index(tmp_path)


def test_load_rejects_df_posting_mismatch(tmp_path):
    save_index(build_index(FIVE_DOCS), tmp_path)
    kw_file = tmp_path / f"{Space.KW.value}.tsv"
    lines = kw_file.read_text().splitlines()
    fields = lines[0].split("\t")
    fields[1] = str(int(fields[1]) + 1)
    lines[0] = "\t".join(fields)
    kw_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="df"):
        load_index(tmp_path)


def edit_norm_line(path, doc_id, edit):
    """Replace the stored norm of doc_id in a space file with edit(old norm)."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        fields = line.split("\t")
        if len(fields) == 2 and fields[0] == doc_id:
            lines[i] = f"{doc_id}\t{edit(float(fields[1]))}"
    path.write_text("\n".join(lines) + "\n")


def test_load_rejects_posting_for_doc_without_norm_line(tmp_path):
    # the shared term weighs 0, so moving its posting changes no stored norm
    save_index(build_index([
        rep("a", KW={K("shared"): 1, K("x"): 1}),
        rep("b", KW={K("shared"): 1, K("y"): 2}),
    ]), tmp_path)
    kw_file = tmp_path / f"{Space.KW.value}.tsv"
    text = kw_file.read_text()
    assert "k:shared\t2\ta:1,b:1\n" in text
    kw_file.write_text(text.replace("k:shared\t2\ta:1,b:1\n", "k:shared\t2\tzz:1,b:1\n"))
    with pytest.raises(ValueError, match="KW.tsv: no stored norm for doc 'zz'"):
        load_index(tmp_path)


def test_load_rejects_rosters_that_differ_between_spaces(tmp_path):
    save_index(build_index(FIVE_DOCS), tmp_path)
    n_file = tmp_path / f"{Space.N.value}.tsv"
    n_file.write_text(n_file.read_text() + "zz\t0\n")  # a zero norm verifies
    with pytest.raises(ValueError, match="N.tsv: document roster differs between spaces"):
        load_index(tmp_path)


def test_load_rejects_manifest_term_count_mismatch(tmp_path):
    save_index(build_index(FIVE_DOCS), tmp_path)
    manifest = tmp_path / "manifest.tsv"
    lines = manifest.read_text().splitlines()
    for i, line in enumerate(lines):
        fields = line.split("\t")
        if fields[0] == Space.KW.value:
            assert fields[3] == "4"
            lines[i] = "\t".join(fields[:3] + ["5"])
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="KW.tsv: manifest says 5 terms, file has 4"):
        load_index(tmp_path)


@pytest.mark.parametrize("space,doc_id,edit,accepted", [
    (Space.KW, "d1", lambda x: repr(x * (1 + 1e-12)), True),
    (Space.KW, "d1", lambda x: repr(x * (1 + 1e-6)), False),
    (Space.N, "d2", lambda x: repr(x + 5e-10), True),  # zero norm: absolute tolerance
    (Space.N, "d2", lambda x: repr(x + 2e-9), False),
    (Space.KW, "d1", lambda x: "inf", False),
    (Space.KW, "d1", lambda x: "nan", False),
])
def test_load_verifies_norms_to_within_1e_9(tmp_path, space, doc_id, edit, accepted):
    built = build_index(FIVE_DOCS)
    save_index(built, tmp_path)
    edit_norm_line(tmp_path / f"{space.value}.tsv", doc_id, edit)
    if accepted:
        assert load_index(tmp_path) == built  # norms are recomputed, not read
    else:
        with pytest.raises(ValueError, match=f"{space.value}.tsv: stored norm .* for doc '{doc_id}' "
                                             "disagrees with postings"):
            load_index(tmp_path)


def test_load_rejects_terms_out_of_serialized_order(tmp_path):
    # term ids follow file order, which must be the canonical accumulation order
    save_index(build_index(FIVE_DOCS), tmp_path)
    kw_file = tmp_path / f"{Space.KW.value}.tsv"
    lines = kw_file.read_text().splitlines()
    lines[0], lines[1] = lines[1], lines[0]
    kw_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="KW.tsv: terms are not in strictly ascending serialized order"):
        load_index(tmp_path)


def test_save_rejects_reserved_characters_in_doc_id(tmp_path):
    bundle = build_index([rep("bad:doc", KW={K("a"): 1})])
    with pytest.raises(ValueError, match="reserved"):
        save_index(bundle, tmp_path)


def test_failed_write_keeps_old_file_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "KW.tsv"
    _atomic_write(target, "old\n")
    with pytest.raises(UnicodeEncodeError):
        _atomic_write(target, "new \udcff\n")  # a lone surrogate cannot be encoded
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["KW.tsv"]


def test_concurrent_writers_do_not_collide(tmp_path):
    target = tmp_path / "run.txt"
    contents = [f"writer {i}\n" * 200 for i in range(6)]
    errors = []

    def write_many(content):
        try:
            for _ in range(40):
                _atomic_write(target, content)
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
    for term in kw.term_ids:
        plist = postings(kw, term)
        assert kw.df[term] == len(plist)
        assert all(tf >= 1 for _, tf in plist)
        assert [doc_id for doc_id, _ in plist] == sorted(doc_id for doc_id, _ in plist)
    directory = tmp_path_factory.mktemp("idx")
    save_index(built, directory)
    assert load_index(directory) == built
