from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from countquant.kbstore import (
    INSTANCE_OF,
    NO_VALUE,
    Relation,
    TripleFormatError,
    TripleLoadError,
    count_percentile,
    functionality_degree,
    load_triples,
    passes_relation_filter,
    popularity_percentile_cutoff,
    property_subject_count,
)

REL = Relation(subject_class="human", property="child")


def build_store(write_kb, *triples):
    return load_triples(write_kb(*triples))


class TestLoadTriples:
    def test_three_line_fixture(self, write_kb):
        store = build_store(
            write_kb,
            ("garfield", "child", "c1"),
            ("garfield", "child", "c2"),
            ("garfield", "spouse", "s1"),
        )
        assert len(store.triples) == 3
        assert store.n_malformed == 0

    def test_no_value_token(self, write_kb):
        store = build_store(write_kb, ("ann", "child", "__no_value__"))
        assert store.triples == frozenset({("ann", "child", "__no_value__")})
        assert store.has_explicit_zero("ann", "child")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        store = load_triples(path)
        assert store.triples == frozenset()

    def test_missing_file(self, tmp_path):
        with pytest.raises(TripleLoadError):
            load_triples(tmp_path / "nope.tsv")

    def test_malformed_fraction_raises(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tchild\tb\nbroken line\nalso broken\n", encoding="utf-8")
        with pytest.raises(TripleFormatError):
            load_triples(path)

    def test_few_malformed_lines_tolerated(self, tmp_path):
        lines = [f"s{i}\tchild\to{i}" for i in range(20)] + ["oops"]
        path = tmp_path / "ok.tsv"
        path.write_text("\n".join(lines), encoding="utf-8")
        store = load_triples(path)
        assert store.n_malformed == 1
        assert len(store.triples) == 20

    def test_duplicates_collapse(self, write_kb):
        store = build_store(
            write_kb, ("a", "child", "x"), ("a", "child", "x")
        )
        assert len(store.triples) == 1
        assert store.popularity["a"] == 1


class TestClassMembers:
    def test_no_value_class_gives_no_membership(self, write_kb):
        store = build_store(write_kb, ("amy", "__instance_of__", "__no_value__"))
        assert store.class_members("__no_value__") == []
        assert store.has_explicit_zero("amy", "__instance_of__")

    def test_returned_list_is_a_copy(self, write_kb):
        store = build_store(write_kb, ("amy", "__instance_of__", "human"))
        store.class_members("human").append("intruder")
        assert store.class_members("human") == ["amy"]


class TestTripleCount:
    def test_garfield_known_children(self, write_kb):
        store = build_store(
            write_kb, *[("garfield", "child", f"c{i}") for i in range(4)]
        )
        assert store.triple_count("garfield", "child") == 4

    def test_unknown_subject(self, write_kb):
        store = build_store(write_kb, ("a", "child", "x"))
        assert store.triple_count("nobody", "child") == 0
        assert not store.has_explicit_zero("nobody", "child")

    def test_no_value_gives_known_zero(self, write_kb):
        store = build_store(write_kb, ("ann", "child", "__no_value__"))
        assert store.triple_count("ann", "child") == 0
        assert store.has_explicit_zero("ann", "child")

    def test_zero_flag_and_positive_count_exclusive(self, write_kb):
        store = build_store(
            write_kb,
            ("bob", "child", "__no_value__"),
            ("bob", "child", "c1"),
        )
        assert store.triple_count("bob", "child") == 1
        assert not store.has_explicit_zero("bob", "child")


def _class_with_counts(write_kb, counts: dict[str, int]):
    triples = []
    for subject, count in counts.items():
        triples.append((subject, "__instance_of__", "human"))
        triples.extend((subject, "child", f"{subject}_c{i}") for i in range(count))
    return build_store(write_kb, *triples)


class TestCountPercentile:
    def test_spouse_like_99th(self, write_kb):
        counts = {f"s{i:03d}": 1 for i in range(60)}
        counts.update({f"m{i:02d}": 2 for i in range(30)})
        counts.update({f"t{i}": 3 for i in range(9)})
        counts["big"] = 5
        store = _class_with_counts(write_kb, counts)
        rel = Relation(subject_class="human", property="child")
        assert count_percentile(store, rel, 0.99) == 3

    def test_all_equal(self, write_kb):
        store = _class_with_counts(write_kb, {f"s{i}": 4 for i in range(7)})
        for q in (0.0, 0.3, 0.5, 0.99, 1.0):
            assert count_percentile(store, REL, q) == 4

    def test_nearest_rank_median(self, write_kb):
        store = _class_with_counts(write_kb, {"a": 1, "b": 1, "c": 2, "d": 5})
        assert count_percentile(store, REL, 0.5) == 1

    def test_no_subjects_raises(self, write_kb):
        store = build_store(write_kb, ("x", "__instance_of__", "human"))
        with pytest.raises(ValueError):
            count_percentile(store, REL, 0.99)

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=12),
        q1=st.floats(min_value=0.0, max_value=1.0),
        q2=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_q(self, tmp_path_factory, counts, q1, q2):
        tmp = tmp_path_factory.mktemp("kb")
        triples = []
        for i, c in enumerate(counts):
            triples.append(f"s{i}\t__instance_of__\thuman")
            triples.extend(f"s{i}\tchild\ts{i}o{j}" for j in range(c))
        path = tmp / "kb.tsv"
        path.write_text("\n".join(triples), encoding="utf-8")
        store = load_triples(path)
        lo, hi = sorted((q1, q2))
        assert count_percentile(store, REL, lo) <= count_percentile(store, REL, hi)


class TestFunctionalityDegree:
    def test_functional_property(self, write_kb):
        store = build_store(write_kb, *[(f"s{i}", "born", f"y{i}") for i in range(10)])
        assert functionality_degree(store, "born") == 1.0

    def test_multivalued(self, write_kb):
        triples = [(f"s{i}", "child", f"o{i}_{j}") for i in range(5) for j in range(4)]
        store = build_store(write_kb, *triples)
        assert functionality_degree(store, "child") == 0.25

    def test_no_triples_raises(self, write_kb):
        store = build_store(write_kb, ("a", "child", "x"))
        with pytest.raises(ValueError):
            functionality_degree(store, "spouse")

    def test_known_zero_rows_count(self, write_kb):
        store = build_store(
            write_kb,
            ("a", "child", "x"),
            ("a", "child", "__no_value__"),
            ("b", "child", "__no_value__"),
        )
        assert not store.has_explicit_zero("a", "child")
        assert functionality_degree(store, "child") == 2 / 3
        assert property_subject_count(store, "child") == 2

    def test_in_unit_interval(self, write_kb):
        triples = [("a", "p", "x"), ("a", "p", "y"), ("b", "p", "z")]
        store = build_store(write_kb, *triples)
        assert 0.0 < functionality_degree(store, "p") <= 1.0

    def test_relation_filter(self, write_kb):
        triples = [(f"s{i}", "child", f"o{i}_{j}") for i in range(5) for j in range(4)]
        store = build_store(write_kb, *triples)
        assert property_subject_count(store, "child") == 5
        # multi-valued enough, but used by too few subjects at the default 500
        assert not passes_relation_filter(store, "child")
        assert passes_relation_filter(store, "child", min_subjects=3)
        # functional properties fail the degree test no matter the frequency
        single = build_store(write_kb, *[(f"s{i}", "born", f"y{i}") for i in range(10)])
        assert not passes_relation_filter(single, "born", min_subjects=1)


class TestPopularityCutoff:
    def _store(self, write_kb):
        triples = []
        for i in range(10):
            subject = f"s{i}"
            triples.append((subject, "__instance_of__", "human"))
            triples.append((subject, "child", f"{subject}_c"))
            # popularity grows with i via filler facts
            triples.extend((subject, "born", f"f{i}_{j}") for j in range(i))
        return build_store(write_kb, *triples)

    def test_full_fraction_keeps_all(self, write_kb):
        store = self._store(write_kb)
        assert popularity_percentile_cutoff(store, REL, 1.0) == {f"s{i}" for i in range(10)}

    def test_top_decile_is_single_most_popular(self, write_kb):
        store = self._store(write_kb)
        assert popularity_percentile_cutoff(store, REL, 0.1) == {"s9"}

    def test_invalid_fraction(self, write_kb):
        store = self._store(write_kb)
        with pytest.raises(ValueError):
            popularity_percentile_cutoff(store, REL, 0.0)


# The store as it was built before its indexes: a Triple object per row, a
# second pass over the rows, and a scan of every row per property query.
# Every reader of today's store must agree with it.


@dataclass(frozen=True)
class _RefTriple:
    subject: str
    predicate: str
    object: str | None
    no_value: bool = False


@dataclass(frozen=True)
class _RefStore:
    triples: frozenset
    class_membership: dict
    popularity: dict
    n_malformed: int
    counts: dict
    known_zero: frozenset

    def class_members(self, class_id):
        return sorted(e for e, classes in self.class_membership.items() if class_id in classes)

    def relation_subjects(self, rel):
        return [s for s in self.class_members(rel.subject_class)
                if self.counts.get((s, rel.property), 0) >= 1]


def _ref_load_triples(text):
    triples, membership, popularity = set(), {}, {}
    n_lines = n_malformed = 0
    for line in text.split("\n"):
        if not line.strip() or line.startswith("#"):
            continue
        n_lines += 1
        parts = line.split("\t")
        if len(parts) != 3 or not all(p.strip() for p in parts):
            n_malformed += 1
            continue
        subject, predicate, obj = (p.strip() for p in parts)
        no_value = obj == NO_VALUE
        triple = _RefTriple(subject, predicate, None if no_value else obj, no_value)
        if triple in triples:
            continue
        triples.add(triple)
        popularity[subject] = popularity.get(subject, 0) + 1
        if predicate == INSTANCE_OF and obj != NO_VALUE:
            membership.setdefault(subject, set()).add(obj)
    if n_lines > 0 and n_malformed / n_lines > 0.10:
        raise TripleFormatError("ref", "too many malformed lines")
    counts, zero = {}, set()
    for t in triples:
        key = (t.subject, t.predicate)
        if t.no_value:
            zero.add(key)
        else:
            counts[key] = counts.get(key, 0) + 1
    zero -= set(counts)
    return _RefStore(frozenset(triples), {s: frozenset(c) for s, c in membership.items()},
                     popularity, n_malformed, counts, frozenset(zero))


def _ref_functionality_degree(store, prop):
    triples = [t for t in store.triples if t.predicate == prop]
    if not triples:
        raise ValueError(f"property {prop!r} has no triples")
    return len({t.subject for t in triples}) / len(triples)


def _ref_property_subject_count(store, prop):
    return len({t.subject for t in store.triples if t.predicate == prop})


SUBJECTS = ["amy", "bob", "Q9"]
PROPERTIES = ["child", "spouse", INSTANCE_OF]
OBJECTS = ["x", "y", "human", "org", NO_VALUE]


def _padded(pool):
    pad = st.sampled_from(["", " ", "  "])
    return st.builds(lambda left, value, right: left + value + right,
                     pad, st.sampled_from(pool), pad)


@st.composite
def triple_files(draw):
    """A triple file: rows with duplicates, padding and known zeros, plus
    blank, comment and (under 10%) malformed lines, in any order."""
    rows = draw(st.lists(
        st.builds("\t".join, st.tuples(_padded(SUBJECTS), _padded(PROPERTIES), _padded(OBJECTS))),
        max_size=40,
    ))
    filler = draw(st.lists(st.sampled_from(["", "   ", "# note", "#\tx\ty\tz"]), max_size=4))
    malformed = draw(st.lists(
        st.sampled_from(["amy\tchild", "amy\t \tx", "amy\tchild\tx\ty", "no tabs"]),
        max_size=len(rows) // 9,
    ))
    return "\n".join(draw(st.permutations(rows + filler + malformed))) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=triple_files())
def test_indexes_agree_with_reference_store(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("kb") / "kb.tsv"
    path.write_text(text, encoding="utf-8")
    store, ref = load_triples(path), _ref_load_triples(text)

    assert store.n_malformed == ref.n_malformed
    assert len(store.triples) == len(ref.triples)
    assert store.popularity == ref.popularity
    for subject in SUBJECTS + ["nobody"]:
        for prop in PROPERTIES + ["born"]:
            assert store.triple_count(subject, prop) == ref.counts.get((subject, prop), 0)
            assert store.has_explicit_zero(subject, prop) == ((subject, prop) in ref.known_zero)
    for class_id in OBJECTS + ["planet"]:
        assert store.class_members(class_id) == ref.class_members(class_id)
        for prop in PROPERTIES + ["born"]:
            rel = Relation(class_id, prop)
            assert store.relation_subjects(rel) == ref.relation_subjects(rel)
    for prop in PROPERTIES + ["born"]:
        assert property_subject_count(store, prop) == _ref_property_subject_count(ref, prop)
        if _ref_property_subject_count(ref, prop):
            assert functionality_degree(store, prop) == _ref_functionality_degree(ref, prop)
        else:
            with pytest.raises(ValueError):
                functionality_degree(store, prop)
