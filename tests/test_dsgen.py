from __future__ import annotations

import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from countquant.dsgen import (
    COMP,
    COUNT,
    Corpus,
    Excluded,
    GenerationStats,
    LabeledSentence,
    OTHER,
    SeedPolicy,
    _uninformative_values,
    generate_training_set,
    label_sentence,
    number_entropy,
    read_conll,
    select_subjects,
    write_conll,
)
from countquant.kbstore import Relation, load_triples
from countquant.numlex import (
    MentionAnnotation,
    MentionKind,
    Token,
    load_default_lexicon,
    make_sentence,
    preprocess_sentence,
    tokenize,
)

LEXICON = load_default_lexicon()
REL = Relation(subject_class="human", property="child")


def tags_for(sentence, outcome):
    assert isinstance(outcome, LabeledSentence)
    return list(zip([t.surface for t in outcome.sentence], outcome.tags))


class TestLabelSentence:
    def test_compositional_sum(self, prep):
        s = prep("She has three biological and three adopted children .")
        out = label_sentence(s, 6, 9)
        tagged = [(t.surface, tag) for t, tag in zip(out.sentence, out.tags) if tag != OTHER]
        assert tagged == [("three", COUNT), ("and", COMP), ("three", COUNT)]

    def test_exact_match_wins_over_run(self, prep):
        # "six" equals the count and is excluded from run building
        s = prep("a total of six children : three biological and three adopted .")
        out = label_sentence(s, 6, 9)
        assert sum(tag == COUNT for tag in out.tags) == 3
        assert sum(tag == COMP for tag in out.tags) == 1

    def test_mention_above_count_within_bound_excludes(self, prep):
        s = prep("He has five children .")
        assert isinstance(label_sentence(s, 3, 7), Excluded)

    def test_mention_above_bound_is_negative(self, prep):
        s = prep("He has twelve children .")
        out = label_sentence(s, 3, 7)
        assert isinstance(out, LabeledSentence)
        assert set(out.tags) == {OTHER}

    def test_exact_match_positive(self, prep):
        s = prep("He has three children .")
        out = label_sentence(s, 3, 7)
        assert out.tags[s.mentions[0].index] == COUNT

    def test_below_count_negative(self, prep):
        s = prep("He has two children .")
        out = label_sentence(s, 3, 7)
        assert set(out.tags) == {OTHER}

    def test_numterm_matching_count_is_seed(self, prep):
        s = prep("She gave birth to twins .")
        out = label_sentence(s, 2, 7)
        twins = next(t for t in out.sentence if t.surface == "twins")
        assert out.tags[twins.index] == COUNT

    def test_ordinal_equal_is_seed_lower_is_negative(self, prep):
        s = prep("her third husband")
        assert label_sentence(s, 3, 5).tags[1] == COUNT
        assert label_sentence(s, 4, 5).tags[1] == OTHER

    def test_zero_kb_count_rejected(self, prep):
        s = prep("He has three children .")
        with pytest.raises(ValueError):
            label_sentence(s, 0, 7)

    def test_run_respects_gap_limit(self, prep):
        # mentions too far apart (no cue in between) never form a run
        s = prep("He has three cats . ")
        out = label_sentence(s, 3, 9)
        assert out.tags[2] == COUNT

    def test_jolie_gold_run_with_word_gap(self, prep):
        s = prep("Jolie brought her twins , one daughter and three adopted children to the gala .")
        out = label_sentence(s, 6, 9)
        assert list(out.tags) == [
            "O", "O", "O", COUNT, COMP, COUNT, "O", COMP, COUNT,
            "O", "O", "O", "O", "O", "O",
        ]


# -- randomized outcome table --------------------------------------------------

_WORDS = {
    1: "one", 2: "two", 3: "three", 4: "four", 5: "five", 6: "six", 7: "seven",
    8: "eight", 9: "nine", 10: "ten", 11: "eleven", 12: "twelve",
}


def _single_mention_sentence(value: int):
    text = f"He has {_WORDS[value]} children ."
    (s,) = tokenize(text)
    return preprocess_sentence(s, LEXICON)


@settings(max_examples=300, deadline=None)
@given(
    kb_count=st.integers(min_value=1, max_value=12),
    upper_bound=st.integers(min_value=1, max_value=12),
    value=st.integers(min_value=1, max_value=12),
)
def test_four_way_outcome_table(kb_count, upper_bound, value):
    sentence = _single_mention_sentence(value)
    outcome = label_sentence(sentence, kb_count, upper_bound)
    mention_index = sentence.mentions[0].index
    if kb_count < value <= upper_bound:
        assert isinstance(outcome, Excluded)
    elif value == kb_count:
        assert outcome.tags[mention_index] == COUNT
    else:
        assert outcome.tags[mention_index] == OTHER


@settings(max_examples=150, deadline=None)
@given(
    kb_count=st.integers(min_value=1, max_value=12),
    upper_bound=st.integers(min_value=1, max_value=12),
    values=st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=3),
)
def test_comp_sum_invariant(kb_count, upper_bound, values):
    text = "He has " + " and ".join(_WORDS[v] for v in values) + " things ."
    (raw,) = tokenize(text)
    outcome = label_sentence(preprocess_sentence(raw, LEXICON), kb_count, upper_bound)
    if isinstance(outcome, Excluded):
        return
    if COMP in outcome.tags:
        # COUNT goes only to exact matches and run members; the run members
        # (non-exact) alone must sum to the KB count
        total = sum(
            tok.mention.value
            for tok, tag in zip(outcome.sentence, outcome.tags)
            if tag == COUNT and tok.mention.value != kb_count
        )
        assert total == kb_count


class TestNumberEntropy:
    def test_single_occurrence_zero_bits(self, prep):
        doc = [prep("He has four children .")]
        assert number_entropy(doc, 4) == 0.0

    def test_four_distinct_contexts(self):
        text = (
            "Bob has four children now . Ann raised four sons early . "
            "Jim wants four cats someday . Kim saw four dogs yesterday ."
        )
        doc = [preprocess_sentence(s, LEXICON) for s in tokenize(text)]
        assert number_entropy(doc, 4) == pytest.approx(2.0)

    def test_one_repeated_context(self):
        text = (
            "Bob said he has four children in total . Ann said he has four children in total . "
            "Jim said he has four children in total . Kim said he has four children in total ."
        )
        doc = [preprocess_sentence(s, LEXICON) for s in tokenize(text)]
        assert number_entropy(doc, 4) == 0.0

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            number_entropy([], 4)


# -- the one-pass entropy filter against the per-value rescans it replaced -----
#
# The reference rescans the document once per value and rebuilds a
# sentence's lemmas once per mention.


def _reference_context_signature(sentence, position):
    lemmas = sentence.lemmas()
    def at(j):
        if j < 0:
            return "<BOS>"
        if j >= len(lemmas):
            return "<EOS>"
        return lemmas[j]
    return (at(position - 2), at(position - 1), at(position + 1), at(position + 2))


def _reference_number_entropy(document, value):
    signatures = Counter(
        _reference_context_signature(sent, tok.index)
        for sent in document
        for tok in sent.mentions
        if tok.mention.value == value
    )
    total = sum(signatures.values())
    if total == 0:
        return 0.0
    return -sum(
        (c / total) * math.log2(c / total) for c in signatures.values()
    ) or 0.0


def _reference_low_entropy_values(document, threshold):
    occurrences = Counter(tok.mention.value for sent in document for tok in sent.mentions)
    return {
        value
        for value, n in occurrences.items()
        if n > 1 and _reference_number_entropy(document, value) < threshold
    }


# A token is (lemma, mention value or None); two lemmas make contexts repeat.
_entropy_sentence = st.lists(
    st.tuples(st.sampled_from(["has", "son"]), st.none() | st.integers(0, 3)),
    min_size=1, max_size=3,
)


def _entropy_document(drawn):
    return [
        make_sentence(
            Token(surface=lemma, lemma=lemma, index=i,
                  mention=None if value is None
                  else MentionAnnotation(MentionKind.CARDINAL, value))
            for i, (lemma, value) in enumerate(sentence)
        )
        for sentence in drawn
    ]


@settings(max_examples=400, deadline=None)
@given(drawn=st.lists(_entropy_sentence, min_size=1, max_size=8))
def test_one_pass_entropy_equals_per_value_rescans(drawn):
    document = _entropy_document(drawn)
    for value in range(5):
        assert number_entropy(document, value) == _reference_number_entropy(document, value)
    for threshold in (0.0, 0.5, 1.0):
        assert _uninformative_values(document, threshold) == _reference_low_entropy_values(
            document, threshold
        )


def _fixture_kb(tmp_path, *extra):
    lines = [
        ("trump", "__instance_of__", "human"),
        *[("trump", "child", f"c{i}") for i in range(5)],
        ("poor", "__instance_of__", "human"),
        ("poor", "child", "p1"),
        ("nobody", "__instance_of__", "human"),
        *extra,
    ]
    path = tmp_path / "kb.tsv"
    path.write_text("\n".join("\t".join(t) for t in lines), encoding="utf-8")
    return load_triples(path)


class TestGenerateTrainingSet:
    def test_compositional_fixture(self, tmp_path):
        store = _fixture_kb(tmp_path)
        corpus = Corpus(documents={
            "trump": "Trump has three sons and two daughters .",
            "poor": "He wrote one book .",
        })
        labeled, stats = generate_training_set(store, corpus, REL)
        trump = [ls for ls in labeled if ls.subject == "trump"]
        assert len(trump) == 1
        tagged = [
            (t.surface, tag)
            for t, tag in zip(trump[0].sentence, trump[0].tags)
            if tag != OTHER
        ]
        assert tagged == [("three", COUNT), ("and", COMP), ("two", COUNT)]
        assert stats.positives >= 1

    def test_zero_count_subject_skipped(self, tmp_path):
        store = _fixture_kb(tmp_path)
        corpus = Corpus(documents={"nobody": "He has three children ."})
        labeled, stats = generate_training_set(store, corpus, REL)
        assert labeled == []
        assert stats.warnings == ["relation human_child: empty training set"]

    def test_relation_without_subjects_gives_empty_set(self, tmp_path):
        store = _fixture_kb(tmp_path)
        corpus = Corpus(documents={"trump": "Trump has five children ."})
        spouse = Relation(subject_class="human", property="spouse")
        assert select_subjects(store, corpus, spouse, SeedPolicy()) == (0, [])
        labeled, stats = generate_training_set(store, corpus, spouse)
        assert labeled == []
        assert stats.warnings == ["relation human_spouse: empty training set"]

    def test_popularity_cutoff_drops_unpopular(self, tmp_path):
        store = _fixture_kb(tmp_path)
        corpus = Corpus(documents={
            "trump": "Trump has five children .",
            "poor": "He has one child .",
        })
        policy = SeedPolicy(popularity_top_fraction=0.5)
        labeled, _ = generate_training_set(store, corpus, REL, policy)
        assert {ls.subject for ls in labeled} == {"trump"}

    def test_entropy_filter_drops_repeated_context(self, tmp_path):
        store = _fixture_kb(tmp_path)
        text = (
            "Trump said he has five children in total . "
            "Again he has five children in total . "
            "Once more he has five children in total ."
        )
        corpus = Corpus(documents={"trump": text})
        labeled, stats = generate_training_set(store, corpus, REL)
        assert stats.entropy_dropped == 3
        assert [ls for ls in labeled if ls.subject == "trump"] == []

    def test_articles_never_count(self, tmp_path):
        store = _fixture_kb(tmp_path, ("single", "__instance_of__", "human"),
                            ("single", "child", "sc1"))
        corpus = Corpus(documents={"single": "She has a child ."})
        labeled, _ = generate_training_set(store, corpus, REL)
        for ls in labeled:
            for tok, tag in zip(ls.sentence, ls.tags):
                if tag == COUNT:
                    assert tok.mention.kind.value != "article"

    def test_deterministic(self, tmp_path):
        store = _fixture_kb(tmp_path)
        corpus = Corpus(documents={
            "trump": "Trump has five children . He wrote three books .",
            "poor": "He has one child .",
        })
        a = generate_training_set(store, corpus, REL)
        b = generate_training_set(store, corpus, REL)
        assert [(ls.subject, ls.tags) for ls in a[0]] == [(ls.subject, ls.tags) for ls in b[0]]

    def test_no_excluded_band_mention_survives(self, tmp_path):
        store = _fixture_kb(tmp_path)
        corpus = Corpus(documents={
            # 7 sits in (5, upper_bound]: whole sentence must vanish
            "trump": "Trump has seven children . Trump has five children .",
        })
        policy = SeedPolicy(upper_bound_q=1.0)
        labeled, stats = generate_training_set(store, corpus, REL, policy)
        # upper bound is 5 here (max count), so 7 > bound -> negative instead
        assert stats.excluded == 0
        store2 = _fixture_kb(tmp_path, *[("rich", "__instance_of__", "human")],
                             *[("rich", "child", f"r{i}") for i in range(9)])
        labeled2, stats2 = generate_training_set(
            store2, Corpus(documents={
                "trump": "Trump has seven children . Trump has five children .",
            }), REL, policy)
        assert stats2.excluded == 1
        for ls in labeled2:
            for tok in ls.sentence.mentions:
                assert not (5 < tok.mention.value <= 9)


class TestStatsAndIo:
    def test_stats_merge_associative(self):
        a = GenerationStats(subjects=1, positives=2)
        b = GenerationStats(negatives=3, excluded=1)
        c = GenerationStats(entropy_dropped=4)
        assert (a + b) + c == a + (b + c)

    def test_entropy_filter_drops_repeated_non_count_value(self, tmp_path):
        # value 9 repeats in one context and never equals the KB count: the
        # filter drops both of its sentences all the same
        text = (
            "Trump set a record of nine wins that year . Again a record of nine wins that year . "
            "Trump has five children ."
        )
        from countquant.kbstore import load_triples
        lines = ["trump\t__instance_of__\thuman"] + [
            f"trump\tchild\tc{i}" for i in range(5)
        ]
        (tmp_path / "kb.tsv").write_text("\n".join(lines), encoding="utf-8")
        store = load_triples(tmp_path / "kb.tsv")
        corpus = Corpus(documents={"trump": text})
        _, stats = generate_training_set(store, corpus, REL)
        assert stats.entropy_dropped == 2

    def test_read_conll_bad_columns(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("onlyone\n", encoding="utf-8")
        with pytest.raises(ValueError):
            list(read_conll(path))

    def test_conll_roundtrip(self, tmp_path, prep):
        s = prep("Trump has three sons and two daughters .")
        labeled = label_sentence(s, 5, 9)
        path = tmp_path / "train.conll"
        write_conll([labeled], path)
        ((symbols, tags),) = list(read_conll(path))
        assert symbols == labeled.placeholder_sequence()
        assert tags == list(labeled.tags)

    def test_corpus_jsonl(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"subject": "a", "text": "Hi ."}) + "\n"
            + json.dumps({"subject": "b", "text": "Yo ."}) + "\n",
            encoding="utf-8",
        )
        corpus = Corpus.load(path)
        assert corpus.subjects() == ["a", "b"]
        assert corpus["a"] == "Hi ."

    def test_bad_corpus_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"nope": 1}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            Corpus.load(path)

    def test_duplicate_corpus_subject_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"subject": "a", "text": "Hi ."}) + "\n\n"
            + json.dumps({"subject": "a", "text": "Yo ."}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as err:
            Corpus.load(path)
        assert str(err.value) == f"{path}:3: duplicate subject 'a'"

    def test_labeled_sentence_validation(self, prep):
        s = prep("He has three children .")
        with pytest.raises(ValueError):
            LabeledSentence(sentence=s, tags=tuple(["O"] * (len(s) - 1)))
        with pytest.raises(ValueError):
            # COUNT on a non-mention token
            LabeledSentence(sentence=s, tags=tuple([COUNT] + ["O"] * (len(s) - 1)))
