from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from countquant.dsgen import COMP, COUNT, LabeledSentence, label_sentence
from countquant.evaluate import (
    EndToEndScore,
    EnrichmentReport,
    enrichment_report,
    render_table,
    score_end_to_end,
    score_recognition,
    score_tags,
)
from countquant.kbstore import Relation, load_triples

REL = Relation(subject_class="human", property="child")


def _gold_sentences(prep):
    texts_counts_bounds = [
        ("He has three children .", 3, 99),
        ("She has four children .", 4, 99),
        ("They adopted two children .", 2, 99),
        ("He wrote two books about five towns .", 2, 3),  # "five" above bound -> O
    ]
    return [label_sentence(prep(t), c, ub) for t, c, ub in texts_counts_bounds]


class TestScoreRecognition:
    def test_perfect_prediction(self, prep):
        gold = _gold_sentences(prep)
        predicted = [list(ls.tags) for ls in gold]
        score = score_recognition(gold, predicted)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_no_predictions(self, prep):
        gold = _gold_sentences(prep)
        predicted = [["O"] * len(ls.tags) for ls in gold]
        score = score_recognition(gold, predicted)
        assert (score.precision, score.recall) == (0.0, 0.0)

    def test_hand_counted_fixture(self, prep):
        # 4 gold mentions when the book sentence is labeled against count 5;
        # predictions hit 2 of them and add 1 spurious -> P=2/3, R=1/2, F1=4/7
        gold = [
            label_sentence(prep("He has three children ."), 3, 99),
            label_sentence(prep("She has four children ."), 4, 99),
            label_sentence(prep("They adopted two children ."), 2, 99),
            label_sentence(prep("He wrote five books ."), 5, 99),
        ]
        predicted = []
        for i, ls in enumerate(gold):
            tags = list(ls.tags)
            if i == 2:
                tags = ["O"] * len(tags)                       # miss
            if i == 3:
                tags = ["O"] * len(tags)                       # miss gold...
                tags[0] = "O"
            predicted.append(tags)
        # spurious COUNT on a non-gold mention position in sentence 0
        predicted[3][1] = COUNT
        score = score_recognition(gold, predicted)
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(2 / 4)
        assert score.f1 == pytest.approx(4 / 7)

    def test_misaligned_raises(self, prep):
        gold = _gold_sentences(prep)
        with pytest.raises(ValueError):
            score_recognition(gold, [["O"]])
        with pytest.raises(ValueError):
            score_recognition(gold[:1], [["O", "O"]])

    def test_per_kind_breakdown(self, prep):
        gold = [label_sentence(prep("She gave birth to twins ."), 2, 9)]
        predicted = [list(gold[0].tags)]
        score = score_recognition(gold, predicted)
        assert score.supports_by_kind["numterm"] == (1.0, 1.0, 1.0)

    def test_comp_scored_separately(self, prep):
        gold = [label_sentence(prep("He has three sons and two daughters ."), 5, 9)]
        tags = list(gold[0].tags)
        tags[tags.index(COMP)] = "O"
        score = score_recognition(gold, [tags])
        assert score.precision == 1.0        # COUNT mentions all correct
        assert score.comp_score[1] == 0.0    # comp recall zero

    def test_articles_and_zero_cues_score_as_cardinals(self, prep):
        sentences = [prep("She has a son .", mode="inference"),
                     prep("She has no sons .", zero_mode=True)]
        gold = [LabeledSentence(s, tuple(COUNT if t.mention else "O" for t in s))
                for s in sentences]
        kinds = [mention.kind.value for ls in gold for _, mention in ls.sentence.mentions]
        assert kinds == ["article", "zero"]
        predicted = [["O"] * len(ls.tags) for ls in gold]
        predicted[1] = list(gold[1].tags)
        score = score_recognition(gold, predicted)
        assert score.supports_by_kind == {"cardinal": (1.0, 0.5, pytest.approx(2 / 3))}


class TestScoreTags:
    SYMBOLS = [["she", "have", "CARDINAL", "son", "and", "NUMTERM"], ["the", "ORDINAL", "son"]]
    GOLD = [["O", "O", "COUNT", "O", "COMP", "COUNT"], ["O", "O", "O"]]

    def test_per_kind_and_comp(self):
        predicted = [["O", "O", "COUNT", "O", "O", "O"], ["O", "COUNT", "O"]]
        score = score_tags(self.SYMBOLS, self.GOLD, predicted)
        assert (score.precision, score.recall) == (0.5, 0.5)
        assert score.supports_by_kind == {
            "cardinal": (1.0, 1.0, 1.0),
            "numterm": (0.0, 0.0, 0.0),
            "ordinal": (0.0, 0.0, 0.0),
        }
        assert score.comp_score == (0.0, 0.0, 0.0)

    def test_kind_without_count_tags_is_not_listed(self):
        score = score_tags(self.SYMBOLS, self.GOLD, self.GOLD)
        assert score.supports_by_kind == {"cardinal": (1.0, 1.0, 1.0),
                                          "numterm": (1.0, 1.0, 1.0)}
        assert score.comp_score == (1.0, 1.0, 1.0)

    def test_misaligned_raises(self):
        with pytest.raises(ValueError, match="sentence counts differ"):
            score_tags(self.SYMBOLS, self.GOLD, self.GOLD[:1])
        with pytest.raises(ValueError, match="sentence 2: 3 gold tags but 2 predicted"):
            score_tags(self.SYMBOLS, self.GOLD, [self.GOLD[0], ["O", "O"]])


class TestScoreEndToEnd:
    def test_all_exact(self):
        gold = {"a": 3, "b": 2, "c": 4}
        preds = {"a": 3, "b": 2}
        score = score_end_to_end(gold, preds)
        assert score.precision == 1.0
        assert score.coverage == pytest.approx(2 / 3)
        assert score.mae == 0.0

    def test_hand_computed(self):
        gold = {"a": 7, "b": 3}
        preds = {"a": 5, "b": 3}
        score = score_end_to_end(gold, preds)
        assert score.precision == 0.5
        assert score.mae == pytest.approx(1.0)

    def test_no_predictions(self):
        score = score_end_to_end({"a": 1}, {})
        assert (score.precision, score.coverage, score.mae) == (0.0, 0.0, None)
        assert score.to_json_dict()["mae"] is None

    def test_unjudgeable_predictions_skipped(self):
        gold = {"a": 2}
        preds = {"a": 2, "mystery": 9}
        score = score_end_to_end(gold, preds)
        assert score.precision == 1.0
        assert score.n_predicted == 1

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError):
            score_end_to_end({}, {})


GOOD = EndToEndScore(precision=0.8, coverage=0.4, mae=0.5)


class TestEnrichment:
    def _store(self, write_kb):
        return load_triples(write_kb(
            ("garfield", "__instance_of__", "human"),
            *[("garfield", "child", f"c{i}") for i in range(4)],
            ("ann", "__instance_of__", "human"),
            ("ann", "child", "a1"),
        ))

    def test_garfield_contributes_three_missing(self, write_kb):
        store = self._store(write_kb)
        report = enrichment_report(store, REL, {"garfield": 7}, GOOD)
        assert report.missing_facts == 3
        assert report.existing_facts == 5

    def test_low_precision_suppressed(self, write_kb):
        store = self._store(write_kb)
        bad = EndToEndScore(precision=0.4, coverage=0.4, mae=1.0)
        assert enrichment_report(store, REL, {"garfield": 7}, bad) is None

    def test_filters_are_strict(self, write_kb):
        store = self._store(write_kb)
        edge_p = EndToEndScore(precision=0.5, coverage=0.4, mae=0.0)
        edge_c = EndToEndScore(precision=0.8, coverage=0.05, mae=0.0)
        preds = {"garfield": 7}
        assert enrichment_report(store, REL, preds, edge_p) is None
        assert enrichment_report(store, REL, preds, edge_c) is None
        just_over = EndToEndScore(precision=0.51, coverage=0.051, mae=0.0)
        assert enrichment_report(store, REL, preds, just_over) is not None

    def test_predictions_below_kb_count_contribute_nothing(self, write_kb):
        store = self._store(write_kb)
        report = enrichment_report(
            store, REL,
            {"garfield": 2, "ann": 3},
            GOOD,
        )
        assert report.missing_facts == 2  # only ann: 3 - 1

    def test_out_of_class_subjects_not_counted(self, write_kb):
        store = load_triples(write_kb(
            ("garfield", "__instance_of__", "human"),
            ("garfield", "child", "c0"),
            ("paris", "__instance_of__", "city"),
        ))
        preds = {"garfield": 2, "paris": 5, "nobody": 0}
        report = enrichment_report(store, REL, preds, GOOD)
        assert report.missing_facts == 1  # only garfield: 2 - 1
        assert report.existing_facts == 1
        assert report.zero_assertions == 0

    def test_zero_assertions_counted(self, write_kb):
        store = self._store(write_kb)
        report = enrichment_report(store, REL, {"ann": 0}, GOOD)
        assert report.zero_assertions == 1

    def test_kb_explicit_zero_is_a_conflict_not_missing_facts(self, write_kb):
        store = load_triples(write_kb(
            ("garfield", "__instance_of__", "human"),
            ("garfield", "child", "c0"),
            ("ann", "__instance_of__", "human"),
            ("ann", "child", "__no_value__"),
            ("bob", "__instance_of__", "human"),
            ("bob", "child", "__no_value__"),
        ))
        preds = {"garfield": 3, "ann": 2, "bob": 0}
        report = enrichment_report(store, REL, preds, GOOD)
        assert report.missing_facts == 2  # only garfield: 3 - 1
        assert report.conflicts == 1      # ann: 2 against the KB's asserted zero
        assert report.zero_assertions == 1
        assert report.to_json_dict()["conflicts"] == 1

    def test_ratio_matches_reported_increase(self):
        report = EnrichmentReport(
            relation=REL, existing_facts=73527, missing_facts=117942, zero_assertions=0,
            conflicts=0,
        )
        assert round(100 * report.kb_increase, 1) == 160.4


@settings(max_examples=200)
@given(
    gold=st.dictionaries(
        st.sampled_from([f"s{i}" for i in range(8)]),
        st.integers(min_value=0, max_value=9),
        min_size=1,
    ),
    pred_counts=st.dictionaries(
        st.sampled_from([f"s{i}" for i in range(8)]),
        st.integers(min_value=0, max_value=9),
    ),
)
def test_score_ranges_property(gold, pred_counts):
    preds = dict(pred_counts)
    score = score_end_to_end(gold, preds)
    assert 0.0 <= score.precision <= 1.0
    assert 0.0 <= score.coverage <= 1.0
    judged = {s for s in preds if s in gold}
    if judged:
        assert score.mae >= 0.0
        exact = all(preds[s] == gold[s] for s in judged)
        assert (score.mae == 0.0) == exact
    else:
        assert score.mae is None


def test_render_table_alignment():
    text = render_table(["relation", "P"], [["human_child", "0.588"], ["x", "1.0"]])
    lines = text.splitlines()
    assert lines[0].startswith("relation")
    assert len(lines) == 4
