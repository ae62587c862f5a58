"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from countquant import crf
from countquant.cli import main as cli_main
from countquant.consolidate import consolidate
from countquant.crf import TrainingProblem, decode, marginals, train, viterbi
from countquant.dsgen import (
    COMP,
    COUNT,
    LabeledSentence,
    label_sentence,
)
from countquant.evaluate import (
    EndToEndScore,
    enrichment_report,
    score_recognition,
)
from countquant.kbstore import Relation, load_triples
from countquant.numlex import (
    load_default_lexicon,
    preprocess_sentence,
    tokenize,
)
from countquant.pipeline import decode_document, extract_document

from oracles import (
    assert_viterbi_optimal,
    brute_force_log_partition,
    brute_force_marginals,
    detokenize,
    log_partition,
    random_model,
    random_sequence,
)
from synthbench import generate_world, gold_labeled_sentences, write_world

LEXICON = load_default_lexicon()
REL = Relation(subject_class="human", property="child")


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def _prep(text: str, mode: str = "train", zero_mode: bool = False):
    (sentence,) = tokenize(text)
    return preprocess_sentence(sentence, LEXICON, mode=mode, zero_mode=zero_mode)


# -- criterion 1 ---------------------------------------------------------------

JOLIE = "Jolie brought her twins , one daughter and three adopted children to the gala ."
JOLIE_TAGS = [
    "O", "O", "O", "COUNT", "COMP", "COUNT", "O", "COMP", "COUNT",
    "O", "O", "O", "O", "O", "O",
]


def _jolie_fixture_training_set() -> list[LabeledSentence]:
    positives = [
        "Maria brought her twins , one daughter and three adopted children to the party .",
        "Susan brought her twins , one daughter and three adopted children to the opera .",
    ]
    labeled = [label_sentence(_prep(t), 6, 9) for t in positives]
    negatives_kb4 = [
        "Jolie wrote three books about the gala .",
        "Maria wrote three books about the party .",
    ]
    labeled += [label_sentence(_prep(t), 4, 9) for t in negatives_kb4]
    assert all(isinstance(ls, LabeledSentence) for ls in labeled)
    return labeled


def test_criterion_1_golden_tagging():
    with criterion(1, "decoded tags on the twins/one/three sentence match the gold row"):
        model = train(_jolie_fixture_training_set(), max_iter=200)
        sentence = _prep(JOLIE)
        assert len(sentence) == 15
        from countquant.numlex import to_placeholder_sequence

        tags = decode(model, to_placeholder_sequence(sentence))
        assert tags == JOLIE_TAGS


# -- criterion 2 ---------------------------------------------------------------


def _worked_example():
    def build(text, spec):
        sentence = _prep(text, mode="inference")
        tags = ["O"] * len(sentence)
        confs = [0.0] * len(sentence)
        used: dict[str, int] = {}
        for tok in sentence:
            key = tok.surface.lower()
            entries = spec.get(key, [])
            n = used.get(key, 0)
            if n < len(entries):
                tags[tok.index], confs[tok.index] = entries[n]
                used[key] = n + 1
        return LabeledSentence(sentence=sentence, tags=tuple(tags), strict=False), confs

    l1 = build(
        "Angelina has a grand total of six children together : three biological and three adopted .",
        {"six": [(COUNT, 0.4)], "three": [(COUNT, 0.3), (COUNT, 0.5)], "and": [(COMP, 0.6)]},
    )
    l2 = build(
        "The arrival of the first biological child of Jolie and Pitt caused an excited flurry with fans .",
        {"first": [(COUNT, 0.5)]},
    )
    l3 = build(
        "On July 12 , 2008 , she gave birth to twins : a son , Knox Leon , and a daughter , Vivienne Marcheline .",
        {"twins": [(COUNT, 0.8)], "a": [(COUNT, 0.1), (COUNT, 0.2)], "and": [(COMP, 0.5)]},
    )
    return [l1[0], l2[0], l3[0]], [l1[1], l2[1], l3[1]]


def test_criterion_2_golden_consolidation():
    with criterion(2, "worked consolidation example: 6 at threshold 0.1, 2 at 0.6"):
        sentences, confidences = _worked_example()
        start = time.perf_counter()
        low = consolidate("AngelinaJolie", REL, sentences, confidences, threshold=0.1)
        high = consolidate("AngelinaJolie", REL, sentences, confidences, threshold=0.6)
        elapsed = time.perf_counter() - start
        assert low.count == 6
        assert low.confidence == pytest.approx(0.5)
        assert high.count == 2
        assert high.confidence == pytest.approx(0.8)
        assert elapsed < 1.0


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_three_sons_two_daughters():
    with criterion(3, "gold-tagged 'three sons and two daughters' consolidates to 5"):
        sentence = _prep("Trump has three sons and two daughters")
        labeled = label_sentence(sentence, 5, 9)
        assert isinstance(labeled, LabeledSentence)
        confs = [0.9 if t != "O" else 0.0 for t in labeled.tags]
        cq = consolidate("trump", REL, [labeled], [confs], threshold=0.1)
        assert cq.count == 5


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_zero_cue_rewrites():
    with criterion(4, "the three zero-cue rewrites are bit-exact"):
        pairs = [
            ("They didn't have any children", "They have no children"),
            ("He has never been married", "He has been married 0 times"),
            ("The marriage was without children", "The marriage was with no children"),
        ]
        for before, after in pairs:
            (sentence,) = tokenize(before)
            assert detokenize(preprocess_sentence(sentence, LEXICON, zero_mode=True)) == after


# -- criterion 5 ---------------------------------------------------------------

VOCAB = ["CARDINAL", "ORDINAL", "NUMTERM", "child", "have", "wife", "x"]


def test_criterion_5a_gradient_check():
    with criterion(5, "(a) analytic gradient vs central differences < 1e-4"):
        fixture = [
            (["she", "have", "CARDINAL", "child"], ["O", "O", "COUNT", "O"]),
            (["CARDINAL", "son", "and", "CARDINAL", "daughter"],
             ["COUNT", "O", "COMP", "COUNT", "O"]),
            (["he", "wrote", "CARDINAL", "book"], ["O", "O", "O", "O"]),
        ]
        problem = TrainingProblem(fixture, l2_sigma=0.8, feature_cutoff=1)
        rng = np.random.default_rng(505)
        h = 1e-5
        worst = 0.0
        for _ in range(5):
            theta = rng.normal(scale=0.5, size=problem.n_params)
            _, grad = problem.value_and_grad(theta)
            fd = np.empty_like(grad)
            for i in range(len(theta)):
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (
                    problem.value_and_grad(up)[0] - problem.value_and_grad(down)[0]
                ) / (2 * h)
            rel_err = np.abs(grad - fd) / np.maximum(
                1.0, np.maximum(np.abs(grad), np.abs(fd))
            )
            worst = max(worst, float(rel_err.max()))
        assert worst < 1e-4


def test_criterion_5b_viterbi_exhaustive():
    with criterion(5, "(b) Viterbi equals exhaustive argmax, lengths 1..8, 100 models"):
        rng = np.random.default_rng(99)
        for _ in range(100):
            model = random_model(rng, VOCAB)
            for length in range(1, 9):
                seq = random_sequence(rng, VOCAB, length)
                em = model.emissions(seq)
                assert_viterbi_optimal(
                    em, model.transitions, viterbi(em, model.transitions)
                )


def test_criterion_5c_marginals_exhaustive():
    with criterion(5, "(c) forward-backward equals path enumeration within 1e-8"):
        rng = np.random.default_rng(123)
        for _ in range(30):
            model = random_model(rng, VOCAB, scale=1.5)
            for length in range(1, 7):
                seq = random_sequence(rng, VOCAB, length)
                em = model.emissions(seq)
                got = marginals(model, [seq])[0]
                expected = brute_force_marginals(em, model.transitions)
                assert np.abs(got - expected).max() < 1e-8
                assert np.abs(got.sum(axis=1) - 1.0).max() < 1e-9
                assert abs(
                    log_partition(em, model.transitions)
                    - brute_force_log_partition(em, model.transitions)
                ) < 1e-8


# -- criterion 6 ---------------------------------------------------------------

_WORDS = {
    1: "one", 2: "two", 3: "three", 4: "four", 5: "five", 6: "six", 7: "seven",
    8: "eight", 9: "nine", 10: "ten", 11: "eleven", 12: "twelve",
}


def test_criterion_6_labeling_outcome_table():
    with criterion(6, "four-way labeling/exclusion table holds on 10,000 random cases"):
        sentences = {
            v: _prep(f"He has {w} children .") for v, w in _WORDS.items()
        }
        mention_index = {
            v: sentences[v].mentions[0][0] for v in sentences
        }
        rng = random.Random(606)
        violations = 0
        for _ in range(10_000):
            value = rng.randint(1, 12)
            kb_count = rng.randint(1, 12)
            upper_bound = rng.randint(1, 12)
            outcome = label_sentence(sentences[value], kb_count, upper_bound)
            if kb_count < value <= upper_bound:
                ok = outcome is None
            elif value == kb_count:
                ok = (
                    isinstance(outcome, LabeledSentence)
                    and outcome.tags[mention_index[value]] == COUNT
                )
            else:
                ok = (
                    isinstance(outcome, LabeledSentence)
                    and outcome.tags[mention_index[value]] == "O"
                )
            violations += 0 if ok else 1
        assert violations == 0


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_synthetic_end_to_end(tmp_path):
    with criterion(
        7,
        "synthetic 500-subject benchmark: recognition F1 >= 0.90, precision >= 0.90, "
        "coverage >= 0.80, MAE <= 0.3, < 5 min",
    ):
        start = time.perf_counter()
        subjects = generate_world(n_subjects=500, non_maximal_fraction=0.2)
        held_out = subjects[400:]
        assert len(held_out) == 100
        paths = write_world(subjects, tmp_path, train_split=400)

        runner = CliRunner()
        train_file = tmp_path / "train.conll"
        model_file = tmp_path / "model.json"
        pred_file = tmp_path / "pred.jsonl"
        metrics_file = tmp_path / "metrics.json"

        for args in (
            ["build-training", "--kb", str(paths["kb"]),
             "--corpus", str(paths["train_corpus"]), "--relation", "human:child",
             "--out", str(train_file), "--workers", "2"],
            ["train", "--training", str(train_file), "--model", str(model_file),
             "--relation", "human:child"],
            ["extract", "--model", str(model_file),
             "--corpus", str(paths["test_corpus"]), "--relation", "human:child",
             "--out", str(pred_file), "--threshold", "0.1", "--workers", "2"],
            ["evaluate", "--pred", str(pred_file), "--gold", str(paths["gold"]),
             "--out", str(metrics_file)],
        ):
            result = runner.invoke(cli_main, args, catch_exceptions=False)
            assert result.exit_code == 0, result.output

        scores = json.loads(metrics_file.read_text(encoding="utf-8"))["end_to_end"]
        model = crf.load_model(model_file)
        gold_tagged, predicted_tags = [], []
        for subject in held_out:
            gold_ls = gold_labeled_sentences(subject, LEXICON)
            decoded = decode_document(model, LEXICON, subject.text)
            assert len(gold_ls) == len(decoded)
            gold_tagged.extend(gold_ls)
            predicted_tags.extend(list(d.labeled.tags) for d in decoded)
        recognition = score_recognition(gold_tagged, predicted_tags)
        elapsed = time.perf_counter() - start

        print(
            f"  [7] recognition F1={recognition.f1:.3f} "
            f"precision={scores['precision']:.3f} coverage={scores['coverage']:.3f} "
            f"mae={scores['mae']:.3f} runtime={elapsed:.1f}s"
        )
        assert recognition.f1 >= 0.90
        assert scores["precision"] >= 0.90
        assert scores["coverage"] >= 0.80
        assert scores["mae"] <= 0.3
        assert elapsed < 300.0


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_enrichment_accounting(tmp_path):
    with criterion(8, "KB count 4 vs predicted 7 adds 3 missing facts; gates exact"):
        kb = tmp_path / "kb.tsv"
        kb.write_text(
            "\n".join(
                ["garfield\t__instance_of__\thuman"]
                + [f"garfield\tchild\tc{i}" for i in range(4)]
            ) + "\n",
            encoding="utf-8",
        )
        store = load_triples(kb)
        assert store.triple_count("garfield", "child") == 4
        prediction = extract_document(
            train(_jolie_fixture_training_set(), max_iter=200),
            LEXICON,
            "garfield",
            "Garfield brought her twins , one daughter and four adopted children to the party .",
            REL,
        )
        # seven via 2 + 1 + 4 compositional route
        assert prediction is not None and prediction.count == 7
        good = EndToEndScore(precision=0.8, coverage=0.4, mae=0.2)
        report = enrichment_report(store, REL, {"garfield": prediction.count}, good)
        assert report is not None
        assert report.missing_facts == 3

        at_precision_gate = EndToEndScore(precision=0.5, coverage=0.4, mae=0.2)
        at_coverage_gate = EndToEndScore(precision=0.8, coverage=0.05, mae=0.2)
        above_both = EndToEndScore(precision=0.500001, coverage=0.050001, mae=0.2)
        preds = {"garfield": prediction.count}
        assert enrichment_report(store, REL, preds, at_precision_gate) is None
        assert enrichment_report(store, REL, preds, at_coverage_gate) is None
        assert enrichment_report(store, REL, preds, above_both) is not None


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical training file, model, and predictions across runs"):
        subjects = generate_world(n_subjects=40, seed=909)
        paths = write_world(subjects, tmp_path, train_split=30)
        runner = CliRunner()
        outputs = []
        for run, workers in (("a", 1), ("b", 3)):
            train_file = tmp_path / f"train_{run}.conll"
            model_file = tmp_path / f"model_{run}.json"
            pred_file = tmp_path / f"pred_{run}.jsonl"
            for args in (
                ["build-training", "--kb", str(paths["kb"]),
                 "--corpus", str(paths["train_corpus"]), "--relation", "human:child",
                 "--out", str(train_file), "--workers", str(workers)],
                ["train", "--training", str(train_file), "--model", str(model_file),
                 "--relation", "human:child"],
                ["extract", "--model", str(model_file),
                 "--corpus", str(paths["test_corpus"]), "--relation", "human:child",
                 "--out", str(pred_file), "--workers", str(workers)],
            ):
                result = runner.invoke(cli_main, args, catch_exceptions=False)
                assert result.exit_code == 0, result.output
            outputs.append(
                (train_file.read_bytes(), model_file.read_bytes(), pred_file.read_bytes())
            )
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        assert outputs[0][2] == outputs[1][2]
