from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from countquant import numlex
from countquant.cli import load_config, main, parse_relation
from countquant.dsgen import load_corpus, write_conll
from countquant.kbstore import Relation, load_triples
from countquant.reader import InputError

from oracles import training_set

WORDS = {1: "one", 2: "two", 3: "three", 4: "four", 5: "five", 6: "six"}


def build_fixture(root: Path, n_subjects: int = 10):
    kb_lines = []
    corpus_lines = []
    gold_lines = []
    for i in range(n_subjects):
        name = f"p{i:02d}"
        count = (i % 4) + 1
        kb_lines.append(f"{name}\t__instance_of__\thuman")
        kb_lines.extend(f"{name}\tchild\t{name}_c{j}" for j in range(count))
        sentences = [f"{name.title()} has {WORDS[count]} children ."]
        if count >= 2:
            sentences.append(
                f"{name.title()} raised {WORDS[count - 1]} sons and one daughter ."
            )
        sentences.append(f"{name.title()} wrote {WORDS[(i % 2) + 5]} books .")
        corpus_lines.append(json.dumps({"subject": name, "text": " ".join(sentences)}))
        gold_lines.append(f"{name}\t{count}")
    (root / "kb.tsv").write_text("\n".join(kb_lines) + "\n", encoding="utf-8")
    (root / "corpus.jsonl").write_text("\n".join(corpus_lines) + "\n", encoding="utf-8")
    (root / "gold.tsv").write_text("\n".join(gold_lines) + "\n", encoding="utf-8")


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def fixture_dir(tmp_path):
    build_fixture(tmp_path)
    return tmp_path


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def write_config(root: Path, *lines: str) -> Path:
    """A config naming the fixture files and every command's output under ``root``.

    Each ``key = value`` of ``lines`` replaces that key's default; a config
    names a key once.
    """
    entries = {
        "kb": root / "kb.tsv",
        "corpus": root / "corpus.jsonl",
        "relation": "human:child",
        "gold": root / "gold.tsv",
        "training": root / "train.conll",
        "model": root / "model.json",
        "predictions": root / "pred.jsonl",
        "metrics": root / "metrics.json",
        "enrichment": root / "enrichment.json",
        "popularity_report": root / "popularity.json",
    }
    for line in lines:
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    config = root / "run.conf"
    config.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()),
                      encoding="utf-8")
    return config


class TestParseRelation:
    def test_two_parts(self):
        rel = parse_relation("human:child")
        assert (rel.subject_class, rel.property, rel.label) == ("human", "child", "human_child")

    def test_three_parts(self):
        assert parse_relation("human:child:hasChild").label == "hasChild"

    def test_bad_spec(self):
        with pytest.raises(Exception):
            parse_relation("nope")

    def test_empty_label_takes_default(self):
        assert parse_relation("human:child:").label == "human_child"

    @pytest.mark.parametrize("spec", ["human:", ":child", "::", ":child:label", "human::label"])
    def test_empty_class_or_property_is_rejected(self, spec):
        with pytest.raises(click.BadParameter):
            parse_relation(spec)

    @pytest.mark.parametrize("command", [
        "build-training", "train", "extract", "analyze-popularity", "enrich",
    ])
    def test_empty_part_exits_2(self, runner, tmp_path, command):
        config = write_config(tmp_path, "relation = human:")
        result = runner.invoke(main, ["--config", str(config), command])
        assert result.exit_code == 2, result.output
        assert "Invalid value" in result.output and "'human:'" in result.output


class TestBuildTraining:
    def test_writes_file_and_stats(self, runner, fixture_dir):
        out = fixture_dir / "train.conll"
        result = run_ok(runner, [
            "build-training", "--kb", str(fixture_dir / "kb.tsv"),
            "--corpus", str(fixture_dir / "corpus.jsonl"),
            "--relation", "human:child", "--out", str(out),
        ])
        assert out.exists()
        assert "positives=" in result.output

    def test_byte_identical_across_runs_and_workers(self, runner, fixture_dir):
        contents = []
        for workers, name in [(1, "a.conll"), (3, "b.conll"), (1, "c.conll")]:
            out = fixture_dir / name
            run_ok(runner, [
                "build-training", "--kb", str(fixture_dir / "kb.tsv"),
                "--corpus", str(fixture_dir / "corpus.jsonl"),
                "--relation", "human:child", "--out", str(out),
                "--workers", str(workers),
            ])
            contents.append(out.read_bytes())
        assert contents[0] == contents[1] == contents[2]

    def test_missing_kb_fails(self, runner, fixture_dir):
        result = runner.invoke(main, [
            "build-training", "--kb", str(fixture_dir / "missing.tsv"),
            "--corpus", str(fixture_dir / "corpus.jsonl"),
            "--relation", "human:child",
        ])
        assert result.exit_code != 0
        assert "not found" in result.output

    def test_no_subjects_fails(self, runner, fixture_dir):
        (fixture_dir / "other.jsonl").write_text(
            json.dumps({"subject": "stranger", "text": "Hi ."}) + "\n", encoding="utf-8"
        )
        result = runner.invoke(main, [
            "build-training", "--kb", str(fixture_dir / "kb.tsv"),
            "--corpus", str(fixture_dir / "other.jsonl"),
            "--relation", "human:child",
        ])
        assert result.exit_code != 0
        assert "no subjects" in result.output
        result = runner.invoke(main, [
            "build-training", "--kb", str(fixture_dir / "kb.tsv"),
            "--corpus", str(fixture_dir / "corpus.jsonl"),
            "--relation", "human:spouse",
        ])
        assert result.exit_code == 1
        assert "no subjects of relation human_spouse" in result.output

    def test_exclusion_stats_reported(self, runner, tmp_path):
        # one subject with KB count 3 but a "five" mention within the bound
        kb = ["a\t__instance_of__\thuman"] + [f"a\tchild\tc{i}" for i in range(3)]
        kb += ["b\t__instance_of__\thuman"] + [f"b\tchild\td{i}" for i in range(7)]
        (tmp_path / "kb.tsv").write_text("\n".join(kb) + "\n", encoding="utf-8")
        (tmp_path / "corpus.jsonl").write_text(
            json.dumps({"subject": "a", "text": "A has five children ."}) + "\n",
            encoding="utf-8",
        )
        result = run_ok(runner, [
            "build-training", "--kb", str(tmp_path / "kb.tsv"),
            "--corpus", str(tmp_path / "corpus.jsonl"),
            "--relation", "human:child", "--out", str(tmp_path / "t.conll"),
        ])
        assert "excluded=1" in result.output

    def test_empty_training_set_warns(self, runner, tmp_path):
        # the one seed subject's document has no candidate mention
        kb = ["a\t__instance_of__\thuman", "a\tchild\tc0"]
        (tmp_path / "kb.tsv").write_text("\n".join(kb) + "\n", encoding="utf-8")
        (tmp_path / "corpus.jsonl").write_text(
            json.dumps({"subject": "a", "text": "A wrote books ."}) + "\n", encoding="utf-8"
        )
        out = tmp_path / "t.conll"
        result = run_ok(runner, [
            "build-training", "--kb", str(tmp_path / "kb.tsv"),
            "--corpus", str(tmp_path / "corpus.jsonl"),
            "--relation", "human:child", "--out", str(out),
        ])
        assert out.read_text(encoding="utf-8") == ""
        assert "warning: relation human_child: empty training set" in result.output


class TestFullPipeline:
    def _pipeline(self, runner, root, workers: int = 1, suffix: str = ""):
        train = root / f"train{suffix}.conll"
        model = root / f"model{suffix}.json"
        pred = root / f"pred{suffix}.jsonl"
        metrics = root / f"metrics{suffix}.json"
        run_ok(runner, [
            "build-training", "--kb", str(root / "kb.tsv"),
            "--corpus", str(root / "corpus.jsonl"),
            "--relation", "human:child", "--out", str(train),
            "--workers", str(workers),
        ])
        run_ok(runner, [
            "train", "--training", str(train), "--model", str(model),
            "--relation", "human:child", "--max-iter", "150",
        ])
        run_ok(runner, [
            "extract", "--model", str(model), "--corpus", str(root / "corpus.jsonl"),
            "--relation", "human:child", "--out", str(pred),
            "--workers", str(workers),
        ])
        run_ok(runner, [
            "evaluate", "--pred", str(pred), "--gold", str(root / "gold.tsv"),
            "--out", str(metrics),
        ])
        return train, model, pred, metrics

    def test_number_longer_than_int_converts(self, runner, fixture_dir):
        """A 5,000-digit number is above the 999,999 cap, so it is no mention."""
        corpus = fixture_dir / "corpus.jsonl"
        lines = corpus.read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        first["text"] += f" {first['subject'].title()} has {'9' * 5000} fans ."
        corpus.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n", encoding="utf-8")
        pred = self._pipeline(runner, fixture_dir)[2]
        assert pred.read_text(encoding="utf-8").count("\n") == 10

    def test_end_to_end_and_determinism(self, runner, fixture_dir):
        train1, model1, pred1, metrics1 = self._pipeline(runner, fixture_dir, 1, "1")
        train2, model2, pred2, metrics2 = self._pipeline(runner, fixture_dir, 2, "2")
        assert train1.read_bytes() == train2.read_bytes()
        assert model1.read_bytes() == model2.read_bytes()
        assert pred1.read_bytes() == pred2.read_bytes()
        scores = json.loads(metrics1.read_text(encoding="utf-8"))["end_to_end"]
        assert scores["precision"] == 1.0
        assert scores["mae"] == 0.0

    def test_extract_is_byte_identical_across_workers(self, runner, fixture_dir):
        _, model, pred1, _ = self._pipeline(runner, fixture_dir, 1, "w")
        pred2 = fixture_dir / "pred_w2.jsonl"
        run_ok(runner, [
            "extract", "--model", str(model), "--corpus", str(fixture_dir / "corpus.jsonl"),
            "--relation", "human:child", "--out", str(pred2), "--workers", "2",
        ])
        assert pred1.read_bytes() and pred1.read_bytes() == pred2.read_bytes()

    def test_evaluate_gold_equals_pred(self, runner, fixture_dir, tmp_path):
        _, _, pred, _ = self._pipeline(runner, fixture_dir)
        records = [
            json.loads(line)
            for line in pred.read_text(encoding="utf-8").splitlines()
        ]
        gold = tmp_path / "gold_from_pred.tsv"
        gold.write_text(
            "\n".join(f"{r['subject']}\t{r['count']}" for r in records) + "\n",
            encoding="utf-8",
        )
        metrics_path = tmp_path / "m.json"
        run_ok(runner, ["evaluate", "--pred", str(pred), "--gold", str(gold),
                        "--out", str(metrics_path)])
        scores = json.loads(metrics_path.read_text(encoding="utf-8"))["end_to_end"]
        assert scores["precision"] == 1.0
        assert scores["coverage"] == 1.0

    def test_enrich_gates_on_metrics(self, runner, fixture_dir, tmp_path):
        _, _, pred, metrics = self._pipeline(runner, fixture_dir)
        out = tmp_path / "enrich.json"
        run_ok(runner, [
            "enrich", "--kb", str(fixture_dir / "kb.tsv"), "--relation", "human:child",
            "--pred", str(pred), "--metrics", str(metrics), "--out", str(out),
        ])
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["emitted"] is True

        bad_metrics = tmp_path / "bad.json"
        bad_metrics.write_text(json.dumps({
            "end_to_end": {"precision": 0.4, "coverage": 0.5, "mae": 1.0}
        }), encoding="utf-8")
        result = run_ok(runner, [
            "enrich", "--kb", str(fixture_dir / "kb.tsv"), "--relation", "human:child",
            "--pred", str(pred), "--metrics", str(bad_metrics), "--out", str(out),
        ])
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["emitted"] is False
        assert "suppressed" in result.output

    def test_padded_corpus_subjects_match_gold(self, runner, fixture_dir):
        corpus = fixture_dir / "corpus.jsonl"
        records = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
        corpus.write_text("".join(
            json.dumps({"subject": f" {r['subject']} ", "text": r["text"]}) + "\n"
            for r in records
        ), encoding="utf-8")
        _, _, pred, metrics = self._pipeline(runner, fixture_dir)
        subjects = [json.loads(line)["subject"]
                    for line in pred.read_text(encoding="utf-8").splitlines()]
        assert subjects and all(s == s.strip() for s in subjects)
        scores = json.loads(metrics.read_text(encoding="utf-8"))["end_to_end"]
        assert scores["coverage"] > 0.5

    def test_enrich_without_existing_facts_writes_valid_json(self, runner, tmp_path):
        kb = tmp_path / "kb.tsv"
        kb.write_text("ann\t__instance_of__\thuman\nbob\t__instance_of__\thuman\n",
                      encoding="utf-8")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"subject": "ann", "count": 3, "confidence": 0.9}) + "\n",
                        encoding="utf-8")
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps({
            "end_to_end": {"precision": 1.0, "coverage": 1.0, "mae": 0.0}
        }), encoding="utf-8")
        out = tmp_path / "enrichment.json"
        result = run_ok(runner, [
            "enrich", "--kb", str(kb), "--relation", "human:child",
            "--pred", str(pred), "--metrics", str(metrics), "--out", str(out),
        ])

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        report = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject)["report"]
        assert (report["existing_facts"], report["missing_facts"]) == (0, 3)
        assert report["kb_increase_pct"] is None
        assert "no existing facts" in result.output and "inf" not in result.output

    def test_recognition_evaluation_mode(self, runner, fixture_dir, tmp_path):
        train, _, _, _ = self._pipeline(runner, fixture_dir)
        metrics_path = tmp_path / "rec.json"
        run_ok(runner, [
            "evaluate", "--gold-conll", str(train), "--pred-conll", str(train),
            "--out", str(metrics_path),
        ])
        rec = json.loads(metrics_path.read_text(encoding="utf-8"))["recognition"]
        assert rec["f1"] == 1.0


def test_recognition_metrics_by_kind_and_comp(runner, tmp_path):
    gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
    rows = [("She", "she"), ("has", "have"), ("three", "CARDINAL"), ("sons", "son"),
            ("and", "and"), ("twins", "NUMTERM")]
    for path, tags in ((gold, ["O", "O", "COUNT", "O", "COMP", "COUNT"]),
                       (pred, ["O", "O", "COUNT", "O", "COMP", "O"])):
        path.write_text("".join(f"{s}\t{p}\t{t}\n" for (s, p), t in zip(rows, tags)),
                        encoding="utf-8")
    metrics = tmp_path / "m.json"
    run_ok(runner, ["evaluate", "--gold-conll", str(gold), "--pred-conll", str(pred),
                    "--out", str(metrics)])
    perfect = {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    assert json.loads(metrics.read_text(encoding="utf-8")) == {"recognition": {
        "precision": 1.0, "recall": 0.5, "f1": 0.6667,
        "by_kind": {"cardinal": perfect,
                    "numterm": {"precision": 0.0, "recall": 0.0, "f1": 0.0}},
        "comp": perfect,
    }}


class TestBundledMiniCorpus:
    """Full pipeline over the versioned fixture under tests/data/mini."""

    MINI = Path(__file__).parent / "data" / "mini"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_build_training_equals_library_generation(self, runner, tmp_path, workers):
        out = tmp_path / "cli.conll"
        run_ok(runner, [
            "build-training", "--kb", str(self.MINI / "kb.tsv"),
            "--corpus", str(self.MINI / "corpus.jsonl"),
            "--relation", "human:child", "--out", str(out), "--workers", str(workers),
        ])
        labeled, _ = training_set(
            load_triples(self.MINI / "kb.tsv"),
            load_corpus(self.MINI / "corpus.jsonl"),
            Relation(subject_class="human", property="child"),
        )
        write_conll(labeled, tmp_path / "library.conll")
        assert out.read_bytes() == (tmp_path / "library.conll").read_bytes()

    def test_module_entry_point_equals_cli_runner(self, runner, tmp_path, monkeypatch):
        # the offline form of the README walkthrough: no installed script needed
        repo = self.MINI.parents[2]
        monkeypatch.chdir(repo)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(repo / "src"), env.get("PYTHONPATH")])
        )
        subprocess.run(
            [sys.executable, "-m", "countquant.cli", "--config", "tests/data/mini/run.conf",
             "build-training", "--out", str(tmp_path / "module.conll")],
            env=env, check=True, capture_output=True,
        )
        run_ok(runner, ["--config", "tests/data/mini/run.conf", "build-training",
                        "--out", str(tmp_path / "runner.conll")])
        assert (tmp_path / "module.conll").read_bytes() == (
            tmp_path / "runner.conll"
        ).read_bytes()

    def test_reproduces_worked_example_count_six(self, runner, tmp_path):
        train = tmp_path / "train.conll"
        model = tmp_path / "model.json"
        pred = tmp_path / "pred.jsonl"
        metrics = tmp_path / "metrics.json"
        run_ok(runner, [
            "build-training", "--kb", str(self.MINI / "kb.tsv"),
            "--corpus", str(self.MINI / "corpus.jsonl"),
            "--relation", "human:child", "--out", str(train),
        ])
        run_ok(runner, ["train", "--training", str(train), "--model", str(model),
                        "--relation", "human:child"])
        run_ok(runner, [
            "extract", "--model", str(model), "--corpus", str(self.MINI / "corpus.jsonl"),
            "--relation", "human:child", "--out", str(pred), "--threshold", "0.1",
        ])
        records = {
            json.loads(line)["subject"]: json.loads(line)["count"]
            for line in pred.read_text(encoding="utf-8").splitlines()
        }
        assert records["jolie"] == 6
        run_ok(runner, ["evaluate", "--pred", str(pred),
                        "--gold", str(self.MINI / "gold.tsv"), "--out", str(metrics)])
        scores = json.loads(metrics.read_text(encoding="utf-8"))["end_to_end"]
        assert scores["precision"] == 1.0

    def test_line_separator_in_text_keeps_predictions(self, runner, tmp_path):
        # U+2028 is whitespace inside a JSON string, not a line break of the corpus
        corpus = self.MINI / "corpus.jsonl"
        text = corpus.read_text(encoding="utf-8")
        assert "Angelina has" in text
        variant = tmp_path / "corpus.jsonl"
        variant.write_text(text.replace("Angelina has", "Angelina\u2028has", 1), encoding="utf-8")
        config = str(self.MINI / "run.conf")
        run_ok(runner, ["--config", config, "build-training", "--out", str(tmp_path / "t.conll")])
        run_ok(runner, ["train", "--training", str(tmp_path / "t.conll"),
                        "--model", str(tmp_path / "m.json")])
        for source, out in [(corpus, "plain.jsonl"), (variant, "u2028.jsonl")]:
            run_ok(runner, ["--config", config, "extract", "--model", str(tmp_path / "m.json"),
                            "--corpus", str(source), "--out", str(tmp_path / out)])
        assert (tmp_path / "plain.jsonl").read_bytes() == (tmp_path / "u2028.jsonl").read_bytes()

    def test_readme_library_use_runs_on_mini(self, monkeypatch):
        readme = (self.MINI.parents[2] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Library use\n", 1)[1]
        block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
        monkeypatch.chdir(self.MINI)
        exec(compile(block, "README.md (Library use)", "exec"), {})


class TestAnalyzePopularity:
    def test_reports_bands(self, runner, fixture_dir, tmp_path):
        out = tmp_path / "pop.json"
        result = run_ok(runner, [
            "analyze-popularity", "--kb", str(fixture_dir / "kb.tsv"),
            "--relation", "human:child", "--gold", str(fixture_dir / "gold.tsv"),
            "--out", str(out),
        ])
        assert "mean gap" in result.output
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert [b["top_fraction"] for b in payload["bands"]] == [0.01, 0.10, 0.20]
        # the fixture KB stores the true counts, so every gap is zero
        assert all(b["mean_gap"] == 0.0 for b in payload["bands"])


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, runner, fixture_dir):
        config = fixture_dir / "run.conf"
        config.write_text(
            "\n".join([
                f"kb = {fixture_dir / 'kb.tsv'}",
                f"corpus = {fixture_dir / 'corpus.jsonl'}",
                "relation = human:child",
                f"training = {fixture_dir / 'from_config.conll'}",
                "# comment line",
            ]) + "\n",
            encoding="utf-8",
        )
        run_ok(runner, ["--config", str(config), "build-training"])
        assert (fixture_dir / "from_config.conll").exists()

        override = fixture_dir / "override.conll"
        run_ok(runner, ["--config", str(config), "build-training", "--out", str(override)])
        assert override.exists()

    def test_zero_mode_flag(self, runner, fixture_dir, tmp_path):
        train = fixture_dir / "t.conll"
        model = fixture_dir / "m.json"
        run_ok(runner, [
            "build-training", "--kb", str(fixture_dir / "kb.tsv"),
            "--corpus", str(fixture_dir / "corpus.jsonl"),
            "--relation", "human:child", "--out", str(train),
        ])
        run_ok(runner, ["train", "--training", str(train), "--model", str(model)])
        zero_corpus = tmp_path / "zero.jsonl"
        zero_corpus.write_text(
            json.dumps({"subject": "z", "text": "Z has never fathered children ."}) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "zero.jsonl.out"
        run_ok(runner, [
            "extract", "--model", str(model), "--corpus", str(zero_corpus),
            "--relation", "human:child", "--out", str(out), "--zero-mode",
        ])
        # without zero mode the document has no candidate mentions at all
        out2 = tmp_path / "plain.jsonl.out"
        run_ok(runner, [
            "extract", "--model", str(model), "--corpus", str(zero_corpus),
            "--relation", "human:child", "--out", str(out2),
        ])
        assert out2.read_text(encoding="utf-8").strip() == ""


    def test_bundled_config_equals_flags(self, runner, tmp_path):
        mini = TestBundledMiniCorpus.MINI
        run_ok(runner, ["--config", str(mini / "run.conf"), "build-training",
                        "--out", str(tmp_path / "config.conll")])
        run_ok(runner, ["build-training", "--kb", str(mini / "kb.tsv"),
                        "--corpus", str(mini / "corpus.jsonl"), "--relation", "human:child",
                        "--out", str(tmp_path / "flags.conll")])
        assert (tmp_path / "config.conll").read_bytes() == (tmp_path / "flags.conll").read_bytes()

    def test_missing_config_file(self, runner, tmp_path):
        result = runner.invoke(main, ["--config", str(tmp_path / "missing.conf"), "train"])
        assert result.exit_code == 2
        assert "Invalid value for '--config'" in result.output

    def test_unknown_key_reported_with_line(self, runner, fixture_dir):
        config = fixture_dir / "run.conf"
        config.write_text("relation = human:child\ntreshold = 0.9\n", encoding="utf-8")
        result = runner.invoke(main, ["--config", str(config), "extract",
                                      "--corpus", str(fixture_dir / "corpus.jsonl")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"Error: {config}:2: unknown key 'treshold'" in result.output

    def test_duplicate_key_reported_with_line(self, runner, fixture_dir):
        config = fixture_dir / "run.conf"
        config.write_text("threshold = 0.1\n# a later value\nthreshold=0.9\n", encoding="utf-8")
        result = runner.invoke(main, ["--config", str(config), "extract",
                                      "--corpus", str(fixture_dir / "corpus.jsonl")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"Error: {config}:3: duplicate key 'threshold'" in result.output

    def test_keys_spelled_with_dash_or_underscore_are_one_key(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("max_iter = 5\nmax-iter = 7\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            load_config(str(config), {"max_iter"})
        assert str(err.value) == f"{config}:2: duplicate key 'max_iter'"


class TestOptionValues:
    """Flag and config values pass the same type and range checks."""

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command,key,value", [
        ("build-training", "upper_bound_q", "1.5"),
        ("build-training", "popularity_top", "0"),
        ("extract", "threshold", "1.5"),
        ("train", "l2_sigma", "0"),
        ("train", "max_iter", "-5"),
        ("train", "max_iter", "0"),
        ("train", "feature_cutoff", "0"),
        ("build-training", "workers", "0"),
        ("extract", "workers", "-2"),
        ("build-training", "entropy_min", "-0.1"),
        ("enrich", "min_precision", "1.5"),
        ("enrich", "min_coverage", "-0.1"),
    ])
    def test_out_of_range_value_exits_2(self, runner, fixture_dir, command, key, value, via):
        flag = "--" + key.replace("_", "-")
        if via == "flag":
            args = ["--config", str(write_config(fixture_dir)), command, flag, value]
        else:
            args = ["--config", str(write_config(fixture_dir, f"{key} = {value}")), command]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{flag}'" in result.output

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command,key", [
        ("train", "l2_sigma"),
        ("extract", "threshold"),
        ("build-training", "upper_bound_q"),
        ("build-training", "popularity_top"),
        ("build-training", "entropy_min"),
        ("enrich", "min_precision"),
        ("enrich", "min_coverage"),
    ])
    def test_non_finite_value_exits_2(self, runner, fixture_dir, command, key, value, via):
        """NaN passes every range comparison, and infinity an open upper end."""
        flag = "--" + key.replace("_", "-")
        if via == "flag":
            args = ["--config", str(write_config(fixture_dir)), command, flag, value]
        else:
            args = ["--config", str(write_config(fixture_dir, f"{key} = {value}")), command]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{flag}'" in result.output

    @pytest.mark.parametrize("with_other_pair", [False, True], ids=["alone", "beside-other-pair"])
    @pytest.mark.parametrize("given,missing", [
        ("--pred", "--gold"), ("--gold", "--pred"),
        ("--gold-conll", "--pred-conll"), ("--pred-conll", "--gold-conll"),
    ])
    def test_evaluate_option_without_its_partner_exits_2(
        self, runner, tmp_path, given, missing, with_other_pair
    ):
        """Half of an input pair is a usage error, even beside the other, whole pair."""
        tags, pred, gold = tmp_path / "tags.conll", tmp_path / "pred.jsonl", tmp_path / "gold.tsv"
        tags.write_text("three\tCARDINAL\tCOUNT\n", encoding="utf-8")
        pred.write_text(json.dumps({"subject": "p00", "count": 1, "confidence": 0.9}) + "\n",
                        encoding="utf-8")
        gold.write_text("p00\t1\n", encoding="utf-8")
        files = {"--pred": pred, "--gold": gold, "--gold-conll": tags, "--pred-conll": tags}
        pairs = [("--pred", "--gold"), ("--gold-conll", "--pred-conll")]
        other_pair = next(pair for pair in pairs if given not in pair)
        options = [given, *other_pair] if with_other_pair else [given]
        args = [arg for o in options for arg in (o, str(files[o]))]
        result = runner.invoke(main, ["evaluate", *args, "--out", str(tmp_path / "m.json")])
        assert result.exit_code == 2, result.output
        assert f"{given} needs {missing}" in result.output
        assert not (tmp_path / "m.json").exists()

    def test_lowest_values_in_range_are_accepted(self, runner, fixture_dir):
        config = str(write_config(fixture_dir))
        run_ok(runner, ["--config", config, "build-training", "--entropy-min", "0",
                        "--workers", "1"])
        run_ok(runner, ["--config", config, "train", "--max-iter", "1", "--feature-cutoff", "1"])

    @pytest.mark.parametrize("line,flag", [
        ("threshold = abc", "--threshold"),
        ("zero_mode = maybe", "--zero-mode"),
    ])
    def test_bad_config_value_exits_2(self, runner, fixture_dir, line, flag):
        result = runner.invoke(main, ["--config", str(write_config(fixture_dir, line)), "extract"])
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{flag}'" in result.output

    def test_zero_mode_from_config_equals_flag(self, runner, fixture_dir):
        config = write_config(fixture_dir)
        run_ok(runner, ["--config", str(config), "build-training"])
        run_ok(runner, ["--config", str(config), "train"])
        with (fixture_dir / "corpus.jsonl").open("a", encoding="utf-8") as f:
            f.write(json.dumps({"subject": "z", "text": "Z has no children ."}) + "\n")
        flag_out = fixture_dir / "flag.jsonl"
        run_ok(runner, ["--config", str(config), "extract", "--zero-mode", "--out", str(flag_out)])
        run_ok(runner, ["--config", str(write_config(fixture_dir, "zero_mode = true")), "extract"])
        config_out = (fixture_dir / "pred.jsonl").read_text(encoding="utf-8")
        assert '"subject": "z"' in config_out
        assert config_out == flag_out.read_text(encoding="utf-8")


def test_gold_fields_are_stripped(runner, tmp_path):
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps({"subject": "p00", "count": 1, "confidence": 0.9}) + "\n",
                    encoding="utf-8")
    gold = tmp_path / "gold.tsv"
    gold.write_text("p00 \t 1 \n", encoding="utf-8")
    metrics = tmp_path / "m.json"
    run_ok(runner, ["evaluate", "--pred", str(pred), "--gold", str(gold), "--out", str(metrics)])
    e2e = json.loads(metrics.read_text(encoding="utf-8"))["end_to_end"]
    assert e2e["precision"] == 1.0 and e2e["coverage"] == 1.0


def test_prediction_subjects_are_stripped(runner, tmp_path):
    pred = tmp_path / "pred.jsonl"
    pred.write_text("".join(json.dumps({"subject": s, "count": c, "confidence": 0.9}) + "\n"
                            for s, c in [("p00 ", 2), (" p01", 3)]), encoding="utf-8")
    gold = tmp_path / "gold.tsv"
    gold.write_text("p00\t2\np01\t3\n", encoding="utf-8")
    metrics = tmp_path / "m.json"
    run_ok(runner, ["evaluate", "--pred", str(pred), "--gold", str(gold), "--out", str(metrics)])
    e2e = json.loads(metrics.read_text(encoding="utf-8"))["end_to_end"]
    assert e2e["precision"] == 1.0 and e2e["coverage"] == 1.0


def test_mae_is_null_when_nothing_is_judged(runner, fixture_dir, tmp_path):
    pred = tmp_path / "pred.jsonl"
    pred.write_text(json.dumps({"subject": "nobody", "count": 2, "confidence": 0.9}) + "\n",
                    encoding="utf-8")
    gold = tmp_path / "gold.tsv"
    gold.write_text("p00\t2\n", encoding="utf-8")
    metrics = tmp_path / "m.json"
    result = run_ok(runner, ["evaluate", "--pred", str(pred), "--gold", str(gold),
                             "--out", str(metrics), "--table"])
    assert result.output.splitlines()[2].split() == ["0.000", "0.000", "n/a"]
    e2e = json.loads(metrics.read_text(encoding="utf-8"))["end_to_end"]
    assert (e2e["n_predicted"], e2e["mae"]) == (0, None)

    # enrich gates on precision and coverage alone, so a null MAE is read.
    metrics.write_text(json.dumps({
        "end_to_end": {"precision": 1.0, "coverage": 1.0, "mae": None}
    }), encoding="utf-8")
    out = tmp_path / "enrichment.json"
    run_ok(runner, ["enrich", "--kb", str(fixture_dir / "kb.tsv"), "--relation", "human:child",
                    "--pred", str(pred), "--metrics", str(metrics), "--out", str(out)])
    assert json.loads(out.read_text(encoding="utf-8"))["emitted"] is True


class TestMalformedInputs:
    """A bad line in an input file exits with code 1 and its file:line, no traceback."""

    PRED = json.dumps({"subject": "p00", "count": 1, "confidence": 0.9})

    @staticmethod
    def assert_reported(result, where):
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"Error: {where}: " in result.output

    def test_bad_gold_count(self, runner, tmp_path):
        (tmp_path / "pred.jsonl").write_text(self.PRED + "\n", encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_text("p00\t1\na\tx\n", encoding="utf-8")
        result = runner.invoke(main, ["evaluate", "--pred", str(tmp_path / "pred.jsonl"),
                                      "--gold", str(gold), "--out", str(tmp_path / "m.json")])
        self.assert_reported(result, f"{gold}:2")

    def test_empty_gold_subject(self, runner, tmp_path):
        (tmp_path / "pred.jsonl").write_text(self.PRED + "\n", encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_text("p00\t1\n \t1\n", encoding="utf-8")
        result = runner.invoke(main, ["evaluate", "--pred", str(tmp_path / "pred.jsonl"),
                                      "--gold", str(gold), "--out", str(tmp_path / "m.json")])
        self.assert_reported(result, f"{gold}:2")
        assert "empty subject" in result.output

    def test_duplicate_gold_subject(self, runner, tmp_path):
        (tmp_path / "pred.jsonl").write_text(self.PRED + "\n", encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_text("p00\t1\n# again\np00\t2\n", encoding="utf-8")
        result = runner.invoke(main, ["evaluate", "--pred", str(tmp_path / "pred.jsonl"),
                                      "--gold", str(gold), "--out", str(tmp_path / "m.json")])
        self.assert_reported(result, f"{gold}:3")
        assert f"Error: {gold}:3: duplicate subject 'p00'" in result.output

    def test_duplicate_prediction_subject(self, runner, fixture_dir):
        pred = fixture_dir / "pred.jsonl"
        pred.write_text(self.PRED + "\n\n" + self.PRED + "\n", encoding="utf-8")
        result = runner.invoke(main, ["evaluate", "--pred", str(pred),
                                      "--gold", str(fixture_dir / "gold.tsv"),
                                      "--out", str(fixture_dir / "m.json")])
        self.assert_reported(result, f"{pred}:3")
        assert f"Error: {pred}:3: duplicate subject 'p00'" in result.output

    @pytest.mark.parametrize("bad", [
        '{"subject": "a", "count": 1',
        '{"subject": "a", "confidence": 0.5}',
        '{"subject": "a", "count": "x", "confidence": 0.5}',
        '["a", 1, 0.5]',
        '{"subject": " ", "count": 1, "confidence": 0.5}',
        '{"subject": "a", "count": 2.7, "confidence": 0.5}',
        '{"subject": "a", "count": true, "confidence": 0.5}',
        '{"subject": "a", "count": "2", "confidence": 0.5}',
        '{"subject": "a", "count": 1, "confidence": "0.5"}',
        '{"subject": "a", "count": 1, "confidence": true}',
        '{"subject": 7, "count": 1, "confidence": 0.5}',
        '{"subject": "a", "count": 1, "confidence": NaN}',
        '{"subject": "a", "count": 1, "confidence": Infinity}',
        '{"subject": "a", "count": 1, "confidence": -Infinity}',
        '{"subject": "a", "count": 1, "confidence": 1e400}',
    ], ids=["json", "missing-key", "bad-number", "not-an-object", "empty-subject",
            "float-count", "bool-count", "string-count", "string-confidence",
            "bool-confidence", "number-subject", "nan-confidence", "infinite-confidence",
            "negative-infinite-confidence", "overflowing-confidence"])
    def test_bad_prediction_line(self, runner, fixture_dir, bad):
        pred = fixture_dir / "pred.jsonl"
        pred.write_text(self.PRED + "\n" + bad + "\n", encoding="utf-8")
        result = runner.invoke(main, ["evaluate", "--pred", str(pred),
                                      "--gold", str(fixture_dir / "gold.tsv"),
                                      "--out", str(fixture_dir / "m.json")])
        self.assert_reported(result, f"{pred}:2")
        assert f"Error: {pred}:2: bad prediction record: " in result.output

    @pytest.mark.parametrize("bad", [
        '{"text": "Hi ."}',
        '{"subject": "p00", "text": "Hi ."}',
        '{"subject": "", "text": "Hi ."}',
        '{"subject": "  ", "text": "Hi ."}',
        '{"subject": "p00 ", "text": "Hi ."}',
        '{"subject": "q01", "text": null}',
        '{"subject": 7, "text": "Hi ."}',
        '["q01", "Hi ."]',
    ], ids=["missing-key", "duplicate-subject", "empty-subject", "blank-subject",
            "duplicate-after-strip", "null-text", "number-subject", "not-an-object"])
    def test_bad_corpus_line(self, runner, fixture_dir, bad):
        corpus = fixture_dir / "corpus.jsonl"
        lines = corpus.read_text(encoding="utf-8").splitlines()
        corpus.write_text("\n".join(lines + [bad]) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["build-training", "--kb", str(fixture_dir / "kb.tsv"),
                                      "--corpus", str(corpus), "--relation", "human:child",
                                      "--out", str(fixture_dir / "t.conll")])
        self.assert_reported(result, f"{corpus}:{len(lines) + 1}")

    def test_bad_training_line(self, runner, tmp_path):
        training = tmp_path / "train.conll"
        training.write_text("three\tCARDINAL\tCOUNT\nonlyone\n", encoding="utf-8")
        result = runner.invoke(main, ["train", "--training", str(training),
                                      "--model", str(tmp_path / "m.json")])
        self.assert_reported(result, f"{training}:2")

    def test_unknown_training_tag(self, runner, tmp_path):
        training = tmp_path / "train.conll"
        training.write_text("three\tCARDINAL\tCOUNT\nkids\tkid\tX\n", encoding="utf-8")
        result = runner.invoke(main, ["train", "--training", str(training),
                                      "--model", str(tmp_path / "m.json")])
        self.assert_reported(result, f"{training}:2")
        assert "unknown tag 'X'" in result.output

    @pytest.mark.parametrize("which", ["gold-conll", "pred-conll"])
    def test_unknown_recognition_tag(self, runner, tmp_path, which):
        good, bad = tmp_path / "good.conll", tmp_path / "bad.conll"
        good.write_text("three\tCARDINAL\tCOUNT\n\nkids\tkid\tO\n", encoding="utf-8")
        bad.write_text("three\tCARDINAL\tCOUNT\n\nkids\tkid\tB-COUNT\n", encoding="utf-8")
        files = {"gold-conll": good, "pred-conll": good, which: bad}
        result = runner.invoke(main, ["evaluate", "--gold-conll", str(files["gold-conll"]),
                                      "--pred-conll", str(files["pred-conll"]),
                                      "--out", str(tmp_path / "m.json")])
        self.assert_reported(result, f"{bad}:3")

    @pytest.mark.parametrize("pred_text,message", [
        ("a\tb\tO\n", "sentence counts differ"),
        ("a\tb\tO\n\nc\td\tO\n", "sentence 1: 2 gold tags but 1 predicted"),
    ], ids=["sentences", "tokens"])
    def test_recognition_files_do_not_match(self, runner, tmp_path, pred_text, message):
        gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
        gold.write_text("a\tb\tO\nc\td\tO\n\ne\tf\tO\n", encoding="utf-8")
        pred.write_text(pred_text, encoding="utf-8")
        result = runner.invoke(main, ["evaluate", "--gold-conll", str(gold),
                                      "--pred-conll", str(pred),
                                      "--out", str(tmp_path / "m.json")])
        self.assert_reported(result, f"{pred} does not match {gold}")
        assert message in result.output

    def test_recognition_files_with_other_placeholders(self, runner, tmp_path):
        gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
        gold.write_text("a\tb\tO\n\nShe\tshe\tO\nhas\thave\tO\nthree\tCARDINAL\tCOUNT\n",
                        encoding="utf-8")
        pred.write_text("a\tb\tO\n\nHe\the\tO\nwrote\twrite\tO\nbooks\tbook\tCOUNT\n",
                        encoding="utf-8")
        result = runner.invoke(main, ["evaluate", "--gold-conll", str(gold),
                                      "--pred-conll", str(pred),
                                      "--out", str(tmp_path / "m.json")])
        self.assert_reported(result, f"{pred} does not match {gold}")
        assert "sentence 2, token 1: gold placeholder 'she' but predicted 'he'" in result.output
        assert not (tmp_path / "m.json").exists()

    def test_empty_gold_conll(self, runner, tmp_path):
        """No gold sentence is no recognition score, as no gold count is no end-to-end one."""
        gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
        gold.write_text("", encoding="utf-8")
        pred.write_text("", encoding="utf-8")
        result = runner.invoke(main, ["evaluate", "--gold-conll", str(gold),
                                      "--pred-conll", str(pred),
                                      "--out", str(tmp_path / "m.json")])
        self.assert_reported(result, gold)
        assert f"Error: {gold}: no sentences" in result.output
        assert not (tmp_path / "m.json").exists()

    def test_negative_gold_count(self, runner, tmp_path):
        (tmp_path / "pred.jsonl").write_text(self.PRED + "\n", encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_text("p00\t1\np1\t-2\n", encoding="utf-8")
        result = runner.invoke(main, ["evaluate", "--pred", str(tmp_path / "pred.jsonl"),
                                      "--gold", str(gold), "--out", str(tmp_path / "m.json")])
        self.assert_reported(result, f"{gold}:2")
        assert "negative count -2" in result.output

    def test_negative_predicted_count(self, runner, tmp_path):
        pred = tmp_path / "pred.jsonl"
        pred.write_text(self.PRED + "\n" + json.dumps(
            {"subject": "p1", "count": -4, "confidence": 0.9}) + "\n", encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_text("p00\t1\np1\t2\n", encoding="utf-8")
        result = runner.invoke(main, ["evaluate", "--pred", str(pred),
                                      "--gold", str(gold), "--out", str(tmp_path / "m.json")])
        self.assert_reported(result, f"{pred}:2")
        assert "negative count -4" in result.output

    @pytest.mark.parametrize("command", ["build-training", "enrich", "analyze-popularity"])
    def test_malformed_kb(self, runner, fixture_dir, command):
        kb = fixture_dir / "bad_kb.tsv"
        kb.write_text("a\tchild\nb\tchild\n", encoding="utf-8")
        (fixture_dir / "pred.jsonl").write_text(self.PRED + "\n", encoding="utf-8")
        result = runner.invoke(main, ["--config", str(write_config(fixture_dir, f"kb = {kb}")),
                                      command])
        self.assert_reported(result, kb)
        assert "2 of 2 lines malformed" in result.output

    @pytest.mark.parametrize("command", ["build-training", "extract"])
    def test_missing_lexicon_dir(self, runner, fixture_dir, command):
        lexicon_dir = fixture_dir / "no_such_lexicon"
        config = write_config(fixture_dir, f"lexicon_dir = {lexicon_dir}")
        result = runner.invoke(main, ["--config", str(config), command])
        self.assert_reported(result, lexicon_dir)
        assert "cannot load lexicon" in result.output

    @pytest.mark.parametrize("line,message", [
        ("three 3", "cardinals.tsv:3: expected 2 tab-separated fields"),
        ("three\tdrei", "value of 'three' must be a non-negative integer"),
        ("three\t-3", "cardinals.tsv:3: value of 'three' must be a non-negative integer"),
        ("two\t2", "cardinals.tsv:3: duplicate key 'two'"),
    ], ids=["no-tab", "bad-value", "bad-value-line", "duplicate-key"])
    def test_malformed_lexicon_file(self, runner, fixture_dir, line, message):
        lexicon_dir = fixture_dir / "lexicon"
        shutil.copytree(Path(numlex.__file__).parent / "data", lexicon_dir)
        (lexicon_dir / "cardinals.tsv").write_text(f"one\t1\ntwo\t2\n{line}\n", encoding="utf-8")
        config = write_config(fixture_dir, f"lexicon_dir = {lexicon_dir}")
        result = runner.invoke(main, ["--config", str(config), "build-training"])
        self.assert_reported(result, lexicon_dir)
        assert message in result.output

    def test_zero_valued_prefix(self, runner, fixture_dir):
        lexicon_dir = fixture_dir / "lexicon"
        shutil.copytree(Path(numlex.__file__).parent / "data", lexicon_dir)
        prefixes = lexicon_dir / "prefixes.tsv"
        lines = prefixes.read_text(encoding="utf-8").splitlines()
        prefixes.write_text("\n".join(lines + ["nulli\t0"]) + "\n", encoding="utf-8")
        corpus = fixture_dir / "nulli.jsonl"
        corpus.write_text('{"subject": "p00", "text": "He has nulliplets ."}\n', encoding="utf-8")
        config = write_config(fixture_dir, f"lexicon_dir = {lexicon_dir}", f"corpus = {corpus}")
        result = runner.invoke(main, ["--config", str(config), "build-training"])
        self.assert_reported(result, lexicon_dir)
        assert f"prefixes.tsv:{len(lines) + 1}: value of 'nulli' must be a positive integer" \
            in result.output

    def test_file_that_is_not_a_model(self, runner, fixture_dir):
        kb = fixture_dir / "kb.tsv"
        config = write_config(fixture_dir, f"model = {kb}")
        result = runner.invoke(main, ["--config", str(config), "extract"])
        self.assert_reported(result, kb)
        assert "cannot load model" in result.output

    @pytest.mark.parametrize("content", [
        '{"end_to_end": {"precision": 0.9',
        '[0.9, 0.5, 0.1]',
        '{"recognition": {"f1": 1.0}}',
        '{"end_to_end": {"precision": 0.9}}',
        '{"end_to_end": {"precision": "high", "coverage": 0.5, "mae": 0.1}}',
        '{"end_to_end": {"precision": true, "coverage": true, "mae": null}}',
        '{"end_to_end": {"precision": "0.9", "coverage": 0.5, "mae": null}}',
        '{"end_to_end": {"precision": 0.9, "coverage": 0.5, "mae": false}}',
        '{"end_to_end": {"precision": NaN, "coverage": 0.5, "mae": null}}',
        '{"end_to_end": {"precision": 0.9, "coverage": Infinity, "mae": null}}',
        '{"end_to_end": {"precision": 0.9, "coverage": 0.5, "mae": -Infinity}}',
        '{"end_to_end": {"precision": 0.9, "coverage": 1%s, "mae": null}}' % ("0" * 400),
    ], ids=["json", "not-an-object", "no-end-to-end", "missing-key", "not-a-number",
            "bool", "numeric-string", "bool-mae", "nan", "infinity", "negative-infinite-mae",
            "overflowing-integer"])
    def test_bad_metrics_file(self, runner, fixture_dir, content):
        metrics = fixture_dir / "metrics.json"
        metrics.write_text(content, encoding="utf-8")
        (fixture_dir / "pred.jsonl").write_text(self.PRED + "\n", encoding="utf-8")
        result = runner.invoke(main, ["--config", str(write_config(fixture_dir)), "enrich"])
        self.assert_reported(result, metrics)
        assert f"Error: {metrics}: bad metrics file: " in result.output

    # One case per input file a command reads by key: its valid content with
    # one Latin-1 byte (0xe9, not UTF-8) on a known line.
    @pytest.mark.parametrize("key,command,content", [
        ("kb", "build-training", b"# KB\np00\tchild\tx\np01\tchild\tcaf\xe9\n"),
        ("corpus", "build-training",
         b'{"subject": "p00", "text": "Hi ."}\n{"subject": "p01", "text": "caf\xe9 ."}\n'),
        ("training", "train", b"three\tCARDINAL\tCOUNT\n\ncaf\xe9\tO\tO\n"),
        ("gold_conll", "evaluate", b"three\tCARDINAL\tCOUNT\ncaf\xe9\tO\tO\n"),
        ("pred_conll", "evaluate", b"three\tCARDINAL\tCOUNT\ncaf\xe9\tO\tO\n"),
        ("gold", "evaluate", b"p00\t1\n# caf\xe9\n"),
        ("predictions", "evaluate",
         b'{"subject": "p00", "count": 1, "confidence": 0.9}\n{"subject": "caf\xe9"}\n'),
        ("metrics", "enrich", b'{"end_to_end":\n {"precision": "\xe9"}}\n'),
        ("model", "extract", b'{"magic":\n "caf\xe9"}\n'),
    ], ids=["kb", "corpus", "training", "gold-conll", "pred-conll", "gold", "predictions",
            "metrics", "model"])
    def test_non_utf8_input(self, runner, fixture_dir, key, command, content):
        bad = fixture_dir / f"bad_{key}"
        bad.write_bytes(content)
        lineno = content[: content.index(b"\xe9")].count(b"\n") + 1
        (fixture_dir / "pred.jsonl").write_text(self.PRED + "\n", encoding="utf-8")
        tags = fixture_dir / "tags.conll"
        tags.write_text("three\tCARDINAL\tCOUNT\nsons\tO\tO\n", encoding="utf-8")
        config = write_config(fixture_dir, f"gold_conll = {tags}", f"pred_conll = {tags}",
                              f"{key} = {bad}")
        result = runner.invoke(main, ["--config", str(config), command])
        self.assert_reported(result, f"{bad}:{lineno}")

    def test_non_utf8_config(self, runner, fixture_dir):
        config = fixture_dir / "run.conf"
        config.write_bytes(b"relation = human:child\n# caf\xe9\n")
        result = runner.invoke(main, ["--config", str(config), "build-training"])
        self.assert_reported(result, f"{config}:2")

    def test_non_utf8_lexicon_table(self, runner, fixture_dir):
        lexicon_dir = fixture_dir / "lexicon"
        shutil.copytree(Path(numlex.__file__).parent / "data", lexicon_dir)
        (lexicon_dir / "cardinals.tsv").write_bytes(b"one\t1\ncaf\xe9\t2\n")
        config = write_config(fixture_dir, f"lexicon_dir = {lexicon_dir}")
        result = runner.invoke(main, ["--config", str(config), "build-training"])
        # the lexicon is one input, named by its directory, then the table and line
        self.assert_reported(result, f"{lexicon_dir}: cannot load lexicon: cardinals.tsv:2")

    @pytest.mark.parametrize("edit,message", [
        (lambda m: m.update(tags=["B-COUNT", "COMP", "O"]), "tags must be"),
        (lambda m: m.update(tags=["O", "COMP", "COUNT"]), "tags must be"),
        (lambda m: m["features"].append("U9:x"), "feature 'U9:x' names no template"),
        (lambda m: m["features"].append("nocolon"), "feature 'nocolon' names no template"),
        (lambda m: m["features"].append("U1"), "feature 'U1' names no template"),
        (lambda m: m["features"].append(m["features"][0]), "repeated feature"),
        (lambda m: m["templates"].pop(), "templates must list the 15 fixed windows"),
        (lambda m: m["weights"][0].__setitem__(0, float("nan")), "weights must be finite"),
        (lambda m: m.update(relation=5), "relation must be null or an object of strings"),
        (lambda m: m.update(relation=["x"]), "relation must be null or an object of strings"),
        (lambda m: m["relation"].update(property=7), "relation must be null"),
        (lambda m: m["relation"].update(extra="x"), "relation must be null"),
        (lambda m: m.update(l2_sigma=-3.0), "l2_sigma must be positive"),
        (lambda m: m.update(l2_sigma=0), "l2_sigma must be positive"),
    ], ids=["tags-unknown", "tags-reordered", "feature-unknown-template",
            "feature-without-colon", "feature-template-name-only", "feature-repeated",
            "templates-not-the-fixed-windows", "weights-nan", "relation-number",
            "relation-list", "relation-number-field", "relation-unknown-field",
            "l2-sigma-negative", "l2-sigma-zero"])
    def test_defective_model_file(self, runner, fixture_dir, edit, message):
        config = write_config(fixture_dir)
        run_ok(runner, ["--config", str(config), "build-training"])
        run_ok(runner, ["--config", str(config), "train", "--max-iter", "5"])
        model = fixture_dir / "model.json"
        payload = json.loads(model.read_text(encoding="utf-8"))
        edit(payload)
        payload["weights"] += [[0.0] * 3] * (len(payload["features"]) - len(payload["weights"]))
        model.write_text(json.dumps(payload), encoding="utf-8")
        result = runner.invoke(main, ["--config", str(config), "extract"])
        self.assert_reported(result, model)
        assert f"Error: {model}: cannot load model: " in result.output
        assert message in result.output

    def test_model_with_malformed_features(self, runner, fixture_dir):
        model = fixture_dir / "model.json"
        model.write_text(json.dumps({"magic": "countquant-crf", "version": 2, "features": 5,
                                     "tags": ["O"], "templates": [], "weights": [],
                                     "transitions": [[0.0]]}), encoding="utf-8")
        result = runner.invoke(main, ["--config", str(write_config(fixture_dir)), "extract"])
        self.assert_reported(result, model)
        assert "cannot load model: corrupt model payload" in result.output


def test_cli_import_leaves_scipy_optimize_and_linalg_out():
    """scipy is used for its sparse matrix alone: its optimizer, which imports its
    dense linear algebra, added about 250 modules and 27 MB to every process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, countquant.cli; "
            "print(*[m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == ""
