from __future__ import annotations

import codecs
import json
import logging
import shutil
from pathlib import Path

import pytest

from countquant import crf
from countquant.cli import _load_end_to_end_score, _load_gold_counts, _load_predictions, load_config
from countquant.dsgen import load_corpus, read_conll
from countquant.kbstore import load_triples
from countquant.numlex import load_lexicon
from countquant.numlex.lexicon import _DATA_DIR
from countquant.reader import InputError, read_keyed, read_lines

from test_crf import TOY_DATA

MINI = Path(__file__).parent / "data" / "mini"


def crlf_copy(path: Path, out: Path) -> Path:
    out.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    return out


class TestReadLines:
    def test_splits_at_newline_only(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("a\u2028b\u0085c\x0bd\x0ce\x1cf\rg\r\nh\n\nlast", encoding="utf-8")
        assert list(read_lines(path)) == [
            (1, "a\u2028b\u0085c\x0bd\x0ce\x1cf\rg"), (2, "h"), (3, ""), (4, "last")
        ]

    @pytest.mark.parametrize("data,lines", [
        (b"", []), (b"\n", [(1, "")]), (b"a", [(1, "a")]), (b"a\r\n", [(1, "a")]),
        (b"a\r\r\n", [(1, "a\r")]), (b"a\r", [(1, "a\r")]),
    ])
    def test_final_newline(self, tmp_path, data, lines):
        path = tmp_path / "f.txt"
        path.write_bytes(data)
        assert list(read_lines(path)) == lines

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes("one\ntwo\nthr\u00e9e\n".encode("utf-8") + b"caf\xe9\n")
        with pytest.raises(InputError) as err:
            list(read_lines(path))
        assert str(err.value) == f"{path}:4: byte 0xe9 is not UTF-8"

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError) as err:
            list(read_lines(tmp_path / "nope.txt"))
        assert str(err.value) == f"{tmp_path / 'nope.txt'}: not found"

    def test_directory(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            list(read_lines(tmp_path))


class TestReadKeyed:
    @staticmethod
    def parse(line):
        if line.startswith("#"):
            return None
        key, value = line.split("=")
        return key, value

    def test_skips_blank_and_parse_none_lines(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("a=1\n\n  \n# a=2\nb=2\n", encoding="utf-8")
        assert read_keyed(path, self.parse, "bad pair") == {"a": "1", "b": "2"}

    def test_duplicate_subject(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("a=1\n# a=2\na=3\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            read_keyed(path, self.parse, "bad pair")
        assert str(err.value) == f"{path}:3: duplicate subject 'a'"

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("a=1\nb=2=3\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            read_keyed(path, self.parse, "bad pair")
        assert str(err.value).startswith(f"{path}:2: bad pair: ")


class TestJsonLinesRecords:
    """A valid JSON line that is not an object, or lacks a key, is named as such."""

    CORPUS = [
        ('["q01", "Hi ."]', "expected a JSON object, got list"),
        ("null", "expected a JSON object, got NoneType"),
        ('"Hi ."', "expected a JSON object, got str"),
        ('{"subject": "q01"}', "missing key 'text'"),
        ('{"text": "Hi ."}', "missing key 'subject'"),
    ]
    PREDICTIONS = [
        ('["a", 1, 0.5]', "expected a JSON object, got list"),
        ("7", "expected a JSON object, got int"),
        ('{"subject": "a", "count": 1}', "missing key 'confidence'"),
        ('{"count": 1, "confidence": 0.5}', "missing key 'subject'"),
    ]

    @pytest.mark.parametrize("line,reason", CORPUS)
    def test_corpus(self, tmp_path, line, reason):
        path = tmp_path / "c.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            load_corpus(path)
        assert str(err.value) == f"{path}:1: bad corpus record: {reason}"

    @pytest.mark.parametrize("line,reason", PREDICTIONS)
    def test_predictions(self, tmp_path, line, reason):
        path = tmp_path / "p.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            _load_predictions(str(path))
        assert str(err.value) == f"{path}:1: bad prediction record: {reason}"


class TestLineSeparatorsInText:
    def test_corpus_keeps_u2028_in_subject_and_text(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = {"subject": "a\u2028b", "text": "Hi\u2028there \u2029 ."}
        path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        assert load_corpus(path) == {"a\u2028b": "Hi\u2028there \u2029 ."}

    def test_gold_keeps_u2028_in_subject(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("a\u2028b\t2\n", encoding="utf-8")
        assert _load_gold_counts(str(path)) == {"a\u2028b": 2}


class TestCrlfInputs:
    """A CRLF copy of each input kind reads the same as the LF file."""

    def test_kb(self, tmp_path):
        assert load_triples(crlf_copy(MINI / "kb.tsv", tmp_path / "kb.tsv")) == load_triples(
            MINI / "kb.tsv"
        )

    def test_corpus(self, tmp_path):
        crlf = crlf_copy(MINI / "corpus.jsonl", tmp_path / "corpus.jsonl")
        assert load_corpus(crlf) == load_corpus(MINI / "corpus.jsonl")

    def test_gold_counts(self, tmp_path):
        crlf = crlf_copy(MINI / "gold.tsv", tmp_path / "gold.tsv")
        assert _load_gold_counts(str(crlf)) == _load_gold_counts(str(MINI / "gold.tsv"))

    def test_config(self, tmp_path):
        known = {"kb", "corpus", "relation", "threshold"}
        crlf = crlf_copy(MINI / "run.conf", tmp_path / "run.conf")
        assert load_config(str(crlf), known) == load_config(str(MINI / "run.conf"), known)

    def test_predictions(self, tmp_path):
        lf = tmp_path / "pred.jsonl"
        lf.write_text(
            '{"subject": "a", "count": 2, "confidence": 0.5}\n\n'
            '{"subject": "b", "count": 0, "confidence": 1}\n',
            encoding="utf-8",
        )
        crlf = crlf_copy(lf, tmp_path / "crlf.jsonl")
        assert _load_predictions(str(crlf)) == _load_predictions(str(lf))

    def test_conll(self, tmp_path):
        lf = tmp_path / "train.conll"
        lf.write_text("Trump\tTrump\tO\nthree\tCARDINAL\tCOUNT\n\nsons\tsons\tO\n",
                      encoding="utf-8")
        crlf = crlf_copy(lf, tmp_path / "crlf.conll")
        assert list(read_conll(crlf)) == list(read_conll(lf)) == [
            (["Trump", "CARDINAL"], ["O", "COUNT"]), (["sons"], ["O"])
        ]

    def test_metrics(self, tmp_path):
        lf = tmp_path / "metrics.json"
        lf.write_text(json.dumps({"end_to_end": {"precision": 0.9, "coverage": 0.5, "mae": 0.1}},
                                 indent=2) + "\n", encoding="utf-8")
        crlf = crlf_copy(lf, tmp_path / "crlf.json")
        assert _load_end_to_end_score(str(crlf)) == _load_end_to_end_score(str(lf))

    def test_model(self, tmp_path):
        lf = tmp_path / "model.json"
        crf.save_model(crf.train(TOY_DATA, feature_cutoff=1, max_iter=20), lf)
        lf.write_text(json.dumps(json.loads(lf.read_text(encoding="utf-8")), indent=1),
                      encoding="utf-8")
        loaded = crf.load_model(crlf_copy(lf, tmp_path / "crlf.json"))
        expected = crf.load_model(lf)
        assert loaded.gram_ids == expected.gram_ids
        assert (loaded.weights == expected.weights).all()

    def test_lexicon(self, tmp_path):
        shutil.copytree(_DATA_DIR, tmp_path / "lexicon")
        for table in (tmp_path / "lexicon").glob("*.tsv"):
            crlf_copy(table, table)
        assert load_lexicon(tmp_path / "lexicon") == load_lexicon(_DATA_DIR)


def bom_copy(path: Path, out: Path) -> Path:
    out.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return out


class TestByteOrderMark:
    """A UTF-8 byte-order mark before the first line is no text."""

    def test_leading_mark_only_is_dropped(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(codecs.BOM_UTF8 + b"a\tb\n" + codecs.BOM_UTF8 + b"c\n")
        assert list(read_lines(path)) == [(1, "a\tb"), (2, "\ufeffc")]
        path.write_bytes(codecs.BOM_UTF8)
        assert list(read_lines(path)) == []

    @pytest.mark.parametrize("data,lineno", [(b"caf\xe9\n", 1), (b"a\ncaf\xe9\n", 2),
                                             (b"\n\n\xe9", 3)])
    def test_undecodable_byte_keeps_its_line(self, tmp_path, data, lineno):
        path = tmp_path / "f.txt"
        path.write_bytes(codecs.BOM_UTF8 + data)
        with pytest.raises(InputError) as err:
            list(read_lines(path))
        assert str(err.value) == f"{path}:{lineno}: byte 0xe9 is not UTF-8"

    def test_gold_counts(self, tmp_path):
        gold = _load_gold_counts(str(bom_copy(MINI / "gold.tsv", tmp_path / "gold.tsv")))
        assert gold == _load_gold_counts(str(MINI / "gold.tsv"))
        assert not any(subject.startswith("\ufeff") for subject in gold)

    def test_kb(self, tmp_path):
        bom = bom_copy(MINI / "kb.tsv", tmp_path / "kb.tsv")
        assert load_triples(bom) == load_triples(MINI / "kb.tsv")

    def test_corpus(self, tmp_path):
        bom = bom_copy(MINI / "corpus.jsonl", tmp_path / "corpus.jsonl")
        assert load_corpus(bom) == load_corpus(MINI / "corpus.jsonl")

    def test_config(self, tmp_path):
        known = {"kb", "corpus", "relation", "threshold"}
        bom = bom_copy(MINI / "run.conf", tmp_path / "run.conf")
        assert load_config(str(bom), known) == load_config(str(MINI / "run.conf"), known)

    def test_model(self, tmp_path):
        path = tmp_path / "model.json"
        crf.save_model(crf.train(TOY_DATA, feature_cutoff=1, max_iter=20), path)
        loaded = crf.load_model(bom_copy(path, tmp_path / "bom.json"))
        assert loaded.gram_ids == crf.load_model(path).gram_ids


def test_kb_warning_names_the_path_as_given(tmp_path, caplog):
    path = tmp_path / "kb.tsv"
    path.write_text("".join(f"s{i}\tchild\to{i}\n" for i in range(20)) + "oops\n",
                    encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="countquant.kbstore"):
        load_triples(path)
    assert [r.getMessage() for r in caplog.records] == [f"{path}:21: malformed triple line"]
