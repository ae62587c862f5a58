from __future__ import annotations

import shutil

import pytest

from countquant.numlex import (
    LexiconFormatError,
    MentionAnnotation,
    MentionKind,
    Sentence,
    Token,
    load_default_lexicon,
    load_lexicon,
    make_sentence,
    preprocess_sentence,
    tokenize,
)
from countquant.numlex.lexicon import _DATA_DIR


class TestLexiconFiles:
    def test_default_equals_data_dir(self):
        assert load_default_lexicon() == load_lexicon(_DATA_DIR)

    def test_shipped_tables_plausible(self):
        lx = load_default_lexicon()
        assert lx.cardinal_words["three"] == 3
        assert lx.ordinal_words["third"] == 3
        assert lx.latin_greek_prefixes["penta"] == 5
        assert "plets" in lx.num_term_suffixes
        assert len(lx.latin_greek_prefixes) >= 30
        assert any(t.term == ("twins",) for t in lx.special_terms)
        # "a couple of" stays out by default (commented in the data file)
        assert not any("couple" in t.term for t in lx.special_terms)

    def test_malformed_line_raises(self, tmp_path):
        for name in ("cardinals", "ordinals", "prefixes", "special_terms"):
            (tmp_path / f"{name}.tsv").write_text("one\t1\n", encoding="utf-8")
        (tmp_path / "suffixes.tsv").write_text("plets\n", encoding="utf-8")
        (tmp_path / "affix_exceptions.tsv").write_text("", encoding="utf-8")
        (tmp_path / "cardinals.tsv").write_text("one 1\n", encoding="utf-8")  # no tab
        with pytest.raises(LexiconFormatError):
            load_lexicon(tmp_path)

    def test_duplicate_key_raises(self, tmp_path):
        for name in ("ordinals", "prefixes", "special_terms"):
            (tmp_path / f"{name}.tsv").write_text("first\t1\n", encoding="utf-8")
        (tmp_path / "suffixes.tsv").write_text("plets\n", encoding="utf-8")
        (tmp_path / "affix_exceptions.tsv").write_text("", encoding="utf-8")
        (tmp_path / "cardinals.tsv").write_text("one\t1\none\t1\n", encoding="utf-8")
        with pytest.raises(LexiconFormatError):
            load_lexicon(tmp_path)

    @pytest.mark.parametrize("table,rows,where", [
        ("prefixes", "tri\t3\nnulli\t0\n",
         "prefixes.tsv:2: value of 'nulli' must be a positive integer, got '0'"),
        ("special_terms", "twins\tNUMTERM:2\n# none\nnulliplets\tNUMTERM:0\n",
         "special_terms.tsv:3: number term 'nulliplets' must count at least 1, got 'NUMTERM:0'"),
    ], ids=["prefix", "special-term"])
    def test_zero_valued_number_term_rejected(self, tmp_path, table, rows, where):
        """A number term reads as a count of at least one, so a row of value 0 cannot load."""
        shutil.copytree(_DATA_DIR, tmp_path / "lexicon")
        (tmp_path / "lexicon" / f"{table}.tsv").write_text(rows, encoding="utf-8")
        with pytest.raises(LexiconFormatError) as info:
            load_lexicon(tmp_path / "lexicon")
        assert str(info.value).endswith(f"cannot load lexicon: {where}")

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        for name, content in {
            "cardinals": "# heading\n\none\t1\n",
            "ordinals": "first\t1\n",
            "prefixes": "tri\t3\n",
            "special_terms": "twins\tNUMTERM-plets:2\n",
        }.items():
            (tmp_path / f"{name}.tsv").write_text(content, encoding="utf-8")
        (tmp_path / "suffixes.tsv").write_text("# none\nplets\n", encoding="utf-8")
        (tmp_path / "affix_exceptions.tsv").write_text("# none\n", encoding="utf-8")
        lx = load_lexicon(tmp_path)
        assert lx.cardinal_words == {"one": 1}

    def test_shipped_in_place_terms_are_numterms_with_values(self):
        rows = [line.split("\t") for line in
                (_DATA_DIR / "special_terms.tsv").read_text(encoding="utf-8").splitlines()
                if line and not line.startswith("#")]
        in_place = {term: int(repl.partition(":")[2])
                    for term, repl in rows if repl.startswith("NUMTERM")}
        assert in_place == {"twins": 2, "twin": 2, "duo": 2, "trio": 3, "solo": 1}
        lx = load_default_lexicon()
        specials = {" ".join(t.term): t for t in lx.special_terms}
        for term, value in in_place.items():
            assert specials[term].replacement_text is None
            assert specials[term].value == value
            sentence = preprocess_sentence(tokenize(f"They are a {term} .")[0], lx)
            [(position, mention)] = sentence.mentions
            assert (sentence.surfaces()[position], mention.kind, mention.value) == (
                term, MentionKind.NUMTERM, value)
            assert mention.placeholder == "NUMTERM"

    def test_suffixed_numterm_row_reads_as_bare_numterm(self, tmp_path):
        lexicons = []
        for name, row in (("suffixed", "twins\tNUMTERM-plets:2\n"),
                          ("bare", "twins\tNUMTERM:2\n")):
            shutil.copytree(_DATA_DIR, tmp_path / name)
            (tmp_path / name / "special_terms.tsv").write_text(row, encoding="utf-8")
            lexicons.append(load_lexicon(tmp_path / name))
        assert lexicons[0] == lexicons[1]
        assert lexicons[0].special_terms[0].value == 2

    def test_and_is_no_cardinal(self, tmp_path):
        """The number-word grammar reads "and" only as a joiner, so a value for it cannot load."""
        shutil.copytree(_DATA_DIR, tmp_path / "lexicon")
        with open(tmp_path / "lexicon" / "cardinals.tsv", "a", encoding="utf-8") as table:
            table.write("\nAnd\t5\n")
        with pytest.raises(LexiconFormatError) as info:
            load_lexicon(tmp_path / "lexicon")
        assert str(info.value).endswith(
            "cannot load lexicon: cardinals.tsv: 'and' joins number words, it is no cardinal")

    def test_cardinal_outside_the_word_grammar_is_a_number_on_its_own(self, tmp_path):
        """A cardinal word valued other than 0-99, 100 or 1000 neither takes nor continues one."""
        shutil.copytree(_DATA_DIR, tmp_path / "lexicon")
        with open(tmp_path / "lexicon" / "cardinals.tsv", "a", encoding="utf-8") as table:
            table.write("\ngross\t144\n")
        lx = load_lexicon(tmp_path / "lexicon")
        (sentence,) = tokenize("They sold one gross one hundred pens and a gross .")
        sentence = preprocess_sentence(sentence, lx)
        assert [(sentence.surfaces()[p], m.value) for p, m in sentence.mentions] == [
            ("one", 1), ("gross", 144), ("one hundred", 100), ("gross", 144)]


class TestAnnotationInvariants:
    def test_article_value_fixed(self):
        with pytest.raises(ValueError):
            MentionAnnotation(kind=MentionKind.ARTICLE, value=2)

    def test_zero_value_fixed(self):
        with pytest.raises(ValueError):
            MentionAnnotation(kind=MentionKind.ZERO, value=1)

    def test_numterm_positive(self):
        with pytest.raises(ValueError):
            MentionAnnotation(kind=MentionKind.NUMTERM, value=0)

    def test_placeholder_derived(self):
        plain = MentionAnnotation(kind=MentionKind.ORDINAL, value=3)
        assert plain.placeholder == "ORDINAL"
        numterm = MentionAnnotation(kind=MentionKind.NUMTERM, value=2)
        assert numterm.placeholder == "NUMTERM"
        article = MentionAnnotation(kind=MentionKind.ARTICLE, value=1)
        assert article.placeholder == "CARDINAL"
        zero = MentionAnnotation(kind=MentionKind.ZERO, value=0)
        assert zero.placeholder == "CARDINAL"

    def test_sentence_index_invariant(self):
        one = MentionAnnotation(kind=MentionKind.CARDINAL, value=1)
        for mentions in ([(1, one)], [(-1, one)], [(0, one), (0, one)]):
            with pytest.raises(ValueError):
                Sentence(("one",), ("one",), tuple(mentions))
        with pytest.raises(ValueError):
            Sentence(("a", "b"), ("a",))
        # make_sentence reads positions from the order of its tokens, not their indices
        fixed = make_sentence([Token(surface="one", lemma="one", index=3, mention=one)])
        assert fixed.mentions == ((0, one),)
        assert [tok.index for tok in fixed] == [0]
