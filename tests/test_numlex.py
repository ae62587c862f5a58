from __future__ import annotations

import itertools
import pickle
import shutil
import string
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from countquant.numlex import (
    INFERENCE_MODE,
    TRAIN_MODE,
    MentionAnnotation,
    MentionKind,
    Sentence,
    Token,
    load_default_lexicon,
    load_lexicon,
    make_sentence,
    preprocess_sentence,
    to_placeholder_sequence,
    tokenize,
)
from countquant.numlex import mentions
from countquant.numlex.lexicon import _READINGS_SIZE, DEAD, LIVE, ZERO_CUE
from countquant.numlex.mentions import _match_special, _parse_cardinal_words
from countquant.numlex.tokenizer import lemmatize

from oracles import (
    cardinal_renderings,
    detokenize,
    reference_affix_value,
    reference_match_special,
    reference_preprocess,
    reference_tokenize,
)

LEXICON = load_default_lexicon()


def _mention_tokens(sentence):
    """The token views of *sentence* that carry a mention, in order."""
    return [tok for tok in sentence if tok.mention is not None]


class TestTokenize:
    def test_whitespace_and_punctuation_split(self):
        sentences = tokenize("Trump has three children.")
        assert len(sentences) == 1
        assert sentences[0].surfaces() == ("Trump", "has", "three", "children", ".")

    def test_empty_input(self):
        assert tokenize("") == []

    def test_sentence_split_on_period(self):
        sentences = tokenize("He directed twenty movies. He retired.")
        assert len(sentences) == 2
        assert sentences[0].surfaces()[-1] == "."

    def test_decimal_stays_one_token(self):
        (s,) = tokenize("It weighs 3.5 tons")
        assert "3.5" in s.surfaces()

    def test_comma_groups_only_before_three_digits(self):
        (s,) = tokenize("children in 1999,2001,2004")
        assert s.surfaces() == ("children", "in", "1999", ",", "2001", ",", "2004")
        (s,) = tokenize("He has 1,2 sons")
        assert s.surfaces() == ("He", "has", "1", ",", "2", "sons")
        (s,) = tokenize("It sold 1,200 or 1,234.5 or 12,3456 units")
        assert s.surfaces() == (
            "It", "sold", "1,200", "or", "1,234.5", "or", "12", ",", "3456", "units",
        )

    def test_comma_groups_only_after_one_to_three_digits(self):
        (s,) = tokenize("children in 1999,200 people or 1999,200.5 or 12,345,678 or 12345")
        assert s.surfaces() == (
            "children", "in", "1999", ",", "200", "people", "or", "1999", ",", "200.5",
            "or", "12,345,678", "or", "12345",
        )

    def test_contraction_split(self):
        (s,) = tokenize("They didn't stay")
        assert s.surfaces() == ("They", "did", "n't", "stay")

    @pytest.mark.parametrize("text,surfaces,lemmas", [
        ("the 23rd's finale", ("the", "23rd", "'", "s", "finale"),
         ("the", "23rd", "'", "s", "finale")),
        ("It ISN'T so", ("It", "IS", "n't", "so"), ("it", "be", "not", "so")),
    ], ids=["ordinal-then-clitic", "upper-case-clitic"])
    def test_contractions_split_after_the_token_regex(self, text, surfaces, lemmas):
        """The clitic split keeps "23rd" "'" "s" and lowercases "N'T" to "n't"."""
        (s,) = tokenize(text)
        assert (s.surfaces(), s.lemmas()) == (surfaces, lemmas)

    def test_indices_contiguous(self):
        (s,) = tokenize("a b c d")
        assert [t.index for t in s] == [0, 1, 2, 3]

    def test_lemmas(self):
        assert lemmatize("Children") == "child"
        assert lemmatize("has") == "have"
        assert lemmatize("sons") == "son"
        assert lemmatize("counties") == "county"
        assert lemmatize("brought") == "bring"
        assert lemmatize("always") == "always"


class TestSentence:
    def test_mentions_computed_once(self, prep):
        s = prep("She has twenty one children and a dozen cats")
        assert s.mentions is s.mentions
        rebuilt = Sentence(s.surfaces(), s.lemmas(), s.mentions)
        assert rebuilt == s and hash(rebuilt) == hash(s)
        assert [(s.surfaces()[p], m.value) for p, m in s.mentions] == [
            ("twenty one", 21), ("twelve", 12)]

    def test_pickles_as_its_tokens(self, prep):
        """A preprocessed sentence is its token views, and pickles as its columns."""
        for mode, zero_mode in itertools.product((TRAIN_MODE, INFERENCE_MODE), (False, True)):
            s = prep("She never had a dozen kids , not twenty one", mode=mode, zero_mode=zero_mode)
            assert s.mentions
            assert make_sentence(list(s)) == s
            fresh = Sentence(s.surfaces(), s.lemmas(), s.mentions)
            assert pickle.dumps(s) == pickle.dumps(fresh)
            back = pickle.loads(pickle.dumps(s))
            assert back == s and back.mentions == s.mentions

    @pytest.mark.parametrize("zero_mode", [False, True])
    def test_preprocess_returns_input_when_nothing_changes(self, prep, zero_mode):
        (plain,) = tokenize("She wrote poems .")
        assert preprocess_sentence(plain, LEXICON, zero_mode=zero_mode) is plain
        done = prep("She has twenty one children", zero_mode=zero_mode)
        assert preprocess_sentence(done, LEXICON, zero_mode=zero_mode) is done
        (unpaired,) = tokenize("Any child did not come .")
        assert preprocess_sentence(unpaired, LEXICON, zero_mode=zero_mode) is unpaired


class TestAnnotateMentions:
    def test_twins_is_suffixed_numterm(self, prep):
        """The "-plets" of "twins" leaves no trace: its placeholder is the bare NUMTERM."""
        s = prep("her twins")
        (tok,) = _mention_tokens(s)
        assert tok.surface == "twins"
        assert tok.mention == MentionAnnotation(MentionKind.NUMTERM, 2)
        assert tok.mention.placeholder == "NUMTERM"

    def test_article_only_at_inference(self, prep):
        s = prep("a son", mode=INFERENCE_MODE)
        tok = list(s)[0]
        assert tok.mention is not None
        assert tok.mention.kind is MentionKind.ARTICLE
        assert tok.mention.value == 1
        assert prep("a son").mentions == ()

    def test_pentalogy(self, prep):
        s = prep("pentalogy")
        (tok,) = _mention_tokens(s)
        assert tok.mention == MentionAnnotation(MentionKind.NUMTERM, 5)
        assert tok.mention.placeholder == "NUMTERM"

    def test_digit_and_comma_cardinals(self, prep):
        s = prep("He won 1,200 games in 58 counties")
        assert [t.mention.value for t in _mention_tokens(s)] == [1200, 58]

    def test_comma_separated_years_are_separate_cardinals(self, prep):
        s = prep("children in 1999,2001,2004", mode=INFERENCE_MODE)
        assert [t.mention.value for t in _mention_tokens(s)] == [1999, 2001, 2004]
        assert [t.mention.kind for t in _mention_tokens(s)] == [MentionKind.CARDINAL] * 3

    def test_comma_after_long_group_is_not_a_separator(self, prep):
        s = prep("children in 1999,200 people", mode=INFERENCE_MODE)
        assert [t.mention.value for t in _mention_tokens(s)] == [1999, 200]

    def test_comma_before_short_group_is_not_a_separator(self, prep):
        s = prep("He has 1,2 sons", mode=INFERENCE_MODE)
        assert [t.mention.value for t in _mention_tokens(s)] == [1, 2]

    @pytest.mark.parametrize("surface", ["1,2", "1999,2001", "1,2345", "1,", "1999,200"])
    def test_digit_cardinal_needs_three_digit_groups(self, surface):
        s = make_sentence([Token(surface=surface, lemma=surface, index=0)])
        assert preprocess_sentence(s, LEXICON).mentions == ()

    @pytest.mark.parametrize("text,mentions", [
        ("999,999 fans", [(MentionKind.CARDINAL, 999_999)]),
        ("the 999999th fan", [(MentionKind.ORDINAL, 999_999)]),
        ("0000005 fans", [(MentionKind.CARDINAL, 5)]),
        ("1,000,000 fans", []),
        ("1000000 fans", []),
        ("the 1000000th fan", []),
        # more digits than int() converts
        pytest.param(f"{'9' * 5000} fans and the {'1' * 5000}th", [], id="5000-digits"),
    ])
    def test_digit_numbers_share_the_word_grammar_cap(self, prep, text, mentions):
        assert [(t.mention.kind, t.mention.value) for t in _mention_tokens(prep(text))] == mentions

    def test_decimals_are_not_mentions(self, prep):
        assert prep("He ran 3.5 miles").mentions == ()

    def test_multiword_cardinal_merges(self, prep):
        s = prep("one hundred and five children")
        (tok,) = _mention_tokens(s)
        assert tok.mention.value == 105
        assert tok.surface == "one hundred and five"
        assert len(s) == 2

    def test_and_does_not_glue_plain_numbers(self, prep):
        s = prep("three biological and three adopted")
        assert [t.mention.value for t in _mention_tokens(s)] == [3, 3]

    @pytest.mark.parametrize("text,value", [
        ("ten thousand and five fans", 10_005),
        ("two thousand and twenty five fans", 2025),
        ("one thousand and one nights", 1001),
        ("five thousand and three hundred fans", 5300),
    ])
    def test_and_absorbed_after_thousand(self, prep, text, value):
        (tok,) = _mention_tokens(prep(text))
        assert tok.mention.value == value
        assert tok.surface == " ".join(text.split()[:-1])

    @pytest.mark.parametrize("text,value", [
        ("twenty one hundred children", 2100),
        ("ninety nine hundred and ninety nine children", 9999),
        ("twenty hundred children", 2000),
    ])
    def test_hundred_after_tens(self, prep, text, value):
        (tok,) = _mention_tokens(prep(text))
        assert tok.mention.value == value
        assert tok.surface == " ".join(text.split()[:-1])

    @pytest.mark.parametrize("text,expected", [
        ("twenty one hundred thousand fans", [("twenty one hundred", 2100)]),
        ("nineteen hundred thousand fans", [("nineteen hundred", 1900)]),
        # after "thousand" only a unit multiplies "hundred"
        ("nine hundred ninety nine thousand nineteen hundred ninety nine fans",
         [("nine hundred ninety nine thousand nineteen", 999_019), ("ninety nine", 99)]),
        ("two thousand eleven hundred pages", [("two thousand eleven", 2011)]),
    ])
    def test_hundred_thousand_stays_under_cap(self, prep, text, expected):
        s = prep(text)
        assert [(t.surface, t.mention.value) for t in _mention_tokens(s)] == expected

    def test_word_grammar_reaches_cap(self, prep):
        s = prep("nine hundred ninety nine thousand nine hundred ninety nine fans")
        (tok,) = _mention_tokens(s)
        assert tok.mention.value == 999_999

    def test_zero_word_is_cardinal_zero(self, prep):
        s = prep("zero complaints")
        (tok,) = _mention_tokens(s)
        assert (tok.mention.kind, tok.mention.value) == (MentionKind.CARDINAL, 0)

    def test_hyphenated_cardinal_and_ordinal(self, prep):
        s = prep("twenty-one books on his twenty-first birthday")
        values = [(t.mention.kind, t.mention.value) for t in _mention_tokens(s)]
        assert values == [(MentionKind.CARDINAL, 21), (MentionKind.ORDINAL, 21)]

    @pytest.mark.parametrize("mode", [TRAIN_MODE, INFERENCE_MODE])
    @pytest.mark.parametrize("text,surface,value", [
        ("He has a hundred descendants", "a hundred", 100),
        ("a thousand fans", "a thousand", 1000),
        ("a hundred and five fans", "a hundred and five", 105),
        ("an hundred thousand fans", "an hundred thousand", 100_000),
    ])
    def test_article_before_scale_word_reads_one(self, prep, mode, text, surface, value):
        s = prep(text, mode=mode)
        assert [(t.surface, t.mention.kind, t.mention.value) for t in _mention_tokens(s)] == [
            (surface, MentionKind.CARDINAL, value)
        ]

    def test_article_before_other_word_is_unchanged(self, prep):
        s = prep("a twenty dollar bill and a son", mode=INFERENCE_MODE)
        assert [(t.surface, t.mention.kind, t.mention.value) for t in _mention_tokens(s)] == [
            ("a", MentionKind.ARTICLE, 1),
            ("twenty", MentionKind.CARDINAL, 20),
            ("a", MentionKind.ARTICLE, 1),
        ]

    @pytest.mark.parametrize("mode", [TRAIN_MODE, INFERENCE_MODE])
    @pytest.mark.parametrize("text,value", [
        ("twenty-one hundred fans", 2100),
        ("twenty-one thousand fans", 21_000),
        ("one-hundred and five fans", 105),
    ])
    def test_hyphenated_cardinal_takes_scale_word(self, prep, mode, text, value):
        hyphenated = _mention_tokens(prep(text, mode=mode))
        spaced = _mention_tokens(prep(text.replace("-", " "), mode=mode))
        assert [(t.surface, t.mention.value) for t in hyphenated] == [
            (" ".join(text.split()[:-1]), value)
        ]
        assert [t.mention.value for t in spaced] == [value]

    @pytest.mark.parametrize("mode", [TRAIN_MODE, INFERENCE_MODE])
    @pytest.mark.parametrize("zero_mode,expected", [
        (False, []),
        (True, [("No", MentionKind.ZERO, 0)]),
    ])
    def test_one_after_no_is_not_a_cardinal(self, prep, mode, zero_mode, expected):
        s = prep("No one knows .", mode=mode, zero_mode=zero_mode)
        assert [(t.surface, t.mention.kind, t.mention.value) for t in _mention_tokens(s)] == expected

    @pytest.mark.parametrize("zero_mode", [False, True])
    def test_no_and_one_apart_are_unchanged(self, prep, zero_mode):
        no = prep("He has no children", zero_mode=zero_mode)
        assert [(t.surface, t.mention.kind) for t in _mention_tokens(no)] == (
            [("no", MentionKind.ZERO)] if zero_mode else []
        )
        one = prep("one child and no , one son", zero_mode=zero_mode)
        assert [(t.surface, t.mention.value) for t in _mention_tokens(one)] == (
            [("one", 1), ("no", 0), ("one", 1)] if zero_mode else [("one", 1), ("one", 1)]
        )

    def test_digit_ordinal(self, prep):
        s = prep("the 23rd season")
        (tok,) = _mention_tokens(s)
        assert tok.mention.kind is MentionKind.ORDINAL
        assert tok.mention.value == 23

    def test_affix_exceptions_not_decoded(self, prep):
        assert prep("a strict diet").mentions == ()

    def test_number_term_read_from_the_surface(self):
        """A number term is read from its surface, as liveness is, not from the lemma."""
        plural = preprocess_sentence(Sentence(("her", "trilogies"), ("her", "x")), LEXICON)
        assert plural.mentions == ((1, MentionAnnotation(MentionKind.NUMTERM, 3)),)
        saga = make_sentence([Token("her", "her", 0), Token("Saga", "trilogy", 1)])
        assert preprocess_sentence(saga, LEXICON).mentions == ()

    def test_idempotent(self, prep):
        s = prep("She has twenty one children and a dozen cats, honestly.")
        again = preprocess_sentence(s, LEXICON)
        assert again == s


class TestNormalizeSpecialTerms:
    def test_thrice_becomes_three_times(self, lexicon):
        (s,) = tokenize("thrice")
        out = preprocess_sentence(s, lexicon)
        assert out.surfaces() == ("three", "times")
        assert list(out)[0].mention.value == 3

    def test_a_dozen_becomes_twelve(self, lexicon):
        (s,) = tokenize("She bought a dozen eggs")
        out = preprocess_sentence(s, lexicon)
        assert out.surfaces() == ("She", "bought", "twelve", "eggs")
        assert list(out)[2].mention.value == 12

    def test_twins_kept_as_placeholder_token(self, lexicon):
        (s,) = tokenize("her twins arrived")
        out = preprocess_sentence(s, lexicon)
        assert out.surfaces() == ("her", "twins", "arrived")
        assert list(out)[1].mention.placeholder == "NUMTERM"

    def test_reindexes(self, lexicon):
        (s,) = tokenize("thrice happy")
        out = preprocess_sentence(s, lexicon)
        assert [t.index for t in out] == [0, 1, 2]


class TestRewriteZeroCues:
    @pytest.mark.parametrize(
        "before,after",
        [
            ("They didn't have any children", "They have no children"),
            ("He has never been married", "He has been married 0 times"),
            ("The marriage was without children", "The marriage was with no children"),
        ],
    )
    def test_schema_pairs(self, before, after):
        (s,) = tokenize(before)
        assert detokenize(preprocess_sentence(s, LEXICON, zero_mode=True)) == after

    def test_zero_tokens_annotated(self):
        (s,) = tokenize("He has never been married")
        out = preprocess_sentence(s, LEXICON, zero_mode=True)
        zero = [t for t in out if t.mention is not None]
        assert len(zero) == 1
        assert zero[0].surface == "0"
        assert zero[0].mention.kind is MentionKind.ZERO
        assert zero[0].mention.placeholder == "CARDINAL"

    def test_plain_no_annotated(self):
        (s,) = tokenize("They have no children")
        out = preprocess_sentence(s, LEXICON, zero_mode=True)
        assert dict(out.mentions)[2].value == 0

    def test_terminal_punctuation_kept_last(self):
        (s,) = tokenize("He has never been married.")
        out = preprocess_sentence(s, LEXICON, zero_mode=True)
        assert out.surfaces()[-3:] == ("0", "times", ".")

    def test_repeated_never_counts_zero_once(self):
        (s,) = tokenize("She never sang and never acted.")
        out = preprocess_sentence(s, LEXICON, zero_mode=True)
        assert detokenize(out) == "She sang and acted 0 times."
        assert [t.surface for t in _mention_tokens(out)] == ["0"]

    def test_handled_patterns_removed(self):
        texts = [
            "They didn't have any children and he didn't write any books",
            "She never sang and never acted",
            "A day without rain and without sun",
        ]
        for text in texts:
            (s,) = tokenize(text)
            out = preprocess_sentence(s, LEXICON, zero_mode=True)
            surfaces = [t.lower() for t in out.surfaces()]
            assert "never" not in surfaces
            assert "without" not in surfaces
            for j, w in enumerate(surfaces):
                if w == "n't":
                    assert "any" not in surfaces[j:]

    @pytest.mark.parametrize("before,surfaces", [
        ("did didn't not any any", ["no", "no"]),
        ("did never n't any", ["did", "n't", "any", "0", "times"]),
        ("never", ["0", "times"]),
        ("She left without", ["She", "left", "with", "no"]),
        ("No one knows", ["No", "one", "knows"]),
    ], ids=["nested-pairs", "never-blocks-pair", "only-never", "final-without", "no-one"])
    def test_edge_cases(self, before, surfaces):
        (s,) = tokenize(before)
        out = preprocess_sentence(s, LEXICON, zero_mode=True)
        assert list(out.surfaces()) == surfaces
        assert [(t.surface, t.mention.kind) for t in _mention_tokens(out)] == [
            (w, MentionKind.ZERO) for w in surfaces if w.lower() in ("no", "0")
        ]
        assert out == reference_preprocess(s, LEXICON, TRAIN_MODE, zero_mode=True)


class TestPlaceholderSequence:
    def test_full_sentence_rewrite(self, prep):
        s = prep("Donald Trump has three children from his first wife .")
        assert to_placeholder_sequence(s) == [
            "donald", "trump", "have", "CARDINAL", "child",
            "from", "his", "ORDINAL", "wife", ".",
        ]

    def test_no_mentions_is_lemma_sequence(self, prep):
        s = prep("the gala was lovely")
        assert to_placeholder_sequence(s) == ["the", "gala", "be", "lovely"]

    def test_numterm_is_the_bare_placeholder(self, prep):
        s = prep("her twins , one daughter")
        assert to_placeholder_sequence(s) == ["her", "NUMTERM", ",", "CARDINAL", "daughter"]

    def test_full_keeps_suffix(self, tmp_path):
        """A suffixed in-place row ("NUMTERM-plets:2") keeps no suffix in the sequence."""
        shutil.copytree(Path(mentions.__file__).parent / "data", tmp_path / "lexicon")
        (tmp_path / "lexicon" / "special_terms.tsv").write_text(
            "twins\tNUMTERM-plets:2\n", encoding="utf-8")
        (s,) = tokenize("her twins")
        out = preprocess_sentence(s, load_lexicon(tmp_path / "lexicon"))
        assert to_placeholder_sequence(out) == ["her", "NUMTERM"]
        assert dict(out.mentions)[1].value == 2

    def test_length_matches_tokens(self, prep):
        s = prep("she raised twenty one children and two dogs .")
        assert len(to_placeholder_sequence(s)) == len(s)


# -- properties ---------------------------------------------------------------

_word = st.one_of(
    st.sampled_from(
        ["one", "two", "three", "twenty", "hundred", "and", "a", "an", "first",
         "third", "twins", "dozen", "children", "cats", "wrote", "has", "never",
         "without", "any", "no", "pentalogy", "triplets", "7", "1,200", "3.5",
         "times", ",", "."]
    ),
    st.text(alphabet=string.ascii_letters, min_size=1, max_size=8),
)
_texts = st.lists(_word, min_size=1, max_size=12).map(" ".join)


@settings(max_examples=150)
@given(_texts)
def test_annotate_idempotent_property(text):
    for sentence in tokenize(text):
        once = preprocess_sentence(sentence, LEXICON, mode=INFERENCE_MODE)
        twice = preprocess_sentence(once, LEXICON, mode=INFERENCE_MODE)
        assert once == twice


@settings(max_examples=150)
@given(_texts)
def test_annotation_deterministic_property(text):
    runs = [
        [
            (t.surface, t.mention.value if t.mention else None)
            for s in tokenize(text)
            for t in preprocess_sentence(s, LEXICON, mode=INFERENCE_MODE)
        ]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


@settings(max_examples=150)
@given(_texts)
def test_placeholder_length_property(text):
    for sentence in tokenize(text):
        processed = preprocess_sentence(sentence, LEXICON, mode=INFERENCE_MODE)
        assert len(to_placeholder_sequence(processed)) == len(processed)


@settings(max_examples=150)
@given(_texts)
def test_zero_rewrite_removes_cues_property(text):
    for sentence in tokenize(text):
        out = preprocess_sentence(sentence, LEXICON, zero_mode=True)
        surfaces = [t.lower() for t in [tok.surface for tok in out]]
        assert "never" not in surfaces
        assert "without" not in surfaces


@settings(max_examples=300)
@given(st.lists(
    st.sampled_from(["one", "nine", "nineteen", "twenty", "ninety", "hundred", "thousand", "and"]),
    min_size=1, max_size=10,
))
def test_word_grammar_never_exceeds_cap_property(words):
    parsed = _parse_cardinal_words(words, LEXICON.cardinal_words)
    assert parsed is None or parsed[0] <= 999_999


@settings(max_examples=300)
@given(st.integers(1, 999_999).flatmap(
    lambda n: st.tuples(st.just(n), st.sampled_from(cardinal_renderings(n)))))
def test_word_grammar_reads_every_spelling_property(spelling):
    """Each spelling of n, with every optional "and" and in hundreds, reads whole as n."""
    n, words = spelling
    assert _parse_cardinal_words(words + ["x"], LEXICON.cardinal_words) == (n, len(words))


# -- the compiled lexicon tables against their references ---------------------


_special_words = sorted({w for t in LEXICON.special_terms for w in t.term})
_prefixes = sorted(LEXICON.latin_greek_prefixes)
_suffixes = sorted(LEXICON.num_term_suffixes)
_random_word = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
_affix_word = st.one_of(
    st.builds(str.__add__, st.sampled_from(_prefixes), st.sampled_from(_suffixes)),
    st.builds(str.__add__, _random_word, st.sampled_from(_suffixes)),
    st.sampled_from(sorted(LEXICON.affix_exceptions) + _prefixes + _suffixes),
    _random_word,
)
_special_word = st.one_of(st.sampled_from(_special_words), _random_word)


@settings(max_examples=300)
@given(st.lists(_special_word, min_size=1, max_size=8).map(tuple))
def test_match_special_equals_naive_scan_property(words):
    for i in range(len(words)):
        assert _match_special(words, i, LEXICON) == reference_match_special(words, i, LEXICON)


@settings(max_examples=300)
@given(_affix_word)
def test_affixed_words_equal_naive_scan_property(word):
    assert LEXICON.affixed_words.get(word) == reference_affix_value(word, LEXICON)


def test_compiled_tables_on_overlapping_lexicon(tmp_path):
    """Special terms sharing a first token, and nested suffixes, match the references."""
    for name, content in {
        "cardinals": "one\t1\ntwo\t2\nsix\t6\ntwelve\t12\nthirteen\t13\n",
        "ordinals": "first\t1\n",
        "prefixes": "tri\t3\nquint\t5\nquintu\t50\nse\t7\n",
        "special_terms": (
            "a\tNUMTERM-o:1\na dozen\ttwelve\na pair of\ttwo\nhalf a dozen\tsix\n"
            "a dozen\tthirteen\ntwins\tNUMTERM-plets:2\n"
        ),
    }.items():
        (tmp_path / f"{name}.tsv").write_text(content, encoding="utf-8")
    (tmp_path / "suffixes.tsv").write_text("plets\nuplets\nts\n", encoding="utf-8")
    (tmp_path / "affix_exceptions.tsv").write_text("septs\n", encoding="utf-8")
    lexicon = load_lexicon(tmp_path)

    # the longest suffix decides the split: quint + uplets, not quintu + plets
    assert lexicon.affixed_words.get("quintuplets") == 5
    assert lexicon.affixed_words.get("triplets") == 3
    assert lexicon.affixed_words.get("septs") is None
    words = ["quintuplets", "quintuplet", "triplets", "triuplets", "uplets", "plets",
             "septs", "sets", "quintus", "quintuts"]
    for word in words:
        assert lexicon.affixed_words.get(word) == reference_affix_value(word, lexicon), word

    # equal lengths keep table order: the first "a dozen" row wins
    assert _match_special(("a", "dozen"), 0, lexicon).replacement_text == "twelve"
    vocab = ["a", "dozen", "pair", "of", "half", "twins", "x"]
    for words in itertools.product(vocab, repeat=3):
        for i in range(3):
            assert _match_special(words, i, lexicon) == reference_match_special(
                words, i, lexicon
            ), (words, i)


def test_readings_stay_bounded():
    """A lexicon reads a surface's lowercase form and liveness once, for a bounded set."""
    lexicon = load_default_lexicon()
    for k in range(_READINGS_SIZE + 100):
        assert lexicon.readings[f"Word{k}"] == (f"word{k}", DEAD)
        assert len(lexicon.readings) <= _READINGS_SIZE
    assert [lexicon.readings[w] for w in ("Twenty-One", "Trilogies", "No", "cats", "and")] == [
        ("twenty-one", LIVE), ("trilogies", LIVE), ("no", ZERO_CUE), ("cats", DEAD),
        ("and", DEAD)]


# -- tokenize and preprocess_sentence against their references ----------------
#
# oracles.reference_tokenize and oracles.reference_preprocess state both; they
# share the module's number parsers, so both sides read numbers the same way.

# Special terms that start with a cardinal word ("two score", "hundred
# weight"), so a word-cardinal run meets them, and replacement texts whose
# words are no cardinal words: an article, digits, a hyphenated cardinal, an
# ordinal and an affixed number term.
_REFERENCE_SPECIALS = (
    "two score\ta 40\n"
    "score\tNUMTERM-o:20\n"
    "hundred weight\tNUMTERM-o:100\n"
    "gross\ttwenty-one and 3rd trilogy\n"
)


class _Lexicons(dict):
    """Lexicons by name; the repr names them only, so a failing example shows its input."""

    def __repr__(self) -> str:
        return f"<lexicons {', '.join(self)}>"


@pytest.fixture(scope="module")
def reference_lexicons(tmp_path_factory):
    directory = tmp_path_factory.mktemp("lexicon")
    for table in (Path(mentions.__file__).parent / "data").glob("*.tsv"):
        shutil.copy(table, directory / table.name)
    (directory / "special_terms.tsv").write_text(_REFERENCE_SPECIALS, encoding="utf-8")
    return _Lexicons(shipped=LEXICON, custom=load_lexicon(directory))


# Chunks of one or more words, drawn by kind so that cardinal runs meet
# special terms, and negations meet auxiliaries, often.
_reference_chunk = st.one_of(
    st.sampled_from(sorted(LEXICON.cardinal_words) + ["and"]),
    st.sampled_from(
        sorted({" ".join(t.term) for t in LEXICON.special_terms}
               | {line.split("\t")[0] for line in _REFERENCE_SPECIALS.splitlines()})
    ),
    st.sampled_from(
        _special_words
        + ["score", "weight", "a", "an", "first", "third", "twenty-first", "twenty-one",
           "3rd", "7", "1,200", "1999,200", "12,345,678", "3.5", "pentalogy", "trilogy",
           "triplets", "no", "no one", "0", "never", "without", "any", "didn't", "times", "children",
           "do", "does", "did", "not", "Didn't", "Any", "Never", "Without", "No", ",", "."]
    ),
    # auxiliaries, then negations or "never", then "any"s: pairs nest ("did did
    # n't n't any any"), and a "never" can sit between a pair's two words
    st.tuples(
        st.lists(st.sampled_from(["did", "Does", "do"]), min_size=1, max_size=3),
        st.lists(st.sampled_from(["n't", "not", "Not", "never"]), min_size=1, max_size=3),
        st.lists(st.sampled_from(["any", "Any", "children"]), max_size=3),
    ).map(lambda parts: " ".join(sum(parts, []))),
    st.text(alphabet=string.ascii_letters, min_size=1, max_size=6),
)

# Words of every lexicon table, as they are and title-cased, plurals that only
# their lemma makes affixed ("trilogies"), and the cases where tokenizing or
# the live-token rule could go wrong: clitics, hyphenated numbers, digits,
# zero cues, terminals, "BOS" and non-ASCII letters.
_lexicon_words = st.sampled_from(
    sorted(LEXICON.live_words)
    + sorted({" ".join(t.term) for t in LEXICON.special_terms})
    + sorted(w[:-1] + "ies" for w in LEXICON.affixed_words if w.endswith("y"))
)
_per_word_chunk = st.one_of(
    _lexicon_words,
    _lexicon_words.map(str.title),
    st.sampled_from(
        ["isn't", "ISN'T", "Didn’t", "did n't", "Maria’s", "it's", "23rd's", "twenty-one",
         "Twenty-First", "forty-two", "ninety-ninth", "one-hundred", "well-known", "1,200",
         "12,345,678", "1999,200", "1,2", "3.5", "23rd", "1st", "a hundred", "A thousand",
         "no one", "No one", "without", "Without", "never", "any", "not", "0", ".", "!", "?",
         "BOS", "EOS", "Zoë", "Müller", "Ærø", "naïve", "Trilogies", "Twins", ",",
         "two score", "Score", "gross"]
    ),
    st.text(alphabet=string.ascii_letters + "äöüßéñÆ’'-", min_size=1, max_size=7),
)


def _parts(chunk):
    """Chunks of text, each with the separator that follows it."""
    return st.lists(
        st.tuples(chunk, st.sampled_from([" ", " ", " ", "", "\n"])), min_size=1, max_size=14
    )


def _assert_equals_reference(lexicon, parts):
    """tokenize, then preprocess_sentence in each mode, with zero mode on and off."""
    text = "".join(chunk + sep for chunk, sep in parts)
    sentences = tokenize(text)
    assert sentences == reference_tokenize(text)
    for mode in (TRAIN_MODE, INFERENCE_MODE):
        for zero_mode in (False, True):
            for sentence in sentences:
                assert preprocess_sentence(
                    sentence, lexicon, mode=mode, zero_mode=zero_mode
                ) == reference_preprocess(sentence, lexicon, mode, zero_mode)


@pytest.mark.parametrize("lexicon_name", ["shipped", "custom"])
@settings(max_examples=400)
@given(parts=_parts(_reference_chunk))
# Cardinal runs that meet the start of a special term ("two score", "hundred
# weight" in the custom lexicon), which ends them.
@example(parts=[("Sixty two score , nine hundred weight .", "")])
def test_preprocess_equals_two_pass_reference_property(reference_lexicons, lexicon_name, parts):
    _assert_equals_reference(reference_lexicons[lexicon_name], parts)


@pytest.mark.parametrize("lexicon_name", ["shipped", "custom"])
@settings(max_examples=250)
@given(parts=_parts(_per_word_chunk))
# Sentences whose only live words are zero cues, drawn only by chance otherwise.
@example(parts=[("He did n't have any children .", "")])
@example(parts=[("She never married .", "")])
# Merged cardinal runs, special-term rewrites and zero cues in one sentence, so
# that mentions move to new positions.
@example(parts=[("Twenty one hundred and five fans , thrice a dozen twins , no cats "
                 "without any hats , never two score gross .", "")])
def test_per_word_path_equals_object_path_property(reference_lexicons, lexicon_name, parts):
    """Every lexicon word, title-cased too, clitics, digits and non-ASCII letters."""
    _assert_equals_reference(reference_lexicons[lexicon_name], parts)
