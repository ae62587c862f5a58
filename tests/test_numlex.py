from __future__ import annotations

import itertools
import string

import pytest
from hypothesis import given, settings, strategies as st

from countquant.numlex import (
    INFERENCE_MODE,
    MentionKind,
    Token,
    annotate_mentions,
    detokenize,
    lemmatize,
    load_default_lexicon,
    load_lexicon,
    make_sentence,
    normalize_special_terms,
    preprocess_sentence,
    rewrite_zero_cues,
    to_placeholder_sequence,
    tokenize,
)
from countquant.numlex.mentions import _decode_affix, _match_special

LEXICON = load_default_lexicon()


class TestTokenize:
    def test_whitespace_and_punctuation_split(self):
        sentences = tokenize("Trump has three children.")
        assert len(sentences) == 1
        assert sentences[0].surfaces() == ["Trump", "has", "three", "children", "."]

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
        assert s.surfaces() == ["children", "in", "1999", ",", "2001", ",", "2004"]
        (s,) = tokenize("He has 1,2 sons")
        assert s.surfaces() == ["He", "has", "1", ",", "2", "sons"]
        (s,) = tokenize("It sold 1,200 or 1,234.5 or 12,3456 units")
        assert s.surfaces() == [
            "It", "sold", "1,200", "or", "1,234.5", "or", "12", ",", "3456", "units",
        ]

    def test_contraction_split(self):
        (s,) = tokenize("They didn't stay")
        assert s.surfaces() == ["They", "did", "n't", "stay"]

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


class TestAnnotateMentions:
    def test_twins_is_suffixed_numterm(self, prep):
        s = prep("her twins")
        (tok,) = s.mentions
        assert tok.surface == "twins"
        assert tok.mention.kind is MentionKind.NUMTERM
        assert tok.mention.value == 2
        assert tok.mention.placeholder == "NUMTERM-plets"

    def test_article_only_at_inference(self, prep):
        s = prep("a son", mode=INFERENCE_MODE)
        tok = s[0]
        assert tok.mention is not None
        assert tok.mention.kind is MentionKind.ARTICLE
        assert tok.mention.value == 1
        assert prep("a son").mentions == ()

    def test_pentalogy(self, prep):
        s = prep("pentalogy")
        (tok,) = s.mentions
        assert tok.mention.kind is MentionKind.NUMTERM
        assert tok.mention.value == 5
        assert tok.mention.suffix_class == "-logy"

    def test_digit_and_comma_cardinals(self, prep):
        s = prep("He won 1,200 games in 58 counties")
        assert [t.mention.value for t in s.mentions] == [1200, 58]

    def test_comma_separated_years_are_separate_cardinals(self, prep):
        s = prep("children in 1999,2001,2004", mode=INFERENCE_MODE)
        assert [t.mention.value for t in s.mentions] == [1999, 2001, 2004]
        assert [t.mention.kind for t in s.mentions] == [MentionKind.CARDINAL] * 3

    def test_comma_before_short_group_is_not_a_separator(self, prep):
        s = prep("He has 1,2 sons", mode=INFERENCE_MODE)
        assert [t.mention.value for t in s.mentions] == [1, 2]

    @pytest.mark.parametrize("surface", ["1,2", "1999,2001", "1,2345", "1,"])
    def test_digit_cardinal_needs_three_digit_groups(self, surface):
        s = make_sentence([Token(surface=surface, lemma=surface, index=0)])
        assert annotate_mentions(s, LEXICON).mentions == ()

    def test_decimals_are_not_mentions(self, prep):
        assert prep("He ran 3.5 miles").mentions == ()

    def test_multiword_cardinal_merges(self, prep):
        s = prep("one hundred and five children")
        (tok,) = s.mentions
        assert tok.mention.value == 105
        assert tok.surface == "one hundred and five"
        assert len(s) == 2

    def test_and_does_not_glue_plain_numbers(self, prep):
        s = prep("three biological and three adopted")
        assert [t.mention.value for t in s.mentions] == [3, 3]

    @pytest.mark.parametrize("text,value", [
        ("ten thousand and five fans", 10_005),
        ("two thousand and twenty five fans", 2025),
        ("one thousand and one nights", 1001),
        ("five thousand and three hundred fans", 5300),
    ])
    def test_and_absorbed_after_thousand(self, prep, text, value):
        (tok,) = prep(text).mentions
        assert tok.mention.value == value
        assert tok.surface == " ".join(text.split()[:-1])

    def test_word_grammar_reaches_cap(self, prep):
        s = prep("nine hundred ninety nine thousand nine hundred ninety nine fans")
        (tok,) = s.mentions
        assert tok.mention.value == 999_999

    def test_zero_word_is_cardinal_zero(self, prep):
        s = prep("zero complaints")
        (tok,) = s.mentions
        assert (tok.mention.kind, tok.mention.value) == (MentionKind.CARDINAL, 0)

    def test_hyphenated_cardinal_and_ordinal(self, prep):
        s = prep("twenty-one books on his twenty-first birthday")
        values = [(t.mention.kind, t.mention.value) for t in s.mentions]
        assert values == [(MentionKind.CARDINAL, 21), (MentionKind.ORDINAL, 21)]

    def test_digit_ordinal(self, prep):
        s = prep("the 23rd season")
        (tok,) = s.mentions
        assert tok.mention.kind is MentionKind.ORDINAL
        assert tok.mention.value == 23

    def test_affix_exceptions_not_decoded(self, prep):
        assert prep("a strict diet").mentions == ()

    def test_idempotent(self, prep):
        s = prep("She has twenty one children and a dozen cats, honestly.")
        again = annotate_mentions(s, LEXICON)
        assert again == s


class TestNormalizeSpecialTerms:
    def test_thrice_becomes_three_times(self, lexicon):
        (s,) = tokenize("thrice")
        out = normalize_special_terms(s, lexicon)
        assert out.surfaces() == ["three", "times"]
        assert out[0].mention.value == 3

    def test_a_dozen_becomes_twelve(self, lexicon):
        (s,) = tokenize("She bought a dozen eggs")
        out = normalize_special_terms(s, lexicon)
        assert out.surfaces() == ["She", "bought", "twelve", "eggs"]
        assert out[2].mention.value == 12

    def test_twins_kept_as_placeholder_token(self, lexicon):
        (s,) = tokenize("her twins arrived")
        out = normalize_special_terms(s, lexicon)
        assert out.surfaces() == ["her", "twins", "arrived"]
        assert out[1].mention.placeholder == "NUMTERM-plets"

    def test_reindexes(self, lexicon):
        (s,) = tokenize("thrice happy")
        out = normalize_special_terms(s, lexicon)
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
        assert detokenize(rewrite_zero_cues(s)) == after

    def test_zero_tokens_annotated(self):
        (s,) = tokenize("He has never been married")
        out = rewrite_zero_cues(s)
        zero = [t for t in out if t.mention is not None]
        assert len(zero) == 1
        assert zero[0].surface == "0"
        assert zero[0].mention.kind is MentionKind.ZERO
        assert zero[0].mention.placeholder == "CARDINAL"

    def test_plain_no_annotated(self):
        (s,) = tokenize("They have no children")
        out = rewrite_zero_cues(s)
        assert out[2].mention is not None and out[2].mention.value == 0

    def test_terminal_punctuation_kept_last(self):
        (s,) = tokenize("He has never been married.")
        out = rewrite_zero_cues(s)
        assert out.surfaces()[-3:] == ["0", "times", "."]

    def test_repeated_never_counts_zero_once(self):
        (s,) = tokenize("She never sang and never acted.")
        out = rewrite_zero_cues(s)
        assert detokenize(out) == "She sang and acted 0 times."
        assert [t.surface for t in out.mentions] == ["0"]

    def test_handled_patterns_removed(self):
        texts = [
            "They didn't have any children and he didn't write any books",
            "She never sang and never acted",
            "A day without rain and without sun",
        ]
        for text in texts:
            (s,) = tokenize(text)
            out = rewrite_zero_cues(s)
            surfaces = [t.lower() for t in out.surfaces()]
            assert "never" not in surfaces
            assert "without" not in surfaces
            for j, w in enumerate(surfaces):
                if w == "n't":
                    assert "any" not in surfaces[j:]


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

    def test_numterm_collapses_to_base_placeholder(self, prep):
        s = prep("her twins , one daughter")
        assert to_placeholder_sequence(s) == ["her", "NUMTERM", ",", "CARDINAL", "daughter"]

    def test_full_keeps_suffix(self, prep):
        s = prep("her twins")
        assert to_placeholder_sequence(s, full=True) == ["her", "NUMTERM-plets"]

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


@settings(max_examples=150, deadline=None)
@given(_texts)
def test_annotate_idempotent_property(text):
    for sentence in tokenize(text):
        once = annotate_mentions(sentence, LEXICON, mode=INFERENCE_MODE)
        twice = annotate_mentions(once, LEXICON, mode=INFERENCE_MODE)
        assert once == twice


@settings(max_examples=150, deadline=None)
@given(_texts)
def test_annotation_deterministic_property(text):
    runs = [
        [
            (t.surface, t.mention.value if t.mention else None)
            for s in tokenize(text)
            for t in annotate_mentions(s, LEXICON, mode=INFERENCE_MODE)
        ]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


@settings(max_examples=150, deadline=None)
@given(_texts)
def test_placeholder_length_property(text):
    for sentence in tokenize(text):
        processed = preprocess_sentence(sentence, LEXICON, mode=INFERENCE_MODE)
        assert len(to_placeholder_sequence(processed)) == len(processed)


@settings(max_examples=150, deadline=None)
@given(_texts)
def test_zero_rewrite_removes_cues_property(text):
    for sentence in tokenize(text):
        out = rewrite_zero_cues(sentence)
        surfaces = [t.lower() for t in [tok.surface for tok in out]]
        assert "never" not in surfaces
        assert "without" not in surfaces


# -- the compiled lexicon tables against naive scans --------------------------


def _naive_match_special(tokens, i, lexicon):
    """Longest-first scan over every special term."""
    for term in sorted(lexicon.special_terms, key=lambda t: -len(t.term)):
        span = tokens[i : i + len(term.term)]
        if len(span) == len(term.term) and all(
            t.surface.lower() == w for t, w in zip(span, term.term)
        ):
            return term
    return None


def _naive_decode_affix(word, lexicon):
    """Longest-suffix-first scan over every suffix."""
    if word in lexicon.affix_exceptions:
        return None
    for suffix in sorted(lexicon.num_term_suffixes, key=len, reverse=True):
        if word.endswith(suffix) and len(word) > len(suffix):
            value = lexicon.latin_greek_prefixes.get(word[: -len(suffix)])
            if value is not None:
                return value, f"-{suffix}"
    return None


def _as_tokens(words):
    return tuple(Token(surface=w, lemma=w.lower(), index=j) for j, w in enumerate(words))


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
_special_token = st.one_of(
    st.sampled_from(_special_words),
    st.sampled_from(_special_words).map(str.title),
    _random_word,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_special_token, min_size=1, max_size=8))
def test_match_special_equals_naive_scan_property(words):
    tokens = _as_tokens(words)
    for i in range(len(tokens)):
        assert _match_special(tokens, i, LEXICON) == _naive_match_special(tokens, i, LEXICON)


@settings(max_examples=300, deadline=None)
@given(_affix_word)
def test_decode_affix_equals_naive_scan_property(word):
    assert _decode_affix(word, LEXICON) == _naive_decode_affix(word, LEXICON)


def test_compiled_tables_on_overlapping_lexicon(tmp_path):
    """Special terms sharing a first token, and nested suffixes, match the naive scans."""
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

    assert _decode_affix("quintuplets", lexicon) == (5, "-uplets")
    assert _decode_affix("triplets", lexicon) == (3, "-plets")
    assert _decode_affix("septs", lexicon) is None
    words = ["quintuplets", "quintuplet", "triplets", "triuplets", "uplets", "plets",
             "septs", "sets", "quintus", "quintuts"]
    for word in words:
        assert _decode_affix(word, lexicon) == _naive_decode_affix(word, lexicon), word

    # equal lengths keep table order: the first "a dozen" row wins
    assert _match_special(_as_tokens(["A", "dozen"]), 0, lexicon).replacement_text == "twelve"
    vocab = ["a", "A", "dozen", "pair", "of", "half", "twins", "x"]
    for words in itertools.product(vocab, repeat=3):
        tokens = _as_tokens(words)
        for i in range(3):
            assert _match_special(tokens, i, lexicon) == _naive_match_special(
                tokens, i, lexicon
            ), (words, i)
