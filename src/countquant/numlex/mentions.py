"""Detection and normalization of numeric mentions in tokenized sentences.

The preprocessing chain for a sentence is::

    tokenize -> preprocess_sentence

after which :func:`to_placeholder_sequence` produces the lemma/placeholder
symbols consumed by the sequence labeler. ``preprocess_sentence`` is one
left-to-right scan, after one linear pass of zero-cue rewrites in zero mode:
special terms are matched first and rewritten where they stand, so a
word-cardinal run never crosses the start of one. Only live tokens
(:meth:`NumLexicon.is_live`) are read, so a sentence with none is returned at
once. It returns its input sentence when nothing changes, else one new
sentence. Annotated tokens are never touched again, so outside zero mode
preprocessing twice gives the same sentence as long as no word of a special
term's replacement text starts a special term itself.

``mode="train"`` skips indefinite articles: they are far too frequent to act
as training cues and are only annotated when applying a trained model
(``mode="inference"``). An article before a scale word is a number word in
both modes: "a hundred" is the cardinal 100.
"""

from __future__ import annotations

import re
from bisect import bisect
from operator import is_
from typing import Optional

from .lexicon import ZERO_CUES, NumLexicon, SpecialTerm
from .tokenizer import lemmatize
from .types import (
    MentionAnnotation,
    MentionKind,
    Sentence,
    Token,
    make_sentence,
)

TRAIN_MODE = "train"
INFERENCE_MODE = "inference"

_DIGIT_CARDINAL_RE = re.compile(r"^(?:\d{1,3}(?:,\d{3})+|\d+)$")
_DIGIT_ORDINAL_RE = re.compile(r"^(\d+)(st|nd|rd|th)$")

_COMP_CUE_SURFACES = {",", "and"}


def is_comp_cue(token: Token) -> bool:
    """True for tokens that can join compositional count mentions."""
    return token.surface.lower() in _COMP_CUE_SURFACES


def _parse_cardinal_words(words: list[str], table: dict[str, int]) -> Optional[tuple[int, int]]:
    """Longest cardinal number starting at ``words[0]``.

    Returns (value, words consumed) or None. Supports unit/tens/scale
    composition up to 999,999, including "hundred" after a tens group
    ("twenty one hundred" is 2100); "and" is absorbed only straight after a
    scale word ("one hundred and five", "ten thousand and five"), never
    between two plain numbers, so compositional phrases like "three and
    three" stay separate mentions.
    """
    total = 0
    group = 0
    hundred_used = False
    state = "start"
    best: Optional[tuple[int, int]] = None
    i = 0
    while i < len(words):
        w = words[i]
        if w == "and":
            nxt = table.get(words[i + 1]) if i + 1 < len(words) else None
            if state in ("hundred", "thousand") and nxt is not None and 1 <= nxt <= 99:
                i += 1
                if state == "hundred":
                    state = "post_and"
                continue
            break
        v = table.get(w)
        if v is None:
            break
        if v == 0:
            if state == "start":
                best = (0, 1)
            break
        if v == 100:
            # a tens group takes "hundred" only before any scale word:
            # "twenty one hundred" is 2100
            if not hundred_used and (
                state in ("unit", "teen") or (state in ("tens", "tens_unit") and total == 0)
            ):
                group *= 100
                hundred_used = True
                state = "hundred"
            else:
                break
        elif v == 1000:
            # group <= 999 keeps "nineteen hundred thousand" under the cap
            if total == 0 and 1 <= group <= 999 and state != "start":
                total = group * 1000
                group = 0
                hundred_used = False
                state = "thousand"
            else:
                break
        elif 1 <= v <= 9:
            if state in ("start", "thousand"):
                group, state = v, "unit"
            elif state == "tens":
                group, state = group + v, "tens_unit"
            elif state in ("hundred", "post_and"):
                group, state = group + v, "post_hundred"
            else:
                break
        elif 10 <= v <= 19:
            if state in ("start", "thousand"):
                group, state = v, "teen"
            elif state in ("hundred", "post_and"):
                group, state = group + v, "post_hundred"
            else:
                break
        else:  # 20..90
            if state in ("start", "thousand", "hundred", "post_and"):
                group, state = group + v if state in ("hundred", "post_and") else v, "tens"
            else:
                break
        i += 1
        best = (total + group, i)
    return best


def _parse_ordinal(surface: str, lexicon: NumLexicon) -> Optional[int]:
    w = surface.lower()
    if w in lexicon.ordinal_words:
        return lexicon.ordinal_words[w]
    m = _DIGIT_ORDINAL_RE.match(w)
    if m:
        return int(m.group(1))
    if "-" in w:  # "twenty-first"
        head, _, tail = w.rpartition("-")
        tail_value = lexicon.ordinal_words.get(tail)
        head_parsed = _parse_cardinal_words(head.split("-"), lexicon.cardinal_words)
        if (
            tail_value is not None
            and 1 <= tail_value <= 9
            and head_parsed is not None
            and head_parsed[1] == head.count("-") + 1
            and head_parsed[0] % 10 == 0
        ):
            return head_parsed[0] + tail_value
    return None


def _match_special(
    tokens: tuple[Token, ...], i: int, lexicon: NumLexicon
) -> Optional[SpecialTerm]:
    """Longest special term starting at ``tokens[i]``, or None."""
    for term in lexicon.specials_by_first.get(tokens[i].surface.lower(), ()):
        span = tokens[i : i + len(term.term)]
        if len(span) == len(term.term) and all(
            t.surface.lower() == w for t, w in zip(span, term.term)
        ):
            return term
    return None


def _merge_tokens(span: tuple[Token, ...], mention: MentionAnnotation) -> Token:
    return Token(
        surface=" ".join(t.surface for t in span),
        lemma=" ".join(t.lemma for t in span),
        index=span[0].index,
        mention=mention,
    )


def _cardinal_run(
    tokens: tuple[Token, ...],
    i: int,
    head: list[str],
    specials: dict[int, SpecialTerm],
    lexicon: NumLexicon,
) -> Optional[tuple[int, int]]:
    """Longest cardinal that reads ``tokens[i]`` as the words *head*, then goes on.

    The run continues through the unannotated number words and "and" after
    ``tokens[i]``; it ends at an annotated token or where a special term
    starts (a key of *specials*). Returns (value, tokens spanned), or None
    unless every word of *head* is read.
    """
    words = list(head)
    for j in range(i + 1, len(tokens)):
        word = tokens[j].surface.lower()
        if j in specials or tokens[j].mention is not None or not (
            word in lexicon.cardinal_words or word == "and"
        ):
            break
        words.append(word)
    parsed = _parse_cardinal_words(words, lexicon.cardinal_words)
    if parsed is None or parsed[1] < len(head):
        return None
    return parsed[0], 1 + parsed[1] - len(head)


def _recognise(
    tokens: tuple[Token, ...],
    i: int,
    specials: dict[int, SpecialTerm],
    lexicon: NumLexicon,
    mode: str,
) -> tuple[Optional[MentionAnnotation], int]:
    """Mention starting at the unannotated ``tokens[i]``, and how many tokens it spans.

    Tries, in order: digit cardinal, word-cardinal run, ordinal, affixed
    number term, article. A run starts at a cardinal word, "and" or a
    hyphenated cardinal, which reads as its parts ("twenty-one hundred" is
    2100), and an article before a scale word starts one as "one" ("a
    hundred" is 100, in both modes). Any other article is a mention in
    inference mode only. "one" straight after "no" is a pronoun ("no one
    knows"), never a cardinal. Returns ``(None, 1)`` when the token is no
    mention.
    """
    surface = tokens[i].surface.lower()
    if not lexicon.is_live(surface, tokens[i].lemma):
        return None, 1
    if surface == "one" and i and tokens[i - 1].surface.lower() == "no":
        return None, 1
    if _DIGIT_CARDINAL_RE.match(surface):
        return MentionAnnotation(MentionKind.CARDINAL, int(surface.replace(",", ""))), 1
    table = lexicon.cardinal_words
    if surface in table or surface == "and" or (
        "-" in surface and all(word in table for word in surface.split("-"))
    ):
        run = _cardinal_run(tokens, i, surface.split("-"), specials, lexicon)
        if run is not None:
            return MentionAnnotation(MentionKind.CARDINAL, run[0]), run[1]
    value = _parse_ordinal(surface, lexicon)
    if value is not None:
        return MentionAnnotation(MentionKind.ORDINAL, value), 1
    affixed = lexicon.affixed_words
    value = affixed.get(surface, affixed.get(tokens[i].lemma))
    if value is not None:
        return MentionAnnotation(MentionKind.NUMTERM, value), 1
    if surface in lexicon.articles:
        run = _cardinal_run(tokens, i, ["one"], specials, lexicon)
        if run is not None and run[1] > 1:
            return MentionAnnotation(MentionKind.CARDINAL, run[0]), run[1]
        if mode == INFERENCE_MODE:
            return MentionAnnotation(MentionKind.ARTICLE, 1), 1
    return None, 1


def _rewrite(text: str, lexicon: NumLexicon, mode: str) -> list[Token]:
    """Tokens of a special term's replacement text, each annotated on its own.

    A cardinal word gets its value; any other word gets the single-token
    checks of :func:`_recognise`.
    """
    out = []
    for word in text.split():
        tok = Token(surface=word, lemma=lemmatize(word), index=0)
        value = lexicon.cardinal_words.get(word.lower())
        if value is not None:
            mention = MentionAnnotation(MentionKind.CARDINAL, value)
        else:
            mention = _recognise((tok,), 0, {}, lexicon, mode)[0]
        out.append(tok if mention is None else tok.with_mention(mention))
    return out


_NEGATIONS = frozenset({"n't", "not"})
_AUXILIARIES = frozenset({"do", "does", "did"})
_ZERO = MentionAnnotation(MentionKind.ZERO, 0)
_NO = Token("no", "no", 0, _ZERO)  # surface, lemma, index, mention


def _zero_cue_rewrites(tokens: tuple[Token, ...]) -> tuple[Token, ...]:
    """*tokens* with the zero cues rewritten as :func:`preprocess_sentence` describes.

    Negations meet auxiliaries on a stack of the kept positions, so dropping
    a pair lets the auxiliary before it meet the negation after it.
    """
    words = [tok.surface.lower() for tok in tokens]
    if ZERO_CUES.isdisjoint(words):
        return tokens
    anys = [k for k, word in enumerate(words) if word == "any"]
    claimed: set[int] = set()
    kept: list[int] = []
    n = 0  # anys[:n] are claimed or come before the current position
    for i, word in enumerate(words):
        if word in _NEGATIONS and kept and words[kept[-1]] in _AUXILIARIES:
            n = bisect(anys, i, n)
            if n < len(anys):
                claimed.add(anys[n])
                n += 1
                kept.pop()
                continue
        kept.append(i)
    out: list[Token] = []
    for i in kept:
        if words[i] == "without":
            out += (Token("with", "with", 0), _NO)
        elif i in claimed:
            out.append(_NO)
        elif words[i] in ("no", "0") and tokens[i].mention is None:
            out.append(tokens[i].with_mention(_ZERO))
        elif words[i] != "never":
            out.append(tokens[i])
    if "never" in words:
        tail = len(out) - bool(out and out[-1].surface in (".", "!", "?"))
        out[tail:tail] = (Token("0", "0", 0, _ZERO), Token("times", "time", 0))
    return tuple(out)


def _live_positions(tokens: tuple[Token, ...], lexicon: NumLexicon) -> list[int]:
    """Positions of the unannotated tokens that can start anything, in order."""
    return [
        i
        for i, tok in enumerate(tokens)
        if tok.mention is None and lexicon.is_live(tok.surface.lower(), tok.lemma)
    ]


def to_placeholder_sequence(sentence: Sentence) -> list[str]:
    """Lemma sequence with mentions replaced by their placeholder symbols."""
    return [tok.lemma if tok.mention is None else tok.mention.placeholder for tok in sentence]


def preprocess_sentence(
    sentence: Sentence,
    lexicon: NumLexicon,
    mode: str = TRAIN_MODE,
    zero_mode: bool = False,
) -> Sentence:
    """Attach a :class:`MentionAnnotation` to every numeric mention, in one scan.

    In zero mode, non-existence phrasings are first rewritten into zero
    mentions. A "do"/"does"/"did" straight before "n't"/"not" is a pair (a
    "never" between them blocks it, though it is dropped later); taken in
    the order of their negations, each pair claims the first "any"
    after it that no earlier pair claimed, turns it into "no" and is
    dropped, which can make the auxiliary before it and the negation after
    it a pair ("did did n't n't any any"). A pair with no "any" left stays.
    Then every "never" is dropped and "0 times" is added once, before a
    final ".", "!" or "?"; "without" becomes "with no"; and every "no" and
    "0" not yet annotated becomes a ZERO mention.

    At each live token the longest special term is tried first. A
    term with a placeholder replacement ("twins") becomes one NUMTERM token;
    a term with a replacement text ("thrice" -> "three times", "a dozen" ->
    "twelve") is rewritten in place and its words annotated. Otherwise the
    token is read as a digit or word cardinal (a multi-word run merges into
    one token), ordinal, Latin/Greek-affixed number term or, in inference
    mode, an indefinite article. Already-annotated tokens are left untouched.
    Returns *sentence* itself when nothing changed, and at once when no
    unannotated token is live.
    """
    tokens = sentence.tokens
    live = _live_positions(tokens, lexicon)
    if not live:
        return sentence
    if zero_mode:
        tokens = _zero_cue_rewrites(tokens)
        if tokens is not sentence.tokens:
            live = _live_positions(tokens, lexicon)
    specials = {i: term for i in live if (term := _match_special(tokens, i, lexicon))}
    out: list[Token] = []
    i = 0  # tokens[:i] are read; only a live token can start anything
    for j in live:
        if j < i:
            continue  # inside a mention or special term read already
        out.extend(tokens[i:j])
        special = specials.get(j)
        if special is None:
            mention, length = _recognise(tokens, j, specials, lexicon, mode)
            out.append(
                tokens[j] if mention is None else _merge_tokens(tokens[j : j + length], mention)
            )
        else:
            length = len(special.term)
            if special.replacement_text is None:
                mention = MentionAnnotation(MentionKind.NUMTERM, special.value)
                out.append(_merge_tokens(tokens[j : j + length], mention))
            else:
                out.extend(_rewrite(special.replacement_text, lexicon, mode))
        i = j + length
    out.extend(tokens[i:])
    if len(out) == len(sentence.tokens) and all(map(is_, out, sentence.tokens)):
        return sentence  # nothing rewritten or annotated
    return make_sentence(out)
