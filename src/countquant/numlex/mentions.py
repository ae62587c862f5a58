"""Detection and normalization of numeric mentions in tokenized sentences.

A sentence goes ``tokenize -> preprocess_sentence``, after which
:func:`to_placeholder_sequence` gives the lemma/placeholder symbols the
sequence labeler reads. Preprocessing reads a sentence's columns. Each
surface's lowercase form and liveness come from the lexicon's per-surface
readings (``NumLexicon.readings``), so a sentence with no live token is
returned at once, and a changed sentence's columns are built once. Annotated
tokens are never touched again, so outside zero mode preprocessing twice
gives the same sentence as long as no word of a special term's replacement
text starts a special term itself.

Number words follow one grammar, stated at :func:`_parse_cardinal_words`:
numbers below 100 make groups around "hundred", and one or two groups around
"thousand" make a number of at most 999,999. "and" is read only after a scale
word and before a number below 100, so it never starts a mention and is not
a live word. Digit cardinals and ordinals obey the same cap: a digit number
above 999,999 is no mention (:func:`_digit_value`).

``mode="train"`` skips indefinite articles: they are far too frequent to act
as training cues and are only annotated when applying a trained model
(``mode="inference"``). An article before a scale word is a number word in
both modes: "a hundred" is the cardinal 100.
"""

from __future__ import annotations

import re
from bisect import bisect
from functools import lru_cache
from operator import itemgetter
from typing import Optional

from .lexicon import DEAD, LIVE, ZERO_CUE, ZERO_CUES, NumLexicon, SpecialTerm
from .tokenizer import lemmatize
from .types import MentionAnnotation, MentionKind, Sentence

# A sentence's columns while it is rewritten: surfaces, lemmas, and the
# mentions by position, in position order.
_Columns = tuple[list[str], list[str], dict[int, MentionAnnotation]]
_LIVENESS = itemgetter(1)  # of a lexicon reading
# A mention is a value, so each distinct one is built and checked once.
_mention = lru_cache(maxsize=4096)(MentionAnnotation)

TRAIN_MODE = "train"
INFERENCE_MODE = "inference"

_DIGIT_CARDINAL_RE = re.compile(r"^(?:\d{1,3}(?:,\d{3})+|\d+)$")
_DIGIT_ORDINAL_RE = re.compile(r"^(\d+)(st|nd|rd|th)$")

_COMP_CUE_SURFACES = {",", "and"}


def is_comp_cue(surface: str) -> bool:
    """True for a token surface that can join compositional count mentions."""
    return surface.lower() in _COMP_CUE_SURFACES


def _parse_cardinal_words(words: list[str], table: dict[str, int]) -> Optional[tuple[int, int]]:
    """Longest cardinal number starting at ``words[0]``: (value, words consumed), or None.

    The number words form a two-level grammar:

    - *small*: a unit (1-9), a teen (10-19), or a tens word (20-99) with an
      optional unit;
    - *group*: a small number, then optionally "hundred" and a small number;
    - *number*: a word of value 0 alone ("zero"), or a group, then optionally
      "thousand" and a second group.

    "and" is read only after "hundred" or "thousand" and before a small
    number ("one hundred and five"), so "three and three" stays two numbers.
    The group before "thousand" takes "hundred" after any small number
    ("twenty one hundred" is 2100) and "thousand" only when it is at most
    999; in the group after it only a unit multiplies "hundred". So no value
    exceeds 999,999. A word valued none of 0-99, 100 and 1000 is a number on
    its own.
    """
    n = len(words)
    total = i = 0  # words[:i] are read
    while True:  # the group before "thousand", then the group after it
        group = 0
        for after_hundred in (False, True):  # a group's two small numbers
            # every small number but the first follows a scale word, so may follow "and"
            j = i + 1 if i and i < n and words[i] == "and" else i
            small = table.get(words[j]) if j < n else None
            if small is None or not 0 < small < 100:
                break
            i = j + 1
            if small >= 20 and i < n and 0 < (unit := table.get(words[i], 0)) < 10:
                small += unit
                i += 1
            group += small
            # "hundred" once per group, and after "thousand" only after a unit
            if after_hundred or i == n or table.get(words[i]) != 100 or (total and small > 9):
                break
            group *= 100
            i += 1
        if not i:  # zero, a scale word or a value outside the grammar comes first
            return None if small in (None, 100, 1000) else (small, 1)
        if i == n or total or group > 999 or table.get(words[i]) != 1000:
            return total + group, i
        total = group * 1000
        i += 1


def _digit_value(digits: str) -> Optional[int]:
    """The value of a digit number, commas allowed, or None above 999,999.

    Only the last six digits go through ``int``, which refuses a string of
    more than 4,300 digits; any digit before them must be a zero.
    """
    digits = digits.replace(",", "")
    return None if any(map(int, digits[:-6])) else int(digits[-6:])


def _parse_ordinal(w: str, lexicon: NumLexicon) -> Optional[int]:
    if w in lexicon.ordinal_words:
        return lexicon.ordinal_words[w]
    m = _DIGIT_ORDINAL_RE.match(w)
    if m:
        return _digit_value(m.group(1))
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


def _match_special(words: tuple[str, ...], i: int, lexicon: NumLexicon) -> Optional[SpecialTerm]:
    """Longest special term starting at ``words[i]`` (lowercased surfaces), or None."""
    for term in lexicon.specials_by_first.get(words[i], ()):
        if words[i : i + len(term.term)] == term.term:
            return term
    return None


def _cardinal_run(
    words: tuple[str, ...], i: int, head: list[str], stops, lexicon: NumLexicon
) -> Optional[tuple[int, int]]:
    """Longest cardinal that reads ``words[i]`` as the words *head*, then goes on.

    The run continues through the number words and "and" after ``words[i]``;
    it ends at a position in *stops* (an annotated token or the start of a
    special term). Returns (value, tokens spanned), or None unless every word
    of *head* is read.
    """
    run = list(head)
    for j in range(i + 1, len(words)):
        word = words[j]
        if j in stops or not (word in lexicon.cardinal_words or word == "and"):
            break
        run.append(word)
    parsed = _parse_cardinal_words(run, lexicon.cardinal_words)
    if parsed is None or parsed[1] < len(head):
        return None
    return parsed[0], 1 + parsed[1] - len(head)


def _recognise(
    words: tuple[str, ...], i: int, stops, lexicon: NumLexicon, mode: str
) -> tuple[Optional[MentionAnnotation], int]:
    """Mention starting at the live, unannotated ``words[i]``, and how many tokens it spans.

    Tries, in order: digit cardinal, word-cardinal run, ordinal, affixed
    number term, article. A run starts at a cardinal word or a hyphenated
    cardinal, which reads as its parts ("twenty-one hundred" is 2100), and
    an article before a scale word starts one as "one" ("a hundred" is 100,
    in both modes). Any other article is a mention in inference mode only.
    A number term is read from the surface or, as liveness is, from
    ``lemmatize`` of it ("trilogies"). "one" straight after "no" is a pronoun
    ("no one knows"), never a cardinal. Returns ``(None, 1)`` when the token
    is no mention.
    """
    surface = words[i]
    if surface == "one" and i and words[i - 1] == "no":
        return None, 1
    if _DIGIT_CARDINAL_RE.match(surface):
        value = _digit_value(surface)
        return (None if value is None else _mention(MentionKind.CARDINAL, value)), 1
    table = lexicon.cardinal_words
    if surface in table or (
        "-" in surface and all(word in table for word in surface.split("-"))
    ):
        run = _cardinal_run(words, i, surface.split("-"), stops, lexicon)
        if run is not None:
            return _mention(MentionKind.CARDINAL, run[0]), run[1]
    value = _parse_ordinal(surface, lexicon)
    if value is not None:
        return _mention(MentionKind.ORDINAL, value), 1
    affixed = lexicon.affixed_words
    value = affixed.get(surface)
    if value is None:  # the lemma that made the surface live
        value = affixed.get(lemmatize(surface))
    if value is not None:
        return _mention(MentionKind.NUMTERM, value), 1
    if surface in lexicon.articles:
        run = _cardinal_run(words, i, ["one"], stops, lexicon)
        if run is not None and run[1] > 1:
            return _mention(MentionKind.CARDINAL, run[0]), run[1]
        if mode == INFERENCE_MODE:
            return _mention(MentionKind.ARTICLE, 1), 1
    return None, 1


def _rewrite(text: str, lexicon: NumLexicon, mode: str) -> _Columns:
    """Columns of a special term's replacement text, each word annotated on its own.

    A cardinal word gets its value; any other live word gets the
    single-token checks of :func:`_recognise`.
    """
    surfaces = text.split()
    lemmas = [lemmatize(surface) for surface in surfaces]
    marks: dict[int, MentionAnnotation] = {}
    for k, surface in enumerate(surfaces):
        word, liveness = lexicon.readings[surface]
        value = lexicon.cardinal_words.get(word)
        if value is not None:
            marks[k] = _mention(MentionKind.CARDINAL, value)
        elif liveness == LIVE:
            mention = _recognise((word,), 0, (), lexicon, mode)[0]
            if mention is not None:
                marks[k] = mention
    return surfaces, lemmas, marks


def _merged(columns: _Columns, start: int, length: int, mention: MentionAnnotation) -> _Columns:
    """The *length* tokens from *start* as one token carrying *mention*."""
    surfaces, lemmas, _ = columns
    stop = start + length
    return [" ".join(surfaces[start:stop])], [" ".join(lemmas[start:stop])], {0: mention}


def _append(out: _Columns, columns: _Columns, start: int, stop: int) -> None:
    """Append positions *start* to *stop* - 1 of *columns* to *out*, with their mentions."""
    surfaces, lemmas, marks = columns
    shift = len(out[0]) - start
    for position, mention in marks.items():
        if start <= position < stop:
            out[2][position + shift] = mention
    out[0].extend(surfaces[start:stop])
    out[1].extend(lemmas[start:stop])


_NEGATIONS = frozenset({"n't", "not"})
_AUXILIARIES = frozenset({"do", "does", "did"})
_ZERO = _mention(MentionKind.ZERO, 0)


def _zero_cue_rewrites(columns: _Columns, words: tuple[str, ...]) -> Optional[_Columns]:
    """*columns* with the zero cues rewritten as :func:`preprocess_sentence` describes.

    *words* are the lowercased surfaces. Returns None when nothing changes.
    Negations meet auxiliaries on a stack of the kept positions, so dropping
    a pair lets the auxiliary before it meet the negation after it.
    """
    if ZERO_CUES.isdisjoint(words):
        return None
    surfaces, lemmas, marks = columns
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
    out_surfaces: list[str] = []
    out_lemmas: list[str] = []
    out_marks: list[Optional[MentionAnnotation]] = []
    for i in kept:
        word = words[i]
        if word == "without":
            out_surfaces += ("with", "no")
            out_lemmas += ("with", "no")
            out_marks += (None, _ZERO)
        elif i in claimed:
            out_surfaces.append("no")
            out_lemmas.append("no")
            out_marks.append(_ZERO)
        elif word != "never":
            out_surfaces.append(surfaces[i])
            out_lemmas.append(lemmas[i])
            out_marks.append(marks.get(i, _ZERO if word in ("no", "0") else None))
    if "never" in words:  # "0 times" goes before a final terminal
        tail = len(out_surfaces) - bool(out_surfaces and out_surfaces[-1] in (".", "!", "?"))
        out_surfaces[tail:tail] = ("0", "times")
        out_lemmas[tail:tail] = ("0", "time")
        out_marks[tail:tail] = (_ZERO, None)
    out = out_surfaces, out_lemmas, {p: m for p, m in enumerate(out_marks) if m is not None}
    return None if out == (list(surfaces), list(lemmas), marks) else out


def _read(columns: _Columns, lexicon: NumLexicon, zero_mode: bool) -> tuple[tuple, tuple, list]:
    """The lowercased surfaces, their liveness, and the live positions not yet annotated.

    A zero cue can start a rewrite, so in zero mode it is live too. When no
    token is live, only the liveness is read.
    """
    surfaces, _, marks = columns
    floor = ZERO_CUE if zero_mode else LIVE
    read = lexicon.readings.__getitem__
    if max(map(_LIVENESS, map(read, surfaces)), default=DEAD) < floor:
        return (), (), []
    words, liveness = zip(*map(read, surfaces))
    live = [i for i, level in enumerate(liveness) if level >= floor and i not in marks]
    return words, liveness, live


def to_placeholder_sequence(sentence: Sentence) -> list[str]:
    """Lemma sequence with mentions replaced by their placeholder symbols."""
    symbols = list(sentence.lemmas())
    for position, mention in sentence.mentions:
        symbols[position] = mention.placeholder
    return symbols


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
    unannotated token is live. Only the surfaces are read; the lemma column
    is carried along.
    """
    columns: _Columns = (sentence.surfaces(), sentence.lemmas(), dict(sentence.mentions))
    words, liveness, live = _read(columns, lexicon, zero_mode)
    if not live:
        return sentence
    if zero_mode and (rewritten := _zero_cue_rewrites(columns, words)):
        columns = rewritten
        words, liveness, live = _read(columns, lexicon, zero_mode)
    surfaces, lemmas, marks = columns
    specials = {j: term for j in live if (term := _match_special(words, j, lexicon))}
    stops = specials.keys() | marks.keys()  # a cardinal run ends at these
    out: _Columns = ([], [], {})
    i = 0  # columns[:i] are read; only a live token can start anything
    for j in live:
        if j < i:
            continue  # inside a mention or special term read already
        special = specials.get(j)
        if special is not None:
            length = len(special.term)
            if special.replacement_text is None:
                mention = _mention(MentionKind.NUMTERM, special.value)
                replacement = _merged(columns, j, length, mention)
            else:
                replacement = _rewrite(special.replacement_text, lexicon, mode)
        elif liveness[j] == LIVE:
            mention, length = _recognise(words, j, stops, lexicon, mode)
            if mention is None:
                continue
            replacement = _merged(columns, j, length, mention)
        else:
            continue  # a zero cue left as it is
        _append(out, columns, i, j)
        _append(out, replacement, 0, len(replacement[0]))
        i = j + length
    if i == 0 and surfaces is sentence.surfaces():
        return sentence  # nothing rewritten or annotated
    _append(out, columns, i, len(surfaces))
    return Sentence(out[0], out[1], out[2].items())
