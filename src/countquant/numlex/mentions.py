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


def _parse_ordinal(w: str, lexicon: NumLexicon) -> Optional[int]:
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
    words: tuple[str, ...],
    lemmas: tuple[str, ...],
    i: int,
    stops,
    lexicon: NumLexicon,
    mode: str,
) -> tuple[Optional[MentionAnnotation], int]:
    """Mention starting at the live, unannotated ``words[i]``, and how many tokens it spans.

    Tries, in order: digit cardinal, word-cardinal run, ordinal, affixed
    number term, article. A run starts at a cardinal word, "and" or a
    hyphenated cardinal, which reads as its parts ("twenty-one hundred" is
    2100), and an article before a scale word starts one as "one" ("a
    hundred" is 100, in both modes). Any other article is a mention in
    inference mode only. "one" straight after "no" is a pronoun ("no one
    knows"), never a cardinal. Returns ``(None, 1)`` when the token is no
    mention.
    """
    surface = words[i]
    if surface == "one" and i and words[i - 1] == "no":
        return None, 1
    if _DIGIT_CARDINAL_RE.match(surface):
        return _mention(MentionKind.CARDINAL, int(surface.replace(",", ""))), 1
    table = lexicon.cardinal_words
    if surface in table or surface == "and" or (
        "-" in surface and all(word in table for word in surface.split("-"))
    ):
        run = _cardinal_run(words, i, surface.split("-"), stops, lexicon)
        if run is not None:
            return _mention(MentionKind.CARDINAL, run[0]), run[1]
    value = _parse_ordinal(surface, lexicon)
    if value is not None:
        return _mention(MentionKind.ORDINAL, value), 1
    affixed = lexicon.affixed_words
    value = affixed.get(surface, affixed.get(lemmas[i]))
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
    for k, (surface, lemma) in enumerate(zip(surfaces, lemmas)):
        word, liveness = lexicon.readings[surface]
        value = lexicon.cardinal_words.get(word)
        if value is not None:
            marks[k] = _mention(MentionKind.CARDINAL, value)
        elif liveness == LIVE:
            mention = _recognise((word,), (lemma,), 0, (), lexicon, mode)[0]
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
    unannotated token is live. Liveness is read per surface, so a lemma is
    taken to be ``lemmatize`` of its surface, as :func:`tokenize` builds it.
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
            mention, length = _recognise(words, lemmas, j, stops, lexicon, mode)
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
