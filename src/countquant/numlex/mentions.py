"""Detection and normalization of numeric mentions in tokenized sentences.

The preprocessing chain for a sentence is::

    tokenize -> [rewrite_zero_cues] -> normalize_special_terms -> annotate_mentions

after which :func:`to_placeholder_sequence` produces the lemma/placeholder
symbols consumed by the sequence labeler. Every function returns a new
sentence; all are idempotent, so running a step twice (or annotating before
normalizing) converges to the same result.

``mode="train"`` skips indefinite articles: they are far too frequent to act
as training cues and are only annotated when applying a trained model
(``mode="inference"``).
"""

from __future__ import annotations

import re
from typing import Optional

from .lexicon import NumLexicon, SpecialTerm
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

_DIGIT_CARDINAL_RE = re.compile(r"^\d+(?:,\d{3})*$")
_DIGIT_ORDINAL_RE = re.compile(r"^(\d+)(st|nd|rd|th)$")

_COMP_CUE_SURFACES = {",", "and"}


def is_comp_cue(token: Token) -> bool:
    """True for tokens that can join compositional count mentions."""
    return token.surface.lower() in _COMP_CUE_SURFACES


def _parse_cardinal_words(words: list[str], table: dict[str, int]) -> Optional[tuple[int, int]]:
    """Longest cardinal number starting at ``words[0]``.

    Returns (value, words consumed) or None. Supports unit/tens/scale
    composition up to 999,999; "and" is absorbed only straight after a
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
            if state in ("unit", "teen") and not hundred_used:
                group *= 100
                hundred_used = True
                state = "hundred"
            else:
                break
        elif v == 1000:
            if total == 0 and group >= 1 and state != "start":
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


def _parse_hyphenated_cardinal(surface: str, table: dict[str, int]) -> Optional[int]:
    parts = surface.lower().split("-")
    if len(parts) < 2 or any(p not in table for p in parts):
        return None
    parsed = _parse_cardinal_words(parts, table)
    if parsed and parsed[1] == len(parts):
        return parsed[0]
    return None


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


def _decode_affix(word: str, lexicon: NumLexicon) -> Optional[tuple[int, str]]:
    """Split *word* into numeric prefix + known suffix, e.g. pentalogy -> (5, "-logy")."""
    return lexicon.affixed_words.get(word)


def _special_value(term: SpecialTerm, lexicon: NumLexicon) -> int:
    """Count expressed by a special term (stored, or decoded from its rewrite text)."""
    if term.value is not None:
        return term.value
    words = term.replacement_text.lower().split()
    parsed = _parse_cardinal_words(words, lexicon.cardinal_words)
    if parsed is None:
        raise ValueError(f"special term {' '.join(term.term)!r}: replacement carries no number")
    return parsed[0]


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


def annotate_mentions(
    sentence: Sentence, lexicon: NumLexicon, mode: str = TRAIN_MODE
) -> Sentence:
    """Attach a :class:`MentionAnnotation` to every numeric mention.

    Detects digit and word cardinals (multi-word spans merge into one
    token), ordinals, Latin/Greek-affixed number terms, special terms, and
    (in inference mode) the indefinite articles. Already-annotated tokens
    are left untouched, which makes the operation idempotent.
    """
    tokens = sentence.tokens
    out: list[Token] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.mention is not None:
            out.append(tok)
            i += 1
            continue

        special = _match_special(tokens, i, lexicon)
        if special is not None and all(
            t.mention is None for t in tokens[i : i + len(special.term)]
        ):
            value = _special_value(special, lexicon)
            mention = MentionAnnotation(
                kind=MentionKind.NUMTERM, value=value, suffix_class=special.suffix_class
            )
            out.append(_merge_tokens(tokens[i : i + len(special.term)], mention))
            i += len(special.term)
            continue

        surface = tok.surface.lower()

        if _DIGIT_CARDINAL_RE.match(surface):
            value = int(surface.replace(",", ""))
            kind = MentionKind.CARDINAL
            out.append(tok.with_mention(MentionAnnotation(kind=kind, value=value)))
            i += 1
            continue

        hyphen_value = _parse_hyphenated_cardinal(surface, lexicon.cardinal_words)
        if hyphen_value is not None:
            out.append(
                tok.with_mention(
                    MentionAnnotation(kind=MentionKind.CARDINAL, value=hyphen_value)
                )
            )
            i += 1
            continue

        if surface in lexicon.cardinal_words or surface == "and":
            run_words = []
            j = i
            while j < len(tokens) and tokens[j].mention is None and (
                tokens[j].surface.lower() in lexicon.cardinal_words
                or tokens[j].surface.lower() == "and"
            ):
                run_words.append(tokens[j].surface.lower())
                j += 1
            parsed = _parse_cardinal_words(run_words, lexicon.cardinal_words)
            if parsed is not None:
                value, length = parsed
                mention = MentionAnnotation(kind=MentionKind.CARDINAL, value=value)
                out.append(_merge_tokens(tokens[i : i + length], mention))
                i += length
                continue

        ordinal_value = _parse_ordinal(tok.surface, lexicon)
        if ordinal_value is not None:
            out.append(
                tok.with_mention(
                    MentionAnnotation(kind=MentionKind.ORDINAL, value=ordinal_value)
                )
            )
            i += 1
            continue

        affix = _decode_affix(surface, lexicon) or _decode_affix(tok.lemma, lexicon)
        if affix is not None:
            value, suffix = affix
            out.append(
                tok.with_mention(
                    MentionAnnotation(
                        kind=MentionKind.NUMTERM, value=value, suffix_class=suffix
                    )
                )
            )
            i += 1
            continue

        if mode == INFERENCE_MODE and surface in lexicon.articles:
            out.append(
                tok.with_mention(MentionAnnotation(kind=MentionKind.ARTICLE, value=1))
            )
            i += 1
            continue

        out.append(tok)
        i += 1
    return make_sentence(out)


def normalize_special_terms(sentence: Sentence, lexicon: NumLexicon) -> Sentence:
    """Rewrite special terms before labeling.

    Terms with a textual replacement ("thrice" -> "three times", "a dozen"
    -> "twelve") are substituted and their cardinal words annotated; terms
    with a placeholder replacement ("twins") stay in place and receive their
    suffixed number-term annotation. Token indices are re-assigned.
    """
    tokens = sentence.tokens
    out: list[Token] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        special = _match_special(tokens, i, lexicon)
        if special is None or (tok.mention is not None and special.replacement_text is None):
            out.append(tok)
            i += 1
            continue
        span = tokens[i : i + len(special.term)]
        if special.replacement_text is None:
            mention = MentionAnnotation(
                kind=MentionKind.NUMTERM,
                value=_special_value(special, lexicon),
                suffix_class=special.suffix_class,
            )
            out.append(_merge_tokens(span, mention))
        else:
            for word in special.replacement_text.split():
                mention = None
                if word.lower() in lexicon.cardinal_words:
                    mention = MentionAnnotation(
                        kind=MentionKind.CARDINAL,
                        value=lexicon.cardinal_words[word.lower()],
                    )
                out.append(
                    Token(surface=word, lemma=lemmatize(word), index=0, mention=mention)
                )
        i += len(special.term)
    return make_sentence(out)


def rewrite_zero_cues(sentence: Sentence) -> Sentence:
    """Rewrite non-existence phrasings into countable zero mentions.

    Three schemas: "did n't ... any" drops the auxiliary and negation and
    turns "any" into "no"; every "never" is removed and "0 times" appended
    once; "without" becomes "with no". All remaining "no"/"0" tokens are then
    annotated as zero-count cardinal mentions.
    """
    tokens = list(sentence.tokens)

    changed = True
    while changed:  # n't-any: apply until no pattern is left
        changed = False
        for j in range(1, len(tokens)):
            if tokens[j].surface.lower() not in ("n't", "not"):
                continue
            if tokens[j - 1].surface.lower() not in ("do", "does", "did"):
                continue
            k = next(
                (m for m in range(j + 1, len(tokens)) if tokens[m].surface.lower() == "any"),
                None,
            )
            if k is None:
                continue
            tokens[k] = Token(surface="no", lemma="no", index=0)
            del tokens[j - 1 : j + 1]
            changed = True
            break

    kept = [tok for tok in tokens if tok.surface.lower() != "never"]
    if len(kept) < len(tokens):
        tokens = kept
        tail = len(tokens)
        if tail and tokens[-1].surface in (".", "!", "?"):
            tail -= 1
        tokens[tail:tail] = [
            Token(surface="0", lemma="0", index=0),
            Token(surface="times", lemma="time", index=0),
        ]

    out: list[Token] = []
    for tok in tokens:
        if tok.surface.lower() == "without":
            out.append(Token(surface="with", lemma="with", index=0))
            out.append(Token(surface="no", lemma="no", index=0))
        else:
            out.append(tok)

    annotated = [
        tok.with_mention(MentionAnnotation(kind=MentionKind.ZERO, value=0))
        if tok.mention is None and tok.surface.lower() in ("no", "0")
        else tok
        for tok in out
    ]
    return make_sentence(annotated)


def to_placeholder_sequence(sentence: Sentence, full: bool = False) -> list[str]:
    """Lemma sequence with mentions replaced by their placeholder symbols.

    ``full=True`` keeps suffixed number-term placeholders (NUMTERM-plets);
    the default collapses them to the bare kind, which is what sequence
    models are trained on.
    """
    seq = []
    for tok in sentence:
        if tok.mention is None:
            seq.append(tok.lemma)
        elif full:
            seq.append(tok.mention.placeholder)
        else:
            seq.append(tok.mention.base_placeholder)
    return seq


def preprocess_sentence(
    sentence: Sentence,
    lexicon: NumLexicon,
    mode: str = TRAIN_MODE,
    zero_mode: bool = False,
) -> Sentence:
    """Run the full per-sentence preprocessing chain."""
    if zero_mode:
        sentence = rewrite_zero_cues(sentence)
    sentence = normalize_special_terms(sentence, lexicon)
    return annotate_mentions(sentence, lexicon, mode=mode)
