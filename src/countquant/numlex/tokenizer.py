"""Rule-based tokenizer and lemmatizer.

No external NLP dependency: sentences split on terminal punctuation, tokens
on whitespace/punctuation boundaries, and lemmas come from plural-stripping
rules plus an exceptions table for irregular forms. Swap in a different
lemmatizer by passing ``lemma_fn`` to :func:`tokenize` if higher fidelity is
needed; downstream code only relies on the ``Token.lemma`` field.
"""

from __future__ import annotations

import re
from typing import Callable

from .types import Sentence, Token, make_sentence

# Ordered alternatives: digit ordinals, decimal numbers, comma-grouped
# integers, words (internal apostrophes/hyphens/digits stay inside the
# token), anything else as a single punctuation character. A comma joins
# digits only before a group of exactly three ("1,200"); otherwise it is
# punctuation ("1999,2001" and "1,2" are two numbers).
_TOKEN_RE = re.compile(
    r"""
    \d+(?:st|nd|rd|th)\b     # digit ordinal, "23rd"
  | \d+(?:,\d{3})*\.\d+      # decimal number, keeps "3.5" in one token
  | \d+(?:,\d{3}(?!\d))*     # integer, possibly comma-grouped ("1,200")
  | [A-Za-z][A-Za-z0-9]*(?:['’-][A-Za-z0-9]+)*
  | \S                       # any other visible character
    """,
    re.VERBOSE,
)

_CONTRACTION_RE = re.compile(r"^([A-Za-z]+)(n['’]t|['’]s)$", re.IGNORECASE)

_TERMINALS = {".", "!", "?"}

# Punctuation that attaches to the preceding token when rendering text.
_NO_SPACE_BEFORE = {".", ",", "!", "?", ";", ":", ")", "]", "%", "'s", "n't"}
_NO_SPACE_AFTER = {"(", "["}

# Irregular forms and words the suffix rules would mangle.
_LEMMA_EXCEPTIONS = {
    "is": "be", "are": "be", "was": "be", "were": "be", "am": "be",
    "been": "be", "being": "be",
    "has": "have", "had": "have", "having": "have",
    "does": "do", "did": "do", "done": "do", "doing": "do", "goes": "go",
    "brought": "bring", "gave": "give", "given": "give", "went": "go",
    "wrote": "write", "written": "write", "won": "win", "made": "make",
    "knew": "know", "known": "know", "became": "become", "saw": "see",
    "bought": "buy", "built": "build", "held": "hold", "took": "take",
    "bore": "bear", "born": "bear", "raised": "raise", "split": "split",
    "married": "marry", "adopted": "adopt", "directed": "direct",
    "retired": "retire", "composed": "compose", "consisted": "consist",
    "subdivided": "subdivide", "produced": "produce", "joined": "join",
    "moved": "move", "caused": "cause", "released": "release",
    "recorded": "record", "fathered": "father", "mothered": "mother",
    "children": "child", "men": "man", "women": "woman", "wives": "wife",
    "lives": "life", "movies": "movie", "series": "series", "species": "species",
    "editions": "edition",
    "always": "always", "perhaps": "perhaps", "news": "news", "n't": "not",
    "'s": "'s",
}


def lemmatize(word: str) -> str:
    """Lowercase base form of *word* (plural stripping + exceptions)."""
    w = word.lower()
    if w in _LEMMA_EXCEPTIONS:
        return _LEMMA_EXCEPTIONS[w]
    if not w.isalpha():
        return w
    if w.endswith("ies") and len(w) > 4:
        return w[:-3] + "y"
    if w.endswith(("sses", "ches", "shes", "xes", "zes")):
        return w[:-2]
    if w.endswith("oes") and len(w) > 4:
        return w[:-2]
    if w.endswith("men") and len(w) > 3:
        return w[:-3] + "man"
    if w.endswith("s") and not w.endswith(("ss", "us", "is")) and len(w) > 3:
        return w[:-1]
    return w


def _split_contractions(raw: list[str]) -> list[str]:
    out: list[str] = []
    for tok in raw:
        m = _CONTRACTION_RE.match(tok)
        if m:
            out.extend([m.group(1), m.group(2).replace("’", "'").lower()])
        else:
            out.append(tok)
    return out


def tokenize(text: str, lemma_fn: Callable[[str], str] = lemmatize) -> list[Sentence]:
    """Split *text* into sentences of tokens.

    Sentences end at ``.``, ``!`` or ``?`` tokens; decimal points inside
    number tokens do not split. Empty text yields an empty list.
    """
    raw = _split_contractions(_TOKEN_RE.findall(text))
    sentences: list[Sentence] = []
    current: list[Token] = []
    for surface in raw:
        current.append(Token(surface=surface, lemma=lemma_fn(surface), index=len(current)))
        if surface in _TERMINALS:
            sentences.append(make_sentence(current))
            current = []
    if current:
        sentences.append(make_sentence(current))
    return sentences


def detokenize(sentence: Sentence) -> str:
    """Render a sentence back to text with conventional spacing."""
    parts: list[str] = []
    for tok in sentence:
        if parts and tok.surface not in _NO_SPACE_BEFORE and parts[-1] not in _NO_SPACE_AFTER:
            parts.append(" ")
        parts.append(tok.surface)
    return "".join(parts)
