"""Rule-based tokenizer and lemmatizer.

No external NLP dependency: sentences split on terminal punctuation, tokens
on whitespace/punctuation boundaries, and lemmas come from plural-stripping
rules plus an exceptions table for irregular forms.

Text repeats a small vocabulary, so the contraction split and the lemma are
worked out once per distinct raw token: :func:`_pieces` is a bounded
``functools.lru_cache`` (at most ``_PIECES_CACHE_SIZE`` raw tokens, however
large the corpus), and the tokenize loop only extends a sentence's surface
and lemma columns.

Contractions are split after the token regex, not inside it. A clitic
alternative in ``_TOKEN_RE`` would buy no speed, since the split is cached
per distinct raw token, and it would change tokens: "23rd's" would give
"23rd" "'s" (today "23rd" "'" "s"), and "ISN'T" would keep the clitic "N'T"
(today "n't", lemma "not").
"""

from __future__ import annotations

import re
from functools import lru_cache

from .types import Sentence

# Alternatives: words (internal apostrophes/hyphens/digits stay inside the
# token); at a digit only, in order, digit ordinals, decimal numbers and
# comma-grouped integers; anything else as a single punctuation character.
# A comma joins digits only after a leading group of one to three digits and
# before a group of exactly three ("1,200"); otherwise it is punctuation
# ("1999,2001", "1999,200" and "1,2" are two numbers).
_TOKEN_RE = re.compile(
    r"""
    [A-Za-z][A-Za-z0-9]*(?:['’-][A-Za-z0-9]+)*
  | (?=\d)(?:
        \d+(?:st|nd|rd|th)\b             # digit ordinal, "23rd"
      | (?:\d{1,3}(?:,\d{3})+|\d+)\.\d+  # decimal number, keeps "3.5" in one token
      | \d{1,3}(?:,\d{3}(?!\d))+ | \d+  # integer, possibly comma-grouped ("1,200")
    )
  | \S                                   # any other visible character
    """,
    re.VERBOSE,
)

_CONTRACTION_RE = re.compile(r"^([A-Za-z]+)(n['’]t|['’]s)$", re.IGNORECASE)

_TERMINALS = {".", "!", "?"}

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


# Distinct raw tokens whose pieces are kept; the least recently used go first.
_PIECES_CACHE_SIZE = 4096


@lru_cache(maxsize=_PIECES_CACHE_SIZE)
def _pieces(raw: str) -> tuple[tuple[str, str], ...]:
    """``(surface, lemma)`` of each token the raw token *raw* gives.

    A contraction splits in two, its clitic lowercased with a straight
    apostrophe ("ISN'T" gives "IS", "n't"); any other raw token is one token.
    """
    m = _CONTRACTION_RE.match(raw)
    if m is None:
        return ((raw, lemmatize(raw)),)
    head, clitic = m.group(1), m.group(2).replace("’", "'").lower()
    return ((head, lemmatize(head)), (clitic, lemmatize(clitic)))


def tokenize(text: str) -> list[Sentence]:
    """Split *text* into sentences of tokens.

    Sentences end at ``.``, ``!`` or ``?`` tokens; decimal points inside
    number tokens do not split. Empty text yields an empty list.
    """
    sentences: list[Sentence] = []
    surfaces: list[str] = []
    lemmas: list[str] = []
    for raw in _TOKEN_RE.findall(text):
        for surface, lemma in _pieces(raw):
            surfaces.append(surface)
            lemmas.append(lemma)
        if raw in _TERMINALS:  # a terminal is a raw token of its own
            sentences.append(Sentence(surfaces, lemmas))
            surfaces, lemmas = [], []
    if surfaces:
        sentences.append(Sentence(surfaces, lemmas))
    return sentences
