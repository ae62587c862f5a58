"""Core token/sentence types shared by the whole pipeline.

Sentences are immutable: a preprocessing step that changes one returns a new
``Sentence`` with token indices re-assigned, so they can be passed freely
between workers. A ``Token`` is a ``typing.NamedTuple``: a tuple, so building
one per token costs about half what a frozen dataclass does, and it pickles
by value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional


class MentionKind(enum.Enum):
    """Linguistic form of a numeric mention."""

    CARDINAL = "cardinal"
    ORDINAL = "ordinal"
    NUMTERM = "numterm"
    ARTICLE = "article"
    ZERO = "zero"


# Placeholder symbols substituted for mention tokens in CRF input sequences.
PLACEHOLDER_CARDINAL = "CARDINAL"
PLACEHOLDER_ORDINAL = "ORDINAL"
PLACEHOLDER_NUMTERM = "NUMTERM"

_PLACEHOLDER = {
    MentionKind.CARDINAL: PLACEHOLDER_CARDINAL,
    MentionKind.ORDINAL: PLACEHOLDER_ORDINAL,
    MentionKind.NUMTERM: PLACEHOLDER_NUMTERM,
    # Indefinite articles and zero cues surface as cardinals ("one" / "0").
    MentionKind.ARTICLE: PLACEHOLDER_CARDINAL,
    MentionKind.ZERO: PLACEHOLDER_CARDINAL,
}


@dataclass(frozen=True)
class MentionAnnotation:
    """Normalized numeric reading attached to a token."""

    kind: MentionKind
    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"mention value must be >= 0, got {self.value}")
        if self.kind is MentionKind.ARTICLE and self.value != 1:
            raise ValueError("article mentions always count one")
        if self.kind is MentionKind.ZERO and self.value != 0:
            raise ValueError("zero mentions always count zero")
        if self.kind is MentionKind.NUMTERM and self.value < 1:
            raise ValueError("number-term mentions decode to a value >= 1")

    @property
    def placeholder(self) -> str:
        """The symbol that stands for the mention in placeholder sequences."""
        return _PLACEHOLDER[self.kind]


class Token(NamedTuple):
    """A single token: surface form, lowercased lemma, sentence position."""

    surface: str
    lemma: str
    index: int
    mention: Optional[MentionAnnotation] = None

    def with_mention(self, mention: MentionAnnotation) -> "Token":
        return self._replace(mention=mention)


@dataclass(frozen=True)
class Sentence:
    """An immutable tokenized sentence."""

    tokens: tuple[Token, ...]

    def __post_init__(self) -> None:
        for i, tok in enumerate(self.tokens):
            if tok.index != i:
                raise ValueError(
                    f"token index {tok.index} at position {i}: indices must be 0..n-1"
                )

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def __getitem__(self, i: int) -> Token:
        return self.tokens[i]

    @cached_property
    def mentions(self) -> tuple[Token, ...]:
        """Tokens carrying a mention annotation, in sentence order (computed once)."""
        return tuple(t for t in self.tokens if t.mention is not None)

    def __getstate__(self) -> dict:
        # The cached mentions are derived, so a sentence pickles as its tokens.
        return {"tokens": self.tokens}

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]

    def lemmas(self) -> list[str]:
        return [t.lemma for t in self.tokens]


def make_sentence(tokens: Iterable[Token]) -> Sentence:
    """Build a sentence, re-assigning indices to 0..n-1 (tokens already in place are kept)."""
    fixed = tuple(
        tok if tok.index == i else tok._replace(index=i) for i, tok in enumerate(tokens)
    )
    return Sentence(tokens=fixed)
