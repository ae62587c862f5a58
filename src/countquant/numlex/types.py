"""Core sentence types shared by the whole pipeline.

A :class:`Sentence` is its columns: a tuple of surfaces, a tuple of lemmas,
and its mentions as ``(position, MentionAnnotation)`` pairs in increasing
position order. Sentences are immutable: a preprocessing step that changes
one builds the new columns once. A sentence pickles as its columns, so it can
be passed freely between workers. A :class:`Token` is a view of one
position, built only when a sentence is iterated, and the input of
:func:`make_sentence`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional


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
    """A view of one sentence position: surface form, lemma, position, mention."""

    surface: str
    lemma: str
    index: int
    mention: Optional[MentionAnnotation] = None


@dataclass(frozen=True, init=False)
class Sentence:
    """An immutable tokenized sentence, held as columns.

    ``surfaces()`` and ``lemmas()`` return the two tuples; ``mentions`` holds
    the ``(position, MentionAnnotation)`` pairs, positions strictly increasing.
    """

    _surfaces: tuple[str, ...]
    _lemmas: tuple[str, ...]
    mentions: tuple[tuple[int, MentionAnnotation], ...]

    def __init__(self, surfaces: Iterable[str], lemmas: Iterable[str],
                 mentions: Iterable[tuple[int, MentionAnnotation]] = ()) -> None:
        surfaces, lemmas, mentions = tuple(surfaces), tuple(lemmas), tuple(mentions)
        if len(surfaces) != len(lemmas):
            raise ValueError(f"{len(surfaces)} surfaces but {len(lemmas)} lemmas")
        previous = -1
        for position, _ in mentions:
            if not previous < position < len(surfaces):
                raise ValueError(f"mention position {position} after {previous} in "
                                 f"{len(surfaces)} tokens: positions must increase in 0..n-1")
            previous = position
        object.__setattr__(self, "_surfaces", surfaces)
        object.__setattr__(self, "_lemmas", lemmas)
        object.__setattr__(self, "mentions", mentions)

    def __len__(self) -> int:
        return len(self._surfaces)

    def __iter__(self) -> Iterator[Token]:
        marks = dict(self.mentions)
        for i, (surface, lemma) in enumerate(zip(self._surfaces, self._lemmas)):
            yield Token(surface, lemma, i, marks.get(i))

    def surfaces(self) -> tuple[str, ...]:
        return self._surfaces

    def lemmas(self) -> tuple[str, ...]:
        return self._lemmas


def make_sentence(tokens: Iterable[Token]) -> Sentence:
    """The sentence of *tokens* in order; their indices are ignored, positions run 0..n-1."""
    tokens = tuple(tokens)
    return Sentence(
        (t.surface for t in tokens),
        (t.lemma for t in tokens),
        ((i, t.mention) for i, t in enumerate(tokens) if t.mention is not None),
    )
