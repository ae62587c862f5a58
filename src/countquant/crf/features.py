"""Feature templates over placeholder/lemma sequences.

Observation features are n-grams (length 1..5) of the symbols in a window
around the current position; ``BOS``/``EOS`` stand in for positions outside
the sequence. One tag-bigram template adds the 3x3 transition parameters.

:func:`sentence_features` builds the features of a whole sequence at once:
it pads the sequence with ``BOS``/``EOS`` a single time and joins each
template's slice under the template's name, computed once per template.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

BOS = "BOS"
EOS = "EOS"

TOKEN_NGRAM = "token_ngram"
TAG_BIGRAM = "tag_bigram"


@dataclass(frozen=True)
class FeatureTemplate:
    kind: str
    offsets: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (TOKEN_NGRAM, TAG_BIGRAM):
            raise ValueError(f"unknown template kind {self.kind!r}")
        if self.kind == TOKEN_NGRAM:
            n = len(self.offsets)
            if not 1 <= n <= 5:
                raise ValueError("n-gram length must be 1..5")
            if list(self.offsets) != list(range(self.offsets[0], self.offsets[0] + n)):
                raise ValueError("n-gram offsets must be contiguous")

    @property
    def name(self) -> str:
        """Feature-string prefix: U3[-2] etc.; centered windows drop the bracket."""
        n = len(self.offsets)
        start = self.offsets[0]
        if n % 2 == 1 and start == -(n // 2):
            return f"U{n}"
        return f"U{n}[{start}]"


def default_templates(max_len: int = 5, window: int = 4) -> list[FeatureTemplate]:
    """Every contiguous n-gram (length 1..max_len) within +/-window touching position 0."""
    templates = []
    for n in range(1, max_len + 1):
        for start in range(-(n - 1), 1):
            if start >= -window and start + n - 1 <= window:
                templates.append(
                    FeatureTemplate(kind=TOKEN_NGRAM, offsets=tuple(range(start, start + n)))
                )
    templates.append(FeatureTemplate(kind=TAG_BIGRAM))
    return templates


def sentence_features(
    sequence: list[str], templates: Sequence[FeatureTemplate]
) -> list[list[str]]:
    """Observation feature strings of every position, in template order.

    Tag-bigram templates emit none.
    """
    ngrams = [tpl for tpl in templates if tpl.kind == TOKEN_NGRAM]
    n = len(sequence)
    if not ngrams:
        return [[] for _ in range(n)]
    left = max(0, -min(tpl.offsets[0] for tpl in ngrams))
    right = max(0, max(tpl.offsets[-1] for tpl in ngrams))
    padded = [BOS] * left + list(sequence) + [EOS] * right
    columns = []
    for tpl in ngrams:
        prefix = f"{tpl.name}:"
        start = left + tpl.offsets[0]
        width = len(tpl.offsets)
        columns.append(
            [prefix + "|".join(padded[j : j + width]) for j in range(start, start + n)]
        )
    return [list(row) for row in zip(*columns)]
