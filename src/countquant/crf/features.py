"""Feature templates over placeholder/lemma sequences.

Observation features are n-grams (length 1..5) of the symbols in a window
around the current position; ``BOS``/``EOS`` stand in for positions outside
the sequence. A template is its window of contiguous offsets; the 3x3
tag-transition weights are part of every model, not a template.

:func:`template_columns` builds the n-grams of a whole sequence at once: it
pads the sequence with ``BOS``/``EOS`` a single time and builds each width's
n-grams once, by extending the next narrower ones. A model's features are
one n-gram -> feature id table per template name; training and inference
both map a sentence's columns to ids through those tables with
:func:`lookup_ids`. Only the model file names a feature as a string,
``"<template name>:<n-gram>"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

BOS = "BOS"
EOS = "EOS"


@dataclass(frozen=True)
class FeatureTemplate:
    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
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


def default_templates() -> list[FeatureTemplate]:
    """Every contiguous n-gram of length 1..5 that covers position 0, shortest first."""
    return [
        FeatureTemplate(tuple(range(start, start + n)))
        for n in range(1, 6)
        for start in range(1 - n, 1)
    ]


def template_columns(
    sequence: Sequence[str], templates: Sequence[FeatureTemplate]
) -> list[list[str]]:
    """The ``"|"``-joined n-gram of every position, one column per template, in order.

    The sequence is padded with ``BOS``/``EOS`` once, and each width's
    n-grams are built once, by extending those one symbol narrower.
    """
    if not templates:
        return []
    n = len(sequence)
    left = max(0, -min(tpl.offsets[0] for tpl in templates))
    right = max(0, max(tpl.offsets[-1] for tpl in templates))
    padded = [BOS] * left + list(sequence) + [EOS] * right
    by_width = [padded]  # by_width[w - 1][j] joins padded[j : j + w]
    for w in range(2, max(len(tpl.offsets) for tpl in templates) + 1):
        by_width.append(list(map("|".join, zip(by_width[-1], padded[w - 1 :]))))
    return [
        by_width[len(tpl.offsets) - 1][left + tpl.offsets[0] : left + tpl.offsets[0] + n]
        for tpl in templates
    ]


def lookup_ids(
    tables: Sequence[dict[str, int]], columns: Sequence[Sequence[str]], n: int, unseen: int
) -> np.ndarray:
    """Feature ids of *n* positions, shape (n, len(tables)), in template order.

    ``tables[j]`` maps the n-grams of ``columns[j]`` to feature ids; an n-gram
    missing from its table gets the id *unseen*.
    """
    ids: list[int] = []
    for table, column in zip(tables, columns):
        ids += map(table.get, column, repeat(unseen))
    return np.array(ids, dtype=np.intp).reshape(len(tables), n).T
