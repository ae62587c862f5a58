"""The fixed n-gram windows over placeholder/lemma sequences.

Observation features are n-grams of the symbols in a window around the
current position: every contiguous 1- to 5-gram that covers it, 15 windows
in all (:data:`WINDOWS`). ``BOS``/``EOS`` stand in for positions outside the
sequence. The 3x3 tag-transition weights are part of every model, not a window.

:func:`template_columns` builds the n-grams of a whole sequence at once: it
pads the sequence with ``PAD`` ``BOS``/``EOS`` symbols a single time and
builds each width's n-grams once, by extending the next narrower ones. A
model's features are one n-gram -> feature id table per window. Inference
maps a sentence's columns to ids through those tables with
:func:`lookup_ids`; training builds the tables in one integer-coded pass over
all its sentences (:mod:`.train`), on the same padding, and joins only the
n-grams it keeps. Only the model file names a feature as a string,
``"<window name>:<n-gram>"``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Sequence

import numpy as np

BOS = "BOS"
EOS = "EOS"

# Each window as (width, start offset from the current position), shortest first.
WINDOWS = tuple((width, start) for width in range(1, 6) for start in range(1 - width, 1))
# Feature-string prefixes: U3[-2] etc.; a centered window drops the bracket.
WINDOW_NAMES = tuple(f"U{width}" if width % 2 and start == -(width // 2) else f"U{width}[{start}]"
                     for width, start in WINDOWS)
# BOS symbols before a sequence and EOS symbols after it: the widest window
# reaches 4 positions to either side.
PAD = 4


def template_columns(sequence: Sequence[str]) -> list[list[str]]:
    """The ``"|"``-joined n-gram of every position, one column per window, in order.

    The sequence is padded with ``BOS``/``EOS`` once, and each width's
    n-grams are built once, by extending those one symbol narrower.
    """
    n = len(sequence)
    padded = [BOS] * PAD + list(sequence) + [EOS] * PAD
    by_width = [padded]  # by_width[w - 1][j] joins padded[j : j + w]
    for w in range(2, WINDOWS[-1][0] + 1):
        by_width.append(list(map("|".join, zip(by_width[-1], padded[w - 1 :]))))
    return [by_width[width - 1][PAD + start : PAD + start + n] for width, start in WINDOWS]


def lookup_ids(
    tables: Sequence[dict[str, int]], columns: Sequence[Sequence[str]], n: int, unseen: int
) -> np.ndarray:
    """Feature ids of *n* positions, shape (n, len(tables)), in window order.

    ``tables[j]`` maps the n-grams of ``columns[j]`` to feature ids; an n-gram
    missing from its table gets the id *unseen*.
    """
    ids: list[int] = []
    for table, column in zip(tables, columns):
        ids += map(table.get, column, repeat(unseen))
    return np.array(ids, dtype=np.intp).reshape(len(tables), n).T
