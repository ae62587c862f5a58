"""The fixed n-gram windows over placeholder/lemma sequences.

Observation features are n-grams of the symbols in a window around the
current position: every contiguous 1- to 5-gram that covers it, 15 windows
in all (:data:`WINDOWS`). ``BOS``/``EOS`` stand in for positions outside the
sequence. The 3x3 tag-transition weights are part of every model, not a window.

A model's features are one n-gram -> feature id table per window, keyed by
the ``"|"``-joined n-gram. Training builds the tables in one integer-coded
pass over all its sentences (:mod:`.train`) and joins only the n-grams it
keeps. Inference reads them through :class:`WidthIndex`, which merges the
tables of each width into one: a sentence's n-grams of width w are built
once, by extending those one symbol narrower, and each is looked up once,
however many of the w windows of that width hold it. Only the model file
names a feature as a string, ``"<window name>:<n-gram>"``.
"""

from __future__ import annotations

from itertools import chain, repeat
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
WIDEST = WINDOWS[-1][0]

# The n-grams of width w that touch an n-symbol sequence are the n + w - 1
# that start at most w - 1 symbols before it. Window (w, start) at position
# i reads the (i + start + w - 1)-th of them, and the (start + w - 1)-th id
# of that n-gram's block (its column). A sequence's n-grams are looked up
# width by width, so those of width w follow the (w - 1) n + (w - 1)(w - 2) / 2
# narrower ones.
_COLUMN = np.array([start + width - 1 for width, start in WINDOWS], dtype=np.intp)
_NARROWER_PER_TOKEN = np.array([width - 1 for width, _ in WINDOWS], dtype=np.intp)
_FIRST = _COLUMN + [(width - 1) * (width - 2) // 2 for width, _ in WINDOWS]
# The n-gram before a sequence's first touching one of each width w >= 2:
# w - 1 BOS symbols.
_BOS_RUNS = tuple("|".join([BOS] * (width - 1)) for width in range(2, WIDEST + 1))


class WidthIndex:
    """Per-window n-gram tables as one table per width, for inference.

    ``pointers[w - 1]`` maps each n-gram of width w that any window of that
    width holds to where its block of w ids starts in ``ids``; entry
    ``pointer + start + w - 1`` is its feature id in window (w, start), or
    *unseen* where it is not a feature of that window. Pointer 0 is a block
    of unseen ids, which every missing n-gram shares.
    """

    def __init__(self, tables: Sequence[dict[str, int]], unseen: int) -> None:
        blocks = [np.full(WIDEST, unseen, dtype=np.intp)]
        end = WIDEST
        pointers = []
        for width in range(1, WIDEST + 1):
            windows = [t for t, (w, _) in enumerate(WINDOWS) if w == width]
            grams = dict.fromkeys(chain.from_iterable(tables[t] for t in windows))
            index = dict(zip(grams, range(end, end + width * len(grams), width)))
            block = np.full(width * len(grams), unseen, dtype=np.intp)
            for t in windows:
                table = tables[t]
                at = np.fromiter(map(index.__getitem__, table), np.intp, len(table))
                block[at - end + _COLUMN[t]] = np.fromiter(table.values(), np.intp, len(table))
            pointers.append(index)
            blocks.append(block)
            end += block.size
        self.pointers = tuple(pointers)
        self.ids = np.concatenate(blocks)
        self.ids.flags.writeable = False

    def lookup(self, sequence: Sequence[str]) -> np.ndarray:
        """Feature ids of the sequence, shape (len(sequence), len(WINDOWS)), in window order.

        The keys are built on the padding ``BOS``/``EOS`` as the windows see
        it, so a symbol that is itself ``"BOS"``, holds ``"|"`` or is empty
        reads the n-gram its window joins to.
        """
        n = len(sequence)
        grams = list(sequence)
        tail = grams + [EOS] * PAD
        at = list(map(self.pointers[0].get, grams, repeat(0)))
        for table, before in zip(self.pointers[1:], _BOS_RUNS):
            # Each n-gram one symbol wider: the narrower one starting at the
            # same place, extended by the symbol after it.
            grams = list(map("|".join, zip(chain((before,), grams), tail)))
            at += map(table.get, grams, repeat(0))
        rows = np.arange(n)[:, None] + (n * _NARROWER_PER_TOKEN + _FIRST)
        return self.ids[np.array(at, dtype=np.intp)[rows] + _COLUMN]
