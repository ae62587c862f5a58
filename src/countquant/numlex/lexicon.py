"""Number lexicon: the word tables driving mention detection.

All tables live in editable TSV files (one entry per line, tab-separated,
``#`` comments). The files shipped under ``numlex/data/`` are the source of
truth for which terms are recognized; ``load_default_lexicon`` reads them,
``load_lexicon`` reads the same file set from any directory.

A :class:`NumLexicon` compiles its lookup tables once, when it is built:
``specials_by_first`` maps a special term's first token to the terms that
start with it, longest first, ``affixed_words`` maps every prefix + suffix
word to its value, and ``live_words`` holds every word that can start a
mention or a special term ("and" only joins number words, so it is none).
:meth:`NumLexicon.is_live` is the one rule for whether a token can start
either: a live word, a hyphenated word, a leading digit or an affixed lemma.
Only in zero mode does a zero cue also count as live. ``readings`` records a
surface's lowercase form and liveness on its first read, for a bounded
number of distinct surfaces. Preprocessing returns a sentence with no live
token as it is, and reads only live tokens further.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterator

from ..reader import InputError, read_lines
from .tokenizer import lemmatize

_DATA_DIR = Path(__file__).parent / "data"

# Replacement syntax for special terms that stay in place as one number-term
# token with a value, e.g. "NUMTERM:2"; what follows the colon must be a value.
# The older form "NUMTERM-plets:2" still loads: the suffix is read and ignored.
_PLACEHOLDER_REPLACEMENT_RE = re.compile(r"^NUMTERM(?:-[a-z]+)?:(.*)$")

# The lowercased words that zero mode rewrites into zero mentions.
ZERO_CUES = frozenset({"n't", "not", "any", "never", "without", "no", "0"})

# Distinct surfaces whose readings a lexicon keeps; all are dropped when it is full.
_READINGS_SIZE = 4096
# Liveness of a surface: it starts nothing, it is a zero cue (live in zero mode
# only), or it can start a mention or a special term (NumLexicon.is_live).
DEAD, ZERO_CUE, LIVE = 0, 1, 2


class _Readings(dict):
    """``surface -> (lowercase form, liveness)``, worked out on a surface's first read."""

    def __init__(self, reading: Callable[[str], tuple[str, int]]) -> None:
        super().__init__()
        self.reading = reading

    def __missing__(self, surface: str) -> tuple[str, int]:
        if len(self) >= _READINGS_SIZE:
            self.clear()
        self[surface] = reading = self.reading(surface)
        return reading


@dataclass(frozen=True)
class SpecialTerm:
    """One entry of the special-terms table."""

    term: tuple[str, ...]            # lowercased token sequence it matches
    replacement_text: str | None     # rewrite text, or None for in-place terms
    value: int | None                # decoded count for in-place terms


@dataclass(frozen=True)
class NumLexicon:
    """The word tables, plus the lookup tables compiled from them at construction."""

    cardinal_words: dict[str, int]
    ordinal_words: dict[str, int]
    latin_greek_prefixes: dict[str, int]
    num_term_suffixes: frozenset[str]
    special_terms: tuple[SpecialTerm, ...]
    affix_exceptions: frozenset[str] = frozenset()
    articles: frozenset[str] = field(default=frozenset({"a", "an"}))
    # first token -> special terms starting with it, longest first (stable in table order)
    specials_by_first: dict[str, tuple[SpecialTerm, ...]] = field(
        init=False, repr=False, compare=False
    )
    # prefix + suffix word -> its prefix's value, split at its longest suffix;
    # the affix exceptions are left out
    affixed_words: dict[str, int] = field(init=False, repr=False, compare=False)
    # every word that can start a mention or a special term: the cardinal, ordinal
    # and affixed words, the articles and the special terms' first words (digits
    # and hyphenated words aside)
    live_words: frozenset[str] = field(init=False, repr=False, compare=False)
    # surface -> (lowercase form, liveness), for at most _READINGS_SIZE surfaces
    readings: _Readings = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for table in (self.cardinal_words, self.ordinal_words, self.latin_greek_prefixes):
            for key, value in table.items():
                if value < 0:
                    raise ValueError(f"negative value for {key!r}")
                if key != key.lower():
                    raise ValueError(f"lexicon keys must be lowercase: {key!r}")
        by_first: dict[str, list[SpecialTerm]] = {}
        for term in sorted(self.special_terms, key=lambda t: -len(t.term)):
            by_first.setdefault(term.term[0], []).append(term)
        affixed: dict[str, int] = {}
        for suffix in sorted(self.num_term_suffixes, key=len, reverse=True):
            for stem, value in self.latin_greek_prefixes.items():
                if stem and stem + suffix not in self.affix_exceptions:
                    affixed.setdefault(stem + suffix, value)
        object.__setattr__(
            self, "specials_by_first", {w: tuple(ts) for w, ts in by_first.items()}
        )
        object.__setattr__(self, "affixed_words", affixed)
        live = frozenset().union(
            self.cardinal_words, self.ordinal_words, affixed, self.articles, by_first
        )
        object.__setattr__(self, "live_words", live)
        object.__setattr__(self, "readings", _Readings(self._reading))

    def __reduce__(self):
        # A copy compiles its own tables and starts with no readings.
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def is_live(self, word: str, lemma: str) -> bool:
        """Whether a token (lowercased surface *word*, lemma *lemma*) can start anything.

        That is a mention or a special term. A token that is not live is never
        read as either.
        """
        return (
            word in self.live_words
            or lemma in self.affixed_words
            or "-" in word
            or word[:1].isdigit()
        )

    def _reading(self, surface: str) -> tuple[str, int]:
        word = surface.lower()
        word = surface if word == surface else word  # keep one string, not two
        if self.is_live(word, lemmatize(surface)):
            return word, LIVE
        return word, ZERO_CUE if word in ZERO_CUES else DEAD


class LexiconFormatError(InputError):
    """A missing or malformed table: ``<dir>: cannot load lexicon: <table>[:<line>]: ...``."""

    def __init__(self, path, message: str, lineno: int | None = None) -> None:
        table = Path(path)
        where = f"{table.name}:{lineno}" if lineno else table.name
        super().__init__(table.parent, f"cannot load lexicon: {where}: {message}")


def _read_rows(path: Path, columns: int) -> Iterator[tuple[int, list[str]]]:
    """``(lineno, fields)`` of the table's non-blank, non-comment lines."""
    for lineno, raw in read_lines(path, LexiconFormatError):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != columns:
            raise LexiconFormatError(
                path, f"expected {columns} tab-separated fields, got {len(parts)}", lineno
            )
        yield lineno, parts


def _read_value(path: Path, lineno: int, digits: str, least: int, rule: str, shown: str) -> int:
    """*digits*, ASCII only, as a value from *least* to 999,999, the most a mention reads.

    Anything else is refused at ``table:line``: *rule* says what the value must
    be, and the field it came from, *shown*, is cut to 20 characters.
    """
    ascii_digits = digits.isascii() and digits.isdigit()
    above_cap = ascii_digits and len(digits.lstrip("0")) > 6
    if ascii_digits and not above_cap and int(digits) >= least:
        return int(digits)
    shown = shown if len(shown) <= 20 else shown[:20] + "..."
    rule += " and at most 999,999" if above_cap else ""
    raise LexiconFormatError(path, f"{rule}, got {shown!r}", lineno)


def _read_value_table(path: Path, positive: bool = False) -> dict[str, int]:
    sign = "positive" if positive else "non-negative"
    table: dict[str, int] = {}
    for lineno, (term, value) in _read_rows(path, 2):
        key = term.lower()
        if key in table:
            raise LexiconFormatError(path, f"duplicate key {key!r}", lineno)
        table[key] = _read_value(path, lineno, value, int(positive),
                                 f"value of {key!r} must be a {sign} integer", value)
    return table


def _read_word_set(path: Path) -> frozenset[str]:
    return frozenset(row[0].lower() for _, row in _read_rows(path, 1))


def _read_special_terms(path: Path) -> tuple[SpecialTerm, ...]:
    specials: dict[tuple[str, ...], SpecialTerm] = {}
    for lineno, (term, replacement) in _read_rows(path, 2):
        key = tuple(term.lower().split())
        if key in specials:
            raise LexiconFormatError(path, f"duplicate key {' '.join(key)!r}", lineno)
        m = _PLACEHOLDER_REPLACEMENT_RE.match(replacement)
        value = m and _read_value(path, lineno, m.group(1), 1,
                                  f"number term {term!r} must count at least 1", replacement)
        specials[key] = SpecialTerm(key, None if m else replacement, value)
    return tuple(specials.values())


def load_lexicon(directory: Path | str) -> NumLexicon:
    """Load a lexicon from the five TSV tables of *directory*; a number term counts >= 1."""
    d = Path(directory)
    cardinals = _read_value_table(d / "cardinals.tsv")
    if "and" in cardinals:  # the number-word grammar reads it as a joiner only
        raise LexiconFormatError(
            d / "cardinals.tsv", "'and' joins number words, it is no cardinal"
        )
    return NumLexicon(
        cardinal_words=cardinals,
        ordinal_words=_read_value_table(d / "ordinals.tsv"),
        latin_greek_prefixes=_read_value_table(d / "prefixes.tsv", positive=True),
        num_term_suffixes=_read_word_set(d / "suffixes.tsv"),
        special_terms=_read_special_terms(d / "special_terms.tsv"),
        affix_exceptions=_read_word_set(d / "affix_exceptions.tsv"),
    )


def load_default_lexicon() -> NumLexicon:
    """Load the lexicon shipped with the package."""
    return load_lexicon(_DATA_DIR)
