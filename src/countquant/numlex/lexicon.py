"""Number lexicon: the word tables driving mention detection.

All tables live in editable TSV files (one entry per line, tab-separated,
``#`` comments). The files shipped under ``numlex/data/`` are the source of
truth for which terms are recognized; ``load_default_lexicon`` reads them,
``load_lexicon`` reads the same file set from any directory.

A :class:`NumLexicon` compiles its lookup tables once, when it is built:
``specials_by_first`` maps a special term's first token to the terms that
start with it, longest first, and ``affixed_words`` maps every
prefix + suffix word to its decoded number term. Mention detection then
costs one dict lookup per token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

_DATA_DIR = Path(__file__).parent / "data"

# Replacement syntax for special terms that stay in place as a suffixed
# number-term placeholder, e.g. "NUMTERM-plets:2".
_PLACEHOLDER_REPLACEMENT_RE = re.compile(r"^NUMTERM(-[a-z]+):(\d+)$")


@dataclass(frozen=True)
class SpecialTerm:
    """One entry of the special-terms table."""

    term: tuple[str, ...]            # lowercased token sequence it matches
    replacement_text: str | None     # rewrite text, or None for in-place terms
    suffix_class: str | None         # "-plets" style class for in-place terms
    value: int | None                # decoded count for in-place terms


@dataclass(frozen=True)
class NumLexicon:
    """The word tables, plus two lookup tables compiled from them at construction."""

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
    # prefix + suffix word -> (value, "-suffix") from its longest decoding suffix;
    # the affix exceptions are left out
    affixed_words: dict[str, tuple[int, str]] = field(init=False, repr=False, compare=False)

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
        affixed: dict[str, tuple[int, str]] = {}
        for suffix in sorted(self.num_term_suffixes, key=len, reverse=True):
            for stem, value in self.latin_greek_prefixes.items():
                if stem and stem + suffix not in self.affix_exceptions:
                    affixed.setdefault(stem + suffix, (value, f"-{suffix}"))
        object.__setattr__(
            self, "specials_by_first", {w: tuple(ts) for w, ts in by_first.items()}
        )
        object.__setattr__(self, "affixed_words", affixed)


class LexiconFormatError(ValueError):
    """A lexicon data file line could not be parsed."""


def _read_rows(path: Path, columns: int) -> list[list[str]]:
    rows = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != columns:
            raise LexiconFormatError(
                f"{path.name}:{lineno}: expected {columns} tab-separated fields, got {len(parts)}"
            )
        rows.append(parts)
    return rows


def _read_value_table(path: Path) -> dict[str, int]:
    table: dict[str, int] = {}
    for term, value in _read_rows(path, 2):
        key = term.lower()
        if key in table:
            raise LexiconFormatError(f"{path.name}: duplicate key {key!r}")
        try:
            number = int(value)
        except ValueError:
            number = -1
        if number < 0:
            raise LexiconFormatError(
                f"{path.name}: value of {key!r} must be a non-negative integer, got {value!r}"
            )
        table[key] = number
    return table


def _read_word_set(path: Path) -> frozenset[str]:
    return frozenset(row[0].lower() for row in _read_rows(path, 1))


def _parse_special_term(term: str, replacement: str) -> SpecialTerm:
    tokens = tuple(term.lower().split())
    m = _PLACEHOLDER_REPLACEMENT_RE.match(replacement)
    if m:
        return SpecialTerm(
            term=tokens,
            replacement_text=None,
            suffix_class=m.group(1),
            value=int(m.group(2)),
        )
    return SpecialTerm(term=tokens, replacement_text=replacement, suffix_class=None, value=None)


def load_lexicon(directory: Path | str) -> NumLexicon:
    """Load a lexicon from a directory holding the five TSV tables."""
    d = Path(directory)
    specials = tuple(
        _parse_special_term(term, repl)
        for term, repl in _read_rows(d / "special_terms.tsv", 2)
    )
    return NumLexicon(
        cardinal_words=_read_value_table(d / "cardinals.tsv"),
        ordinal_words=_read_value_table(d / "ordinals.tsv"),
        latin_greek_prefixes=_read_value_table(d / "prefixes.tsv"),
        num_term_suffixes=_read_word_set(d / "suffixes.tsv"),
        special_terms=specials,
        affix_exceptions=_read_word_set(d / "affix_exceptions.tsv"),
    )


def load_default_lexicon() -> NumLexicon:
    """Load the lexicon shipped with the package."""
    return load_lexicon(_DATA_DIR)
