"""Triple store with the per-relation statistics used for seeding and evaluation.

:func:`load_triples` reads a triple file once and builds every index the
store's readers look up; the store is immutable afterwards, and any number
of readers may share it. Triple files are UTF-8 TSV
(``subject<TAB>property<TAB>object``) with two reserved tokens:

* object ``__no_value__`` asserts that the subject has zero objects for the
  property (an explicit known-zero, not a missing fact);
* property ``__instance_of__`` assigns the subject to a class.

A duplicate row counts once; every other row, a known-zero row included,
counts toward its subject's popularity and its property's functionality.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

from .reader import InputError, read_lines

logger = logging.getLogger(__name__)

NO_VALUE = "__no_value__"
INSTANCE_OF = "__instance_of__"


class TripleLoadError(InputError):
    """The triple file could not be read."""


class TripleFormatError(TripleLoadError):
    """Too many malformed lines to trust the file."""


@dataclass(frozen=True)
class Relation:
    """A (subject class, property) pair; one extraction model is trained per relation."""

    subject_class: str
    property: str
    label: str = ""

    def __post_init__(self) -> None:
        if not self.subject_class or not self.property:
            raise ValueError("a relation needs a non-empty subject class and property")
        if not self.label:
            object.__setattr__(self, "label", f"{self.subject_class}_{self.property}")


@dataclass(frozen=True)
class KbStore:
    triples: frozenset[tuple[str, str, str]]
    popularity: dict[str, int]
    n_malformed: int
    _counts: dict[tuple[str, str], int]
    _known_zero: frozenset[tuple[str, str]]
    _members: dict[str, tuple[str, ...]]
    _properties: dict[str, tuple[int, int]]

    def triple_count(self, subject: str, prop: str) -> int:
        """Number of distinct objects for (subject, prop); known-zero rows do not count."""
        return self._counts.get((subject, prop), 0)

    def has_explicit_zero(self, subject: str, prop: str) -> bool:
        """True when the KB asserts the subject has no objects for prop."""
        return (subject, prop) in self._known_zero

    def class_members(self, class_id: str) -> list[str]:
        return list(self._members.get(class_id, ()))

    def relation_subjects(self, rel: Relation) -> list[str]:
        """Members of the relation's class with at least one object, sorted."""
        return [
            s for s in self._members.get(rel.subject_class, ())
            if self.triple_count(s, rel.property) >= 1
        ]


def load_triples(path: Path | str) -> KbStore:
    """Build a store from a triple file in one pass over its lines.

    Malformed lines (wrong field count or empty fields) are counted and
    logged; more than 10% malformed raises :class:`TripleFormatError`.
    """
    triples: set[tuple[str, str, str]] = set()
    popularity: dict[str, int] = {}
    counts: dict[tuple[str, str], int] = {}
    zero: set[tuple[str, str]] = set()
    members: dict[str, list[str]] = {}
    properties: dict[str, list[int]] = {}  # property -> [subjects, rows]
    n_lines = 0
    n_malformed = 0
    for lineno, line in read_lines(path, TripleLoadError):
        if not line.strip() or line.startswith("#"):
            continue
        n_lines += 1
        parts = line.split("\t")
        if len(parts) != 3 or not all(p.strip() for p in parts):
            n_malformed += 1
            logger.warning("%s:%d: malformed triple line", path, lineno)
            continue
        subject, prop, obj = row = tuple(p.strip() for p in parts)
        if row in triples:
            continue
        triples.add(row)
        popularity[subject] = popularity.get(subject, 0) + 1
        pair = (subject, prop)
        stats = properties.setdefault(prop, [0, 0])
        stats[0] += pair not in counts and pair not in zero  # first row of this subject
        stats[1] += 1
        if obj == NO_VALUE:
            zero.add(pair)
            continue
        counts[pair] = counts.get(pair, 0) + 1
        if prop == INSTANCE_OF:
            members.setdefault(obj, []).append(subject)

    if n_lines > 0 and n_malformed / n_lines > 0.10:
        raise TripleFormatError(path, f"{n_malformed} of {n_lines} lines malformed (>10%)")

    return KbStore(
        triples=frozenset(triples),
        popularity=popularity,
        n_malformed=n_malformed,
        _counts=counts,
        # A real object wins over a stray known-zero row for the same pair.
        _known_zero=frozenset(zero - counts.keys()),
        _members={c: tuple(sorted(m)) for c, m in members.items()},
        _properties={p: tuple(stats) for p, stats in properties.items()},
    )


def count_percentile(store: KbStore, rel: Relation, q: float) -> int:
    """Nearest-rank q-th percentile of the relation's positive object counts.

    The multiset ranges over class members with at least one object; used
    as the relation-specific upper bound when generating training data.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile fraction must be in [0,1], got {q}")
    counts = sorted(
        store.triple_count(s, rel.property) for s in store.relation_subjects(rel)
    )
    if not counts:
        raise ValueError(
            f"relation {rel.label}: no subject with a positive object count"
        )
    rank = max(1, math.ceil(q * len(counts)))
    return counts[rank - 1]


def functionality_degree(store: KbStore, prop: str) -> float:
    """#distinct subjects / #rows for a property; near 1 means single-valued.

    Known-zero rows count as rows, and their subjects as subjects.
    """
    if prop not in store._properties:
        raise ValueError(f"property {prop!r} has no triples")
    subjects, rows = store._properties[prop]
    return subjects / rows


def property_subject_count(store: KbStore, prop: str) -> int:
    """Distinct subjects with a row for the property, known-zero rows included."""
    return store._properties.get(prop, (0, 0))[0]


def passes_relation_filter(
    store: KbStore,
    prop: str,
    max_functionality: float = 0.98,
    min_subjects: int = 500,
) -> bool:
    """Keep properties that are multi-valued enough and frequent enough."""
    return (
        property_subject_count(store, prop) >= min_subjects
        and functionality_degree(store, prop) < max_functionality
    )


def popularity_percentile_cutoff(
    store: KbStore, rel: Relation, top_fraction: float
) -> set[str]:
    """Subjects of the relation within the top fraction by popularity rank.

    Popularity is the number of stored triples per subject; trading data
    quantity for quality, less popular (more incomplete) subjects drop out.
    """
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError(f"top fraction must be in (0,1], got {top_fraction}")
    subjects = store.relation_subjects(rel)
    if not subjects:
        return set()
    ranked = sorted(subjects, key=lambda s: (-store.popularity.get(s, 0), s))
    keep = max(1, math.ceil(top_fraction * len(ranked)))
    return set(ranked[:keep])


def popularity_completeness_report(
    store: KbStore,
    rel: Relation,
    gold_counts: dict[str, int],
    top_fractions: tuple[float, ...] = (0.01, 0.10, 0.20),
) -> list[dict]:
    """Mean gap between a manual ground truth and stored counts, per popularity band.

    Quantifies how strongly completeness correlates with popularity: small
    gaps in the most popular band justify restricting training seeds to it.
    Reported for inspection only; the numbers depend entirely on the KB at
    hand.
    """
    rows = []
    for fraction in top_fractions:
        band = popularity_percentile_cutoff(store, rel, fraction)
        judged = sorted(s for s in band if s in gold_counts)
        gaps = [gold_counts[s] - store.triple_count(s, rel.property) for s in judged]
        rows.append(
            {
                "top_fraction": fraction,
                "subjects": len(judged),
                "mean_gap": sum(gaps) / len(gaps) if gaps else 0.0,
            }
        )
    return rows
