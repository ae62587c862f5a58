"""Triple store with the per-relation statistics used for seeding and evaluation.

The store is immutable after :func:`load_triples`; any number of readers may
share it. Triple files are UTF-8 TSV (``subject<TAB>property<TAB>object``)
with two reserved tokens:

* object ``__no_value__`` asserts that the subject has zero objects for the
  property (an explicit known-zero, not a missing fact);
* property ``__instance_of__`` assigns the subject to a class.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
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
class Triple:
    subject: str
    predicate: str
    object: str | None
    no_value: bool = False

    def __post_init__(self) -> None:
        if self.no_value and self.object is not None:
            raise ValueError("a known-zero triple carries no object")


@dataclass(frozen=True)
class Relation:
    """A (subject class, property) pair; one extraction model is trained per relation."""

    subject_class: str
    property: str
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            object.__setattr__(self, "label", f"{self.subject_class}_{self.property}")


@dataclass(frozen=True)
class KbStore:
    triples: frozenset[Triple]
    class_membership: dict[str, frozenset[str]]
    popularity: dict[str, int]
    n_malformed: int = 0
    _counts: dict[tuple[str, str], int] = field(default_factory=dict, repr=False)
    _known_zero: frozenset[tuple[str, str]] = field(default_factory=frozenset, repr=False)

    def triple_count(self, subject: str, prop: str) -> int:
        """Number of distinct objects for (subject, prop); known-zero rows do not count."""
        return self._counts.get((subject, prop), 0)

    def has_explicit_zero(self, subject: str, prop: str) -> bool:
        """True when the KB asserts the subject has no objects for prop."""
        return (subject, prop) in self._known_zero

    def class_members(self, class_id: str) -> list[str]:
        return sorted(
            e for e, classes in self.class_membership.items() if class_id in classes
        )

    def relation_subjects(self, rel: Relation) -> list[str]:
        """Members of the relation's class with at least one object, sorted."""
        return [
            s for s in self.class_members(rel.subject_class)
            if self.triple_count(s, rel.property) >= 1
        ]


def load_triples(path: Path | str) -> KbStore:
    """Build a store from a triple file.

    Malformed lines (wrong field count or empty fields) are counted and
    logged; more than 10% malformed raises :class:`TripleFormatError`.
    """
    triples: set[Triple] = set()
    membership: dict[str, set[str]] = {}
    popularity: dict[str, int] = {}
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
        subject, predicate, obj = (p.strip() for p in parts)
        no_value = obj == NO_VALUE
        triple = Triple(subject, predicate, None if no_value else obj, no_value)
        if triple in triples:
            continue
        triples.add(triple)
        popularity[subject] = popularity.get(subject, 0) + 1
        if predicate == INSTANCE_OF and obj != NO_VALUE:
            membership.setdefault(subject, set()).add(obj)

    if n_lines > 0 and n_malformed / n_lines > 0.10:
        raise TripleFormatError(path, f"{n_malformed} of {n_lines} lines malformed (>10%)")

    counts: dict[tuple[str, str], int] = {}
    zero: set[tuple[str, str]] = set()
    for t in triples:
        if t.no_value:
            zero.add((t.subject, t.predicate))
        else:
            key = (t.subject, t.predicate)
            counts[key] = counts.get(key, 0) + 1
    # A real object wins over a stray known-zero row for the same pair.
    zero -= set(counts)

    return KbStore(
        triples=frozenset(triples),
        class_membership={s: frozenset(c) for s, c in membership.items()},
        popularity=popularity,
        n_malformed=n_malformed,
        _counts=counts,
        _known_zero=frozenset(zero),
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
    """#distinct subjects / #triples for a property; near 1 means single-valued."""
    triples = [t for t in store.triples if t.predicate == prop]
    if not triples:
        raise ValueError(f"property {prop!r} has no triples")
    subjects = {t.subject for t in triples}
    return len(subjects) / len(triples)


def property_subject_count(store: KbStore, prop: str) -> int:
    return len({t.subject for t in store.triples if t.predicate == prop})


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
