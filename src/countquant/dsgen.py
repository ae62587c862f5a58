"""Training-data generation from KB counts.

``build-training`` is one pass: :func:`select_subjects` picks the seed
subjects of a relation and its upper bound, :func:`label_subject_document`
labels each subject's document independently, and :func:`join_documents`
concatenates the results in subject order and sums their stats.

For every subject of a relation with at least one object, each sentence of
its document that contains a candidate mention is labeled against the KB
object count. Because KBs are incomplete, the count is only a lower bound,
so labeling is deliberately asymmetric:

* mention value == KB count            -> COUNT (positive seed)
* mention value <  KB count            -> O (negative)
* KB count < value <= relation bound   -> the whole sentence is dropped
  from the training set (the mention may well be the true count)
* value > relation bound               -> O (implausibly high for the
  relation, safe negative)

Articles and zero cues never become COUNT seeds. Runs of mentions joined by
commas/"and" whose values sum to the KB count become COUNT seeds with the
cues tagged COMP. Sentences whose mention value repeats across the document
in near-identical contexts (low context entropy) are dropped as
uninformative.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional

from .crf.model import COMP, COUNT, OTHER, TAGS
from .kbstore import KbStore, Relation, count_percentile, popularity_percentile_cutoff
from .numlex import (
    NumLexicon,
    Sentence,
    TRAIN_MODE,
    is_comp_cue,
    preprocess_sentence,
    to_placeholder_sequence,
    tokenize,
)
from .numlex.types import MentionAnnotation, MentionKind
from .reader import InputError, json_fields, read_keyed, read_lines

# Compositional seed matching: at most this many mentions per run, at most
# this many tokens between adjacent mentions (at least one being a cue).
MAX_RUN_MENTIONS = 4
MAX_RUN_GAP = 3


@dataclass(frozen=True)
class LabeledSentence:
    """Token sequence with one tag per token.

    ``strict`` enforces the gold tagging scheme (COUNT only on mentions,
    COMP only on cue tokens); model predictions are wrapped with
    ``strict=False`` since a decoder is free to violate the scheme.
    """

    sentence: Sentence
    tags: tuple[str, ...]
    subject: str = ""
    relation: Optional[Relation] = None
    strict: bool = True

    def __post_init__(self) -> None:
        if len(self.tags) != len(self.sentence):
            raise ValueError("one tag per token required")
        if not self.strict:
            return
        surfaces = self.sentence.surfaces()
        marked = dict(self.sentence.mentions)
        for i, tag in enumerate(self.tags):
            if tag == COUNT and i not in marked:
                raise ValueError(f"COUNT on token {surfaces[i]!r} without a mention")
            if tag == COMP and not is_comp_cue(surfaces[i]):
                raise ValueError(f"COMP on non-cue token {surfaces[i]!r}")

    def placeholder_sequence(self) -> list[str]:
        return to_placeholder_sequence(self.sentence)


@dataclass(frozen=True)
class SeedPolicy:
    popularity_top_fraction: float = 1.0
    upper_bound_q: float = 0.99
    entropy_threshold: float = 0.5        # bits


@dataclass
class GenerationStats:
    subjects: int = 0
    positives: int = 0
    negatives: int = 0
    excluded: int = 0
    entropy_dropped: int = 0

    def __add__(self, other: "GenerationStats") -> "GenerationStats":
        return GenerationStats(
            *(getattr(self, f.name) + getattr(other, f.name) for f in fields(self))
        )

    def summary(self) -> str:
        return (
            f"subjects={self.subjects} positives={self.positives} "
            f"negatives={self.negatives} excluded={self.excluded} "
            f"entropy_dropped={self.entropy_dropped}"
        )


_NEVER_SEEDS = (MentionKind.ARTICLE, MentionKind.ZERO)


def _find_composition_run(
    sentence: Sentence, candidates: list[tuple[int, MentionAnnotation]], kb_count: int
) -> tuple[list[int], list[int]]:
    """First run of mentions summing to kb_count with cues between them.

    *candidates* holds the ``(position, mention)`` pairs of seed-eligible
    mentions not equal to kb_count on their own. Returns (mention positions,
    cue positions).
    """
    surfaces = sentence.surfaces()
    for a in range(len(candidates)):
        for b in range(a + 1, min(a + MAX_RUN_MENTIONS, len(candidates))):
            run = candidates[a : b + 1]
            cue_positions: list[int] = []
            for (left, _), (right, _) in zip(run, run[1:]):
                gap = range(left + 1, right)
                cues = [g for g in gap if is_comp_cue(surfaces[g])]
                if not cues or len(gap) > MAX_RUN_GAP:
                    break
                cue_positions.extend(cues)
            else:
                if sum(mention.value for _, mention in run) == kb_count:
                    return [position for position, _ in run], cue_positions
    return [], []


def label_sentence(
    sentence: Sentence,
    kb_count: int,
    upper_bound: int,
    *,
    subject: str = "",
    relation: Optional[Relation] = None,
) -> Optional[LabeledSentence]:
    """Label one mention-annotated sentence of *subject* against the KB count.

    Returns None when any mention lies above the KB count but within the
    relation upper bound: such a sentence is kept out of training entirely
    rather than risking a false negative.
    """
    if kb_count < 1:
        raise ValueError("training subjects must have at least one object")

    mentions = sentence.mentions
    if any(kb_count < mention.value <= upper_bound for _, mention in mentions):
        return None

    eligible = [(i, mention) for i, mention in mentions if mention.kind not in _NEVER_SEEDS]
    exact = [i for i, mention in eligible if mention.value == kb_count]
    run, cues = _find_composition_run(
        sentence, [(i, mention) for i, mention in eligible if mention.value != kb_count], kb_count
    )
    tags = [OTHER] * len(sentence)
    for i in exact + run:
        tags[i] = COUNT
    for i in cues:
        tags[i] = COMP
    return LabeledSentence(sentence, tuple(tags), subject, relation)


def _uninformative_values(document: list[Sentence], threshold: float) -> set[int]:
    """Values mentioned more than once whose context entropy is below *threshold* bits.

    A context is the two lemmas on each side of a mention, padded with
    ``<BOS>``/``<EOS>``; one pass over the document counts each value's
    contexts. A value that recurs in one and the same context has entropy 0,
    and n distinct contexts, each seen once, give log2(n) bits.
    """
    contexts: dict[int, Counter] = {}
    for sent in document:
        mentions = sent.mentions
        if not mentions:
            continue
        lemmas = ["<BOS>", "<BOS>", *sent.lemmas(), "<EOS>", "<EOS>"]
        for position, mention in mentions:
            i = position + 2
            context = (lemmas[i - 2], lemmas[i - 1], lemmas[i + 1], lemmas[i + 2])
            contexts.setdefault(mention.value, Counter())[context] += 1
    low = set()
    for value, counts in contexts.items():
        total = sum(counts.values())
        if total > 1 and threshold > -sum(
            (c / total) * math.log2(c / total) for c in counts.values()
        ):
            low.add(value)
    return low


def load_corpus(path: Path | str) -> dict[str, str]:
    """``{subject: text}`` of a JSON-lines corpus: one pre-linked document per subject."""
    def record(line: str) -> tuple[str, str]:
        subject, text = json_fields(line, "subject", "text")
        if not (isinstance(subject, str) and isinstance(text, str)):
            raise ValueError("subject and text must be strings")
        if not subject.strip():
            raise ValueError("empty subject")
        return subject.strip(), text

    return read_keyed(path, record, "bad corpus record")


def label_subject_document(
    text: str,
    kb_count: int,
    upper_bound: int,
    lexicon: NumLexicon,
    policy: SeedPolicy,
    subject: str = "",
    relation: Optional[Relation] = None,
) -> tuple[list[LabeledSentence], GenerationStats]:
    """Preprocess and label one subject's document (training mode)."""
    stats = GenerationStats(subjects=1)
    document = [
        preprocess_sentence(s, lexicon, mode=TRAIN_MODE) for s in tokenize(text)
    ]
    low_entropy = _uninformative_values(document, policy.entropy_threshold)

    labeled: list[LabeledSentence] = []
    for sent in document:
        if not sent.mentions:
            continue
        if any(mention.value in low_entropy for _, mention in sent.mentions):
            stats.entropy_dropped += 1
            continue
        outcome = label_sentence(sent, kb_count, upper_bound, subject=subject, relation=relation)
        if outcome is None:
            stats.excluded += 1
            continue
        if COUNT in outcome.tags:
            stats.positives += 1
        else:
            stats.negatives += 1
        labeled.append(outcome)
    return labeled, stats


def select_subjects(
    store: KbStore, documents: Mapping[str, str], rel: Relation, policy: SeedPolicy
) -> tuple[int, list[tuple[str, str, int]]]:
    """The relation's upper bound and its sorted ``(subject, text, kb_count)`` seeds.

    A seed subject has an object, lies within the popularity cutoff and has a
    document in *documents* (``{subject: text}``). The bound is 0 when no
    subject qualifies.
    """
    keep = popularity_percentile_cutoff(store, rel, policy.popularity_top_fraction)
    selection = [
        (subject, documents[subject], store.triple_count(subject, rel.property))
        for subject in store.relation_subjects(rel)
        if subject in keep and subject in documents
    ]
    if not selection:
        return 0, []
    return count_percentile(store, rel, policy.upper_bound_q), selection


def join_documents(
    results: Iterable[tuple[list[LabeledSentence], GenerationStats]],
) -> tuple[list[LabeledSentence], GenerationStats]:
    """The labeled sentences of per-document results, in order, and their summed stats."""
    labeled: list[LabeledSentence] = []
    stats = GenerationStats()
    for sentences, doc_stats in results:
        labeled.extend(sentences)
        stats = stats + doc_stats
    return labeled, stats


def write_conll(labeled: list[LabeledSentence], path: Path | str) -> None:
    """CoNLL-style TSV: surface<TAB>placeholder<TAB>tag, blank line between sentences."""
    lines: list[str] = []
    for ls in labeled:
        symbols = ls.placeholder_sequence()
        for surface, symbol, tag in zip(ls.sentence.surfaces(), symbols, ls.tags):
            lines.append(f"{surface}\t{symbol}\t{tag}")
        lines.append("")
    Path(path).write_text("\n".join(lines), encoding="utf-8")


def read_conll(path: Path | str) -> Iterator[tuple[list[str], list[str]]]:
    """Yield (placeholder sequence, tags) pairs from a training file."""
    symbols: list[str] = []
    tags: list[str] = []
    for lineno, line in read_lines(path):
        if line.strip():
            parts = line.split("\t")
            if len(parts) != 3:
                raise InputError(path, "expected 3 tab-separated columns", lineno)
            if parts[2] not in TAGS:
                raise InputError(path, f"unknown tag {parts[2]!r}, expected one of "
                                 f"{', '.join(TAGS)}", lineno)
            symbols.append(parts[1])
            tags.append(parts[2])
        elif symbols:
            yield symbols, tags
            symbols, tags = [], []
    if symbols:
        yield symbols, tags
