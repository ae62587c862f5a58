"""Training-data generation from KB counts.

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

import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .crf.model import COMP, COUNT, OTHER, TAGS
from .kbstore import KbStore, Relation, count_percentile, popularity_percentile_cutoff
from .numlex import (
    NumLexicon,
    Sentence,
    TRAIN_MODE,
    is_comp_cue,
    load_default_lexicon,
    preprocess_sentence,
    to_placeholder_sequence,
    tokenize,
)
from .numlex.types import MentionKind
from .reader import InputError, read_keyed, read_lines

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
        for tok, tag in zip(self.sentence, self.tags):
            if tag == COUNT and tok.mention is None:
                raise ValueError(f"COUNT on token {tok.surface!r} without a mention")
            if tag == COMP and not is_comp_cue(tok):
                raise ValueError(f"COMP on non-cue token {tok.surface!r}")

    def placeholder_sequence(self) -> list[str]:
        return to_placeholder_sequence(self.sentence)


@dataclass(frozen=True)
class Excluded:
    """A sentence dropped from training: some mention may be the true count."""

    sentence: Sentence
    reason: str = "mention above KB count within relation bound"


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
    warnings: list[str] = field(default_factory=list)

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
    sentence: Sentence, candidates: list[int], kb_count: int
) -> tuple[list[int], list[int]]:
    """First run of mentions summing to kb_count with cues between them.

    *candidates* holds token indices of seed-eligible mentions not equal to
    kb_count on their own. Returns (mention token indices, cue token indices).
    """
    tokens = sentence.tokens
    for a in range(len(candidates)):
        for b in range(a + 1, min(a + MAX_RUN_MENTIONS, len(candidates))):
            run = candidates[a : b + 1]
            cue_positions: list[int] = []
            for left, right in zip(run, run[1:]):
                gap = range(left + 1, right)
                cues = [g for g in gap if is_comp_cue(tokens[g])]
                if not cues or len(gap) > MAX_RUN_GAP:
                    break
                cue_positions.extend(cues)
            else:
                if sum(tokens[i].mention.value for i in run) == kb_count:
                    return run, cue_positions
    return [], []


def label_sentence(
    sentence: Sentence, kb_count: int, upper_bound: int
) -> LabeledSentence | Excluded:
    """Label one mention-annotated sentence against the KB count.

    Returns an :class:`Excluded` marker when any mention falls strictly
    between the KB count and the relation upper bound; those sentences are
    kept out of training entirely rather than risking a false negative.
    """
    if kb_count < 1:
        raise ValueError("training subjects must have at least one object")

    mentions = sentence.mentions
    if any(kb_count < t.mention.value <= upper_bound for t in mentions):
        return Excluded(sentence=sentence)

    eligible = [t.index for t in mentions if t.mention.kind not in _NEVER_SEEDS]
    exact = [i for i in eligible if sentence[i].mention.value == kb_count]
    run, cues = _find_composition_run(
        sentence, [i for i in eligible if i not in exact], kb_count
    )
    tags = [OTHER] * len(sentence)
    for i in exact + run:
        tags[i] = COUNT
    for i in cues:
        tags[i] = COMP
    return LabeledSentence(sentence=sentence, tags=tuple(tags))


def _contexts_by_value(document: list[Sentence]) -> dict[int, Counter]:
    """How often each mentioned value occurs in each context, in one pass.

    A context is the two lemmas on each side of a mention, padded with
    ``<BOS>``/``<EOS>``. Values and contexts are counted in document order.
    """
    contexts: dict[int, Counter] = {}
    for sent in document:
        mentions = sent.mentions
        if not mentions:
            continue
        lemmas = ["<BOS>", "<BOS>", *sent.lemmas(), "<EOS>", "<EOS>"]
        for tok in mentions:
            i = tok.index + 2
            context = (lemmas[i - 2], lemmas[i - 1], lemmas[i + 1], lemmas[i + 2])
            contexts.setdefault(tok.mention.value, Counter())[context] += 1
    return contexts


def _entropy_bits(contexts: Counter) -> float:
    total = sum(contexts.values())
    return -sum((c / total) * math.log2(c / total) for c in contexts.values()) or 0.0


def number_entropy(document: list[Sentence], value: int) -> float:
    """Shannon entropy (bits) of the contexts in which *value* is mentioned.

    Context = the lemma bigrams left and right of each mention of the value
    across the document. A value that recurs in one and the same context has
    entropy 0; n distinct contexts give log2(n) bits.
    """
    if not document:
        raise ValueError("document must be non-empty")
    contexts = _contexts_by_value(document).get(value)
    return _entropy_bits(contexts) if contexts else 0.0


def _uninformative_values(document: list[Sentence], threshold: float) -> set[int]:
    """Values mentioned more than once whose context entropy is below threshold."""
    return {
        value
        for value, contexts in _contexts_by_value(document).items()
        if sum(contexts.values()) > 1 and _entropy_bits(contexts) < threshold
    }


@dataclass(frozen=True)
class Corpus:
    """Pre-linked document collection: one text per subject entity."""

    documents: dict[str, str]

    @staticmethod
    def load(path: Path | str) -> "Corpus":
        def record(line: str) -> tuple[str, str]:
            doc = json.loads(line)
            subject, text = doc["subject"], doc["text"]
            if not (isinstance(subject, str) and isinstance(text, str)):
                raise ValueError("subject and text must be strings")
            if not subject.strip():
                raise ValueError("empty subject")
            return subject.strip(), text

        return Corpus(documents=read_keyed(path, record, "bad corpus record"))

    def __contains__(self, subject: str) -> bool:
        return subject in self.documents

    def __getitem__(self, subject: str) -> str:
        return self.documents[subject]

    def subjects(self) -> list[str]:
        return sorted(self.documents)


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
        if any(t.mention.value in low_entropy for t in sent.mentions):
            stats.entropy_dropped += 1
            continue
        outcome = label_sentence(sent, kb_count, upper_bound)
        if isinstance(outcome, Excluded):
            stats.excluded += 1
            continue
        outcome = replace(outcome, subject=subject, relation=relation)
        if COUNT in outcome.tags:
            stats.positives += 1
        else:
            stats.negatives += 1
        labeled.append(outcome)
    return labeled, stats


def select_subjects(
    store: KbStore, corpus: Corpus, rel: Relation, policy: SeedPolicy
) -> tuple[int, list[tuple[str, str, int]]]:
    """The relation's upper bound and its sorted ``(subject, text, kb_count)`` seeds.

    A seed subject has an object, lies within the popularity cutoff and has a
    document. The bound is 0 when no subject qualifies.
    """
    keep = popularity_percentile_cutoff(store, rel, policy.popularity_top_fraction)
    selection = [
        (subject, corpus[subject], store.triple_count(subject, rel.property))
        for subject in store.relation_subjects(rel)
        if subject in keep and subject in corpus
    ]
    if not selection:
        return 0, []
    return count_percentile(store, rel, policy.upper_bound_q), selection


def generate_training_set(
    store: KbStore,
    corpus: Corpus,
    rel: Relation,
    policy: SeedPolicy = SeedPolicy(),
    lexicon: Optional[NumLexicon] = None,
) -> tuple[list[LabeledSentence], GenerationStats]:
    """Labeled sentences for every qualifying subject of the relation.

    Deterministic: subjects are processed in sorted order and each document
    independently, so results do not depend on worker scheduling.
    """
    lexicon = lexicon or load_default_lexicon()
    upper_bound, selection = select_subjects(store, corpus, rel, policy)
    return join_documents(
        (
            label_subject_document(
                text, kb_count, upper_bound, lexicon, policy, subject=subject, relation=rel,
            )
            for subject, text, kb_count in selection
        ),
        rel,
    )


def join_documents(
    results: Iterable[tuple[list[LabeledSentence], GenerationStats]], rel: Relation
) -> tuple[list[LabeledSentence], GenerationStats]:
    """The labeled sentences of per-document results, in order, and their summed stats.

    An empty result warns that the relation has no training set.
    """
    labeled: list[LabeledSentence] = []
    stats = GenerationStats()
    for sentences, doc_stats in results:
        labeled.extend(sentences)
        stats = stats + doc_stats
    if not labeled:
        stats.warnings.append(f"relation {rel.label}: empty training set")
    return labeled, stats


def write_conll(labeled: list[LabeledSentence], path: Path | str) -> None:
    """CoNLL-style TSV: surface<TAB>placeholder<TAB>tag, blank line between sentences."""
    lines: list[str] = []
    for ls in labeled:
        symbols = ls.placeholder_sequence()
        for tok, symbol, tag in zip(ls.sentence, symbols, ls.tags):
            lines.append(f"{tok.surface}\t{symbol}\t{tag}")
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
