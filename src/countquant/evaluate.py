"""Recognition metrics, end-to-end metrics, and the KB-enrichment report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .dsgen import COMP, COUNT, LabeledSentence
from .kbstore import KbStore, Relation
from .numlex import PLACEHOLDER_CARDINAL, PLACEHOLDER_NUMTERM, PLACEHOLDER_ORDINAL


def prf(tp: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    """Precision, recall and F1 from true positives, predicted and gold counts."""
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return precision, recall, f1


@dataclass(frozen=True)
class RecognitionScore:
    precision: float
    recall: float
    f1: float
    supports_by_kind: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    comp_score: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def to_json_dict(self) -> dict:
        return {
            "precision": round(self.precision, 4),
            "recall": round(self.recall, 4),
            "f1": round(self.f1, 4),
            "by_kind": {
                k: {"precision": round(p, 4), "recall": round(r, 4), "f1": round(f, 4)}
                for k, (p, r, f) in sorted(self.supports_by_kind.items())
            },
            "comp": {
                "precision": round(self.comp_score[0], 4),
                "recall": round(self.comp_score[1], 4),
                "f1": round(self.comp_score[2], 4),
            },
        }


# The placeholder symbols of mentions, and the kind each is scored under.
# Articles and zero cues read as CARDINAL, so they are scored as cardinals.
_PLACEHOLDER_KINDS = {
    symbol: symbol.lower()
    for symbol in (PLACEHOLDER_CARDINAL, PLACEHOLDER_ORDINAL, PLACEHOLDER_NUMTERM)
}


def score_tags(
    symbols: Sequence[Sequence[str]],
    gold: Sequence[Sequence[str]],
    predicted: Sequence[Sequence[str]],
) -> RecognitionScore:
    """Exact-match P/R/F1 on COUNT tags, per placeholder kind, and on COMP tags.

    The three arguments hold one entry per sentence: its placeholder
    sequence, its gold tags and its predicted tags. Mentions occupy a single
    token after placeholder merging, so mention and token matches coincide.
    A placeholder kind is listed once some token of it is tagged COUNT in
    gold or prediction. COMP tags are scored separately and never mixed
    into the COUNT scores.
    """
    if not len(symbols) == len(gold) == len(predicted):
        raise ValueError(
            f"gold ({len(gold)}) and predicted ({len(predicted)}) sentence counts differ"
        )
    # COUNT, COMP or a placeholder kind -> [true positives, predicted, gold]
    rows: dict[str, list[int]] = {}
    for i, (seq, g_tags, p_tags) in enumerate(zip(symbols, gold, predicted), 1):
        if not len(seq) == len(g_tags) == len(p_tags):
            raise ValueError(f"sentence {i}: {len(g_tags)} gold tags but {len(p_tags)} predicted")
        for symbol, g, p in zip(seq, g_tags, p_tags):
            kind = _PLACEHOLDER_KINDS.get(symbol)
            for key, tag in ((COUNT, COUNT), (COMP, COMP), (kind, COUNT)):
                if key is not None and tag in (g, p):
                    row = rows.setdefault(key, [0, 0, 0])
                    row[0] += g == p
                    row[1] += p == tag
                    row[2] += g == tag
    precision, recall, f1 = prf(*rows.get(COUNT, (0, 0, 0)))
    return RecognitionScore(
        precision=precision,
        recall=recall,
        f1=f1,
        supports_by_kind={
            key: prf(*row) for key, row in rows.items() if key not in (COUNT, COMP)
        },
        comp_score=prf(*rows.get(COMP, (0, 0, 0))),
    )


def score_recognition(
    gold: Sequence[LabeledSentence],
    predicted: Sequence[Sequence[str]],
) -> RecognitionScore:
    """:func:`score_tags` of gold labeled sentences and predicted tag sequences."""
    return score_tags([ls.placeholder_sequence() for ls in gold], [ls.tags for ls in gold],
                      predicted)


@dataclass(frozen=True)
class EndToEndScore:
    precision: float
    coverage: float
    mae: Optional[float]  # None when no prediction could be judged
    n_evaluated: int = 0
    n_predicted: int = 0
    n_correct: int = 0

    def to_json_dict(self) -> dict:
        return {
            "precision": round(self.precision, 4),
            "coverage": round(self.coverage, 4),
            "mae": None if self.mae is None else round(self.mae, 4),
            "n_evaluated": self.n_evaluated,
            "n_predicted": self.n_predicted,
            "n_correct": self.n_correct,
        }


def score_end_to_end(
    gold_counts: Mapping[str, int],
    predictions: Mapping[str, int],
) -> EndToEndScore:
    """Precision over judged predictions, coverage over all gold subjects, MAE.

    *predictions* maps a subject to its predicted count. Predictions for
    subjects without a gold count cannot be judged and are left out of
    precision and MAE; with none judged, MAE is None.
    """
    if not gold_counts:
        raise ValueError("gold counts must be non-empty")
    judged = {s: count for s, count in predictions.items() if s in gold_counts}
    n_correct = sum(1 for s, count in judged.items() if count == gold_counts[s])
    precision = n_correct / len(judged) if judged else 0.0
    coverage = n_correct / len(gold_counts)
    mae = (
        sum(abs(count - gold_counts[s]) for s, count in judged.items()) / len(judged)
        if judged
        else None
    )
    return EndToEndScore(
        precision=precision,
        coverage=coverage,
        mae=mae,
        n_evaluated=len(gold_counts),
        n_predicted=len(judged),
        n_correct=n_correct,
    )


@dataclass(frozen=True)
class EnrichmentReport:
    relation: Relation
    existing_facts: int
    missing_facts: int
    zero_assertions: int
    conflicts: int  # positive predictions for subjects the KB asserts have none

    @property
    def kb_increase(self) -> Optional[float]:
        """Missing over existing facts: how much the KB would grow; None without existing facts."""
        if self.existing_facts == 0:
            return None
        return self.missing_facts / self.existing_facts

    def to_json_dict(self) -> dict:
        increase = self.kb_increase
        return {
            "relation": self.relation.label,
            "existing_facts": self.existing_facts,
            "missing_facts": self.missing_facts,
            "kb_increase_pct": None if increase is None else round(100.0 * increase, 1),
            "zero_assertions": self.zero_assertions,
            "conflicts": self.conflicts,
        }


def enrichment_report(
    store: KbStore,
    rel: Relation,
    predictions: Mapping[str, int],
    score: EndToEndScore,
    min_precision: float = 0.5,
    min_coverage: float = 0.05,
) -> Optional[EnrichmentReport]:
    """Enrichment accounting, emitted only for trustworthy relations.

    A report is produced when the held-out evaluation shows precision and
    coverage strictly above the filters. Only members of the relation's
    subject class count; each predicted count above the KB's stored count
    contributes the difference as missing facts. A positive count for a
    subject whose KB row asserts no value (``__no_value__``) adds no missing
    facts; it is counted as a conflict instead.
    """
    if not (score.precision > min_precision and score.coverage > min_coverage):
        return None
    members = store.class_members(rel.subject_class)
    existing = sum(store.triple_count(s, rel.property) for s in members)
    rows = [(predictions[s], store.triple_count(s, rel.property),
             store.has_explicit_zero(s, rel.property)) for s in members if s in predictions]
    return EnrichmentReport(
        relation=rel,
        existing_facts=existing,
        missing_facts=sum(max(0, count - kb) for count, kb, zero in rows if not zero),
        zero_assertions=sum(count == 0 for count, _, _ in rows),
        conflicts=sum(count > 0 for count, _, zero in rows if zero),
    )


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Aligned-column text table for metric summaries."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
