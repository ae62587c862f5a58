"""Recognition metrics, end-to-end metrics, and the KB-enrichment report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .consolidate import CountingQuantifier
from .dsgen import COMP, COUNT, LabeledSentence
from .kbstore import KbStore, Relation


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


def score_recognition(
    gold: Sequence[LabeledSentence],
    predicted: Sequence[Sequence[str]],
) -> RecognitionScore:
    """Exact-match P/R/F1 on COUNT mentions, with a per-kind breakdown.

    Mentions occupy a single token after placeholder merging, so mention and
    token matches coincide. COMP tags are scored separately and never mixed
    into mention scores.
    """
    if len(gold) != len(predicted):
        raise ValueError(
            f"gold ({len(gold)}) and predicted ({len(predicted)}) sentence counts differ"
        )
    tp = n_pred = n_gold = 0
    comp_tp = comp_pred = comp_gold = 0
    kind_counts: dict[str, list[int]] = {}
    for ls, pred_tags in zip(gold, predicted):
        if len(pred_tags) != len(ls.tags):
            raise ValueError("predicted tag sequence length mismatch")
        for tok, g, p in zip(ls.sentence, ls.tags, pred_tags):
            if g == COUNT:
                n_gold += 1
            if p == COUNT:
                n_pred += 1
            if g == COUNT and p == COUNT:
                tp += 1
            if g == COMP:
                comp_gold += 1
            if p == COMP:
                comp_pred += 1
            if g == COMP and p == COMP:
                comp_tp += 1
            if tok.mention is not None:
                row = kind_counts.setdefault(tok.mention.kind.value, [0, 0, 0])
                row[0] += 1 if (g == COUNT and p == COUNT) else 0
                row[1] += 1 if p == COUNT else 0
                row[2] += 1 if g == COUNT else 0
    precision, recall, f1 = prf(tp, n_pred, n_gold)
    return RecognitionScore(
        precision=precision,
        recall=recall,
        f1=f1,
        supports_by_kind={
            kind: prf(*counts) for kind, counts in kind_counts.items()
        },
        comp_score=prf(comp_tp, comp_pred, comp_gold),
    )


@dataclass(frozen=True)
class EndToEndScore:
    precision: float
    coverage: float
    mae: float
    n_evaluated: int = 0
    n_predicted: int = 0
    n_correct: int = 0

    def to_json_dict(self) -> dict:
        return {
            "precision": round(self.precision, 4),
            "coverage": round(self.coverage, 4),
            "mae": round(self.mae, 4),
            "n_evaluated": self.n_evaluated,
            "n_predicted": self.n_predicted,
            "n_correct": self.n_correct,
        }


def score_end_to_end(
    gold_counts: Mapping[str, int],
    predictions: Mapping[str, CountingQuantifier],
) -> EndToEndScore:
    """Precision over judged predictions, coverage over all gold subjects, MAE.

    Predictions for subjects without a gold count cannot be judged and are
    left out of precision and MAE.
    """
    if not gold_counts:
        raise ValueError("gold counts must be non-empty")
    judged = {s: cq for s, cq in predictions.items() if s in gold_counts}
    n_correct = sum(1 for s, cq in judged.items() if cq.count == gold_counts[s])
    precision = n_correct / len(judged) if judged else 0.0
    coverage = n_correct / len(gold_counts)
    mae = (
        sum(abs(cq.count - gold_counts[s]) for s, cq in judged.items()) / len(judged)
        if judged
        else 0.0
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
    def kb_increase(self) -> float:
        """Missing over existing facts; how much the KB would grow."""
        if self.existing_facts == 0:
            return float("inf") if self.missing_facts else 0.0
        return self.missing_facts / self.existing_facts

    def to_json_dict(self) -> dict:
        return {
            "relation": self.relation.label,
            "existing_facts": self.existing_facts,
            "missing_facts": self.missing_facts,
            "kb_increase_pct": round(100.0 * self.kb_increase, 1),
            "zero_assertions": self.zero_assertions,
            "conflicts": self.conflicts,
        }


def enrichment_report(
    store: KbStore,
    rel: Relation,
    predictions: Mapping[str, CountingQuantifier],
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
    rows = [(predictions[s].count, store.triple_count(s, rel.property),
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
