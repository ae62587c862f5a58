"""Consolidation of labeled mentions into one count per (subject, relation).

Input: decoded tag sequences plus per-position COUNT marginals for every
sentence of a subject's document. One pass over the sentences produces the
final prediction:

1. :func:`candidates` yields each sentence's COUNT-tagged mentions in token
   order; a run of mentions joined by COMP-tagged cues comes out as one
   composed mention (value = sum, confidence = max over members);
2. every mention competes in the pool of its type, where zero-count and
   composed mentions compete as cardinals, and each pool keeps the mention
   with the smallest key: ``(-value, -confidence, sentence, token)`` for
   ordinals (highest value), ``(-confidence, value == 0, sentence, token)``
   for every other pool (highest confidence; on a tie a positive count
   beats a zero, then the earlier mention wins);
3. a pool's best survives when it is an ordinal or its confidence is
   strictly above the threshold; the survivors are ranked cardinal > number
   term > ordinal > article, and the first supplies the count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .dsgen import COMP, COUNT, LabeledSentence
from .kbstore import Relation
from .numlex.types import MentionKind

# Pool of each mention type, which is also its final rank (lower = preferred).
_KIND_RANK = {
    MentionKind.CARDINAL: 0,
    MentionKind.ZERO: 0,
    MentionKind.NUMTERM: 1,
    MentionKind.ORDINAL: 2,
    MentionKind.ARTICLE: 3,
}


@dataclass(frozen=True)
class CqCandidate:
    kind: MentionKind
    value: int
    confidence: float
    sentence_index: int
    token_index: int
    surface: str = ""
    composed: bool = False


@dataclass(frozen=True)
class CountingQuantifier:
    subject: str
    relation: Optional[Relation]
    count: int
    confidence: float
    provenance: tuple[CqCandidate, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject,
            "relation": self.relation.label if self.relation else None,
            "count": self.count,
            "confidence": round(self.confidence, 6),
            "provenance": [
                {
                    "kind": c.kind.value,
                    "value": c.value,
                    "confidence": round(c.confidence, 6),
                    "sentence": c.sentence_index,
                    "token": c.token_index,
                    "surface": c.surface,
                    "composed": c.composed,
                }
                for c in self.provenance
            ],
        }


def _merged(run: list[CqCandidate]) -> CqCandidate:
    """A run's one mention: itself when alone, else a composed cardinal."""
    if len(run) == 1:
        return run[0]
    return CqCandidate(
        kind=MentionKind.CARDINAL,
        value=sum(c.value for c in run),
        confidence=max(c.confidence for c in run),
        sentence_index=run[0].sentence_index,
        token_index=run[0].token_index,
        surface=" + ".join(c.surface for c in run),
        composed=True,
    )


def candidates(
    labeled: LabeledSentence, confidences: Sequence[float], sentence_index: int
) -> Iterator[CqCandidate]:
    """COUNT-tagged mentions of one sentence, in token order, with their confidences.

    Adjacent mentions belong to one run when at least one token between them
    is tagged COMP. A run of several mentions is yielded as one composed
    cardinal: the sum of the member values, with the highest member
    confidence, at the first member's position.
    """
    tags, surfaces = labeled.tags, labeled.sentence.surfaces()
    run: list[CqCandidate] = []
    for position, mention in labeled.sentence.mentions:
        if tags[position] != COUNT:
            continue
        if run and COMP not in tags[run[-1].token_index + 1 : position]:
            yield _merged(run)
            run = []
        run.append(CqCandidate(
            kind=mention.kind,
            value=mention.value,
            confidence=float(confidences[position]),
            sentence_index=sentence_index,
            token_index=position,
            surface=surfaces[position],
        ))
    if run:
        yield _merged(run)


def consolidate(
    subject: str,
    relation: Optional[Relation],
    labeled_sentences: list[LabeledSentence],
    confidences: list[list[float]],
    threshold: float = 0.1,
) -> Optional[CountingQuantifier]:
    """Full consolidation over all sentences of a subject's document.

    *confidences* holds, per sentence, the COUNT marginal for every token
    position. Deterministic: ties break toward earlier sentences/tokens.
    None when no pool's best survives the threshold.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0,1], got {threshold}")
    best: dict[int, tuple[tuple, CqCandidate]] = {}
    for idx, (labeled, conf) in enumerate(zip(labeled_sentences, confidences)):
        for c in candidates(labeled, conf, idx):
            if c.kind is MentionKind.ORDINAL:
                key = (-c.value, -c.confidence, idx, c.token_index)
            else:
                key = (-c.confidence, c.value == 0, idx, c.token_index)
            rank = _KIND_RANK[c.kind]
            if rank not in best or key < best[rank][0]:
                best[rank] = (key, c)
    provenance = tuple(
        c for _, (_, c) in sorted(best.items())
        if c.kind is MentionKind.ORDINAL or c.confidence > threshold
    )
    if not provenance:
        return None
    winner = provenance[0]
    return CountingQuantifier(
        subject=subject,
        relation=relation,
        count=winner.value,
        confidence=winner.confidence,
        provenance=provenance,
    )
