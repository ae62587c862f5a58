"""Glue for applying a trained model to documents.

One call per subject document: preprocess in inference mode (articles, and
optionally zero cues, become candidate mentions), decode each sentence with
the CRF, read COUNT marginals as confidences, and consolidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .consolidate import CountingQuantifier, consolidate
from .crf import TAGS, CrfModel, decode, marginals
from .dsgen import COUNT, LabeledSentence
from .kbstore import Relation
from .numlex import (
    INFERENCE_MODE,
    NumLexicon,
    preprocess_sentence,
    to_placeholder_sequence,
    tokenize,
)


@dataclass(frozen=True)
class DecodedSentence:
    labeled: LabeledSentence
    count_confidences: list[float]


def decode_document(
    model: CrfModel,
    lexicon: NumLexicon,
    text: str,
    zero_mode: bool = False,
) -> list[DecodedSentence]:
    """Preprocess and tag every candidate-bearing sentence of a document."""
    count_id = TAGS.index(COUNT)
    decoded: list[DecodedSentence] = []
    for raw in tokenize(text):
        sentence = preprocess_sentence(
            raw, lexicon, mode=INFERENCE_MODE, zero_mode=zero_mode
        )
        if not sentence.mentions:
            continue
        sequence = to_placeholder_sequence(sentence)
        tags = decode(model, sequence)
        probs = marginals(model, sequence)
        decoded.append(
            DecodedSentence(
                labeled=LabeledSentence(sentence=sentence, tags=tuple(tags), strict=False),
                count_confidences=[float(p) for p in probs[:, count_id]],
            )
        )
    return decoded


def extract_document(
    model: CrfModel,
    lexicon: NumLexicon,
    subject: str,
    text: str,
    relation: Optional[Relation] = None,
    threshold: float = 0.1,
    zero_mode: bool = False,
) -> Optional[CountingQuantifier]:
    """Counting-quantifier prediction for one subject, or None."""
    decoded = decode_document(model, lexicon, text, zero_mode=zero_mode)
    return consolidate(
        subject,
        relation,
        [d.labeled for d in decoded],
        [d.count_confidences for d in decoded],
        threshold=threshold,
    )
