"""Glue for applying a trained model to documents.

One call per subject document: preprocess it in inference mode (articles,
and optionally zero cues, become candidate mentions) and keep the sentences
that have mentions; compute their tag marginals in one forward-backward
recursion for the whole document, reading COUNT marginals as confidences;
Viterbi-decode each sentence; consolidate.
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
    sentences = [
        sentence for sentence in (
            preprocess_sentence(raw, lexicon, mode=INFERENCE_MODE, zero_mode=zero_mode)
            for raw in tokenize(text)
        ) if sentence.mentions
    ]
    sequences = [to_placeholder_sequence(sentence) for sentence in sentences]
    count_id = TAGS.index(COUNT)
    return [
        DecodedSentence(
            labeled=LabeledSentence(sentence=sentence, tags=tuple(decode(model, sequence)),
                                    strict=False),
            count_confidences=probs[:, count_id].tolist(),
        )
        for sentence, sequence, probs in zip(sentences, sequences, marginals(model, sequences))
    ]


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
