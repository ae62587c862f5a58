"""Numeric-mention detection, normalization, and placeholder rewriting."""

from .lexicon import (
    NumLexicon,
    LexiconFormatError,
    load_default_lexicon,
    load_lexicon,
)
from .mentions import (
    INFERENCE_MODE,
    TRAIN_MODE,
    is_comp_cue,
    preprocess_sentence,
    to_placeholder_sequence,
)
from .tokenizer import tokenize
from .types import (
    MentionAnnotation,
    MentionKind,
    PLACEHOLDER_CARDINAL,
    PLACEHOLDER_NUMTERM,
    PLACEHOLDER_ORDINAL,
    Sentence,
    Token,
    make_sentence,
)

__all__ = [
    "NumLexicon",
    "LexiconFormatError",
    "load_default_lexicon",
    "load_lexicon",
    "INFERENCE_MODE",
    "TRAIN_MODE",
    "is_comp_cue",
    "preprocess_sentence",
    "to_placeholder_sequence",
    "tokenize",
    "MentionAnnotation",
    "MentionKind",
    "PLACEHOLDER_CARDINAL",
    "PLACEHOLDER_NUMTERM",
    "PLACEHOLDER_ORDINAL",
    "Sentence",
    "Token",
    "make_sentence",
]
