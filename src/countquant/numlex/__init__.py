"""Numeric-mention detection, normalization, and placeholder rewriting."""

from .lexicon import (
    NumLexicon,
    SpecialTerm,
    LexiconFormatError,
    load_default_lexicon,
    load_lexicon,
)
from .mentions import (
    INFERENCE_MODE,
    TRAIN_MODE,
    annotate_mentions,
    is_comp_cue,
    preprocess_sentence,
    rewrite_zero_cues,
    to_placeholder_sequence,
)
from .tokenizer import detokenize, lemmatize, tokenize
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
    "SpecialTerm",
    "LexiconFormatError",
    "load_default_lexicon",
    "load_lexicon",
    "INFERENCE_MODE",
    "TRAIN_MODE",
    "annotate_mentions",
    "is_comp_cue",
    "preprocess_sentence",
    "rewrite_zero_cues",
    "to_placeholder_sequence",
    "detokenize",
    "lemmatize",
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
