"""Linear-chain CRF: features, training, Viterbi decoding, marginals."""

from .features import BOS, EOS
from .model import (
    TAGS,
    CrfModel,
    ModelFormatError,
    decode,
    load_model,
    marginals,
    save_model,
    viterbi,
)
from .train import DegenerateTrainingError, TrainingProblem, train

__all__ = [
    "BOS",
    "EOS",
    "TAGS",
    "CrfModel",
    "ModelFormatError",
    "decode",
    "load_model",
    "marginals",
    "save_model",
    "viterbi",
    "DegenerateTrainingError",
    "TrainingProblem",
    "train",
]
