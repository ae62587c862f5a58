"""Linear-chain CRF over the COUNT/COMP/O tag scheme.

All dynamic programs run in log-space with log-sum-exp. :func:`log_forward`
and :func:`log_backward` are the one forward-backward kernel: inference runs
it on one sentence (n, k), :mod:`.train` on equal-length stacks (B, n, k).
A trained model is immutable (weight arrays are write-protected) and safe to
share across threads; decoding and marginal inference are reentrant. It
compiles its feature lookup once from the feature names: one n-gram ->
feature id table per n-gram template name, the tables training builds. A
sentence's ids come from :func:`.features.lookup_ids`, as in training, and
its emissions are one gather-sum over that (tokens, templates) id array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from ..reader import InputError, read_file
from .features import TOKEN_NGRAM, FeatureTemplate, lookup_ids, template_columns


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.exp(a - m).sum(axis=axis))

TAGS = ("COUNT", "COMP", "O")

MODEL_MAGIC = "countquant-crf"
MODEL_VERSION = 1


class ModelFormatError(InputError):
    """Model file is missing, corrupt, truncated, or of an unsupported version."""

    def __init__(self, path, message: str, lineno: Optional[int] = None) -> None:
        super().__init__(path, f"cannot load model: {message}", lineno)


@dataclass(frozen=True)
class CrfModel:
    feature_index: dict[str, int]
    weights: np.ndarray          # (n_features, n_tags) observation weights
    transitions: np.ndarray      # (n_tags, n_tags) tag-transition weights
    templates: tuple[FeatureTemplate, ...]
    tags: tuple[str, ...] = TAGS
    l2_sigma: float = 1.0
    relation: Optional[dict] = None
    final_objective: float = 0.0
    n_iterations: int = 0
    # Compiled from the fields above, never pickled: one n-gram -> feature id
    # table per n-gram template, and the weights plus one zero row that the
    # id of an unseen feature (n_features) selects.
    gram_ids: tuple[dict[str, int], ...] = field(init=False, repr=False, compare=False)
    padded_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.weights.flags.writeable = False
        self.transitions.flags.writeable = False
        names = [tpl.name for tpl in self.templates if tpl.kind == TOKEN_NGRAM]
        tables: dict[str, dict[str, int]] = {name: {} for name in names}
        for feature, fid in self.feature_index.items():
            name, _, gram = feature.partition(":")  # no template name holds a ":"
            if name in tables:
                tables[name][gram] = fid
        padded = np.concatenate([self.weights, np.zeros((1, self.weights.shape[1]))])
        padded.flags.writeable = False
        object.__setattr__(self, "gram_ids", tuple(tables[name] for name in names))
        object.__setattr__(self, "padded_weights", padded)

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writeable; protect them again and recompile.
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def n_tags(self) -> int:
        return len(self.tags)

    def feature_ids(self, sequence: list[str]) -> np.ndarray:
        """Feature ids, shape (len(sequence), n-gram templates), in template order.

        An unseen feature gets the id n_features, the zero row of
        ``padded_weights``.
        """
        columns = template_columns(sequence, self.templates)
        return lookup_ids(self.gram_ids, columns, len(sequence), len(self.weights))

    def emissions(self, sequence: list[str]) -> np.ndarray:
        """Per-position observation scores, shape (len(sequence), n_tags)."""
        return self.padded_weights.take(self.feature_ids(sequence), axis=0).sum(axis=1)


def log_forward(emissions: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """Log forward scores of emissions (..., n >= 1, k); leading axes are sentences."""
    em = emissions.swapaxes(0, -2)  # time axis first; a no-op for one sentence
    alpha = np.empty(em.shape)
    alpha[0] = em[0]
    for t in range(1, len(em)):
        alpha[t] = em[t] + logsumexp(alpha[t - 1][..., None] + transitions, axis=-2)
    return alpha.swapaxes(0, -2)


def log_backward(emissions: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """Log backward scores of emissions (..., n >= 1, k); leading axes are sentences."""
    em = emissions.swapaxes(0, -2)
    beta = np.zeros(em.shape)
    for t in range(len(em) - 2, -1, -1):
        beta[t] = logsumexp(transitions + (em[t + 1] + beta[t + 1])[..., None, :])
    return beta.swapaxes(0, -2)


def log_partition(emissions: np.ndarray, transitions: np.ndarray) -> float:
    if emissions.shape[0] == 0:
        return 0.0
    return float(logsumexp(log_forward(emissions, transitions)[-1]))


def viterbi(emissions: np.ndarray, transitions: np.ndarray) -> list[int]:
    """Argmax tag-id path; ties break toward the lower tag id."""
    n, k = emissions.shape
    if n == 0:
        return []
    delta = emissions[0].copy()
    back = np.zeros((n, k), dtype=np.intp)
    for t in range(1, n):
        scores = delta[:, None] + transitions
        back[t] = scores.argmax(axis=0)
        delta = emissions[t] + scores.max(axis=0)
    path = [int(delta.argmax())]
    for t in range(n - 1, 0, -1):
        path.append(int(back[t][path[-1]]))
    path.reverse()
    return path


def decode(model: CrfModel, sequence: list[str]) -> list[str]:
    """Viterbi tag sequence for a placeholder/lemma sequence."""
    if not sequence:
        return []
    path = viterbi(model.emissions(sequence), model.transitions)
    return [model.tags[i] for i in path]


def marginals(model: CrfModel, sequence: list[str]) -> np.ndarray:
    """Forward-backward per-position tag probabilities, shape (n, n_tags).

    Each row sums to 1; entry [t, k] is the probability that position t
    carries tag k, used downstream as the mention confidence score.
    """
    if not sequence:
        return np.zeros((0, model.n_tags))
    em = model.emissions(sequence)
    alpha = log_forward(em, model.transitions)
    beta = log_backward(em, model.transitions)
    log_z = logsumexp(alpha[-1])
    return np.exp(alpha + beta - log_z)


def save_model(model: CrfModel, path: Path | str) -> None:
    """Write the model as versioned JSON; load_model round-trips it exactly."""
    payload = {
        "magic": MODEL_MAGIC,
        "version": MODEL_VERSION,
        "tags": list(model.tags),
        "l2_sigma": model.l2_sigma,
        "relation": model.relation,
        "final_objective": model.final_objective,
        "n_iterations": model.n_iterations,
        "templates": [{"kind": t.kind, "offsets": list(t.offsets)} for t in model.templates],
        "features": list(model.feature_index.keys()),
        "weights": model.weights.tolist(),
        "transitions": model.transitions.tolist(),
    }
    Path(path).write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")


def load_model(path: Path | str) -> CrfModel:
    try:
        payload = json.loads(read_file(path, ModelFormatError))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(path, str(exc)) from exc
    if not isinstance(payload, dict) or payload.get("magic") != MODEL_MAGIC:
        raise ModelFormatError(path, f"not a {MODEL_MAGIC} model file")
    if payload.get("version") != MODEL_VERSION:
        raise ModelFormatError(path, f"unsupported model version {payload.get('version')!r}")
    try:
        features, tags = payload["features"], payload["tags"]
        if not isinstance(features, list) or not all(isinstance(f, str) for f in features):
            raise TypeError("features must be a list of strings")
        if not isinstance(tags, list):
            raise TypeError("tags must be a list")
        if not all(isinstance(d, dict) for d in payload["templates"]):
            raise TypeError("templates must be objects")
        templates = tuple(FeatureTemplate(kind=d["kind"], offsets=tuple(d.get("offsets", ())))
                          for d in payload["templates"])
        weights = np.asarray(payload["weights"], dtype=float)
        if weights.size == 0:  # a model without features stores [], read as shape (0,)
            weights = weights.reshape(0, len(tags))
        transitions = np.asarray(payload["transitions"], dtype=float)
        n_tags = len(tags)
        if weights.shape != (len(features), n_tags) or transitions.shape != (n_tags, n_tags):
            raise ValueError("weight shapes do not match feature/tag counts")
        return CrfModel(
            feature_index={f: i for i, f in enumerate(features)},
            weights=weights,
            transitions=transitions,
            templates=templates,
            tags=tuple(tags),
            l2_sigma=float(payload.get("l2_sigma", 1.0)),
            relation=payload.get("relation"),
            final_objective=float(payload.get("final_objective", 0.0)),
            n_iterations=int(payload.get("n_iterations", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(path, f"corrupt model payload: {exc}") from exc
