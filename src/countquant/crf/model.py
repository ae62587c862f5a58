"""Linear-chain CRF over the fixed COUNT/COMP/O tag scheme.

:func:`forward_backward` is the one forward-backward kernel: inference runs
it on one sentence (n, k), :mod:`.train` on equal-length stacks (B, n, k). It
works in probability space, rescaling each step (Rabiner scaling); a call
whose scale factors under- or overflow is redone in log space by
:func:`log_forward` and :func:`log_backward`. A trained model is immutable
(write-protected weights), so decoding and marginals are thread-safe. Its
features are its n-gram tables: one n-gram -> feature id table per window of
:data:`.features.WINDOWS`, the tables training builds, read through
:func:`.features.lookup_ids`. Feature strings ``"<window name>:<n-gram>"``
exist only in the model file, built by :func:`save_model` and parsed by
:func:`load_model`, which refuses anything but finite numbers as weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from ..reader import InputError, finite_number, read_file
from .features import WINDOW_NAMES, WINDOWS, lookup_ids, template_columns


# The tag scheme of every model; a tag's id is its position.
COUNT, COMP, OTHER = TAGS = ("COUNT", "COMP", "O")

MODEL_MAGIC = "countquant-crf"
MODEL_VERSION = 2
# The file's "templates": each window's offsets, in window order. A file that
# lists any other windows is refused.
MODEL_TEMPLATES = tuple(tuple(range(start, start + width)) for width, start in WINDOWS)


class ModelFormatError(InputError):
    """Model file is missing, corrupt, truncated, or of an unsupported version."""

    def __init__(self, path, message: str, lineno: Optional[int] = None) -> None:
        super().__init__(path, f"cannot load model: {message}", lineno)


@dataclass(frozen=True)
class CrfModel:
    # One n-gram -> feature id table per window, in window order. Ids index
    # the rows of ``weights``.
    gram_ids: tuple[dict[str, int], ...]
    weights: np.ndarray          # (n_features, len(TAGS)) observation weights
    transitions: np.ndarray      # (len(TAGS), len(TAGS)) tag-transition weights
    l2_sigma: float = 1.0
    relation: Optional[dict] = None
    final_objective: float = 0.0
    n_iterations: int = 0
    # The weights plus one zero row, which the id of an unseen feature
    # (n_features) selects; never pickled.
    padded_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.gram_ids) != len(WINDOWS):
            raise ValueError(f"a model has {len(WINDOWS)} n-gram tables, got {len(self.gram_ids)}")
        self.weights.flags.writeable = False
        self.transitions.flags.writeable = False
        padded = np.concatenate([self.weights, np.zeros((1, self.weights.shape[1]))])
        padded.flags.writeable = False
        object.__setattr__(self, "padded_weights", padded)

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writeable; protect them again.
        self.__dict__.update(state)
        self.__post_init__()

    def feature_ids(self, sequence: list[str]) -> np.ndarray:
        """Feature ids, shape (len(sequence), len(WINDOWS)), in window order.

        An unseen feature gets the id n_features, the zero row of
        ``padded_weights``.
        """
        columns = template_columns(sequence)
        return lookup_ids(self.gram_ids, columns, len(sequence), len(self.weights))

    def emissions(self, sequence: list[str]) -> np.ndarray:
        """Per-position observation scores, shape (len(sequence), len(TAGS))."""
        return self.padded_weights.take(self.feature_ids(sequence), axis=0).sum(axis=1)


def log_forward(emissions: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """Log forward scores of emissions (..., n >= 1, k); leading axes are sentences."""
    em = emissions.swapaxes(0, -2)  # time axis first; a no-op for one sentence
    alpha = em.astype(float)
    for t in range(1, len(em)):
        alpha[t] += np.logaddexp.reduce(alpha[t - 1][..., None] + transitions, axis=-2)
    return alpha.swapaxes(0, -2)


def log_backward(emissions: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """Log backward scores of emissions (..., n >= 1, k); leading axes are sentences."""
    em = emissions.swapaxes(0, -2)
    beta = np.zeros(em.shape)
    for t in range(len(em) - 2, -1, -1):
        beta[t] = np.logaddexp.reduce(transitions + (em[t + 1] + beta[t + 1])[..., None, :], -1)
    return beta.swapaxes(0, -2)


def forward_backward(emissions: np.ndarray, transitions: np.ndarray) -> tuple[np.ndarray, ...]:
    """Tag marginals ``mu``, expected transition counts ``xi`` and ``log_z``.

    Emissions are (..., n >= 1, k), leading axes sentences. ``mu`` has their
    shape, ``xi`` (k, k) sums over positions and sentences, ``log_z`` is per sentence.
    """
    k = emissions.shape[-1]
    em = np.ascontiguousarray(np.moveaxis(emissions, -2, 0))  # time-major copy
    row_max, t_max = em.max(axis=-1, keepdims=True), transitions.max()
    with np.errstate(all="ignore"):
        p, e = np.exp(em - row_max), np.exp(transitions - t_max)
        alpha, beta, c = np.empty_like(p), np.ones_like(p), np.empty_like(row_max)
        for t in range(len(p)):
            a = (alpha[t - 1] @ e) * p[t] if t else p[0]
            c[t] = a.sum(axis=-1, keepdims=True)
            alpha[t] = a / c[t]
        q = p / c
        for t in range(len(p) - 1, 0, -1):
            beta[t - 1] = (q[t] * beta[t]) @ e.T
        log_z = (np.log(c).sum(axis=0) + row_max.sum(axis=0))[..., 0] + (len(p) - 1) * t_max
    if not (np.isfinite(log_z).all() and np.isfinite(beta).all()):  # a scale under/overflowed
        alpha, beta = log_forward(emissions, transitions), log_backward(emissions, transitions)
        log_z = np.logaddexp.reduce(alpha[..., -1, :], axis=-1)
        xi = np.exp(alpha[..., :-1, :, None] + transitions
                    + (emissions + beta)[..., 1:, None, :] - log_z[..., None, None, None])
        mu = np.exp(alpha + beta - log_z[..., None, None])
        return mu, xi.reshape(-1, k, k).sum(axis=0), log_z
    xi = e * (alpha[:-1].reshape(-1, k).T @ (q[1:] * beta[1:]).reshape(-1, k))
    return np.moveaxis(alpha * beta, 0, -2), xi, log_z


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
    path = viterbi(model.emissions(sequence), model.transitions)
    return [TAGS[i] for i in path]


def marginals(model: CrfModel, sequence: list[str]) -> np.ndarray:
    """Forward-backward per-position tag probabilities, shape (n, len(TAGS)).

    Each row sums to 1; entry [t, k] is the probability that position t
    carries tag k, used downstream as the mention confidence score.
    """
    if not sequence:
        return np.zeros((0, len(TAGS)))
    return forward_backward(model.emissions(sequence), model.transitions)[0]


def save_model(model: CrfModel, path: Path | str) -> None:
    """Write the model as versioned JSON; load_model round-trips it exactly.

    Features are listed in id order, each as ``"<window name>:<n-gram>"``.
    """
    features = [""] * len(model.weights)
    for name, table in zip(WINDOW_NAMES, model.gram_ids):
        for gram, fid in table.items():
            features[fid] = f"{name}:{gram}"
    payload = {
        "magic": MODEL_MAGIC,
        "version": MODEL_VERSION,
        "tags": list(TAGS),
        "l2_sigma": model.l2_sigma,
        "relation": model.relation,
        "final_objective": model.final_objective,
        "n_iterations": model.n_iterations,
        "templates": MODEL_TEMPLATES,
        "features": features,
        "weights": model.weights.tolist(),
        "transitions": model.transitions.tolist(),
    }
    Path(path).write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")


def _number_rows(value, what: str) -> np.ndarray:
    """A JSON list of number lists as a float array; anything but finite numbers is refused."""
    if not (isinstance(value, list) and all(isinstance(row, list) for row in value)
            and {type(x) for row in value for x in row} <= {int, float}):
        raise TypeError(f"{what} must be lists of numbers")
    array = np.array(value, dtype=float)  # ragged rows raise ValueError
    if not np.isfinite(array).all():
        raise ValueError(f"{what} must be finite numbers")
    return array


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
        features = payload["features"]
        if not isinstance(features, list) or not all(isinstance(f, str) for f in features):
            raise TypeError("features must be a list of strings")
        if payload["tags"] != list(TAGS):
            raise ValueError(f"tags must be {list(TAGS)}, got {payload['tags']!r}")
        # Compared as JSON text, so an offset written 0.0 or false is refused too.
        if json.dumps(payload["templates"]) != json.dumps(MODEL_TEMPLATES):
            raise ValueError(f"templates must list the {len(WINDOWS)} fixed windows, shortest first")
        tables: dict[str, dict[str, int]] = {name: {} for name in WINDOW_NAMES}
        for fid, feature in enumerate(features):
            name, colon, gram = feature.partition(":")  # no window name holds a ":"
            if not colon or name not in tables:
                raise ValueError(f"feature {feature!r} names no template")
            if tables[name].setdefault(gram, fid) != fid:
                raise ValueError(f"repeated feature {feature!r}")
        k = len(TAGS)
        weights = _number_rows(payload["weights"], "weights")
        if weights.size == 0:  # a model without features stores [], read as shape (0,)
            weights = weights.reshape(0, k)
        transitions = _number_rows(payload["transitions"], "transitions")
        if weights.shape != (len(features), k) or transitions.shape != (k, k):
            raise ValueError("weight shapes do not match feature/tag counts")
        n_iterations = payload.get("n_iterations", 0)
        if type(n_iterations) is not int or n_iterations < 0:
            raise ValueError(f"n_iterations must be a non-negative integer, got {n_iterations!r}")
        return CrfModel(
            gram_ids=tuple(tables.values()),
            weights=weights,
            transitions=transitions,
            l2_sigma=finite_number(payload.get("l2_sigma", 1.0), "l2_sigma"),
            relation=payload.get("relation"),
            final_objective=finite_number(payload.get("final_objective", 0.0), "final_objective"),
            n_iterations=n_iterations,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(path, f"corrupt model payload: {exc}") from exc
