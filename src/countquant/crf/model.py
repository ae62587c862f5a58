"""Linear-chain CRF over the fixed COUNT/COMP/O tag scheme.

:func:`forward_backward_stacks` is the one forward-backward kernel, in
probability space with one scale factor per step (Rabiner scaling).
:mod:`.train` runs it once over all its sentences; inference runs it through
:func:`forward_backward` on one sentence (n, k), one 1-D row per step.
Expected transition counts, log partitions and the scale check stay per
equal-length stack, on the stack's own rows, and a stack whose scale factors
under- or overflow is redone in log space, alone, by :func:`log_forward` and
:func:`log_backward`. The backward step multiplies by a C-contiguous copy of
``e.T``, never by the view: with OpenBLAS, a one-row product through the view
rounds unlike the same row of a many-row product, while with the copy a row
does not depend on the rows beside it (on kernels such as Haswell, any
one-row product still does).

A trained model is immutable (write-protected weights), so decoding and
marginals are thread-safe. Its features are its n-gram tables: one n-gram ->
feature id table per window of :data:`.features.WINDOWS`, the tables training
builds, read through :func:`.features.lookup_ids`. Feature strings
``"<window name>:<n-gram>"`` exist only in the model file, built by
:func:`save_model` and parsed by :func:`load_model`, which refuses anything
but finite numbers as weights.
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
    *lead, n, k = emissions.shape
    stack = emissions.reshape(-1, n, k) if lead else emissions
    em = np.ascontiguousarray(stack.swapaxes(0, -2))  # time-major copy
    mu, ((xi, log_z),) = forward_backward_stacks(
        em, transitions, range(n), range(-1, n - 1), [(stack, None)])
    return mu.swapaxes(0, -2).reshape(emissions.shape), xi, log_z.reshape(lead)


def _at(a, rows, times=slice(None)):
    """A stack's rows of time-major ``a`` at steps ``times``; rows None: ``a`` is the stack."""
    return a[times] if rows is None else a.take(rows[times], axis=0)


def forward_backward_stacks(em, transitions, steps, carried, stacks):
    """One scaled recursion over equal-length stacks, and each stack's ``xi`` and ``log_z``.

    ``em`` holds every stack's emissions time-major: step t's rows are
    ``em[steps[t]]``, and ``carried[t]`` (t >= 1) are the rows of step t - 1
    whose sentences go on to step t, in step t's order. With sentences
    ordered longest first, step t's rows are the sentences longer than t,
    a prefix of step t - 1's. ``stacks`` lists each stack's emissions
    (..., n, k) with its (n, B) time-major rows of ``em``, or None when
    ``em`` is that one stack. Returns the tag marginals, shaped as ``em``,
    and per stack ``(xi, log_z)``, computed on the stack's own rows; a stack
    whose scale factors under- or overflow is redone in log space.
    """
    k = em.shape[-1]
    row_max = em[..., 0]  # column by column: em.max(axis=-1) is slower on many rows
    for j in range(1, k):
        row_max = np.maximum(row_max, em[..., j])
    row_max = row_max[..., None]
    t_max = transitions.max()
    stats, fallback = [], []
    with np.errstate(all="ignore"):
        p, e = np.exp(em - row_max), np.exp(transitions - t_max)
        e_t = np.ascontiguousarray(e.T)  # never the view e.T: see the module docstring
        alpha, beta, c = np.empty_like(p), np.ones_like(p), np.empty_like(row_max)
        for t in range(len(steps)):
            now = steps[t]
            a = (alpha[carried[t]] @ e) * p[now] if t else p[now]
            c[now] = a.sum(axis=-1, keepdims=True)
            alpha[now] = a / c[now]
        q = np.divide(p, c, out=p)  # p is spent
        for t in range(len(steps) - 1, 0, -1):
            now = steps[t]
            beta[carried[t]] = (q[now] * beta[now]) @ e_t
        q_beta = np.multiply(q, beta, out=q)
        log_c, finite = np.log(c), np.isfinite(beta).all()
        for i, (emissions, rows) in enumerate(stacks):
            n = emissions.shape[-2]
            log_z = (_at(log_c, rows).sum(axis=0) + _at(row_max, rows).sum(axis=0))[..., 0]
            log_z = log_z + (n - 1) * t_max
            if not (np.isfinite(log_z).all() and (finite or np.isfinite(_at(beta, rows)).all())):
                fallback.append(i)
            xi = e * (_at(alpha, rows, slice(-1)).reshape(-1, k).T
                      @ _at(q_beta, rows, slice(1, None)).reshape(-1, k))
            stats.append((xi, log_z))
        mu = np.multiply(alpha, beta, out=beta)
    for i in fallback:  # a scale under/overflowed
        emissions, rows = stacks[i]
        alpha, beta = log_forward(emissions, transitions), log_backward(emissions, transitions)
        log_z = np.logaddexp.reduce(alpha[..., -1, :], axis=-1)
        xi = np.exp(alpha[..., :-1, :, None] + transitions
                    + (emissions + beta)[..., 1:, None, :] - log_z[..., None, None, None])
        mu[slice(None) if rows is None else rows] = np.exp(
            alpha + beta - log_z[..., None, None]).swapaxes(0, -2)
        stats[i] = xi.reshape(-1, k, k).sum(axis=0), log_z
    return mu, stats


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
