"""Linear-chain CRF over the fixed COUNT/COMP/O tag scheme.

:func:`forward_backward_stacks` is the one forward-backward kernel, in
probability space with one scale factor per step (Rabiner scaling). It runs
once per objective evaluation over all training sentences (:mod:`.train`),
and once per document over its candidate sentences (:func:`marginals`), on
the layout :func:`time_major_layout` gives both: time-major, longest sentence
first, sentences of one length stacked in input order. The scale check, and
for training the expected transition counts and log partitions, stay per
equal-length stack, on the stack's own rows; inference computes no transition
counts. A stack whose scale factors under- or overflow is redone in log space,
alone, on those rows of the emissions, by :func:`log_forward` and :func:`log_backward`.
The backward step multiplies by a C-contiguous copy of ``e.T``, never by the
view: with OpenBLAS, a one-row product through the view rounds unlike the
same row of a many-row product, while with the copy a row does not depend on
the rows beside it (on kernels such as Haswell, any one-row product still
does). :func:`viterbi` runs on Python floats, one token at a time.

A trained model is immutable (write-protected weights), so decoding and
marginals are thread-safe. Its features are its n-gram tables: one n-gram ->
feature id table per window of :data:`.features.WINDOWS`, the tables training
builds, which must number the features 0 to n_features - 1, each once.
Inference reads them through a :class:`.features.WidthIndex` derived from
them, one lookup per n-gram of each width. Feature strings
``"<window name>:<n-gram>"`` exist only in the model file, built by
:func:`save_model` and parsed by :func:`load_model`, which refuses weights
but finite numbers, and metadata that :func:`.train.train` never writes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from ..kbstore import Relation
from ..reader import InputError, finite_number, read_file
from .features import WINDOW_NAMES, WINDOWS, WidthIndex


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
    # (n_features) selects, and the tables merged per width; never pickled.
    padded_weights: np.ndarray = field(init=False, repr=False, compare=False)
    width_index: WidthIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.gram_ids) != len(WINDOWS):
            raise ValueError(f"a model has {len(WINDOWS)} n-gram tables, got {len(self.gram_ids)}")
        # Each id once: an id of n_features would read as unseen, and n-grams
        # that share an id would not survive save_model and load_model.
        n = len(self.weights)
        ids = np.array([fid for table in self.gram_ids for fid in table.values()])
        if not (len(ids) == n and (n == 0 or (ids.dtype.kind == "i" and ids.min() >= 0
                                              and ids.max() < n
                                              and np.bincount(ids).max() == 1))):
            raise ValueError(f"the n-gram tables must number the model's {n} features "
                             "from 0, each once")
        self.weights.flags.writeable = False
        self.transitions.flags.writeable = False
        padded = np.concatenate([self.weights, np.zeros((1, self.weights.shape[1]))])
        padded.flags.writeable = False
        object.__setattr__(self, "padded_weights", padded)
        object.__setattr__(self, "width_index", WidthIndex(self.gram_ids, n))

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writeable; protect them again.
        self.__dict__.update(state)
        self.__post_init__()

    def feature_ids(self, sequence: list[str]) -> np.ndarray:
        """Feature ids, shape (len(sequence), len(WINDOWS)), in window order.

        An unseen feature gets the id n_features, the zero row of
        ``padded_weights``. Each n-gram is looked up once, in its width's
        table of :attr:`width_index`.
        """
        return self.width_index.lookup(sequence)

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


def time_major_layout(lengths) -> tuple[list, list, list]:
    """Where :func:`forward_backward_stacks` keeps sentences of these lengths (each >= 1).

    Rows run time-major, longest sentence first: step t's rows are the
    sentences longer than t, a prefix of step t - 1's. Returns ``steps`` and
    ``carried`` for the kernel and, per distinct length in increasing order,
    ``(length, members, rows)``: the indices of that length's sentences, in
    input order, and their (length, B) rows.
    """
    lengths = np.asarray(lengths)
    per_length = np.bincount(lengths)
    shorter = np.cumsum(per_length)  # shorter[n]: sentences of length <= n
    live = (len(lengths) - shorter[:-1]).tolist()
    offset = np.cumsum([0] + live[:-1])
    steps = [slice(a, a + m) for a, m in zip(offset.tolist(), live)]
    carried = [None] + [slice(a, a + m) for a, m in zip(offset.tolist(), live[1:])]
    stacks = []
    for n in np.flatnonzero(per_length).tolist():
        members = np.flatnonzero(lengths == n)
        first = len(lengths) - shorter[n]  # sentences in longer stacks
        stacks.append((n, members, offset[:n, None] + first + np.arange(len(members))))
    return steps, carried, stacks


def forward_backward_stacks(em, transitions, layout, *, statistics=True):
    """One scaled recursion over equal-length stacks, and each stack's ``xi`` and ``log_z``.

    ``layout`` is :func:`time_major_layout` of the sentences' lengths, and
    ``em`` holds their emissions at its rows: step t's rows are
    ``em[steps[t]]``, and ``carried[t]`` (t >= 1) are the rows of step t - 1
    whose sentences go on to step t. Returns the tag marginals, shaped as
    ``em``, and per stack ``(xi, log_z)``, computed on the stack's own rows; a
    stack whose scale factors under- or overflow is redone in log space, on
    its emissions ``em[rows]``. Inference passes ``statistics=False``: the
    same stacks are redone in log space, but no ``xi`` is computed and the
    list of statistics is empty.
    """
    steps, carried, stacks = layout
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
        for i, (n, _, rows) in enumerate(stacks):
            log_z = (log_c.take(rows, axis=0).sum(axis=0)
                     + row_max.take(rows, axis=0).sum(axis=0))[..., 0]
            log_z = log_z + (n - 1) * t_max
            if not (np.isfinite(log_z).all()
                    and (finite or np.isfinite(beta.take(rows, axis=0)).all())):
                fallback.append((i, rows))
            if statistics:
                xi = e * (alpha.take(rows[:-1], axis=0).reshape(-1, k).T
                          @ q_beta.take(rows[1:], axis=0).reshape(-1, k))
                stats.append((xi, log_z))
        mu = np.multiply(alpha, beta, out=beta)
    for i, rows in fallback:  # a scale under/overflowed
        emissions = em[rows].swapaxes(0, 1)  # (B, n, k)
        alpha, beta = log_forward(emissions, transitions), log_backward(emissions, transitions)
        log_z = np.logaddexp.reduce(alpha[..., -1, :], axis=-1)
        mu[rows] = np.exp(alpha + beta - log_z[..., None, None]).swapaxes(0, 1)
        if statistics:
            xi = np.exp(alpha[..., :-1, :, None] + transitions
                        + (emissions + beta)[..., 1:, None, :] - log_z[..., None, None, None])
            stats[i] = xi.reshape(-1, k, k).sum(axis=0), log_z
    return mu, stats


def viterbi(emissions: np.ndarray, transitions: np.ndarray) -> list[int]:
    """Argmax tag-id path, on Python floats; ties break toward the lower tag id.

    Each step keeps, per tag, the first best predecessor; the path ends at the first best tag.
    """
    rows = emissions.tolist()
    if not rows:
        return []
    columns = transitions.T.tolist()
    k, delta, back = len(columns), rows[0], []
    for row in rows[1:]:
        pointers, scores = [], []
        for e, column in zip(row, columns):
            best, arg = delta[0] + column[0], 0
            for i in range(1, k):
                score = delta[i] + column[i]
                if score > best:
                    best, arg = score, i
            pointers.append(arg)
            scores.append(e + best)
        delta = scores
        back.append(pointers)
    path = [delta.index(max(delta))]
    for pointers in reversed(back):
        path.append(pointers[path[-1]])
    path.reverse()
    return path


def decode(model: CrfModel, sequence: list[str]) -> list[str]:
    """Viterbi tag sequence for a placeholder/lemma sequence."""
    path = viterbi(model.emissions(sequence), model.transitions)
    return [TAGS[i] for i in path]


def marginals(model: CrfModel, sequences: list[list[str]]) -> list[np.ndarray]:
    """Forward-backward tag probabilities of each sequence, shape (n, len(TAGS)).

    Each row sums to 1; entry [t, k] is the probability that position t
    carries tag k, used downstream as the mention confidence score. The
    sequences, a document's candidate sentences, run through one recursion,
    stacked by length; results come back in input order.
    """
    k = len(TAGS)
    probs = [np.zeros((0, k)) for _ in sequences]
    live = [i for i, sequence in enumerate(sequences) if sequence]
    if not live:
        return probs
    emissions = [model.emissions(sequences[i]) for i in live]
    layout = time_major_layout([len(em) for em in emissions])
    em = np.empty((sum(map(len, emissions)), k))
    for _, members, rows in layout[2]:
        stack = np.array([emissions[j] for j in members.tolist()])  # np.stack is slower
        em[rows] = stack.swapaxes(0, 1)
    mu = forward_backward_stacks(em, model.transitions, layout, statistics=False)[0]
    for _, members, rows in layout[2]:
        for j, sentence_probs in zip(members.tolist(), mu[rows.T]):
            probs[live[j]] = sentence_probs
    return probs


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
        relation = payload.get("relation")  # as train writes it: null, or Relation's strings
        if relation is not None and not (
                isinstance(relation, dict) and relation.keys() <= {f.name for f in fields(Relation)}
                and all(isinstance(value, str) for value in relation.values())):
            raise ValueError(f"relation must be null or an object of strings, got {relation!r}")
        l2_sigma = finite_number(payload.get("l2_sigma", 1.0), "l2_sigma")
        if l2_sigma <= 0:
            raise ValueError(f"l2_sigma must be positive, got {l2_sigma!r}")
        return CrfModel(
            gram_ids=tuple(tables.values()),
            weights=weights,
            transitions=transitions,
            l2_sigma=l2_sigma,
            relation=relation,
            final_objective=finite_number(payload.get("final_objective", 0.0), "final_objective"),
            n_iterations=n_iterations,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(path, f"corrupt model payload: {exc}") from exc
