"""Maximum-likelihood CRF training.

The penalized conditional log-likelihood and its analytic gradient
(empirical minus expected feature counts) are computed here; scipy's
L-BFGS-B takes the quasi-Newton steps. Training is deterministic: weights
start at zero and sentences are processed in input order.

The training data are compiled once into a sparse 0/1 matrix ``X``, one row
per token position and one column per feature, so emissions are ``X @ W``
and expected feature counts ``Xᵀ @ μ``. Its column ids come from one
integer-coded pass over all sentences (:func:`_compile_features`): symbols
become ints, n-gram windows become dense per-width codes, and a bincount
keeps the frequent ones; it builds the per-window n-gram tables that
inference reads through :func:`.features.lookup_ids`, with the same ids.
Rows run length bucket by length bucket, so each bucket reshapes to a
(batch, length, tags) stack, and one scaled :func:`.model.forward_backward`
call gives its tag marginals, expected transition counts and log partitions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.sparse import csr_matrix

from .features import BOS, EOS, PAD, WINDOWS
from .model import COUNT, TAGS, CrfModel, forward_backward

logger = logging.getLogger(__name__)


class DegenerateTrainingError(ValueError):
    """Training data contains no positive (COUNT) tag at all."""


@dataclass
class _Bucket:
    """All training sentences of one length, stacked."""

    length: int
    y: np.ndarray        # (B, n) tag ids
    rows: slice          # the bucket's B * n rows of the feature matrix


def _as_example(item) -> tuple[list[str], list[str]]:
    if isinstance(item, tuple):
        seq, tags = item
        return list(seq), list(tags)
    return list(item.placeholder_sequence()), list(item.tags)


def _compile_features(
    examples: list[tuple[list[str], list[str]]], feature_cutoff: int
) -> tuple[tuple[dict[str, int], ...], int, np.ndarray]:
    """The n-gram tables, the feature count and the ids of every position.

    A window's n-grams count per window, and the n-grams seen
    *feature_cutoff* times get ids in first-occurrence order: sentence, then
    position, then window. The ids have shape (positions, windows), rows in
    sentence order, and read -1 where an n-gram was dropped.

    All sentences are laid out in one padded int array. Each width's windows
    get dense codes by extending the next narrower ones by one symbol, so
    every (position, window) key is a small int: one ``np.bincount`` counts
    them, and only the kept n-grams are ever joined into strings.
    """
    flat: list[str] = []
    for seq, _ in examples:
        flat += [BOS] * PAD + seq + [EOS] * PAD
    # BOS/EOS are interned like any symbol, so a literal "BOS" token is the
    # padding symbol, as in template_columns.
    symbols = list(dict.fromkeys(flat))
    code = {symbol: i for i, symbol in enumerate(symbols)}
    codes = np.fromiter(map(code.__getitem__, flat), dtype=np.int64, count=len(flat))
    widest = WINDOWS[-1][0]
    # dense[w - 1][j] numbers the window flat[j : j + w] among that width's
    # windows; renumbering each width keeps the next width's keys below len(flat) * V.
    dense = [codes]
    for w in range(2, widest + 1):
        dense.append(np.unique(dense[-1][:-1] * len(symbols) + codes[w - 1 :],
                               return_inverse=True)[1])

    lengths = np.array([len(seq) for seq, _ in examples])
    # base[row] is where the row's position sits in flat, less the left padding.
    segment = lengths + 2 * PAD
    row_start = np.cumsum(lengths) - lengths
    base = np.repeat(np.cumsum(segment) - segment - row_start, lengths) + np.arange(lengths.sum())
    width, start = np.array(WINDOWS, dtype=np.intp).T
    start += PAD  # where each window starts in the padded sequence
    keys = np.empty((len(base), len(WINDOWS)), dtype=np.int64)
    for t in range(len(WINDOWS)):
        keys[:, t] = dense[width[t] - 1][base + start[t]] * len(WINDOWS) + t
    keys = keys.ravel()  # flat index f = row * len(WINDOWS) + window
    symbol = np.array(symbols, dtype=object)

    def joined(f: np.ndarray) -> list[str]:
        """The ``"|"``-joined n-gram of each flat (position, window) index."""
        row, t = np.divmod(f, len(WINDOWS))
        # Read widest symbols from each start (clipped at the end of flat),
        # then join only the window's own width.
        at = (base[row] + start[t])[:, None] + np.arange(widest)
        windows = symbol[codes[np.minimum(at, len(flat) - 1)]].tolist()
        return ["|".join(parts[:w]) for parts, w in zip(windows, width[t].tolist())]

    def occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Count and first flat index of every key value (count 0: never occurs)."""
        counts = np.bincount(keys)
        first = np.full(len(counts), keys.size)
        np.minimum.at(first, keys, np.arange(keys.size))
        return counts, first

    counts, first = occurrences(keys)
    # A feature is its joined string, so two windows that join alike are one
    # feature: ("a|b", "c") and ("a", "b|c"), or ("", "|") and ("|", "").
    # Joining can merge windows only if some symbol holds "|" beside other
    # characters, or both "|" and "" are symbols; then re-key by the strings.
    if any("|" in s and s != "|" for s in symbols) or {"|", ""} <= code.keys():
        present = np.flatnonzero(counts)
        by_string: dict[tuple[int, str], int] = {}
        rekey = np.zeros(len(counts), dtype=np.int64)
        rekey[present] = [by_string.setdefault((g % len(WINDOWS), gram), len(by_string))
                          for g, gram in zip(present.tolist(), joined(first[present]))]
        keys = rekey[keys]
        counts, first = occurrences(keys)

    kept = np.flatnonzero(counts >= max(feature_cutoff, 1))
    kept = kept[np.argsort(first[kept])]
    feature = np.full(len(counts), -1, dtype=np.intp)
    feature[kept] = np.arange(len(kept))
    tables: tuple[dict[str, int], ...] = tuple({} for _ in WINDOWS)
    for fid, (f, gram) in enumerate(zip(first[kept].tolist(), joined(first[kept]))):
        tables[f % len(WINDOWS)][gram] = fid
    ids = feature[keys].reshape(len(base), len(WINDOWS))
    return tables, len(kept), ids


class TrainingProblem:
    """Negative penalized log-likelihood with analytic gradient.

    Exposed separately from :func:`train` so the gradient can be checked
    against finite differences of the very same objective.
    """

    def __init__(
        self,
        data: Sequence,
        l2_sigma: float = 1.0,
        feature_cutoff: int = 2,
    ) -> None:
        if not (0 < l2_sigma < math.inf):  # NaN fails every comparison
            raise ValueError(f"l2_sigma must be a positive finite number, got {l2_sigma}")
        examples = [_as_example(item) for item in data]
        examples = [(seq, tg) for seq, tg in examples if seq]
        if not examples:
            raise ValueError("no non-empty training sentences")
        if not any(COUNT in tg for _, tg in examples):
            raise DegenerateTrainingError(
                "no COUNT tag in the training data; the model would be degenerate"
            )
        self.l2_sigma = float(l2_sigma)

        self.gram_ids, self.n_features, ids = _compile_features(examples, feature_cutoff)
        k = len(TAGS)

        by_length: dict[int, list[int]] = {}
        for i, (seq, _) in enumerate(examples):
            by_length.setdefault(len(seq), []).append(i)
        self.buckets: list[_Bucket] = []
        self._emp_t = np.zeros((k, k))
        for length in sorted(by_length):
            y = np.array([[TAGS.index(t) for t in examples[i][1]] for i in by_length[length]],
                         dtype=np.intp)
            start = self.buckets[-1].rows.stop if self.buckets else 0
            self.buckets.append(_Bucket(length, y, slice(start, start + y.size)))
            np.add.at(self._emp_t, (y[:, :-1].ravel(), y[:, 1:].ravel()), 1.0)
        # One row per token position, bucket by bucket: a stable sort of the
        # rows by their sentence's length. X is built from (data, indices,
        # indptr) with each row's ids in window order: COO input would sort
        # the columns, and that changes the floating-point summation order of
        # the emissions.
        lengths = np.array([len(seq) for seq, _ in examples])
        ids = ids[np.argsort(np.repeat(lengths, lengths), kind="stable")]
        kept = ids >= 0
        indptr = np.concatenate([[0], np.cumsum(kept.sum(axis=1))])
        self.X = csr_matrix(
            (np.ones(indptr[-1]), ids[kept], indptr), shape=(len(ids), self.n_features)
        )

        all_tags = np.concatenate([bucket.y.ravel() for bucket in self.buckets])
        self._emp_w = self.X.T @ np.eye(k)[all_tags]

    @property
    def n_params(self) -> int:
        return (self.n_features + len(TAGS)) * len(TAGS)

    def split(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k = len(TAGS)
        cut = self.n_features * k
        return theta[:cut].reshape(self.n_features, k), theta[cut:].reshape(k, k)

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Negative penalized log-likelihood and its gradient."""
        w, trans = self.split(theta)
        k = len(TAGS)
        em_all = self.X @ w
        mu_all = np.empty_like(em_all)
        exp_t = np.zeros_like(trans)
        ll = 0.0
        for bucket in self.buckets:
            y = bucket.y
            batch, n = y.shape
            em = em_all[bucket.rows].reshape(batch, n, k)
            mu, xi, log_z = forward_backward(em, trans)
            score = em[np.arange(batch)[:, None], np.arange(n)[None, :], y].sum(axis=1)
            score = score + trans[y[:, :-1], y[:, 1:]].sum(axis=1)
            ll += float((score - log_z).sum())
            mu_all[bucket.rows] = mu.reshape(batch * n, k)
            exp_t += xi
        exp_w = self.X.T @ mu_all
        # Not theta @ theta: a BLAS dot that long wakes OpenBLAS's threads,
        # which then compete with this one unless BLAS is pinned to one thread.
        value = -(ll - 0.5 * self.l2_sigma * float(np.square(theta).sum()))
        grad = np.concatenate([(exp_w - self._emp_w).ravel(), (exp_t - self._emp_t).ravel()])
        return value, grad + self.l2_sigma * theta


def train(
    data: Sequence,
    l2_sigma: float = 1.0,
    max_iter: int = 300,
    tol: float = 1e-4,
    feature_cutoff: int = 2,
    relation: Optional[dict] = None,
    history: Optional[list] = None,
) -> CrfModel:
    """Fit a CRF on labeled sentences (or raw (sequence, tags) pairs).

    Stops when the gradient norm drops below *tol* or after *max_iter*
    quasi-Newton iterations; a fit that stops without converging logs a
    warning with scipy's reason. Pass a list as *history* to record the
    objective after every accepted step.
    """
    problem = TrainingProblem(data, l2_sigma=l2_sigma, feature_cutoff=feature_cutoff)
    theta0 = np.zeros(problem.n_params)

    callback = None
    if history is not None:
        # L-BFGS-B passes the accepted step with its value, so recording the
        # history costs no extra evaluation.
        def callback(intermediate_result):
            history.append(-float(intermediate_result.fun))

    result = minimize(
        problem.value_and_grad,
        theta0,
        jac=True,
        method="L-BFGS-B",
        callback=callback,
        options={"maxiter": max_iter, "gtol": tol, "ftol": 1e-12, "maxfun": 10 * max_iter},
    )
    if not result.success:
        logger.warning(
            "L-BFGS stopped without converging after %d iterations: %s",
            result.nit,
            result.message,
        )
    w, trans = problem.split(result.x)
    final_objective = -float(result.fun)
    logger.info(
        "trained CRF: %d features, objective %.6f after %d iterations",
        problem.n_features,
        final_objective,
        result.nit,
    )
    return CrfModel(
        gram_ids=problem.gram_ids,
        weights=w.copy(),
        transitions=trans.copy(),
        l2_sigma=l2_sigma,
        relation=relation,
        final_objective=final_objective,
        n_iterations=int(result.nit),
    )
