"""Maximum-likelihood CRF training.

The penalized conditional log-likelihood and its analytic gradient
(empirical minus expected feature counts) are computed here, and so are the
quasi-Newton steps (:func:`lbfgs`, limited-memory BFGS in numpy, which
keeps its last curvature pairs and makes every step's arrays anew). Training is
deterministic: weights start at zero, sentences are processed in input order,
and no sum depends on the BLAS thread count, so a fit writes the same bits
with any number of threads. scipy is used for its sparse matrix alone.

The training data are compiled once into a sparse 0/1 matrix ``X``, one row
per token position and one column per feature, so emissions are ``X @ W``
and expected feature counts ``Xᵀ @ μ``. Its column ids come from one
integer-coded pass over all sentences (:func:`_compile_features`): symbols
become ints, n-gram windows become dense per-width codes, and a bincount
keeps the frequent ones; it builds the per-window n-gram tables that
inference reads, merged per width (:class:`.features.WidthIndex`), with the
same ids.
Rows run length bucket by length bucket, in increasing length. An evaluation
runs one :func:`.model.forward_backward_stacks` recursion over all buckets,
on the emissions gathered into the time-major layout computed once per
problem (:func:`.model.time_major_layout`, which inference uses too); each
bucket's transition counts and log partitions are summed on its own rows, in
increasing length, as one call per bucket would.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .features import BOS, EOS, PAD, WINDOWS
from .model import COUNT, TAGS, CrfModel, forward_backward_stacks, time_major_layout

logger = logging.getLogger(__name__)


class DegenerateTrainingError(ValueError):
    """Training data contains no positive (COUNT) tag at all."""


@dataclass
class _Bucket:
    """All training sentences of one length, stacked."""

    length: int
    y: np.ndarray        # (B, n) tag ids
    rows: slice          # the bucket's B * n rows of the feature matrix
    pairs: np.ndarray    # (B, n - 1) its gold tag pairs' indices into the raveled transitions


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
    # padding symbol, as in the n-grams inference joins.
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

        lengths = np.array([len(seq) for seq, _ in examples])
        self._layout = time_major_layout(lengths)
        self.buckets: list[_Bucket] = []
        self._emp_t = np.zeros((k, k))
        for length, members, _ in self._layout[2]:
            y = np.array([[TAGS.index(t) for t in examples[i][1]] for i in members.tolist()],
                         dtype=np.intp)
            start = self.buckets[-1].rows.stop if self.buckets else 0
            self.buckets.append(_Bucket(length, y, slice(start, start + y.size),
                                        y[:, :-1] * k + y[:, 1:]))
            np.add.at(self._emp_t, (y[:, :-1].ravel(), y[:, 1:].ravel()), 1.0)
        # Each feature-matrix row's time-major row, and back.
        self._time_row = np.concatenate([rows.T.ravel() for _, _, rows in self._layout[2]])
        self._x_row = np.argsort(self._time_row)
        # One row per token position, bucket by bucket: a stable sort of the
        # rows by their sentence's length. X is built from (data, indices,
        # indptr) with each row's ids in window order: COO input would sort
        # the columns, and that changes the floating-point summation order of
        # the emissions.
        ids = ids[np.argsort(np.repeat(lengths, lengths), kind="stable")]
        kept = ids >= 0
        indptr = np.concatenate([[0], np.cumsum(kept.sum(axis=1))])
        self.X = csr_matrix(
            (np.ones(indptr[-1]), ids[kept], indptr), shape=(len(ids), self.n_features)
        )

        all_tags = np.concatenate([bucket.y.ravel() for bucket in self.buckets])
        self._emp_w = self.X.T @ np.eye(k)[all_tags]
        self._gold = np.arange(len(all_tags)) * k + all_tags  # into the raveled emissions

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
        em_all = self.X @ w
        mu, stats = forward_backward_stacks(em_all.take(self._x_row, axis=0), trans, self._layout)
        gold = em_all.ravel().take(self._gold)
        exp_t = np.zeros_like(trans)
        ll = 0.0
        for bucket, (xi, log_z) in zip(self.buckets, stats):
            score = gold[bucket.rows].reshape(bucket.y.shape).sum(axis=1)
            score = score + trans.ravel().take(bucket.pairs).sum(axis=1)
            ll += float((score - log_z).sum())
            exp_t += xi
        exp_w = self.X.T @ mu.take(self._time_row, axis=0)
        # Not theta @ theta: a BLAS dot that long wakes OpenBLAS's threads,
        # which then compete with this one unless BLAS is pinned to one thread.
        value = -(ll - 0.5 * self.l2_sigma * float(np.square(theta).sum()))
        grad = np.concatenate([(exp_w - self._emp_w).ravel(), (exp_t - self._emp_t).ravel()])
        return value, grad + self.l2_sigma * theta


# L-BFGS's number of curvature pairs, and its relative-decrease stopping threshold.
MEMORY = 10
FTOL = 1e-12


@dataclass
class LbfgsResult:
    """What :func:`lbfgs` stopped at, and why."""

    x: np.ndarray
    value: float
    n_iterations: int
    n_evaluations: int
    max_abs_grad: float
    status: str

    @property
    def converged(self) -> bool:
        return self.status.startswith("CONVERGENCE")


def lbfgs(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    tol: float,
    max_iter: int,
    callback: Optional[Callable[[float], None]] = None,
) -> LbfgsResult:
    """Minimize ``fun(x) -> (value, gradient)`` by limited-memory BFGS.

    The direction is the two-loop recursion over the last ``MEMORY``
    curvature pairs (s, y), scaled by γ = sᵀy / yᵀy of the newest (Nocedal &
    Wright, *Numerical Optimization*, Alg. 7.4); a pair with sᵀy <= 0 is
    skipped. The first trial step is 1 along it, or 1/‖g‖ along -g while no
    pair is kept. A backtracking line search halves the step until it lowers
    the value by at least 1e-4 · step · gᵀd (Armijo; N&W Alg. 3.1).
    *callback* gets the value after each accepted step.

    The stopping rules are those of scipy's L-BFGS-B without bounds (its
    ``gtol``, ``ftol``, ``maxiter``, ``maxfun`` and ``maxls``). After each
    accepted step, in this order: ``max|g| <= tol`` (also checked at *x0*);
    the value fell by at most ``FTOL * max(|f_old|, |f|, 1)``; *max_iter*
    steps are done. Within a line search: the next evaluation would exceed
    ``10 * max_iter``, or 20 trial steps gave no sufficient decrease. The
    result is always the last accepted point.

    Every inner product is a numpy pairwise sum (``np.add.reduce``), never a
    BLAS dot, whose rounding depends on the BLAS thread count; the result is
    the same bits with any number of threads.
    """
    x = np.array(x0, dtype=float)
    pairs: deque = deque(maxlen=MEMORY)  # (s, y, 1/sᵀy), oldest first
    gamma = 1.0

    def dot(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.add.reduce(a * b))

    f, g = fun(x)
    evals, iterations = 1, 0
    g_max = float(np.abs(g).max())
    status = "CONVERGENCE: NORM OF GRADIENT <= TOL" if g_max <= tol else ""
    while not status:
        # d = -H g, by the two-loop recursion.
        d, alphas = g, []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * dot(s, d))
            d = d + y * -alphas[-1]
        d = d * gamma
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d = d + s * (alpha - rho * dot(y, d))
        d = -d
        slope = dot(g, d)
        step = 1.0 if pairs else 1.0 / math.sqrt(dot(g, g))
        for _ in range(20):
            if evals >= 10 * max_iter:
                status = "STOP: TOTAL NO. OF EVALUATIONS REACHED LIMIT"
                break
            x_new = x + d * step
            f_new, g_new = fun(x_new)
            evals += 1
            if f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            status = "ABNORMAL: LINE SEARCH FAILED"
        if status:
            break

        iterations += 1
        s, y = x_new - x, g_new - g
        sy = dot(s, y)
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / dot(y, y)
        x, f_old, f, g = x_new, f, f_new, g_new
        g_max = float(np.abs(g).max())
        if callback is not None:
            callback(f)
        if g_max <= tol:
            status = "CONVERGENCE: NORM OF GRADIENT <= TOL"
        elif f_old - f <= FTOL * max(abs(f_old), abs(f), 1.0):
            status = "CONVERGENCE: RELATIVE REDUCTION OF F <= FTOL"
        elif iterations >= max_iter:
            status = "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
    return LbfgsResult(x, float(f), iterations, evals, g_max, status)


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

    Stops when the largest gradient component drops below *tol* or after
    *max_iter* quasi-Newton iterations (:func:`lbfgs`); a fit that stops
    without converging logs a warning with the optimizer's reason. Pass a
    list as *history* to record the objective after every accepted step.
    """
    problem = TrainingProblem(data, l2_sigma=l2_sigma, feature_cutoff=feature_cutoff)
    result = lbfgs(
        problem.value_and_grad,
        np.zeros(problem.n_params),
        tol=tol,
        max_iter=max_iter,
        callback=None if history is None else (lambda value: history.append(-value)),
    )
    if not result.converged:
        logger.warning(
            "L-BFGS stopped without converging after %d iterations: %s",
            result.n_iterations,
            result.status,
        )
    w, trans = problem.split(result.x)
    final_objective = -result.value
    logger.info(
        "trained CRF: %d features, objective %.6f after %d iterations",
        problem.n_features,
        final_objective,
        result.n_iterations,
    )
    return CrfModel(
        gram_ids=problem.gram_ids,
        weights=w.copy(),
        transitions=trans.copy(),
        l2_sigma=l2_sigma,
        relation=relation,
        final_objective=final_objective,
        n_iterations=result.n_iterations,
    )
