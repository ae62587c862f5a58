"""Maximum-likelihood CRF training.

The penalized conditional log-likelihood and its analytic gradient
(empirical minus expected feature counts) are computed here; scipy's
L-BFGS-B takes the quasi-Newton steps. Training is deterministic: weights
start at zero and sentences are processed in input order.

The training data are compiled once into a sparse 0/1 matrix ``X``, one row
per token position and one column per feature, so emissions are ``X @ W``
and expected feature counts ``Xᵀ @ μ``. Its column ids come from the
per-template n-gram tables and :func:`.features.lookup_ids` of inference.
Rows run length bucket by length bucket, so each bucket reshapes to a
(batch, length, tags) stack, and one scaled :func:`.model.forward_backward`
call gives its tag marginals, expected transition counts and log partitions.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.sparse import csr_matrix

from .features import FeatureTemplate, default_templates, lookup_ids, template_columns
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


class TrainingProblem:
    """Negative penalized log-likelihood with analytic gradient.

    Exposed separately from :func:`train` so the gradient can be checked
    against finite differences of the very same objective.
    """

    def __init__(
        self,
        data: Sequence,
        templates: Optional[Iterable[FeatureTemplate]] = None,
        l2_sigma: float = 1.0,
        feature_cutoff: int = 2,
    ) -> None:
        if l2_sigma <= 0:
            raise ValueError("l2_sigma must be positive")
        examples = [_as_example(item) for item in data]
        examples = [(seq, tg) for seq, tg in examples if seq]
        if not examples:
            raise ValueError("no non-empty training sentences")
        if not any(COUNT in tg for _, tg in examples):
            raise DegenerateTrainingError(
                "no COUNT tag in the training data; the model would be degenerate"
            )
        self.templates = list(templates) if templates is not None else default_templates()
        self.l2_sigma = float(l2_sigma)

        # The model's n-gram -> id tables, one per template name (equal
        # templates share one). Ids go in first-occurrence order (sentence,
        # then position, then template) to the n-grams seen feature_cutoff times.
        names = [tpl.name for tpl in self.templates]
        counts = {name: Counter() for name in names}
        columns = [template_columns(seq, self.templates) for seq, _ in examples]
        for cols in columns:
            for name, col in zip(names, cols):
                counts[name].update(col)
        by_name: dict[str, dict[str, int]] = {name: {} for name in names}
        self.gram_ids = tuple(by_name[name] for name in names)
        self.n_features = 0
        sentence_ids = []
        for (seq, _), cols in zip(examples, columns):
            ids = lookup_ids(self.gram_ids, cols, len(seq), -1)
            # Only a kept n-gram's first occurrences and the rare n-grams miss.
            for p, j in np.argwhere(ids < 0).tolist():
                gram, table = cols[j][p], self.gram_ids[j]
                if gram not in table and counts[names[j]][gram] >= feature_cutoff:
                    table[gram] = self.n_features
                    self.n_features += 1
                ids[p, j] = table.get(gram, -1)
            sentence_ids.append(ids)
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
        # One row per token position, bucket by bucket. X is built from
        # (data, indices, indptr) with each row's ids in template order: COO
        # input would sort the columns, and that changes the floating-point
        # summation order of the emissions.
        ids = np.concatenate([sentence_ids[i] for n in sorted(by_length) for i in by_length[n]])
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
    templates: Optional[Iterable[FeatureTemplate]] = None,
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
    problem = TrainingProblem(
        data, templates=templates, l2_sigma=l2_sigma, feature_cutoff=feature_cutoff
    )
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
        templates=tuple(problem.templates),
        l2_sigma=l2_sigma,
        relation=relation,
        final_objective=final_objective,
        n_iterations=int(result.nit),
    )
