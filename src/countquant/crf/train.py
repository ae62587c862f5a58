"""Maximum-likelihood CRF training.

The penalized conditional log-likelihood and its analytic gradient are
computed here (empirical minus expected feature counts via forward-backward);
the quasi-Newton step itself is delegated to scipy's L-BFGS-B. Training is
deterministic: weights start at zero and sentences are processed in input
order.

Sentences of equal length are batched into (batch, length, tags) tensors so
the forward-backward kernel of :mod:`.model` (``log_forward``,
``log_backward``) runs once per length bucket rather than once per sentence;
only the pairwise marginals and the gradient are computed here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .features import FeatureTemplate, default_templates, sentence_features
from .model import TAGS, CrfModel, log_backward, log_forward, logsumexp

logger = logging.getLogger(__name__)


class DegenerateTrainingError(ValueError):
    """Training data contains no positive (COUNT) tag at all."""


@dataclass
class _Bucket:
    """All training sentences of one length, stacked."""

    length: int
    tag_ids: np.ndarray     # (B, n)
    flat_fids: np.ndarray   # feature id of every (sentence, position, feature) entry
    flat_sent: np.ndarray   # sentence-in-bucket index per entry
    flat_pos: np.ndarray    # position per entry


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
        tags: tuple[str, ...] = TAGS,
    ) -> None:
        if l2_sigma <= 0:
            raise ValueError("l2_sigma must be positive")
        examples = [_as_example(item) for item in data]
        examples = [(seq, tg) for seq, tg in examples if seq]
        if not examples:
            raise ValueError("no non-empty training sentences")
        if not any("COUNT" in tg for _, tg in examples):
            raise DegenerateTrainingError(
                "no COUNT tag in the training data; the model would be degenerate"
            )
        self.tags = tags
        self.tag_ids = {t: i for i, t in enumerate(tags)}
        self.templates = list(templates) if templates is not None else default_templates()
        self.l2_sigma = float(l2_sigma)

        counts: dict[str, int] = {}
        per_sentence: list[list[list[str]]] = []
        for seq, _ in examples:
            rows = sentence_features(seq, self.templates)
            per_sentence.append(rows)
            for row in rows:
                for f in row:
                    counts[f] = counts.get(f, 0) + 1
        self.feature_index: dict[str, int] = {}
        for rows in per_sentence:
            for row in rows:
                for f in row:
                    if counts[f] >= feature_cutoff and f not in self.feature_index:
                        self.feature_index[f] = len(self.feature_index)

        self.n_features = len(self.feature_index)
        self.n_tags = len(tags)

        by_length: dict[int, list[int]] = {}
        for i, (seq, _) in enumerate(examples):
            by_length.setdefault(len(seq), []).append(i)

        self.buckets: list[_Bucket] = []
        for length in sorted(by_length):
            members = by_length[length]
            tag_mat = np.array(
                [[self.tag_ids[t] for t in examples[i][1]] for i in members],
                dtype=np.intp,
            )
            fids, sent_idx, pos_idx = [], [], []
            for b, i in enumerate(members):
                for pos, row in enumerate(per_sentence[i]):
                    for f in row:
                        fid = self.feature_index.get(f)
                        if fid is not None:
                            fids.append(fid)
                            sent_idx.append(b)
                            pos_idx.append(pos)
            self.buckets.append(
                _Bucket(
                    length=length,
                    tag_ids=tag_mat,
                    flat_fids=np.asarray(fids, dtype=np.intp),
                    flat_sent=np.asarray(sent_idx, dtype=np.intp),
                    flat_pos=np.asarray(pos_idx, dtype=np.intp),
                )
            )

        emp_w = np.zeros((self.n_features, self.n_tags))
        emp_t = np.zeros((self.n_tags, self.n_tags))
        for bucket in self.buckets:
            if bucket.flat_fids.size:
                entry_tags = bucket.tag_ids[bucket.flat_sent, bucket.flat_pos]
                np.add.at(emp_w, (bucket.flat_fids, entry_tags), 1.0)
            if bucket.length > 1:
                np.add.at(
                    emp_t,
                    (bucket.tag_ids[:, :-1].ravel(), bucket.tag_ids[:, 1:].ravel()),
                    1.0,
                )
        self._emp_w = emp_w
        self._emp_t = emp_t

    @property
    def n_params(self) -> int:
        return self.n_features * self.n_tags + self.n_tags * self.n_tags

    def split(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cut = self.n_features * self.n_tags
        w = theta[:cut].reshape(self.n_features, self.n_tags)
        t = theta[cut:].reshape(self.n_tags, self.n_tags)
        return w, t

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Negative penalized log-likelihood and its gradient."""
        w, trans = self.split(theta)
        k = self.n_tags
        exp_w = np.zeros_like(w)
        exp_t = np.zeros_like(trans)
        ll = 0.0
        for bucket in self.buckets:
            n = bucket.length
            batch = bucket.tag_ids.shape[0]
            em = np.zeros((batch, n, k))
            if bucket.flat_fids.size:
                np.add.at(em, (bucket.flat_sent, bucket.flat_pos), w[bucket.flat_fids])
            alpha = log_forward(em, trans)
            beta = log_backward(em, trans)
            log_z = logsumexp(alpha[:, n - 1])

            y = bucket.tag_ids
            rows = np.arange(batch)[:, None]
            score = em[rows, np.arange(n)[None, :], y].sum(axis=1)
            if n > 1:
                score = score + trans[y[:, :-1], y[:, 1:]].sum(axis=1)
            ll += float((score - log_z).sum())

            mu = np.exp(alpha + beta - log_z[:, None, None])
            if bucket.flat_fids.size:
                np.add.at(
                    exp_w, bucket.flat_fids, mu[bucket.flat_sent, bucket.flat_pos]
                )
            if n > 1:
                xi = np.exp(
                    alpha[:, :-1, :, None]
                    + trans[None, None, :, :]
                    + (em[:, 1:] + beta[:, 1:])[:, :, None, :]
                    - log_z[:, None, None, None]
                )
                exp_t += xi.sum(axis=(0, 1))
        penalty = 0.5 * self.l2_sigma * float(theta @ theta)
        value = -(ll - penalty)
        grad_w = -(self._emp_w - exp_w)
        grad_t = -(self._emp_t - exp_t)
        grad = np.concatenate([grad_w.ravel(), grad_t.ravel()]) + self.l2_sigma * theta
        return value, grad

    def objective(self, theta: np.ndarray) -> float:
        """Penalized log-likelihood (the quantity being maximized)."""
        return -self.value_and_grad(theta)[0]


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
    quasi-Newton iterations. Pass a list as *history* to record the
    objective after every accepted step.
    """
    problem = TrainingProblem(
        data, templates=templates, l2_sigma=l2_sigma, feature_cutoff=feature_cutoff
    )
    theta0 = np.zeros(problem.n_params)

    callback = None
    if history is not None:
        callback = lambda xk: history.append(problem.objective(xk))  # noqa: E731

    result = minimize(
        problem.value_and_grad,
        theta0,
        jac=True,
        method="L-BFGS-B",
        callback=callback,
        options={"maxiter": max_iter, "gtol": tol, "ftol": 1e-12, "maxfun": 10 * max_iter},
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
        feature_index=dict(problem.feature_index),
        weights=w.copy(),
        transitions=trans.copy(),
        templates=tuple(problem.templates),
        tags=problem.tags,
        l2_sigma=l2_sigma,
        relation=relation,
        final_objective=final_objective,
        n_iterations=int(result.nit),
    )
