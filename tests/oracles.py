"""Independent brute-force references for CRF inference.

These enumerate all tag paths explicitly; they must stay free of the
dynamic-programming code they are used to check.
"""

from __future__ import annotations

import itertools

import numpy as np


def all_paths(n: int, k: int) -> np.ndarray:
    return np.array(list(itertools.product(range(k), repeat=n)), dtype=np.intp)


def path_scores(emissions: np.ndarray, transitions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n, k = emissions.shape
    paths = all_paths(n, k)
    scores = emissions[np.arange(n), paths].sum(axis=1)
    if n > 1:
        scores = scores + transitions[paths[:, :-1], paths[:, 1:]].sum(axis=1)
    return paths, scores


def path_score(emissions: np.ndarray, transitions: np.ndarray, tag_ids: list[int]) -> float:
    """Score of one tag path: its emissions plus its transitions."""
    n = len(tag_ids)
    score = sum(emissions[t, tag_ids[t]] for t in range(n))
    score += sum(transitions[tag_ids[t - 1], tag_ids[t]] for t in range(1, n))
    return float(score)


def assert_viterbi_optimal(
    emissions: np.ndarray, transitions: np.ndarray, path: list[int]
) -> None:
    """Tie-aware check: the path must attain the enumerated maximum score.

    When the argmax is unique the tag sequences must agree exactly; under
    exact score ties any co-optimal path is a correct answer.
    """
    paths, scores = path_scores(emissions, transitions)
    best = scores.max()
    got = float(
        emissions[np.arange(len(path)), path].sum()
        + (transitions[path[:-1], path[1:]].sum() if len(path) > 1 else 0.0)
    )
    assert got >= best - 1e-9, f"viterbi score {got} below optimum {best}"
    ties = np.flatnonzero(scores >= best - 1e-12)
    if len(ties) == 1:
        assert path == list(paths[ties[0]])


def brute_force_log_partition(emissions: np.ndarray, transitions: np.ndarray) -> float:
    _, scores = path_scores(emissions, transitions)
    m = scores.max()
    return float(m + np.log(np.exp(scores - m).sum()))


def brute_force_marginals(emissions: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    n, k = emissions.shape
    paths, scores = path_scores(emissions, transitions)
    weights = np.exp(scores - scores.max())
    weights /= weights.sum()
    out = np.zeros((n, k))
    for t in range(n):
        for tag in range(k):
            out[t, tag] = weights[paths[:, t] == tag].sum()
    return out


def random_model(rng: np.random.Generator, vocab: list[str], scale: float = 1.0):
    """A small CRF with one feature per symbol plus a bigram context feature."""
    from countquant.crf import CrfModel, FeatureTemplate

    templates = (FeatureTemplate((0,)), FeatureTemplate((-1, 0)))
    unigrams: dict[str, int] = {}
    for w in vocab + ["BOS"]:
        unigrams[w] = len(unigrams)
    bigrams: dict[str, int] = {}
    for left in vocab + ["BOS"]:
        for right in vocab:
            bigrams[f"{left}|{right}"] = len(unigrams) + len(bigrams)
    weights = rng.normal(scale=scale, size=(len(unigrams) + len(bigrams), 3))
    transitions = rng.normal(scale=scale, size=(3, 3))
    return CrfModel(
        gram_ids=(unigrams, bigrams),
        weights=weights,
        transitions=transitions,
        templates=templates,
    )


def random_sequence(rng: np.random.Generator, vocab: list[str], length: int) -> list[str]:
    return [vocab[i] for i in rng.integers(0, len(vocab), size=length)]
