"""Independent brute-force references for CRF inference, and test-side helpers.

The references enumerate all tag paths explicitly; they must stay free of the
dynamic-programming code they are used to check. The helpers after them
(``log_partition``, ``random_model``, ``training_set``) call the library:
they are what the tests check, or build their inputs. ``detokenize`` renders
a sentence as text for the bit-exact rewrite checks.
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


def log_partition(emissions: np.ndarray, transitions: np.ndarray) -> float:
    """One sentence's log partition through the library's forward-backward kernel.

    This is the code under test, not an oracle: the brute-force reference is
    :func:`brute_force_log_partition`.
    """
    from countquant.crf.model import forward_backward

    if emissions.shape[0] == 0:
        return 0.0
    return float(forward_backward(emissions, transitions)[2])


def random_model(rng: np.random.Generator, vocab: list[str], scale: float = 1.0):
    """A small CRF with one feature per symbol plus a bigram context feature.

    Only the ``U1`` and ``U2[-1]`` tables hold n-grams; the other 13 are empty.
    """
    from countquant.crf import CrfModel
    from countquant.crf.features import WINDOWS

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
        gram_ids=(unigrams, bigrams) + ({},) * (len(WINDOWS) - 2),
        weights=weights,
        transitions=transitions,
    )


def random_sequence(rng: np.random.Generator, vocab: list[str], length: int) -> list[str]:
    return [vocab[i] for i in rng.integers(0, len(vocab), size=length)]


def training_set(store, documents, rel, policy=None, lexicon=None):
    """``(labeled, stats)`` of every seed subject, by the sequence ``build-training`` runs.

    ``select_subjects``, then ``label_subject_document`` per document, then
    ``join_documents``.
    """
    from countquant import dsgen
    from countquant.numlex import load_default_lexicon

    policy = policy or dsgen.SeedPolicy()
    lexicon = lexicon or load_default_lexicon()
    upper_bound, selection = dsgen.select_subjects(store, documents, rel, policy)
    return dsgen.join_documents(
        dsgen.label_subject_document(
            text, kb_count, upper_bound, lexicon, policy, subject=subject, relation=rel
        )
        for subject, text, kb_count in selection
    )


# Punctuation that attaches to the preceding token when rendering text.
_NO_SPACE_BEFORE = {".", ",", "!", "?", ";", ":", ")", "]", "%", "'s", "n't"}
_NO_SPACE_AFTER = {"(", "["}


def detokenize(sentence) -> str:
    """Render a sentence back to text with conventional spacing."""
    parts: list[str] = []
    for tok in sentence:
        if parts and tok.surface not in _NO_SPACE_BEFORE and parts[-1] not in _NO_SPACE_AFTER:
            parts.append(" ")
        parts.append(tok.surface)
    return "".join(parts)
