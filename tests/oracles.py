"""Independent brute-force references for CRF inference, and test-side helpers.

The references enumerate all tag paths explicitly; they must stay free of the
dynamic-programming code they are used to check. ``reference_viterbi`` is the
numpy Viterbi that states the tie rule, which the library's float Viterbi
must match path for path. ``template_columns`` and ``lookup_ids`` are the
per-window string reference for the model's per-width feature lookup: every
window's n-grams, each looked up in its own window's table. The helpers
after them (``forward_backward``,
``log_partition``, ``random_model``, ``training_set``) call the library:
they are what the tests check, or build their inputs. ``detokenize`` renders
a sentence as text for the bit-exact rewrite checks. ``cardinal_renderings``
spells a number in English words by the schoolbook rules, for the number-word
grammar checks.
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


def reference_viterbi(emissions: np.ndarray, transitions: np.ndarray) -> list[int]:
    """Argmax tag-id path by numpy rows, the statement of the tie rule.

    ``argmax`` takes the first maximum, so ties break toward the lower tag
    id, both among predecessors and at the last position.
    """
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


def template_columns(sequence) -> list[list[str]]:
    """The ``"|"``-joined n-gram of every position, one column per window, in order.

    The sequence is padded with ``BOS``/``EOS`` once, and each width's
    n-grams are built once, by extending those one symbol narrower.
    """
    from countquant.crf.features import BOS, EOS, PAD, WINDOWS

    n = len(sequence)
    padded = [BOS] * PAD + list(sequence) + [EOS] * PAD
    by_width = [padded]  # by_width[w - 1][j] joins padded[j : j + w]
    for w in range(2, WINDOWS[-1][0] + 1):
        by_width.append(list(map("|".join, zip(by_width[-1], padded[w - 1 :]))))
    return [by_width[width - 1][PAD + start : PAD + start + n] for width, start in WINDOWS]


def lookup_ids(tables, columns, n: int, unseen: int) -> np.ndarray:
    """Feature ids of *n* positions, shape (n, len(tables)), in window order.

    ``tables[j]`` maps the n-grams of ``columns[j]`` to feature ids; an n-gram
    missing from its table gets the id *unseen*.
    """
    ids: list[int] = []
    for table, column in zip(tables, columns):
        ids += [table.get(gram, unseen) for gram in column]
    return np.array(ids, dtype=np.intp).reshape(len(tables), n).T


def forward_backward(emissions: np.ndarray, transitions: np.ndarray) -> tuple[np.ndarray, ...]:
    """Tag marginals ``mu``, expected transition counts ``xi`` and ``log_z``.

    One equal-length stack through the library's kernel. Emissions are
    (..., n >= 1, k), leading axes sentences. ``mu`` has their shape, ``xi``
    (k, k) sums over positions and sentences, ``log_z`` is per sentence.
    """
    from countquant.crf.model import forward_backward_stacks, time_major_layout

    *lead, n, k = emissions.shape
    stack = emissions.reshape(-1, n, k) if lead else emissions
    steps, carried, ((_, _, rows),) = time_major_layout([n] * (stack.size // (n * k)))
    rows = rows if lead else rows[:, 0]  # one sentence keeps its (n, k) shape
    mu, ((xi, log_z),) = forward_backward_stacks(
        stack.swapaxes(0, -2).reshape(-1, k), transitions, steps, carried, [(stack, rows)])
    return mu[rows].swapaxes(0, -2).reshape(emissions.shape), xi, log_z.reshape(lead)


def log_partition(emissions: np.ndarray, transitions: np.ndarray) -> float:
    """One sentence's log partition through the library's forward-backward kernel.

    This is the code under test, not an oracle: the brute-force reference is
    :func:`brute_force_log_partition`.
    """
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


_UNITS = ("", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten",
          "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen", "seventeen",
          "eighteen", "nineteen")
_TENS = ("", "", "twenty", "thirty", "forty", "fifty", "sixty", "seventy", "eighty", "ninety")


def _below_hundred(n: int) -> list[str]:
    """Words of 1 <= n <= 99: "seven", "fourteen", "forty", "forty two"."""
    if n < 20:
        return [_UNITS[n]]
    tens, unit = divmod(n, 10)
    return [_TENS[tens]] + ([_UNITS[unit]] if unit else [])


def _hundreds(head: int, rest: int) -> list[list[str]]:
    """``head`` hundred and ``rest`` (0-99), with and without "and" before *rest*."""
    words = _below_hundred(head) + ["hundred"]
    if not rest:
        return [words]
    return [words + _below_hundred(rest), words + ["and"] + _below_hundred(rest)]


def _below_thousand(n: int) -> list[list[str]]:
    """Each spelling of 1 <= n <= 999."""
    head, rest = divmod(n, 100)
    return _hundreds(head, rest) if head else [_below_hundred(n)]


def cardinal_renderings(n: int) -> list[list[str]]:
    """Each canonical English spelling of 1 <= n <= 999,999, as a word list.

    Every optional "and" (after "hundred", and after "thousand") is taken
    and left out; 1,100-9,999 are also spelled in hundreds ("eleven hundred
    and five", "ninety nine hundred").
    """
    thousands, rest = divmod(n, 1000)
    if not thousands:
        spellings = _below_thousand(n)
    else:
        spellings = []
        for head in _below_thousand(thousands):
            head = head + ["thousand"]
            if not rest:
                spellings.append(head)
                continue
            for tail in _below_thousand(rest):
                spellings += [head + tail, head + ["and"] + tail]
    if 1100 <= n <= 9999:
        spellings += _hundreds(*divmod(n, 100))
    return spellings
