from __future__ import annotations

import json
import logging
import pickle
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csr_matrix

from countquant.crf import (
    BOS,
    EOS,
    CrfModel,
    DegenerateTrainingError,
    ModelFormatError,
    TAGS,
    TrainingProblem,
    decode,
    load_model,
    marginals,
    save_model,
    train,
    viterbi,
)
from countquant.crf.features import PAD, WINDOW_NAMES, WINDOWS
from countquant.crf.model import log_backward, log_forward

from oracles import (
    assert_viterbi_optimal,
    brute_force_log_partition,
    brute_force_marginals,
    forward_backward,
    log_partition,
    lookup_ids,
    path_score,
    path_scores,
    random_model,
    random_sequence,
    reference_viterbi,
    template_columns,
    training_set,
)

VOCAB = ["CARDINAL", "child", "have", "x", "y"]

TOY_DATA = [
    (["trump", "have", "CARDINAL", "child", "from"], ["O", "O", "COUNT", "O", "O"]),
    (["she", "have", "CARDINAL", "child"], ["O", "O", "COUNT", "O"]),
    (["he", "wrote", "CARDINAL", "book"], ["O", "O", "O", "O"]),
]


class TestExtractFeatures:
    def test_centered_pentagram(self):
        seq = ["trump", "have", "CARDINAL", "child", "from"]
        assert "U5:trump|have|CARDINAL|child|from" in _reference_features(seq, 2)

    def test_boundary_symbols(self):
        first, last = _reference_features(["a", "b"], 0), _reference_features(["a", "b"], 1)
        assert first[:2] == ["U1:a", "U2[-1]:BOS|a"]
        assert first[WINDOW_NAMES.index("U5[-4]")] == "U5[-4]:BOS|BOS|BOS|BOS|a"
        assert last[WINDOW_NAMES.index("U5[0]")] == "U5[0]:b|EOS|EOS|EOS|EOS"

    def test_deterministic(self):
        seq = ["a", "b", "c"]
        assert template_columns(seq) == template_columns(seq)

    def test_default_template_set(self):
        """Every contiguous 1- to 5-gram that covers the position, each once, within the padding."""
        assert len(WINDOWS) == len(set(WINDOWS)) == 1 + 2 + 3 + 4 + 5
        assert {width for width, _ in WINDOWS} == {1, 2, 3, 4, 5}
        assert all(start <= 0 < start + width for width, start in WINDOWS)
        assert all(-PAD <= start and start + width - 1 <= PAD for width, start in WINDOWS)

    def test_default_template_names(self):
        assert list(WINDOW_NAMES) == [
            "U1", "U2[-1]", "U2[0]", "U3[-2]", "U3", "U3[0]", "U4[-3]", "U4[-2]",
            "U4[-1]", "U4[0]", "U5[-4]", "U5[-3]", "U5", "U5[-1]", "U5[0]",
        ]


def _reference_features(sequence, position):
    """Per-position feature strings, padding each offset on its own."""
    feats = []
    for name, (width, start) in zip(WINDOW_NAMES, WINDOWS):
        parts = []
        for off in range(start, start + width):
            j = position + off
            parts.append(BOS if j < 0 else EOS if j >= len(sequence) else sequence[j])
        feats.append(f"{name}:{'|'.join(parts)}")
    return feats


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(VOCAB + ["BOS", "a|b", "é"]), max_size=12))
def test_template_columns_equal_per_position_reference_property(sequence):
    columns = template_columns(sequence)
    rows = [[f"{name}:{col[pos]}" for name, col in zip(WINDOW_NAMES, columns)]
            for pos in range(len(sequence))]
    assert rows == [_reference_features(sequence, pos) for pos in range(len(sequence))]


def test_template_columns_are_the_unprefixed_features():
    seq = ["trump", "have", "CARDINAL", "child"]
    columns = template_columns(seq)
    assert len(columns) == len(WINDOWS) and all(len(col) == len(seq) for col in columns)
    assert [_reference_features(seq, pos) for pos in range(len(seq))] == [
        [f"{name}:{col[pos]}" for name, col in zip(WINDOW_NAMES, columns)]
        for pos in range(len(seq))
    ]
    assert template_columns([]) == [[] for _ in WINDOWS]


def _feature_strings(gram_ids):
    """Feature id of every ``"<window name>:<n-gram>"`` string of the tables."""
    return {f"{name}:{gram}": fid
            for name, table in zip(WINDOW_NAMES, gram_ids) for gram, fid in table.items()}


def _reference_emissions(model, sequence):
    """Emissions summed position by position over the known feature strings."""
    index = _feature_strings(model.gram_ids)
    em = np.zeros((len(sequence), len(TAGS)))
    for pos in range(len(sequence)):
        row = _reference_features(sequence, pos)
        ids = np.asarray([index[f] for f in row if f in index], dtype=np.intp)
        if ids.size:
            em[pos] = model.weights[ids].sum(axis=0)
    return em


_symbols = st.sampled_from(VOCAB + ["a|b", "x:y", ":", "|", "BOS", "EOS", "é"])


@settings(max_examples=200, deadline=None)
@given(
    training=st.lists(st.lists(_symbols, min_size=1, max_size=8), max_size=5),
    sequences=st.lists(
        st.lists(st.one_of(_symbols, st.sampled_from(["unseen", "y:z|w"])), max_size=12),
        max_size=4,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_emissions_equal_per_position_reference_property(training, sequences, seed):
    rng = np.random.default_rng(seed)
    seen = dict.fromkeys(
        f
        for seq in training
        for pos in range(len(seq))
        for f in _reference_features(seq, pos)
    )
    # a random subset of the seen features, numbered in random order
    kept = [f for f in seen if rng.random() < 0.7]
    tables: dict[str, dict[str, int]] = {name: {} for name in WINDOW_NAMES}
    for fid, feature in enumerate(rng.permutation(kept).tolist()):
        name, _, gram = feature.partition(":")
        tables[name][gram] = fid
    # mixed magnitudes make the sums sensitive to their order
    weights = rng.normal(size=(len(kept), 3)) * 10.0 ** rng.integers(-6, 7, size=(len(kept), 1))
    model = CrfModel(
        gram_ids=tuple(tables.values()),
        weights=weights,
        transitions=rng.normal(size=(3, 3)),
    )
    for seq in sequences + [[]]:
        ids = model.feature_ids(seq)
        assert ids.shape == (len(seq), len(WINDOWS)) and ids.dtype == np.intp
        em = model.emissions(seq)
        assert em.shape == (len(seq), 3) and em.dtype == np.float64
        assert np.array_equal(em, _reference_emissions(model, seq))


# Symbols that join ambiguously ("|", "a|b", ""), that are the padding
# symbols themselves, or that no table holds.
_LOOKUP_POOL = ["|", "a|b", "", "BOS", "EOS", "a", "b", "b|", "unseen", "BOS|a"]


def _random_tables(rng, training):
    """Window tables over a random subset of the training n-grams, ids in random order.

    An n-gram that several windows of its width see is kept in some of them only.
    """
    seen = dict.fromkeys((t, gram) for seq in training
                         for t, column in enumerate(template_columns(seq)) for gram in column)
    kept = [key for key in seen if rng.random() < 0.6]
    tables = tuple({} for _ in WINDOWS)
    for fid, i in enumerate(rng.permutation(len(kept)).tolist()):
        t, gram = kept[i]
        tables[t][gram] = fid
    return tables, len(kept)


def _assert_lookup_equals_reference(tables, n_features, sequences):
    """feature_ids equals the per-window lookup, as built, unpickled and reloaded."""
    model = CrfModel(gram_ids=tables, weights=np.zeros((n_features, 3)),
                     transitions=np.zeros((3, 3)))
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, Path(tmp) / "model.json")
        loaded = load_model(Path(tmp) / "model.json")
    for m in (model, pickle.loads(pickle.dumps(model)), loaded):
        for seq in sequences:
            expected = lookup_ids(tables, template_columns(seq), len(seq), n_features)
            got = m.feature_ids(seq)
            assert got.dtype == np.intp and got.shape == (len(seq), len(WINDOWS))
            assert np.array_equal(got, expected)


@settings(max_examples=150, deadline=None)
@given(
    training=st.lists(st.lists(st.sampled_from(_LOOKUP_POOL[:-2]), min_size=1, max_size=10),
                      max_size=6),
    sequences=st.lists(st.lists(st.sampled_from(_LOOKUP_POOL), max_size=40), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_width_lookup_equals_per_window_reference_property(training, sequences, seed):
    tables, n_features = _random_tables(np.random.default_rng(seed), training)
    _assert_lookup_equals_reference(tables, n_features, sequences + [[]] + training[:2])


def test_per_width_lookup_of_a_long_sentence():
    rng = np.random.default_rng(3)
    words = [_LOOKUP_POOL[i] for i in rng.integers(0, len(_LOOKUP_POOL) - 2, size=300)]
    tables, n_features = _random_tables(rng, [words])
    sequence = [_LOOKUP_POOL[i] for i in rng.integers(0, len(_LOOKUP_POOL), size=2000)]
    _assert_lookup_equals_reference(tables, n_features, [sequence])


def test_feature_index_order_on_mini_fixture():
    """TrainingProblem numbers features in first-seen order among those above the cutoff."""
    from countquant.dsgen import load_corpus
    from countquant.kbstore import Relation, load_triples

    mini = Path(__file__).parent / "data" / "mini"
    labeled, _ = training_set(
        load_triples(mini / "kb.tsv"),
        load_corpus(mini / "corpus.jsonl"),
        Relation(subject_class="human", property="child"),
    )
    examples = [(list(ls.placeholder_sequence()), list(ls.tags)) for ls in labeled]
    seen = [
        f
        for seq, _ in examples
        for pos in range(len(seq))
        for f in _reference_features(seq, pos)
    ]
    counts = Counter(seen)
    expected = list(dict.fromkeys(f for f in seen if counts[f] >= 2))
    problem = TrainingProblem(examples, feature_cutoff=2)
    assert problem.n_features == len(expected)
    assert _feature_strings(problem.gram_ids) == {
        f: i for i, f in enumerate(expected)
    }


@settings(max_examples=100, deadline=None)
@given(
    training=st.lists(st.lists(_symbols, min_size=1, max_size=8), min_size=1, max_size=6),
    cutoff=st.integers(1, 3),
)
def test_training_rows_equal_inference_ids_property(training, cutoff):
    """Each sentence's row of X holds the ids model.feature_ids gives it, unseen ones dropped."""
    data = [(seq, ["COUNT"] + ["O"] * (len(seq) - 1)) for seq in training]
    problem = TrainingProblem(data, feature_cutoff=cutoff)
    model = CrfModel(
        gram_ids=problem.gram_ids,
        weights=np.zeros((problem.n_features, len(TAGS))),
        transitions=np.zeros((len(TAGS), len(TAGS))),
    )
    X = problem.X
    for bucket in problem.buckets:
        members = [seq for seq in training if len(seq) == bucket.length]
        for b, seq in enumerate(members):
            ids = model.feature_ids(seq)
            for p, row in enumerate(ids):
                r = bucket.rows.start + b * bucket.length + p
                got = X.indices[X.indptr[r]:X.indptr[r + 1]]
                assert np.array_equal(got, row[row != problem.n_features])


def _string_path_problem(examples, cutoff):
    """The string-keyed compile of the training problem: the reference for the integer pass.

    ``template_columns`` -> one ``Counter`` per window -> ids by
    ``lookup_ids`` and the ``argwhere`` misses, in first-occurrence order ->
    rows bucket by bucket -> CSR. Returns the tables, the feature count, X,
    the buckets' (length, y, rows) and the empirical counts.
    """
    counts = [Counter() for _ in WINDOWS]
    columns = [template_columns(seq) for seq, _ in examples]
    for cols in columns:
        for counter, col in zip(counts, cols):
            counter.update(col)
    gram_ids = tuple({} for _ in WINDOWS)
    n_features = 0
    sentence_ids = []
    for (seq, _), cols in zip(examples, columns):
        ids = lookup_ids(gram_ids, cols, len(seq), -1)
        for p, j in np.argwhere(ids < 0).tolist():
            gram, table = cols[j][p], gram_ids[j]
            if gram not in table and counts[j][gram] >= cutoff:
                table[gram] = n_features
                n_features += 1
            ids[p, j] = table.get(gram, -1)
        sentence_ids.append(ids)
    k = len(TAGS)
    by_length = {}
    for i, (seq, _) in enumerate(examples):
        by_length.setdefault(len(seq), []).append(i)
    buckets, emp_t, start = [], np.zeros((k, k)), 0
    for length in sorted(by_length):
        y = np.array([[TAGS.index(t) for t in examples[i][1]] for i in by_length[length]],
                     dtype=np.intp)
        buckets.append((length, y, slice(start, start + y.size)))
        start += y.size
        np.add.at(emp_t, (y[:, :-1].ravel(), y[:, 1:].ravel()), 1.0)
    ids = np.concatenate([sentence_ids[i] for n in sorted(by_length) for i in by_length[n]])
    kept = ids >= 0
    indptr = np.concatenate([[0], np.cumsum(kept.sum(axis=1))])
    X = csr_matrix((np.ones(indptr[-1]), ids[kept], indptr), shape=(len(ids), n_features))
    all_tags = np.concatenate([y.ravel() for _, y, _ in buckets])
    return gram_ids, n_features, X, buckets, X.T @ np.eye(k)[all_tags], emp_t


def _assert_problem_equals_string_path(examples, cutoff):
    problem = TrainingProblem(examples, feature_cutoff=cutoff)
    gram_ids, n_features, X, buckets, emp_w, emp_t = _string_path_problem(examples, cutoff)
    assert [list(t.items()) for t in problem.gram_ids] == [list(t.items()) for t in gram_ids]
    assert problem.n_features == n_features
    assert problem.X.shape == X.shape
    for got, want in ((problem.X.indices, X.indices), (problem.X.indptr, X.indptr),
                      (problem.X.data, X.data)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert [(b.length, b.y.tolist(), b.rows) for b in problem.buckets] == [
        (length, y.tolist(), rows) for length, y, rows in buckets
    ]
    assert np.array_equal(problem._emp_w, emp_w) and np.array_equal(problem._emp_t, emp_t)
    return problem


def _join_sentences(with_bars):
    """Training sentences over symbols whose "|"-joined windows can coincide.

    Without bars, only a literal ``BOS``/``EOS`` can match the padding. With
    bars, two more sentences hold a pair of windows that join alike:
    ("a|b", "c") and ("a", "b|c"), or ("", "|") and ("|", "").
    """
    symbols = [":", "a", "b", "c", "BOS", "EOS", ""] + (["|", "a|b", "b|c"] if with_bars else [])
    sentences = st.lists(st.lists(st.sampled_from(symbols), min_size=1, max_size=7),
                         min_size=1, max_size=6)
    if not with_bars:
        return sentences
    pairs = st.sampled_from([[["a|b", "c"], ["a", "b|c"]], [["", "|"], ["|", ""]]])
    return st.tuples(sentences, pairs).map(lambda drawn: drawn[0] + drawn[1])


@settings(max_examples=300, deadline=None)
@given(
    training=st.booleans().flatmap(_join_sentences),
    cutoff=st.integers(0, 3),
    data=st.data(),
)
def test_training_problem_equals_string_path_property(training, cutoff, data):
    """The integer-coded compile gives the string path's tables, X, buckets and counts."""
    examples = [
        (seq, data.draw(st.lists(st.sampled_from(TAGS), min_size=len(seq), max_size=len(seq))))
        for seq in training
    ]
    examples[0][1][0] = "COUNT"
    _assert_problem_equals_string_path(examples, cutoff)


def test_training_problem_merges_windows_that_join_alike(tmp_path):
    """A feature is its joined string: windows that join to one string are one feature."""
    u2 = WINDOW_NAMES.index("U2[0]")
    cases = [
        ([(["a|b", "c"], ["COUNT", "O"]), (["a", "b|c"], ["O", "O"])], "a|b|c"),
        ([(["", "|"], ["COUNT", "O"]), (["|", ""], ["O", "O"])], "||"),
    ]
    for examples, gram in cases:
        problem = _assert_problem_equals_string_path(examples, 2)
        assert list(problem.gram_ids[u2]) == [gram]
        model = train(examples, feature_cutoff=2, max_iter=5)
        save_model(model, tmp_path / "model.json")
        assert load_model(tmp_path / "model.json").gram_ids == problem.gram_ids


class TestGradient:
    def test_matches_central_differences(self):
        problem = TrainingProblem(TOY_DATA, l2_sigma=0.5, feature_cutoff=1)
        rng = np.random.default_rng(42)
        h = 1e-5
        worst = 0.0
        for _ in range(5):
            theta = rng.normal(scale=0.5, size=problem.n_params)
            _, grad = problem.value_and_grad(theta)
            fd = np.empty_like(grad)
            for i in range(len(theta)):
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (problem.value_and_grad(up)[0] - problem.value_and_grad(down)[0]) / (2 * h)
            rel = np.abs(grad - fd) / np.maximum(1.0, np.maximum(np.abs(grad), np.abs(fd)))
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4

    def test_gradient_zero_at_optimum_direction(self):
        # after training, the gradient norm should be tiny at the solution
        problem = TrainingProblem(TOY_DATA, l2_sigma=1.0, feature_cutoff=1)
        model = train(TOY_DATA, l2_sigma=1.0, feature_cutoff=1, max_iter=200)
        theta = np.concatenate([model.weights.ravel(), model.transitions.ravel()])
        _, grad = problem.value_and_grad(theta)
        assert np.abs(grad).max() < 1e-3


def _scatter_value_and_grad(problem, examples, theta):
    """The objective and gradient summed by np.add.at scatters over feature ids.

    Length buckets in increasing order, sentences in input order, features in
    template order: the summation order every evaluation must reproduce bit
    for bit.
    """
    w, trans = problem.split(theta)
    k = len(TAGS)
    index = _feature_strings(problem.gram_ids)
    emp_w, exp_w = np.zeros_like(w), np.zeros_like(w)
    emp_t, exp_t = np.zeros_like(trans), np.zeros_like(trans)
    ll = 0.0
    for n in sorted({len(seq) for seq, _ in examples}):
        members = [(seq, tags) for seq, tags in examples if len(seq) == n]
        y = np.array([[TAGS.index(t) for t in tags] for _, tags in members])
        fids, sent, pos = [], [], []
        for b, (seq, _) in enumerate(members):
            for p in range(len(seq)):
                for f in _reference_features(seq, p):
                    if f in index:
                        fids.append(index[f])
                        sent.append(b)
                        pos.append(p)
        fids, sent, pos = (np.asarray(a, dtype=np.intp) for a in (fids, sent, pos))
        np.add.at(emp_w, (fids, y[sent, pos]), 1.0)
        np.add.at(emp_t, (y[:, :-1].ravel(), y[:, 1:].ravel()), 1.0)
        em = np.zeros((len(members), n, k))
        np.add.at(em, (sent, pos), w[fids])
        mu, xi, log_z = forward_backward(em, trans)
        score = em[np.arange(len(members))[:, None], np.arange(n)[None, :], y].sum(axis=1)
        if n > 1:
            score = score + trans[y[:, :-1], y[:, 1:]].sum(axis=1)
        ll += float((score - log_z).sum())
        np.add.at(exp_w, fids, mu[sent, pos])
        exp_t += xi
    value = -(ll - 0.5 * problem.l2_sigma * float(np.square(theta).sum()))
    grad = np.concatenate([-(emp_w - exp_w).ravel(), -(emp_t - exp_t).ravel()])
    return value, grad + problem.l2_sigma * theta


def _varied_lengths_data(seed=5, n_sentences=40):
    """Random tagged sentences of lengths 1 to 9; about half hold a COUNT tag."""
    rng = np.random.default_rng(seed)
    words = VOCAB + ["trump", "she", "he", "wrote", "book", "from"]
    data = []
    for _ in range(n_sentences):
        n = int(rng.integers(1, 10))
        seq = [words[j] for j in rng.integers(0, len(words), size=n)]
        tags = [TAGS[j] for j in rng.integers(1, 3, size=n)]
        if rng.random() < 0.5:
            tags[int(rng.integers(0, n))] = "COUNT"
        data.append((seq, tags))
    return data


class TestSummationOrder:
    """The compiled training problem sums exactly as the scatter reference."""

    @pytest.mark.parametrize("cutoff", [1, 2, 3])
    def test_bitwise_equal_to_scatter_reference(self, cutoff):
        data = _varied_lengths_data()
        assert {1, 2, 3, 4} <= {len(seq) for seq, _ in data}
        problem = TrainingProblem(data, l2_sigma=0.5, feature_cutoff=cutoff)
        assert len(problem.buckets) >= 4 and problem.n_features > 0
        rng = np.random.default_rng(cutoff)
        for _ in range(3):
            theta = rng.normal(scale=0.5, size=problem.n_params)
            value, grad = problem.value_and_grad(theta)
            ref_value, ref_grad = _scatter_value_and_grad(problem, data, theta)
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)

    def test_cutoff_above_every_count_leaves_transitions_only(self, tmp_path):
        data = _varied_lengths_data()
        problem = TrainingProblem(data, feature_cutoff=10**6)
        assert problem.n_features == 0
        assert problem.n_params == len(TAGS) ** 2
        rng = np.random.default_rng(0)
        for theta in (np.zeros(problem.n_params), rng.normal(size=problem.n_params)):
            value, grad = problem.value_and_grad(theta)
            ref_value, ref_grad = _scatter_value_and_grad(problem, data, theta)
            assert value == ref_value and np.array_equal(grad, ref_grad)
            grad_w, grad_t = problem.split(grad)
            assert grad_w.shape == (0, len(TAGS))
            assert np.any(grad_t != 0)
        model = train(data, feature_cutoff=10**6, max_iter=50)
        assert model.weights.shape == (0, len(TAGS))
        assert np.any(model.transitions != 0)
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        assert loaded.weights.shape == (0, len(TAGS))
        assert np.array_equal(loaded.transitions, model.transitions)
        seq = ["she", "have", "CARDINAL", "child"]
        assert decode(loaded, seq) == decode(model, seq)


@st.composite
def _bucketed_data(draw):
    """Tagged sentences in length buckets of many sizes, in shuffled input order.

    A length-1 bucket and a one-sentence bucket longer than 8 tokens are each
    drawn half the time; the first sentence holds a COUNT tag.
    """
    lengths = draw(st.lists(st.integers(1, 14), min_size=1, max_size=6, unique=True))
    buckets = [(n, draw(st.integers(1, 5))) for n in lengths]
    if draw(st.booleans()):
        buckets.append((1, draw(st.integers(1, 5))))
    if draw(st.booleans()):
        buckets.append((draw(st.integers(9, 16)), 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = VOCAB + ["trump", "she", "he", "wrote", "book", "from"]
    data = []
    for n, size in buckets:
        for _ in range(size):
            tags = [TAGS[j] for j in rng.integers(1, 3, size=n)]
            if rng.random() < 0.5:
                tags[int(rng.integers(0, n))] = "COUNT"
            data.append(([words[j] for j in rng.integers(0, len(words), size=n)], tags))
    data = [data[i] for i in rng.permutation(len(data))]
    data[0][1][0] = "COUNT"
    return data


class TestMergedRecursion:
    """One recursion over every length agrees with one kernel call per length bucket."""

    @settings(max_examples=60, deadline=None)
    @given(data=_bucketed_data(),
           scale=st.sampled_from([0.0, 1.0, 100.0, 150.0, 200.0, 300.0, 3000.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_merged_equals_per_bucket_calls_property(self, data, scale, seed):
        problem = TrainingProblem(data, l2_sigma=0.5, feature_cutoff=1)
        theta = np.random.default_rng(seed).normal(scale=scale, size=problem.n_params)
        value, grad = problem.value_and_grad(theta)
        ref_value, ref_grad = _scatter_value_and_grad(problem, data, theta)
        if all(len(bucket.y) > 1 for bucket in problem.buckets):
            # No bucket and no step holds a single sentence, so no product is one row.
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)
        else:
            # A one-row product may round unlike the same row of a many-row one.
            assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
            assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()

    def test_log_space_once_per_falling_back_bucket(self, monkeypatch):
        data = _varied_lengths_data()
        problem = TrainingProblem(data, l2_sigma=0.5, feature_cutoff=1)
        theta = np.random.default_rng(2).normal(scale=200.0, size=problem.n_params)
        calls = []

        def counting_forward(emissions, transitions):
            calls.append(emissions.shape)
            return log_forward(emissions, transitions)

        monkeypatch.setattr("countquant.crf.model.log_forward", counting_forward)
        value, grad = problem.value_and_grad(theta)
        merged, calls[:] = list(calls), []
        ref_value, ref_grad = _scatter_value_and_grad(problem, data, theta)
        assert 0 < len(merged) < len(problem.buckets)
        assert merged == calls  # the same buckets, in increasing length
        assert value == ref_value and np.array_equal(grad, ref_grad)


class TestTrain:
    def test_history_costs_no_extra_evaluation(self, monkeypatch):
        calls = []
        original = TrainingProblem.value_and_grad

        def counting(self, theta):
            calls.append(1)
            return original(self, theta)

        monkeypatch.setattr(TrainingProblem, "value_and_grad", counting)
        plain = train(TOY_DATA, feature_cutoff=1, max_iter=50)
        plain_calls = len(calls)
        calls.clear()
        history: list[float] = []
        traced = train(TOY_DATA, feature_cutoff=1, max_iter=50, history=history)
        assert len(calls) == plain_calls
        assert len(history) == traced.n_iterations
        assert history[-1] == traced.final_objective
        assert np.array_equal(plain.weights, traced.weights)

    def test_objective_ascends(self):
        history: list[float] = []
        train(TOY_DATA[:2], feature_cutoff=1, max_iter=50, history=history)
        assert len(history) >= 2
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
        assert history[-1] > history[0]

    def test_all_negative_refused(self):
        data = [(["a", "b"], ["O", "O"]), (["c"], ["O"])]
        with pytest.raises(DegenerateTrainingError):
            train(data, feature_cutoff=1)

    def test_empty_refused(self):
        with pytest.raises(ValueError):
            train([], feature_cutoff=1)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_l2_sigma_refused(self, sigma):
        with pytest.raises(ValueError, match="l2_sigma must be a positive finite number"):
            TrainingProblem(TOY_DATA, l2_sigma=sigma, feature_cutoff=1)

    def test_feature_cutoff_drops_singletons(self):
        problem = TrainingProblem(TOY_DATA, feature_cutoff=2)
        index = _feature_strings(problem.gram_ids)
        # "U1:trump" appears once over the corpus and must be gone
        assert "U1:trump" not in index
        assert "U1:CARDINAL" in index  # appears three times

    def test_stronger_penalty_shrinks_weights(self):
        norms = []
        for sigma in (0.1, 1.0, 10.0):
            model = train(TOY_DATA, l2_sigma=sigma, feature_cutoff=1, max_iter=200)
            norms.append(float(np.linalg.norm(
                np.concatenate([model.weights.ravel(), model.transitions.ravel()])
            )))
        assert norms[0] >= norms[1] >= norms[2]

    def test_warns_when_lbfgs_does_not_converge(self, caplog):
        with caplog.at_level(logging.WARNING, logger="countquant.crf.train"):
            train(TOY_DATA, feature_cutoff=1, max_iter=1)
        (record,) = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert "without converging after 1 iterations" in record.getMessage()
        assert "ITERATIONS REACHED LIMIT" in record.getMessage()

    def test_converged_fit_does_not_warn(self, caplog):
        with caplog.at_level(logging.WARNING, logger="countquant.crf.train"):
            model = train(TOY_DATA, feature_cutoff=1, max_iter=200)
        assert model.n_iterations < 200
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_learns_toy_pattern(self):
        model = train(TOY_DATA, feature_cutoff=1, max_iter=200)
        assert decode(model, ["she", "have", "CARDINAL", "child"]) == ["O", "O", "COUNT", "O"]
        assert decode(model, ["he", "wrote", "CARDINAL", "book"]) == ["O", "O", "O", "O"]


class TestDecode:
    def test_matches_exhaustive_argmax(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            model = random_model(rng, VOCAB)
            for length in (1, 2, 4, 8):
                seq = random_sequence(rng, VOCAB, length)
                em = model.emissions(seq)
                assert_viterbi_optimal(
                    em, model.transitions, viterbi(em, model.transitions)
                )

    def test_empty_sequence(self):
        rng = np.random.default_rng(0)
        model = random_model(rng, VOCAB)
        assert decode(model, []) == []

    def test_viterbi_beats_sampled_paths(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, VOCAB)
        seq = random_sequence(rng, VOCAB, 9)
        em = model.emissions(seq)
        best = viterbi(em, model.transitions)
        best_score = path_score(em, model.transitions, best)
        for _ in range(200):
            other = list(rng.integers(0, 3, size=len(seq)))
            assert best_score >= path_score(em, model.transitions, other) - 1e-12

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 12), integral=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_float_viterbi_equals_reference_property(self, n, integral, seed):
        rng = np.random.default_rng(seed)
        if integral:  # small integers: exact ties among predecessors and at the end
            em = rng.integers(-2, 3, size=(n, 3)).astype(float)
            trans = rng.integers(-2, 3, size=(3, 3)).astype(float)
        else:
            em, trans = rng.normal(scale=3.0, size=(n, 3)), rng.normal(scale=3.0, size=(3, 3))
        assert viterbi(em, trans) == reference_viterbi(em, trans)


@st.composite
def _documents(draw):
    """Sentence lengths of a document: 0 to 8 sentences, lengths 0 to 20, often repeated."""
    pool = draw(st.lists(st.integers(0, 20), min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), max_size=8))


class TestMarginals:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, VOCAB, scale=2.0)
        for length in (1, 3, 6, 10):
            seq = random_sequence(rng, VOCAB, length)
            probs = marginals(model, [seq])[0]
            assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_matches_exhaustive_path_sums(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            model = random_model(rng, VOCAB)
            for length in (1, 2, 4, 6):
                seq = random_sequence(rng, VOCAB, length)
                em = model.emissions(seq)
                expected = brute_force_marginals(em, model.transitions)
                got = marginals(model, [seq])[0]
                assert np.abs(got - expected).max() < 1e-8

    @pytest.mark.parametrize("length", [1, 2, 4, 6])
    def test_stacked_kernel_matches_brute_force_and_single_calls(self, length):
        rng = np.random.default_rng(19 + length)
        model = random_model(rng, VOCAB)
        trans = model.transitions
        stack = np.stack([
            model.emissions(random_sequence(rng, VOCAB, length)) for _ in range(6)
        ])
        alpha, beta = log_forward(stack, trans), log_backward(stack, trans)
        assert alpha.shape == beta.shape == stack.shape == (6, length, 3)
        for em, a, b in zip(stack, alpha, beta):
            assert np.array_equal(a, log_forward(em, trans))
            assert np.array_equal(b, log_backward(em, trans))
            log_z = brute_force_log_partition(em, trans)
            assert abs(np.logaddexp.reduce(a[-1]) - log_z) < 1e-8
            assert abs(np.logaddexp.reduce(a[0] + b[0]) - log_z) < 1e-8
            assert np.abs(np.exp(a + b - log_z) - brute_force_marginals(em, trans)).max() < 1e-8
        # any number of leading axes
        grid = stack.reshape(2, 3, length, 3)
        assert np.array_equal(log_forward(grid, trans), alpha.reshape(grid.shape))
        assert np.array_equal(log_backward(grid, trans), beta.reshape(grid.shape))

    @staticmethod
    def _brute_force_transition_counts(em, trans):
        """Pairwise tag marginals summed over positions, by path enumeration."""
        paths, scores = path_scores(em, trans)
        weights = np.exp(scores - scores.max())
        weights /= weights.sum()
        counts = np.zeros_like(trans)
        for t in range(len(em) - 1):
            np.add.at(counts, (paths[:, t], paths[:, t + 1]), weights)
        return counts

    @pytest.mark.parametrize("length", [1, 2, 4, 6])
    def test_forward_backward_matches_brute_force_and_single_calls(self, length):
        rng = np.random.default_rng(29 + length)
        model = random_model(rng, VOCAB, scale=2.0)
        trans = model.transitions
        stack = np.stack([
            model.emissions(random_sequence(rng, VOCAB, length)) for _ in range(6)
        ])
        mu, xi, log_z = forward_backward(stack, trans)
        assert mu.shape == stack.shape and xi.shape == (3, 3) and log_z.shape == (6,)
        total = np.zeros((3, 3))
        for em, row_mu, row_log_z in zip(stack, mu, log_z):
            one_mu, one_xi, one_log_z = forward_backward(em, trans)
            counts = self._brute_force_transition_counts(em, trans)
            assert abs(one_log_z - brute_force_log_partition(em, trans)) < 1e-8
            assert np.abs(one_mu - brute_force_marginals(em, trans)).max() < 1e-8
            assert np.abs(one_xi - counts).max() < 1e-8
            # A stack's matmuls need not round as one sentence's do.
            assert np.abs(row_mu - one_mu).max() < 1e-12
            assert abs(row_log_z - one_log_z) < 1e-12
            total += counts
        assert np.abs(xi - total).max() < 1e-8

    def test_extreme_scores_fall_back_to_log_space(self, monkeypatch):
        # Every transition out of tag 0 lies 1400 below the largest one, so
        # the scaled step after a position that must be tag 0 sums to 0.
        em = np.array([[700.0, -700.0, -700.0], [-700.0, 700.0, 0.0], [0.0, -700.0, 700.0]])
        trans = np.array([[-700.0, -700.0, -700.0], [700.0, 0.0, -700.0], [0.0, 700.0, -700.0]])
        calls = []

        def counting_forward(emissions, transitions):
            calls.append(emissions.shape)
            return log_forward(emissions, transitions)

        monkeypatch.setattr("countquant.crf.model.log_forward", counting_forward)
        stack = np.stack([em, em[::-1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [forward_backward(em, trans), forward_backward(stack, trans)]
        assert calls == [em.shape, stack.shape]
        (mu, xi, log_z), (stack_mu, stack_xi, stack_log_z) = results
        assert abs(log_z - brute_force_log_partition(em, trans)) < 1e-8
        assert np.abs(mu - brute_force_marginals(em, trans)).max() < 1e-8
        assert np.abs(xi - self._brute_force_transition_counts(em, trans)).max() < 1e-8
        for one, got_mu, got_log_z in zip(stack, stack_mu, stack_log_z):
            assert abs(got_log_z - brute_force_log_partition(one, trans)) < 1e-8
            assert np.abs(got_mu - brute_force_marginals(one, trans)).max() < 1e-8
        expected = sum(self._brute_force_transition_counts(one, trans) for one in stack)
        assert np.abs(stack_xi - expected).max() < 1e-8

    @settings(max_examples=100, deadline=None)
    @given(lengths=_documents(), scale=st.sampled_from([0.5, 1.0, 3.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_document_equals_one_sentence_calls_property(self, lengths, scale, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, VOCAB, scale=scale)
        sequences = [random_sequence(rng, VOCAB, n) for n in lengths]
        probs = marginals(model, sequences)
        assert [p.shape for p in probs] == [(n, len(TAGS)) for n in lengths]
        for seq, got in zip(sequences, probs):
            if seq:
                # A stack's matmuls need not round as one sentence's do.
                one = forward_backward(model.emissions(seq), model.transitions)[0]
                assert np.abs(got - one).max() <= 1e-12

    def test_document_stack_falls_back_to_log_space(self, monkeypatch):
        # "a b c" is the extreme sentence of the test above: the length-3
        # stack it shares with "d d d" is redone in log space, alone.
        em = np.array([[700.0, -700.0, -700.0], [-700.0, 700.0, 0.0], [0.0, -700.0, 700.0]])
        trans = np.array([[-700.0, -700.0, -700.0], [700.0, 0.0, -700.0], [0.0, 700.0, -700.0]])
        model = CrfModel(
            gram_ids=({"a": 0, "b": 1, "c": 2, "d": 3},) + ({},) * (len(WINDOWS) - 1),
            weights=np.concatenate([em, np.zeros((1, 3))]),
            transitions=trans,
        )
        calls = []

        def counting_forward(emissions, transitions):
            calls.append(emissions.shape)
            return log_forward(emissions, transitions)

        monkeypatch.setattr("countquant.crf.model.log_forward", counting_forward)
        sequences = [["d", "d"], ["a", "b", "c"], [], ["d", "d", "d"], ["d"]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = marginals(model, sequences)
        assert calls == [(2, 3, 3)]
        assert probs[2].shape == (0, 3)
        for seq, got in zip(sequences, probs):
            if seq:
                one = model.emissions(seq)
                assert np.abs(got - brute_force_marginals(one, trans)).max() < 1e-8
                assert np.abs(got - forward_backward(one, trans)[0]).max() <= 1e-12

    @staticmethod
    def _inference_and_statistics_runs(model, sequences):
        """The kernel call of ``marginals``, as it runs and again computing the statistics.

        Returns, inference first, each run's marginals, statistics and the
        emissions shape of each ``log_forward`` call (no runs for a document
        without words), and the number of stacks.
        """
        import countquant.crf.model as crf_model

        kernel, calls, runs = crf_model.forward_backward_stacks, [], []

        def counting_forward(emissions, transitions):
            calls.append(emissions.shape)
            return log_forward(emissions, transitions)

        def both_runs(*args, **kwargs):
            assert kwargs == {"statistics": False}
            for statistics in (False, True):
                calls.clear()
                mu, stats = kernel(*args, statistics=statistics)
                runs.append((mu, stats, list(calls)))
            return runs[0][:2]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(crf_model, "log_forward", counting_forward)
            patch.setattr(crf_model, "forward_backward_stacks", both_runs)
            marginals(model, sequences)
        return runs, len({len(seq) for seq in sequences if seq})

    @settings(max_examples=80, deadline=None)
    @given(lengths=_documents(), scale=st.sampled_from([0.5, 3.0, 200.0, 300.0, 1000.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_inference_skips_only_the_statistics_property(self, lengths, scale, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, VOCAB, scale=scale)
        sequences = [random_sequence(rng, VOCAB, n) for n in lengths]
        runs, stacks = self._inference_and_statistics_runs(model, sequences)
        if not stacks:
            assert runs == []
            return
        (mu, stats, calls), (full_mu, full_stats, full_calls) = runs
        assert np.array_equal(mu, full_mu)
        assert stats == [] and len(full_stats) == stacks
        assert calls == full_calls  # the same stacks redone, in the same order

    def test_inference_falls_back_on_the_same_stacks(self):
        """Where some length stacks of a document fall back to log space but not all."""
        data = _varied_lengths_data()
        problem = TrainingProblem(data, l2_sigma=0.5, feature_cutoff=1)
        w, trans = problem.split(np.random.default_rng(2).normal(scale=200.0,
                                                                 size=problem.n_params))
        model = CrfModel(gram_ids=problem.gram_ids, weights=w.copy(), transitions=trans.copy())
        runs, stacks = self._inference_and_statistics_runs(model, [seq for seq, _ in data])
        (mu, stats, calls), (full_mu, _, full_calls) = runs
        assert 0 < len(calls) < stacks
        assert calls == full_calls and stats == []
        assert np.array_equal(mu, full_mu)

    def test_uniform_model_gives_thirds(self):
        model = CrfModel(
            gram_ids=({"a": 0},) + ({},) * (len(WINDOWS) - 1),
            weights=np.zeros((1, 3)),
            transitions=np.zeros((3, 3)),
        )
        probs = marginals(model, [["a", "a", "a"]])[0]
        assert np.abs(probs - 1.0 / 3.0).max() < 1e-12

    def test_log_partition_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            model = random_model(rng, VOCAB)
            seq = random_sequence(rng, VOCAB, 6)
            em = model.emissions(seq)
            assert abs(
                log_partition(em, model.transitions)
                - brute_force_log_partition(em, model.transitions)
            ) < 1e-8


def test_decode_document_equals_per_sentence_calls_on_mini_fixture(lexicon):
    """One recursion per document tags and scores as one decode and marginals per sentence."""
    from countquant.dsgen import COUNT, load_corpus
    from countquant.kbstore import Relation, load_triples
    from countquant.numlex import (
        INFERENCE_MODE, preprocess_sentence, to_placeholder_sequence, tokenize,
    )
    from countquant.pipeline import decode_document

    mini = Path(__file__).parent / "data" / "mini"
    corpus = load_corpus(mini / "corpus.jsonl")
    labeled, _ = training_set(load_triples(mini / "kb.tsv"), corpus,
                              Relation(subject_class="human", property="child"))
    model = train(labeled, max_iter=50)
    decoded = 0
    for zero_mode in (False, True):
        for text in corpus.values():
            expected = []
            for raw in tokenize(text):
                sentence = preprocess_sentence(raw, lexicon, mode=INFERENCE_MODE,
                                               zero_mode=zero_mode)
                if sentence.mentions:
                    seq = to_placeholder_sequence(sentence)
                    probs = marginals(model, [seq])[0][:, TAGS.index(COUNT)]
                    expected.append((sentence, tuple(decode(model, seq)), probs))
            got = decode_document(model, lexicon, text, zero_mode=zero_mode)
            assert [(d.labeled.sentence, d.labeled.tags) for d in got] == \
                [(sentence, tags) for sentence, tags, _ in expected]
            for d, (_, _, probs) in zip(got, expected):
                assert np.abs(np.array(d.count_confidences) - probs).max() <= 1e-12
            decoded += len(got)
    assert decoded > len(corpus)


class TestModelFile:
    def test_roundtrip_decodes_identically(self, tmp_path):
        model = train(TOY_DATA, feature_cutoff=1, max_iter=100)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(23)
        for _ in range(20):
            seq = random_sequence(rng, VOCAB + ["trump", "book", "wrote"], 7)
            assert decode(model, seq) == decode(loaded, seq)
        assert np.array_equal(model.weights, loaded.weights)
        assert np.array_equal(model.transitions, loaded.transitions)

    @pytest.mark.parametrize("cutoff", [1, 10**6], ids=["default-templates", "no-features"])
    def test_save_of_load_rewrites_the_file_exactly(self, tmp_path, cutoff):
        data = TOY_DATA + [(["zoë", "have", "CARDINAL", "x:y"], ["O", "O", "COUNT", "O"])]
        model = train(data, feature_cutoff=cutoff, max_iter=20,
                      relation={"subject_class": "human", "property": "child"})
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        save_model(model, path)
        save_model(load_model(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_truncated_file_raises(self, tmp_path):
        model = train(TOY_DATA, feature_cutoff=1, max_iter=20)
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text(encoding="utf-8")[: 100], encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_wrong_magic_raises(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"magic": "something-else", "version": 2}', encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("field,value", [
        ("features", 5),
        ("features", [1, 2]),
        ("tags", "COUNT"),
        ("templates", [5]),
        ("templates", [{"kind": "token_ngram", "offsets": [0]}]),
        ("templates", [[-1, 1]]),
    ], ids=["features-int", "features-not-strings", "tags-string", "template-not-object",
            "template-object", "template-not-contiguous"])
    def test_malformed_payload_raises(self, tmp_path, field, value):
        path = tmp_path / "model.json"
        save_model(train(TOY_DATA, feature_cutoff=1, max_iter=20), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[field] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: cannot load model: ")

    def test_non_default_templates_rejected(self, tmp_path):
        """The file lists the fixed windows' offsets; any other list is refused."""
        path = tmp_path / "model.json"
        save_model(train(TOY_DATA, feature_cutoff=1, max_iter=20), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["templates"] == [
            [0], [-1, 0], [0, 1], [-2, -1, 0], [-1, 0, 1], [0, 1, 2], [-3, -2, -1, 0],
            [-2, -1, 0, 1], [-1, 0, 1, 2], [0, 1, 2, 3], [-4, -3, -2, -1, 0],
            [-3, -2, -1, 0, 1], [-2, -1, 0, 1, 2], [-1, 0, 1, 2, 3], [0, 1, 2, 3, 4],
        ]
        fixed = payload["templates"]
        for templates in (fixed[:2], fixed[1:], fixed[::-1], fixed + [fixed[0]],
                          [[float(o) for o in offsets] for offsets in fixed],
                          [[0], [-1, 1]] + fixed[2:], []):
            path.write_text(json.dumps({**payload, "templates": templates}), encoding="utf-8")
            with pytest.raises(ModelFormatError) as err:
                load_model(path)
            assert str(err.value) == (f"{path}: cannot load model: corrupt model payload: "
                                      "templates must list the 15 fixed windows, shortest first")

    @pytest.mark.parametrize("edit", [
        lambda m: m["weights"][0].__setitem__(0, float("nan")),
        lambda m: m["weights"][-1].__setitem__(2, float("-inf")),
        lambda m: m["weights"][0].__setitem__(1, "1e999"),
        lambda m: m["weights"][0].__setitem__(1, 10**400),
        lambda m: m["weights"][0].__setitem__(0, "1.5"),
        lambda m: m["weights"][0].__setitem__(0, True),
        lambda m: m["weights"][0].__setitem__(0, None),
        lambda m: m["weights"].__setitem__(0, 0.5),
        lambda m: m["weights"][0].pop(),
        lambda m: m["transitions"][1].__setitem__(1, float("nan")),
        lambda m: m["transitions"][1].__setitem__(1, "0"),
        lambda m: m.update(transitions=[[0.0] * 3] * 2),
        lambda m: m.update(l2_sigma="nan"),
        lambda m: m.update(l2_sigma=float("nan")),
        lambda m: m.update(l2_sigma=True),
        lambda m: m.update(final_objective=float("-inf")),
        lambda m: m.update(final_objective=None),
        lambda m: m.update(n_iterations=2.7),
        lambda m: m.update(n_iterations=-1),
        lambda m: m.update(n_iterations=False),
        lambda m: m.update(n_iterations="3"),
    ], ids=["weight-nan", "weight-minus-infinity", "weight-1e999", "weight-huge-int",
            "weight-string", "weight-bool", "weight-null", "weight-row-number",
            "weight-row-short", "transition-nan", "transition-string", "transitions-2x3",
            "l2-sigma-string", "l2-sigma-nan", "l2-sigma-bool", "objective-minus-infinity",
            "objective-null", "iterations-float", "iterations-negative", "iterations-bool",
            "iterations-string"])
    def test_non_finite_or_non_numeric_values_rejected(self, tmp_path, edit):
        path = tmp_path / "model.json"
        save_model(train(TOY_DATA, feature_cutoff=1, max_iter=20), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        # json.dumps writes nan and inf as NaN and Infinity, which json.loads
        # reads back; 1e999 is written as JSON's own number literal.
        path.write_text(json.dumps(payload).replace('"1e999"', "1e999"), encoding="utf-8")
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: cannot load model: corrupt model payload: ")

    def test_whole_and_missing_scalars_load(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(train(TOY_DATA, feature_cutoff=1, max_iter=20), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload.update(l2_sigma=2, final_objective=-3, n_iterations=0)
        payload["weights"][0] = [1, 0, -1]
        path.write_text(json.dumps(payload), encoding="utf-8")
        model = load_model(path)
        assert (model.l2_sigma, model.final_objective, model.n_iterations) == (2.0, -3.0, 0)
        assert model.weights[0].tolist() == [1.0, 0.0, -1.0]
        for key in ("l2_sigma", "final_objective", "n_iterations"):
            del payload[key]
        path.write_text(json.dumps(payload), encoding="utf-8")
        model = load_model(path)
        assert (model.l2_sigma, model.final_objective, model.n_iterations) == (1.0, 0.0, 0)

    def test_model_needs_one_table_per_window(self):
        for tables in ((), ({},) * (len(WINDOWS) - 1), ({},) * (len(WINDOWS) + 1)):
            with pytest.raises(ValueError, match="a model has 15 n-gram tables"):
                CrfModel(gram_ids=tables, weights=np.zeros((0, 3)), transitions=np.zeros((3, 3)))

    @pytest.mark.parametrize("tables, n_features", [
        ({"a": 1}, 1),                    # the unseen id, n_features
        ({"a": 0, "b": 5}, 2),            # past the weights
        ({"a": -1}, 1),
        ({"a": 0, "b": 0}, 2),            # one id twice, one never
        ({"a": 0, "b": 0}, 1),            # more n-grams than features
        ({"a": 0}, 2),                    # a feature no n-gram names
        ({"a": 0.0}, 1),
        ({"a": True}, 1),
    ])
    def test_malformed_feature_ids_rejected(self, tables, n_features):
        with pytest.raises(ValueError, match="must number the"):
            CrfModel(gram_ids=(tables,) + ({},) * (len(WINDOWS) - 1),
                     weights=np.zeros((n_features, 3)), transitions=np.zeros((3, 3)))

    def test_one_id_in_two_windows_rejected(self, tmp_path):
        """Two windows' n-grams sharing an id would not survive save_model and load_model."""
        tables = ({"a": 0}, {"a|b": 0}) + ({},) * (len(WINDOWS) - 2)
        with pytest.raises(ValueError, match="must number the model's 1 features from 0, each once"):
            CrfModel(gram_ids=tables, weights=np.zeros((1, 3)), transitions=np.zeros((3, 3)))
        # Every id once, in any order and spread over windows, is a model.
        tables = ({"a": 2}, {"a|b": 0}, {"a|b": 1}) + ({},) * (len(WINDOWS) - 3)
        model = CrfModel(gram_ids=tables, weights=np.arange(9.0).reshape(3, 3),
                         transitions=np.zeros((3, 3)))
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        assert loaded.gram_ids == tables and np.array_equal(loaded.weights, model.weights)

    def test_version_1_file_rejected(self, tmp_path):
        """A version-1 file, whose templates are objects with a kind, is not read."""
        path = tmp_path / "model.json"
        save_model(train(TOY_DATA, feature_cutoff=1, max_iter=20), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 1
        payload["templates"] = [{"kind": "token_ngram", "offsets": offsets}
                                for offsets in payload["templates"]] + [{"kind": "tag_bigram"}]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: cannot load model: unsupported model version 1"

    def test_weights_immutable(self):
        model = train(TOY_DATA, feature_cutoff=1, max_iter=20)
        with pytest.raises(ValueError):
            model.weights[0, 0] = 1.0

    def test_weights_immutable_after_pickle_roundtrip(self):
        model = pickle.loads(pickle.dumps(train(TOY_DATA, feature_cutoff=1, max_iter=20)))
        for array in (model.weights, model.transitions):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_compiled_lookup_is_rebuilt_after_pickle_roundtrip(self):
        model = train(TOY_DATA, feature_cutoff=1, max_iter=50)
        state = model.__getstate__()
        assert state["gram_ids"] is model.gram_ids
        assert "padded_weights" not in state
        back = pickle.loads(pickle.dumps(model))
        assert back.gram_ids == model.gram_ids
        for m in (model, back):
            assert m.padded_weights.shape == (len(m.weights) + 1, len(TAGS))
            assert not m.padded_weights[-1].any()
            for array in (m.weights, m.transitions, m.padded_weights):
                with pytest.raises(ValueError):
                    array[0, 0] = 1.0
        rng = np.random.default_rng(5)
        for length in (0, 1, 4, 9):
            seq = random_sequence(rng, VOCAB + ["trump", "book", "unseen"], length)
            assert np.array_equal(back.emissions(seq), model.emissions(seq))
            assert np.array_equal(model.emissions(seq), _reference_emissions(model, seq))

    def test_model_without_features_gives_zero_emissions(self, tmp_path):
        model = train(_varied_lengths_data(), feature_cutoff=10**6, max_iter=20)
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        assert loaded.weights.shape == (0, len(TAGS))
        for seq in ([], ["she", "have", "CARDINAL", "child"]):
            assert np.array_equal(loaded.emissions(seq), np.zeros((len(seq), len(TAGS))))
            assert loaded.feature_ids(seq).shape == (len(seq), 15)
