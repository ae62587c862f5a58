"""One reference per behaviour that the tests check against a second statement of it.

Each reference is the shortest code that states its behaviour, and each
property points at it; a change of meaning (a new number rule, Unicode
words) is made in the reference and nowhere else in ``tests/``.

behaviour                         its one reference
    the tests that use it
--------------------------------  ------------------------------------------------
Viterbi path is optimal           assert_viterbi_optimal
    test_crf.TestDecode, criterion 5(b)
Viterbi tie rule                  reference_viterbi
    test_float_viterbi_equals_reference_property
marginals, log partition          brute_force_marginals, brute_force_log_partition
    test_crf.TestMarginals, criterion 5(c)
gradient of the objective         central differences, in the tests
    test_crf.TestGradient, criterion 5(a)
summation order of the objective  test_crf._scatter_value_and_grad
    TestSummationOrder, test_merged_equals_per_bucket_calls_property
L-BFGS fit                        reference_fit
    test_reaches_the_reference_objective
CRF window features               reference_features
    test_emissions_equal_per_position_reference_property,
    test_per_width_lookup_equals_per_window_reference_property,
    test_training_problem_equals_string_path_property,
    test_feature_index_order_on_mini_fixture
tokenize                          reference_tokenize
    test_preprocess_equals_two_pass_reference_property,
    test_per_word_path_equals_object_path_property
preprocess_sentence               reference_preprocess
    test_preprocess_equals_two_pass_reference_property,
    test_per_word_path_equals_object_path_property,
    TestRewriteZeroCues.test_edge_cases
special-term match                reference_match_special
    test_match_special_equals_naive_scan_property,
    test_compiled_tables_on_overlapping_lexicon
affixed number terms              reference_affix_value
    test_affixed_words_equal_naive_scan_property,
    test_compiled_tables_on_overlapping_lexicon
number-word grammar               cardinal_renderings
    test_word_grammar_reads_every_spelling_property
context-entropy filter            reference_uninformative_values
    test_one_pass_entropy_equals_per_value_rescans
KB store indexes                  test_kbstore._RefStore
    test_indexes_agree_with_reference_store
consolidation                     test_consolidate._reference_consolidate
    test_consolidate_equals_reference_property

The references for Viterbi and the marginals enumerate all tag paths; they
must stay free of the dynamic-programming code they are used to check. ``reference_fit`` is
scipy's L-BFGS-B on a training problem. The numlex references share the
library's number parsers (``_parse_cardinal_words``, and ``_parse_ordinal``
for word ordinals) and ``lemmatize``, whose own tests state them.

The helpers after the references call the library: ``forward_backward`` and
``log_partition`` are what the tests check, and ``random_model``,
``random_sequence`` and ``training_set`` build their inputs. ``detokenize``
renders a sentence as text for the bit-exact rewrite checks.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from decimal import Decimal

import numpy as np

from countquant.crf.features import BOS, EOS, WINDOW_NAMES, WINDOWS
from countquant.numlex import INFERENCE_MODE, MentionAnnotation, MentionKind, Token, make_sentence
from countquant.numlex.mentions import _parse_cardinal_words, _parse_ordinal
from countquant.numlex.tokenizer import lemmatize


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


# -- CRF window features -------------------------------------------------------


def reference_features(sequence, position) -> list[str]:
    """``"<window name>:<n-gram>"`` of each window at *position*, in window order.

    Each offset is padded on its own: ``BOS`` before the sequence, ``EOS``
    after it.
    """
    feats = []
    for name, (width, start) in zip(WINDOW_NAMES, WINDOWS):
        parts = []
        for off in range(start, start + width):
            j = position + off
            parts.append(BOS if j < 0 else EOS if j >= len(sequence) else sequence[j])
        feats.append(f"{name}:{'|'.join(parts)}")
    return feats


# -- numlex: tokenize ----------------------------------------------------------
#
# The token regex tries the digit forms first, then words, then any other
# visible character; a contraction ("didn't", "Maria’s") splits after it.

_TOKEN_RE = re.compile(
    r"""
    \d+(?:st|nd|rd|th)\b
  | (?:\d{1,3}(?:,\d{3})+|\d+)\.\d+
  | \d{1,3}(?:,\d{3}(?!\d))+ | \d+
  | [A-Za-z][A-Za-z0-9]*(?:['’-][A-Za-z0-9]+)*
  | \S
    """,
    re.VERBOSE,
)
_CONTRACTION_RE = re.compile(r"^([A-Za-z]+)(n['’]t|['’]s)$", re.IGNORECASE)


def reference_tokenize(text):
    """The sentences of *text*, each ending after a ".", "!" or "?" token."""
    surfaces = []
    for raw in _TOKEN_RE.findall(text):
        m = _CONTRACTION_RE.match(raw)
        surfaces += [m.group(1), m.group(2).replace("’", "'").lower()] if m else [raw]
    sentences, current = [], []
    for surface in surfaces:
        current.append(Token(surface, lemmatize(surface), 0))
        if surface in (".", "!", "?"):
            sentences.append(make_sentence(current))
            current = []
    if current:
        sentences.append(make_sentence(current))
    return sentences


# -- numlex: preprocess_sentence -----------------------------------------------
#
# Three passes: in zero mode one that rewrites zero cues (restarting its
# "n't ... any" search after each match), then one that rewrites special
# terms, then an annotation pass that matches special terms again.


def reference_match_special(words, i, lexicon):
    """Longest special term at ``words[i]`` (lowercased surfaces), the first in table order."""
    matches = [t for t in lexicon.special_terms if tuple(words[i : i + len(t.term)]) == t.term]
    return max(matches, key=lambda t: len(t.term), default=None)


def reference_affix_value(word, lexicon):
    """Prefix value of *word*, split at its longest number-term suffix, or None."""
    if word in lexicon.affix_exceptions:
        return None
    for suffix in sorted(lexicon.num_term_suffixes, key=len, reverse=True):
        if word.endswith(suffix) and len(word) > len(suffix):
            value = lexicon.latin_greek_prefixes.get(word[: -len(suffix)])
            if value is not None:
                return value
    return None


def _merge(span, mention):
    return Token(" ".join(t.surface for t in span), " ".join(t.lemma for t in span), 0, mention)


def _special_value(term, lexicon):
    if term.value is not None:
        return term.value
    parsed = _parse_cardinal_words(term.replacement_text.lower().split(), lexicon.cardinal_words)
    if parsed is None:
        raise ValueError(f"special term {' '.join(term.term)!r}: replacement carries no number")
    return parsed[0]


def _rewrite_zero_cues(tokens):
    """The zero-cue rewrites, each schema applied to the whole sentence in turn.

    "did n't ... any" drops the auxiliary and the negation and turns "any"
    into "no"; every "never" goes and "0 times" comes once; "without" becomes
    "with no"; then every "no" and "0" not yet annotated is a ZERO mention.
    """
    tokens = list(tokens)
    changed = True
    while changed:  # n't-any: apply until no pattern is left
        changed = False
        for j in range(1, len(tokens)):
            if tokens[j].surface.lower() not in ("n't", "not"):
                continue
            if tokens[j - 1].surface.lower() not in ("do", "does", "did"):
                continue
            k = next(
                (m for m in range(j + 1, len(tokens)) if tokens[m].surface.lower() == "any"),
                None,
            )
            if k is None:
                continue
            tokens[k] = Token("no", "no", 0)
            del tokens[j - 1 : j + 1]
            changed = True
            break

    kept = [tok for tok in tokens if tok.surface.lower() != "never"]
    if len(kept) < len(tokens):
        tokens = kept
        tail = len(tokens)
        if tail and tokens[-1].surface in (".", "!", "?"):
            tail -= 1
        tokens[tail:tail] = [Token("0", "0", 0), Token("times", "time", 0)]

    out = []
    for tok in tokens:
        if tok.surface.lower() == "without":
            out += [Token("with", "with", 0), Token("no", "no", 0)]
        else:
            out.append(tok)
    return [
        tok._replace(mention=MentionAnnotation(MentionKind.ZERO, 0))
        if tok.mention is None and tok.surface.lower() in ("no", "0")
        else tok
        for tok in out
    ]


def _normalize_special_terms(tokens, lexicon):
    words = [t.surface.lower() for t in tokens]
    out = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        special = reference_match_special(words, i, lexicon)
        if special is None or (tok.mention is not None and special.replacement_text is None):
            out.append(tok)
            i += 1
            continue
        if special.replacement_text is None:
            mention = MentionAnnotation(MentionKind.NUMTERM, _special_value(special, lexicon))
            out.append(_merge(tokens[i : i + len(special.term)], mention))
        else:
            for word in special.replacement_text.split():
                mention = None
                if word.lower() in lexicon.cardinal_words:
                    mention = MentionAnnotation(
                        MentionKind.CARDINAL, lexicon.cardinal_words[word.lower()]
                    )
                out.append(Token(word, lemmatize(word), 0, mention))
        i += len(special.term)
    return out


def _cardinal_run(tokens, i, head, lexicon):
    """(value, tokens spanned) of a run reading ``tokens[i]`` as *head*, if it reads all of it."""
    run_words = list(head)
    j = i + 1
    while j < len(tokens) and tokens[j].mention is None and (
        tokens[j].surface.lower() in lexicon.cardinal_words
        or tokens[j].surface.lower() == "and"
    ):
        run_words.append(tokens[j].surface.lower())
        j += 1
    parsed = _parse_cardinal_words(run_words, lexicon.cardinal_words)
    if parsed is None or parsed[1] < len(head):
        return None
    return parsed[0], 1 + parsed[1] - len(head)


# A digit cardinal ("1,200") or digit ordinal ("23rd"). Digit numbers obey the
# cap of the number-word grammar: one above 999,999 is no mention.
_DIGIT_NUMBER_RE = re.compile(r"(\d{1,3}(?:,\d{3})+|\d+)|(\d+)(?:st|nd|rd|th)")


def _annotate_mentions(tokens, lexicon, mode):
    words = [t.surface.lower() for t in tokens]
    out = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.mention is not None:
            out.append(tok)
            i += 1
            continue

        special = reference_match_special(words, i, lexicon)
        if special is not None and all(
            t.mention is None for t in tokens[i : i + len(special.term)]
        ):
            mention = MentionAnnotation(MentionKind.NUMTERM, _special_value(special, lexicon))
            out.append(_merge(tokens[i : i + len(special.term)], mention))
            i += len(special.term)
            continue

        surface = words[i]

        digit = _DIGIT_NUMBER_RE.fullmatch(surface)
        if digit:
            cardinal, ordinal = digit.groups()
            value = Decimal((cardinal or ordinal).replace(",", ""))
            if value <= 999_999:
                kind = MentionKind.CARDINAL if cardinal else MentionKind.ORDINAL
                tok = tok._replace(mention=MentionAnnotation(kind, int(value)))
            out.append(tok)
            i += 1
            continue

        head = surface.split("-")
        no_one = surface == "one" and i > 0 and words[i - 1] == "no"
        if not no_one and all(word in lexicon.cardinal_words for word in head):
            run = _cardinal_run(tokens, i, head, lexicon)
            if run is not None:
                value, length = run
                mention = MentionAnnotation(MentionKind.CARDINAL, value)
                out.append(_merge(tokens[i : i + length], mention))
                i += length
                continue

        ordinal_value = _parse_ordinal(surface, lexicon)
        if ordinal_value is not None:
            out.append(tok._replace(mention=MentionAnnotation(MentionKind.ORDINAL, ordinal_value)))
            i += 1
            continue

        value = reference_affix_value(surface, lexicon)
        if value is None:
            value = reference_affix_value(tok.lemma, lexicon)
        if value is not None:
            out.append(tok._replace(mention=MentionAnnotation(MentionKind.NUMTERM, value)))
            i += 1
            continue

        if surface in lexicon.articles:
            run = _cardinal_run(tokens, i, ["one"], lexicon)
            if run is not None and run[1] > 1:
                mention = MentionAnnotation(MentionKind.CARDINAL, run[0])
                out.append(_merge(tokens[i : i + run[1]], mention))
                i += run[1]
                continue

        if mode == INFERENCE_MODE and surface in lexicon.articles:
            out.append(tok._replace(mention=MentionAnnotation(MentionKind.ARTICLE, 1)))
            i += 1
            continue

        out.append(tok)
        i += 1
    return out


def reference_preprocess(sentence, lexicon, mode, zero_mode):
    """``preprocess_sentence``: zero cues (in zero mode), then special terms, then mentions."""
    tokens = list(sentence)
    if zero_mode:
        tokens = _rewrite_zero_cues(tokens)
    tokens = _normalize_special_terms(tokens, lexicon)
    return make_sentence(_annotate_mentions(tokens, lexicon, mode))


# -- dsgen: the context-entropy filter ------------------------------------------
#
# A value's contexts are the two lemmas before and after each of its mentions,
# padded with "<BOS>" and "<EOS>"; the entropy of a value is that of its
# context counts.


def reference_contexts_by_value(document):
    """``value -> Counter`` of the contexts of its mentions in *document*."""
    contexts = {}
    for sent in document:
        lemmas = ["<BOS>", "<BOS>", *sent.lemmas(), "<EOS>", "<EOS>"]
        for position, mention in sent.mentions:
            i = position + 2
            context = (lemmas[i - 2], lemmas[i - 1], lemmas[i + 1], lemmas[i + 2])
            contexts.setdefault(mention.value, Counter())[context] += 1
    return contexts


def reference_entropy_bits(contexts):
    total = sum(contexts.values())
    return -sum((c / total) * math.log2(c / total) for c in contexts.values()) or 0.0


def reference_uninformative_values(document, threshold):
    """Values mentioned more than once whose context entropy is below *threshold* bits."""
    return {
        value
        for value, contexts in reference_contexts_by_value(document).items()
        if sum(contexts.values()) > 1 and reference_entropy_bits(contexts) < threshold
    }


# -- helpers that call the library -----------------------------------------------


def forward_backward(emissions: np.ndarray, transitions: np.ndarray) -> tuple[np.ndarray, ...]:
    """Tag marginals ``mu``, expected transition counts ``xi`` and ``log_z``.

    One equal-length stack through the library's kernel. Emissions are
    (..., n >= 1, k), leading axes sentences. ``mu`` has their shape, ``xi``
    (k, k) sums over positions and sentences, ``log_z`` is per sentence.
    """
    from countquant.crf.model import forward_backward_stacks, time_major_layout

    *lead, n, k = emissions.shape
    stack = emissions.reshape(-1, n, k)
    layout = time_major_layout([n] * len(stack))
    rows = layout[2][0][2]
    mu, ((xi, log_z),) = forward_backward_stacks(
        stack.swapaxes(0, 1).reshape(-1, k), transitions, layout)
    return mu[rows].swapaxes(0, 1).reshape(emissions.shape), xi, log_z.reshape(lead)


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


def reference_fit(problem, max_iter: int = 300, tol: float = 1e-4) -> float:
    """The objective (log-likelihood) scipy's L-BFGS-B reaches on a ``TrainingProblem``.

    Its stopping rules are the ones :func:`countquant.crf.train.lbfgs` states.
    """
    from scipy.optimize import minimize

    result = minimize(
        problem.value_and_grad,
        np.zeros(problem.n_params),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "gtol": tol, "ftol": 1e-12, "maxfun": 10 * max_iter},
    )
    return -float(result.fun)


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
