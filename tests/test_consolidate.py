from __future__ import annotations

import json
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from countquant.consolidate import (
    CountingQuantifier,
    CqCandidate,
    candidates,
    consolidate,
)
from countquant.dsgen import COMP, COUNT, OTHER, LabeledSentence
from countquant.kbstore import Relation
from countquant.numlex import load_default_lexicon, preprocess_sentence, tokenize
from countquant.numlex.types import MentionAnnotation, MentionKind, Token, make_sentence

LEXICON = load_default_lexicon()
REL = Relation(subject_class="human", property="child")

# -- reference: the staged consolidation this module's one pass replaced --------

_REF_KIND_RANK = {
    MentionKind.CARDINAL: 0,
    MentionKind.NUMTERM: 1,
    MentionKind.ORDINAL: 2,
    MentionKind.ARTICLE: 3,
}


def _ref_position(c: CqCandidate) -> tuple:
    return (c.sentence_index, c.token_index)


def _ref_extract_candidates(labeled, confidences, sentence_index):
    out = []
    for tok, tag in zip(labeled.sentence, labeled.tags):
        if tag == COUNT and tok.mention is not None:
            out.append(CqCandidate(
                kind=tok.mention.kind,
                value=tok.mention.value,
                confidence=float(confidences[tok.index]),
                sentence_index=sentence_index,
                token_index=tok.index,
                surface=tok.surface,
            ))
    return out


def _ref_sum_compositional(cands, labeled):
    if len(cands) < 2:
        return list(cands)
    ordered = sorted(cands, key=lambda c: c.token_index)
    chains = [[ordered[0]]]
    for prev, cur in zip(ordered, ordered[1:]):
        between = range(prev.token_index + 1, cur.token_index)
        if any(labeled.tags[j] == COMP for j in between):
            chains[-1].append(cur)
        else:
            chains.append([cur])
    merged = []
    for chain in chains:
        if len(chain) == 1:
            merged.append(chain[0])
        else:
            best = max(range(len(chain)), key=lambda i: (chain[i].confidence, -i))
            merged.append(CqCandidate(
                kind=MentionKind.CARDINAL,
                value=sum(c.value for c in chain),
                confidence=chain[best].confidence,
                sentence_index=chain[0].sentence_index,
                token_index=chain[0].token_index,
                surface=" + ".join(c.surface for c in chain),
                composed=True,
            ))
    return merged


def _ref_pool_kind(c):
    if c.kind is MentionKind.ZERO or c.composed:
        return MentionKind.CARDINAL
    return c.kind


def _ref_select_per_type(cands, threshold):
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0,1], got {threshold}")
    pools = {}
    for c in cands:
        pools.setdefault(_ref_pool_kind(c), []).append(c)
    selected = {}
    for kind, pool in pools.items():
        if kind is MentionKind.ORDINAL:
            selected[kind] = min(pool, key=lambda c: (-c.value, -c.confidence) + _ref_position(c))
            continue
        best = min(pool, key=lambda c: (-c.confidence, c.value == 0) + _ref_position(c))
        if best.confidence > threshold:
            selected[kind] = best
    return selected


def _ref_rank_types(per_type, subject, relation):
    if not per_type:
        return None
    winner = per_type[min(per_type, key=lambda k: _REF_KIND_RANK[k])]
    provenance = tuple(per_type[k] for k in sorted(per_type, key=lambda k: _REF_KIND_RANK[k]))
    return CountingQuantifier(
        subject=subject, relation=relation, count=winner.value,
        confidence=winner.confidence, provenance=provenance,
    )


def _reference_consolidate(subject, relation, labeled_sentences, confidences, threshold=0.1):
    pooled = []
    for idx, (labeled, conf) in enumerate(zip(labeled_sentences, confidences)):
        pooled.extend(_ref_sum_compositional(_ref_extract_candidates(labeled, conf, idx), labeled))
    return _ref_rank_types(_ref_select_per_type(pooled, threshold), subject, relation)


# -- building sentences of annotated tokens -------------------------------------

_SURFACES = {
    MentionKind.CARDINAL: "3",
    MentionKind.NUMTERM: "twins",
    MentionKind.ORDINAL: "third",
    MentionKind.ARTICLE: "a",
    MentionKind.ZERO: "0",
}


def m(kind, value, conf, tag=COUNT):
    """A mention token of *kind* and *value*, tagged *tag* with confidence *conf*."""
    surface = _SURFACES[kind]
    return Token(surface, surface, 0, MentionAnnotation(kind, value)), tag, conf


def w(surface, tag=OTHER, conf=0.0):
    """A plain token tagged *tag* with confidence *conf*."""
    return Token(surface, surface, 0), tag, conf


def sentence(*items) -> tuple[LabeledSentence, list[float]]:
    """A decoded sentence of (token, tag, confidence) items, with its confidences."""
    tokens, tags, confs = zip(*items) if items else ((), (), ())
    labeled = LabeledSentence(sentence=make_sentence(tokens), tags=tuple(tags), strict=False)
    return labeled, list(confs)


def document(*sentences, subject="s", threshold=0.1) -> Optional[CountingQuantifier]:
    """``consolidate`` over the given decoded sentences."""
    return consolidate(subject, None, [s for s, _ in sentences], [c for _, c in sentences],
                       threshold=threshold)


def pools(cq: Optional[CountingQuantifier]) -> dict[MentionKind, CqCandidate]:
    """The provenance of *cq* keyed by the pool each member competed in."""
    if cq is None:
        return {}
    return {
        MentionKind.CARDINAL if c.kind is MentionKind.ZERO or c.composed else c.kind: c
        for c in cq.provenance
    }


def labeled_with(text, tag_conf_by_position):
    """Inference-style labeled sentence with explicit tags and confidences."""
    (raw,) = tokenize(text)
    preprocessed = preprocess_sentence(raw, LEXICON, mode="inference", zero_mode=True)
    tags = [OTHER] * len(preprocessed)
    confs = [0.0] * len(preprocessed)
    for pos, (tag, conf) in tag_conf_by_position.items():
        tags[pos] = tag
        confs[pos] = conf
    return LabeledSentence(sentence=preprocessed, tags=tuple(tags), strict=False), confs


class TestSumCompositional:
    """Runs of mentions joined by COMP cues come out of ``candidates`` merged."""

    def _merge(self, text, spec):
        labeled, confs = labeled_with(text, spec)
        return list(candidates(labeled, confs, 0))

    def test_three_and_three(self):
        (c,) = self._merge(
            "three biological and three adopted",
            {0: (COUNT, 0.3), 2: (COMP, 0.6), 3: (COUNT, 0.5)},
        )
        assert (c.value, c.confidence, c.composed) == (6, 0.5, True)
        assert c.kind is MentionKind.CARDINAL
        assert (c.token_index, c.surface) == (0, "three + three")

    def test_two_articles_combine(self):
        (c,) = self._merge(
            "a son and a daughter",
            {0: (COUNT, 0.1), 2: (COMP, 0.5), 3: (COUNT, 0.2)},
        )
        assert (c.value, c.confidence) == (2, 0.2)
        assert c.kind is MentionKind.CARDINAL

    def test_single_mention_unchanged(self):
        (c,) = self._merge("He has six children", {2: (COUNT, 0.4)})
        assert (c.value, c.confidence, c.composed) == (6, 0.4, False)
        assert (c.kind, c.token_index, c.surface) == (MentionKind.CARDINAL, 2, "six")

    def test_unlinked_mentions_stay_separate(self):
        merged = self._merge(
            "six children : three biological and three adopted",
            {0: (COUNT, 0.4), 3: (COUNT, 0.3), 5: (COMP, 0.6), 6: (COUNT, 0.5)},
        )
        assert [(c.value, c.confidence) for c in merged] == [(6, 0.4), (6, 0.5)]

    def test_untagged_and_mentionless_tokens_are_not_candidates(self):
        labeled, confs = sentence(
            m(MentionKind.CARDINAL, 3, 0.9, tag=OTHER), w("books", COUNT, 0.8),
            m(MentionKind.NUMTERM, 2, 0.7),
        )
        (c,) = candidates(labeled, confs, 4)
        assert (c.kind, c.value, c.sentence_index, c.token_index) == (MentionKind.NUMTERM, 2, 4, 2)

    def test_comp_before_first_mention_links_nothing(self):
        labeled, confs = sentence(
            w("and", COMP), m(MentionKind.CARDINAL, 2, 0.4), w("sons"),
            m(MentionKind.CARDINAL, 3, 0.6),
        )
        assert [c.value for c in candidates(labeled, confs, 0)] == [2, 3]

    def test_comp_tagged_mention_links_its_neighbours(self):
        labeled, confs = sentence(
            m(MentionKind.CARDINAL, 2, 0.4), m(MentionKind.ORDINAL, 9, 0.9, tag=COMP),
            m(MentionKind.ZERO, 0, 0.6),
        )
        (c,) = candidates(labeled, confs, 0)
        assert (c.value, c.confidence, c.surface, c.composed) == (2, 0.6, "3 + 0", True)


class TestSelectPerType:
    """The best mention each pool keeps, read from the provenance."""

    def test_highest_confidence_cardinal_kept(self):
        cq = document(sentence(m(MentionKind.CARDINAL, 6, 0.5)))
        assert pools(cq)[MentionKind.CARDINAL].value == 6

    def test_highest_ordinal_by_value(self):
        cq = document(sentence(m(MentionKind.ORDINAL, 1, 0.5), m(MentionKind.ORDINAL, 3, 0.2)))
        assert pools(cq)[MentionKind.ORDINAL].value == 3

    def test_ordinal_value_tie_breaks_to_higher_confidence(self):
        cq = document(sentence(m(MentionKind.ORDINAL, 3, 0.2), m(MentionKind.ORDINAL, 3, 0.7)))
        assert pools(cq)[MentionKind.ORDINAL].token_index == 1

    def test_ordinals_ignore_threshold(self):
        cq = document(sentence(m(MentionKind.ORDINAL, 2, 0.01)), threshold=0.9)
        assert pools(cq)[MentionKind.ORDINAL].value == 2

    def test_strictly_above_threshold(self):
        assert document(sentence(m(MentionKind.CARDINAL, 6, 0.5)), threshold=0.5) is None
        kept = document(sentence(m(MentionKind.CARDINAL, 6, 0.5)), threshold=0.49)
        assert pools(kept)[MentionKind.CARDINAL].value == 6

    def test_zero_competes_as_cardinal(self):
        cq = document(sentence(m(MentionKind.ZERO, 0, 0.9), m(MentionKind.CARDINAL, 2, 0.3)))
        assert pools(cq)[MentionKind.CARDINAL].value == 0
        assert [c.kind for c in cq.provenance] == [MentionKind.ZERO]

    def test_zero_loses_confidence_tie(self):
        cq = document(sentence(m(MentionKind.ZERO, 0, 0.5), m(MentionKind.CARDINAL, 2, 0.5)))
        assert pools(cq)[MentionKind.CARDINAL].value == 2

    def test_composed_competes_as_cardinal(self):
        cq = document(sentence(
            m(MentionKind.CARDINAL, 4, 0.4),
            m(MentionKind.ARTICLE, 1, 0.3), w("and", COMP), m(MentionKind.ARTICLE, 1, 0.6),
        ))
        assert [(c.value, c.composed) for c in cq.provenance] == [(2, True)]

    def test_articles_ranked_separately(self):
        cq = document(sentence(m(MentionKind.ARTICLE, 1, 0.4), m(MentionKind.CARDINAL, 3, 0.2)))
        assert pools(cq)[MentionKind.ARTICLE].value == 1
        assert pools(cq)[MentionKind.CARDINAL].value == 3


class TestRankTypes:
    """The order of the surviving pools, and which one supplies the count."""

    def test_cardinal_beats_all(self):
        cq = document(sentence(
            m(MentionKind.CARDINAL, 6, 0.5), m(MentionKind.NUMTERM, 2, 0.8),
            m(MentionKind.ORDINAL, 1, 0.5),
        ))
        assert cq.count == 6
        assert [c.kind for c in cq.provenance] == [
            MentionKind.CARDINAL, MentionKind.NUMTERM, MentionKind.ORDINAL,
        ]

    def test_single_ordinal_fallthrough(self):
        cq = document(sentence(m(MentionKind.ORDINAL, 3, 0.2)))
        assert (cq.count, cq.confidence) == (3, 0.2)

    def test_numterm_when_cardinals_dropped(self):
        cq = document(
            sentence(m(MentionKind.CARDINAL, 6, 0.3), m(MentionKind.NUMTERM, 2, 0.8)),
            threshold=0.5,
        )
        assert cq.count == 2
        assert [c.kind for c in cq.provenance] == [MentionKind.NUMTERM]

    def test_article_last(self):
        cq = document(sentence(m(MentionKind.ARTICLE, 1, 0.9), m(MentionKind.ORDINAL, 2, 0.1)))
        assert cq.count == 2

    def test_empty_pool_gives_none(self):
        assert document() is None
        assert document(sentence(w("home"))) is None


class TestConsolidate:
    def test_zero_prediction(self):
        labeled, confs = labeled_with(
            "He has never been married", {4: (COUNT, 0.9)}
        )
        zero_tok = list(labeled.sentence)[4]
        assert zero_tok.surface == "0" and zero_tok.mention.value == 0
        cq = consolidate("he", None, [labeled], [confs], threshold=0.1)
        assert cq.count == 0

    def test_no_candidates_gives_none(self):
        labeled, confs = labeled_with("He stayed home", {})
        assert consolidate("he", None, [labeled], [confs]) is None

    def test_tie_breaks_to_earlier_sentence(self):
        l1, c1 = labeled_with("He has six children", {2: (COUNT, 0.5)})
        l2, c2 = labeled_with("He has four children", {2: (COUNT, 0.5)})
        cq = consolidate("he", None, [l1, l2], [c1, c2], threshold=0.1)
        assert cq.count == 6

    def test_determinism(self):
        l1, c1 = labeled_with(
            "three biological and three adopted",
            {0: (COUNT, 0.3), 2: (COMP, 0.6), 3: (COUNT, 0.5)},
        )
        results = {
            consolidate("s", None, [l1], [c1], threshold=0.1).count for _ in range(5)
        }
        assert results == {6}

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
    def test_threshold_out_of_range_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold must be in"):
            document(threshold=threshold)


# -- properties ----------------------------------------------------------------

_kinds = st.sampled_from([
    MentionKind.CARDINAL, MentionKind.NUMTERM, MentionKind.ORDINAL,
    MentionKind.ARTICLE, MentionKind.ZERO,
])


@st.composite
def _mentions(draw):
    """One sentence of 1-6 unlinked COUNT mentions of any kind."""
    n = draw(st.integers(min_value=1, max_value=6))
    out = []
    for _ in range(n):
        kind = draw(_kinds)
        value = {
            MentionKind.ARTICLE: 1,
            MentionKind.ZERO: 0,
        }.get(kind, draw(st.integers(min_value=1, max_value=9)))
        conf = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        out.append(m(kind, value, round(conf, 3)))
    return out


@settings(max_examples=300)
@given(_mentions(), st.floats(min_value=0.0, max_value=0.99, allow_nan=False))
def test_cardinal_priority_property(items, threshold):
    cq = document(sentence(*items), threshold=threshold)
    surviving_cardinals = [
        (tok.mention.value, conf) for tok, _, conf in items
        if tok.mention.kind in (MentionKind.CARDINAL, MentionKind.ZERO) and conf > threshold
    ]
    if surviving_cardinals and cq is not None:
        best = max(conf for _, conf in surviving_cardinals)
        assert cq.count in {value for value, conf in surviving_cardinals if conf == best}


@settings(max_examples=300)
@given(_mentions(), st.floats(min_value=0.0, max_value=0.5), st.floats(min_value=0.0, max_value=0.5))
def test_threshold_monotonicity_property(items, t_low, extra):
    """Raising the threshold never swaps one cardinal for another."""
    t_high = min(1.0, t_low + extra)
    low = pools(document(sentence(*items), threshold=t_low))
    high = pools(document(sentence(*items), threshold=t_high))
    if MentionKind.CARDINAL in high:
        assert low[MentionKind.CARDINAL] == high[MentionKind.CARDINAL]


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=4))
def test_composed_confidence_is_max_property(confs):
    words = ["one"] * len(confs)
    text = " , ".join(words)
    (raw,) = tokenize(text)
    preprocessed = preprocess_sentence(raw, LEXICON, mode="inference")
    tags = [COUNT if tok.mention else COMP for tok in preprocessed]
    conf_vec = []
    it = iter(confs)
    for tok in preprocessed:
        conf_vec.append(next(it) if tok.mention else 0.9)
    labeled = LabeledSentence(sentence=preprocessed, tags=tuple(tags), strict=False)
    (c,) = candidates(labeled, conf_vec, 0)
    assert c.confidence == pytest.approx(max(confs))
    assert c.value == len(confs)


# Few distinct confidences, so that ties (and zeros) are common.
_confidences = st.sampled_from([0.0, -0.0, 0.1, 0.5, 0.5, 0.9, 1.0]) | st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False
)


@st.composite
def _token(draw):
    tag = draw(st.sampled_from([COUNT, COUNT, COMP, OTHER]))
    conf = draw(_confidences)
    kind = draw(st.none() | _kinds)
    if kind is None:
        return w(draw(st.sampled_from(["and", "sons", ","])), tag, conf)
    # A value is drawn only for the kinds that have no fixed one.
    value = {MentionKind.ARTICLE: 1, MentionKind.ZERO: 0}.get(kind)
    if value is None:
        value = draw(st.integers(min_value=1 if kind is MentionKind.NUMTERM else 0, max_value=4))
    return m(kind, value, conf, tag)


@settings(max_examples=1000)
@given(
    st.lists(st.lists(_token(), max_size=8), max_size=4),
    st.sampled_from([0.0, 1.0, 0.5]) | st.floats(min_value=0.0, max_value=1.0),
)
def test_consolidate_equals_reference_property(doc, threshold):
    sentences = [sentence(*items) for items in doc]
    labeled = [s for s, _ in sentences]
    confs = [c for _, c in sentences]
    got = consolidate("s", REL, labeled, confs, threshold=threshold)
    want = _reference_consolidate("s", REL, labeled, confs, threshold=threshold)
    assert (got is None) == (want is None)
    if got is not None:
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
        assert got == want
