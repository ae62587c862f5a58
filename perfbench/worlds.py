"""Seeded synthetic worlds for the benchmark: KB, corpora, gold counts, gold tags.

A world is a list of subjects with a true child count, a (sometimes
understated) KB count and a document of templated sentences. Every template
records which of its tokens are gold COUNT/COMP mentions, so recognition
quality is scored against the templates, not against the labeling rules
under test. The same seed always gives byte-identical files.

Two document styles:

* ``short`` copies the templates of ``tests/synthbench.py``: about five
  sentences of 5-10 tokens per subject, in only four distinct lengths, and
  no zero cues.
* ``long`` gives 8 to 18 sentences per subject whose lengths run from 3 to
  about 60 tokens. Most sentences carry no count of children: mention-free
  filler, years, books, awards, ordinals, number terms ("trilogy"), the
  article "a", zero cues ("never married", "has no children") and
  non-ASCII names. It is meant to be extracted with ``--zero-mode``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from countquant.dsgen import COMP, COUNT, OTHER, LabeledSentence
from countquant.numlex import INFERENCE_MODE, NumLexicon, preprocess_sentence, tokenize

WORDS = {
    1: "one", 2: "two", 3: "three", 4: "four", 5: "five", 6: "six",
    7: "seven", 8: "eight", 9: "nine",
}
ORDINALS = {1: "first", 2: "second", 3: "third", 4: "fourth", 5: "fifth", 6: "sixth"}
NUMTERMS = {2: "twins", 3: "triplets", 4: "quadruplets", 5: "quintuplets"}

FIRST_NAMES = [
    "Avery", "Blake", "Casey", "Devon", "Ellis", "Flynn", "Gray", "Harper",
    "Indy", "Jules", "Kai", "Lane", "Morgan", "Noel", "Oakley", "Parker",
    "Quinn", "Reese", "Sage", "Tatum",
]
# Long-style given names; the tokenizer splits their non-ASCII letters off.
GIVEN_NAMES = ["Zoë", "José", "Søren", "Łukasz", "Chloé", "Björn", "Anaïs", "Renée"]

CITIES = ["Lyon", "Porto", "Graz", "Turku", "Bergen", "Leeds", "Cork", "Basel"]
FILLER_CLAUSES = [
    "while touring the northern coast with old friends",
    "after several difficult years spent abroad",
    "according to local newspapers of the period",
    "despite long illness and frequent travel",
    "as recorded by the regional historical society",
    "during the long winter months near {city}",
    "in the years that followed the move to {city}",
    "together with close colleagues from the university",
]
PLAIN_SENTENCES = [
    "{name} retired .",
    "{name} studied law at the university of {city} .",
    "{name} moved to {city} to work for the national theatre .",
    "{name} later joined the board of the museum in {city} .",
    "Critics praised the early work of {name} .",
    "{name} directed the choir of the cathedral for many seasons .",
]


@dataclass
class SynthSentence:
    text: str
    # (surface, tag) pairs for tokens that are not O, in sentence order
    gold_mentions: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class SynthSubject:
    subject_id: str
    name: str
    true_count: int
    kb_count: int
    sentences: list[SynthSentence]
    extra_triples: int = 0

    @property
    def text(self) -> str:
        return " ".join(s.text for s in self.sentences)


def _count_sentences(name: str, count: int, rng: random.Random) -> list[SynthSentence]:
    """The child-count templates of tests/synthbench.py (count >= 1)."""
    w = WORDS[count]
    child = "child" if count == 1 else "children"
    out = [SynthSentence(f"{name} has {w} {child} .", [(w, COUNT)])]
    if count >= 2 and rng.random() < 0.7:
        a = rng.randint(1, count - 1)
        b = count - a
        sons = "son" if a == 1 else "sons"
        daughters = "daughter" if b == 1 else "daughters"
        out.append(SynthSentence(
            f"{name} raised {WORDS[a]} {sons} and {WORDS[b]} {daughters} .",
            [(WORDS[a], COUNT), ("and", COMP), (WORDS[b], COUNT)],
        ))
    if count in NUMTERMS and rng.random() < 0.5:
        out.append(SynthSentence(
            f"{name} became known for raising {NUMTERMS[count]} .",
            [(NUMTERMS[count], COUNT)],
        ))
    if count in ORDINALS and rng.random() < 0.4:
        year = rng.randint(1950, 2010)
        out.append(SynthSentence(
            f"The {ORDINALS[count]} child of {name} was born in {year} .",
            [(ORDINALS[count], COUNT)],
        ))
    return out


def _short_sentences(name: str, count: int, rng: random.Random) -> list[SynthSentence]:
    out = _count_sentences(name, count, rng)
    d = rng.randint(1, 9)
    books = "book" if d == 1 else "books"
    out.append(SynthSentence(f"{name} wrote {WORDS[d]} {books} during {rng.randint(1950, 2010)} ."))
    if rng.random() < 0.5:
        e = rng.randint(1, 9)
        awards = "award" if e == 1 else "awards"
        out.append(SynthSentence(f"{name} won {WORDS[e]} {awards} ."))
    rng.shuffle(out)
    return out


def _fillers(rng: random.Random, k: int) -> str:
    """k comma-led clauses with no number, article or 'and' in them."""
    return "".join(
        " , " + rng.choice(FILLER_CLAUSES).format(city=rng.choice(CITIES)) for _ in range(k)
    )


def _distractor(name: str, rng: random.Random) -> SynthSentence:
    """A sentence with a number that is not a count of children.

    Those that carry a mention in training mode get at most one filler clause,
    so the lengths of the training sentences fill a short, dense range and
    the training cost varies little from seed to seed.
    """
    kind = rng.randrange(7)
    year = rng.randint(1900, 2015)
    n = rng.randint(1, 9)
    if kind == 0:
        return SynthSentence(f"{name} was born in {year}{_fillers(rng, rng.randint(0, 1))} .")
    if kind == 1:
        books = "book" if n == 1 else "books"
        return SynthSentence(f"{name} wrote {WORDS[n]} {books} between {year} and {year + n} .")
    if kind == 2:
        awards = "award" if n == 1 else "awards"
        return SynthSentence(f"{name} won {WORDS[n]} {awards}{_fillers(rng, rng.randint(0, 1))} .")
    if kind == 3:
        place = ORDINALS[rng.randint(1, 6)]
        return SynthSentence(f"{name} finished {place} in the {year} marathon in {rng.choice(CITIES)} .")
    if kind == 4:
        work = rng.choice(["trilogy", "tetralogy", "pentalogy"])
        return SynthSentence(f"{name} published a {work} of novels{_fillers(rng, rng.randint(0, 1))} .")
    if kind == 5:
        return SynthSentence(f"{name} never married{_fillers(rng, rng.randint(0, 2))} .")
    return SynthSentence(f"{name} bought a house near {rng.choice(CITIES)} in {year} .")


def _long_sentences(name: str, count: int, rng: random.Random) -> list[SynthSentence]:
    if count == 0:
        out = [rng.choice([
            SynthSentence(f"{name} has no children .", [("no", COUNT)]),
            SynthSentence(f"{name} didn't have any children .", [("no", COUNT)]),
        ])]
    else:
        out = _count_sentences(name, count, rng)
    out += [_distractor(name, rng) for _ in range(rng.randint(2, 5))]
    for _ in range(rng.randint(5, 9)):
        plain = rng.choice(PLAIN_SENTENCES).format(name=name, city=rng.choice(CITIES))
        k = rng.choice([0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 5])
        out.append(SynthSentence(plain[:-2] + _fillers(rng, k) + " ."))
    rng.shuffle(out)
    return out


def _blocks(block: list, rng: random.Random):
    """Endless stream of shuffled copies of *block*: every stretch of a world has
    the same mix of values (and so about the same amount of training data)
    whatever its seed."""
    block = list(block)
    while True:
        rng.shuffle(block)
        yield from block


def generate_world(style: str, n_subjects: int, seed: int) -> list[SynthSubject]:
    """Subjects with true and KB counts and one templated document each."""
    if style not in ("short", "long"):
        raise ValueError(f"unknown document style {style!r}")
    rng = random.Random(seed)
    counts = _blocks(list(range(1, 7)) * 3 + ([0, 0] if style == "long" else []),
                     random.Random(seed + 1))
    # The KB count is one short for this share of the subjects with two or more.
    understated = _blocks([True] + [False] * 4, random.Random(seed + 2))
    subjects = []
    for i in range(n_subjects):
        true_count = next(counts)
        if style == "short":
            name = f"{rng.choice(FIRST_NAMES)}{i:03d}"
        else:
            name = f"{rng.choice(FIRST_NAMES)}{i:04d}"
            if rng.random() < 0.4:
                name = f"{rng.choice(GIVEN_NAMES)} {name}"
        kb_count = true_count
        if true_count >= 2 and next(understated):
            kb_count = true_count - 1
        make = _short_sentences if style == "short" else _long_sentences
        subjects.append(SynthSubject(
            subject_id=f"s{i:05d}",
            name=name,
            true_count=true_count,
            kb_count=kb_count,
            sentences=make(name, true_count, rng),
            extra_triples=rng.randint(0, 4) if style == "long" else 0,
        ))
    return subjects


def write_world(subjects: list[SynthSubject], root: Path, train_split: int) -> dict[str, Path]:
    """KB over all subjects; train/test corpora; gold counts for the test split."""
    kb_lines = []
    for s in subjects:
        kb_lines.append(f"{s.subject_id}\t__instance_of__\thuman")
        kb_lines.extend(f"{s.subject_id}\tchild\t{s.subject_id}_c{j}" for j in range(s.kb_count))
        kb_lines.extend(f"{s.subject_id}\taward\t{s.subject_id}_a{j}" for j in range(s.extra_triples))
    train, test = subjects[:train_split], subjects[train_split:]
    paths = {
        "kb": root / "kb.tsv",
        "train_corpus": root / "train_corpus.jsonl",
        "test_corpus": root / "test_corpus.jsonl",
        "gold": root / "gold.tsv",
    }

    def corpus(part):
        return "".join(
            json.dumps({"subject": s.subject_id, "text": s.text}, ensure_ascii=False) + "\n"
            for s in part
        )

    paths["kb"].write_text("\n".join(kb_lines) + "\n", encoding="utf-8")
    paths["train_corpus"].write_text(corpus(train), encoding="utf-8")
    paths["test_corpus"].write_text(corpus(test), encoding="utf-8")
    paths["gold"].write_text(
        "".join(f"{s.subject_id}\t{s.true_count}\n" for s in test), encoding="utf-8"
    )
    return paths


def gold_labeled_sentences(subject: SynthSubject, lexicon: NumLexicon,
                           zero_mode: bool = False) -> list[LabeledSentence]:
    """Template gold tags for the subject's count sentences, in document order.

    Only these templates carry COUNT/COMP tags; every other sentence of the
    document is gold O throughout, so it need not be preprocessed here.
    """
    out = []
    for synth in subject.sentences:
        if not synth.gold_mentions:
            continue
        (raw,) = tokenize(synth.text)
        sentence = preprocess_sentence(raw, lexicon, mode=INFERENCE_MODE, zero_mode=zero_mode)
        tags = [OTHER] * len(sentence)
        queue = list(synth.gold_mentions)
        for tok in sentence:
            if queue and tok.surface.lower() == queue[0][0].lower():
                tags[tok.index] = queue.pop(0)[1]
        if queue:
            raise AssertionError(f"gold mention {queue[0]} not found in {synth.text!r}")
        out.append(LabeledSentence(sentence=sentence, tags=tuple(tags), strict=False))
    return out


def corpus_properties(subjects: list[SynthSubject]) -> dict:
    """Input properties an optimisation may depend on (by the program's tokenizer)."""
    lengths = [len(s) for subj in subjects for s in tokenize(subj.text)]
    return {
        "documents": len(subjects),
        "sentences": len(lengths),
        "tokens": sum(lengths),
        "distinct_sentence_lengths": len(set(lengths)),
        "min_sentence_length": min(lengths, default=0),
        "max_sentence_length": max(lengths, default=0),
    }
