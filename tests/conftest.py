from __future__ import annotations

import pytest
from hypothesis import settings

from countquant.numlex import load_default_lexicon, preprocess_sentence, tokenize

# Every property runs under this one profile, loaded before the test modules
# build their @settings: no per-example deadline, since a property's examples
# take as long as the host makes them, and a failure prints the blob that
# replays it (@reproduce_failure).
settings.register_profile("countquant", deadline=None, print_blob=True)
settings.load_profile("countquant")


@pytest.fixture(scope="session")
def lexicon():
    return load_default_lexicon()


@pytest.fixture(scope="session")
def prep(lexicon):
    """Tokenize+preprocess a single sentence (training mode by default)."""

    def _prep(text: str, mode: str = "train", zero_mode: bool = False):
        sentences = tokenize(text)
        assert len(sentences) == 1, f"expected one sentence in {text!r}"
        return preprocess_sentence(sentences[0], lexicon, mode=mode, zero_mode=zero_mode)

    return _prep


def make_kb_lines(*triples: tuple[str, str, str]) -> str:
    return "\n".join("\t".join(t) for t in triples) + "\n"


@pytest.fixture
def write_kb(tmp_path):
    def _write(*triples: tuple[str, str, str], name: str = "kb.tsv"):
        path = tmp_path / name
        path.write_text(make_kb_lines(*triples), encoding="utf-8")
        return path

    return _write
