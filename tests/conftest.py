from pathlib import Path

import pytest

from vocmap import load_fixture, load_gold, parse_vocabulary_ntriples

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def mini_store():
    return load_fixture((FIXTURES / "wordnet_mini.json").read_bytes())


@pytest.fixture(scope="session")
def mini_vocab():
    return parse_vocabulary_ntriples((FIXTURES / "vocab_mini.nt").read_bytes())


@pytest.fixture(scope="session")
def mini_gold():
    return load_gold((FIXTURES / "gold_mini.nt").read_bytes())


@pytest.fixture(scope="session")
def mini_taxonomy(mini_store):
    names = (FIXTURES / "roots_mini.txt").read_text("utf-8").split()
    roots = [mini_store.resolve_synset_name(name) for name in names]
    return mini_store.taxonomy_closure(roots)
