"""The mapper and the random baseline against the brute-force references in
tests/oracle.py, on small generated stores and vocabularies; the sweep
against one mapping per grid point; and the WNDB loader against the fixture
loader on the same generated stores.

Lemmas, glosses, labels and definitions all draw on one small word pool, so
lexical matches, collocations and gloss overlaps are frequent.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (mapping_set_tuples, oracle_map_vocabulary,
                    oracle_random_baseline)
from vocmap.evaluation import SweepGrid, evaluate, run_sweep
from vocmap.mapper import MapperConfig, map_vocabulary, random_baseline_mapping
from vocmap.vocab import Term, Vocabulary
from vocmap.wordnet import (HYPONYM_OF, PART_MERONYM_OF, load_fixture,
                            load_wndb)

WORDS = ("bay", "sea", "pool", "salt", "water", "power", "station", "mouse")
# inflected forms the lemmatizer reduces, and stopwords it drops
TEXT_WORDS = WORDS + ("pools", "seas", "stations", "mice", "the", "of", "a")
# the grid's f_min values that tag counts can straddle
F_MIN_VALUES = (0, 1, 2, 5, 10, 40)


def _text(min_size, max_size):
    return st.lists(st.sampled_from(TEXT_WORDS), min_size=min_size,
                    max_size=max_size).map(" ".join)


@st.composite
def _documents(draw):
    """A fixture document of 3-20 synsets with an acyclic relation graph."""
    lemmas = st.one_of(
        st.sampled_from(WORDS),
        st.tuples(st.sampled_from(WORDS), st.sampled_from(WORDS))
        .map("_".join))
    senses_of: dict[str, int] = {}
    synsets = []
    for i in range(draw(st.integers(3, 20))):
        entry_lemmas = []
        for lemma in draw(st.lists(lemmas, min_size=1, max_size=3,
                                   unique=True)):
            senses_of[lemma] = senses_of.get(lemma, 0) + 1
            entry_lemmas.append({
                "lemma": lemma, "sense_number": senses_of[lemma],
                "frequency": draw(st.sampled_from((0, 0, 0, 1, 3, 7, 50)))})
        relations = [] if i == 0 else draw(st.lists(
            st.tuples(st.sampled_from((HYPONYM_OF, PART_MERONYM_OF)),
                      st.integers(1, i)).map(list), max_size=2))
        synsets.append({"offset": i + 1, "lemmas": entry_lemmas,
                        "gloss": draw(_text(0, 8)), "relations": relations})
    exceptions = draw(st.sampled_from(({}, {"mice": "mouse"})))
    return {"synsets": synsets, "exceptions": exceptions}


_stores = _documents().map(lambda doc: load_fixture(json.dumps(doc)))


@st.composite
def _cases(draw):
    """A store, a vocabulary of 1-10 terms, and a taxonomy closure."""
    store = draw(_stores)
    lemma_text = st.sampled_from(sorted(store.lemma_index)).map(
        lambda lemma: lemma.replace("_", " "))
    # a store lemma, alone or inside a label of up to three words, matches
    # it completely or partially; a label of punctuation has no tokens
    labels = st.one_of(
        _text(1, 3).filter(str.strip), lemma_text,
        st.tuples(_text(0, 1), lemma_text, _text(0, 1)).map(" ".join)
        .filter(lambda label: len(label.split()) <= 3),
        st.sampled_from(("!!", "--")))
    terms = []
    for k in range(draw(st.integers(1, 10))):
        pref_label = draw(labels)
        # an alternative label may repeat the preferred label's tokens in
        # another case or with punctuation, which gives no new form
        variants = st.sampled_from((pref_label.upper(), pref_label + "!",
                                    f"-{pref_label.title()}-"))
        terms.append(Term(
            uri=f"http://example.org/t{k}", pref_label=pref_label,
            alt_labels=tuple(draw(st.lists(st.one_of(labels, variants),
                                           max_size=2))),
            definition=draw(st.one_of(st.none(), _text(0, 10)))))
    roots = draw(st.lists(st.sampled_from(sorted(store.synsets)),
                          min_size=1, max_size=2))
    return store, Vocabulary(terms), store.taxonomy_closure(roots)


@settings(max_examples=40, deadline=None)
@given(case=_cases(), ol_min=st.integers(0, 3),
       f_min=st.sampled_from(F_MIN_VALUES), use_alt_labels=st.booleans())
def test_mapper_equals_oracle_on_generated_stores(case, ol_min, f_min,
                                                  use_alt_labels):
    store, vocabulary, closure = case
    for taxonomy in (None, closure):
        got = mapping_set_tuples(map_vocabulary(
            vocabulary, store,
            MapperConfig(ol_min=ol_min, f_min=f_min, taxonomy=taxonomy,
                         use_alt_labels=use_alt_labels)))
        want = oracle_map_vocabulary(vocabulary, store, ol_min=ol_min,
                                     f_min=f_min, taxonomy=taxonomy,
                                     use_alt_labels=use_alt_labels)
        # a mapping set keeps the first of two passes that reach the same
        # triple; the oracle's set keeps both
        assert got <= want
        assert {t[:3] for t in got} == {t[:3] for t in want}


@settings(max_examples=20, deadline=None)
@given(case=_cases(),
       taxonomy_options=st.sampled_from(((False,), (True,), (False, True))),
       f_min_values=st.lists(st.sampled_from(F_MIN_VALUES), min_size=1,
                             max_size=3, unique=True),
       ol_min_values=st.lists(st.integers(0, 3), min_size=1, max_size=3,
                              unique=True),
       gold_point=st.tuples(st.integers(0, 2), st.sampled_from(F_MIN_VALUES)))
def test_sweep_rows_equal_per_point_mappings_on_generated_stores(
        case, taxonomy_options, f_min_values, ol_min_values, gold_point):
    store, vocabulary, closure = case
    # a gold standard that some points meet in part
    gold_ol_min, gold_f_min = gold_point
    gold = map_vocabulary(vocabulary, store, MapperConfig(
        ol_min=gold_ol_min, f_min=gold_f_min))
    grid = SweepGrid(taxonomy_options=taxonomy_options,
                     f_min_values=tuple(f_min_values),
                     ol_min_values=tuple(ol_min_values))
    rows = run_sweep(vocabulary, store, gold, grid=grid, taxonomy=closure)
    assert len(rows) == len(grid)
    for row, (taxonomy_on, f_min, ol_min) in zip(rows, grid.points()):
        config = MapperConfig(ol_min=ol_min, f_min=f_min,
                              taxonomy=closure if taxonomy_on else None)
        mapping = map_vocabulary(vocabulary, store, config)
        assert row.config == config
        assert row.result == evaluate(mapping, gold)
        assert row.result.n_machine == len(mapping)


@settings(max_examples=40, deadline=None)
@given(case=_cases(), seed=st.integers(0, 5))
def test_random_baseline_equals_oracle_on_generated_stores(case, seed):
    store, vocabulary, _ = case
    assert mapping_set_tuples(random_baseline_mapping(
        vocabulary, store, seed=seed)) == oracle_random_baseline(
        vocabulary, store, seed=seed)


_POINTER_SYMBOLS = {HYPONYM_OF: "@", PART_MERONYM_OF: "#p"}


def _wndb_files(doc):
    """The fixture document rendered as WNDB index.noun, data.noun,
    cntlist.rev and noun.exc, each data and index file under a license
    block."""
    data, offsets_of, counts = ["  1 license"], {}, []
    for entry in doc["synsets"]:
        words = " ".join(f"{item['lemma']} 0" for item in entry["lemmas"])
        pointers = "".join(f" {_POINTER_SYMBOLS[kind]} {target:08d} n 0000"
                           for kind, target in entry["relations"])
        data.append(f"{entry['offset']:08d} 03 n {len(entry['lemmas']):02x} "
                    f"{words} {len(entry['relations']):03d}{pointers} | "
                    f"{entry['gloss']}")
        for item in entry["lemmas"]:
            offsets_of.setdefault(item["lemma"], []).append(entry["offset"])
            if item["frequency"]:
                counts.append(f"{item['lemma']}%1:03:00:: "
                              f"{item['sense_number']} {item['frequency']}")
    index = ["  1 license"] + [
        f"{lemma} n {len(offs)} 0 {len(offs)} 0 "
        + " ".join(f"{off:08d}" for off in offs)
        for lemma, offs in sorted(offsets_of.items())]
    exc = [f"{k} {v}" for k, v in doc["exceptions"].items()]
    return ["\n".join(lines + [""]).encode()
            for lines in (index, data, counts, exc)]


@settings(max_examples=40, deadline=None)
@given(doc=_documents())
def test_wndb_and_fixture_loaders_agree_on_generated_stores(doc):
    # both loaders keep a repeated (kind, target) relation once
    from_wndb = load_wndb(*_wndb_files(doc))
    from_json = load_fixture(json.dumps(doc))
    # synsets in order, each with its senses in order, tag counts, gloss and
    # relations
    assert list(from_wndb.synsets.items()) == list(from_json.synsets.items())
    assert from_wndb.lemma_index == from_json.lemma_index
    assert from_wndb.exceptions == from_json.exceptions
