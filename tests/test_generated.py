"""The mapper, the random baseline and the trigram baselines against the
brute-force references in tests/oracle.py, on small generated stores and
vocabularies; the sweep against one mapping per grid point; and the WNDB
loader against the fixture loader on the same generated stores.

Lemmas, glosses, labels and definitions all draw on one small word pool, so
lexical matches, collocations and gloss overlaps are frequent.  Labels are
drawn as a user might type them, padded or with repeated spaces: only the
code under test cleans them.
"""

import json

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from oracle import (mapping_set_tuples, oracle_extract_definition_terms,
                    oracle_map_vocabulary, oracle_random_baseline,
                    oracle_trigram_baseline)
from wndb_text import wndb_files as _wndb_files
from vocmap.evaluation import (SweepGrid, evaluate, run_sweep,
                               trigram_baseline_mapping)
from vocmap.mapper import MapperConfig, map_vocabulary, random_baseline_mapping
from vocmap.text import default_stopwords, extract_definition_terms
from vocmap.vocab import Term, Vocabulary
from vocmap.wordnet import (HYPONYM_OF, PART_MERONYM_OF, load_fixture,
                            load_wndb)

WORDS = ("bay", "sea", "pool", "salt", "water", "power", "station", "mouse")
# inflected forms the lemmatizer reduces, and stopwords it drops
INFLECTED = ("pools", "seas", "stations", "mice")
TEXT_WORDS = WORDS + INFLECTED + ("the", "of", "a")
# the grid's f_min values that tag counts can straddle
F_MIN_VALUES = (0, 1, 2, 5, 10, 40)
# an oracle property does not shrink a failing example: each shrink step
# reruns the brute-force oracle, and a failure took minutes to report
ORACLE_PHASES = (Phase.explicit, Phase.reuse, Phase.generate)


def _text(min_size, max_size):
    return st.lists(st.sampled_from(TEXT_WORDS), min_size=min_size,
                    max_size=max_size).map(" ".join)


# a store lemma: a word of the pool, or a collocation of two
_lemmas = st.one_of(
    st.sampled_from(WORDS),
    st.tuples(st.sampled_from(WORDS), st.sampled_from(WORDS)).map("_".join))


@st.composite
def _documents(draw):
    """A fixture document of 3-20 synsets with an acyclic relation graph,
    their offsets in no particular order."""
    senses_of: dict[str, int] = {}
    synsets = []
    offsets = draw(st.permutations(range(1, draw(st.integers(3, 20)) + 1)))
    for i, offset in enumerate(offsets):
        entry_lemmas = []
        for lemma in draw(st.lists(_lemmas, min_size=1, max_size=3,
                                   unique=True)):
            senses_of[lemma] = senses_of.get(lemma, 0) + 1
            entry_lemmas.append({
                "lemma": lemma, "sense_number": senses_of[lemma],
                "frequency": draw(st.sampled_from((0, 0, 0, 1, 3, 7, 50)))})
        # a relation points to a synset listed earlier
        relations = [] if i == 0 else draw(st.lists(
            st.tuples(st.sampled_from((HYPONYM_OF, PART_MERONYM_OF)),
                      st.sampled_from(offsets[:i])).map(list), max_size=2))
        synsets.append({"offset": offset, "lemmas": entry_lemmas,
                        "gloss": draw(_text(0, 8)), "relations": relations})
    exceptions = draw(st.sampled_from(({}, {"mice": "mouse"})))
    collocations = sorted(lemma for lemma in senses_of if "_" in lemma)
    if collocations and draw(st.booleans()):
        # a '_'-joined key that only noun.exc maps onto a collocation: no
        # store lemma starts with an inflected word
        key = draw(st.tuples(st.sampled_from(INFLECTED),
                             st.sampled_from(TEXT_WORDS)).map("_".join))
        exceptions = {**exceptions, key: draw(st.sampled_from(collocations))}
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
        label = draw(labels)
        # the preferred label as typed: padded, or with spaces repeated
        pref_label = draw(st.sampled_from((label, f"  {label} ",
                                           label.replace(" ", "   "))))
        # an alternative label may repeat the preferred label's tokens in
        # another case, with punctuation or padded, which gives no new form
        variants = st.sampled_from((label.upper(), label + "!",
                                    f"-{label.title()}-", f"  {label} "))
        terms.append(Term(
            uri=f"http://example.org/t{k}", pref_label=pref_label,
            alt_labels=tuple(draw(st.lists(st.one_of(labels, variants),
                                           max_size=2))),
            definition=draw(st.one_of(st.none(), _text(0, 10)))))
    roots = draw(st.lists(st.sampled_from(sorted(store.synsets)),
                          min_size=1, max_size=2))
    return store, Vocabulary(terms), store.taxonomy_closure(roots)


@settings(max_examples=40, deadline=None, phases=ORACLE_PHASES)
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


@settings(max_examples=40, deadline=None, phases=ORACLE_PHASES)
@given(case=_cases(), seed=st.integers(0, 5))
def test_random_baseline_equals_oracle_on_generated_stores(case, seed):
    store, vocabulary, _ = case
    assert mapping_set_tuples(random_baseline_mapping(
        vocabulary, store, seed=seed)) == oracle_random_baseline(
        vocabulary, store, seed=seed)


@settings(max_examples=40, deadline=None, phases=ORACLE_PHASES)
@given(case=_cases(),
       threshold=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0, 1)),
       strategy=st.sampled_from(("labels", "definitions")))
def test_trigram_baseline_equals_oracle_on_generated_stores(case, threshold,
                                                            strategy):
    store, vocabulary, _ = case
    got = trigram_baseline_mapping(vocabulary, store, threshold=threshold,
                                   strategy=strategy)
    # whole tuples, exact scores included, in the order they are emitted
    assert [(m.term, m.relation.value, m.synset, m.score, m.provenance.value,
             m.source_word) for m in got] == oracle_trigram_baseline(
        vocabulary, store, threshold, strategy)


@st.composite
def _definitions(draw):
    """A store, and a definition whose words repeat its lemmas, its
    collocations and its exception keys among the pool's words and
    inflections."""
    store = draw(_stores)
    words = st.one_of(st.sampled_from(TEXT_WORDS), st.sampled_from(
        sorted({*store.lemma_index, *store.exceptions})).map(
        lambda lemma: lemma.replace("_", " ")))
    return store, draw(st.one_of(
        st.none(), st.lists(words, max_size=12).map(" ".join)))


@settings(max_examples=100, deadline=None)
@given(case=_definitions(), exclude=st.sets(_lemmas, max_size=4))
def test_definition_terms_equal_oracle_on_generated_stores(case, exclude):
    store, definition = case
    stopwords = default_stopwords()
    assert extract_definition_terms(definition, store, stopwords, exclude) \
        == oracle_extract_definition_terms(definition, store, stopwords,
                                           exclude)


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
