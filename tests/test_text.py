"""Tokenization, lemmatization, and overlap pipeline."""

import hashlib
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import lexical_overlap, oracle_tokenize
from vocmap.text import (
    compound_candidates,
    default_stopwords,
    extract_definition_terms,
    lemmatize_noun,
    normalize_definition,
    tokenize,
)
from vocmap.wordnet import load_fixture


def _store(*lemmas, exceptions=None):
    synsets = [{"offset": i, "lemmas": [{"lemma": lemma}]}
               for i, lemma in enumerate(lemmas)]
    import json
    return load_fixture(json.dumps({"synsets": synsets,
                                    "exceptions": exceptions or {}}))


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_sentence(self):
        assert tokenize("A large body of water, partially enclosed") == \
            ["a", "large", "body", "of", "water", "partially", "enclosed"]

    def test_single_word(self):
        assert tokenize("bay") == ["bay"]

    def test_hyphens_kept_inside_words(self):
        assert tokenize("an ox-bow lake - nearby") == ["an", "ox-bow",
                                                       "lake", "nearby"]

    def test_punctuation_discarded(self):
        assert tokenize("(bays); rivers!") == ["bays", "rivers"]

    # hyphen runs inside, around and between words; U+0130 lowercases to
    # 'i' and a combining dot, and 'ß' stays outside a-z
    @given(st.one_of(st.text(), st.text(alphabet="ab9Z-- _.'\u0130\u00df")))
    def test_equals_the_reference(self, text):
        assert tokenize(text) == oracle_tokenize(text)


class TestLemmatizeNoun:
    def test_plural_s(self):
        assert lemmatize_noun("rivers", _store("river")) == "river"

    def test_men_rule(self):
        assert lemmatize_noun("men", _store("man")) == "man"

    def test_exception_map_first(self):
        store = _store("ox", exceptions={"oxen": "ox"})
        assert lemmatize_noun("oxen", store) == "ox"

    def test_unknown_token_unchanged(self):
        assert lemmatize_noun("cuesta", _store("river")) == "cuesta"

    def test_rule_result_must_exist_in_store(self):
        # the s-rule result is rejected when it is not a known lemma
        assert lemmatize_noun("glass", _store("river")) == "glass"
        assert lemmatize_noun("stations", _store("station")) == "station"

    def test_ies_rule(self):
        assert lemmatize_noun("cities", _store("city")) == "city"

    def test_ches_rule(self):
        assert lemmatize_noun("churches", _store("church")) == "church"

    @pytest.mark.parametrize("first", [0, 1])
    def test_each_store_keeps_its_own_base_forms(self, first):
        # the base forms are kept per store: one token reduced on two
        # inventories gives each store's answer, whichever comes first
        stores = [(_store("station", exceptions={"mice": "mouse"}),
                   {"stations": "station", "mice": "mouse"}),
                  (_store("river"), {"stations": "stations", "mice": "mice"})]
        for store, want in stores[first:] + stores[:first]:
            for token, base in want.items():
                assert lemmatize_noun(token, store) == base
                # the second call reads the base form the store kept
                assert lemmatize_noun(token, store) == base


class TestNormalizeDefinition:
    def test_definition_equal_to_label_is_empty(self):
        store = _store("river")
        stopwords = default_stopwords()
        assert normalize_definition("river", {"river"}, store, stopwords) \
            == frozenset()

    def test_river_worked_example(self, mini_store):
        stopwords = default_stopwords()
        term_bag = normalize_definition("A river is a body of water",
                                        {"river"}, mini_store, stopwords)
        gloss_bag = normalize_definition("Rivers are natural streams of water",
                                         {"river"}, mini_store, stopwords)
        assert term_bag & gloss_bag == {"water"}
        assert lexical_overlap(term_bag, gloss_bag) == 1

    def test_stopword_only_text(self, mini_store):
        assert normalize_definition("of the and", set(), mini_store,
                                    default_stopwords()) == frozenset()

    def test_stopword_reached_only_by_lemmatization(self):
        # 'others' is no stopword, but its base form 'other' is
        store = _store("other", "river")
        stopwords = default_stopwords()
        assert "others" not in stopwords and "other" in stopwords
        assert lemmatize_noun("others", store) == "other"
        assert normalize_definition("others rivers", (), store,
                                    stopwords) == {"river"}

    def test_idempotent_on_own_output(self, mini_store):
        stopwords = default_stopwords()
        texts = [
            "A river is a body of water flowing towards the sea.",
            "an indentation of the sea into the land with a wide mouth",
            "a piece of open land cleared of trees and usually enclosed",
        ]
        for text in texts:
            bag = normalize_definition(text, set(), mini_store, stopwords)
            again = normalize_definition(" ".join(sorted(bag)), set(),
                                         mini_store, stopwords)
            assert again == bag

    @given(st.lists(st.sampled_from(["rivers", "of", "the", "water", "men",
                                     "bay", "stations", "sea", "land"]),
                    max_size=12),
           st.sets(st.sampled_from(["river", "water", "man", "bay", "the"])))
    def test_exclusion_is_set_difference(self, words, exclude):
        store = _store("river", "water", "man", "bay", "station", "sea")
        stopwords = default_stopwords()
        text = " ".join(words)
        assert normalize_definition(text, exclude, store, stopwords) \
            == normalize_definition(text, (), store, stopwords) - exclude


class TestLexicalOverlap:
    def test_disjoint(self):
        assert lexical_overlap({"a", "b"}, {"c"}) == 0

    def test_identical_bags(self):
        bag = {"a", "b", "c", "d", "e"}
        assert lexical_overlap(bag, bag) == 5

    @given(st.sets(st.text(min_size=1, max_size=6), max_size=10),
           st.sets(st.text(min_size=1, max_size=6), max_size=10))
    def test_symmetric_and_bounded(self, a, b):
        assert lexical_overlap(a, b) == lexical_overlap(b, a)
        assert 0 <= lexical_overlap(a, b) <= min(len(a), len(b))


class TestCompoundCandidates:
    def test_multiword(self):
        assert compound_candidates("swimming pool") == \
            ["swimming_pool", "swimming", "pool"]

    def test_single_token(self):
        assert compound_candidates("bay") == ["bay"]

    def test_salt_pond(self):
        assert compound_candidates("salt pond") == ["salt_pond", "salt", "pond"]

    @given(st.text(alphabet="abc ", max_size=30))
    def test_shape(self, label):
        forms = compound_candidates(label)
        tokens = tokenize(label)
        if not tokens:
            assert forms == []
        elif len(tokens) == 1:
            assert forms == tokens
        else:
            assert forms[0] == "_".join(tokens)
            assert len(forms) == len(tokens) + 1


class TestExtractDefinitionTerms:
    def test_empty_definition(self, mini_store):
        assert extract_definition_terms("", mini_store,
                                        default_stopwords()) == []

    def test_station_definition_contains_electricity(self, mini_store):
        terms = extract_definition_terms("station producing electricity",
                                         mini_store, default_stopwords())
        assert "electricity" in terms

    def test_collocation_preferred_over_parts(self, mini_store):
        terms = extract_definition_terms(
            "a fine swimming pool nearby", mini_store, default_stopwords())
        assert "swimming_pool" in terms
        assert "swimming" not in terms
        assert "pool" not in terms

    def test_exclusions_apply(self, mini_store):
        terms = extract_definition_terms(
            "a river joins the sea", mini_store, default_stopwords(),
            exclude={"river"})
        assert terms == ["sea"]

    def test_pair_that_only_noun_exc_makes_a_collocation(self):
        # no store lemma starts with 'attorneys_', and no suffix rule
        # reduces 'attorneys_general'; noun.exc maps the pair as a key
        store = _store("attorney_general", "attorney", "general",
                       exceptions={"attorneys_general": "attorney_general"})
        assert extract_definition_terms(
            "one of the attorneys general", store,
            default_stopwords()) == ["attorney_general"]

    def test_order_of_first_occurrence(self, mini_store):
        terms = extract_definition_terms(
            "water from the land reaches the sea as water", mini_store,
            default_stopwords())
        assert terms == ["water", "land", "sea"]


class TestStopwords:
    def test_list_pinned_by_digest(self):
        payload = resources.files("vocmap").joinpath(
            "data/stopwords_en.txt").read_bytes()
        assert hashlib.sha256(payload).hexdigest() == STOPWORDS_SHA256

    def test_list_shape(self):
        words = default_stopwords()
        assert len(words) > 100
        assert all(w == w.lower() for w in words)
        assert {"a", "is", "of", "are", "the"} <= words

    @given(st.lists(st.sampled_from(
        ["the", "of", "water", "rivers", "is", "land", "seas", "and", "a"]),
        max_size=12))
    def test_no_stopword_ever_in_a_bag(self, mini_store, words):
        bag = normalize_definition(" ".join(words), set(), mini_store,
                                   default_stopwords())
        assert bag.isdisjoint(default_stopwords())


STOPWORDS_SHA256 = "1f78eb29ea5580d846e4df33cb9c72293e84809f3a4b36482a2ccb66c09eec11"
