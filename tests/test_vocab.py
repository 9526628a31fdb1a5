"""Vocabulary parsing and mapping serialization."""

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vocmap.vocab import (
    WN20_SYNSET_NS,
    Mapping,
    MappingRelation,
    MappingSet,
    ParseError,
    Provenance,
    Term,
    load_gold,
    parse_vocabulary_ntriples,
    serialize_mappings_ntriples,
    serialize_mappings_tsv,
)

BAY = "http://example.org/vocab/term/k:natural/v:bay"
SKOS = "http://www.w3.org/2004/02/skos/core#"


class TestTermInvariants:
    def test_relative_uri_rejected(self):
        with pytest.raises(ValueError):
            Term(uri="not-an-iri", pref_label="bay")

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            Term(uri=BAY, pref_label="   ")

    def test_pref_label_trimmed(self):
        assert Term(uri=BAY, pref_label=" bay ").pref_label == "bay"

    def test_alt_labels_drop_pref_label_duplicate(self):
        term = Term(uri=BAY, pref_label="bay",
                    alt_labels=("bay", "cove", "cove", "inlet"))
        assert term.alt_labels == ("cove", "inlet")

    def test_duplicate_term_ids_rejected(self):
        from vocmap.vocab import Vocabulary
        with pytest.raises(ValueError, match="duplicate term id"):
            Vocabulary([Term(uri=BAY, pref_label="bay"),
                        Term(uri=BAY, pref_label="cove")])


class TestMappingInvariants:
    def test_score_bounds(self):
        with pytest.raises(ValueError):
            Mapping(term=BAY, relation=MappingRelation.CLOSE,
                    synset="bay-noun-1", score=1.5)

    def test_definition_provenance_forces_related(self):
        with pytest.raises(ValueError):
            Mapping(term=BAY, relation=MappingRelation.CLOSE,
                    synset="bay-noun-1", provenance=Provenance.DEFINITION)

    def test_relation_predicate_roundtrip(self):
        for relation in MappingRelation:
            mapping = Mapping(term=BAY, relation=relation, synset="bay-noun-1")
            payload = serialize_mappings_ntriples(MappingSet([mapping]))
            assert [m.relation for m in load_gold(payload)] == [relation]

    def test_duplicate_triples_collapse(self):
        a = Mapping(term=BAY, relation=MappingRelation.CLOSE,
                    synset="bay-noun-1", score=0.9)
        b = Mapping(term=BAY, relation=MappingRelation.CLOSE,
                    synset="bay-noun-1", score=0.4)
        assert len(MappingSet([a, b])) == 1


class TestParseVocabulary:
    def test_empty_input(self):
        assert len(parse_vocabulary_ntriples(b"")) == 0

    def test_single_term(self):
        data = (
            f'<{BAY}> <{SKOS}prefLabel> "bay"@en .\n'
            f'<{BAY}> <{SKOS}definition> "A body of water." .\n'
        )
        vocabulary = parse_vocabulary_ntriples(data)
        assert len(vocabulary) == 1
        term = vocabulary.terms[BAY]
        assert term.pref_label == "bay"
        assert term.definition == "A body of water."

    def test_mini_fixture(self, mini_vocab):
        # five subjects carry a prefLabel; the sixth has only a definition
        assert len(mini_vocab) == 5
        labels = {t.pref_label for t in mini_vocab}
        assert labels == {"bay", "river", "station", "swimming pool", "field"}
        assert BAY in mini_vocab.terms

    def test_repeated_pref_label_warns_and_keeps_first(self, mini_vocab):
        assert mini_vocab.terms[BAY].pref_label == "bay"
        assert any("repeated prefLabel" in w for w in mini_vocab.warnings)

    def test_subject_without_label_skipped_with_warning(self, mini_vocab):
        assert any("no prefLabel" in w for w in mini_vocab.warnings)

    def test_english_label_preferred(self):
        data = (
            f'<{BAY}> <{SKOS}prefLabel> "baie"@fr .\n'
            f'<{BAY}> <{SKOS}prefLabel> "bay"@en .\n'
        )
        assert parse_vocabulary_ntriples(data).terms[BAY].pref_label == "bay"

    def test_unresolved_link_targets_flagged_external(self, mini_vocab):
        assert ("http://example.org/vocab/term/k:natural/v:water_body"
                in mini_vocab.external_refs)
        river = "http://example.org/vocab/term/k:waterway/v:river"
        assert BAY in mini_vocab.terms[river].related
        assert BAY not in mini_vocab.external_refs

    def test_malformed_line_reports_line_number(self):
        data = f'<{BAY}> <{SKOS}prefLabel> "bay"@en .\nnot a triple\n'
        with pytest.raises(ParseError) as err:
            parse_vocabulary_ntriples(data)
        assert err.value.line_no == 2

    def test_literal_escapes(self):
        data = f'<{BAY}> <{SKOS}prefLabel> "a \\"bay\\" \\u0041" .\n'
        term = parse_vocabulary_ntriples(data).terms[BAY]
        assert term.pref_label == 'a "bay" A'

    def test_long_escape_and_digits_after_short_escape(self):
        data = (f'<{BAY}> <{SKOS}prefLabel> "\\U0001F30A \\u00e9t\\u00E9"'
                " .\n")
        term = parse_vocabulary_ntriples(data).terms[BAY]
        assert term.pref_label == "\U0001F30A \u00e9t\u00e9"
        data = f'<{BAY}> <{SKOS}prefLabel> "\\u00411" .\n'
        assert parse_vocabulary_ntriples(data).terms[BAY].pref_label == "A1"

    @pytest.mark.parametrize("body, message", [
        ("a\\u12", "4 hex digits"),
        ("a\\u", "4 hex digits"),
        ("\\u12g4", "4 hex digits"),
        ("\\u+123", "4 hex digits"),
        ("\\U0001F3", "8 hex digits"),
        ("\\U0000_041", "8 hex digits"),
        ("\\U0011FFFF", "not a Unicode scalar value"),
        ("\\uD800", "not a Unicode scalar value"),
        ("\\U0000DFFF", "not a Unicode scalar value"),
    ])
    def test_malformed_escape_reports_line_number(self, body, message):
        data = f'# comment\n<{BAY}> <{SKOS}prefLabel> "{body}" .\n'
        with pytest.raises(ParseError, match=message) as err:
            parse_vocabulary_ntriples(data)
        assert err.value.line_no == 2

    def test_relative_subject_reports_its_first_line(self):
        data = (f'<{BAY}> <{SKOS}prefLabel> "bay" .\n'
                f'<bay> <{SKOS}definition> "A body of water." .\n'
                f'<bay> <{SKOS}prefLabel> "bay" .\n')
        with pytest.raises(ParseError, match="not an absolute IRI") as err:
            parse_vocabulary_ntriples(data)
        assert err.value.line_no == 2

    def test_invalid_utf8_reports_line_number(self):
        data = (f'<{BAY}> <{SKOS}prefLabel> "bay" .\n'
                f'<{BAY}> <{SKOS}definition> "').encode() + b'\xff" .\n'
        with pytest.raises(ParseError, match="UTF-8") as err:
            parse_vocabulary_ntriples(data)
        assert err.value.line_no == 2

    @given(st.text())
    def test_any_literal_body_parses_or_raises_parse_error(self, body):
        data = f'<{BAY}> <{SKOS}prefLabel> "{body}"@en .\n'
        try:
            parse_vocabulary_ntriples(data)
        except ParseError:
            pass

    @given(st.binary())
    def test_any_literal_bytes_parse_or_raise_parse_error(self, body):
        data = (f'<{BAY}> <{SKOS}definition> "'.encode() + body
                + f'" .\n<{BAY}> <{SKOS}prefLabel> "bay" .\n'.encode())
        try:
            parse_vocabulary_ntriples(data)
        except ParseError:
            pass


def _mapping(term_suffix, relation, synset, score=1.0):
    return Mapping(term=f"http://example.org/t/{term_suffix}",
                   relation=relation, synset=synset, score=score)


class TestSerializeMappings:
    def test_empty_set_is_empty_bytes(self):
        assert serialize_mappings_ntriples(MappingSet([])) == b""

    def test_close_mapping_line(self):
        mset = MappingSet([_mapping("bay", MappingRelation.CLOSE, "bay-noun-1")])
        line = serialize_mappings_ntriples(mset).decode()
        assert f"<{SKOS}closeMatch>" in line
        assert "wn20/instances/synset-bay-noun-1>" in line

    def test_insertion_order_does_not_change_bytes(self):
        a = _mapping("bay", MappingRelation.CLOSE, "bay-noun-1")
        b = _mapping("river", MappingRelation.RELATED, "water-noun-1")
        assert (serialize_mappings_ntriples(MappingSet([a, b]))
                == serialize_mappings_ntriples(MappingSet([b, a])))

    def test_tsv_empty_is_header_only(self):
        tsv = serialize_mappings_tsv(MappingSet([])).decode()
        assert tsv == "term\trelation\tsynset\tscore\tprovenance\tsource_word\n"

    def test_tsv_score_four_decimals(self):
        mset = MappingSet([_mapping("bay", MappingRelation.CLOSE,
                                    "bay-noun-1", score=0.8)])
        assert "\t0.8000\t" in serialize_mappings_tsv(mset).decode()

    def test_tsv_line_count(self):
        mset = MappingSet([
            _mapping("a", MappingRelation.CLOSE, "bay-noun-1"),
            _mapping("b", MappingRelation.RELATED, "sea-noun-1"),
            _mapping("c", MappingRelation.EXACT, "water-noun-1"),
        ])
        assert len(serialize_mappings_tsv(mset).decode().splitlines()) == 4


class TestLoadGold:
    def test_roundtrip(self):
        mset = MappingSet([
            _mapping("bay", MappingRelation.CLOSE, "bay-noun-1", score=0.8),
            _mapping("bay", MappingRelation.RELATED, "sea-noun-1", score=0.5),
        ])
        loaded = load_gold(serialize_mappings_ntriples(mset))
        assert loaded.triples == mset.triples
        assert all(m.score == 1.0 for m in loaded)

    def test_gold_fixture_count(self, mini_gold):
        assert len(mini_gold) == 7

    def test_non_mapping_predicate_ignored(self):
        data = (
            f'<{BAY}> <{SKOS}closeMatch> '
            '<http://www.w3.org/2006/03/wn/wn20/instances/synset-bay-noun-1> .\n'
            f'<{BAY}> <{SKOS}related> <http://example.org/t/other> .\n'
        )
        loaded = load_gold(data)
        assert len(loaded) == 1
        assert any("not a mapping property" in w for w in loaded.warnings)

    def test_foreign_object_namespace_ignored(self):
        data = f'<{BAY}> <{SKOS}closeMatch> <http://example.org/elsewhere> .\n'
        loaded = load_gold(data)
        assert len(loaded) == 0
        assert loaded.warnings

    def test_relative_subject_reports_its_line(self):
        data = (f"<{BAY}> <{SKOS}closeMatch> <{WN20_SYNSET_NS}bay-noun-1> .\n"
                f"<foo> <{SKOS}closeMatch> <{WN20_SYNSET_NS}bay-noun-1> .\n")
        with pytest.raises(ParseError, match="not an absolute IRI") as err:
            load_gold(data)
        assert err.value.line_no == 2


_relations = st.sampled_from(list(MappingRelation))
_synsets = st.sampled_from(["bay-noun-1", "sea-noun-1", "water-noun-1",
                            "river-noun-1", "field-noun-12"])
_mappings = st.builds(
    Mapping,
    term=st.sampled_from([f"http://example.org/t/{i}" for i in range(4)]),
    relation=_relations,
    synset=_synsets,
    score=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class TestSerializationProperties:
    @given(st.lists(_mappings, max_size=12), st.randoms())
    def test_permutation_invariance(self, mappings, rng):
        shuffled = list(mappings)
        rng.shuffle(shuffled)
        assert (serialize_mappings_ntriples(MappingSet(mappings))
                == serialize_mappings_ntriples(MappingSet(shuffled)))

    @given(st.lists(_mappings, max_size=12))
    def test_roundtrip_up_to_scores(self, mappings):
        mset = MappingSet(mappings)
        assert load_gold(serialize_mappings_ntriples(mset)).triples == mset.triples


_GOLD = (Path(__file__).parent / "fixtures" / "gold_mini.nt").read_bytes()


class TestLoadGoldContract:
    """On any input ``load_gold`` returns a mapping set or raises
    ``ParseError``."""

    @given(st.binary())
    def test_any_bytes(self, data):
        _mapping_set_or_parse_error(data)

    @given(st.tuples(st.integers(0, len(_GOLD)), st.integers(0, 16),
                     st.binary(max_size=16)))
    def test_spliced_gold_file(self, splice):
        at, length, replacement = splice
        _mapping_set_or_parse_error(_GOLD[:at] + replacement
                                    + _GOLD[at + length:])


def _mapping_set_or_parse_error(data):
    try:
        assert isinstance(load_gold(data), MappingSet)
    except ParseError:
        pass
