"""Candidate generation, salience scoring, selection, and the driver."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import (
    lexical_match,
    mapping_set_tuples,
    oracle_map_vocabulary,
    rank_desc,
)
from vocmap.evaluation import SweepGrid
from vocmap.mapper import (
    Candidate,
    CandidateTable,
    MapperConfig,
    MatchKind,
    _desc_ranks,
    _select,
    assign_relation,
    find_candidates,
    find_semantic_mapping,
    map_vocabulary,
    random_baseline_mapping,
    salience,
    select_best,
)
from vocmap.vocab import MappingRelation, Provenance, Term, Vocabulary
from vocmap.wordnet import SynsetId, WordSense, load_fixture

BAY = "http://example.org/vocab/term/k:natural/v:bay"
FIELD = "http://example.org/vocab/term/k:landuse/v:field"
STATION = "http://example.org/vocab/term/k:power/v:station"
POOL = "http://example.org/vocab/term/k:leisure/v:swimming_pool"


def _candidate(offset, f, ol, kind=MatchKind.COMPLETE, lemma="w",
               sense_number=1):
    sid = SynsetId("n", offset)
    ws = WordSense(lemma=lemma, synset=sid, sense_number=sense_number,
                   tag_frequency=f)
    return Candidate(synset=sid, word_sense=ws, match_kind=kind, f=f, ol=ol)


class TestLexicalMatch:
    def test_complete(self):
        assert lexical_match("university", "university") == "complete"

    def test_partial(self):
        assert lexical_match("pool", "swimming pool") == "partial"

    def test_no_match(self):
        assert lexical_match("sea", "bay") is None

    def test_collocation_complete(self):
        assert lexical_match("swimming_pool", "swimming pool") == "complete"

    def test_subsequence_must_be_contiguous(self):
        assert lexical_match("salt_pond", "salt water pond") is None


class TestFindCandidates:
    def test_no_matching_lemma(self, mini_store):
        term = Term(uri=BAY, pref_label="zzzz")
        assert find_candidates(term, "zzzz", mini_store, MapperConfig()) == []

    def test_overlap_filter_keeps_bay1_drops_bay2(self, mini_store, mini_vocab):
        term = mini_vocab.terms[BAY]
        config = MapperConfig(ol_min=1)
        candidates = find_candidates(term, "bay", mini_store, config)
        assert [c.synset.offset for c in candidates] == [150]
        loose = find_candidates(term, "bay", mini_store, MapperConfig())
        assert sorted(c.synset.offset for c in loose) == [150, 160]

    def test_frequency_filter_drops_field_sense_1(self, mini_store, mini_vocab):
        term = mini_vocab.terms[FIELD]
        candidates = find_candidates(term, "field", mini_store,
                                     MapperConfig(f_min=50))
        assert candidates == []
        kept = find_candidates(term, "field", mini_store, MapperConfig(f_min=49))
        assert [c.f for c in kept] == [49]

    def test_taxonomy_filter(self, mini_store, mini_vocab, mini_taxonomy):
        term = mini_vocab.terms[BAY]
        candidates = find_candidates(term, "bay", mini_store,
                                     MapperConfig(taxonomy=mini_taxonomy))
        assert [c.synset.offset for c in candidates] == [150]
        assert all(c.synset in mini_taxonomy for c in candidates)

    def test_indicator_values(self, mini_store, mini_vocab):
        term = mini_vocab.terms[BAY]
        (bay1,) = find_candidates(term, "bay", mini_store, MapperConfig(ol_min=1))
        assert (bay1.f, bay1.ol, bay1.match_kind) == (6, 4, MatchKind.COMPLETE)


class TestRankDesc:
    def test_distinct(self):
        assert rank_desc([49, 1, 7]) == [1, 3, 2]

    def test_ties_share_rank(self):
        assert rank_desc([5, 5, 2]) == [1, 1, 3]

    def test_singleton(self):
        assert rank_desc([42]) == [1]

    @given(st.lists(st.integers(0, 6), max_size=40))
    def test_sort_ranks_equal_counting_ranks(self, values):
        assert _desc_ranks(values) == rank_desc(values)


class TestSalience:
    def test_worked_example(self):
        # three candidates; the target has the top frequency, the second
        # overlap rank, and the taxonomy point
        target = _candidate(1, f=10, ol=3)
        others = [_candidate(2, f=5, ol=7), _candidate(3, f=5, ol=1)]
        assert salience(target, [target] + others) == 0.8

    def test_singleton_with_taxonomy_hit(self):
        c = _candidate(1, f=3, ol=0)
        assert salience(c, [c]) == 1.0

    def test_worst_case_is_the_taxonomy_point_alone(self):
        low = _candidate(1, f=1, ol=1)
        high = _candidate(2, f=2, ol=2)
        assert salience(low, [low, high]) == 1 / 3

    def test_bounds_over_random_sets(self):
        rng = random.Random(7)
        for _ in range(2000):
            n = rng.randint(1, 8)
            cands = [_candidate(i, f=rng.randint(0, 100),
                                ol=rng.randint(0, 10))
                     for i in range(n)]
            for c in cands:
                assert 0.0 < salience(c, cands) <= 1.0


class TestSelectBest:
    def test_singleton(self):
        c = _candidate(1, f=1, ol=1)
        assert select_best([c]) is c

    def test_strict_max(self):
        best = _candidate(1, f=10, ol=5)
        cands = [best, _candidate(2, f=1, ol=1), _candidate(3, f=1, ol=2)]
        assert select_best(cands) is best

    def test_tie_broken_by_frequency(self):
        # equal salience by symmetric ranks; the higher frequency wins
        a = _candidate(1, f=10, ol=1)
        b = _candidate(2, f=3, ol=2)
        assert salience(a, [a, b]) == salience(b, [a, b])
        assert select_best([a, b]) is a

    def test_tie_broken_by_offset_after_frequency(self):
        a = _candidate(5, f=3, ol=2)
        b = _candidate(2, f=3, ol=2)
        assert select_best([a, b]) is b

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            select_best([])

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    min_size=1, max_size=12))
    def test_equals_pairwise_salience_selection(self, values):
        cands = [_candidate(i % 3, f=f, ol=ol, sense_number=i + 1)
                 for i, (f, ol) in enumerate(values)]
        pairwise = min(cands, key=lambda c: (
            -salience(c, cands), -c.f, c.synset.offset, c.word_sense.lemma,
            c.word_sense.sense_number))
        assert select_best(cands) is pairwise
        assert _select(cands) == (pairwise, salience(pairwise, cands))


class TestAssignRelation:
    def test_singleton_complete_is_close(self):
        c = _candidate(1, f=1, ol=0)
        assert assign_relation(c, [c]) is MappingRelation.CLOSE

    def test_complete_but_not_max_frequency_is_related(self):
        best = _candidate(1, f=1, ol=5)
        rival = _candidate(2, f=9, ol=0, kind=MatchKind.PARTIAL)
        assert assign_relation(best, [best, rival]) is MappingRelation.RELATED

    def test_partial_never_close(self):
        c = _candidate(1, f=9, ol=9, kind=MatchKind.PARTIAL)
        assert assign_relation(c, [c]) is MappingRelation.RELATED


class TestRelationNeverExact:
    def test_random_candidate_sets(self):
        rng = random.Random(11)
        for _ in range(500):
            n = rng.randint(1, 6)
            cands = [_candidate(i, f=rng.randint(0, 50),
                                ol=rng.randint(0, 10),
                                kind=rng.choice(list(MatchKind)))
                     for i in range(n)]
            relation = assign_relation(select_best(cands), cands)
            assert relation in (MappingRelation.CLOSE, MappingRelation.RELATED)


class TestFindSemanticMapping:
    def test_unmatched_label_gives_none(self, mini_store):
        term = Term(uri=BAY, pref_label="qqqq")
        assert find_semantic_mapping(term, mini_store, MapperConfig()) is None

    def test_bay_maps_close_to_bay_1(self, mini_store, mini_vocab,
                                     mini_taxonomy):
        config = MapperConfig(ol_min=1, f_min=1, taxonomy=mini_taxonomy)
        mapping = find_semantic_mapping(mini_vocab.terms[BAY], mini_store,
                                        config)
        assert mapping.relation is MappingRelation.CLOSE
        assert mapping.synset == "bay-noun-1"
        assert mapping.score == 1.0

    def test_taxonomy_rescues_bay_from_frequent_wrong_sense(
            self, mini_store, mini_vocab, mini_taxonomy):
        term = mini_vocab.terms[BAY]
        off = find_semantic_mapping(term, mini_store, MapperConfig())
        assert (off.relation, off.synset) == (MappingRelation.RELATED,
                                              "bay-noun-2")
        on = find_semantic_mapping(term, mini_store,
                                   MapperConfig(taxonomy=mini_taxonomy))
        assert (on.relation, on.synset) == (MappingRelation.CLOSE,
                                            "bay-noun-1")

    def test_compound_label_with_collocation(self, mini_store, mini_vocab):
        mapping = find_semantic_mapping(mini_vocab.terms[POOL], mini_store,
                                        MapperConfig(ol_min=1, f_min=1))
        assert mapping.relation is MappingRelation.CLOSE
        assert mapping.synset == "swimming_pool-noun-1"
        assert mapping.source_word == "swimming_pool"

    def test_compound_label_splits_without_collocation(self, mini_vocab,
                                                       fixtures_dir):
        import json
        doc = json.loads((fixtures_dir / "wordnet_mini.json").read_text())
        doc["synsets"] = [s for s in doc["synsets"] if s["offset"] != 146]
        store = load_fixture(json.dumps(doc))
        mapping = find_semantic_mapping(mini_vocab.terms[POOL], store,
                                        MapperConfig())
        assert mapping is not None
        assert mapping.synset == "pool-noun-1"
        assert mapping.relation is MappingRelation.RELATED

    def test_alt_labels_only_when_enabled(self, mini_store):
        term = Term(uri=BAY, pref_label="qqqq", alt_labels=("river",))
        assert find_semantic_mapping(term, mini_store, MapperConfig()) is None
        mapping = find_semantic_mapping(
            term, mini_store, MapperConfig(use_alt_labels=True))
        assert mapping.synset == "river-noun-1"


class TestMapVocabulary:
    def test_empty_vocabulary(self, mini_store):
        result = map_vocabulary(Vocabulary([]), mini_store, MapperConfig())
        assert len(result) == 0

    def test_definition_term_mapping(self, mini_store, mini_vocab,
                                     mini_taxonomy):
        config = MapperConfig(ol_min=1, f_min=1, taxonomy=mini_taxonomy)
        result = map_vocabulary(mini_vocab, mini_store, config)
        assert (STATION, MappingRelation.RELATED,
                "electricity-noun-1") in result.triples

    def test_definition_mappings_are_related(self, mini_store, mini_vocab):
        result = map_vocabulary(mini_vocab, mini_store, MapperConfig())
        for m in result:
            if m.provenance is Provenance.DEFINITION:
                assert m.relation is MappingRelation.RELATED

    def test_own_label_never_a_definition_target(self, mini_store, mini_vocab):
        result = map_vocabulary(mini_vocab, mini_store, MapperConfig())
        for m in result:
            if m.provenance is Provenance.DEFINITION:
                assert m.source_word not in ("bay", "river", "station",
                                             "swimming_pool", "field")

    def test_optimal_configuration_output(self, mini_store, mini_vocab,
                                          mini_taxonomy):
        config = MapperConfig(ol_min=1, f_min=1, taxonomy=mini_taxonomy)
        result = map_vocabulary(mini_vocab, mini_store, config)
        assert result.triples == EXPECTED_OPTIMAL_TRIPLES

    @pytest.mark.parametrize("taxonomy_on,f_min,ol_min", [
        (False, 0, 0), (True, 0, 0), (False, 1, 1), (True, 1, 1),
        (True, 5, 2), (False, 100, 0), (True, 0, 10),
    ])
    def test_matches_oracle(self, mini_store, mini_vocab, mini_taxonomy,
                            taxonomy_on, f_min, ol_min):
        taxonomy = mini_taxonomy if taxonomy_on else None
        config = MapperConfig(ol_min=ol_min, f_min=f_min, taxonomy=taxonomy)
        produced = mapping_set_tuples(
            map_vocabulary(mini_vocab, mini_store, config))
        expected = oracle_map_vocabulary(mini_vocab, mini_store,
                                         ol_min=ol_min, f_min=f_min,
                                         taxonomy=taxonomy)
        assert produced == expected

    def test_unmapped_terms_reported(self, mini_store):
        vocabulary = Vocabulary([Term(uri=BAY, pref_label="qqqq")])
        result = map_vocabulary(vocabulary, mini_store, MapperConfig())
        assert any("no label mapping" in w for w in result.warnings)


class TestCandidateTable:
    FLOOR = (True, 1, 2)  # (taxonomy_on, f_min, ol_min)

    def _config(self, point, taxonomy):
        taxonomy_on, f_min, ol_min = point
        return MapperConfig(ol_min=ol_min, f_min=f_min,
                            taxonomy=taxonomy if taxonomy_on else None)

    def test_floor_table_selects_as_unfloored_table(self, mini_store,
                                                    mini_vocab,
                                                    mini_taxonomy):
        floored = CandidateTable(mini_vocab, mini_store,
                                 self._config(self.FLOOR, mini_taxonomy))
        unfloored = CandidateTable(mini_vocab, mini_store, MapperConfig())
        on, f_floor, ol_floor = self.FLOOR
        above = [p for p in SweepGrid().points()
                 if p[0] == on and p[1] >= f_floor and p[2] >= ol_floor]
        assert len(above) == 17 * 9
        for point in above:
            config = self._config(point, mini_taxonomy)
            assert mapping_set_tuples(floored.select(config)) \
                == mapping_set_tuples(unfloored.select(config))

    def test_floor_table_builds_fewer_rows(self, mini_store, mini_vocab,
                                           mini_taxonomy):
        def _rows(table):
            return sum(len(rows) for _, passes in table.terms
                       for _, forms in passes for _, rows, _, _ in forms)

        floored = CandidateTable(mini_vocab, mini_store,
                                 self._config(self.FLOOR, mini_taxonomy))
        unfloored = CandidateTable(mini_vocab, mini_store, MapperConfig())
        assert 0 < _rows(floored) < _rows(unfloored)

    @pytest.mark.parametrize("point", [(True, 0, 2), (True, 1, 1),
                                       (False, 1, 2)])
    def test_config_below_the_floor_is_rejected(self, mini_store, mini_vocab,
                                                mini_taxonomy, point):
        table = CandidateTable(mini_vocab, mini_store,
                               self._config(self.FLOOR, mini_taxonomy))
        with pytest.raises(ValueError, match="floor"):
            table.select(self._config(point, mini_taxonomy))

    def test_other_taxonomy_than_the_floor_is_rejected(self, mini_store,
                                                       mini_vocab,
                                                       mini_taxonomy):
        table = CandidateTable(mini_vocab, mini_store,
                               MapperConfig(taxonomy=mini_taxonomy))
        narrower = frozenset(list(mini_taxonomy)[:3])
        with pytest.raises(ValueError, match="floor"):
            table.select(MapperConfig(taxonomy=narrower))
        assert mapping_set_tuples(table.select(
            MapperConfig(taxonomy=frozenset(mini_taxonomy)))) \
            == mapping_set_tuples(map_vocabulary(
                mini_vocab, mini_store, MapperConfig(taxonomy=mini_taxonomy)))

    def test_alt_label_setting_must_match_the_floor(self, mini_store,
                                                    mini_vocab):
        table = CandidateTable(mini_vocab, mini_store, MapperConfig())
        with pytest.raises(ValueError, match="floor"):
            table.select(MapperConfig(use_alt_labels=True))


class TestRandomBaseline:
    def test_same_seed_is_deterministic(self, mini_store, mini_vocab):
        a = random_baseline_mapping(mini_vocab, mini_store, seed=42)
        b = random_baseline_mapping(mini_vocab, mini_store, seed=42)
        assert mapping_set_tuples(a) == mapping_set_tuples(b)

    def test_single_sense_forced(self, mini_store):
        vocabulary = Vocabulary([Term(uri=BAY, pref_label="river")])
        for seed in range(10):
            result = random_baseline_mapping(vocabulary, mini_store, seed=seed)
            assert [m.synset for m in result] == ["river-noun-1"]

    def test_all_relations_related(self, mini_store, mini_vocab):
        result = random_baseline_mapping(mini_vocab, mini_store, seed=3)
        assert all(m.relation is MappingRelation.RELATED for m in result)

    def test_two_sense_term_is_roughly_uniform(self, mini_store):
        vocabulary = Vocabulary([Term(uri=FIELD, pref_label="field")])
        picks = {"field-noun-1": 0, "field-noun-12": 0}
        for seed in range(1000):
            result = random_baseline_mapping(vocabulary, mini_store, seed=seed)
            (mapping,) = list(result)
            picks[mapping.synset] += 1
        assert abs(picks["field-noun-1"] / 1000 - 0.5) <= 0.05


EXPECTED_OPTIMAL_TRIPLES = frozenset({
    (BAY, MappingRelation.CLOSE, "bay-noun-1"),
    (BAY, MappingRelation.RELATED, "water-noun-1"),
    (BAY, MappingRelation.RELATED, "sea-noun-1"),
    ("http://example.org/vocab/term/k:waterway/v:river",
     MappingRelation.CLOSE, "river-noun-1"),
    ("http://example.org/vocab/term/k:waterway/v:river",
     MappingRelation.RELATED, "water-noun-1"),
    ("http://example.org/vocab/term/k:waterway/v:river",
     MappingRelation.RELATED, "sea-noun-1"),
    (STATION, MappingRelation.CLOSE, "station-noun-1"),
    (STATION, MappingRelation.RELATED, "electricity-noun-1"),
    (POOL, MappingRelation.CLOSE, "swimming_pool-noun-1"),
    (FIELD, MappingRelation.CLOSE, "field-noun-1"),
})
