"""WordNet store loading, lemma lookup, and taxonomy closures."""

import dataclasses
import gc
import json
import random
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vocmap.vocab import WN20_SYNSET_NS
from vocmap.wordnet import (
    HYPONYM_OF,
    PART_MERONYM_OF,
    LoadError,
    Synset,
    SynsetId,
    WordNetStore,
    WordSense,
    load_fixture,
    load_wndb,
    load_wndb_dir,
)


def _sid(offset):
    return SynsetId("n", offset)


def _fixture_bytes(synsets, exceptions=None):
    return json.dumps({"synsets": synsets, "exceptions": exceptions or {}})


def _simple_synset(offset, lemma, sense_number=1, frequency=0, gloss="",
                   relations=()):
    return {
        "offset": offset,
        "lemmas": [{"lemma": lemma, "sense_number": sense_number,
                    "frequency": frequency}],
        "gloss": gloss,
        "relations": [list(r) for r in relations],
    }


class TestFixtureLoader:
    def test_empty_document(self):
        store = load_fixture(b'{"synsets": []}')
        assert len(store) == 0
        assert store.lookup_senses("bay") == ()

    def test_mini_store_content(self, mini_store):
        assert len(mini_store) == 24
        field = mini_store.lookup_senses("field")
        assert [(ws.sense_number, ws.tag_frequency) for ws in field] \
            == [(1, 49), (12, 1)]
        assert len(mini_store.lookup_senses("swimming_pool")) == 1
        assert mini_store.lookup_senses("zzzz") == ()

    def test_duplicate_offset_rejected(self):
        data = _fixture_bytes([_simple_synset(1, "bay"),
                               _simple_synset(1, "sea")])
        with pytest.raises(LoadError, match="duplicate synset"):
            load_fixture(data)

    def test_missing_lemmas_rejected(self):
        with pytest.raises(LoadError, match="lemmas"):
            load_fixture(_fixture_bytes([{"offset": 1, "lemmas": []}]))

    def test_uppercase_lemma_rejected(self):
        with pytest.raises(LoadError, match="lowercase"):
            load_fixture(_fixture_bytes([_simple_synset(1, "Bay")]))

    def test_dangling_relation_rejected(self):
        data = _fixture_bytes(
            [_simple_synset(1, "bay", relations=[(HYPONYM_OF, 99)])])
        with pytest.raises(LoadError, match="unknown offset 99"):
            load_fixture(data)

    def test_duplicate_sense_number_rejected(self):
        data = _fixture_bytes([_simple_synset(1, "bay", sense_number=1),
                               _simple_synset(2, "bay", sense_number=1)])
        with pytest.raises(LoadError, match="duplicate sense number"):
            load_fixture(data)

    def test_duplicate_sense_number_among_several_senses(self):
        data = _fixture_bytes([_simple_synset(1, "bay", sense_number=3),
                               _simple_synset(2, "bay", sense_number=1),
                               _simple_synset(3, "bay", sense_number=3)])
        with pytest.raises(LoadError,
                           match="duplicate sense number 3 for lemma 'bay'"):
            load_fixture(data)

    def test_invalid_utf8_is_a_load_error(self):
        with pytest.raises(LoadError, match="invalid JSON"):
            load_fixture(b'{"synsets": [], "exceptions": {"\xff": "x"}}')

    @pytest.mark.parametrize("relations", [5, None, True, "", {}])
    def test_relations_must_be_a_list(self, relations):
        entry = dict(_simple_synset(1, "bay"), relations=relations)
        with pytest.raises(LoadError, match=r"synsets\[0\]\.relations must "
                                            "be a list"):
            load_fixture(_fixture_bytes([entry]))

    def test_deep_nesting_is_a_load_error(self):
        with pytest.raises(LoadError, match="invalid JSON"):
            load_fixture(b"[" * 100_000)

    def test_overlong_integer_is_a_load_error(self):
        with pytest.raises(LoadError, match="invalid JSON"):
            load_fixture(b'{"synsets": [], "x": ' + b"1" * 5000 + b"}")


class TestWndbLoader:
    def test_empty_files(self):
        store = load_wndb(b"", b"", b"", b"")
        assert len(store) == 0
        assert store.lookup_senses("anything") == ()

    def test_fragment_hand_parse(self, fixtures_dir):
        store = load_wndb_dir(fixtures_dir / "wndb")
        assert len(store) == 3

        water = store.lookup_senses("water")
        assert [(ws.sense_number, ws.tag_frequency) for ws in water] == [(1, 460)]
        assert store.gloss(_sid(130)) == "a clear liquid that fills rivers and seas"

        sea = store.synsets[_sid(140)]
        assert [(ws.lemma, ws.sense_number, ws.tag_frequency)
                for ws in sea.senses] == [("sea", 1, 27), ("brine", 1, 0)]
        assert (HYPONYM_OF, _sid(130)) in sea.relations

        bay = store.synsets[_sid(150)]
        assert (HYPONYM_OF, _sid(140)) in bay.relations
        assert (PART_MERONYM_OF, _sid(140)) in bay.relations
        assert store.exceptions == {"seas": "sea", "waters": "water"}

    def test_sense_missing_from_cntlist_gets_zero(self, fixtures_dir):
        store = load_wndb_dir(fixtures_dir / "wndb")
        (brine,) = store.lookup_senses("brine")
        assert brine.tag_frequency == 0

    def test_malformed_data_line_names_file_and_line(self):
        with pytest.raises(LoadError, match=r"data\.noun, line 1"):
            load_wndb(b"", b"00000001 17 n xx | broken\n")

    @pytest.mark.parametrize("name", ["data.noun", "index.noun",
                                      "cntlist.rev", "noun.exc"])
    def test_invalid_utf8_names_file_and_line(self, fixtures_dir, name):
        files = {f: (fixtures_dir / "wndb" / f).read_bytes()
                 for f in ("index.noun", "data.noun", "cntlist.rev",
                           "noun.exc")}
        line_no = files[name].count(b"\n") + 1
        files[name] += b"zz \xff\xfe\n"
        with pytest.raises(LoadError, match=rf"^{name}, line {line_no}: "
                                            r"invalid UTF-8"):
            load_wndb(files["index.noun"], files["data.noun"],
                      files["cntlist.rev"], files["noun.exc"])

    def test_invalid_utf8_inside_a_gloss(self, fixtures_dir):
        data = (fixtures_dir / "wndb" / "data.noun").read_bytes()
        corrupted = data.replace(b"| a clear", b"| \xff\xfea clear")
        assert corrupted != data
        index = (fixtures_dir / "wndb" / "index.noun").read_bytes()
        with pytest.raises(LoadError, match=r"data\.noun, line 3: "):
            load_wndb(index, corrupted)

    def test_dangling_pointer_rejected(self):
        data = b"00000001 17 n 01 bay 0 001 @ 00000099 n 0000 | gloss\n"
        index = b"bay n 1 1 @ 1 1 00000001\n"
        with pytest.raises(LoadError, match="99"):
            load_wndb(index, data)

    def test_fixture_and_wndb_loaders_are_interchangeable(self, fixtures_dir):
        from_wndb = load_wndb_dir(fixtures_dir / "wndb")
        from_json = load_fixture((fixtures_dir / "wndb_equiv.json").read_bytes())
        assert set(from_wndb.lemma_index) == set(from_json.lemma_index)
        for lemma in from_wndb.lemma_index:
            a = [(ws.lemma, ws.synset, ws.sense_number, ws.tag_frequency)
                 for ws in from_wndb.lookup_senses(lemma)]
            b = [(ws.lemma, ws.synset, ws.sense_number, ws.tag_frequency)
                 for ws in from_json.lookup_senses(lemma)]
            assert a == b
        for sid in from_wndb.synsets:
            assert from_wndb.gloss(sid) == from_json.gloss(sid)
        assert (from_wndb.taxonomy_closure([_sid(130)])
                == from_json.taxonomy_closure([_sid(130)]))
        assert from_wndb.exceptions == from_json.exceptions


class TestLemmaIndex:
    def test_index_is_inverse_of_sense_lists(self, mini_store):
        rebuilt = {}
        for synset in mini_store.synsets.values():
            for ws in synset.senses:
                rebuilt.setdefault(ws.lemma, []).append(ws)
        for senses in rebuilt.values():
            senses.sort(key=lambda ws: ws.sense_number)
        assert {k: tuple(v) for k, v in rebuilt.items()} == mini_store.lemma_index


class TestTaxonomyClosure:
    def test_single_leaf_root(self, mini_store):
        leaf = mini_store.resolve_synset_name("riverbed-noun-1")
        assert mini_store.taxonomy_closure([leaf]) == {leaf}

    def test_hand_checked_dag(self):
        store = load_fixture(_fixture_bytes([
            _simple_synset(1, "a"),
            _simple_synset(2, "b", relations=[(HYPONYM_OF, 1)]),
            _simple_synset(3, "c", relations=[(HYPONYM_OF, 1)]),
            _simple_synset(4, "d", relations=[(PART_MERONYM_OF, 2)]),
            _simple_synset(5, "e"),
        ]))
        closure = store.taxonomy_closure([_sid(1)])
        assert closure == {_sid(1), _sid(2), _sid(3), _sid(4)}

    def test_unknown_root_named_in_error(self, mini_store):
        with pytest.raises(LoadError, match="9999"):
            mini_store.taxonomy_closure([_sid(9999)])

    def test_cyclic_input_terminates(self):
        store = load_fixture(_fixture_bytes([
            _simple_synset(1, "a", relations=[(HYPONYM_OF, 2)]),
            _simple_synset(2, "b", relations=[(HYPONYM_OF, 1)]),
        ]))
        assert store.taxonomy_closure([_sid(1)]) == {_sid(1), _sid(2)}

    def test_monotone_in_roots(self, mini_store):
        location = mini_store.resolve_synset_name("location-noun-1")
        artifact = mini_store.resolve_synset_name("artifact-noun-1")
        small = mini_store.taxonomy_closure([location])
        assert small <= mini_store.taxonomy_closure([location, artifact])

    def test_mini_salient_taxonomy_membership(self, mini_store, mini_taxonomy):
        names = {mini_store.synset_name(sid) for sid in mini_taxonomy}
        assert len(mini_taxonomy) == 18
        assert {"bay-noun-1", "riverbed-noun-1", "swimming_pool-noun-1",
                "electricity-noun-1"} <= names
        assert {"bay-noun-2", "electricity-noun-2", "field-noun-12",
                "sound-noun-1"}.isdisjoint(names)

    def test_meronym_only_node_reached(self, mini_store, mini_taxonomy):
        riverbed = mini_store.resolve_synset_name("riverbed-noun-1")
        assert riverbed in mini_taxonomy


def _random_dag(rng, n_nodes):
    """Edges only point from higher to lower node ids, so the graph is
    acyclic by construction."""
    synsets = []
    edges = {}
    for node in range(n_nodes):
        relations = []
        for target in range(node):
            if rng.random() < 0.05:
                kind = rng.choice([HYPONYM_OF, PART_MERONYM_OF, "other"])
                relations.append((kind, target))
        edges[node] = relations
        synsets.append(_simple_synset(node, f"w{node}", relations=relations))
    return load_fixture(_fixture_bytes(synsets)), edges


def _reachability_oracle(edges, roots):
    """Plain breadth-first search over independently built inverse edges."""
    inverse = {}
    for source, relations in edges.items():
        for kind, target in relations:
            if kind in (HYPONYM_OF, PART_MERONYM_OF):
                inverse.setdefault(target, []).append(source)
    seen = set(roots)
    queue = deque(roots)
    while queue:
        node = queue.popleft()
        for child in inverse.get(node, ()):
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return seen


class TestClosureAgainstReachabilityOracle:
    def test_random_dags(self):
        rng = random.Random(20260808)
        for _ in range(50):
            n_nodes = rng.randint(1, 200)
            store, edges = _random_dag(rng, n_nodes)
            n_roots = rng.randint(1, min(5, n_nodes))
            roots = rng.sample(range(n_nodes), n_roots)
            expected = {_sid(n) for n in
                        _reachability_oracle(edges, roots)}
            assert store.taxonomy_closure([_sid(r) for r in roots]) == expected


class TestSynsetNaming:
    def test_bay_uri(self, mini_store):
        sid = mini_store.resolve_synset_name("bay-noun-1")
        assert WN20_SYNSET_NS + mini_store.synset_name(sid) == (
            "http://www.w3.org/2006/03/wn/wn20/instances/synset-bay-noun-1")

    def test_river_uri(self, mini_store):
        sid = mini_store.resolve_synset_name("river-noun-1")
        assert mini_store.synset_name(sid) == "river-noun-1"

    def test_collocation_first_lemma(self):
        store = load_fixture(_fixture_bytes(
            [_simple_synset(7, "talus_slope")]))
        assert store.synset_name(_sid(7)) == "talus_slope-noun-1"

    def test_first_lemma_names_multi_word_synset(self, mini_store):
        sid = mini_store.resolve_synset_name("watercourse-noun-1")
        assert mini_store.synset_name(sid) == "stream-noun-1"

    def test_resolve_unknown_name(self, mini_store):
        with pytest.raises(LoadError, match="no such noun sense"):
            mini_store.resolve_synset_name("unicorn-noun-1")


class TestSenseRecords:
    def _sense(self, lemma="bay", sense_number=1):
        return WordSense(lemma=lemma, synset=_sid(1),
                         sense_number=sense_number, tag_frequency=0)

    def test_frozen(self):
        sense = self._sense()
        synset = Synset(id=_sid(1), senses=(sense,), gloss="")
        with pytest.raises(dataclasses.FrozenInstanceError):
            sense.lemma = "sea"
        with pytest.raises(dataclasses.FrozenInstanceError):
            synset.gloss = "changed"

    def test_equal_and_hashable_by_value(self):
        a, b = self._sense(), self._sense()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != self._sense(sense_number=2)
        syn_a = Synset(id=_sid(1), senses=(a,), gloss="g")
        syn_b = Synset(id=_sid(1), senses=(b,), gloss="g")
        assert syn_a == syn_b and hash(syn_a) == hash(syn_b)
        assert len({a, b, syn_a, syn_b}) == 2


def _load_mini_fixture(fixtures_dir):
    return load_fixture((fixtures_dir / "wordnet_mini.json").read_bytes())


def _load_mini_wndb(fixtures_dir):
    return load_wndb_dir(fixtures_dir / "wndb")


def _load_bad_fixture(fixtures_dir):
    # the dangling relation is found while the store is being built
    return load_fixture(_fixture_bytes(
        [_simple_synset(1, "bay", relations=[(HYPONYM_OF, 99)])]))


def _load_bad_wndb(fixtures_dir):
    return load_wndb(b"", b"00000001 17 n xx | broken\n")


class TestCollectorPaused:
    """Loads run with the cyclic garbage collector paused."""

    @pytest.fixture
    def collections(self):
        """Generations of the collections that run while the test does."""
        seen = []

        def callback(phase, info):
            if phase == "start":
                seen.append(info["generation"])

        gc.collect()
        gc.callbacks.append(callback)
        yield seen
        gc.callbacks.remove(callback)

    @pytest.fixture
    def gc_state(self):
        was_enabled = gc.isenabled()
        threshold = gc.get_threshold()
        yield
        gc.set_threshold(*threshold)
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("load", [_load_mini_fixture, _load_mini_wndb])
    def test_state_restored(self, fixtures_dir, gc_state, enabled, load):
        (gc.enable if enabled else gc.disable)()
        assert len(load(fixtures_dir)) > 0
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("load", [_load_bad_fixture, _load_bad_wndb])
    def test_state_restored_after_load_error(self, fixtures_dir, gc_state,
                                             enabled, load):
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(LoadError):
            load(fixtures_dir)
        assert gc.isenabled() is enabled

    def test_small_load_makes_no_full_collection(self, fixtures_dir,
                                                 collections):
        _load_mini_fixture(fixtures_dir)
        assert 2 not in collections

    def test_large_load_makes_exactly_one_full_collection(
            self, gc_state, collections):
        # thresholds low enough that this load counts as a large one
        data = _fixture_bytes([_simple_synset(n, f"w{n}", gloss=f"g {n}")
                               for n in range(500)])
        gc.set_threshold(1000, 1, 1)
        gc.collect()
        collections.clear()
        load_fixture(data)
        assert collections.count(2) == 1


class TestStoreValidation:
    def test_non_noun_pos_rejected(self):
        from vocmap.wordnet import Synset, WordSense
        sid = SynsetId("v", 1)
        sense = WordSense(lemma="run", synset=sid, sense_number=1,
                          tag_frequency=0)
        with pytest.raises(LoadError, match="noun"):
            WordNetStore([Synset(id=sid, senses=(sense,), gloss="")])


def _spliced(original: bytes):
    """``original`` with a random run of its bytes replaced by random
    bytes."""
    return st.tuples(st.integers(0, len(original)), st.integers(0, 16),
                     st.binary(max_size=16)).map(
        lambda t: original[:t[0]] + t[2] + original[t[0] + t[1]:])


_WNDB_FILES = ("index.noun", "data.noun", "cntlist.rev", "noun.exc")
_WNDB = {name: (Path(__file__).parent / "fixtures" / "wndb" / name)
         .read_bytes() for name in _WNDB_FILES}
_FIXTURE = (Path(__file__).parent / "fixtures" / "wordnet_mini.json") \
    .read_bytes()

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8)

# paths into the first synset entry of _ENTRIES, each replaced in turn
_ENTRY_FIELDS = (("offset",), ("lemmas",), ("gloss",), ("relations",),
                 ("lemmas", 0), ("lemmas", 0, "lemma"),
                 ("lemmas", 0, "sense_number"), ("lemmas", 0, "frequency"),
                 ("relations", 0), ("relations", 0, 0), ("relations", 0, 1))
_ENTRIES = [_simple_synset(1, "bay", frequency=3, gloss="a body of water",
                           relations=[(HYPONYM_OF, 2)]),
            _simple_synset(2, "water")]


class TestLoaderContract:
    """On any input the loaders return a store or raise ``LoadError``."""

    @given(st.binary())
    def test_fixture_from_any_bytes(self, data):
        _store_or_load_error(load_fixture, data)

    @given(_spliced(_FIXTURE))
    def test_fixture_from_spliced_bytes(self, data):
        _store_or_load_error(load_fixture, data)

    @given(st.sampled_from(_WNDB_FILES), st.binary())
    def test_wndb_with_any_bytes_in_one_file(self, name, data):
        _store_or_load_error(load_wndb, **_wndb_args(name, data))

    @given(st.sampled_from(_WNDB_FILES), st.data())
    def test_wndb_with_one_file_spliced(self, name, data):
        spliced = data.draw(_spliced(_WNDB[name]))
        _store_or_load_error(load_wndb, **_wndb_args(name, spliced))

    @given(st.sampled_from(_ENTRY_FIELDS), _json_values)
    def test_any_json_value_in_any_entry_field(self, path, value):
        entries = json.loads(json.dumps(_ENTRIES))
        holder = entries[0]
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
        _store_or_load_error(load_fixture, _fixture_bytes(entries))


def _wndb_args(name, data):
    files = dict(_WNDB, **{name: data})
    return {name.replace(".", "_"): files[name] for name in _WNDB_FILES}


def _store_or_load_error(load, *args, **kwargs):
    try:
        assert isinstance(load(*args, **kwargs), WordNetStore)
    except LoadError:
        pass
