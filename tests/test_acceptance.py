"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
The real-data checks at the bottom are conditional on external downloads and
skip themselves when the environment variables are unset.
"""

import math
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from oracle import lexical_overlap, mapping_set_tuples, oracle_map_vocabulary
from vocmap.cli import main
from vocmap.evaluation import (
    SweepGrid,
    evaluate,
    f_measure,
    trigram_baseline_mapping,
)
from vocmap.mapper import (
    Candidate,
    MapperConfig,
    MatchKind,
    find_candidates,
    find_semantic_mapping,
    map_vocabulary,
    random_baseline_mapping,
    salience,
)
from vocmap.text import (
    compound_candidates,
    default_stopwords,
    normalize_definition,
)
from vocmap.vocab import load_gold, parse_vocabulary_ntriples
from vocmap.wordnet import SynsetId, WordSense, load_fixture, load_wndb_dir

REPO_ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def _criterion(name: str):
    """Print exactly one pass/fail line for the enclosed criterion."""
    detail: dict = {}
    try:
        yield detail
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    suffix = f" ({detail['detail']})" if "detail" in detail else ""
    print(f"[acceptance] {name}: PASS{suffix}")


def _make_candidate(offset, f, ol):
    sid = SynsetId("n", offset)
    ws = WordSense(lemma=f"w{offset}", synset=sid, sense_number=1,
                   tag_frequency=f)
    return Candidate(synset=sid, word_sense=ws,
                     match_kind=MatchKind.COMPLETE, f=f, ol=ol)


def test_salience_formula_exactness():
    """Three candidates, top frequency, second overlap, taxonomy point:
    the score is exactly 0.8; random sets always land in [0, 1]."""
    with _criterion("salience formula exactness") as detail:
        started = time.perf_counter()
        target = _make_candidate(1, f=10, ol=3)
        others = [_make_candidate(2, f=5, ol=7),
                  _make_candidate(3, f=5, ol=1)]
        assert salience(target, [target] + others) == 0.8

        rng = random.Random(20260808)
        for _ in range(10_000):
            n = rng.randint(1, 8)
            candidates = [
                _make_candidate(i, f=rng.randint(0, 1000),
                                ol=rng.randint(0, 50))
                for i in range(n)
            ]
            for candidate in candidates:
                assert 0.0 <= salience(candidate, candidates) <= 1.0
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0
        detail["detail"] = f"{elapsed * 1000:.0f} ms"


def test_overlap_reproduction(mini_store):
    """The two river definitions overlap in exactly one lemma through the
    full normalization pipeline."""
    with _criterion("overlap reproduction"):
        stopwords = default_stopwords()
        term_bag = normalize_definition("A river is a body of water",
                                        {"river"}, mini_store, stopwords)
        gloss_bag = normalize_definition(
            "Rivers are natural streams of water", {"river"}, mini_store,
            stopwords)
        assert lexical_overlap(term_bag, gloss_bag) == 1


def test_f_measure_reproduction():
    """The two reported precision/recall pairs reproduce their F values
    within +/- 0.005."""
    with _criterion("f-measure reproduction") as detail:
        high = f_measure(0.91, 0.98, beta=0.5)
        assert abs(high - 0.92) <= 0.005 and round(high, 2) == 0.92
        tradeoff = f_measure(0.81, 0.45, beta=0.5)
        assert abs(tradeoff - 0.70) <= 0.005 and round(tradeoff, 2) == 0.70
        detail["detail"] = (f"F(0.91,0.98)={high:.4f} "
                            f"F(0.81,0.45)={tradeoff:.4f}")


def test_oracle_equivalence_over_full_grid(mini_store, mini_vocab,
                                           mini_taxonomy):
    """The production mapper equals the brute-force reference on every one
    of the 396 grid configurations, with zero mismatched triples."""
    with _criterion("oracle equivalence over 396 configurations") as detail:
        started = time.perf_counter()
        points = SweepGrid().points()
        assert len(points) == 396
        mismatches = 0
        for taxonomy_on, f_min, ol_min in points:
            taxonomy = mini_taxonomy if taxonomy_on else None
            config = MapperConfig(ol_min=ol_min, f_min=f_min,
                                  taxonomy=taxonomy)
            produced = mapping_set_tuples(
                map_vocabulary(mini_vocab, mini_store, config))
            expected = oracle_map_vocabulary(mini_vocab, mini_store,
                                             ol_min=ol_min, f_min=f_min,
                                             taxonomy=taxonomy)
            if produced != expected:
                mismatches += 1
        elapsed = time.perf_counter() - started
        assert mismatches == 0
        assert elapsed < 10.0
        detail["detail"] = f"{elapsed:.1f} s"


def test_sweep_shape_and_determinism(fixtures_dir, tmp_path):
    """cmd_sweep emits exactly 396 rows, byte-identically for 1 and 10
    workers."""
    with _criterion("sweep shape and determinism") as detail:
        started = time.perf_counter()
        payloads = []
        for workers, name in ((1, "w1"), (10, "w10")):
            out = tmp_path / name
            code = main([
                "sweep",
                "--vocab", str(fixtures_dir / "vocab_mini.nt"),
                "--wordnet", str(fixtures_dir / "wordnet_mini.json"),
                "--gold", str(fixtures_dir / "gold_mini.nt"),
                "--taxonomy-roots", str(fixtures_dir / "roots_mini.txt"),
                "--workers", str(workers),
                "--out", str(out),
            ])
            assert code == 0
            payloads.append((out / "sweep.tsv").read_bytes())
        lines = payloads[0].decode().splitlines()
        assert len(lines) == 1 + 396
        assert payloads[0] == payloads[1]
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
        detail["detail"] = f"{elapsed:.1f} s"


def test_monotonicity_suite(mini_store, mini_vocab, mini_taxonomy):
    """Raising a threshold or activating the taxonomy never adds a candidate
    and never maps more terms, over 100 random configuration pairs."""
    with _criterion("monotonicity suite"):
        rng = random.Random(77)

        def _candidate_keys(config):
            keys = {}
            for uri in sorted(mini_vocab.terms):
                term = mini_vocab.terms[uri]
                forms = compound_candidates(term.pref_label)
                candidates = find_candidates(term, forms[0], mini_store,
                                             config)
                keys[uri] = {(c.synset.offset, c.word_sense.lemma,
                              c.word_sense.sense_number) for c in candidates}
            return keys

        def _mapped_terms(config):
            return sum(
                1 for uri in mini_vocab.terms
                if find_semantic_mapping(mini_vocab.terms[uri], mini_store,
                                         config) is not None)

        for _ in range(100):
            ol = rng.randint(0, 5)
            f = rng.randint(0, 60)
            taxonomy_on = rng.random() < 0.5
            dimension = rng.choice(["ol", "f", "taxonomy"])
            loose = MapperConfig(
                ol_min=ol, f_min=f,
                taxonomy=mini_taxonomy if taxonomy_on else None)
            strict = MapperConfig(
                ol_min=ol + (rng.randint(1, 3) if dimension == "ol" else 0),
                f_min=f + (rng.randint(1, 40) if dimension == "f" else 0),
                taxonomy=mini_taxonomy
                if (taxonomy_on or dimension == "taxonomy") else None)
            loose_keys = _candidate_keys(loose)
            strict_keys = _candidate_keys(strict)
            for uri in loose_keys:
                assert strict_keys[uri] <= loose_keys[uri]
            assert _mapped_terms(strict) <= _mapped_terms(loose)


def test_closure_reachability_oracle():
    """Taxonomy closure equals breadth-first reachability on 50 random
    DAGs of up to 200 nodes."""
    from collections import deque
    import json

    with _criterion("closure reachability oracle"):
        rng = random.Random(13)
        for _ in range(50):
            n_nodes = rng.randint(1, 200)
            synsets = []
            edges = {}
            for node in range(n_nodes):
                relations = []
                for target in range(node):
                    if rng.random() < 0.04:
                        kind = rng.choice(["hyponymOf", "partMeronymOf",
                                           "seeAlso"])
                        relations.append([kind, target])
                edges[node] = relations
                synsets.append({"offset": node,
                                "lemmas": [{"lemma": f"w{node}"}],
                                "relations": relations})
            store = load_fixture(json.dumps({"synsets": synsets}))
            roots = rng.sample(range(n_nodes), rng.randint(1, min(4, n_nodes)))

            inverse = {}
            for source, relations in edges.items():
                for kind, target in relations:
                    if kind in ("hyponymOf", "partMeronymOf"):
                        inverse.setdefault(target, []).append(source)
            seen = set(roots)
            queue = deque(roots)
            while queue:
                node = queue.popleft()
                for child in inverse.get(node, ()):
                    if child not in seen:
                        seen.add(child)
                        queue.append(child)

            produced = store.taxonomy_closure(
                [SynsetId("n", r) for r in roots])
            assert produced == {SynsetId("n", n) for n in seen}


def test_baseline_direction(mini_store, mini_vocab, mini_gold, mini_taxonomy):
    """At the optimal settings the mapper strictly beats both the random
    baseline (averaged over 100 seeds) and the trigram-labels baseline."""
    with _criterion("baseline direction") as detail:
        config = MapperConfig(ol_min=1, f_min=1, taxonomy=mini_taxonomy)
        main_f = evaluate(map_vocabulary(mini_vocab, mini_store, config),
                          mini_gold).f_measure

        random_f = [
            evaluate(random_baseline_mapping(mini_vocab, mini_store,
                                             seed=seed),
                     mini_gold).f_measure
            for seed in range(100)
        ]
        mean_random_f = sum(random_f) / len(random_f)

        trigram_f = evaluate(
            trigram_baseline_mapping(mini_vocab, mini_store, 0.9,
                                     strategy="labels"),
            mini_gold).f_measure

        assert main_f > mean_random_f
        assert main_f > trigram_f
        detail["detail"] = (f"main={main_f:.3f} random={mean_random_f:.3f} "
                            f"trigram={trigram_f:.3f}")


# ---------------------------------------------------------------------------
# Conditional checks against real external data.  Best effort: the exact
# preprocessing behind the published figures (stopword list, lemmatizer, tie
# rules) is not fully specified, so these gate on availability and use wide
# tolerances.

_WN_DIR = os.environ.get("VOCMAP_WN20_DIR", "")


def _shipped_roots(store):
    names = [line.strip() for line in
             (REPO_ROOT / "data" / "roots.txt").read_text().splitlines()
             if line.strip()]
    return [store.resolve_synset_name(name) for name in names]


@pytest.mark.skipif(not _WN_DIR, reason="set VOCMAP_WN20_DIR to a WordNet "
                    "2.0 dict directory to enable")
def test_conditional_salient_closure_size():
    with _criterion("conditional closure size") as detail:
        store = load_wndb_dir(_WN_DIR)
        size = len(store.taxonomy_closure(_shipped_roots(store)))
        assert abs(size - 6312) / 6312 <= 0.05
        detail["detail"] = f"{size} synsets"


@pytest.mark.skipif(
    not (_WN_DIR and os.environ.get("VOCMAP_OSN_VOCAB")
         and os.environ.get("VOCMAP_OSN_GOLD")),
    reason="set VOCMAP_WN20_DIR, VOCMAP_OSN_VOCAB, and VOCMAP_OSN_GOLD "
           "to enable")
def test_conditional_published_scores():
    with _criterion("conditional published scores") as detail:
        store = load_wndb_dir(_WN_DIR)
        vocabulary = parse_vocabulary_ntriples(
            Path(os.environ["VOCMAP_OSN_VOCAB"]).read_bytes())
        gold = load_gold(Path(os.environ["VOCMAP_OSN_GOLD"]).read_bytes())
        taxonomy = store.taxonomy_closure(_shipped_roots(store))
        config = MapperConfig(ol_min=1, f_min=1, taxonomy=taxonomy)
        result = evaluate(map_vocabulary(vocabulary, store, config), gold)
        assert math.isclose(result.precision, 0.91, abs_tol=0.10)
        assert math.isclose(result.recall, 0.98, abs_tol=0.10)
        detail["detail"] = (f"P={result.precision:.2f} "
                            f"R={result.recall:.2f}")
