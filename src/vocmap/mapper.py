"""Core mapping algorithm: candidate generation, salience scoring, selection.

For each vocabulary term, word senses whose lemma lexically matches one of
the term's label forms become candidates.  Three salience filters prune
them: a minimum sense usage frequency, a minimum lexical overlap between the
term's definition and the synset gloss, and (optionally) membership of a
salient taxonomy.  Survivors are scored by a normalized combination of the
frequency rank, the overlap rank, and the taxonomy flag; the best candidate
yields the mapping.  A second pass maps terms extracted from the lexical
definition, always with the 'related' relation.

The text work does not depend on the thresholds: a ``CandidateTable`` does
it once, and each config then only filters, picks and ranks its rows.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from vocmap.text import (
    compound_candidates,
    default_stopwords,
    extract_definition_terms,
    lemmatize_noun,
    normalize_definition,
    tokenize,
)
from vocmap.vocab import (Mapping, MappingRelation, MappingSet, Provenance,
                          Term, Vocabulary)
from vocmap.wordnet import SynsetId, WordNetStore, WordSense


class MatchKind(Enum):
    PARTIAL = "partial"
    COMPLETE = "complete"


@dataclass(frozen=True)
class MapperConfig:
    """Mapping parameters.

    ``taxonomy`` of None means the salient taxonomy coincides with the whole
    store: nothing is filtered and every candidate gets the taxonomy point.
    """

    ol_min: int = 0
    f_min: int = 0
    taxonomy: frozenset[SynsetId] | None = None
    use_alt_labels: bool = False

    def __post_init__(self):
        if self.ol_min < 0:
            raise ValueError("ol_min must be >= 0")
        if self.f_min < 0:
            raise ValueError("f_min must be >= 0")


@dataclass(frozen=True)
class Candidate:
    """A surviving (synset, word sense) pair with its indicator values."""

    synset: SynsetId
    word_sense: WordSense
    match_kind: MatchKind
    f: int
    ol: int


def _matching_senses(label: str, store: WordNetStore):
    """All (sense, kind) pairs whose lemma lexically matches the label:
    complete when its tokens equal the label's, partial when they are a
    contiguous run of them.  Every such run is looked up in the lemma
    index."""
    tokens = tokenize(label)
    matches: list[tuple[WordSense, MatchKind]] = []
    tried: set[str] = set()
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens) + 1):
            lemma = "_".join(tokens[i:j])
            if lemma in tried:
                continue
            tried.add(lemma)
            kind = MatchKind.COMPLETE if (i == 0 and j == len(tokens)) \
                else MatchKind.PARTIAL
            for ws in store.lookup_senses(lemma):
                matches.append((ws, kind))
    return matches


def _passes(term: Term, store: WordNetStore, stopwords: frozenset[str],
            use_alt_labels: bool):
    """The passes of a term as (definition term or None, label, forms).

    First the label pass: the forms of the preferred label, then (when
    enabled) of each alternative label, in order and without repeats.  Then
    one pass per term extracted from the definition, never one of the
    term's own label forms or lemmas.
    """
    labels = (term.pref_label,) + (term.alt_labels if use_alt_labels else ())
    yield None, term.pref_label, list(dict.fromkeys(
        form for label in labels for form in compound_candidates(label)))
    exclude = set(compound_candidates(term.pref_label))
    exclude.update(lemmatize_noun(t, store) for t in tokenize(term.pref_label))
    for d in extract_definition_terms(term.definition, store, stopwords,
                                      exclude=exclude):
        yield d, d, compound_candidates(d)


class CandidateTable:
    """The threshold-independent candidates of a vocabulary.

    Built once per (vocabulary, store, floor config).  Each term has a label
    pass and one pass per term extracted from its definition; a pass lists
    its forms in order, each with the lexically matched senses that pass the
    floor's three filters.  ``select`` maps the vocabulary under any config
    at or above the floor by only filtering, picking and ranking those rows.
    """

    def __init__(self, vocabulary, store: WordNetStore, floor: MapperConfig):
        self.store = store
        self.floor = floor
        self._gloss_bags: dict[SynsetId, frozenset[str]] = {}
        self.terms: list[tuple[str, tuple]] = [
            (uri, tuple(self.passes(vocabulary.terms[uri])))
            for uri in sorted(vocabulary.terms)]

    def passes(self, term: Term, label_forms: Sequence[str] | None = None):
        """Yield (definition term or None, forms) for each pass of a term,
        the label pass first; ``forms`` holds (form, rows, highest f,
        highest ol) for each form that has any row, in order.
        ``label_forms``, when given, replaces the label pass's forms.

        ``normalize_definition(text, exclude)`` equals the unexcluded bag
        minus ``exclude``, so the passes of a term share its definition bag
        and each subtracts the lemmas of the label it maps.
        """
        store, floor, gloss_bags = self.store, self.floor, self._gloss_bags
        stopwords = default_stopwords()
        definition_bag = normalize_definition(term.definition or "", (),
                                              store, stopwords)
        for d, label, forms in _passes(term, store, stopwords,
                                       floor.use_alt_labels):
            if d is None and label_forms is not None:
                forms = label_forms
            term_bag = definition_bag - {lemmatize_noun(t, store)
                                         for t in tokenize(label)}
            kept = []
            for form in forms:
                rows = []
                for ws, kind in _matching_senses(form, store):
                    sid = ws.synset
                    if (floor.taxonomy is not None
                            and sid not in floor.taxonomy
                            or ws.tag_frequency < floor.f_min):
                        continue
                    # a gloss is normalized only for a sense that can pass
                    if sid not in gloss_bags:
                        gloss_bags[sid] = normalize_definition(
                            store.gloss(sid), (), store, stopwords)
                    ol = len(term_bag & gloss_bags[sid])
                    if ol >= floor.ol_min:
                        rows.append(Candidate(synset=sid, word_sense=ws,
                                              match_kind=kind,
                                              f=ws.tag_frequency, ol=ol))
                if rows:
                    kept.append((form, rows, max(c.f for c in rows),
                                 max(c.ol for c in rows)))
            yield d, tuple(kept)

    def select(self, config: MapperConfig) -> MappingSet:
        """The vocabulary's mapping under ``config``: a label-derived
        mapping where one exists, plus a related mapping for each term
        extracted from the definition.  ``config`` must be at or above the
        floor, and have the floor's taxonomy when the floor has one."""
        floor = self.floor
        if (config.f_min < floor.f_min or config.ol_min < floor.ol_min
                or config.use_alt_labels != floor.use_alt_labels
                or floor.taxonomy not in (None, config.taxonomy)):
            raise ValueError("config is looser than the table's floor")
        mappings: list[Mapping] = []
        warnings: list[str] = []
        for uri, passes in self.terms:
            for d, forms in passes:
                mapping = _pick(uri, forms, config, self.store, d)
                if mapping is not None:
                    mappings.append(mapping)
                elif d is None:
                    warnings.append(f"no label mapping for <{uri}>")
        return MappingSet(mappings, warnings=warnings)


def find_candidates(term: Term, label: str, store: WordNetStore,
                    config: MapperConfig) -> list[Candidate]:
    """Candidates for one lexical form of a term, after all three filters."""
    table = CandidateTable(Vocabulary(()), store, config)
    _, forms = next(table.passes(term, label_forms=(label,)))
    return forms[0][1] if forms else []


def _desc_ranks(values: Sequence[int]) -> list[int]:
    """Descending competition ranks by sorting: 1 + the count of strictly
    greater values; ties share a rank."""
    ordered = sorted(values)
    return [1 + len(ordered) - bisect_right(ordered, v) for v in values]


def _salience(n: int, rank_f: int, rank_ol: int) -> float:
    # theta is 1 for every survivor: a member of the taxonomy, or of the
    # whole store when there is none
    return (2 * n - rank_f - rank_ol + 1) / (2 * n - 1)


def salience(candidate: Candidate, candidates: Sequence[Candidate]) -> float:
    """Normalized salience of one candidate within its candidate set.

    With n candidates: (2n - rank(f) - rank(ol) + theta) / (2n - 1), where
    the taxonomy point theta is 1 for every survivor, so the score lands in
    (0, 1].
    """
    rank_f = 1 + sum(1 for c in candidates if c.f > candidate.f)
    rank_ol = 1 + sum(1 for c in candidates if c.ol > candidate.ol)
    return _salience(len(candidates), rank_f, rank_ol)


def _select(candidates: Sequence[Candidate]) -> tuple[Candidate, float]:
    """The candidate with maximum salience, and that salience, from one
    ranking by sorting."""
    if not candidates:
        raise ValueError("cannot select from an empty candidate set")
    n = len(candidates)
    ranked = zip(candidates, _desc_ranks([c.f for c in candidates]),
                 _desc_ranks([c.ol for c in candidates]))
    best, rank_f, rank_ol = min(ranked, key=lambda r: (
        -_salience(n, r[1], r[2]), -r[0].f, r[0].synset.offset,
        r[0].word_sense.lemma, r[0].word_sense.sense_number))
    return best, _salience(n, rank_f, rank_ol)


def select_best(candidates: Sequence[Candidate]) -> Candidate:
    """The candidate with maximum salience.

    Ties break deterministically: higher frequency, then lower synset
    offset, then lemma and sense number.
    """
    return _select(candidates)[0]


def assign_relation(best: Candidate,
                    candidates: Sequence[Candidate]) -> MappingRelation:
    """Close only for a complete match that also maximizes both overlap and
    frequency over the candidate set; related otherwise.  Never exact."""
    max_ol = max(c.ol for c in candidates)
    max_f = max(c.f for c in candidates)
    if (best.match_kind is MatchKind.COMPLETE
            and best.ol == max_ol and best.f == max_f):
        return MappingRelation.CLOSE
    return MappingRelation.RELATED


def _pick(uri: str, forms: tuple, config: MapperConfig, store: WordNetStore,
          definition_term: str | None = None) -> Mapping | None:
    """The mapping of one pass: the best of the first form with any row
    left after the filters, or None.  A pass for a term extracted from the
    definition always yields a related mapping."""
    for form, rows, max_f, max_ol in forms:
        if max_f < config.f_min or max_ol < config.ol_min:
            continue  # no row of this form passes
        kept = [c for c in rows if c.f >= config.f_min
                and c.ol >= config.ol_min
                and (config.taxonomy is None
                     or c.synset in config.taxonomy)]
        if not kept:
            continue
        best, score = _select(kept)
        label_pass = definition_term is None
        return Mapping(
            term=uri, synset=store.synset_name(best.synset),
            relation=assign_relation(best, kept) if label_pass
            else MappingRelation.RELATED, score=score,
            provenance=Provenance.LABEL if label_pass
            else Provenance.DEFINITION,
            source_word=form if label_pass else definition_term)
    return None


def find_semantic_mapping(term: Term, store: WordNetStore,
                          config: MapperConfig) -> Mapping | None:
    """Map one term to its best synset, or None when no form yields
    candidates.

    Label forms are tried in order: the full collocation of the preferred
    label, then its constituent tokens, then (when enabled) the same
    sequence for each alternative label.  The first form with a non-empty
    candidate set wins.
    """
    table = CandidateTable(Vocabulary(()), store, config)
    _, forms = next(table.passes(term))
    return _pick(term.uri, forms, config, store)


def map_vocabulary(vocabulary, store: WordNetStore,
                   config: MapperConfig) -> MappingSet:
    """Map every term of a vocabulary: a label-derived mapping where one
    exists, plus a related mapping for each term extracted from the lexical
    definition.  Terms are processed in lexicographic URI order."""
    return CandidateTable(vocabulary, store, config).select(config)


def random_baseline_mapping(vocabulary, store: WordNetStore,
                            seed: int = 0) -> MappingSet:
    """Disambiguation baseline: among the lexically matching senses of each
    term (no filters), pick one uniformly at random.

    Every emitted relation is 'related'.  Draws come from a per-term
    generator seeded with (seed, term URI), so results are reproducible and
    independent of vocabulary-wide ordering.
    """
    stopwords = default_stopwords()
    mappings: list[Mapping] = []
    for uri in sorted(vocabulary.terms):
        rng = random.Random(f"{seed}:{uri}")
        for d, _, forms in _passes(vocabulary.terms[uri], store, stopwords,
                                   use_alt_labels=False):
            for form in forms:
                senses = sorted(
                    {ws for ws, _ in _matching_senses(form, store)},
                    key=lambda ws: (ws.synset.offset, ws.lemma,
                                    ws.sense_number))
                if senses:
                    mappings.append(Mapping(
                        term=uri, relation=MappingRelation.RELATED,
                        synset=store.synset_name(rng.choice(senses).synset),
                        score=0.0, provenance=Provenance.LABEL if d is None
                        else Provenance.DEFINITION, source_word=d or form))
                    break
    return MappingSet(mappings)
