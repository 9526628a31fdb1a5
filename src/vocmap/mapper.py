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


@dataclass(frozen=True, slots=True)
class Candidate:
    """A surviving (synset, word sense) pair with its indicator values."""

    synset: SynsetId
    word_sense: WordSense
    match_kind: MatchKind
    f: int
    ol: int


def _matching_lemmas(tokens: Sequence[str]) -> list[tuple[str, MatchKind]]:
    """The strings that a lemma lexically matching a label's tokens must
    be, each once, with its kind: all the tokens joined by '_' (complete),
    and every shorter contiguous run of them (partial), by start, then by
    length."""
    n = len(tokens)
    runs: dict[str, MatchKind] = {}
    for i in range(n):
        for j in range(i + 1, n + 1):
            runs.setdefault("_".join(tokens[i:j]),
                            MatchKind.COMPLETE if (i == 0 and j == n)
                            else MatchKind.PARTIAL)
    return list(runs.items())


def _passes(term: Term, store: WordNetStore, stopwords: frozenset[str],
            use_alt_labels: bool):
    """The passes of a term as (definition term or None, lemmas of the
    label it maps, forms); each label is tokenized once.

    A form is a label's tokens, and ``_matching_lemmas`` finds each run of
    them.  First the label pass: the preferred label's form, then (when
    enabled) each alternative label's, without repeats or empty forms.  Then
    one pass, with one form, per term extracted from the definition: never
    the preferred label's joined form, one of its tokens or their lemmas.
    """
    pref = tuple(tokenize(term.pref_label))
    lemmas = {lemmatize_noun(t, store) for t in pref}
    forms = [pref] + [tuple(tokenize(label)) for label in term.alt_labels
                      if use_alt_labels]
    yield None, lemmas, [form for form in dict.fromkeys(forms) if form]
    exclude = {"_".join(pref), *pref, *lemmas} if pref else set()
    for d in extract_definition_terms(term.definition, store, stopwords,
                                      exclude=exclude):
        form = tokenize(d)
        yield d, {lemmatize_noun(t, store) for t in form}, [form]


class CandidateTable:
    """The threshold-independent candidates of a vocabulary.

    Built once per (vocabulary, store, floor config).  Each term has a label
    pass and one pass per term extracted from its definition; a pass lists
    its forms in order, each with the lexically matched senses that pass the
    floor's three filters.  ``select`` maps the vocabulary under any config
    at or above the floor by only filtering, picking and ranking those rows.

    What does not depend on the term is found once per distinct string and
    kept for the table's life: each lemma's senses that pass the floor's
    taxonomy and frequency filters, with their gloss bags.  Each label is
    tokenized once per pass, and a pass computes only its rows' overlaps.
    """

    def __init__(self, vocabulary, store: WordNetStore, floor: MapperConfig):
        self.store = store
        self.floor = floor
        self._gloss_bags: dict[SynsetId, frozenset[str]] = {}
        self._floor_senses: dict[
            str, tuple[tuple[WordSense, frozenset[str]], ...]] = {}
        self.terms: list[tuple[str, tuple]] = [
            (uri, tuple(self.passes(vocabulary.terms[uri])))
            for uri in sorted(vocabulary.terms)]

    def _senses_of(self, lemma: str
                   ) -> tuple[tuple[WordSense, frozenset[str]], ...]:
        """The lemma's senses that pass the floor's taxonomy and frequency
        filters, in sense order, each with its gloss bag; a gloss is
        normalized only for a sense that passes."""
        senses = self._floor_senses.get(lemma)
        if senses is None:
            store, floor, gloss_bags = self.store, self.floor, self._gloss_bags
            kept = []
            for ws in store.lookup_senses(lemma):
                sid = ws.synset
                if (floor.taxonomy is not None and sid not in floor.taxonomy
                        or ws.tag_frequency < floor.f_min):
                    continue
                bag = gloss_bags.get(sid)
                if bag is None:
                    bag = gloss_bags[sid] = normalize_definition(
                        store.gloss(sid), (), store, default_stopwords())
                kept.append((ws, bag))
            senses = self._floor_senses[lemma] = tuple(kept)
        return senses

    def _rows(self, form: Sequence[str],
              term_bag: frozenset[str]) -> list[Candidate]:
        """The candidates of one form that pass the floor's three filters,
        with their overlaps with ``term_bag``."""
        ol_min, rows = self.floor.ol_min, []
        for lemma, kind in _matching_lemmas(form):
            for ws, gloss_bag in self._senses_of(lemma):
                # the one value that depends on the term
                ol = len(term_bag & gloss_bag)
                if ol >= ol_min:
                    rows.append(Candidate(
                        synset=ws.synset, word_sense=ws, match_kind=kind,
                        f=ws.tag_frequency, ol=ol))
        return rows

    def passes(self, term: Term):
        """Yield (definition term or None, forms) for each pass of a term,
        the label pass first; ``forms`` holds (form joined by '_', rows,
        highest f, highest ol) for each label form that has any row, in
        order: one form per label, so a definition pass holds at most one.

        ``normalize_definition(text, exclude)`` equals the unexcluded bag
        minus ``exclude``, so the passes of a term share its definition bag
        and each subtracts the lemmas of the label it maps.
        """
        store, stopwords = self.store, default_stopwords()
        definition_bag = normalize_definition(term.definition or "", (),
                                              store, stopwords)
        for d, lemmas, forms in _passes(term, store, stopwords,
                                        self.floor.use_alt_labels):
            term_bag = definition_bag - lemmas
            yield d, tuple(
                ("_".join(form), rows, max(c.f for c in rows),
                 max(c.ol for c in rows))
                for form in forms if (rows := self._rows(form, term_bag)))

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
    """Candidates for one label of a term, after all three filters.  As in
    the term's label pass, overlaps count against its definition bag less
    the lemmas of its preferred label."""
    stopwords = default_stopwords()
    _, lemmas, _ = next(_passes(term, store, stopwords, False))
    term_bag = normalize_definition(term.definition or "", lemmas, store,
                                    stopwords)
    return CandidateTable(Vocabulary(()), store, config)._rows(
        tokenize(label), term_bag)


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


def select_best(candidates: Sequence[Candidate]) -> tuple[Candidate, float]:
    """The candidate with maximum salience, and that salience, from one
    ranking by sorting.

    Ties break deterministically: higher frequency, then lower synset
    offset, then lemma and sense number.
    """
    if not candidates:
        raise ValueError("cannot select from an empty candidate set")
    n = len(candidates)
    ranked = zip(candidates, _desc_ranks([c.f for c in candidates]),
                 _desc_ranks([c.ol for c in candidates]))
    best, rank_f, rank_ol = min(ranked, key=lambda r: (
        -_salience(n, r[1], r[2]), -r[0].f, r[0].synset.offset,
        r[0].word_sense.lemma, r[0].word_sense.sense_number))
    return best, _salience(n, rank_f, rank_ol)


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
        best, score = select_best(kept)
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

    Label forms are tried in order: the form of the preferred label, then
    (when enabled) of each alternative label.  The first form with a
    non-empty candidate set wins.
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
            senses = sorted(
                {ws for form in forms for lemma, _ in _matching_lemmas(form)
                 for ws in store.lookup_senses(lemma)},
                key=lambda ws: (ws.synset.offset, ws.lemma, ws.sense_number))
            if senses:
                mappings.append(Mapping(
                    term=uri, relation=MappingRelation.RELATED,
                    synset=store.synset_name(rng.choice(senses).synset),
                    score=0.0, provenance=Provenance.LABEL if d is None
                    else Provenance.DEFINITION,
                    source_word=d or "_".join(forms[0])))
    return MappingSet(mappings)
